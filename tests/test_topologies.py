import numpy as np
import pytest

from qstarlab import function_lab as flab
from qstarlab.ccr import CCRPolynomial, ccr_represent, graph_weights
from qstarlab.forms import ProbeFamily
from qstarlab.rates import NonFiniteSeriesError, geometric_ladder
from qstarlab.topologies import (BoundedSet, TruncatedOperator, TruncatedTriple,
                                 closability_check, extend_by_closure, pairing,
                                 quasi_algebra_closure_test, seminorm,
                                 strongstar_hilbert_seminorm,
                                 suite_from_bounded_sets)


def basis(dim, i):
    v = np.zeros(dim, dtype=complex)
    v[i] = 1.0
    return v


@pytest.fixture(scope="module")
def pair_set():
    return BoundedSet((basis(3, 0), basis(3, 1)), name="pair")


def test_seminorm_zero_operator(pair_set):
    zero = TruncatedOperator(np.zeros((3, 3)))
    assert seminorm(zero, "uniform", pair_set) == 0.0
    assert seminorm(zero, "strong", pair_set, phi=basis(3, 0)) == 0.0
    assert seminorm(zero, "strongstar", pair_set, phi=basis(3, 0)) == 0.0
    assert seminorm(zero, "weak", phi=basis(3, 0), psi=basis(3, 1)) == 0.0


def test_seminorm_identity_uniform(pair_set):
    ident = TruncatedOperator(np.eye(3))
    # sup over the four pairs of |<phi, psi>| on an orthonormal pair is 1
    assert seminorm(ident, "uniform", pair_set) == pytest.approx(1.0)


def test_momentum_weak_seminorm():
    p_op = TruncatedOperator(ccr_represent(CCRPolynomial.momentum(), 2).matrix)
    e1 = basis(5, 3)  # frequency n=1 on the centered window
    assert seminorm(p_op, "weak", phi=e1, psi=e1) == pytest.approx(2 * np.pi)


def test_strongstar_hilbert_seminorm_examples():
    sa = TruncatedOperator(np.array([[2.0, 0], [0, -1.0]], dtype=complex))
    f = np.array([1.0, 1.0]) / np.sqrt(2)
    assert strongstar_hilbert_seminorm(sa, f) == pytest.approx(
        float(np.linalg.norm(sa.matrix @ f)))
    shift = TruncatedOperator(np.array([[0, 1.0], [0, 0]], dtype=complex))
    assert strongstar_hilbert_seminorm(shift, basis(2, 1)) == pytest.approx(1.0)
    assert strongstar_hilbert_seminorm(shift, np.zeros(2)) == 0.0


def test_seminorm_argument_errors(pair_set):
    op = TruncatedOperator(np.eye(3))
    with pytest.raises(ValueError, match="bounded set"):
        seminorm(op, "uniform")
    with pytest.raises(ValueError, match="vector"):
        seminorm(op, "strong", pair_set)
    with pytest.raises(ValueError, match="two vectors"):
        seminorm(op, "weak", phi=basis(3, 0))
    with pytest.raises(ValueError, match="unknown topology"):
        seminorm(op, "norm", pair_set)
    with pytest.raises(ValueError):
        BoundedSet(())


def test_topology_comparison_chain():
    rng = np.random.default_rng(0)
    dim = 6
    for _ in range(50):
        mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        op = TruncatedOperator(mat / np.linalg.norm(mat))
        vecs = [v / np.linalg.norm(v) for v in
                (rng.standard_normal((dim,)) + 1j * rng.standard_normal((dim,))
                 for _ in range(4))]
        m = BoundedSet(tuple(vecs), name="M")
        phi, psi = vecs[0], vecs[1]
        weak = seminorm(op, "weak", phi=phi, psi=psi)
        strong = seminorm(op, "strong", m, phi=phi)
        sstar = seminorm(op, "strongstar", m, phi=phi)
        uniform = seminorm(op, "uniform", m)
        assert weak <= strong + 1e-12
        assert strong <= sstar + 1e-12
        assert strong <= uniform + 1e-12


def test_involution_invariance():
    rng = np.random.default_rng(1)
    dim = 5
    for _ in range(25):
        mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        op = TruncatedOperator(mat / np.linalg.norm(mat))
        adj = op.adjoint()
        vecs = tuple(v / np.linalg.norm(v) for v in
                     (rng.standard_normal((dim,)) + 1j * rng.standard_normal((dim,))
                      for _ in range(3)))
        m = BoundedSet(vecs, name="M")
        assert seminorm(adj, "uniform", m) == pytest.approx(
            seminorm(op, "uniform", m), abs=1e-12)
        phi = vecs[0]
        assert seminorm(adj, "strongstar", m, phi=phi) == pytest.approx(
            seminorm(op, "strongstar", m, phi=phi), abs=1e-12)
        psi = vecs[1]
        sym = max(seminorm(op, "weak", phi=phi, psi=psi),
                  seminorm(op, "weak", phi=psi, psi=phi))
        sym_adj = max(seminorm(adj, "weak", phi=phi, psi=psi),
                      seminorm(adj, "weak", phi=psi, psi=phi))
        assert sym_adj == pytest.approx(sym, abs=1e-12)


def test_adjoint_is_inner_product_adjoint():
    rng = np.random.default_rng(2)
    mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    op = TruncatedOperator(mat)
    u, v = rng.standard_normal(4), rng.standard_normal(4)
    lhs = pairing(op.adjoint().apply(u), v)
    rhs = np.conj(pairing(op.apply(v), u))
    assert abs(lhs - rhs) < 1e-12
    assert np.max(np.abs(op.adjoint_matrix - mat.conj().T)) == 0.0


def test_truncated_triple_invariants():
    with pytest.raises(ValueError, match=">= 1"):
        TruncatedTriple(3, np.array([1.0, 0.5, 2.0]))
    with pytest.raises(ValueError, match="graph weights"):
        TruncatedTriple(3, np.ones(2))
    weights = graph_weights(4)
    triple = TruncatedTriple(9, weights, name="fourier")
    v = np.ones(9) / 3.0
    assert triple.graph_norm(v, 0) == pytest.approx(1.0)
    assert triple.graph_norm(v, 1) >= triple.graph_norm(v, 0)


def test_extend_by_closure_constant_sequence():
    grid = flab.simpson_grid(257)
    f = flab.GridFunction.from_callable(
        lambda x: np.cos(2 * np.pi * x).astype(complex), grid)
    ops = [flab.mult_operator(f)] * 6
    elements = [f] * 6
    suite = suite_from_bounded_sets("uniform", [flab.node_spike_set(grid)])
    result = extend_by_closure(lambda g: flab.lp_norm(g, 1.0), elements, ops,
                               "uniform", suite=suite)
    assert result.converged
    assert result.limit is ops[-1]
    assert result.membership.ambient_limit
    assert np.max(result.residual_trace) == 0.0


def test_extend_by_closure_validation():
    suite = [("s", lambda a: 0.0)]
    with pytest.raises(ValueError, match="empty"):
        extend_by_closure(lambda x: 0.0, [], [], "uniform", suite=suite)
    ops = [TruncatedOperator(np.eye(2)), TruncatedOperator(np.eye(3))]
    with pytest.raises(ValueError, match="inconsistent truncation"):
        extend_by_closure(lambda x: 0.0, [0, 0], ops, "uniform", suite=suite)
    with pytest.raises(ValueError, match="suite"):
        extend_by_closure(lambda x: 0.0, [0], [TruncatedOperator(np.eye(2))],
                          "uniform", suite=[])
    with pytest.raises(ValueError, match="differ in length"):
        extend_by_closure(lambda x: 0.0, [0],
                          [TruncatedOperator(np.eye(2))] * 2, "uniform",
                          suite=suite)


def test_operator_and_suite_construction_errors():
    with pytest.raises(ValueError, match="square"):
        TruncatedOperator(np.ones((2, 3)))
    a, b = TruncatedOperator(np.eye(2)), TruncatedOperator(np.eye(3))
    with pytest.raises(ValueError, match="dimensions differ"):
        a + b
    with pytest.raises(ValueError, match="test vectors"):
        suite_from_bounded_sets("strong", [BoundedSet((np.ones(2),))])
    with pytest.raises(ValueError, match="vector pairs"):
        suite_from_bounded_sets("weak", [])
    with pytest.raises(ValueError, match="unknown topology"):
        suite_from_bounded_sets("norm", [])


def test_closability_check_requires_some_norm():
    fam = ProbeFamily(name="f", generate=lambda n: np.ones(2) / n)
    with pytest.raises(ValueError, match="ambient norm"):
        closability_check([fam], rep_map=lambda x: TruncatedOperator(np.eye(2)),
                          suite=[("s", lambda a: 0.0)], n_max=32)


def test_quasi_algebra_closure_requires_star():
    fam = ProbeFamily(name="f", generate=lambda n: np.ones(2) / n)
    with pytest.raises(ValueError, match="star"):
        quasi_algebra_closure_test(
            [fam], [("b", np.ones(2))],
            rep_map=lambda x: TruncatedOperator(np.diag(x)),
            mul=lambda x, y: x * y, topology="strongstar",
            suite=[("s", lambda a: float(np.max(np.abs(a.matrix))))],
            n_max=32)


def test_limit_present_iff_converged():
    grid = flab.simpson_grid(257)
    from qstarlab.scenarios import ramp_family, run_extension
    diverging = run_extension(grid, ramp_family(grid), "uniform", n_max=128)
    assert not diverging.converged and diverging.limit is None
    fam = ProbeFamily(name="c", generate=lambda n: flab.GridFunction.from_callable(
        lambda x: np.ones_like(x) / n, grid))
    conv = run_extension(grid, fam, "strongstar", n_max=512)
    assert conv.converged and conv.limit is not None


def test_closability_check_null_families():
    grid = flab.simpson_grid(257)
    suite = suite_from_bounded_sets(
        "uniform", [flab.node_spike_set(grid)])
    fams = [ProbeFamily(name="one/n",
                        generate=lambda n: flab.GridFunction.from_callable(
                            lambda x: np.ones_like(x) / n, grid))]
    verdicts = closability_check(fams, rep_map=flab.mult_operator,
                                 suite=suite,
                                 ambient_norm=lambda f: flab.lp_norm(f, 1.0),
                                 n_max=256)
    assert verdicts[0].null and verdicts[0].cauchy
    assert max(verdicts[0].limits) <= 1e-6
    assert not verdicts[0].counterexample


def test_closability_check_flags_synthetic_counterexample():
    grid = flab.simpson_grid(257)
    one_op = flab.mult_operator(flab.GridFunction.from_callable(
        lambda x: np.ones_like(x), grid))
    fams = [ProbeFamily(name="null-but-constant-rep",
                        generate=lambda n: flab.GridFunction.from_callable(
                            lambda x: np.ones_like(x) / n, grid))]
    verdicts = closability_check(fams, rep_map=lambda f: one_op,
                                 suite=suite_from_bounded_sets(
                                     "uniform", [flab.node_spike_set(grid)]),
                                 ambient_norm=lambda f: flab.lp_norm(f, 1.0),
                                 n_max=256)
    assert verdicts[0].counterexample


def test_quasi_algebra_closure_stability():
    grid = flab.simpson_grid(257)
    from qstarlab.scenarios import clipped_power_family, multiplication_suite
    suite = multiplication_suite(grid, "strongstar")
    sample = clipped_power_family(grid, 0.2, "height")
    one = flab.GridFunction.from_callable(lambda x: np.ones_like(x), grid)
    cosx = flab.GridFunction.from_callable(
        lambda x: np.cos(2 * np.pi * x).astype(complex), grid)
    report = quasi_algebra_closure_test(
        [sample], [("one", one), ("cos", cosx)],
        rep_map=flab.mult_operator, mul=lambda f, g: f * g,
        topology="strongstar", suite=suite, star=lambda f: f.conj(),
        n_max=2048)
    assert report.all_stable
    assert not report.involution_skipped
    assert report.bounded_rep_norm == pytest.approx(1.0)
    # Hoelder oracle: bounded B keeps X B in the same integrability class.


def test_quasi_algebra_closure_skips_involution_for_strong():
    grid = flab.simpson_grid(257)
    from qstarlab.scenarios import clipped_power_family, multiplication_suite
    suite = multiplication_suite(grid, "strong")
    sample = clipped_power_family(grid, 0.2, "height")
    one = flab.GridFunction.from_callable(lambda x: np.ones_like(x), grid)
    report = quasi_algebra_closure_test(
        [sample], [("one", one)], rep_map=flab.mult_operator,
        mul=lambda f, g: f * g, topology="strong", suite=suite, n_max=1024)
    assert report.involution_skipped
    assert report.involution == []
    assert report.all_stable


def test_completeness_proxy_at_fixed_truncation():
    # A strong*-Cauchy sequence at one truncation converges there: its tail
    # coincides with the limit operator in every suite seminorm.
    rng = np.random.default_rng(5)
    base = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    bump = rng.standard_normal((9, 9))
    triple = TruncatedTriple(9, graph_weights(4))
    rng = np.random.default_rng(1)
    sets = []
    for k in (0, 1):  # four sampled vectors on the unit sphere of graph_k
        vecs = [rng.standard_normal(9) + 1j * rng.standard_normal(9)
                for _ in range(4)]
        sets.append(BoundedSet(tuple(v / triple.graph_norm(v, k) for v in vecs),
                               name=f"ball-k{k}"))
    phis = [("e0", np.eye(9, dtype=complex)[4])]
    suite = suite_from_bounded_sets("strongstar", sets, phis=phis)
    ns = geometric_ladder(4096, points=12)
    ops = [TruncatedOperator(base + bump / n) for n in ns]
    result = extend_by_closure(lambda x: 0.0, [np.zeros(1)] * len(ops), ops,
                               "strongstar", suite=suite, steps=ns,
                               space_complete=True)
    assert result.converged
    assert result.membership.domain == "A"
    gap = max(fn(result.limit - TruncatedOperator(base)) for _, fn in suite)
    assert gap < 1e-3


def test_uniform_seminorm_monotone_under_refinement():
    rng = np.random.default_rng(6)
    mat = rng.standard_normal((4, 4))
    op = TruncatedOperator(mat)
    small = BoundedSet((basis(4, 0), basis(4, 1)), name="small")
    big = BoundedSet(small.vectors + (basis(4, 2),), name="big")
    q_small = seminorm(op, "uniform", small)
    q_big = seminorm(op, "uniform", big)
    assert q_big >= q_small


@pytest.fixture(scope="module")
def clipped_power_ladder():
    from qstarlab.scenarios import (EXTENSION_GRID_NODES, clipped_power_family,
                                    multiplication_suite)
    grid = flab.simpson_grid(EXTENSION_GRID_NODES)
    fam = clipped_power_family(grid, 0.2, "height")
    ns = geometric_ladder(4096, points=14)
    elements = [fam.generate(int(n)) for n in ns]
    suites = {t: multiplication_suite(grid, t) for t in ("uniform", "strongstar")}
    return ns, elements, suites


def with_bad_entry(op, bad):
    d = op.diag.copy()
    d[40] = bad
    return TruncatedOperator(diag=d)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("topology", ["uniform", "strongstar"])
def test_non_finite_representative_never_converges(clipped_power_ladder,
                                                   topology):
    ns, elements, suites = clipped_power_ladder
    reps = [flab.mult_operator(f) for f in elements]

    def run(rep_seq):
        return extend_by_closure(lambda f: flab.lp_norm(f, 1.0), elements,
                                 rep_seq, topology, suite=suites[topology],
                                 steps=ns)

    assert len(ns) == 14 and run(reps).converged
    for position in (5, len(reps) - 1):
        for bad in (np.inf, np.nan):
            spoiled = list(reps)
            spoiled[position] = with_bad_entry(reps[position], bad)
            with pytest.raises(NonFiniteSeriesError,
                               match=rf"'{topology}\|node-spikes.*' is "
                                     rf"(inf|nan) at ladder position {position} "):
                run(spoiled)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_non_finite_ambient_residual_is_not_cauchy(clipped_power_ladder):
    ns, elements, suites = clipped_power_ladder
    reps = [flab.mult_operator(f) for f in elements]
    for bad in (np.inf, np.nan):
        spoiled = elements[:-1] + [bad * elements[-1]]
        with pytest.raises(NonFiniteSeriesError,
                           match=rf"'ambient' is {bad} at ladder position 13 "):
            extend_by_closure(lambda f: flab.lp_norm(f, 1.0), spoiled, reps,
                              "strongstar", suite=suites["strongstar"],
                              steps=ns)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_non_finite_representatives_are_not_cauchy(clipped_power_ladder):
    _, _, suites = clipped_power_ladder
    grid = flab.simpson_grid(257)
    one_op = flab.mult_operator(flab.GridFunction.from_callable(
        lambda x: np.ones_like(x), grid))
    for bad in (np.inf, np.nan):
        for n_bad in (3, 256):  # an early ladder member and the last one
            fams = [ProbeFamily(name="null-but-constant-rep",
                                generate=lambda n: n,
                                tau_norm=lambda n: 1.0 / n)]
            where = rf"is {bad} at ladder position \d+ \(n={n_bad}\)"
            with pytest.raises(NonFiniteSeriesError, match=where):
                closability_check(
                    fams, suite=suites["uniform"], n_max=256,
                    rep_map=lambda n: (with_bad_entry(one_op, bad)
                                       if n == n_bad else one_op))
            with pytest.raises(NonFiniteSeriesError, match=where):
                quasi_algebra_closure_test(
                    [ProbeFamily(name="spoiled", generate=lambda n: n)],
                    [("one", 1)], suite=suites["strongstar"], n_max=256,
                    rep_map=lambda n: (with_bad_entry(one_op, bad)
                                       if n == n_bad else one_op),
                    mul=lambda x, b: x, topology="strongstar",
                    star=lambda x: x)
