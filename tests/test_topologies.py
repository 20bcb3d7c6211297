import numpy as np
import pytest

from conftest import one_seminorm, pairing
from qstarlab import function_lab as flab
from qstarlab.ccr import CCRPolynomial, ccr_represent, graph_seminorm
from qstarlab.forms import ProbeFamily
from qstarlab.rates import NonFiniteSeriesError, geometric_ladder
from qstarlab.topologies import (BoundedSet, Suite, TruncatedOperator,
                                 closability_check, extend_by_closure,
                                 quasi_algebra_closure_test, seminorm)


def basis(dim, i):
    v = np.zeros(dim, dtype=complex)
    v[i] = 1.0
    return v


@pytest.fixture(scope="module")
def pair_set():
    return BoundedSet((basis(3, 0), basis(3, 1)), name="pair")


def test_seminorm_zero_operator(pair_set):
    zero = TruncatedOperator(np.zeros((3, 3)))
    assert one_seminorm(zero, "uniform", pair_set) == 0.0
    assert one_seminorm(zero, "strong", pair_set, phi=basis(3, 0)) == 0.0
    assert one_seminorm(zero, "strongstar", pair_set, phi=basis(3, 0)) == 0.0
    assert one_seminorm(zero, "weak", phi=basis(3, 0), psi=basis(3, 1)) == 0.0


def test_seminorm_identity_uniform(pair_set):
    ident = TruncatedOperator(np.eye(3))
    # sup over the four pairs of |<phi, psi>| on an orthonormal pair is 1
    assert one_seminorm(ident, "uniform", pair_set) == pytest.approx(1.0)


def test_momentum_weak_seminorm():
    # a CCR operator is a TruncatedOperator; the seminorms take it as is
    p_op = ccr_represent(CCRPolynomial.momentum(), 2)
    assert isinstance(p_op, TruncatedOperator)
    e1 = basis(5, 3)  # frequency n=1 on the centered window
    assert one_seminorm(p_op, "weak", phi=e1, psi=e1) == pytest.approx(2 * np.pi)


def test_seminorm_argument_errors(pair_set):
    op = TruncatedOperator(np.eye(3))
    with pytest.raises(ValueError, match="bounded set"):
        one_seminorm(op, "uniform")
    with pytest.raises(ValueError, match="vector"):
        one_seminorm(op, "strong", pair_set)
    with pytest.raises(ValueError, match="two vectors"):
        one_seminorm(op, "weak", phi=basis(3, 0))
    with pytest.raises(ValueError, match="unknown topology"):
        one_seminorm(op, "norm", pair_set)
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
        weak = one_seminorm(op, "weak", phi=phi, psi=psi)
        strong = one_seminorm(op, "strong", m, phi=phi)
        sstar = one_seminorm(op, "strongstar", m, phi=phi)
        uniform = one_seminorm(op, "uniform", m)
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
        assert one_seminorm(adj, "uniform", m) == pytest.approx(
            one_seminorm(op, "uniform", m), abs=1e-12)
        phi = vecs[0]
        assert one_seminorm(adj, "strongstar", m, phi=phi) == pytest.approx(
            one_seminorm(op, "strongstar", m, phi=phi), abs=1e-12)
        psi = vecs[1]
        sym = max(one_seminorm(op, "weak", phi=phi, psi=psi),
                  one_seminorm(op, "weak", phi=psi, psi=phi))
        sym_adj = max(one_seminorm(adj, "weak", phi=phi, psi=psi),
                      one_seminorm(adj, "weak", phi=psi, psi=phi))
        assert sym_adj == pytest.approx(sym, abs=1e-12)


def test_adjoint_is_inner_product_adjoint():
    rng = np.random.default_rng(2)
    mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    op = TruncatedOperator(mat)
    u, v = rng.standard_normal(4), rng.standard_normal(4)
    lhs = pairing(op.adjoint().apply(u), v)
    rhs = np.conj(pairing(op.apply(v), u))
    assert abs(lhs - rhs) < 1e-12
    assert np.max(np.abs(op.adjoint().matrix - mat.conj().T)) == 0.0


def test_extend_by_closure_constant_sequence():
    grid = flab.simpson_grid(257)
    f = flab.GridFunction.from_callable(
        lambda x: np.cos(2 * np.pi * x).astype(complex), grid)
    op = flab.mult_operator(f)
    suite = Suite("uniform", [flab.node_spike_set(grid)])
    result = extend_by_closure(lambda g: flab.lp_norm(g, 1.0),
                               ProbeFamily("constant", lambda n: f),
                               lambda g: op, np.arange(1, 7), "uniform",
                               suite=suite)
    assert result.converged
    assert result.limit is op
    assert result.membership["ambient_limit"]
    assert np.max(result.residual_trace) == 0.0


def test_extend_by_closure_validation():
    suite = Suite("uniform", [BoundedSet.basis(2, "e")])
    index = ProbeFamily("n", lambda n: n)
    with pytest.raises(ValueError, match="empty"):
        extend_by_closure(lambda x: 0.0, index, TruncatedOperator, [],
                          "uniform", suite=suite)
    # the representative of n is the identity of dimension n + 1
    with pytest.raises(ValueError, match="inconsistent truncation"):
        extend_by_closure(lambda x: 0.0, index,
                          lambda n: TruncatedOperator(np.eye(n + 1)),
                          np.array([1, 2]), "uniform", suite=suite)
    # an empty suite is refused when it is built
    with pytest.raises(ValueError, match="suite"):
        Suite("uniform", [])


def test_operator_and_suite_construction_errors():
    with pytest.raises(ValueError, match="square"):
        TruncatedOperator(np.ones((2, 3)))
    a, b = TruncatedOperator(np.eye(2)), TruncatedOperator(np.eye(3))
    with pytest.raises(ValueError, match="dimensions differ"):
        a - b
    with pytest.raises(ValueError, match="test vectors"):
        Suite("strong", [BoundedSet((np.ones(2),))])
    with pytest.raises(ValueError, match="vector pairs"):
        Suite("weak", [])
    with pytest.raises(ValueError, match="unknown topology"):
        Suite("norm", [])


def test_closability_check_requires_some_norm():
    fam = ProbeFamily(name="f", generate=lambda n: np.ones(2) / n)
    with pytest.raises(ValueError, match="ambient norm"):
        closability_check([fam], rep_map=lambda x: TruncatedOperator(np.eye(2)),
                          suite=Suite("uniform", [BoundedSet.basis(2, "e")]),
                          n_max=32)


def test_quasi_algebra_closure_requires_star():
    fam = ProbeFamily(name="f", generate=lambda n: np.ones(2) / n)
    with pytest.raises(ValueError, match="star"):
        quasi_algebra_closure_test(
            [fam], [("b", np.ones(2))],
            rep_map=lambda x: TruncatedOperator(np.diag(x)),
            mul=lambda x, y: x * y, topology="strongstar",
            suite=Suite("uniform", [BoundedSet.basis(2, "e")]),
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
    suite = Suite(
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
                                 suite=Suite(
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
    assert report["all_stable"]
    assert not report["involution_skipped"]
    assert report["bounded_rep_norm"] == pytest.approx(1.0)
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
    assert report["involution_skipped"]
    assert report["involution"] == []
    assert report["all_stable"]


def test_completeness_proxy_at_fixed_truncation():
    # A strong*-Cauchy sequence at one truncation converges there: its tail
    # coincides with the limit operator in every suite seminorm.
    rng = np.random.default_rng(5)
    base = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    bump = rng.standard_normal((9, 9))
    rng = np.random.default_rng(1)
    sets = []
    for k in (0, 1):  # four sampled vectors on the unit sphere of graph_k
        vecs = [rng.standard_normal(9) + 1j * rng.standard_normal(9)
                for _ in range(4)]
        sets.append(BoundedSet(tuple(v / graph_seminorm(v, k) for v in vecs),
                               name=f"ball-k{k}"))
    phis = [("e0", np.eye(9, dtype=complex)[4])]
    suite = Suite("strongstar", sets, phis=phis)
    result = extend_by_closure(
        lambda x: 0.0, ProbeFamily("base+bump/n", lambda n: n),
        lambda n: TruncatedOperator(base + bump / n),
        geometric_ladder(4096, points=12), "strongstar", suite=suite)
    assert result.converged
    assert result.membership["domain"] == "Atilde"
    gap = max(seminorm(result.limit - TruncatedOperator(base), suite))
    assert gap < 1e-3


def test_uniform_seminorm_monotone_under_refinement():
    rng = np.random.default_rng(6)
    mat = rng.standard_normal((4, 4))
    op = TruncatedOperator(mat)
    small = BoundedSet((basis(4, 0), basis(4, 1)), name="small")
    big = BoundedSet(tuple(small.rows) + (basis(4, 2),), name="big")
    q_small = one_seminorm(op, "uniform", small)
    q_big = one_seminorm(op, "uniform", big)
    assert q_big >= q_small


@pytest.fixture(scope="module")
def clipped_power_ladder():
    from qstarlab.scenarios import (EXTENSION_GRID_NODES, clipped_power_family,
                                    multiplication_suite)
    grid = flab.simpson_grid(EXTENSION_GRID_NODES)
    fam = clipped_power_family(grid, 0.2, "height")
    ns = geometric_ladder(4096, points=14)
    suites = {t: multiplication_suite(grid, t) for t in ("uniform", "strongstar")}
    return ns, fam, suites


def with_bad_entry(op, bad):
    d = op.diag.copy()
    d[40] = bad
    return TruncatedOperator(diag=d)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("topology", ["uniform", "strongstar"])
def test_non_finite_representative_never_converges(clipped_power_ladder,
                                                   topology):
    ns, fam, suites = clipped_power_ladder

    def run(family, rep_map):
        return extend_by_closure(lambda f: flab.lp_norm(f, 1.0), family,
                                 rep_map, ns, topology, suite=suites[topology])

    assert len(ns) == 14 and run(fam, flab.mult_operator).converged
    for position in (5, len(ns) - 1):
        for bad in (np.inf, np.nan):
            # the member at the spoiled position, and only it, has a bad
            # representative
            marked = fam.generate(int(ns[position]))
            spoiled = ProbeFamily("spoiled", lambda n: marked
                                  if n == ns[position] else fam.generate(n))
            with pytest.raises(NonFiniteSeriesError,
                               match=rf"'{topology}\|node-spikes.*' is "
                                     rf"(inf|nan) at ladder position {position} "):
                run(spoiled,
                    lambda f: with_bad_entry(flab.mult_operator(f), bad)
                    if f is marked else flab.mult_operator(f))


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_non_finite_ambient_residual_is_not_cauchy(clipped_power_ladder):
    ns, fam, suites = clipped_power_ladder
    last = fam.generate(int(ns[-1]))
    for bad in (np.inf, np.nan):
        # the last member is spoiled, its representative is not
        spoiled = ProbeFamily("spoiled", lambda n: bad * last if n == ns[-1]
                              else fam.generate(n))
        with pytest.raises(NonFiniteSeriesError,
                           match=rf"'ambient' is {bad} at ladder position 13 "):
            extend_by_closure(lambda f: flab.lp_norm(f, 1.0), spoiled,
                              lambda f: flab.mult_operator(
                                  f if np.isfinite(f.values).all() else last),
                              ns, "strongstar", suite=suites["strongstar"])


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
