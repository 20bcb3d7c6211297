import numpy as np
import pytest

from qstarlab import function_lab as flab
from qstarlab.rates import NonFiniteSeriesError, geometric_ladder


@pytest.fixture(scope="module")
def grid():
    return flab.simpson_grid()


@pytest.fixture(scope="module")
def hgrid():
    return flab.gauss_hermite_grid()


def test_grid_invariants(grid, hgrid):
    assert grid.n_nodes == 4097
    assert np.all(grid.weights > 0)
    assert abs(np.sum(grid.weights) - 1.0) < 1e-12
    assert hgrid.n_nodes == 128
    assert np.all(hgrid.weights > 0)
    assert abs(np.sum(hgrid.weights) - np.sqrt(2 * np.pi)) < 1e-12


def test_grid_size_floor():
    with pytest.raises(ValueError):
        flab.simpson_grid(31)
    with pytest.raises(ValueError):
        flab.simpson_grid(100)  # even node count
    with pytest.raises(ValueError):
        flab.gauss_hermite_grid(16)


def test_grids_are_shared_and_read_only():
    for make, n_nodes in ((flab.simpson_grid, 257),
                          (flab.gauss_hermite_grid, 64)):
        grid = make(n_nodes)
        assert make(n_nodes) is grid
        for array in (grid.nodes, grid.weights, grid.offset_nodes):
            assert not array.flags.writeable
        assert grid.offset_nodes is grid.offset_nodes
    assert flab.simpson_grid() is flab.simpson_grid(flab.DEFAULT_SIMPSON_NODES)
    for _ in range(2):  # checked on every call, not only the first
        with pytest.raises(ValueError):
            flab.simpson_grid(31)
        with pytest.raises(ValueError):
            flab.simpson_grid(100)
        with pytest.raises(ValueError):
            flab.gauss_hermite_grid(16)


def test_real_samples_stay_real(grid):
    real = [flab.GridFunction.from_callable(lambda x: x, grid),
            flab.GridFunction.from_callable(lambda x: 1, grid),
            flab.power_function(grid, 0.25), flab.tent_function(grid, 8, 0.5)]
    for f in real:
        assert f.values.dtype == np.float64
        assert (0.5 * f).values.dtype == (f * f).values.dtype == np.float64
        assert (1j * f).values.dtype == np.complex128
    offset = flab.power_function(grid, 0.5)
    assert offset.values[0] == pytest.approx((grid.cell / 2) ** -0.5,
                                             rel=1e-14)
    assert np.allclose(offset.values[1:], grid.nodes[1:] ** -0.5,
                       rtol=1e-14, atol=0.0)
    wave = flab.GridFunction.from_callable(
        lambda x: np.exp(2j * np.pi * x), grid)
    assert wave.values.dtype == np.complex128
    assert (wave - real[0]).values.dtype == np.complex128


def test_omega_form_of_real_functions_equals_the_complex_value(grid):
    # the sum stays a complex dot: a real one rounds these differently
    def as_complex(f):
        return flab.GridFunction(f.values.astype(complex), grid)

    weight = flab.power_function(grid, 0.5)
    one = flab.GridFunction.from_callable(lambda x: np.ones_like(x), grid)
    functions = ([flab.tent_function(grid, int(n), 0.5)
                  for n in geometric_ladder(256, points=12, n_min=4)]
                 + [flab.power_function(grid, beta)
                    for beta in (0.1, 0.25, 0.45)] + [one])
    for f in functions:
        for w in (None, weight):
            got = flab.omega_form(f, f, w)
            want = flab.omega_form(as_complex(f), as_complex(f),
                                   None if w is None else as_complex(w))
            assert (got.real, got.imag) == (want.real, want.imag)


def test_lp_norm_examples(grid):
    one = flab.GridFunction.from_callable(lambda x: np.ones_like(x), grid)
    for p in (1.0, 2.0, 3.5):
        assert flab.lp_norm(one, p) == pytest.approx(1.0, abs=1e-12)
    linear = flab.GridFunction.from_callable(lambda x: x, grid)
    assert flab.lp_norm(linear, 2.0) == pytest.approx(3 ** -0.5, abs=1e-12)
    singular = flab.power_function(grid, 0.25)
    assert flab.lp_norm(singular, 2.0) == pytest.approx(np.sqrt(2), abs=0.02)
    with pytest.raises(ValueError):
        flab.lp_norm(one, 0.5)


def test_simpson_refinement_rate():
    # quadrature error shrinks by at least 4x per node doubling on smooth f
    exact = None
    values = []
    for n in (129, 257, 513, 1025):
        g = flab.simpson_grid(n)
        f = flab.GridFunction.from_callable(
            lambda x: np.exp(np.sin(2 * np.pi * x)), g)
        values.append(flab.lp_norm(f, 1.0))
    fine = flab.simpson_grid(8193)
    exact = flab.lp_norm(flab.GridFunction.from_callable(
        lambda x: np.exp(np.sin(2 * np.pi * x)), fine), 1.0)
    errors = [abs(v - exact) for v in values]
    for coarse, finer in zip(errors, errors[1:]):
        assert finer <= coarse / 4 or finer < 1e-14


def test_omega_form_examples(grid):
    one = flab.GridFunction.from_callable(lambda x: np.ones_like(x), grid)
    linear = flab.GridFunction.from_callable(lambda x: x, grid)
    assert complex(flab.omega_form(one, one)) == pytest.approx(1.0, abs=1e-12)
    assert complex(flab.omega_form(linear, one)) == pytest.approx(0.5, abs=1e-12)
    weight = flab.power_function(grid, 0.5)
    assert complex(flab.omega_form(one, one, weight)).real == pytest.approx(
        2.0, abs=0.05)


def test_omega_form_is_hermitian_positive(grid):
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        f = flab.GridFunction((a[0] + a[1] * grid.nodes
                               + 1j * a[2] * np.sin(2 * np.pi * grid.nodes))
                              .astype(complex), grid)
        g = flab.GridFunction((b[0] + 1j * b[1] * grid.nodes
                               + b[2] * np.cos(2 * np.pi * grid.nodes))
                              .astype(complex), grid)
        assert abs(flab.omega_form(f, g)
                   - np.conj(flab.omega_form(g, f))) < 1e-12
        assert flab.omega_form(f, f).real >= -1e-12


def test_grid_mismatch_rejected(grid):
    other = flab.simpson_grid(257)
    f = flab.GridFunction.from_callable(lambda x: x, grid)
    g = flab.GridFunction.from_callable(lambda x: x, other)
    with pytest.raises(flab.GridMismatchError):
        flab.omega_form(f, g)
    with pytest.raises(flab.GridMismatchError):
        f - g
    with pytest.raises(flab.GridMismatchError):
        flab.GridFunction(np.ones(5), grid)


def test_boundedness_classifier():
    assert flab.boundedness_classifier(2.0)["tag"] == "bounded"
    assert flab.boundedness_classifier(3.0)["tag"] == "bounded"
    assert flab.boundedness_classifier(1.0)["tag"] == "closable-unbounded"
    assert flab.boundedness_classifier(1.5)["tag"] == "closable-unbounded"
    weighted = flab.boundedness_classifier(2.0, 2.0)
    assert weighted["effective_exponent"] == pytest.approx(4.0 / 3.0)
    assert weighted["tag"] == "closable-unbounded"
    assert flab.boundedness_classifier(4.0, 2.0)["effective_exponent"] \
        == pytest.approx(2.0)
    assert flab.boundedness_classifier(4.0, 2.0)["tag"] == "bounded"
    with pytest.raises(ValueError):
        flab.boundedness_classifier(0.5)
    with pytest.raises(ValueError):
        flab.boundedness_classifier(2.0, 0.5)


def test_tent_closed_forms_match_quadrature(grid):
    # dyadic tents align with the grid, so Simpson integrates them exactly
    for n in (8, 32, 128):
        tent = flab.tent_function(grid, n, 0.5)
        assert flab.lp_norm(tent, 1.0) == pytest.approx(
            flab.tent_lp_norm(n, 0.5, 1.0), rel=1e-12)
        assert flab.lp_norm(tent, 2.0) == pytest.approx(
            flab.tent_lp_norm(n, 0.5, 2.0), rel=1e-12)
    assert flab.tent_lp_norm(16, 0.5, 2.0) ** 2 == pytest.approx(1.0 / 3.0)
    # a height or norm past the float range names its series, not OverflowError
    with pytest.raises(NonFiniteSeriesError, match="'tent lp_norm' is inf at n=7"):
        flab.tent_lp_norm(7, 400.0, 1.0)


def test_witness_exponents(grid):
    assert flab.unboundedness_witness(1.0, grid=grid)["exponent"] \
        == pytest.approx(1.0, abs=0.05)
    assert flab.unboundedness_witness(1.5, grid=grid)["exponent"] \
        == pytest.approx(1.0 / 3.0, abs=0.05)
    assert abs(flab.unboundedness_witness(2.0, grid=grid)["exponent"]) <= 0.05
    assert flab.unboundedness_witness(3.0, grid=grid)["exponent"] \
        == pytest.approx(-1.0 / 3.0, abs=0.05)


def test_a_omega_membership_matches_beta_oracle():
    for beta in (0.25, 0.45):
        assert flab.a_omega_membership(flab.power_builder(beta), 1.5)[0]
    for beta in (0.55, 0.75):
        assert not flab.a_omega_membership(flab.power_builder(beta), 1.5)[0]
    assert flab.a_omega_membership(flab.power_builder(0.0), 1.0)[0]
    with pytest.raises(ValueError):
        flab.a_omega_membership(flab.power_builder(0.25), 2.5)


def test_a_omega_membership_independent_of_p():
    verdicts = [flab.a_omega_membership(flab.power_builder(0.45), p)[0]
                for p in (1.0, 1.5, 1.9)]
    assert verdicts == [True, True, True]


def test_ls_membership():
    v = flab.ls_membership(flab.power_builder(0.2), 4.0)
    assert v["s"] == pytest.approx(4.0)
    assert v["member"] and v["cross_member"] and v["agrees"]
    v = flab.ls_membership(flab.power_builder(0.3), 4.0)
    assert not v["member"] and v["agrees"]
    assert flab.ls_membership(flab.power_builder(0.1), 6.0)["s"] \
        == pytest.approx(3.0)
    with pytest.raises(ValueError):
        flab.ls_membership(flab.power_builder(0.1), 2.0)


def test_gaussian_probe_families(hgrid):
    families = flab.make_gaussian_families(hgrid)
    verdicts = {v.family: v for v in flab.gaussian_poly_probe(families,
                                                              grid=hgrid)}
    assert verdicts["scaled_linear"].null
    assert not verdicts["scaled_linear"].counterexample
    assert max(verdicts["scaled_linear"].limits) <= 1e-6
    assert verdicts["hermite_tail"].null
    assert not verdicts["hermite_tail"].counterexample
    assert not verdicts["constant_one"].null


def test_gaussian_steps_are_seminorms_of_differences(hgrid):
    # x, -x, x, ... by ladder position: every member has the same sandwich
    # seminorms, but each step is the seminorm of +-2x, so not Cauchy
    ns = geometric_ladder(24, points=10).tolist()
    probe, = flab.gaussian_poly_probe(
        {"alternating": lambda n: [0.0, (-1.0) ** ns.index(n)]}, n_max=24,
        grid=hgrid)
    assert np.array_equal(probe.steps, 2.0 * probe.values[1:])
    assert not probe.cauchy
    assert not probe.counterexample


def test_gaussian_probe_rejects_excess_degree(hgrid):
    too_big = {"too_big": lambda n: np.ones(hgrid.n_nodes)}
    with pytest.raises(ValueError, match="degree"):
        flab.gaussian_poly_probe(too_big, grid=hgrid)


def test_embedding_is_isometric(grid):
    f = flab.GridFunction.from_callable(
        lambda x: np.cos(2 * np.pi * x).astype(complex), grid)
    assert np.linalg.norm(flab.embed_vector(f)) == pytest.approx(
        flab.lp_norm(f, 2.0), rel=1e-12)


def test_mult_operator_diagonal(grid):
    f = flab.GridFunction.from_callable(lambda x: x, grid)
    op = flab.mult_operator(f)
    g = flab.GridFunction.from_callable(
        lambda x: np.sin(2 * np.pi * x).astype(complex), grid)
    assert np.allclose(op.apply(flab.embed_vector(g)),
                       flab.embed_vector(f * g))


@pytest.mark.parametrize("n_max", [1024, 4096])
def test_gaussian_suite_passes_on_long_ladders(n_max):
    # ex-3.8-1 on a ladder whose trailing decade holds 3 fit points: the
    # 1/n family must still be judged L^1-null.
    from qstarlab.scenarios import Scenario, run_scenario

    outcome = run_scenario(Scenario("ex-3.8-1", "function-lab",
                                    "gaussian_suite", "", {"n_max": n_max}))
    assert outcome.passed, outcome.details


def test_shared_builds_are_built_once_and_read_only(grid):
    from qstarlab.scenarios import multiplication_suite

    small = flab.simpson_grid(257)
    for topology in ("strong", "weak"):
        suite = multiplication_suite(small, topology, seed=3)
        assert multiplication_suite(small, topology, seed=3) is suite
        assert multiplication_suite(small, topology, seed=4) is not suite
        vectors = ([phi for _, phi in suite.phis]
                   + [m.rows for m in suite.bounded_sets if not m.is_basis]
                   + [v for _, phi, psi in suite.weak_pairs
                      for v in (phi, psi)])
        assert vectors and not any(v.flags.writeable for v in vectors)
    ns, tents, diags = flab._witness_tents(grid, 256)
    assert flab._witness_tents(grid, 256)[1] is tents
    assert len(tents) == len(diags) == len(ns)
    assert not any(f.values.flags.writeable for f in tents)
    powers = flab._cross_powers(0.23)
    assert flab._cross_powers(0.23) is powers
    assert [w.grid.n_nodes for w in powers] == list(flab.MEMBERSHIP_LADDER)
    assert not any(w.values.flags.writeable for w in powers)
