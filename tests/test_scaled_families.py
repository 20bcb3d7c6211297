"""Scalar-multiple probe families (`forms.ScaledFamily`) and the one family
path, `forms.ladder_series`.

A ScaledFamily is n -> scale(n) * base.  Its probes evaluate base once and
scale the results in closed form, which needs evaluators homogeneous of
their declared degree: a sesquilinear form, an absolutely homogeneous
ambient norm, and seminorms of a linear representation.  These tests check
that contract on every context such a family meets, compare the closed form
with the generic member-by-member path on the form and the operator probes
and on the closure engine, and count the members each path builds.
"""

import numpy as np
import pytest

from qstarlab import function_lab as flab
from qstarlab import matrix_lab as mlab
from qstarlab.forms import (PROBE_POINTS, ProbeFamily, ScaledFamily,
                            b_shifted_form, check_lemma24, closability_probe,
                            star_form)
from qstarlab.rates import COUNTEREXAMPLE_TOL, geometric_ladder
from qstarlab.scenarios import (EXTENSION_GRID_NODES, EXTENSION_POINTS,
                                _matrix_shift_suite, multiplication_suite,
                                run_extension)
from qstarlab.topologies import (closability_check, quasi_algebra_closure_test,
                                 seminorm)

SCALED_MATRIX_FAMILIES = ("decaying_column", "rank_one_decay", "scaled_corner")
SCALARS = (2.0 ** -7, 1.0 / 3.0, -0.7)
REL_TOL = 1e-13


@pytest.fixture(scope="module")
def grid():
    return flab.simpson_grid()


@pytest.fixture(scope="module")
def extension_grid():
    return flab.simpson_grid(EXTENSION_GRID_NODES)


def _lemma24_columns(n: int) -> list:
    """The seven forms of the check_lemma24 operation at truncation n."""
    ctx = mlab.trace_form_context(n)
    return [ctx, star_form(ctx)] + [b_shifted_form(ctx, b)
                                    for _, b in _matrix_shift_suite(n)]


def _bit_equal(name: str, column: str) -> bool:
    """Whether the closed-form ambient norms and diagonals equal the generic
    ones exactly: rank_one_decay's scales are powers of two, and
    scaled_corner's members are one nonzero entry under every form but the
    band3 shift, which spreads it over three entries."""
    return name == "rank_one_decay" or (name == "scaled_corner"
                                        and column != "omega_B[band3]")


def _generic(family: ScaledFamily) -> ProbeFamily:
    return ProbeFamily(name=family.name, generate=family.generate)


def _assert_equivalent(fast, slow, bit_equal: bool, where) -> None:
    assert np.array_equal(fast.ns, slow.ns), where
    assert fast.null == slow.null, where
    assert fast.cauchy == slow.cauchy, where
    assert fast.counterexample == slow.counterexample, where
    assert [v > COUNTEREXAMPLE_TOL for v in fast.limits] == \
        [v > COUNTEREXAMPLE_TOL for v in slow.limits], where
    for series in ("ambient", "values", "steps"):
        np.testing.assert_allclose(getattr(fast, series), getattr(slow, series),
                                   rtol=REL_TOL, atol=0.0,
                                   err_msg=f"{where} {series}")
    if bit_equal:
        assert np.array_equal(fast.ambient, slow.ambient), where
        assert np.array_equal(fast.values, slow.values), where


def test_matrix_families_are_declared_scaled():
    for name in SCALED_MATRIX_FAMILIES:
        assert isinstance(mlab.matrix_family(name, 8), ScaledFamily), name
    for name in ("moving_bump", "shrinking_block", "spreading_block"):
        assert isinstance(mlab.matrix_family(name, 8), ProbeFamily), name


def test_generate_is_scale_times_base():
    family = mlab.matrix_family("rank_one_decay", 16)
    member = family.generate(5)
    assert member.truncation == 16
    assert np.array_equal(member.entries, 2.0 ** -5 * family.base.entries)
    with pytest.raises(TypeError):
        family.base * family.base


@pytest.mark.parametrize("n", [3, 256])
def test_matrix_contexts_are_sesquilinear_and_homogeneous(n):
    bases = [mlab.matrix_family(name, n).base
             for name in SCALED_MATRIX_FAMILIES]
    for ctx in _lemma24_columns(n):
        for x in bases:
            for c in SCALARS:
                assert ctx.diag(c * x) == pytest.approx(
                    abs(c) ** 2 * ctx.diag(x), rel=REL_TOL, abs=0.0), ctx.name
                assert ctx.ambient_norm(c * x) == pytest.approx(
                    abs(c) * ctx.ambient_norm(x), rel=REL_TOL, abs=0.0), \
                    ctx.name


@pytest.mark.parametrize("p", [1.0, 1.5])
def test_lp_contexts_are_sesquilinear_and_homogeneous(grid, p):
    ctx = flab.lp_form_context(p, grid)
    x = flab.scaled_one_family(grid).base
    for c in SCALARS:
        assert ctx.diag(c * x) == pytest.approx(
            abs(c) ** 2 * ctx.diag(x), rel=REL_TOL, abs=0.0)
        assert ctx.ambient_norm(c * x) == pytest.approx(
            abs(c) * ctx.ambient_norm(x), rel=REL_TOL, abs=0.0)


# Not the weak suite: its one|cos pairing of these families is round-off
# (about 1e-17), which no two computations match to a relative tolerance.
@pytest.mark.parametrize("topology", ["uniform", "strong", "strongstar"])
def test_multiplication_suites_are_homogeneous(extension_grid, topology):
    suite = multiplication_suite(extension_grid, topology)
    for x in (family.base for family in _scaled_grid_families(extension_grid)):
        for c in SCALARS:
            for name, scaled, value in zip(
                    suite.names, seminorm(flab.mult_operator(c * x), suite),
                    seminorm(flab.mult_operator(x), suite)):
                assert scaled == pytest.approx(abs(c) * value, rel=REL_TOL,
                                               abs=0.0), name


@pytest.mark.parametrize("n", [3, 64, 256])
@pytest.mark.parametrize("name", SCALED_MATRIX_FAMILIES)
def test_closed_form_matches_generic_path_on_matrix_families(name, n):
    family = mlab.matrix_family(name, n)
    generic = _generic(family)
    # check_lemma24's seven columns on its 24-point ladder
    ctx = mlab.trace_form_context(n)
    shifts = _matrix_shift_suite(n)
    fast = check_lemma24(ctx, [family], shifts, n)["rows"][0]["verdicts"]
    slow = check_lemma24(ctx, [generic], shifts, n)["rows"][0]["verdicts"]
    assert list(fast) == list(slow) and len(fast) == 7
    for key in fast:
        _assert_equivalent(fast[key], slow[key], _bit_equal(name, key),
                           (name, n, key))
    # the replay's 16-point ladder
    _assert_equivalent(mlab.matrix_closability_replay(name, n),
                       closability_probe(ctx, generic, n, points=16),
                       _bit_equal(name, "omega"), (name, n, "replay"))


@pytest.mark.parametrize("p", [1.0, 1.5])
def test_closed_form_matches_generic_path_on_one_over_n(grid, p):
    ctx = flab.lp_form_context(p, grid)
    family = flab.scaled_one_family(grid)
    _assert_equivalent(closability_probe(ctx, family, 256),
                       closability_probe(ctx, _generic(family), 256),
                       False, ("one/n", p))


def test_closed_form_builds_no_member(grid, extension_grid, monkeypatch):
    calls = []

    def counting_generate(self, n):
        calls.append(n)
        return self.scale(n) * self.base

    monkeypatch.setattr(ScaledFamily, "generate", counting_generate)
    n = 64
    ctx = mlab.trace_form_context(n)
    families = [mlab.matrix_family(name, n) for name in SCALED_MATRIX_FAMILIES]
    for family in families:
        closability_probe(ctx, family, n)
        mlab.matrix_closability_replay(family.name, n)
    check_lemma24(ctx, families, _matrix_shift_suite(n), n)
    closability_probe(flab.lp_form_context(1.0, grid),
                      flab.scaled_one_family(grid), n)
    # the series come from base alone: the probes, the replays, the
    # lemma-2.4 ladders and the L^p probe build no member
    assert calls == []
    for name, (run, _) in _family_paths(extension_grid, n).items():
        result = run(flab.scaled_one_family(extension_grid))
        if name == "extend_by_closure":
            # a converged closure run builds the last member, for its limit
            assert result.converged
            assert calls == [n], name
            calls.clear()
        assert calls == [], name
    # the counter sees the generic path's builds
    probe = closability_probe(ctx, _generic(families[0]), n)
    assert len(calls) == len(probe.ns)


def _scaled_grid_families(grid) -> list:
    """one/n and a scaled power singularity on the grid."""
    return [flab.scaled_one_family(grid),
            ScaledFamily("power/sqrt(n)", flab.power_function(grid, 0.2),
                         lambda n: n ** -0.5)]


def test_closed_form_matches_generic_path_on_the_operator_probe(
        extension_grid):
    suite = multiplication_suite(extension_grid, "strongstar")
    for family in _scaled_grid_families(extension_grid):
        fast, slow = (closability_check(
            [fam], flab.mult_operator, suite=suite,
            ambient_norm=lambda f: flab.lp_norm(f, 1.0))[0]
            for fam in (family, _generic(family)))
        _assert_equivalent(fast, slow, False, family.name)


# Not the weak suite, as in test_multiplication_suites_are_homogeneous.
@pytest.mark.parametrize("topology", ["uniform", "strong", "strongstar"])
def test_closed_form_matches_generic_path_on_the_closure_engine(
        extension_grid, topology):
    for family in _scaled_grid_families(extension_grid):
        fast, slow = (run_extension(extension_grid, fam, topology, n_max=512)
                      for fam in (family, _generic(family)))
        where = (family.name, topology)
        assert fast.converged == slow.converged, where
        assert fast.membership == slow.membership, where
        for series in ("residual_trace", "ambient_residuals"):
            np.testing.assert_allclose(getattr(fast, series),
                                       getattr(slow, series), rtol=REL_TOL,
                                       atol=0.0, err_msg=f"{where} {series}")
        assert np.array_equal(fast.limit.diag, slow.limit.diag), where


def _family_paths(grid, n: int) -> dict:
    """Each path that reads a family: name -> (run it on a family, its
    ladder up to n)."""
    ctx = flab.lp_form_context(1.0, grid)
    suite = multiplication_suite(grid, "strongstar")
    return {
        "closability_probe": (lambda fam: closability_probe(ctx, fam, n),
                              geometric_ladder(n, points=PROBE_POINTS)),
        "check_lemma24": (lambda fam: check_lemma24(
            ctx, [fam], [("one", ctx.unit)], n),
            geometric_ladder(n, points=PROBE_POINTS)),
        "closability_check": (lambda fam: closability_check(
            [fam], flab.mult_operator, suite=suite, n_max=n,
            ambient_norm=ctx.ambient_norm), geometric_ladder(n, points=16)),
        "extend_by_closure": (lambda fam: run_extension(
            grid, fam, "strongstar", n_max=n),
            geometric_ladder(n, points=EXTENSION_POINTS)),
        "quasi_algebra_closure_test": (lambda fam: quasi_algebra_closure_test(
            [fam], [("one", ctx.unit), ("two", 2.0 * ctx.unit)],
            flab.mult_operator, ctx.mul, "strongstar", suite=suite,
            star=ctx.star, n_max=n), geometric_ladder(n, points=12)),
    }


def test_generic_paths_build_each_member_once(extension_grid):
    for name, (run, ns) in _family_paths(extension_grid, 64).items():
        family = flab.scaled_one_family(extension_grid)
        calls = []

        def generate(k):
            calls.append(k)
            return family.generate(k)

        run(ProbeFamily(family.name, generate))
        assert calls == ns.tolist(), name


def test_gaussian_probe_builds_each_member_once():
    grid = flab.gauss_hermite_grid(32)
    calls = []

    def scaled_linear(n):
        calls.append(n)
        return np.array([0.0, 1.0 / n])

    flab.gaussian_poly_probe({"scaled_linear": scaled_linear}, n_max=24,
                             grid=grid)
    assert calls == geometric_ladder(24, points=10).tolist()


@pytest.mark.parametrize("n_max", [24, 256])
def test_a_series_that_never_settles_is_neither_null_nor_zero(n_max):
    # c_n = 1 + n % 2: the ambient series takes 1 and 2 without end, the
    # value series 1 and 4.  At these n_max the ladder ends on a run of
    # dips that, read raw, fits as decay.
    family = ScaledFamily("i", mlab.WeightedMatrix([[1.0]], 64),
                          lambda n: 1.0 + n % 2)
    probe = closability_probe(mlab.trace_form_context(64), family, n_max)
    assert not probe.null
    assert probe.limits == (1.0,)
