"""Scalar-multiple probe families (`forms.ScaledFamily`).

A ScaledFamily is n -> scale(n) * base.  Its probes evaluate base once and
scale the results in closed form, which needs a sesquilinear form and an
absolutely homogeneous ambient norm.  These tests check that contract on
every context such a family meets, compare the closed form with the
generic member-by-member path, and check that the closed form builds no
member.
"""

import numpy as np
import pytest

from qstarlab import function_lab as flab
from qstarlab import matrix_lab as mlab
from qstarlab.forms import (ProbeFamily, ScaledFamily, b_shifted_form,
                            check_lemma24, closability_probe, star_form)
from qstarlab.rates import COUNTEREXAMPLE_TOL
from qstarlab.scenarios import _matrix_shift_suite

SCALED_MATRIX_FAMILIES = ("decaying_column", "rank_one_decay", "scaled_corner")
SCALARS = (2.0 ** -7, 1.0 / 3.0, -0.7)
REL_TOL = 1e-13


@pytest.fixture(scope="module")
def grid():
    return flab.simpson_grid()


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


@pytest.mark.parametrize("n", [3, 64, 256])
@pytest.mark.parametrize("name", SCALED_MATRIX_FAMILIES)
def test_closed_form_matches_generic_path_on_matrix_families(name, n):
    family = mlab.matrix_family(name, n)
    generic = _generic(family)
    # check_lemma24's seven columns on its 24-point ladder
    ctx = mlab.trace_form_context(n)
    shifts = _matrix_shift_suite(n)
    fast = check_lemma24(ctx, [family], shifts, n).rows[0]["verdicts"]
    slow = check_lemma24(ctx, [generic], shifts, n).rows[0]["verdicts"]
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


def test_closed_form_builds_no_member(grid, monkeypatch):
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
    assert calls == []
    # the counter sees the generic path's builds
    probe = closability_probe(ctx, _generic(families[0]), n)
    assert len(calls) == len(probe.ns)
