import numpy as np
import pytest

from qstarlab.matrix_lab import (ENTRY_RULES, NON_CAUCHY_FAMILIES,
                                 NULL_FAMILIES, WeightedMatrix,
                                 d_omega_identification, hs_norm, m_constant,
                                 matrix_closability_replay, matrix_family,
                                 trace_form, trace_form_context,
                                 weight_matrix, weighted_norm)
from qstarlab.scenarios import cauchy_limit, replay_table


def unit_entry(n, i, j, value=1.0):
    a = np.zeros((n, n), dtype=complex)
    a[i, j] = value
    return a


def test_weighted_norm_examples():
    assert weighted_norm(unit_entry(2, 0, 0)) == pytest.approx(1.0)
    assert weighted_norm(np.ones((2, 2))) == pytest.approx(1.25)
    assert weighted_norm(np.zeros((3, 3))) == 0.0
    # direct summation oracle on a random matrix
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    oracle = 0.0
    for m in range(5):
        for n in range(5):
            oracle += abs(a[m, n]) ** 2 / ((m + 1) ** 2 * (n + 1) ** 2)
    assert weighted_norm(a) == pytest.approx(np.sqrt(oracle), rel=1e-12)


def test_hs_norm_examples():
    assert hs_norm(unit_entry(2, 0, 1)) == pytest.approx(1.0)
    assert hs_norm(np.ones((2, 2))) == pytest.approx(2.0)
    for n in (4, 9):
        assert hs_norm(np.eye(n)) == pytest.approx(np.sqrt(n))


def test_trace_form_examples():
    e12 = unit_entry(2, 0, 1)
    assert trace_form(e12, e12) == pytest.approx(1.0)
    assert trace_form(unit_entry(3, 0, 0), unit_entry(3, 1, 2)) == 0.0
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert trace_form(a, a).real >= 0.0
    assert trace_form(a, a).real == pytest.approx(hs_norm(a) ** 2, rel=1e-12)
    with pytest.raises(ValueError, match="mismatch"):
        trace_form(np.eye(2), np.eye(3))


def test_trace_form_hermitian_cauchy_schwarz():
    rng = np.random.default_rng(2)
    for _ in range(50):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        assert abs(trace_form(a, b) - np.conj(trace_form(b, a))) < 1e-12
        assert abs(trace_form(a, b)) ** 2 <= (trace_form(a, a).real
                                              * trace_form(b, b).real) + 1e-12


def test_weighted_below_hs_strict_off_corner():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 6))
    assert weighted_norm(a) <= hs_norm(a) + 1e-12
    off = unit_entry(4, 2, 3)
    assert weighted_norm(off) < hs_norm(off)
    corner = unit_entry(4, 0, 0)
    assert weighted_norm(corner) == pytest.approx(hs_norm(corner))


def test_weighted_matrix_wrapper():
    wm = WeightedMatrix(np.eye(3, dtype=complex))
    assert wm.truncation == 3
    assert weighted_norm(wm) == pytest.approx(
        np.sqrt(np.sum(weight_matrix(3) * np.eye(3))))
    with pytest.raises(ValueError):
        WeightedMatrix(np.ones((2, 3)))


def test_moving_bump_closed_forms():
    fam = matrix_family("moving_bump", 64)
    a16 = fam.generate(16)
    assert weighted_norm(a16) == pytest.approx(16 ** -2)
    a9 = fam.generate(9)
    assert hs_norm(a16 - a9) == pytest.approx(np.sqrt(2))


def test_replay_null_families_reach_zero():
    for name in NULL_FAMILIES:
        verdict = matrix_closability_replay(name, 256)
        assert verdict.null, name
        assert verdict.cauchy, name
        assert verdict.limits[0] == 0.0, name
        assert not verdict.counterexample, name


def test_replay_non_cauchy_families_reported():
    for name in NON_CAUCHY_FAMILIES:
        verdict = matrix_closability_replay(name, 256)
        assert verdict.null, name
        assert not verdict.cauchy, name
        assert cauchy_limit(verdict) is None
        assert not verdict.counterexample, name


def test_replay_table_columns():
    verdict = matrix_closability_replay("scaled_corner", 64)
    header, rows = replay_table(verdict)
    assert header[0] == "k"
    assert len(rows) > 5


def test_replay_rejects_unknown_family():
    with pytest.raises(KeyError):
        matrix_family("does_not_exist")


def test_domain_identification_against_oracle():
    verdicts = d_omega_identification()
    assert len(verdicts) == len(ENTRY_RULES) == 6
    for v in verdicts:
        assert v.agrees, (v.rule, v.growth_ratio)
    members = {v.rule for v in verdicts if v.member}
    assert "inverse_product" in members
    assert "finite_support" in members
    assert "inverse_sqrt_product" not in members
    assert "row_harmonic" not in members


def test_m_constant_truncation_and_bound():
    value, bound = m_constant(256)
    exact = (np.pi ** 2 / 6) ** 2
    assert value < exact
    assert exact - value <= bound + 1e-12


def test_trace_context_operations():
    ctx = trace_form_context(8)
    a = unit_entry(8, 0, 1)
    assert np.allclose(ctx.star(a), a.conj().T)
    assert np.allclose(ctx.mul(a, a.T), unit_entry(8, 0, 0))
    assert ctx.unit is None
