import numpy as np
import pytest

from qstarlab import function_lab as flab
from qstarlab import matrix_lab as mlab
from qstarlab.forms import (FormContext, ProbeFamily, b_shifted_form,
                            cauchy_schwarz_residual, check_ips_conditions,
                            check_lemma24, closability_probe, form_from_state,
                            hermiticity_residual, star_form)
from qstarlab.scenarios import cauchy_limit, convergence_table


@pytest.fixture(scope="module")
def grid():
    return flab.simpson_grid()


@pytest.fixture(scope="module")
def m2_ctx(m2, trace2):
    return form_from_state(m2, trace2)


E11, E12, E21, E22 = (np.eye(4, dtype=complex)[i] for i in range(4))


def test_form_from_state_trace_values(m2_ctx, m2):
    # Omega(E12, E12) = omega(E21 E12) = omega(E22) = 1/2 (trace oracle).
    assert abs(m2_ctx.form(E12, E12) - 0.5) < 1e-14
    unit = np.asarray(m2.unit)
    assert abs(m2_ctx.form(unit, unit) - 1.0) < 1e-14
    assert abs(m2_ctx.form(E11 + E12, np.zeros(4))) == 0.0


def test_form_axioms_on_random_pairs(m2_ctx):
    rng = np.random.default_rng(0)
    pairs = [(rng.standard_normal(4) + 1j * rng.standard_normal(4),
              rng.standard_normal(4) + 1j * rng.standard_normal(4))
             for _ in range(100)]
    assert hermiticity_residual(m2_ctx, pairs) < 1e-10
    assert cauchy_schwarz_residual(m2_ctx, pairs) < 1e-10
    assert all(m2_ctx.diag(a) >= -1e-10 for a, _ in pairs)


def test_star_form_of_trace_is_itself(m2_ctx):
    starred = star_form(m2_ctx)
    basis = np.eye(4, dtype=complex)
    for i in range(4):
        for j in range(4):
            assert abs(starred.form(basis[i], basis[j])
                       - m2_ctx.form(basis[i], basis[j])) < 1e-12


def test_star_form_is_involutive(m2_ctx, m2):
    double = star_form(star_form(m2_ctx))
    unit = np.asarray(m2.unit)
    assert abs(star_form(m2_ctx).form(unit, unit)
               - m2_ctx.form(unit, unit)) < 1e-14
    rng = np.random.default_rng(1)
    for _ in range(100):
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert abs(double.form(a, b) - m2_ctx.form(a, b)) < 1e-12


def test_b_shifted_form(m2_ctx, m2):
    unit = np.asarray(m2.unit)
    shifted = b_shifted_form(m2_ctx, unit)
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert abs(shifted.form(a, b) - m2_ctx.form(a, b)) < 1e-12
    zero_shift = b_shifted_form(m2_ctx, np.zeros(4))
    assert abs(zero_shift.form(E11, E11)) == 0.0
    # B = E11: Omega_B(E11, E11) = omega(E11) = 1/2 by direct expansion.
    e_shift = b_shifted_form(m2_ctx, E11)
    assert abs(e_shift.form(E11, E11) - 0.5) < 1e-14
    assert e_shift.diag(E11 + E12) >= -1e-12


def test_probe_scaled_unit_in_algebra_context(m2_ctx, m2):
    unit = np.asarray(m2.unit)
    fam = ProbeFamily(name="one/n", generate=lambda n: unit / n)
    verdict = closability_probe(m2_ctx, fam, 512)
    assert verdict.null and verdict.cauchy
    assert verdict.limits[0] == 0.0
    assert not verdict.counterexample


def test_probe_tent_families(grid):
    ctx = flab.lp_form_context(1.0, grid)
    v_bad = closability_probe(ctx, flab.tent_family(grid, 0.5, 1.0), 256)
    assert v_bad.null
    assert not v_bad.cauchy
    assert cauchy_limit(v_bad) is None  # only reported for Cauchy families
    assert not v_bad.counterexample
    # closed-form L1 norm of the probes: n^(-1/2)/2
    assert abs(v_bad.ambient[-1]
               - v_bad.ns[-1] ** -0.5 / 2.0) < 1e-12

    v_ok = closability_probe(ctx, flab.tent_family(grid, 0.25, 1.0), 256)
    assert v_ok.null and v_ok.cauchy
    assert v_ok.limits[0] == 0.0


def test_probe_detects_nonclosable_point_evaluation(grid):
    node = int(np.argmin(np.abs(grid.nodes - 0.5)))
    ctx = FormContext(
        name="point-eval",
        form=lambda f, g: f.values[node] * np.conj(g.values[node]),
        ambient_norm=lambda f: flab.lp_norm(f, 1.0),
        star=lambda f: f.conj(), mul=lambda f, g: f * g)
    verdict = closability_probe(ctx, flab.tent_family(grid, 0.0, 1.0), 256)
    assert verdict.null and verdict.cauchy
    assert verdict.limits[0] == pytest.approx(1.0)
    assert verdict.counterexample


def test_probe_weighted_form_context(grid):
    # integrable singular weight: the weighted form stays closable on the
    # tent probe, and its diagonal matches the weighted quadrature
    weight = flab.power_function(grid, 0.5)
    ctx = flab.lp_form_context(1.0, grid, weight=weight)
    verdict = closability_probe(ctx, flab.tent_family(grid, 0.25, 1.0), 256)
    assert verdict.null and verdict.cauchy
    assert verdict.limits[0] == 0.0
    assert not verdict.counterexample
    tent = flab.tent_function(grid, 16, 0.25)
    assert ctx.form(tent, tent) == pytest.approx(
        flab.omega_form(tent, tent, weight))


def test_probe_refuses_a_nan_form(grid):
    # A form that returns NaN used to read as "no counterexample".
    from qstarlab.rates import NonFiniteSeriesError

    ctx = FormContext(name="nan", form=lambda f, g: complex("nan"),
                      ambient_norm=lambda f: flab.lp_norm(f, 1.0))
    with pytest.raises(NonFiniteSeriesError,
                       match="'omega' is nan at ladder position 0 "):
        closability_probe(ctx, flab.tent_family(grid, 0.25, 1.0), 64)


def test_verdict_table_shape(grid):
    ctx = flab.lp_form_context(1.0, grid)
    verdict = closability_probe(ctx, flab.scaled_one_family(grid), 64)
    header, rows = convergence_table(verdict)
    assert header == ["n", "tau_norm", "omega_diag", "omega_pairwise"]
    assert len(rows) == len(verdict.ns)


def test_lemma24_matrix_context_agreement():
    n = 64
    ctx = mlab.trace_form_context(n)
    families = [mlab.matrix_family(name, n)
                for name in ("scaled_corner", "moving_bump", "spreading_block",
                             "rank_one_decay")]
    shifts = [("E11", _unit_entry(n, 0, 0)), ("E12", _unit_entry(n, 0, 1)),
              ("diag", np.diag(np.r_[np.ones(3), np.zeros(n - 3)]).astype(complex))]
    report = check_lemma24(ctx, families, shifts, n_max=n)
    assert report.agree
    assert not report.counterexamples
    assert not report.unit_in_suite
    assert "no unit" in report.notes


def test_lemma24_unit_shift_reduces_to_base(m2_ctx, m2):
    fam = ProbeFamily(name="one/n",
                      generate=lambda n: np.asarray(m2.unit) / n)
    report = check_lemma24(m2_ctx, [fam], [("I", np.asarray(m2.unit))],
                           n_max=256)
    assert report.agree and report.unit_in_suite
    row = report.rows[0]
    base = row["verdicts"]["omega"]
    shifted = row["verdicts"]["omega_B[I]"]
    assert np.allclose(base.values[:, 0], shifted.values[:, 0])
    assert base.counterexample == shifted.counterexample


def test_lemma24_star_symmetric_family_identical_traces(grid):
    ctx = flab.lp_form_context(1.0, grid)
    fam = flab.tent_family(grid, 0.25, 1.0)  # real-valued: X_n* = X_n
    base = closability_probe(ctx, fam, 128)
    starred = closability_probe(star_form(ctx), fam, 128)
    assert np.allclose(base.values[:, 0], starred.values[:, 0])
    assert np.allclose(base.steps, starred.steps)


def _unit_entry(n, i, j):
    a = np.zeros((n, n), dtype=complex)
    a[i, j] = 1.0
    return a


def test_ips_conditions_algebra_exact(m2_ctx):
    rng = np.random.default_rng(4)
    xs = [rng.standard_normal(4) + 1j * rng.standard_normal(4)
          for _ in range(4)] + [np.zeros(4)]
    bs = [rng.standard_normal(4) + 1j * rng.standard_normal(4)
          for _ in range(3)]
    report = check_ips_conditions(m2_ctx, xs, bs)
    assert report.invariance_residual < 1e-10
    assert report.degeneracy_residual < 1e-10
    assert report.structural == ("by-construction", "by-construction")


def test_ips_conditions_on_grid_limit_element(grid):
    ctx = flab.lp_form_context(1.0, grid)
    one = flab.GridFunction.from_callable(lambda x: np.ones_like(x), grid)
    cos = flab.GridFunction.from_callable(
        lambda x: np.cos(2 * np.pi * x).astype(complex), grid)
    limit_elt = flab.power_function(grid, 0.25)  # in L^2 but outside C[0,1]
    report = check_ips_conditions(ctx, [limit_elt], [one, cos])
    assert report.invariance_residual < 1e-10
    # Omega(f, 1) = conj(Omega(1, f)) for the limit element
    assert abs(ctx.form(limit_elt, one)
               - np.conj(ctx.form(one, limit_elt))) < 1e-12


def test_form_requires_operations_for_derived_forms(grid):
    bare = FormContext(name="bare",
                       form=lambda a, b: complex(np.vdot(b, a)),
                       ambient_norm=np.linalg.norm)
    with pytest.raises(ValueError, match="involution"):
        star_form(bare)
    with pytest.raises(ValueError, match="multiplication"):
        b_shifted_form(bare, np.ones(3))
