import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qstarlab import function_lab as flab, matrix_lab as mlab
from qstarlab.forms import ProbeFamily, closability_probe
from qstarlab.rates import (COUNTEREXAMPLE_TOL, LadderProbe,
                            NonFiniteSeriesError, fit_trend, geometric_ladder,
                            increment_growth_ratio, increments_shrink,
                            ladder_cauchy, ladder_probe, series_limit,
                            tends_to_zero)
from qstarlab.topologies import (BoundedSet, TruncatedOperator,
                                 closability_check, suite_from_bounded_sets)


def test_geometric_ladder_basic():
    ladder = geometric_ladder(256, points=16)
    assert ladder[0] == 1 and ladder[-1] == 256
    assert np.all(np.diff(ladder) > 0)
    # successive ratios stay bounded away from 1 (except the forced last point)
    ratios = ladder[1:-1] / ladder[:-2]
    assert np.all(ratios >= 1.25)
    with pytest.raises(ValueError):
        geometric_ladder(1, n_min=5)


def test_fit_trend_rejects_mismatched_input():
    with pytest.raises(ValueError):
        fit_trend([1, 2, 3], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_trend([], [])


def test_fit_trend_power_laws():
    ns = geometric_ladder(4096, points=20)
    decaying = fit_trend(ns, 3.0 * ns ** -0.5)
    assert decaying.slope == pytest.approx(-0.5, abs=0.01)
    assert decaying.limit == 0.0
    growing = fit_trend(ns, 0.001 * ns ** 0.5)
    assert growing.limit == math.inf
    flat = fit_trend(ns, np.full(len(ns), 0.25))
    assert flat.limit == pytest.approx(0.25)


def test_fit_trend_flat_noise_is_not_null():
    rng = np.random.default_rng(0)
    ns = geometric_ladder(4096, points=20)
    values = 0.2 * (1.0 + 0.3 * rng.standard_normal(len(ns)))
    fit = fit_trend(ns, np.abs(values))
    assert fit.limit > 0.0


def test_fit_trend_exact_zero_tail():
    ns = np.array([1, 2, 4, 8, 16, 32, 64])
    values = np.array([1.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0])
    fit = fit_trend(ns, values)
    assert fit.limit == 0.0
    assert tends_to_zero(ns, values, 1e-12)


def test_tends_to_zero_hard_threshold():
    ns = np.array([1, 2, 4, 8, 16])
    assert tends_to_zero(ns, np.full(5, 1e-10), 1e-8)
    assert not tends_to_zero(ns, np.full(5, 1e-2), 1e-8)


def test_increment_growth_ratio():
    convergent = [1.0, 1.5, 1.75, 1.875, 1.9375]
    assert increment_growth_ratio(convergent) == pytest.approx(0.5)
    divergent = [1.0, 2.0, 4.0, 8.0, 16.0]
    assert increment_growth_ratio(divergent) == pytest.approx(2.0)
    stable = [2.0, 2.0, 2.0, 2.0]
    assert increment_growth_ratio(stable) == 0.0
    with pytest.raises(ValueError):
        increment_growth_ratio([1.0, 2.0])


def test_three_point_fit_window_sees_a_decay():
    # The trailing decade of this ladder holds exactly 3 points (219, 474,
    # 1024); an exact 1/n must still be judged decaying, not flat.
    ns = geometric_ladder(1024, points=10)
    fit = fit_trend(ns, 1.0 / ns)
    assert fit.n_fit == 3
    assert fit.slope == pytest.approx(-1.0)
    assert fit.limit == 0.0
    flat = fit_trend(ns, np.full(len(ns), 0.25))
    assert flat.limit == pytest.approx(0.25)


@settings(max_examples=300, deadline=None)
@given(a=st.floats(0.3, 3.0), n_max=st.integers(16, 4096),
       points=st.sampled_from((10, 12, 14, 16, 24)))
def test_exact_power_laws_decay_on_every_ladder(a, n_max, points):
    ns = geometric_ladder(n_max, points=points)
    assert fit_trend(ns, ns ** -a).limit == 0.0


def test_ladder_probe_counterexample_and_clean_family():
    ns = geometric_ladder(256, points=16)
    constant = np.ones(len(ns))
    # ambient-null, Cauchy (no steps), limit 1: a counterexample
    hit = ladder_probe("hit", ns, 1.0 / ns, constant, np.zeros(len(ns) - 1))
    assert hit.null and hit.cauchy and hit.limits == (1.0,)
    assert hit.counterexample
    # values decaying like 1/n: limit 0, no counterexample
    clean = ladder_probe("clean", ns, 1.0 / ns, 1.0 / ns,
                         np.abs(np.diff(1.0 / ns)))
    assert clean.null and clean.cauchy and clean.limits == (0.0,)
    assert not clean.counterexample
    assert clean.value_slopes[0] == pytest.approx(-1.0)
    # an ambient series that does not vanish: never a counterexample
    assert not ladder_probe("flat", ns, constant, constant,
                            np.zeros(len(ns) - 1)).counterexample
    assert COUNTEREXAMPLE_TOL < 1.0


def test_ladder_cauchy_threshold_scales_with_the_series():
    ns = geometric_ladder(64, points=10)
    steps = np.full(len(ns) - 1, 5e-8)  # flat residuals, no decay
    small = np.ones(len(ns))
    assert not ladder_cauchy(ns, small, steps)[0]
    # the same residuals are Cauchy against series of size 10
    assert ladder_cauchy(ns, 10.0 * small, steps)[0]
    # every column must be Cauchy
    both = np.stack([10.0 * small, small], axis=1)
    assert not ladder_cauchy(ns, both, np.stack([steps, steps], axis=1),
                             names=("big", "small"))[0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_series_raise_with_name_and_position(bad):
    ns = geometric_ladder(64, points=10)
    values = np.ones(len(ns))
    steps = np.zeros(len(ns) - 1)
    spoiled = values.copy()
    spoiled[4] = bad
    with pytest.raises(NonFiniteSeriesError,
                       match=rf"'ambient' is {bad} at ladder position 4 "
                             rf"\(n={ns[4]}\)"):
        ladder_probe("f", ns, spoiled, values, steps)
    with pytest.raises(NonFiniteSeriesError, match="'omega' is"):
        ladder_probe("f", ns, 1.0 / ns, spoiled, steps, names=("omega",))
    bad_steps = steps.copy()
    bad_steps[-1] = bad
    with pytest.raises(NonFiniteSeriesError,
                       match=rf"'omega step' is {bad} at ladder position "
                             rf"{len(ns) - 1} "):
        ladder_cauchy(ns, values, bad_steps, names=("omega",))
    with pytest.raises(NonFiniteSeriesError, match="'sums'"):
        increments_shrink(ns[:5], spoiled[:5], "sums")
    assert issubclass(NonFiniteSeriesError, ValueError)


def test_fit_trend_short_decade_fits_the_last_points():
    # Only 4096 lies in the trailing decade, so the fit falls back to the
    # last (here: all three) ladder points.
    ns = geometric_ladder(4096, points=3)
    assert ns.tolist() == [1, 64, 4096]
    fit = fit_trend(ns, 1.0 / ns)
    assert fit.n_fit == 3
    assert fit.slope == pytest.approx(-1.0)
    assert fit.limit == 0.0


def test_series_limit_falls_back_to_last_value_when_diverging():
    ns = geometric_ladder(4096, points=20)
    limit, fit = series_limit(ns, 0.001 * ns ** 0.5)
    assert fit.limit == math.inf
    assert limit == pytest.approx(0.001 * 64.0)
    assert series_limit(ns, np.zeros(len(ns)))[0] == 0.0


def test_increments_shrink():
    assert increments_shrink((1, 2, 4, 8, 16), [1.0, 1.5, 1.75, 1.875, 1.9375],
                             "sums") == (True, pytest.approx(0.5))
    assert not increments_shrink((1, 2, 4, 8, 16), [1.0, 2.0, 3.0, 4.0, 5.0],
                                 "sums")[0]


def _operator_probes():
    # two ambient-null families: a constant representative (a
    # counterexample) and one that shrinks like 1/n
    families = [ProbeFamily("constant-rep", lambda n: 1.0,
                            tau_norm=lambda n: 1.0 / n),
                ProbeFamily("one/n", lambda n: 1.0 / n,
                            tau_norm=lambda n: 1.0 / n)]
    suite = suite_from_bounded_sets("uniform",
                                    [BoundedSet(tuple(np.eye(8)))])
    return closability_check(
        families, lambda c: TruncatedOperator(diag=np.full(8, c)),
        suite=suite, n_max=64)


def _gaussian_probes():
    grid = flab.gauss_hermite_grid(32)
    return flab.gaussian_poly_probe(flab.make_gaussian_families(grid),
                                    n_max=8, grid=grid)


CLOSABILITY_PROBES = {
    "closability_probe": lambda: [closability_probe(
        mlab.trace_form_context(16), mlab.matrix_family("scaled_corner", 16),
        16)],
    "matrix_closability_replay": lambda: [
        mlab.matrix_closability_replay("moving_bump", 16)],
    "closability_check": _operator_probes,
    "gaussian_poly_probe": _gaussian_probes,
}


@pytest.mark.parametrize("name", sorted(CLOSABILITY_PROBES))
def test_every_closability_probe_returns_the_ladder_record(name):
    probes = CLOSABILITY_PROBES[name]()
    assert probes
    for probe in probes:
        assert isinstance(probe, LadderProbe)
        assert probe.values.ndim == probe.steps.ndim == 2
        assert (len(probe.ns) == len(probe.ambient) == probe.values.shape[0]
                == probe.steps.shape[0] + 1)
        assert (probe.values.shape[1] == probe.steps.shape[1]
                == len(probe.names) == len(probe.limits))
        assert probe.counterexample == (
            probe.null and probe.cauchy
            and max(probe.limits) > COUNTEREXAMPLE_TOL)
    if name == "closability_check":
        assert [p.counterexample for p in probes] == [True, False]
