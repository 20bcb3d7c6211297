import inspect
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qstarlab import function_lab as flab, matrix_lab as mlab, rates
from qstarlab.forms import ProbeFamily, ScaledFamily, closability_probe
from qstarlab.rates import (COUNTEREXAMPLE_TOL, DECAY_RATIO, GROWTH_RATIO,
                            LADDER_MIN_RATIO, SLOPE_TOL, TAIL_WINDOW,
                            VALUE_FLOOR, LadderProbe, NonFiniteSeriesError,
                            TrendFit, fit_trend, geometric_ladder,
                            increment_growth_ratio, increments_shrink,
                            ladder_cauchy, ladder_probe, series_limit,
                            tends_to_zero)
from qstarlab.topologies import (BoundedSet, Suite, TruncatedOperator,
                                 closability_check)


def test_geometric_ladder_basic():
    ladder = geometric_ladder(256, points=16)
    assert ladder[0] == 1 and ladder[-1] == 256
    assert np.all(np.diff(ladder) > 0)
    # successive ratios stay bounded away from 1 (except the forced last point)
    ratios = ladder[1:-1] / ladder[:-2]
    assert np.all(ratios >= 1.25)
    with pytest.raises(ValueError):
        geometric_ladder(1, n_min=5)


def reference_ladder(n_max, points=24, n_min=1):
    """geometric_ladder with np.unique, as first written."""
    if n_max < n_min:
        raise ValueError(f"empty ladder: n_max={n_max} < n_min={n_min}")
    return reference_kept(
        np.round(np.geomspace(n_min, n_max, points)).astype(int), n_max)


def reference_kept(rounded, n_max):
    """The reference ladder from its rounded geomspace points."""
    raw = np.unique(rounded).tolist()
    kept = [raw[0]]
    for value in raw[1:]:
        if value >= kept[-1] * LADDER_MIN_RATIO:
            kept.append(value)
    if kept[-1] != n_max:
        kept.append(int(n_max))
    return np.array(kept)


def reference_fit_trend(ns, values):
    """fit_trend with np.polyfit, np.median and np.unique, as first
    written."""
    ns = np.asarray(ns, dtype=float)
    values = np.abs(np.asarray(values, dtype=float))
    tail = values[-min(TAIL_WINDOW, len(values)):]
    tail_max = float(np.max(tail))
    if tail_max <= VALUE_FLOOR:
        return TrendFit(slope=0.0, limit=0.0, tail_max=tail_max, n_fit=len(tail))
    in_decade = ns >= ns[-1] / 10.0
    if np.count_nonzero(in_decade) < 3:
        in_decade = np.zeros_like(in_decade)
        in_decade[-min(5, len(ns)):] = True
    mask = in_decade & (values > VALUE_FLOOR)
    if np.count_nonzero(mask) < 2 or len(np.unique(ns[mask])) < 2:
        return TrendFit(slope=0.0, limit=float(np.median(tail)), tail_max=tail_max,
                        n_fit=int(np.count_nonzero(mask)))
    window = values[mask]
    slope = float(np.polyfit(np.log(ns[mask]), np.log(window), 1)[0])
    k = min(3, len(window) // 2)
    head = float(np.median(window[:k]))
    foot = float(np.median(window[-k:]))
    if slope <= -SLOPE_TOL and foot <= DECAY_RATIO * head:
        limit = 0.0
    elif slope >= SLOPE_TOL and foot >= GROWTH_RATIO * head:
        limit = math.inf
    else:
        limit = float(np.median(tail))
    return TrendFit(slope=slope, limit=limit, tail_max=tail_max,
                    n_fit=int(np.count_nonzero(mask)))


def test_geometric_ladder_matches_the_unique_form():
    for n_min in (1, 4):
        for points in (10, 12, 16, 24):
            for n_max in range(1, n_min):
                for ladder in (geometric_ladder, reference_ladder):
                    with pytest.raises(ValueError):
                        ladder(n_max, points, n_min)
            # One geomspace call with an array stop serves every n_max.  Its
            # column for stops[i] can differ from the scalar call's points in
            # the last bits (numpy 2.4 on x86-64 does), but rounded to
            # integers the two agreed in every case; a rounding that moved
            # would show up here as a mismatch.
            stops = np.arange(n_min, 4097)
            columns = np.round(np.geomspace(n_min, stops, points)).astype(int).T
            for n_max, rounded in zip(stops.tolist(), columns):
                assert np.array_equal(geometric_ladder(n_max, points, n_min),
                                      reference_kept(rounded, n_max))


def test_cached_ladder_is_read_only_and_still_traced():
    ladder = geometric_ladder(64)
    with pytest.raises(ValueError):
        ladder[0] = 2
    # perfbench's tracer wraps only plain functions; an lru_cache object
    # here would lose the span.
    for fn in (rates.geometric_ladder, rates.fit_trend, rates.tends_to_zero):
        assert inspect.isfunction(fn)


@st.composite
def _ladders(draw):
    """A geometric_ladder, or increasing ns at arbitrary ratios of at least
    LADDER_MIN_RATIO; lengths 1 and 2 included.  Crowded ns make both fits
    differ by the rounding of their logs, and no ladder of the package
    crowds them."""
    if draw(st.booleans()):
        return geometric_ladder(draw(st.integers(1, 4096)),
                                points=draw(st.sampled_from((10, 12, 16, 24))))
    ns = [draw(st.integers(1, 1000))]
    for ratio in draw(st.lists(st.floats(LADDER_MIN_RATIO, 4.0), max_size=23)):
        ns.append(math.ceil(ns[-1] * ratio))
    return np.array(ns)


@st.composite
def _ladder_series(draw):
    """A ladder and a series on it: a power law, noisy or exact, or a
    constant, with entries optionally replaced by 0 or VALUE_FLOOR."""
    ns = draw(_ladders())
    size = len(ns)
    if draw(st.booleans()):
        values = (draw(st.floats(1e-10, 1e10))
                  * ns.astype(float) ** draw(st.floats(-4.0, 4.0)))
        if draw(st.booleans()):
            values = values * np.array(draw(st.lists(
                st.floats(0.5, 2.0), min_size=size, max_size=size)))
    else:
        level = draw(st.sampled_from((0.0, VALUE_FLOOR, 2 * VALUE_FLOOR))
                     | st.floats(0.0, 1e6))
        values = np.full(size, level)
    holes = draw(st.lists(st.sampled_from((None, 0.0, VALUE_FLOOR)),
                          min_size=size, max_size=size))
    for i, hole in enumerate(holes):
        if hole is not None:
            values[i] = hole
    return ns, values


@settings(max_examples=500, deadline=None)
@given(_ladder_series())
@example((np.array([2, 8, 8]), np.array([0.0, 1.0, 2.0])))  # one distinct n
@example((np.array([5]), np.array([0.3])))
@example((np.array([1, 2]), np.array([1.0, 0.5])))
def test_fit_trend_matches_the_polyfit_reference(case):
    ns, values = case
    new, old = fit_trend(ns, values), reference_fit_trend(ns, values)
    # Within rounding of SLOPE_TOL the two fits may take different branches.
    assume(abs(abs(old.slope) - SLOPE_TOL) > 1e-9)
    assert abs(new.slope - old.slope) <= 1e-12
    assert (new.limit, new.tail_max, new.n_fit) == \
        (old.limit, old.tail_max, old.n_fit)


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
    assert tends_to_zero(fit, 1e-12)


def test_tends_to_zero_hard_threshold():
    ns = np.array([1, 2, 4, 8, 16])
    assert tends_to_zero(fit_trend(ns, np.full(5, 1e-10)), 1e-8)
    assert not tends_to_zero(fit_trend(ns, np.full(5, 1e-2)), 1e-8)


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


def _interleave_probe(scale, n_max: int, points: int = 24):
    """The form probe of n -> scale(n) E11 in the trace form on 64 x 64
    matrices: its diagonal is scale(n)^2."""
    return closability_probe(
        mlab.trace_form_context(64),
        ScaledFamily("interleave", mlab.WeightedMatrix([[1.0]], 64), scale),
        n_max, points=points)


@pytest.mark.parametrize("scale, n_max", [
    (lambda n: 1.0 + (n % 3 == 0), 16),
    (lambda n: 1.0 + (n % 3 == 0), 256),
    (lambda n: 1.0 + n % 2, 16),
], ids=["n-mod-3-at-16", "n-mod-3-at-256", "n-mod-2-at-16"])
def test_interleave_of_two_limits_is_not_cauchy(scale, n_max):
    # The diagonal takes the values 1 and 4 without end.  The raw steps
    # are zero between two members of one limit, so on these ladders most
    # of the tail steps are zero.
    assert not _interleave_probe(scale, n_max).cauchy


@st.composite
def _interleaves(draw):
    """An interleave by n mod k of two clearly different values, and a
    ladder whose last step goes from one value to the other."""
    k = draw(st.integers(2, 5))
    high_residues = draw(st.sets(st.integers(0, k - 1), min_size=1,
                                 max_size=k - 1))
    low = draw(st.floats(0.1, 10.0))
    high = low * draw(st.floats(1.5, 10.0))
    n_max = draw(st.integers(8, 1024))
    points = draw(st.sampled_from((12, 16, 24)))

    def scale(n):
        return high if n % k in high_residues else low

    ns = geometric_ladder(n_max, points=points)
    assume(scale(ns[-1]) != scale(ns[-2]))
    return scale, n_max, points


@settings(max_examples=200, deadline=None)
@given(_interleaves())
def test_an_interleave_changing_at_the_last_step_is_never_cauchy(case):
    scale, n_max, points = case
    assert not _interleave_probe(scale, n_max, points).cauchy


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
    suite = Suite("uniform", [BoundedSet(tuple(np.eye(8)))])
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
