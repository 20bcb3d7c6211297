"""Convergence diagnostics for probe sequences.

Limit statements about nets are probed with integer-indexed sequences
evaluated on a geometric ladder of indices.  A sequence of nonnegative
values is accepted as null either because it sits below a hard floor at
the tail, or because a log-log fit over the trailing decade shows clear
power-law decay.  The fitted slope doubles as the observed convergence
rate reported by the probes.  Every closability probe is one
`ladder_probe`, and a NaN or inf in any of its series raises.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# Slopes shallower than this are treated as "flat" (value stabilises).
SLOPE_TOL = 0.05
# A decaying (growing) verdict also needs the fit window to actually drop
# below (rise above) this fraction of its starting level; slope alone is
# too easy to fake with flat noise.
DECAY_RATIO = 0.75
GROWTH_RATIO = 1.3
# Values at or below the floor count as numerically zero.
VALUE_FLOOR = 1e-14
# Tail window used for hard-threshold checks and limit medians.
TAIL_WINDOW = 5
NULL_TOL = 1e-6
CAUCHY_REL_TOL = 1e-8
COUNTEREXAMPLE_TOL = 1e-6
STABLE_RATIO = 1.0
# Least ratio between successive ladder indices.
LADDER_MIN_RATIO = 1.25


class NonFiniteSeriesError(ValueError):
    """A probe series holds a NaN or an inf."""


def _finite(ns, series, names, first: int = 0) -> np.ndarray:
    """series as float columns, one per name, rows following ns[first:]."""
    series = np.asarray(series, dtype=float).reshape(len(ns) - first, -1)
    if not np.isfinite(series).all():
        i, j = np.argwhere(~np.isfinite(series))[0]
        raise NonFiniteSeriesError(
            f"series {names[j]!r} is {series[i, j]} at ladder position "
            f"{first + i} (n={ns[first + i]})")
    return series


@dataclass(frozen=True)
class TrendFit:
    """Power-law trend of a nonnegative sequence against its index ladder."""

    slope: float
    limit: float  # 0.0, a finite positive value, or math.inf
    tail_max: float
    n_fit: int


def geometric_ladder(n_max: int, points: int = 24,
                     n_min: int = 1) -> np.ndarray:
    """Distinct integer indices, geometrically spaced in [n_min, n_max].

    Successive points keep a ratio of at least LADDER_MIN_RATIO (except
    possibly the forced final point n_max).  Without this floor, integer
    rounding makes the ladder step-by-one at the low end, and step distances
    there would compare members at vanishing scale separation; scale-invariant
    families then look spuriously Cauchy.  The array is cached and shared
    between callers, so it is read-only.
    """
    if n_max < n_min:
        raise ValueError(f"empty ladder: n_max={n_max} < n_min={n_min}")
    return _cached_ladder(n_max, points, n_min)


# A plain function wraps this cache, so geometric_ladder stays a function
# object (an lru_cache wrapper is not one).
@functools.lru_cache(maxsize=128)
def _cached_ladder(n_max: int, points: int, n_min: int) -> np.ndarray:
    # The rounded geomspace never decreases and n_min >= 1, so the ratio
    # test also drops repeated values.
    raw = np.round(np.geomspace(n_min, n_max, points)).astype(int).tolist()
    kept = [raw[0]]
    for value in raw[1:]:
        if value >= kept[-1] * LADDER_MIN_RATIO:
            kept.append(value)
    if kept[-1] != n_max:
        kept.append(int(n_max))
    ladder = np.array(kept)
    ladder.flags.writeable = False
    return ladder


def _median(values) -> float:
    """Median of a few values by sorting; bit-identical to np.median."""
    ordered = sorted(values.tolist())
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def fit_trend(ns, values) -> TrendFit:
    """Fit value ~ c * n**slope over the trailing decade of the ladder.

    Zero entries are excluded from the fit (they cannot enter a log-log
    regression); an all-zero tail short-circuits to limit 0.  The slope is
    the least-squares slope of log value on centred log n.
    """
    ns = np.asarray(ns, dtype=float)
    values = np.abs(np.asarray(values, dtype=float))
    if ns.shape != values.shape or ns.ndim != 1 or len(ns) == 0:
        raise ValueError("ns and values must be matching nonempty 1-d sequences")

    tail = values[-min(TAIL_WINDOW, len(values)):]
    tail_max = float(tail.max())
    if tail_max <= VALUE_FLOOR:
        return TrendFit(slope=0.0, limit=0.0, tail_max=tail_max, n_fit=len(tail))

    in_decade = ns >= ns[-1] / 10.0
    if np.count_nonzero(in_decade) < 3:
        in_decade = np.zeros_like(in_decade)
        in_decade[-min(5, len(ns)):] = True
    mask = in_decade & (values > VALUE_FLOOR)
    n_fit = int(np.count_nonzero(mask))
    fit_ns = ns[mask]
    if n_fit < 2 or fit_ns.min() == fit_ns.max():
        # Not enough signal for a fit; report the tail as a flat level.
        return TrendFit(slope=0.0, limit=_median(tail), tail_max=tail_max,
                        n_fit=n_fit)

    window = values[mask]
    x = np.log(fit_ns)
    x -= x.mean()
    y = np.log(window)
    slope = float(x @ (y - y.mean()) / (x @ x))
    k = min(3, len(window) // 2)  # ends that do not overlap
    head = _median(window[:k])
    foot = _median(window[-k:])
    if slope <= -SLOPE_TOL and foot <= DECAY_RATIO * head:
        limit = 0.0
    elif slope >= SLOPE_TOL and foot >= GROWTH_RATIO * head:
        limit = math.inf
    else:
        limit = _median(tail)
    return TrendFit(slope=slope, limit=limit, tail_max=tail_max, n_fit=n_fit)


def tends_to_zero(fit: TrendFit, hard_threshold: float) -> bool:
    """True when the fitted tail is below the threshold or the trend decays
    to 0."""
    return fit.tail_max <= hard_threshold or fit.limit == 0.0


def running_tail_max(series) -> np.ndarray:
    """Entry i is the largest of series[i:], along the first axis."""
    return np.maximum.accumulate(series[::-1], axis=0)[::-1]


def series_limit(ns, values, name: str = "values") -> tuple[float, TrendFit]:
    """The fitted limit (the last value if the fit diverges), and the raw
    fit.  A limit 0.0 stands only when the running tail maximum of |values|
    fits to 0 too, else it is the median of the last TAIL_WINDOW |values|."""
    values = _finite(ns, values, [name])[:, 0]
    fit = fit_trend(ns, values)
    if fit.limit == 0.0 and fit_trend(
            ns, running_tail_max(np.abs(values))).limit != 0.0:
        return _median(np.abs(values[-TAIL_WINDOW:])), fit
    return (fit.limit if math.isfinite(fit.limit) else float(values[-1])), fit


def ladder_cauchy(ns, values, steps, names=("values",)) -> tuple[bool, list]:
    """Whether each value series (column; rows follow ns) has step residuals
    (rows follow ns[1:]) below CAUCHY_REL_TOL * max(its largest value, 1)
    at the tail or clearly decaying; with the residual fits.  A residual
    is the largest step at or after its rung: an interleave of two limits
    has zero steps between members of one limit, and raw they look null."""
    scales = np.maximum(_finite(ns, values, names).max(axis=0), 1.0)
    steps = _finite(ns, steps, [f"{name} step" for name in names], first=1)
    fits = [fit_trend(ns[1:], column) for column in running_tail_max(steps).T]
    return all(tends_to_zero(f, CAUCHY_REL_TOL * s)
               for f, s in zip(fits, scales)), fits


@dataclass(frozen=True, eq=False)
class LadderProbe:
    """Verdict of ladder_probe on one family, with the series it judged:
    values has one column per name and rows following ns, steps the same
    columns with rows following ns[1:]; limits and slopes follow the
    value series."""

    family: str
    ns: np.ndarray
    ambient: np.ndarray
    values: np.ndarray
    steps: np.ndarray
    names: tuple
    null: bool
    cauchy: bool
    limits: tuple
    counterexample: bool  # null, Cauchy and a limit above COUNTEREXAMPLE_TOL
    ambient_slope: float
    value_slopes: tuple
    step_slopes: tuple


def ladder_probe(family: str, ns, ambient, values, steps,
                 names=("values",)) -> LadderProbe:
    """Probe a family on the ladder ns: null by _judge_ambient, Cauchy by
    ladder_cauchy, limits by series_limit."""
    return _judged_probe(family, ns, _judge_ambient(ns, ambient), values,
                         steps, names)


def _judge_ambient(ns, ambient) -> tuple[np.ndarray, TrendFit, bool]:
    """The ambient series as floats, its fit and whether it is null; one
    judgement serves every value series probed against that series.  It
    fits the running tail maximum, as series_limit checks a limit 0."""
    ambient = _finite(ns, ambient, ["ambient"])[:, 0]
    fit = fit_trend(ns, running_tail_max(ambient))
    return ambient, fit, tends_to_zero(fit, NULL_TOL)


def _judged_probe(family: str, ns, judged_ambient, values, steps,
                  names) -> LadderProbe:
    """ladder_probe with the ambient series already judged by
    _judge_ambient."""
    names = tuple(names)
    ambient, ambient_fit, null = judged_ambient
    values = _finite(ns, values, names)
    steps = _finite(ns, steps, [f"{name} step" for name in names], first=1)
    cauchy, step_fits = ladder_cauchy(ns, values, steps, names)
    limits, value_fits = zip(*(series_limit(ns, column, name)
                               for column, name in zip(values.T, names)))
    return LadderProbe(family=family, ns=ns, ambient=ambient, values=values,
                       steps=steps, names=names, null=null, cauchy=cauchy,
                       limits=limits,
                       counterexample=(null and cauchy
                                       and max(limits) > COUNTEREXAMPLE_TOL),
                       ambient_slope=ambient_fit.slope,
                       value_slopes=tuple(f.slope for f in value_fits),
                       step_slopes=tuple(f.slope for f in step_fits))


def increment_growth_ratio(values) -> float:
    """Geometric-mean ratio of successive increments of a monotone-ish sum.

    Used for refinement-stability verdicts: a convergent quantity sampled
    on a doubling ladder has shrinking increments (ratio < 1), a divergent
    one has steady or growing increments (ratio >= 1).  Returns 0.0 when
    the increments are already at round-off level.
    """
    values = np.asarray(values, dtype=float)
    if len(values) < 3:
        raise ValueError("need at least three refinement levels")
    inc = np.abs(np.diff(values))
    scale = max(np.max(np.abs(values)), 1.0)
    if np.max(inc) <= 1e-12 * scale:
        return 0.0
    inc = np.maximum(inc, 1e-300)
    ratios = inc[1:] / inc[:-1]
    return float(np.exp(np.mean(np.log(ratios))))


def increments_shrink(ns, values, name: str) -> tuple[bool, float]:
    """Whether increments on a refinement ladder shrink, and their ratio."""
    ratio = increment_growth_ratio(_finite(ns, values, [name])[:, 0])
    return ratio < STABLE_RATIO, ratio
