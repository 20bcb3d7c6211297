"""Abelian example suites on quadrature grids.

Continuous functions on [0,1] inside L^p, probed on a composite-Simpson
grid, and the polynomial algebra on the Gaussian-weighted line, probed on
a Gauss-Hermite grid.  Power singularities are evaluated on nodes offset
from 0 by half a cell, and L^q-membership verdicts come from the growth of
quadrature sums under grid doubling rather than from any fixed cutoff.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .forms import (FormContext, ProbeFamily, ScaledFamily, chunked_dot,
                    ladder_series)
from .rates import (NonFiniteSeriesError, _finite, fit_trend, geometric_ladder,
                    increments_shrink, ladder_probe)
from .topologies import BoundedSet, TruncatedOperator

MIN_NODES = 32
DEFAULT_SIMPSON_NODES = 4097
DEFAULT_HERMITE_NODES = 128
MEMBERSHIP_LADDER = (1025, 2049, 4097, 8193, 16385)
# ls_membership's cross-check weight x^(-alpha) has alpha = 1/p - this.
ALPHA_MARGIN = 0.02
# The most values GridFunction.stack_ladder stacks; a larger ladder is
# evaluated one function at a time.  Timed on a 2-core Xeon (numpy 2.4),
# stacking took 0.75-0.8 of the per-member time for closure ladders of 14
# functions on 513 nodes (7,182 values) and less on 257 nodes; at
# 14 x 1025 (14,350) it was even or slower, and from 14 x 1537 (21,518)
# on 1.2-1.5 times the per-member time.
STACK_VALUES = 2 ** 13


class GridMismatchError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Grid:
    """Quadrature nodes and weights for one of the two supported schemes.

    The grids of simpson_grid and gauss_hermite_grid are shared by every
    caller asking for the same node count, so their arrays are read-only.
    """

    kind: str  # "simpson" on [0,1] or "gauss-hermite" on R
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @functools.cached_property
    def cell(self) -> float:
        """Spacing proxy: the minimal node gap."""
        return float(np.min(np.diff(self.nodes)))

    @functools.cached_property
    def offset_nodes(self) -> np.ndarray:
        """The nodes, those within half a cell of 0 moved to half a cell,
        so that power singularities stay finite; read-only."""
        half = self.cell / 2
        x = np.where(np.abs(self.nodes) < half, half, self.nodes)
        x.flags.writeable = False
        return x


def simpson_grid(n_nodes: int = DEFAULT_SIMPSON_NODES) -> Grid:
    """Composite Simpson rule on [0,1]; n_nodes must be odd.  One shared,
    read-only grid per node count."""
    if n_nodes < MIN_NODES + 1:
        raise ValueError(f"need at least {MIN_NODES + 1} nodes, got {n_nodes}")
    if n_nodes % 2 == 0:
        raise ValueError("composite Simpson needs an odd node count")
    return _cached_simpson(n_nodes)


def gauss_hermite_grid(n_nodes: int = DEFAULT_HERMITE_NODES) -> Grid:
    """Nodes and weights for integrals against exp(-x^2/2) dx on R.  One
    shared, read-only grid per node count."""
    if n_nodes < MIN_NODES:
        raise ValueError(f"need at least {MIN_NODES} nodes, got {n_nodes}")
    return _cached_hermite(n_nodes)


# Plain functions wrap these caches, so simpson_grid and gauss_hermite_grid
# stay function objects (an lru_cache wrapper is not one).
@functools.lru_cache(maxsize=16)
def _cached_simpson(n_nodes: int) -> Grid:
    nodes = np.linspace(0.0, 1.0, n_nodes)
    h = 1.0 / (n_nodes - 1)
    weights = np.full(n_nodes, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    return _frozen_grid("simpson", nodes, weights * (h / 3.0))


@functools.lru_cache(maxsize=4)
def _cached_hermite(n_nodes: int) -> Grid:
    t, w = np.polynomial.hermite.hermgauss(n_nodes)
    return _frozen_grid("gauss-hermite", np.sqrt(2.0) * t, np.sqrt(2.0) * w)


def _frozen_grid(kind: str, nodes: np.ndarray, weights: np.ndarray) -> Grid:
    nodes.flags.writeable = weights.flags.writeable = False
    return Grid(kind, nodes, weights)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Values of a function at the nodes of a grid: float64 for real
    values, complex128 only when the values are complex.

    Two-dimensional values are a stack, one function per row
    (`stacked`): `stack_ladder` builds the stacks that
    `forms.ladder_series` evaluates a ladder of grid functions on.
    Arithmetic broadcasts, and `lp_norm` and `omega_form` give one value
    per row; they evaluate one function as a stack of one, so a row of a
    stack and the function alone give the same bits.
    """

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        v = np.asarray(self.values)
        v = v.astype(complex if np.iscomplexobj(v) else float, copy=False)
        if v.shape[-1:] != self.grid.nodes.shape or v.ndim > 2:
            raise GridMismatchError("value vector does not match the grid")
        object.__setattr__(self, "values", v)

    @property
    def stacked(self) -> bool:
        return self.values.ndim == 2

    @classmethod
    def stack_ladder(cls, members) -> tuple | None:
        """The members, on one grid, as one stack and their consecutive
        differences as another; None when they hold more than STACK_VALUES
        values."""
        for f in members[1:]:
            members[0]._check(f)
        if len(members) * members[0].values.size > STACK_VALUES:
            return None
        values = np.stack([f.values for f in members])
        grid = members[0].grid
        return cls(values, grid), cls(values[1:], grid) - cls(values[:-1], grid)

    @classmethod
    def from_callable(cls, f: Callable, grid: Grid,
                      singular_offset: bool = False) -> "GridFunction":
        """Sample f at the nodes; with singular_offset, at grid.offset_nodes,
        so power singularities stay finite."""
        x = grid.offset_nodes if singular_offset else grid.nodes
        return cls(np.asarray(f(x)) * np.ones_like(x), grid)

    def _check(self, other: "GridFunction") -> None:
        if self.grid is not other.grid:
            raise GridMismatchError("grid functions live on different grids")

    def __sub__(self, other):
        self._check(other)
        return GridFunction(self.values - other.values, self.grid)

    def __mul__(self, other):
        if isinstance(other, GridFunction):
            self._check(other)
            return GridFunction(self.values * other.values, self.grid)
        if not np.isscalar(other):
            return NotImplemented
        return GridFunction(other * self.values, self.grid)

    __rmul__ = __mul__

    def conj(self) -> "GridFunction":
        return GridFunction(self.values.conj(), self.grid)


def lp_norm(f: GridFunction, p: float):
    """Quadrature approximation of the L^p norm (against the grid measure);
    inf, without a numpy warning, when |f|^p overflows.  A float, or an
    array with one norm per row of a stack; one function is a stack of
    one."""
    if p < 1:
        raise ValueError(f"L^p norms need p >= 1, got {p}")
    with np.errstate(over="ignore"):
        sums = chunked_dot(np.abs(np.atleast_2d(f.values)) ** p,
                           f.grid.weights)
        norms = np.array([s ** (1.0 / p) for s in sums])
    return norms if f.stacked else float(norms[0])


def omega_form(f: GridFunction, g: GridFunction,
               w: GridFunction | None = None):
    """The integral form of f against conj(g), optionally with a weight,
    a complex number (an array, one value per row, over stacks; without a
    stack, computed as a stack of one); computed without a numpy warning
    when finite functions overflow it (the value is then not finite, which
    rates._finite reports).  The sum is a complex dot even for real
    functions: a real one rounds differently."""
    f._check(g)
    if w is not None:
        f._check(w)
    with np.errstate(over="ignore", invalid="ignore"):
        integrand = f.values * g.values.conj()
        if w is not None:
            integrand = integrand * w.values
        stacked = integrand.ndim == 2
        integrand = np.atleast_2d(integrand).astype(complex, copy=False)
        forms = chunked_dot(f.grid.weights, integrand)
    return forms if stacked else complex(forms[0])


# ---------------------------------------------------------------------------
# Classification of the integral form

def boundedness_classifier(p: float, r: float | None = None) -> dict:
    """Bounded versus closable-unbounded for the integral form on L^p.

    Unweighted, the form is bounded exactly when p >= 2.  With a weight in
    L^r the rule applies to the effective exponent s with
    1/s = 1/p + 1/(2r).  Returns the keys tag ("bounded" or
    "closable-unbounded") and effective_exponent (s).
    """
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    if r is None:
        s = float(p)
    else:
        if r < 1:
            raise ValueError(f"need r >= 1, got {r}")
        s = 1.0 / (1.0 / p + 1.0 / (2.0 * r))
    tag = "bounded" if s >= 2 else "closable-unbounded"
    return {"tag": tag, "effective_exponent": s}


# ---------------------------------------------------------------------------
# Test families

def tent_values(x: np.ndarray, n: int, height: float):
    """Piecewise-linear bump of the given height around 1/2 with support
    width 1/n."""
    return height * np.maximum(0.0, 1.0 - 2.0 * n * np.abs(x - 0.5))


def _tent_power(n: int, exponent: float, series: str) -> float:
    """n ** exponent; NonFiniteSeriesError naming the series and n when it
    overflows a float."""
    try:
        return float(n) ** exponent
    except OverflowError:
        raise NonFiniteSeriesError(
            f"series {series!r} is inf at n={n} "
            f"(n**{exponent:g} overflows)") from None


def tent_function(grid: Grid, n: int, height_exp: float) -> GridFunction:
    h = _tent_power(n, height_exp, "tent height")
    return GridFunction(tent_values(grid.nodes, n, h), grid)


def tent_lp_norm(n: int, height_exp: float, p: float) -> float:
    """Closed form: height n^a, width 1/n gives n^(a - 1/p) / (p+1)^(1/p)."""
    return (_tent_power(n, height_exp - 1.0 / p, "tent lp_norm")
            * (p + 1.0) ** (-1.0 / p))


def power_function(grid: Grid, beta: float) -> GridFunction:
    """x^(-beta) on [0,1], evaluated with the half-cell offset at 0."""
    return GridFunction.from_callable(lambda x: x ** (-beta), grid,
                                      singular_offset=True)


def power_builder(beta: float) -> Callable[[Grid], GridFunction]:
    return lambda grid: power_function(grid, beta)


def tent_family(grid: Grid, height_exp: float, p: float) -> ProbeFamily:
    """Tent probe family with its closed-form L^p norms as tau-norms."""
    return ProbeFamily(
        name=f"tent[h=n^{height_exp:g}]",
        generate=lambda n: tent_function(grid, n, height_exp),
        tau_norm=lambda n: tent_lp_norm(n, height_exp, p))


def scaled_one_family(grid: Grid) -> ScaledFamily:
    one = GridFunction.from_callable(lambda x: np.ones_like(x), grid)
    return ScaledFamily(name="one/n", base=one, scale=lambda n: 1.0 / n)


def lp_form_context(p: float, grid: Grid,
                    weight: GridFunction | None = None) -> FormContext:
    """Integral form on continuous functions inside L^p([0,1])."""
    label = f"L^{p:g}" + ("" if weight is None else "[weighted]")
    return FormContext(
        name=label,
        form=lambda f, g: omega_form(f, g, weight),
        ambient_norm=lambda f: lp_norm(f, p),
        star=lambda f: f.conj(),
        mul=lambda f, g: f * g,
        unit=GridFunction.from_callable(lambda x: np.ones_like(x), grid))


# ---------------------------------------------------------------------------
# Unboundedness witness

def unboundedness_witness(p: float, n_max: int = 256,
                          grid: Grid | None = None) -> dict:
    """Growth of form(f, f) / |f|_p^2 on the tent family.

    The observed exponent approaches 2/p - 1: positive growth witnesses an
    unbounded form for p < 2, a flat ratio is the bounded control.  An
    L^p norm that overflows raises NonFiniteSeriesError ("lp_norm").
    Returns the keys p, exponent and table, the (header, rows) of the
    series.
    """
    ns, tents, diags = _witness_tents(grid or simpson_grid(), n_max)
    norms = _finite(ns, [lp_norm(f, p) for f in tents],
                    ["lp_norm"])[:, 0].tolist()
    ratios = [diag / norm ** 2 for diag, norm in zip(diags, norms)]
    fit = fit_trend(ns, ratios)
    return {"p": p, "exponent": fit.slope,
            "table": (["n", "lp_norm", "omega_diag", "ratio"],
                      [[int(n), float(a), float(b), float(c)] for n, a, b, c
                       in zip(ns, norms, diags, ratios)])}


@functools.lru_cache(maxsize=4)
def _witness_tents(grid: Grid, n_max: int) -> tuple:
    """The witness ladder, its read-only tents and their form diagonals;
    they do not depend on p, so every p shares one build."""
    ns = geometric_ladder(n_max, points=12, n_min=4)
    tents = tuple(tent_function(grid, int(n), 0.5) for n in ns)
    for f in tents:
        f.values.flags.writeable = False
    return ns, tents, tuple(float(np.real(omega_form(f, f))) for f in tents)


# ---------------------------------------------------------------------------
# Membership verdicts by refinement stability

def _ladder_samples(builder: Callable[[Grid], GridFunction]) -> list:
    """The function built on each grid of the doubling MEMBERSHIP_LADDER."""
    return [builder(simpson_grid(n)) for n in MEMBERSHIP_LADDER]


def _refinement_verdict(samples: list, q: float) -> tuple[bool, float]:
    """Track the quadrature sum of |f|^q over the ladder samples:
    (member, growth_ratio).

    Shrinking increments (growth ratio < 1) mean the integral converges;
    steady or growing increments mean divergence under refinement.
    """
    sums = [float(chunked_dot(f.grid.weights, np.abs(f.values) ** q))
            for f in samples]
    return increments_shrink(MEMBERSHIP_LADDER, sums, f"L^{q:g} sums")


def a_omega_membership(builder: Callable[[Grid], GridFunction],
                       p: float) -> tuple[bool, float]:
    """Membership of the closed-form domain for the unweighted integral
    form: a refinement-stable L^2 norm, as (member, growth_ratio).  The
    verdict does not depend on p (which only has to be in the closable
    range)."""
    if not 1 <= p < 2:
        raise ValueError(f"the unbounded regime needs 1 <= p < 2, got {p}")
    return _refinement_verdict(_ladder_samples(builder), 2.0)


def ls_membership(builder: Callable[[Grid], GridFunction], p: float) -> dict:
    """Membership of L^s, s = 2p/(p-2): refinement-stable L^s norm,
    cross-validated by multiplying against the worst-case power x^(-alpha)
    with alpha just under 1/p and testing the product in L^2.

    Returns the keys member, s, growth_ratio (of the L^s sums),
    cross_member (the product's L^2 verdict) and agrees (the two verdicts
    are equal).
    """
    if p <= 2:
        raise ValueError(f"need p > 2, got {p}")
    s = 2.0 * p / (p - 2.0)
    samples = _ladder_samples(builder)
    member, growth_ratio = _refinement_verdict(samples, s)
    cross_member, _ = _refinement_verdict(
        [f * w for f, w in zip(samples, _cross_powers(1.0 / p - ALPHA_MARGIN))],
        2.0)
    return {"member": member, "s": s, "growth_ratio": growth_ratio,
            "cross_member": cross_member, "agrees": member == cross_member}


@functools.lru_cache(maxsize=4)
def _cross_powers(alpha: float) -> tuple:
    """ls_membership's cross-check weight x^(-alpha) on each grid of the
    MEMBERSHIP_LADDER, built once per alpha; read-only."""
    powers = _ladder_samples(lambda grid: power_function(grid, alpha))
    for w in powers:
        w.values.flags.writeable = False
    return tuple(powers)


# ---------------------------------------------------------------------------
# Polynomial algebra on the Gaussian-weighted line

SANDWICH_DECAY_ORDERS = (1, 2, 3, 4)


def _poly_values(coeffs, grid: Grid) -> np.ndarray:
    return np.polynomial.polynomial.polyval(grid.nodes, np.asarray(coeffs))


def _sandwich_sups(magnitudes: np.ndarray, grid: Grid) -> list:
    """The sandwich seminorms of a polynomial p, given |p| at the nodes:
    the norms of the multiplication operators by (1+x^2)^(-j) p
    (1+x^2)^(-j) on the grid, max |p| / (1+x^2)^(2j), for each j in
    SANDWICH_DECAY_ORDERS."""
    return [float(np.max(magnitudes / decay))
            for decay in _sandwich_decays(grid)]


@functools.lru_cache(maxsize=4)
def _sandwich_decays(grid: Grid) -> tuple:
    x = grid.nodes
    return tuple((1.0 + x ** 2) ** (2 * j) for j in SANDWICH_DECAY_ORDERS)


def make_gaussian_families(grid: Grid) -> dict:
    """Built-in polynomial families for the Gaussian-measure probe."""
    hermite_e = np.polynomial.hermite_e

    def scaled_linear(n: int):
        return np.array([0.0, 1.0 / n])

    def hermite_tail(n: int):
        degree = min(4 + n, grid.n_nodes // 2)
        coeffs = hermite_e.herme2poly([0.0] * degree + [1.0])
        scale = max(_sandwich_sups(np.abs(_poly_values(coeffs, grid)), grid))
        return coeffs / (n * (1.0 + scale))

    def constant_one(n: int):
        return np.array([1.0])

    return {"scaled_linear": scaled_linear,
            "hermite_tail": hermite_tail,
            "constant_one": constant_one}


def gaussian_poly_probe(families: dict, n_max: int = 24,
                        grid: Grid | None = None) -> list:
    """Closure probe for the polynomial algebra under the Gaussian state.

    Families with L^1-null members must have sandwich seminorms that, when
    convergent, converge to 0; anything else is a counterexample.  A family
    that is not L^1-null (probe.null false) is inapplicable.  A step is the
    seminorm of the difference of two consecutive members.  Each member
    and each difference is evaluated on the grid once, and that one
    evaluation gives its L^1 norm and all its sandwich seminorms.
    """
    grid = grid or gauss_hermite_grid()
    ns = geometric_ladder(n_max, points=10)

    def l1_and_sandwiches(p: np.polynomial.Polynomial) -> list:
        magnitudes = np.abs(_poly_values(p.coef, grid))
        return [float(np.dot(grid.weights, magnitudes)),
                *_sandwich_sups(magnitudes, grid)]

    view = [(None, l1_and_sandwiches, 1)]
    verdicts = []
    for name, gen in families.items():
        def member(n: int) -> np.polynomial.Polynomial:
            # a Polynomial, so that members of different degree subtract
            p = np.polynomial.Polynomial(np.asarray(gen(n), dtype=float))
            if p.degree() > grid.n_nodes // 2:
                raise ValueError(f"family {name}: degree {p.degree()} exceeds "
                                 f"grid resolution {grid.n_nodes // 2}")
            return p

        # column 0 is the L^1 norm, the ambient series (its steps unused)
        _, (values,), (steps,), _ = ladder_series(
            ProbeFamily(name, member), ns, None, view)
        verdicts.append(ladder_probe(
            name, ns, values[:, 0], values[:, 1:], steps[:, 1:],
            names=[f"{name} sandwich j={j}" for j in SANDWICH_DECAY_ORDERS]))
    return verdicts


# ---------------------------------------------------------------------------
# Bridges to the operator layer

def embed_vector(f: GridFunction) -> np.ndarray:
    """Coordinates of a grid function in the orthonormal frame of the
    quadrature inner product."""
    return np.sqrt(f.grid.weights) * f.values


def mult_operator(f: GridFunction) -> TruncatedOperator:
    """Multiplication by f; diagonal in the orthonormal grid frame."""
    return TruncatedOperator(diag=f.values)


def node_spike_set(grid: Grid) -> BoundedSet:
    """All Hilbert-normalized node spikes: the bounded set that witnesses
    the sup norm of multiplication operators on the grid.  They are the
    canonical basis of the grid frame, declared as such, so no n x n
    identity is built."""
    return BoundedSet.basis(grid.n_nodes, "node-spikes")


def smooth_ball_set(grid: Grid, p: float, count: int = 6,
                    seed: int = 0) -> BoundedSet:
    """Random trigonometric samples normalized to the unit L^p sphere and
    embedded in grid coordinates."""
    rng = np.random.default_rng(seed)
    x = grid.nodes
    cos2, sin2, cos4 = (np.cos(2 * np.pi * x), np.sin(2 * np.pi * x),
                        np.cos(4 * np.pi * x))
    vecs = []
    for _ in range(count):
        a = rng.standard_normal(4)
        vals = a[0] + a[1] * cos2 + a[2] * sin2 + a[3] * cos4
        f = GridFunction(vals, grid)
        vecs.append(embed_vector((1.0 / lp_norm(f, p)) * f))
    return BoundedSet(tuple(vecs), name=f"L{p:g}-ball")
