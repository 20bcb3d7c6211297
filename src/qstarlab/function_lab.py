"""Abelian example suites on quadrature grids.

Continuous functions on [0,1] inside L^p, probed on a composite-Simpson
grid, and the polynomial algebra on the Gaussian-weighted line, probed on
a Gauss-Hermite grid.  Power singularities are evaluated on nodes offset
from 0 by half a cell, and L^q-membership verdicts come from the growth of
quadrature sums under grid doubling rather than from any fixed cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .forms import FormContext, ProbeFamily
from .rates import (NonFiniteSeriesError, _finite, fit_trend, geometric_ladder,
                    increments_shrink, ladder_probe)
from .topologies import BoundedSet, TruncatedOperator

MIN_NODES = 32
DEFAULT_SIMPSON_NODES = 4097
DEFAULT_HERMITE_NODES = 128
MEMBERSHIP_LADDER = (1025, 2049, 4097, 8193, 16385)
# ls_membership's cross-check weight x^(-alpha) has alpha = 1/p - this.
ALPHA_MARGIN = 0.02


class GridMismatchError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Grid:
    """Quadrature nodes and weights for one of the two supported schemes."""

    kind: str  # "simpson" on [0,1] or "gauss-hermite" on R
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def cell(self) -> float:
        """Spacing proxy: the minimal node gap."""
        return float(np.min(np.diff(self.nodes)))


def simpson_grid(n_nodes: int = DEFAULT_SIMPSON_NODES) -> Grid:
    """Composite Simpson rule on [0,1]; n_nodes must be odd."""
    if n_nodes < MIN_NODES + 1:
        raise ValueError(f"need at least {MIN_NODES + 1} nodes, got {n_nodes}")
    if n_nodes % 2 == 0:
        raise ValueError("composite Simpson needs an odd node count")
    nodes = np.linspace(0.0, 1.0, n_nodes)
    h = 1.0 / (n_nodes - 1)
    weights = np.full(n_nodes, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    return Grid("simpson", nodes, weights * (h / 3.0))


def gauss_hermite_grid(n_nodes: int = DEFAULT_HERMITE_NODES) -> Grid:
    """Nodes and weights for integrals against exp(-x^2/2) dx on R."""
    if n_nodes < MIN_NODES:
        raise ValueError(f"need at least {MIN_NODES} nodes, got {n_nodes}")
    t, w = np.polynomial.hermite.hermgauss(n_nodes)
    return Grid("gauss-hermite", np.sqrt(2.0) * t, np.sqrt(2.0) * w)


@dataclass(frozen=True, eq=False)
class GridFunction:
    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != self.grid.nodes.shape:
            raise GridMismatchError("value vector does not match the grid")
        object.__setattr__(self, "values", v)

    @classmethod
    def from_callable(cls, f: Callable, grid: Grid,
                      singular_offset: bool = False) -> "GridFunction":
        """Sample f at the nodes; with singular_offset, the node at 0 is
        evaluated half a cell in, so power singularities stay finite."""
        x = grid.nodes
        if singular_offset:
            x = np.where(np.abs(x) < grid.cell / 2, grid.cell / 2, x)
        return cls(np.asarray(f(x), dtype=complex) * np.ones_like(x), grid)

    def _check(self, other: "GridFunction") -> None:
        if self.grid is not other.grid:
            raise GridMismatchError("grid functions live on different grids")

    def __add__(self, other):
        self._check(other)
        return GridFunction(self.values + other.values, self.grid)

    def __sub__(self, other):
        self._check(other)
        return GridFunction(self.values - other.values, self.grid)

    def __mul__(self, other):
        if isinstance(other, GridFunction):
            self._check(other)
            return GridFunction(self.values * other.values, self.grid)
        return GridFunction(complex(other) * self.values, self.grid)

    __rmul__ = __mul__

    def conj(self) -> "GridFunction":
        return GridFunction(self.values.conj(), self.grid)


def lp_norm(f: GridFunction, p: float) -> float:
    """Quadrature approximation of the L^p norm (against the grid measure);
    inf, without a numpy warning, when |f|^p overflows."""
    if p < 1:
        raise ValueError(f"L^p norms need p >= 1, got {p}")
    with np.errstate(over="ignore"):
        return float(np.dot(f.grid.weights, np.abs(f.values) ** p) ** (1.0 / p))


def omega_form(f: GridFunction, g: GridFunction,
               w: GridFunction | None = None) -> complex:
    """The integral form of f against conj(g), optionally with a weight."""
    f._check(g)
    integrand = f.values * g.values.conj()
    if w is not None:
        f._check(w)
        integrand = integrand * w.values
    return complex(np.dot(f.grid.weights, integrand))


# ---------------------------------------------------------------------------
# Classification of the integral form

@dataclass(frozen=True)
class FormClass:
    tag: str  # "bounded" or "closable-unbounded"
    effective_exponent: float


def boundedness_classifier(p: float, r: float | None = None) -> FormClass:
    """Bounded versus closable-unbounded for the integral form on L^p.

    Unweighted, the form is bounded exactly when p >= 2.  With a weight in
    L^r the rule applies to the effective exponent s with
    1/s = 1/p + 1/(2r).
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
    return FormClass(tag=tag, effective_exponent=s)


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


def scaled_one_family(grid: Grid) -> ProbeFamily:
    one = GridFunction.from_callable(lambda x: np.ones_like(x), grid)
    return ProbeFamily(name="one/n", generate=lambda n: (1.0 / n) * one)


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

@dataclass(frozen=True)
class WitnessReport:
    p: float
    exponent: float
    rows: list  # (n, lp_norm, omega_diag, ratio)

    def table(self):
        return ["n", "lp_norm", "omega_diag", "ratio"], \
            [[int(n), float(a), float(b), float(c)] for n, a, b, c in self.rows]


def unboundedness_witness(p: float, n_max: int = 256,
                          grid: Grid | None = None) -> WitnessReport:
    """Growth of form(f, f) / |f|_p^2 on the tent family.

    The observed exponent approaches 2/p - 1: positive growth witnesses an
    unbounded form for p < 2, a flat ratio is the bounded control.  An
    L^p norm that overflows raises NonFiniteSeriesError ("lp_norm").
    """
    grid = grid or simpson_grid()
    ns = geometric_ladder(n_max, points=12, n_min=4)
    tents = [tent_function(grid, int(n), 0.5) for n in ns]
    norms = _finite(ns, [lp_norm(f, p) for f in tents],
                    ["lp_norm"])[:, 0].tolist()
    diags = [float(np.real(omega_form(f, f))) for f in tents]
    ratios = [diag / norm ** 2 for diag, norm in zip(diags, norms)]
    fit = fit_trend(ns, ratios)
    return WitnessReport(p=p, exponent=fit.slope,
                         rows=list(zip(ns.tolist(), norms, diags, ratios)))


# ---------------------------------------------------------------------------
# Membership verdicts by refinement stability

@dataclass(frozen=True)
class MembershipVerdict:
    member: bool
    growth_ratio: float


def _refinement_verdict(builder: Callable[[Grid], GridFunction],
                        q: float) -> MembershipVerdict:
    """Track the quadrature sum of |f|^q over the doubling MEMBERSHIP_LADDER.

    Shrinking increments (growth ratio < 1) mean the integral converges;
    steady or growing increments mean divergence under refinement.
    """
    sums = [float(np.dot(grid.weights, np.abs(builder(grid).values) ** q))
            for grid in map(simpson_grid, MEMBERSHIP_LADDER)]
    return MembershipVerdict(*increments_shrink(MEMBERSHIP_LADDER, sums,
                                                f"L^{q:g} sums"))


def a_omega_membership(builder: Callable[[Grid], GridFunction],
                       p: float) -> MembershipVerdict:
    """Membership of the closed-form domain for the unweighted integral
    form: a refinement-stable L^2 norm.  The verdict does not depend on p
    (which only has to be in the closable range)."""
    if not 1 <= p < 2:
        raise ValueError(f"the unbounded regime needs 1 <= p < 2, got {p}")
    return _refinement_verdict(builder, 2.0)


@dataclass(frozen=True)
class LsMembershipVerdict:
    member: bool
    s: float
    growth_ratio: float
    cross_member: bool
    agrees: bool


def ls_membership(builder: Callable[[Grid], GridFunction],
                  p: float) -> LsMembershipVerdict:
    """Membership of L^s, s = 2p/(p-2): refinement-stable L^s norm,
    cross-validated by multiplying against the worst-case power x^(-alpha)
    with alpha just under 1/p and testing the product in L^2."""
    if p <= 2:
        raise ValueError(f"need p > 2, got {p}")
    s = 2.0 * p / (p - 2.0)
    direct = _refinement_verdict(builder, s)
    alpha = 1.0 / p - ALPHA_MARGIN

    def product_builder(grid: Grid) -> GridFunction:
        return builder(grid) * power_function(grid, alpha)

    cross = _refinement_verdict(product_builder, 2.0)
    return LsMembershipVerdict(member=direct.member, s=s,
                               growth_ratio=direct.growth_ratio,
                               cross_member=cross.member,
                               agrees=direct.member == cross.member)


# ---------------------------------------------------------------------------
# Polynomial algebra on the Gaussian-weighted line

SANDWICH_DECAY_ORDERS = (1, 2, 3, 4)


def sandwich_seminorm(coeffs, grid: Grid, j: int) -> float:
    """Norm of the multiplication operator by (1+x^2)^(-j) p (1+x^2)^(-j)
    on the grid: the weighted sup of the sandwiched polynomial."""
    x = grid.nodes
    p_vals = np.polynomial.polynomial.polyval(x, np.asarray(coeffs))
    return float(np.max(np.abs(p_vals) / (1.0 + x ** 2) ** (2 * j)))


def gaussian_l1_norm(coeffs, grid: Grid) -> float:
    x = grid.nodes
    return float(np.dot(grid.weights,
                        np.abs(np.polynomial.polynomial.polyval(x, np.asarray(coeffs)))))


def make_gaussian_families(grid: Grid) -> dict:
    """Built-in polynomial families for the Gaussian-measure probe."""
    hermite_e = np.polynomial.hermite_e

    def scaled_linear(n: int):
        return np.array([0.0, 1.0 / n])

    def hermite_tail(n: int):
        degree = min(4 + n, grid.n_nodes // 2)
        coeffs = hermite_e.herme2poly([0.0] * degree + [1.0])
        scale = max(sandwich_seminorm(coeffs, grid, j)
                    for j in SANDWICH_DECAY_ORDERS)
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
    that is not L^1-null (probe.null false) is inapplicable.
    """
    grid = grid or gauss_hermite_grid()
    ns = geometric_ladder(n_max, points=10)
    verdicts = []
    for name, gen in families.items():
        coeff_seq = [np.asarray(gen(int(n)), dtype=float) for n in ns]
        degree = max(len(c) for c in coeff_seq) - 1
        if degree > grid.n_nodes // 2:
            raise ValueError(f"family {name}: degree {degree} exceeds grid "
                             f"resolution {grid.n_nodes // 2}")
        l1 = np.array([gaussian_l1_norm(c, grid) for c in coeff_seq])
        vals = np.array([[sandwich_seminorm(c, grid, j)
                          for j in SANDWICH_DECAY_ORDERS] for c in coeff_seq])
        verdicts.append(ladder_probe(
            name, ns, l1, vals, np.abs(np.diff(vals, axis=0)),
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
    the sup norm of multiplication operators on the grid."""
    return BoundedSet(tuple(np.eye(grid.n_nodes, dtype=complex)),
                      name="node-spikes")


def smooth_ball_set(grid: Grid, p: float, count: int = 6,
                    seed: int = 0) -> BoundedSet:
    """Random trigonometric samples normalized to the unit L^p sphere and
    embedded in grid coordinates."""
    rng = np.random.default_rng(seed)
    vecs = []
    for _ in range(count):
        a = rng.standard_normal(4)
        vals = (a[0] + a[1] * np.cos(2 * np.pi * grid.nodes)
                + a[2] * np.sin(2 * np.pi * grid.nodes)
                + a[3] * np.cos(4 * np.pi * grid.nodes))
        f = GridFunction(vals.astype(complex), grid)
        vecs.append(embed_vector((1.0 / lp_norm(f, p)) * f))
    return BoundedSet(tuple(vecs), name=f"L{p:g}-ball")
