"""Positive sesquilinear forms and numerical closability probes.

A form context bundles a sesquilinear form, the ambient norm modelling the
topology of the surrounding space, and the involution/multiplication of its
element domain.  Closability is probed in the falsificationist sense: a
family indexed by a geometric ladder is checked for ambient-null, for the
form-Cauchy property, and for the limit of its diagonal values; a nonzero
limit on an ambient-null, form-Cauchy family is a counterexample.  Probes
never certify closability, only the absence of counterexamples over the
registered families.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .algebra import StarAlgebra, State
from .rates import LadderProbe, geometric_ladder, ladder_probe

# check_ips_conditions treats x as degenerate when form(x, x) is at most
# this fraction of the largest diagonal value (or of 1).
DEGENERATE_TOL = 1e-10
# Geometric-ladder points of a closability probe.
PROBE_POINTS = 24


@dataclass(frozen=True)
class FormContext:
    """A sesquilinear form with the operations its probes need.

    form(a, b) is sesquilinear: linear in a and antilinear in b, so
    diag(c a) = |c|^2 diag(a).  ambient_norm models the topology of the
    ambient space and is absolutely homogeneous: ambient_norm(c a) =
    |c| ambient_norm(a).  The probes of a ScaledFamily rely on both.  star
    and mul act on domain elements and may be None when the domain does
    not support them.
    """

    name: str
    form: Callable[[Any, Any], complex]
    ambient_norm: Callable[[Any], float]
    star: Callable[[Any], Any] | None = None
    mul: Callable[[Any, Any], Any] | None = None
    unit: Any | None = None

    def diag(self, a) -> float:
        return float(np.real(self.form(a, a)))


@dataclass(frozen=True)
class ProbeFamily:
    """Sequence n -> element used as a net stand-in.

    tau_norm optionally supplies a closed-form ambient norm (useful when
    the discretized norm of a family member is less accurate than its
    analytic value).
    """

    name: str
    generate: Callable[[int], Any]
    tau_norm: Callable[[int], float] | None = None


@dataclass(frozen=True)
class ScaledFamily:
    """Sequence n -> scale(n) * base: one fixed element times scalars.

    Its probes evaluate base once and scale the results in closed form,
    with c_n = scale(n): the ambient norms are |c_n| ambient_norm(base),
    the diagonals |c_n|^2 diag(base) and the steps
    |c_{n+1} - c_n|^2 diag(base).
    """

    name: str
    base: Any
    scale: Callable[[int], complex]

    def generate(self, n: int):
        return self.scale(n) * self.base


def form_from_state(algebra: StarAlgebra, state: State) -> FormContext:
    """The positive form omega(b* a) on coefficient vectors.

    Uses the Gram matrix, so construction fails for non-positive states.
    """
    gram = state.check_positive(algebra)
    s_matrix = algebra.involution
    structure = algebra.structure

    def form(a, b):
        return complex(np.asarray(b).conj() @ gram @ np.asarray(a))

    def star_fn(a):
        return s_matrix.T @ np.asarray(a).conj()

    def mul_fn(a, b):
        return np.einsum("i,j,ijk->k", np.asarray(a), np.asarray(b), structure)

    unit = algebra.unit if algebra.has_unit else None
    return FormContext(name=f"state-form({algebra.name},{state.name})",
                       form=form,
                       ambient_norm=lambda a: float(np.linalg.norm(a)),
                       star=star_fn, mul=mul_fn, unit=unit)


def star_form(ctx: FormContext) -> FormContext:
    """The companion form (a, b) -> form(b*, a*)."""
    if ctx.star is None:
        raise ValueError(f"context {ctx.name} has no involution")
    return FormContext(name=ctx.name + "*",
                       form=lambda a, b: ctx.form(ctx.star(b), ctx.star(a)),
                       ambient_norm=ctx.ambient_norm,
                       star=ctx.star, mul=ctx.mul, unit=ctx.unit)


def b_shifted_form(ctx: FormContext, b) -> FormContext:
    """The right-shifted form (x, y) -> form(x b, y b)."""
    if ctx.mul is None:
        raise ValueError(f"context {ctx.name} has no multiplication")
    return FormContext(name=ctx.name + "[B-shift]",
                       form=lambda x, y: ctx.form(ctx.mul(x, b), ctx.mul(y, b)),
                       ambient_norm=ctx.ambient_norm,
                       star=ctx.star, mul=ctx.mul, unit=ctx.unit)


def hermiticity_residual(ctx: FormContext, pairs) -> float:
    return max(abs(ctx.form(a, b) - np.conj(ctx.form(b, a))) for a, b in pairs)


def cauchy_schwarz_residual(ctx: FormContext, pairs) -> float:
    """max over pairs of |Omega(x,y)|^2 - Omega(x,x) Omega(y,y), clipped at 0."""
    worst = 0.0
    for a, b in pairs:
        lhs = abs(ctx.form(a, b)) ** 2
        rhs = ctx.diag(a) * ctx.diag(b)
        worst = max(worst, lhs - rhs)
    return worst


def closability_probe(ctx: FormContext, family: ProbeFamily | ScaledFamily,
                      n_max: int, *, points: int = PROBE_POINTS) -> LadderProbe:
    """Probe one family for a closability counterexample.

    Elements are evaluated on a geometric ladder so that the step distances
    compare members at a fixed index ratio; consecutive-index distances can
    vanish on families whose dyadic separations stay bounded below.  The
    value series is the form diagonal ("omega"), its steps the form
    distances between successive members.
    """
    return _ladder_probes([ctx], family, n_max, points)[0]


def _ladder_probes(ctxs, family, n_max: int, points: int) -> list:
    """closability_probe of one family under each form of ctxs, which
    share the first one's ambient norm: each member (a ScaledFamily's base
    alone) and its ambient norm are evaluated once, and each form
    evaluates only its diagonal on it."""
    ns = geometric_ladder(n_max, points=points)
    if isinstance(family, ScaledFamily):
        c = np.array([family.scale(int(n)) for n in ns])
        size, gap = np.abs(c), np.abs(np.diff(c)) ** 2
        tau = size * ctxs[0].ambient_norm(family.base)
        diags = [ctx.diag(family.base) for ctx in ctxs]
        series = [(size ** 2 * d, gap * max(d, 0.0)) for d in diags]
    else:
        tau, previous = [], None
        values = [[] for _ in ctxs]
        steps = [[] for _ in ctxs]
        for n in ns:
            # One member at a time: a member can be a full N x N block, so
            # only it and its predecessor are held.
            x = family.generate(int(n))
            tau.append(family.tau_norm(int(n)) if family.tau_norm is not None
                       else ctxs[0].ambient_norm(x))
            for column, ctx in zip(values, ctxs):
                column.append(ctx.diag(x))
            if previous is not None:
                difference = x - previous
                for column, ctx in zip(steps, ctxs):
                    column.append(max(ctx.diag(difference), 0.0))
            previous = x
        series = zip(values, steps)
    return [ladder_probe(family.name, ns, tau, column, step_column,
                         names=("omega",))
            for column, step_column in series]


@dataclass(frozen=True)
class Lemma24Report:
    """Agreement of counterexample verdicts for a form, its star companion
    and its right-shifted companions over a probe-family suite."""

    rows: list
    agree: bool
    counterexamples: list
    unit_in_suite: bool
    notes: str = ""


def check_lemma24(ctx: FormContext, families, shifts,
                  n_max: int) -> Lemma24Report:
    """Run every family against the form, its star form and each shift.

    shifts is a list of (label, element) pairs; pass the unit among them
    when the domain has one.  Disagreement between the three verdict
    columns is reported; with a closable base form every column should be
    counterexample-free.
    """
    columns = {"omega": ctx, "omega_star": star_form(ctx)}
    for label, b in shifts:
        columns[f"omega_B[{label}]"] = b_shifted_form(ctx, b)
    rows = []
    counterexamples = []
    for fam in families:
        verdicts = dict(zip(columns, _ladder_probes(
            list(columns.values()), fam, n_max, PROBE_POINTS)))
        flags = {key: v.counterexample for key, v in verdicts.items()}
        rows.append({"family": fam.name, "flags": flags, "verdicts": verdicts})
        counterexamples.extend(f"{fam.name}:{key}"
                               for key, hit in flags.items() if hit)
    agree = all(len(set(row["flags"].values())) == 1 for row in rows)
    unit_in_suite = ctx.unit is not None and any(
        _is_unit_shift(ctx, b) for _, b in shifts)
    notes = "" if ctx.unit is not None else \
        "domain has no unit; unit shift omitted from the suite"
    return Lemma24Report(rows=rows, agree=agree,
                         counterexamples=counterexamples,
                         unit_in_suite=unit_in_suite, notes=notes)


def _is_unit_shift(ctx: FormContext, b) -> bool:
    try:
        return bool(np.allclose(np.asarray(b), np.asarray(ctx.unit)))
    except Exception:
        return b is ctx.unit


@dataclass(frozen=True)
class IPSReport:
    """Residuals of the invariance and degeneracy conditions of the closed
    form on its extension domain; the two structural conditions hold by
    construction of the domain product and are recorded as such."""

    invariance_residual: float
    degeneracy_residual: float
    pairs_checked: int
    # a class constant, not a constructor field: both always hold
    structural = ("by-construction", "by-construction")


def check_ips_conditions(ctx: FormContext, xs, bs) -> IPSReport:
    """Check form(x b1, b2) = form(b1, x* b2) and the degeneracy implication.

    xs are extension-domain elements (limits of domain sequences are fine,
    any element the form accepts); bs are elements of the dense *-algebra.
    """
    if ctx.mul is None or ctx.star is None:
        raise ValueError("context must supply multiplication and involution")
    inv = 0.0
    count = 0
    for x in xs:
        for b1 in bs:
            for b2 in bs:
                lhs = ctx.form(ctx.mul(x, b1), b2)
                rhs = ctx.form(b1, ctx.mul(ctx.star(x), b2))
                inv = max(inv, abs(lhs - rhs))
                count += 1
    scale = max((abs(ctx.diag(x)) for x in xs), default=1.0)
    deg = 0.0
    for x in xs:
        if abs(ctx.diag(x)) <= DEGENERATE_TOL * max(scale, 1.0):
            for y in list(xs) + list(bs):
                deg = max(deg, abs(ctx.form(x, y)))
    return IPSReport(invariance_residual=inv, degeneracy_residual=deg,
                     pairs_checked=count)
