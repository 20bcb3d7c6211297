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
from functools import partial
from typing import Any, Callable

import numpy as np

from .algebra import StarAlgebra, State, multiply, star
from .rates import (LadderProbe, _judge_ambient, _judged_probe,
                    geometric_ladder, ladder_probe)

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

    ladder_series hands a ladder whose members stack (grid functions,
    GridFunction.stack_ladder) to ambient_norm and diag as one stack
    (a.stacked), so form and ambient_norm give one value per row of a
    stack; a single grid function is a stack of one.  diagonal, when
    given, is a -> Re form(a, a) on one element or on a stack; a derived
    form sets it to build its image once.
    """

    name: str
    form: Callable[[Any, Any], complex]
    ambient_norm: Callable[[Any], float]
    star: Callable[[Any], Any] | None = None
    mul: Callable[[Any, Any], Any] | None = None
    unit: Any | None = None
    diagonal: Callable[[Any], Any] | None = None

    def diag(self, a):
        if self.diagonal is not None:
            return self.diagonal(a)
        d = np.real(self.form(a, a))
        return float(d) if np.ndim(d) == 0 else d


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

    ladder_series evaluates base once and scales the results in closed
    form, under every evaluator by the power of |scale(n)| its degree
    declares.
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

    def form(a, b):
        return complex(np.asarray(b).conj() @ gram @ np.asarray(a))

    return FormContext(name=f"state-form({algebra.name},{state.name})",
                       form=form,
                       ambient_norm=lambda a: float(np.linalg.norm(a)),
                       star=partial(star, algebra),
                       mul=partial(multiply, algebra), unit=algebra.unit)


def star_form(ctx: FormContext) -> FormContext:
    """The companion form (a, b) -> form(b*, a*); its diagonal takes a* once."""
    if ctx.star is None:
        raise ValueError(f"context {ctx.name} has no involution")
    return FormContext(name=ctx.name + "*",
                       form=lambda a, b: ctx.form(ctx.star(b), ctx.star(a)),
                       ambient_norm=ctx.ambient_norm,
                       star=ctx.star, mul=ctx.mul, unit=ctx.unit,
                       diagonal=lambda a: ctx.diag(ctx.star(a)))


def b_shifted_form(ctx: FormContext, b) -> FormContext:
    """The right-shifted form (x, y) -> form(x b, y b); its diagonal takes
    x b once."""
    if ctx.mul is None:
        raise ValueError(f"context {ctx.name} has no multiplication")
    return FormContext(name=ctx.name + "[B-shift]",
                       form=lambda x, y: ctx.form(ctx.mul(x, b), ctx.mul(y, b)),
                       ambient_norm=ctx.ambient_norm,
                       star=ctx.star, mul=ctx.mul, unit=ctx.unit,
                       diagonal=lambda x: ctx.diag(ctx.mul(x, b)))


def ladder_series(family: ProbeFamily | ScaledFamily, ns, ambient_norm,
                  views) -> tuple:
    """The series of a family on the ladder ns.

    views are (rep_map, f, degree) triples.  With r_n = rep_map(x_n) (x_n
    when rep_map is None) f gives one value or a 1-D array of values, the
    view's value columns f(r_n), and its step columns max(f(r_n - r_{n-1}),
    0).  The ambient series is tau_norm(n) when the family has one, else
    ambient_norm(x_n), or None without ambient_norm.  A ScaledFamily
    builds no member: base is evaluated once and scaled by |c_n|^d (the
    steps by |c_n - c_{n-1}|^d), c_n = scale(n), as f is absolutely
    homogeneous of degree d (1 for a seminorm or norm, 2 for a form
    diagonal) and rep_map linear or antilinear.

    Any other family is held as the list of its members, and each view's
    representatives as a list.  A list whose type has a stack_ladder that
    does not decline (a ladder of grid functions of at most STACK_VALUES
    values, real diagonal operators) is evaluated as two stacks, the items
    and their differences: f, and ambient_norm on the members, take a
    stack and must give one value or row per item (a ValueError names an
    evaluator that does not), the same bits as one item at a time.  Other
    lists are evaluated one item and one difference at a time.

    Returns the ambient series, the value and the step columns split into
    one block per view, and the last member, which is None for a
    ScaledFamily.
    """
    if isinstance(family, ScaledFamily):
        c = np.array([family.scale(int(n)) for n in ns])
        size, gap = np.abs(c), np.abs(np.diff(c))
        at_base = [np.atleast_1d(f(family.base if rep_map is None
                                   else rep_map(family.base)))
                   for rep_map, f, _ in views]
        values = [np.outer(size ** d, v)
                  for v, (_, _, d) in zip(at_base, views)]
        steps = [np.outer(gap ** d, np.maximum(v, 0.0))
                 for v, (_, _, d) in zip(at_base, views)]
        ambient = (None if ambient_norm is None
                   else size * ambient_norm(family.base))
        return ambient, values, steps, None
    members = [family.generate(int(n)) for n in ns]
    stacks = _stack_ladder(members)
    if family.tau_norm is not None:
        ambient = np.array([family.tau_norm(int(n)) for n in ns])
    elif ambient_norm is None:
        ambient = None
    else:
        ambient = np.asarray([ambient_norm(m) for m in members]
                             if stacks is None else
                             _on_stack(ambient_norm, stacks[0], len(ns)),
                             dtype=float)
    values, steps = [], []
    for rep_map, f, _ in views:
        if rep_map is None:
            v, s = _ladder_columns(members, f, stacks)
        else:
            reps = [rep_map(m) for m in members]
            v, s = _ladder_columns(reps, f, _stack_ladder(reps))
        values.append(v)
        steps.append(s)
    return ambient, values, steps, members[-1]


def _stack_ladder(items: list) -> tuple | None:
    """The items as one stack and their consecutive differences as
    another, from their type's stack_ladder; None when the type has none
    or declines."""
    stack_ladder = getattr(type(items[0]), "stack_ladder", None)
    return None if stack_ladder is None else stack_ladder(items)


def _columns(rows, length: int, width: int) -> np.ndarray:
    """A view's values, one row per member, a column per value."""
    return np.array(rows, dtype=float).reshape(length, width)


def _ladder_columns(reps: list, f, stacks) -> tuple:
    """The value and the step columns of f on the held representatives:
    on stacks, the two of their stack_ladder, or one representative and
    one difference at a time when stacks is None."""
    if stacks is not None:
        values = _on_stack(f, stacks[0], len(reps))
        steps = _on_stack(f, stacks[1], len(reps) - 1)
    else:
        values = [f(r) for r in reps]
        steps = [f(r - p) for r, p in zip(reps[1:], reps)]
    values = _columns(values, len(reps), -1)
    return values, np.maximum(_columns(steps, len(reps) - 1,
                                       values.shape[1]), 0.0)


def _on_stack(f, stack, length: int):
    """f on a stack of length members, which must give one value or one
    row of values per member."""
    out = f(stack)
    if np.shape(out)[:1] != (length,):
        raise ValueError(
            f"evaluator {getattr(f, '__qualname__', f)!r} gave shape "
            f"{np.shape(out)} on a stack of {length} members; on a stack it "
            f"must give one value or one row of values per member")
    return out


def closability_probe(ctx: FormContext, family: ProbeFamily | ScaledFamily,
                      n_max: int, *, points: int = PROBE_POINTS) -> LadderProbe:
    """Probe one family for a closability counterexample.

    Elements are evaluated on a geometric ladder so that the step distances
    compare members at a fixed index ratio; consecutive-index distances can
    vanish on families whose dyadic separations stay bounded below.  The
    value series is the form diagonal ("omega"), its steps the form
    distances between successive members.
    """
    ns = geometric_ladder(n_max, points=points)
    ambient, (values,), (steps,), _ = ladder_series(
        family, ns, ctx.ambient_norm, [(None, ctx.diag, 2)])
    return ladder_probe(family.name, ns, ambient, values, steps,
                        names=("omega",))


def check_lemma24(ctx: FormContext, families, shifts, n_max: int) -> dict:
    """Run every family against the form, its star form and each shift.

    shifts is a list of (label, element) pairs; pass the unit among them
    when the domain has one.  Disagreement between the three verdict
    columns is reported; with a closable base form every column should be
    counterexample-free.

    Returns the keys rows (per family: its name, the counterexample flag
    and the LadderProbe of each column), agree (every row's flags are
    equal), counterexamples ("family:column" labels), unit_in_suite and
    notes.
    """
    columns = {"omega": ctx, "omega_star": star_form(ctx)}
    for label, b in shifts:
        columns[f"omega_B[{label}]"] = b_shifted_form(ctx, b)
    # one column per form; over a stack of members, one row per member
    diagonals = [(None, lambda x: np.array(
        [c.diag(x) for c in columns.values()]).T, 2)]
    ns = geometric_ladder(n_max, points=PROBE_POINTS)
    rows = []
    counterexamples = []
    for fam in families:
        ambient, (values,), (steps,), _ = ladder_series(
            fam, ns, ctx.ambient_norm, diagonals)
        judged = _judge_ambient(ns, ambient)  # one null verdict per family
        verdicts = {key: _judged_probe(fam.name, ns, judged, values[:, j],
                                       steps[:, j], ("omega",))
                    for j, key in enumerate(columns)}
        flags = {key: v.counterexample for key, v in verdicts.items()}
        rows.append({"family": fam.name, "flags": flags, "verdicts": verdicts})
        counterexamples.extend(f"{fam.name}:{key}"
                               for key, hit in flags.items() if hit)
    agree = all(len(set(row["flags"].values())) == 1 for row in rows)
    unit_in_suite = ctx.unit is not None and any(
        _is_unit_shift(ctx, b) for _, b in shifts)
    notes = "" if ctx.unit is not None else \
        "domain has no unit; unit shift omitted from the suite"
    return {"rows": rows, "agree": agree, "counterexamples": counterexamples,
            "unit_in_suite": unit_in_suite, "notes": notes}


def _is_unit_shift(ctx: FormContext, b) -> bool:
    try:
        return bool(np.allclose(np.asarray(b), np.asarray(ctx.unit)))
    except Exception:
        return b is ctx.unit


def check_ips_conditions(ctx: FormContext, xs, bs) -> dict:
    """Check form(x b1, b2) = form(b1, x* b2) and the degeneracy implication.

    xs are extension-domain elements (limits of domain sequences are fine,
    any element the form accepts); bs are elements of the dense *-algebra.
    Returns the keys invariance_residual, degeneracy_residual,
    pairs_checked and structural: the two structural conditions hold by
    construction of the domain product and are recorded as such.  A form
    value that is not a number makes the residual that reads it NaN.
    """
    if ctx.mul is None or ctx.star is None:
        raise ValueError("context must supply multiplication and involution")
    gaps = [abs(ctx.form(ctx.mul(x, b1), b2)
                - ctx.form(b1, ctx.mul(ctx.star(x), b2)))
            for x in xs for b1 in bs for b2 in bs]
    diags = [abs(ctx.diag(x)) for x in xs]
    threshold = DEGENERATE_TOL * float(np.max(diags, initial=1.0))
    # x is degenerate unless its diagonal exceeds the threshold, so a NaN
    # diagonal or threshold has x checked rather than skipped
    pairings = [abs(ctx.form(x, y)) for x, d in zip(xs, diags)
                if not d > threshold for y in [*xs, *bs]]
    return {"invariance_residual": float(np.max(gaps, initial=0.0)),
            "degeneracy_residual": float(np.max(pairings, initial=0.0)),
            "pairs_checked": len(gaps),
            "structural": ("by-construction", "by-construction")}
