"""Infinite matrices with the 1/(m^2 n^2) weight, truncated to N x N.

The ambient norm is the weighted two-norm; the trace state induces the
Hilbert-Schmidt inner product as its sesquilinear form.  Finitely supported
matrices play the dense *-algebra, which has no unit (the identity fails
the finite-support condition), so the trace-form context carries none.
Each element is stored and evaluated as the top-left block that holds its
support (`WeightedMatrix`).  Truncation growth stands in for the infinite
setting everywhere.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .forms import FormContext, ProbeFamily, closability_probe
from .rates import LadderProbe, increments_shrink

DEFAULT_TRUNCATION = 256
MEMBERSHIP_LADDER = (16, 32, 64, 128, 256)


@functools.lru_cache(maxsize=8)
def weight_matrix(n: int) -> np.ndarray:
    """w[m, n] = 1/(m^2 n^2) with 1-based indices; cached and read-only."""
    inv_sq = 1.0 / np.arange(1, n + 1, dtype=float) ** 2
    w = np.outer(inv_sq, inv_sq)
    w.flags.writeable = False
    return w


class WeightedMatrix:
    """Truncated element of the weighted matrix space, held as its support.

    entries is the top-left r x c block of an N x N truncation (N is
    `truncation`); every entry outside the block is zero.  Real blocks are
    float64.  Without a truncation the block must be square and is the
    whole truncation, so a plain square ndarray is a full block.  Sums and
    differences pad to the larger block; `np.asarray` gives the dense
    N x N embedding.
    """

    __slots__ = ("entries", "truncation")
    __array_ufunc__ = None  # ndarray - block defers to __rsub__

    def __init__(self, entries, truncation: int | None = None):
        a = np.asarray(entries)
        if not np.iscomplexobj(a):
            a = a.astype(float, copy=False)
        if a.ndim != 2:
            raise ValueError(f"need a two-dimensional block, got {a.shape}")
        if truncation is None:
            if a.shape[0] != a.shape[1]:
                raise ValueError(f"need a square matrix without a truncation, "
                                 f"got {a.shape}")
            truncation = a.shape[0]
        if truncation < 2 or min(a.shape) < 1 or max(a.shape) > truncation:
            raise ValueError(f"block {a.shape} does not fit truncation "
                             f"{truncation} (>= 2)")
        self.entries = a
        self.truncation = int(truncation)

    def __array__(self, dtype=None, copy=None):
        n = self.truncation
        dense = np.zeros((n, n), self.entries.dtype if dtype is None else dtype)
        r, c = self.entries.shape
        dense[:r, :c] = self.entries
        return dense

    def __add__(self, other):
        return _padded(np.add, self, other)

    def __radd__(self, other):
        return _padded(np.add, other, self)

    def __sub__(self, other):
        return _padded(np.subtract, self, other)

    def __rsub__(self, other):
        return _padded(np.subtract, other, self)


def _block(a) -> WeightedMatrix:
    return a if isinstance(a, WeightedMatrix) else WeightedMatrix(a)


def _common_truncation(a: WeightedMatrix, b: WeightedMatrix) -> int:
    if a.truncation != b.truncation:
        raise ValueError(f"truncation mismatch: {a.truncation} vs "
                         f"{b.truncation}")
    return a.truncation


def _padded(op, a, b) -> WeightedMatrix:
    """op(a, b) entrywise over the larger of the two blocks."""
    a, b = _block(a), _block(b)
    n = _common_truncation(a, b)
    ea, eb = a.entries, b.entries
    if ea.shape == eb.shape:
        return WeightedMatrix(op(ea, eb), n)
    out = np.zeros((max(ea.shape[0], eb.shape[0]), max(ea.shape[1], eb.shape[1])),
                   dtype=np.result_type(ea, eb))
    out[:ea.shape[0], :ea.shape[1]] = ea
    head = out[:eb.shape[0], :eb.shape[1]]
    op(head, eb, out=head)
    return WeightedMatrix(out, n)


def _star(a) -> WeightedMatrix:
    a = _block(a)
    return WeightedMatrix(a.entries.conj().T, a.truncation)


def _mul(a, b) -> WeightedMatrix:
    """The matrix product over the common inner extent of the two blocks."""
    a, b = _block(a), _block(b)
    n = _common_truncation(a, b)
    k = min(a.entries.shape[1], b.entries.shape[0])
    return WeightedMatrix(a.entries[:, :k] @ b.entries[:k, :], n)


def weighted_norm(a) -> float:
    """sqrt of sum 1/(m^2 n^2) |a_mn|^2 over the block."""
    a = _block(a)
    r, c = a.entries.shape
    w = weight_matrix(a.truncation)[:r, :c]
    return float(np.sqrt(np.sum(w * np.abs(a.entries) ** 2)))


def hs_norm(a) -> float:
    """Plain Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(_block(a).entries))


def trace_form(a, b) -> complex:
    """The trace-state form: sum conj(b_mn) a_mn over the common block."""
    a, b = _block(a), _block(b)
    _common_truncation(a, b)
    r = min(a.entries.shape[0], b.entries.shape[0])
    c = min(a.entries.shape[1], b.entries.shape[1])
    return complex(np.vdot(b.entries[:r, :c], a.entries[:r, :c]))


def m_constant(n: int) -> tuple[float, float]:
    """Truncated value of sum 1/(m^2 n^2) with a tail bound.

    The full sum is (pi^2/6)^2; the truncation error of each factor is at
    most 1/n, giving the reported bound on the double sum.
    """
    partial = float(np.sum(1.0 / np.arange(1, n + 1, dtype=float) ** 2))
    value = partial ** 2
    zeta2 = np.pi ** 2 / 6.0
    bound = zeta2 ** 2 - (zeta2 - 1.0 / n) ** 2
    return value, float(bound)


def trace_form_context(n: int = DEFAULT_TRUNCATION) -> FormContext:
    return FormContext(
        name=f"matrix-trace[N={n}]",
        form=trace_form,
        ambient_norm=weighted_norm,
        star=_star,
        mul=_mul,
        unit=None)


# ---------------------------------------------------------------------------
# Probe families

def _corner(k: int, n: int) -> WeightedMatrix:
    return WeightedMatrix([[1.0 / k]], n)


@functools.lru_cache(maxsize=8)
def _harmonic_outer(n: int) -> np.ndarray:
    """u[m, n] = 1/(m n) with 1-based indices; cached and read-only."""
    inv = 1.0 / np.arange(1, n + 1, dtype=float)
    u = np.outer(inv, inv)
    u.flags.writeable = False
    return u


def _rank_one_decay(k: int, n: int) -> WeightedMatrix:
    return WeightedMatrix((2.0 ** -float(k)) * _harmonic_outer(n), n)


def _constant_block(side: int, value: float, n: int) -> WeightedMatrix:
    return WeightedMatrix(np.full((side, side), value), n)


def _shrinking_block(k: int, n: int) -> WeightedMatrix:
    return _constant_block(min(int(np.ceil(np.sqrt(k))), n), 1.0 / k ** 2, n)


def _decaying_column(k: int, n: int) -> WeightedMatrix:
    column = 1.0 / (k * np.arange(1, n + 1, dtype=float) ** 2)
    return WeightedMatrix(column[:, None], n)


def _moving_bump(k: int, n: int) -> WeightedMatrix:
    idx = min(k, n) - 1
    a = np.zeros((idx + 1, idx + 1))
    a[idx, idx] = 1.0
    return WeightedMatrix(a, n)


def _spreading_block(k: int, n: int) -> WeightedMatrix:
    return _constant_block(min(k, n), 1.0 / k, n)


# Families that are weighted-null and trace-form Cauchy: the replay must
# find limit 0 on each.
NULL_FAMILIES = {
    "scaled_corner": _corner,
    "rank_one_decay": _rank_one_decay,
    "shrinking_block": _shrinking_block,
    "decaying_column": _decaying_column,
}

# Weighted-null families whose trace-form steps stay bounded below; the
# replay must flag them as not form-Cauchy (which is consistent with
# closability, not a counterexample).
NON_CAUCHY_FAMILIES = {
    "moving_bump": _moving_bump,
    "spreading_block": _spreading_block,
}


def matrix_family(name: str, n: int = DEFAULT_TRUNCATION) -> ProbeFamily:
    table = {**NULL_FAMILIES, **NON_CAUCHY_FAMILIES}
    if name not in table:
        raise KeyError(f"unknown matrix family {name!r}; "
                       f"choose from {sorted(table)}")
    gen = table[name]
    return ProbeFamily(name=name, generate=lambda k: gen(int(k), n))


def matrix_closability_replay(name: str,
                              n: int = DEFAULT_TRUNCATION) -> LadderProbe:
    """Replay the closability argument for the trace form at truncation N:
    the form probe of the named family on a 16-point ladder up to N.

    For a weighted-null family the Hilbert-Schmidt Cauchy property forces
    the diagonal values to a limit, and the per-entry decay forces it to
    0; families that are not Hilbert-Schmidt Cauchy are reported as such
    (no counterexample).
    """
    return closability_probe(trace_form_context(n), matrix_family(name, n), n,
                             points=16)


# ---------------------------------------------------------------------------
# Identification of the closure domain

# Entry rules (m, n are 1-based index arrays) with their analytic
# Hilbert-Schmidt classification.  Rules whose divergence only shows at
# astronomically large truncations (single-log growth) are deliberately
# absent: the doubling test cannot see them at desk scale.
ENTRY_RULES = {
    "inverse_product": (lambda m, n: 1.0 / (m * n), True),
    "inverse_sqrt_product": (lambda m, n: 1.0 / np.sqrt(m * n), False),
    "finite_support": (lambda m, n: ((m <= 2) & (n <= 3)).astype(float), True),
    "inverse_sum_square": (lambda m, n: 1.0 / (m + n) ** 2, True),
    "exp_decay": (lambda m, n: np.exp(-(m + n)), True),
    "row_harmonic": (lambda m, n: 1.0 / m + 0.0 * n, False),
}


@dataclass(frozen=True)
class DomainVerdict:
    rule: str
    member: bool
    oracle_member: bool
    growth_ratio: float

    @property
    def agrees(self) -> bool:
        return self.member == self.oracle_member


def _rule_matrix(rule, n: int) -> np.ndarray:
    idx = np.arange(1, n + 1, dtype=float)
    return np.asarray(rule(idx[:, None], idx[None, :]), dtype=float)


def d_omega_identification() -> list:
    """Membership of the form-closure domain by truncation-stable HS norms.

    The domain coincides with the Hilbert-Schmidt space, so membership of
    each ENTRY_RULES rule is decided by whether its HS sums stabilise as
    the truncation doubles along MEMBERSHIP_LADDER, and compared against
    the analytic classification.
    """
    verdicts = []
    for name, (rule, oracle) in ENTRY_RULES.items():
        sums = [float(np.sum(np.abs(_rule_matrix(rule, n)) ** 2))
                for n in MEMBERSHIP_LADDER]
        member, ratio = increments_shrink(MEMBERSHIP_LADDER, sums,
                                          f"{name} HS sums")
        verdicts.append(DomainVerdict(rule=name, member=member,
                                      oracle_member=oracle,
                                      growth_ratio=ratio))
    return verdicts
