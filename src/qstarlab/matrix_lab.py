"""Infinite matrices with the 1/(m^2 n^2) weight, truncated to N x N.

The ambient norm is the weighted two-norm; the trace state induces the
Hilbert-Schmidt inner product as its sesquilinear form.  Finitely supported
matrices play the dense *-algebra, which has no unit (the identity fails
the finite-support condition), so the trace-form context carries none.
Each element is stored and evaluated as the block that holds its support,
placed at its position in the truncation (`WeightedMatrix`).  Truncation
growth stands in for the infinite setting everywhere.
"""

from __future__ import annotations

import functools

import numpy as np

from .forms import FormContext, ProbeFamily, ScaledFamily, closability_probe
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

    entries is the r x c block of an N x N truncation (N is `truncation`)
    whose top-left entry sits at the 0-based position `at` (the top-left
    corner by default); every entry outside the block is zero.  Real
    blocks are float64.  Without a truncation the block must be square
    and is the whole truncation, so a plain square ndarray is a full
    block.  Differences cover the union of the two boxes; `np.asarray`
    gives the dense N x N embedding.
    """

    __slots__ = ("entries", "truncation", "at")
    # numpy defers every operator to the block, so np.float64 * block
    # reaches __rmul__ instead of multiplying the dense embedding
    __array_ufunc__ = None

    def __init__(self, entries, truncation: int | None = None, at=(0, 0)):
        a = np.asarray(entries)
        if a.dtype.kind != "c":
            a = a.astype(float, copy=False)
        if a.ndim != 2:
            raise ValueError(f"need a two-dimensional block, got {a.shape}")
        rows, cols = a.shape
        if truncation is None:
            if rows != cols:
                raise ValueError(f"need a square matrix without a truncation, "
                                 f"got {a.shape}")
            truncation = rows
        r0, c0 = at
        if not (truncation >= 2 and rows >= 1 and cols >= 1 and r0 >= 0
                and c0 >= 0 and r0 + rows <= truncation
                and c0 + cols <= truncation):
            raise ValueError(f"block {a.shape} at {tuple(at)} does not fit "
                             f"truncation {truncation} (>= 2)")
        self.entries = a
        self.truncation = int(truncation)
        self.at = (int(r0), int(c0))

    def __array__(self, dtype=None, copy=None):
        n = self.truncation
        dense = np.zeros((n, n), self.entries.dtype if dtype is None else dtype)
        (r0, c0), (r, c) = self.at, self.entries.shape
        dense[r0:r0 + r, c0:c0 + c] = self.entries
        return dense

    def __sub__(self, other):
        """self - other entrywise over the union of the two boxes."""
        other = _block(other)
        n = _common_truncation(self, other)
        ea, eb = self.entries, other.entries
        if self.at == other.at and ea.shape == eb.shape:
            return WeightedMatrix(ea - eb, n, self.at)
        (ar, ac), (br, bc) = self.at, other.at
        r0, c0 = min(ar, br), min(ac, bc)
        out = np.zeros((max(ar + ea.shape[0], br + eb.shape[0]) - r0,
                        max(ac + ea.shape[1], bc + eb.shape[1]) - c0),
                       dtype=np.result_type(ea, eb))
        out[ar - r0:ar - r0 + ea.shape[0], ac - c0:ac - c0 + ea.shape[1]] = ea
        out[br - r0:br - r0 + eb.shape[0], bc - c0:bc - c0 + eb.shape[1]] -= eb
        return WeightedMatrix(out, n, (r0, c0))

    def __rmul__(self, scalar):
        """scalar * block, entrywise; a real scalar keeps a real block."""
        if not np.isscalar(scalar):
            return NotImplemented
        return WeightedMatrix(scalar * self.entries, self.truncation, self.at)


def _block(a) -> WeightedMatrix:
    return a if isinstance(a, WeightedMatrix) else WeightedMatrix(a)


def _common_truncation(a: WeightedMatrix, b: WeightedMatrix) -> int:
    if a.truncation != b.truncation:
        raise ValueError(f"truncation mismatch: {a.truncation} vs "
                         f"{b.truncation}")
    return a.truncation


def _star(a) -> WeightedMatrix:
    a = _block(a)
    return WeightedMatrix(a.entries.conj().T, a.truncation, a.at[::-1])


def _mul(a, b) -> WeightedMatrix:
    """The matrix product over the overlap of a's columns with b's rows:
    a.rows x b.cols, at a's first row and b's first column (all zeros when
    they do not overlap)."""
    a, b = _block(a), _block(b)
    n = _common_truncation(a, b)
    (ar, ac), (br, bc) = a.at, b.at
    k0 = max(ac, br)
    k1 = max(k0, min(ac + a.entries.shape[1], br + b.entries.shape[0]))
    product = a.entries[:, k0 - ac:k1 - ac] @ b.entries[k0 - br:k1 - br, :]
    return WeightedMatrix(product, n, (ar, bc))


def weighted_norm(a) -> float:
    """sqrt of sum 1/(m^2 n^2) |a_mn|^2 over the block."""
    a = _block(a)
    (r0, c0), (r, c) = a.at, a.entries.shape
    w = weight_matrix(a.truncation)[r0:r0 + r, c0:c0 + c]
    return float(np.sqrt(np.sum(w * np.abs(a.entries) ** 2)))


def trace_form(a, b) -> complex:
    """The trace-state form: sum conj(b_mn) a_mn over the overlap of the
    two boxes (0 when they do not overlap)."""
    a, b = _block(a), _block(b)
    _common_truncation(a, b)
    (ar, ac), (br, bc) = a.at, b.at
    (am, an), (bm, bn) = a.entries.shape, b.entries.shape
    if (ar, ac, am, an) == (br, bc, bm, bn):  # one box, a form diagonal
        return complex(np.vdot(b.entries, a.entries))
    r0, c0 = max(ar, br), max(ac, bc)
    r1, c1 = min(ar + am, br + bm), min(ac + an, bc + bn)
    if r1 <= r0 or c1 <= c0:
        return 0j
    return complex(np.vdot(b.entries[r0 - br:r1 - br, c0 - bc:c1 - bc],
                           a.entries[r0 - ar:r1 - ar, c0 - ac:c1 - ac]))


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

@functools.lru_cache(maxsize=8)
def _harmonic_outer(n: int) -> np.ndarray:
    """u[m, n] = 1/(m n) with 1-based indices; cached and read-only."""
    inv = 1.0 / np.arange(1, n + 1, dtype=float)
    u = np.outer(inv, inv)
    u.flags.writeable = False
    return u


def _constant_block(side: int, value: float, n: int) -> WeightedMatrix:
    return WeightedMatrix(np.full((side, side), value), n)


def _shrinking_block(k: int, n: int) -> WeightedMatrix:
    return _constant_block(min(int(np.ceil(np.sqrt(k))), n), 1.0 / k ** 2, n)


def _moving_bump(k: int, n: int) -> WeightedMatrix:
    idx = min(k, n) - 1
    return WeightedMatrix([[1.0]], n, (idx, idx))


def _spreading_block(k: int, n: int) -> WeightedMatrix:
    return _constant_block(min(k, n), 1.0 / k, n)


def _members(gen):
    """The family k -> gen(k, N) at truncation N."""
    return lambda name, n: ProbeFamily(name, lambda k: gen(int(k), n))


def _scaled(base, scale):
    """The family k -> scale(k) * base(N) at truncation N."""
    return lambda name, n: ScaledFamily(name, WeightedMatrix(base(n), n),
                                        scale)


# Each entry builds the named family at a truncation: (name, N) -> family.
# Families that are weighted-null and trace-form Cauchy: the replay must
# find limit 0 on each.
NULL_FAMILIES = {
    "scaled_corner": _scaled(lambda n: [[1.0]], lambda k: 1.0 / k),
    "rank_one_decay": _scaled(_harmonic_outer, lambda k: 2.0 ** -float(k)),
    "shrinking_block": _members(_shrinking_block),
    "decaying_column": _scaled(
        lambda n: 1.0 / np.arange(1, n + 1, dtype=float)[:, None] ** 2,
        lambda k: 1.0 / k),
}

# Weighted-null families whose trace-form steps stay bounded below; the
# replay must flag them as not form-Cauchy (which is consistent with
# closability, not a counterexample).
NON_CAUCHY_FAMILIES = {
    "moving_bump": _members(_moving_bump),
    "spreading_block": _members(_spreading_block),
}


def matrix_family(name: str, n: int = DEFAULT_TRUNCATION
                  ) -> ProbeFamily | ScaledFamily:
    """The named probe family at truncation n: a ScaledFamily for the
    scalar multiples of one matrix, a ProbeFamily otherwise."""
    table = {**NULL_FAMILIES, **NON_CAUCHY_FAMILIES}
    if name not in table:
        raise KeyError(f"unknown matrix family {name!r}; "
                       f"choose from {sorted(table)}")
    return table[name](name, n)


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


def _rule_matrix(rule, n: int) -> np.ndarray:
    idx = np.arange(1, n + 1, dtype=float)
    return np.asarray(rule(idx[:, None], idx[None, :]), dtype=float)


def d_omega_identification() -> list:
    """Membership of the form-closure domain by truncation-stable HS norms.

    The domain coincides with the Hilbert-Schmidt space, so membership of
    each ENTRY_RULES rule is decided by whether its HS sums stabilise as
    the truncation doubles along MEMBERSHIP_LADDER, and compared against
    the analytic classification.  One dict per rule, with the keys rule,
    member, oracle_member, growth_ratio and agrees (member equals
    oracle_member).
    """
    verdicts = []
    for name, (rule, oracle) in ENTRY_RULES.items():
        # one sample at the largest truncation; a leading block equals the
        # smaller sample entry for entry, and contiguous it sums the same
        squares = np.abs(_rule_matrix(rule, MEMBERSHIP_LADDER[-1])) ** 2
        sums = [float(np.sum(np.ascontiguousarray(squares[:n, :n])))
                for n in MEMBERSHIP_LADDER]
        member, ratio = increments_shrink(MEMBERSHIP_LADDER, sums,
                                          f"{name} HS sums")
        verdicts.append({"rule": name, "member": member,
                         "oracle_member": oracle, "growth_ratio": ratio,
                         "agrees": member == oracle})
    return verdicts
