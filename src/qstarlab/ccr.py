"""The CCR algebra on the unit interval: formal polynomials in the momentum
symbol with trigonometric-polynomial coefficients.

Coefficients are stored by Fourier frequency, so derivatives, products and
the spectral representation are finite exact computations.  Scalars are
kept as polynomials in 2*pi with machine-complex coefficients: derivative
factors enter as powers of 2*pi with exact Gaussian-integer multipliers,
which makes the *-algebra identities hold coefficient-exactly, not merely
to round-off.  Truncation edge effects are handled by the safe-subspace
discipline: operator identities are asserted only on vectors whose images
stay inside the truncation window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


class TwoPiScalar:
    """Exact scalar sum_j c_j (2 pi)^j with complex coefficients c_j.

    Addition and multiplication never evaluate 2*pi, so expressions whose
    c_j stay dyadic (integer coefficients, binomials, powers of i) compare
    exactly.  to_complex() evaluates for the numerical layer.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: dict | complex = 0):
        if not isinstance(parts, dict):
            parts = {0: complex(parts)}
        self.parts = {j: complex(c) for j, c in parts.items() if c != 0}

    def __bool__(self) -> bool:
        return bool(self.parts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TwoPiScalar):
            other = TwoPiScalar(other)
        return self.parts == other.parts

    def __hash__(self):
        return hash(tuple(sorted(self.parts.items(), key=lambda kv: kv[0])))

    def __add__(self, other) -> "TwoPiScalar":
        if not isinstance(other, TwoPiScalar):
            other = TwoPiScalar(other)
        parts = dict(self.parts)
        for j, c in other.parts.items():
            parts[j] = parts.get(j, 0j) + c
        return TwoPiScalar(parts)

    def __neg__(self) -> "TwoPiScalar":
        return TwoPiScalar({j: -c for j, c in self.parts.items()})

    def __sub__(self, other) -> "TwoPiScalar":
        return self + (-other if isinstance(other, TwoPiScalar)
                       else TwoPiScalar(other).__neg__())

    def __mul__(self, other) -> "TwoPiScalar":
        if not isinstance(other, TwoPiScalar):
            other = TwoPiScalar(other)
        parts: dict = {}
        for j1, c1 in self.parts.items():
            for j2, c2 in other.parts.items():
                j = j1 + j2
                parts[j] = parts.get(j, 0j) + c1 * c2
        return TwoPiScalar(parts)

    __rmul__ = __mul__

    def conj(self) -> "TwoPiScalar":
        return TwoPiScalar({j: c.conjugate() for j, c in self.parts.items()})

    def shift(self, power: int, factor: complex = 1.0) -> "TwoPiScalar":
        """Multiply by factor * (2 pi)^power."""
        return TwoPiScalar({j + power: c * factor for j, c in self.parts.items()})

    def to_complex(self) -> complex:
        return sum((c * TWO_PI ** j for j, c in self.parts.items()), 0j)

    def __repr__(self):
        return f"TwoPiScalar({self.parts!r})"


# Inside the hot loops a coefficient is a raw dict {power of 2*pi: complex};
# the helpers below keep the arithmetic allocation-light.

def _raw_trim(parts: dict) -> dict:
    return {j: c for j, c in parts.items() if c != 0}


def _raw_add_into(acc: dict, parts: dict, factor: complex = 1.0,
                  power: int = 0) -> None:
    for j, c in parts.items():
        key = j + power
        acc[key] = acc.get(key, 0j) + factor * c


def _raw_derivative(coeffs: dict) -> dict:
    """Frequency map derivative on raw coefficient dicts."""
    out: dict = {}
    for n, parts in coeffs.items():
        if n == 0:
            continue
        out[n] = {j + 1: (1j * n) * c for j, c in parts.items()}
    return out


class TrigPoly:
    """Trigonometric polynomial sum_n c_n exp(2 pi i n x) on [0,1]."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict | None = None):
        clean = {}
        for n, c in (coeffs or {}).items():
            if not isinstance(c, TwoPiScalar):
                c = TwoPiScalar(c)
            if c:
                clean[int(n)] = c
        self.coeffs = clean

    @classmethod
    def _from_raw(cls, raw: dict) -> "TrigPoly":
        poly = cls.__new__(cls)
        coeffs = {}
        for n, parts in raw.items():
            trimmed = _raw_trim(parts)
            if trimmed:
                sc = TwoPiScalar.__new__(TwoPiScalar)
                sc.parts = trimmed
                coeffs[n] = sc
        poly.coeffs = coeffs
        return poly

    def _raw(self) -> dict:
        return {n: c.parts for n, c in self.coeffs.items()}

    @classmethod
    def mode(cls, n: int, coeff=1) -> "TrigPoly":
        return cls({n: coeff})

    @classmethod
    def one(cls) -> "TrigPoly":
        return cls({0: 1})

    @property
    def max_freq(self) -> int:
        return max((abs(n) for n in self.coeffs), default=0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_real(self) -> bool:
        return all(self.coeffs.get(-n, TwoPiScalar()) == c.conj()
                   for n, c in self.coeffs.items())

    def __eq__(self, other) -> bool:
        return isinstance(other, TrigPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        coeffs = dict(self.coeffs)
        for n, c in other.coeffs.items():
            coeffs[n] = coeffs.get(n, TwoPiScalar()) + c
        return TrigPoly(coeffs)

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        return self + other.scale(-1)

    def scale(self, factor) -> "TrigPoly":
        if not isinstance(factor, TwoPiScalar):
            factor = TwoPiScalar(factor)
        return TrigPoly({n: c * factor for n, c in self.coeffs.items()})

    def __mul__(self, other: "TrigPoly") -> "TrigPoly":
        acc: dict = {}
        for n1, c1 in self.coeffs.items():
            p1 = c1.parts
            for n2, c2 in other.coeffs.items():
                bucket = acc.setdefault(n1 + n2, {})
                for j1, v1 in p1.items():
                    for j2, v2 in c2.parts.items():
                        key = j1 + j2
                        bucket[key] = bucket.get(key, 0j) + v1 * v2
        return TrigPoly._from_raw(acc)

    def derivative(self) -> "TrigPoly":
        """d/dx multiplies the n-th coefficient by 2 pi i n, exactly."""
        return TrigPoly._from_raw(_raw_derivative(self._raw()))

    def conj(self) -> "TrigPoly":
        return TrigPoly({-n: c.conj() for n, c in self.coeffs.items()})

    def to_vector(self, n_trunc: int) -> np.ndarray:
        """Complex coefficients on the centered frequency window."""
        if self.max_freq > n_trunc:
            raise ValueError(f"frequency {self.max_freq} exceeds window {n_trunc}")
        vec = np.zeros(2 * n_trunc + 1, dtype=complex)
        for n, c in self.coeffs.items():
            vec[n + n_trunc] = c.to_complex()
        return vec

    def __repr__(self):
        return f"TrigPoly({self.coeffs!r})"


class CCRPolynomial:
    """Formal polynomial sum_k phi_k p^k with TrigPoly coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = tuple(c if isinstance(c, TrigPoly) else TrigPoly(c)
                       for c in coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs = coeffs[:-1]
        self.coeffs = coeffs

    @classmethod
    def from_terms(cls, terms) -> "CCRPolynomial":
        """terms: iterable of (power, TrigPoly)."""
        degree = max((k for k, _ in terms), default=-1)
        coeffs = [TrigPoly() for _ in range(degree + 1)]
        for k, phi in terms:
            coeffs[k] = coeffs[k] + phi
        return cls(coeffs)

    @classmethod
    def momentum(cls) -> "CCRPolynomial":
        return cls([TrigPoly(), TrigPoly.one()])

    @classmethod
    def multiplication(cls, phi: TrigPoly) -> "CCRPolynomial":
        return cls([phi])

    @classmethod
    def one(cls) -> "CCRPolynomial":
        return cls([TrigPoly.one()])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    @property
    def max_freq(self) -> int:
        return max((phi.max_freq for phi in self.coeffs), default=0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, CCRPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "CCRPolynomial") -> "CCRPolynomial":
        size = max(len(self.coeffs), len(other.coeffs))
        coeffs = [TrigPoly() for _ in range(size)]
        for i, c in enumerate(self.coeffs):
            coeffs[i] = coeffs[i] + c
        for i, c in enumerate(other.coeffs):
            coeffs[i] = coeffs[i] + c
        return CCRPolynomial(coeffs)

    def __sub__(self, other: "CCRPolynomial") -> "CCRPolynomial":
        return self + other.scale(-1)

    def scale(self, factor) -> "CCRPolynomial":
        return CCRPolynomial([c.scale(factor) for c in self.coeffs])

    def __mul__(self, other: "CCRPolynomial") -> "CCRPolynomial":
        return ccr_mul(self, other)

    def star(self) -> "CCRPolynomial":
        return ccr_star(self)

    def __repr__(self):
        return f"CCRPolynomial({list(self.coeffs)!r})"


def ccr_mul(q1: CCRPolynomial, q2: CCRPolynomial) -> CCRPolynomial:
    """Noncommutative product induced by the Leibniz rule: moving a power
    of p through a coefficient trades it for -i times a derivative."""
    if q1.is_zero() or q2.is_zero():
        return CCRPolynomial()
    out_deg = q1.degree + q2.degree
    acc: list[dict] = [{} for _ in range(out_deg + 1)]
    raw2 = [psi._raw() for psi in q2.coeffs]
    for k, phi in enumerate(q1.coeffs):
        if phi.is_zero():
            continue
        p_phi = phi._raw()
        for l, psi_raw in enumerate(raw2):
            if not psi_raw:
                continue
            deriv = psi_raw
            for r in range(k + 1):
                factor = (-1j) ** r * math.comb(k, r)
                bucket = acc[k - r + l]
                # bucket += factor * (phi * d^r psi), all on raw dicts
                for n1, parts1 in p_phi.items():
                    for n2, parts2 in deriv.items():
                        cell = bucket.setdefault(n1 + n2, {})
                        for j1, v1 in parts1.items():
                            fv1 = factor * v1
                            for j2, v2 in parts2.items():
                                key = j1 + j2
                                cell[key] = cell.get(key, 0j) + fv1 * v2
                if r < k:
                    deriv = _raw_derivative(deriv)
    return CCRPolynomial([TrigPoly._from_raw(bucket) for bucket in acc])


def ccr_star(q: CCRPolynomial) -> CCRPolynomial:
    """Involution: (phi p^k)* = sum_r (-i)^r C(k,r) conj(phi)^(r) p^(k-r)."""
    if q.is_zero():
        return CCRPolynomial()
    acc: list[dict] = [{} for _ in range(q.degree + 1)]
    for k, phi in enumerate(q.coeffs):
        if phi.is_zero():
            continue
        deriv = phi.conj()._raw()
        for r in range(k + 1):
            factor = (-1j) ** r * math.comb(k, r)
            bucket = acc[k - r]
            for n, parts in deriv.items():
                cell = bucket.setdefault(n, {})
                _raw_add_into(cell, parts, factor)
            if r < k:
                deriv = _raw_derivative(deriv)
    return CCRPolynomial([TrigPoly._from_raw(bucket) for bucket in acc])


# ---------------------------------------------------------------------------
# Spectral representation on the Fourier truncation

def freqs(n_trunc: int) -> np.ndarray:
    return np.arange(-n_trunc, n_trunc + 1)


def momentum_matrix(n_trunc: int) -> np.ndarray:
    """The momentum acts diagonally: the n-th mode has eigenvalue 2 pi n."""
    return np.diag(TWO_PI * freqs(n_trunc)).astype(complex)


def convolution_matrix(phi: TrigPoly, n_trunc: int) -> np.ndarray:
    """Multiplication by phi as the banded shift matrix on the window."""
    dim = 2 * n_trunc + 1
    mat = np.zeros((dim, dim), dtype=complex)
    for n, c in phi.coeffs.items():
        val = c.to_complex()
        for j in range(dim):
            i = j + n
            if 0 <= i < dim:
                mat[i, j] = val
    return mat


@dataclass(frozen=True, eq=False)
class FourierOperator:
    """Operator matrix on the centered Fourier window |n| <= n_trunc."""

    matrix: np.ndarray
    n_trunc: int

    def apply(self, v) -> np.ndarray:
        return self.matrix @ np.asarray(v, dtype=complex)

    @property
    def adjoint_matrix(self) -> np.ndarray:
        return self.matrix.conj().T


def ccr_represent(q: CCRPolynomial, n_trunc: int) -> FourierOperator:
    """sum_k (multiplication by phi_k) (momentum)^k on the truncation."""
    if n_trunc < q.max_freq + 1:
        raise ValueError(
            f"truncation too small: need n_trunc >= {q.max_freq + 1}")
    dim = 2 * n_trunc + 1
    d_p = TWO_PI * freqs(n_trunc)
    mat = np.zeros((dim, dim), dtype=complex)
    for k, phi in enumerate(q.coeffs):
        if phi.is_zero():
            continue
        mat += convolution_matrix(phi, n_trunc) * (d_p ** k)[np.newaxis, :]
    return FourierOperator(matrix=mat, n_trunc=n_trunc)


def safe_indices(n_trunc: int, margin: int) -> np.ndarray:
    """Window positions whose frequency survives a support growth of margin."""
    if margin >= n_trunc:
        raise ValueError(f"margin {margin} leaves no safe subspace at "
                         f"truncation {n_trunc}")
    return np.nonzero(np.abs(freqs(n_trunc)) <= n_trunc - margin)[0]


# ---------------------------------------------------------------------------
# Graph topology seminorms

def graph_weights(n_trunc: int) -> np.ndarray:
    """Weights (1 + 4 pi^2 n^2) of the graph topology of the momentum."""
    return 1.0 + (TWO_PI * freqs(n_trunc)) ** 2


def graph_seminorm(phi, k: int) -> float:
    """|(1 + P^2)^k phi| for a centered Fourier coefficient vector."""
    phi = np.asarray(phi, dtype=complex)
    if len(phi) % 2 != 1:
        raise ValueError("expected a centered vector of odd length")
    n_trunc = (len(phi) - 1) // 2
    return float(np.linalg.norm(graph_weights(n_trunc) ** k * phi))


def graph_seminorm_poly(phi: TrigPoly, k: int) -> float:
    """Graph seminorm straight off the coefficient map (no truncation)."""
    total = 0.0
    for n, c in phi.coeffs.items():
        total += (1.0 + (TWO_PI * n) ** 2) ** (2 * k) * abs(c.to_complex()) ** 2
    return math.sqrt(total)


@dataclass(frozen=True)
class SubmultReport:
    k: int
    max_ratio: float
    half_sample_ratio: float
    n_pairs: int

    @property
    def stable(self) -> bool:
        """Doubling the sample must not blow the estimate up."""
        return self.max_ratio <= 2.0 * max(self.half_sample_ratio, 1.0)


def random_trig_poly(rng, max_freq: int, scale: int = 2,
                     integer: bool = True) -> TrigPoly:
    """Random trigonometric polynomial; integer mode keeps coefficients
    Gaussian-integer so symbolic identities stay exact."""
    coeffs = {}
    for n in range(-max_freq, max_freq + 1):
        if integer:
            c = complex(int(rng.integers(-scale, scale + 1)),
                        int(rng.integers(-scale, scale + 1)))
        else:
            c = complex(rng.standard_normal(), rng.standard_normal())
        if c:
            coeffs[n] = c
    return TrigPoly(coeffs)


def random_ccr_polynomial(rng, degree: int, max_freq: int,
                          scale: int = 2) -> CCRPolynomial:
    return CCRPolynomial([random_trig_poly(rng, max_freq, scale)
                          for _ in range(degree + 1)])


def submultiplicativity_probe(k: int, n_pairs: int = 40, max_freq: int = 8,
                              seed: int = 0) -> SubmultReport:
    """Empirical constant in |phi chi|_k <= c_k |phi|_k |chi|_k.

    Reports the largest observed ratio over a seeded sample and the value
    at half the sample size, so growth under sample refinement is visible.
    """
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(n_pairs):
        phi = random_trig_poly(rng, max_freq, integer=False)
        chi = random_trig_poly(rng, max_freq, integer=False)
        denom = graph_seminorm_poly(phi, k) * graph_seminorm_poly(chi, k)
        if denom == 0:
            continue
        ratios.append(graph_seminorm_poly(phi * chi, k) / denom)
    half = max(ratios[:max(1, len(ratios) // 2)])
    return SubmultReport(k=k, max_ratio=max(ratios),
                         half_sample_ratio=half, n_pairs=len(ratios))


# ---------------------------------------------------------------------------
# Representation checks

@dataclass(frozen=True)
class HomomorphismCheck:
    residual: float
    relative_residual: float
    scale: float
    safe_dim: int


def homomorphism_check(q1: CCRPolynomial, q2: CCRPolynomial,
                       n_trunc: int) -> HomomorphismCheck:
    """Residual of pi(q1 q2) = pi(q1) pi(q2) on the safe subspace."""
    margin = q1.max_freq + q2.max_freq
    safe = safe_indices(n_trunc, margin)
    lhs = ccr_represent(ccr_mul(q1, q2), n_trunc).matrix
    rhs = ccr_represent(q1, n_trunc).matrix @ ccr_represent(q2, n_trunc).matrix
    diff = np.max(np.abs((lhs - rhs)[:, safe])) if len(safe) else 0.0
    scale = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))), 1e-300)
    return HomomorphismCheck(residual=float(diff),
                             relative_residual=float(diff) / scale,
                             scale=scale, safe_dim=len(safe))


def adjoint_check(q: CCRPolynomial, n_trunc: int) -> float:
    """Residual of pi(q)^dagger = pi(q*) on the safe subspace (both sides
    restricted, since the adjoint of a clipped band differs at the edge)."""
    margin = max(q.max_freq, ccr_star(q).max_freq)
    safe = safe_indices(n_trunc, margin)
    lhs = ccr_represent(q, n_trunc).adjoint_matrix
    rhs = ccr_represent(ccr_star(q), n_trunc).matrix
    return float(np.max(np.abs((lhs - rhs)[np.ix_(safe, safe)])))


def faithfulness_defect(q: CCRPolynomial, n_trunc: int) -> float:
    """Largest image norm over the unit mode and the low-frequency probes.

    The probes e_0, e_1, ..., e_(degree) pin the coefficients through a
    Vandermonde system in the momentum eigenvalues, so a nonzero
    polynomial registers a nonzero defect and the zero polynomial gives 0.
    """
    if q.is_zero():
        return 0.0
    op = ccr_represent(q, n_trunc)
    dim = 2 * n_trunc + 1
    worst = 0.0
    for m in range(min(q.degree, n_trunc - q.max_freq) + 1):
        probe = np.zeros(dim, dtype=complex)
        probe[m + n_trunc] = 1.0
        worst = max(worst, float(np.linalg.norm(op.apply(probe))))
    return worst


def ccr_polynomial_from_literal(data) -> CCRPolynomial:
    """Build a polynomial from the literal form used in config and test
    files: a list of (power, [(frequency, [re, im]), ...]) entries."""
    terms = []
    for power, coeff_entries in data:
        coeffs = {int(n): complex(re, im) for n, (re, im) in coeff_entries}
        terms.append((int(power), TrigPoly(coeffs)))
    return CCRPolynomial.from_terms(terms)


def ccr_polynomial_to_literal(q: CCRPolynomial) -> list:
    """Deterministic literal form: entries sorted by power and frequency,
    scalar coefficients evaluated to [re, im] pairs."""
    literal = []
    for k, phi in enumerate(q.coeffs):
        if phi.is_zero():
            continue
        entries = []
        for n in sorted(phi.coeffs):
            value = phi.coeffs[n].to_complex()
            entries.append([n, [value.real, value.imag]])
        literal.append([k, entries])
    return literal


def uniform_seminorm_identity(phi_vec: np.ndarray, test_polys,
                              n_trunc: int) -> tuple[float, float]:
    """Both sides of |pi(Phi)|_M = |Phi|_(M* M) for a coefficient vector.

    The left side pairs the convolution action against the test family;
    the right side pairs Phi directly against the products conj(f) g.
    Returns (lhs, rhs); polynomially growing Phi vectors are fine.
    """
    phi_vec = np.asarray(phi_vec, dtype=complex)
    phi_poly = TrigPoly({n: phi_vec[n + n_trunc]
                         for n in range(-n_trunc, n_trunc + 1)
                         if phi_vec[n + n_trunc] != 0})
    conv = convolution_matrix(phi_poly, n_trunc)
    lhs = 0.0
    for f in test_polys:
        fv = f.to_vector(n_trunc)
        img = conv @ fv
        for g in test_polys:
            gv = g.to_vector(n_trunc)
            lhs = max(lhs, abs(complex(np.vdot(gv, img))))
    rhs = 0.0
    for f in test_polys:
        for g in test_polys:
            h = (f.conj() * g).to_vector(n_trunc)
            rhs = max(rhs, abs(complex(np.vdot(h, phi_vec))))
    return lhs, rhs
