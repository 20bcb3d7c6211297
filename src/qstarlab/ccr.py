"""The CCR algebra on the unit interval: formal polynomials in the momentum
symbol with trigonometric-polynomial coefficients.

A polynomial sum_k phi_k p^k is one complex array C[k, n + F, j], the
coefficient of p^k exp(2 pi i n x) (2 pi)^j for |n| <= F; a TrigPoly is
one slice C[n + F, j].  Derivative factors enter as powers of 2*pi with
exact integer multipliers, so for Gaussian-integer or dyadic data every
partial sum of a product or involution is exact and the *-algebra
identities hold coefficient-exactly, not merely to round-off.  Arrays stay
trimmed, so equality is array equality.  Truncation edge effects are
handled by the safe-subspace discipline: operator identities are asserted
only on vectors whose images stay inside the truncation window.

The product, involution and seminorm kernels take a leading sample axis:
(s, k, n, j) arrays, zero-padded to a common shape with the frequency
centred.  A single polynomial is the batch of one.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .topologies import TruncatedOperator

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Coefficient arrays: the last two axes are frequency (centered, odd length)
# and power of 2*pi; a CCR polynomial puts the power of p in front.

def _trim(c: np.ndarray) -> np.ndarray:
    """Canonical read-only form: no trailing zero power, the frequency axis
    centered on the nonzero support.  Zero has size 0 and frequency 0."""
    hit = np.nonzero(c)
    if not hit[0].size:
        c = np.zeros([int(ax == c.ndim - 2) for ax in range(c.ndim)], complex)
    else:
        keep = [slice(0, int(h.max()) + 1) for h in hit]
        f = c.shape[-2] // 2
        half = max(f - int(hit[-2].min()), int(hit[-2].max()) - f)
        keep[-2] = slice(f - half, f + half + 1)
        c = c[tuple(keep)]
    c.flags.writeable = False
    return c


def _frequencies(c: np.ndarray) -> np.ndarray:
    return np.arange(c.shape[-2]) - c.shape[-2] // 2


def _evaluate(c: np.ndarray) -> np.ndarray:
    """sum_j c[..., j] (2 pi)^j, added in ascending j starting from zero."""
    out = np.zeros(c.shape[:-1], complex)
    for j in range(c.shape[-1]):
        out = out + c[..., j] * TWO_PI ** j
    return out


def _window(shape: tuple, outer: tuple) -> tuple:
    """Where an array of `shape` sits in one of `outer`: at the start of
    every axis but frequency, which is centred (both lengths are odd)."""
    at = [slice(0, s) for s in shape]
    at[-2] = slice((outer[-2] - shape[-2]) // 2, (outer[-2] + shape[-2]) // 2)
    return tuple(at)


def _embedded(c: np.ndarray, shape: tuple) -> np.ndarray:
    out = np.zeros(shape, complex)
    out[_window(c.shape, shape)] = c
    return out


def _summed(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    shape = np.maximum(a.shape, b.shape)
    total = np.zeros(shape, complex)
    for c in (a, b):
        total[_window(c.shape, shape)] += c
    return total


def _same(x: np.ndarray, y: np.ndarray) -> bool:
    """Do two batches hold the same polynomials?  Trimming is canonical, so
    equality of the zero-padded arrays is equality of the trimmed ones."""
    shape = tuple(np.maximum(x.shape, y.shape))
    return np.array_equal(_embedded(x, shape), _embedded(y, shape))


class _Coefficients:
    """Linear structure shared by the two array-backed types; `_c` is
    always trimmed and read-only."""

    __slots__ = ("_c",)

    @classmethod
    def _from_array(cls, c: np.ndarray):
        obj = cls.__new__(cls)
        obj._c = _trim(c)
        return obj

    def is_zero(self) -> bool:
        return not self._c.size

    def __eq__(self, other) -> bool:
        return isinstance(other, type(self)) and np.array_equal(self._c, other._c)

    def __hash__(self):
        return hash((self._c.shape, (self._c + 0).tobytes()))  # -0.0 -> 0.0

    def __add__(self, other):
        return self._from_array(_summed(self._c, other._c))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, factor: complex):
        return self._from_array(self._c * complex(factor))


def _integer(key, what: str, coeffs) -> int:
    """key as an int; ValueError naming it unless it is an integer (a
    Python or a numpy one), so that 1.5 or 1.0 is not read as 1."""
    if not isinstance(key, numbers.Integral):
        raise ValueError(f"{what} {key!r} in {coeffs!r} is not an integer")
    return int(key)


class TrigPoly(_Coefficients):
    """Trigonometric polynomial sum_n c_n exp(2 pi i n x) on [0,1], stored
    as the array C[n + F, j] of the coefficients of (2 pi)^j."""

    __slots__ = ()

    def __init__(self, coeffs: dict | None = None):
        """coeffs: {frequency: complex, or {power of 2*pi: complex}}."""
        cols = {_integer(n, "frequency", coeffs):
                {_integer(j, "power of 2*pi", coeffs): v for j, v in c.items()}
                if isinstance(c, dict) else {0: c}
                for n, c in (coeffs or {}).items()}
        powers = [j for parts in cols.values() for j in parts]
        if any(j < 0 for j in powers):
            raise ValueError(f"negative power of 2*pi in {coeffs!r}")
        f = max(map(abs, cols), default=0)
        c = np.zeros((2 * f + 1, max(powers, default=-1) + 1), complex)
        for n, parts in cols.items():
            for j, v in parts.items():
                c[n + f, j] = v
        self._c = _trim(c)

    @classmethod
    def mode(cls, n: int, coeff=1) -> "TrigPoly":
        return cls({n: coeff})

    @classmethod
    def one(cls) -> "TrigPoly":
        return cls({0: 1})

    @property
    def coeffs(self) -> dict:
        """{frequency: {power of 2*pi: complex}} for the nonzero
        coefficients, each without its zero parts."""
        cols = zip(_frequencies(self._c).tolist(), self._c.tolist())
        return {n: parts for n, col in cols
                if (parts := {j: v for j, v in enumerate(col) if v})}

    @property
    def max_freq(self) -> int:
        return self._c.shape[0] // 2

    def __mul__(self, other: "TrigPoly") -> "TrigPoly":
        """Pointwise product, summed over the left factor's frequencies in
        ascending order (then over its powers of 2*pi)."""
        return TrigPoly._from_array(
            _trig_products(self._c[None], other._c[None])[0])

    def derivative(self) -> "TrigPoly":
        """d/dx multiplies the n-th coefficient by 2 pi i n, exactly."""
        out = np.zeros((self._c.shape[0], self._c.shape[1] + 1), complex)
        out[:, 1:] = self._c * (1j * _frequencies(self._c))[:, None]
        return TrigPoly._from_array(out)

    def conj(self) -> "TrigPoly":
        return TrigPoly._from_array(self._c[::-1].conj())

    def to_vector(self, n_trunc: int) -> np.ndarray:
        """Complex coefficients on the centered frequency window."""
        f = self.max_freq
        if f > n_trunc:
            raise ValueError(f"frequency {f} exceeds window {n_trunc}")
        vec = np.zeros(2 * n_trunc + 1, dtype=complex)
        vec[n_trunc - f:n_trunc + f + 1] = _evaluate(self._c)
        return vec

    def __repr__(self):
        return f"TrigPoly({self.coeffs!r})"


class CCRPolynomial(_Coefficients):
    """Formal polynomial sum_k phi_k p^k, stored as the array C[k, n + F, j]."""

    __slots__ = ()

    def __init__(self, coeffs=()):
        """coeffs: phi_0, phi_1, ... as TrigPoly objects or their dicts."""
        self._c = CCRPolynomial.from_terms(enumerate(coeffs))._c

    @classmethod
    def from_terms(cls, terms) -> "CCRPolynomial":
        """terms: iterable of (power, TrigPoly or its dict); powers may repeat."""
        total = np.zeros((0, 1, 0), complex)
        for k, phi in terms:
            phi = phi if isinstance(phi, TrigPoly) else TrigPoly(phi)
            total = _summed(total, np.pad(phi._c[None], ((k, 0), (0, 0), (0, 0))))
        return cls._from_array(total)

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
    def coeffs(self) -> tuple:
        """(phi_0, ..., phi_degree) as TrigPoly objects."""
        return tuple(TrigPoly._from_array(phi) for phi in self._c)

    @property
    def degree(self) -> int:
        return self._c.shape[0] - 1  # -1 for the zero polynomial

    @property
    def max_freq(self) -> int:
        return self._c.shape[1] // 2

    def __repr__(self):
        return f"CCRPolynomial({list(self.coeffs)!r})"


def _binomials(size: int) -> np.ndarray:
    """table[r, k] = C(k, r) for r, k < size."""
    return np.array([[math.comb(k, r) for k in range(size)]
                     for r in range(size)], dtype=float)


def ccr_mul(q1: CCRPolynomial, q2: CCRPolynomial) -> CCRPolynomial:
    """Noncommutative product induced by the Leibniz rule (`_leibniz`)."""
    return CCRPolynomial._from_array(_leibniz(q1._c[None], q2._c[None])[0])


def ccr_star(q: CCRPolynomial) -> CCRPolynomial:
    """Involution (`_involution`)."""
    return CCRPolynomial._from_array(_involution(q._c[None])[0])


# ---------------------------------------------------------------------------
# Batched kernels on (s, k, n, j) arrays, one sample per leading index

def _leibniz(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products a[i] b[i]: moving p^k through psi gives
    sum_r C(k, r) (-i d/dx)^r psi p^(k-r).

    On the arrays (-i)^r (2 pi i n)^r = n^r (2 pi)^r, so Leibniz term r
    pairs every cell of a at a power k >= r, weighted C(k, r), with every
    cell of b, weighted n^r, and lands r powers of p lower and r powers of
    2*pi higher.  A cell of b at frequency n meets all terms of all of a,
    so the loop runs over the nonzero cells of b (in any sample) and adds
    the template for its frequency, shifted to the cell and scaled per
    sample.  Samples sit on the last axis inside, so every add runs over
    contiguous memory.  A cell's terms are summed in another order than
    one by one; on Gaussian-integer and dyadic data every partial sum is
    exact, so the bits are the same.
    """
    s, (k1, n1, j1), (k2, n2, j2) = len(a), a.shape[1:], b.shape[1:]
    if not (k1 and j1 and k2 and j2):
        return np.zeros((s, 0, 1, 0), complex)
    powers = _frequencies(b).astype(float) ** np.arange(k1)[:, None]
    binom = _binomials(k1)
    a, b = (np.ascontiguousarray(np.moveaxis(c, 0, -1)) for c in (a, b))
    templates = np.zeros((n2, k1, n1, k1 + j1 - 1, s), complex)
    for r in range(k1):
        templates[:, :k1 - r, :, r:r + j1] += (
            powers[r, :, None, None, None, None]
            * (binom[r, r:, None, None, None] * a[r:]))
    out = np.zeros((k1 + k2 - 1, n1 + n2 - 1, k1 + j1 + j2 - 2, s), complex)
    for k, n, j in zip(*np.nonzero(b.any(axis=-1))):
        out[k:k + k1, n:n + n1, j:j + k1 + j1 - 1] += b[k, n, j] * templates[n]
    return np.moveaxis(out, -1, 0)


def _involution(c: np.ndarray) -> np.ndarray:
    """Involutions c[i]*: (phi p^k)* = sum_r (-i)^r C(k,r) conj(phi)^(r)
    p^(k-r), where (-i)^r (2 pi i n)^r = n^r (2 pi)^r on the arrays."""
    s, k, n, j = c.shape
    if not (k and j):
        return np.zeros((s, 0, 1, 0), complex)
    conj = c[:, :, ::-1].conj()
    freq = _frequencies(c).astype(float)[:, None]
    binom = _binomials(k)
    out = np.zeros((s, k, n, j + k - 1), complex)
    for r in range(k):
        out[:, :k - r, :, r:r + j] += (binom[r, r:, None, None] * freq ** r
                                       * conj[:, r:])
    return out


def _trig_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise products a[i] b[i] of (s, n, j) TrigPoly arrays.

    Each output cell sums over the cells of a in ascending order, then over
    those of b, in one bincount per real and imaginary part.  It takes the
    cells nonzero in any sample: a zero cell adds only signed zeros, so for
    finite data every sample's bits are those of its own product.  The
    complex products are written out in real arithmetic, so each one
    rounds exactly as Python's complex product does; numpy's complex
    multiply fuses a multiply-add and can differ in the last bit.
    """
    s, (n1, j1), (n2, j2) = len(a), a.shape[1:], b.shape[1:]
    if not (j1 and j2):
        return np.zeros((s, 1, 0), complex)
    n, j = n1 + n2 - 1, j1 + j2 - 1
    na, ja = np.nonzero(a.any(axis=0))
    nb, jb = np.nonzero(b.any(axis=0))
    left, right = a[:, na, ja, None], b[:, None, nb, jb]  # (s, p, 1), (s, 1, q)
    at = (np.arange(s)[:, None, None] * (n * j) + (na * j + ja)[:, None]
          + (nb * j + jb)).ravel()
    out = np.empty(s * n * j, complex)
    out.real = np.bincount(at, (left.real * right.real
                                - left.imag * right.imag).ravel(), s * n * j)
    out.imag = np.bincount(at, (left.real * right.imag
                                + left.imag * right.real).ravel(), s * n * j)
    return out.reshape(s, n, j)


# Batches are cut into chunks of at most this many samples, which bounds the
# kernels' temporary arrays whatever the sample count.
BATCH_SAMPLES = 256


def _batches(draws: np.ndarray):
    return (draws[i:i + BATCH_SAMPLES]
            for i in range(0, len(draws), BATCH_SAMPLES))


# ---------------------------------------------------------------------------
# Spectral representation on the Fourier truncation

def freqs(n_trunc: int) -> np.ndarray:
    return np.arange(-n_trunc, n_trunc + 1)


def _band_matrices(values: np.ndarray, n_trunc: int) -> np.ndarray:
    """Multiplication by each row of centered coefficient values as the
    banded shift matrix on the window (entry (i, j): frequency i - j),
    as a strided read-only view; copy it before a matrix product, which
    would not reach BLAS through its negative strides."""
    dim = 2 * n_trunc + 1
    f = values.shape[-1] // 2
    if f >= dim:
        values = values[..., f - dim + 1:f + dim]
        f = dim - 1
    full = np.zeros(values.shape[:-1] + (2 * dim - 1,), complex)
    full[..., dim - 1 - f:dim + f] = values
    return np.lib.stride_tricks.sliding_window_view(
        full[..., ::-1], dim, axis=-1)[..., ::-1, :]


def ccr_represent(q: CCRPolynomial, n_trunc: int) -> TruncatedOperator:
    """sum_k (multiplication by phi_k) (momentum)^k on the centered Fourier
    window |n| <= n_trunc, as a dense operator."""
    if n_trunc < q.max_freq + 1:
        raise ValueError(
            f"truncation too small: need n_trunc >= {q.max_freq + 1}")
    dim = 2 * n_trunc + 1
    d_p = TWO_PI * freqs(n_trunc)
    bands = _band_matrices(_evaluate(q._c), n_trunc)
    mat = np.zeros((dim, dim), dtype=complex)
    for k, phi in enumerate(q._c):
        if phi.any():
            mat += bands[k] * (d_p ** k)[np.newaxis, :]
    return TruncatedOperator(mat)


def safe_indices(n_trunc: int, margin: int) -> np.ndarray:
    """Window positions whose frequency survives a support growth of margin."""
    if margin >= n_trunc:
        raise ValueError(f"margin {margin} leaves no safe subspace at "
                         f"truncation {n_trunc}")
    return np.nonzero(np.abs(freqs(n_trunc)) <= n_trunc - margin)[0]


# ---------------------------------------------------------------------------
# Graph topology seminorms

def graph_seminorm(phi, k: int) -> float:
    """|(1 + P^2)^k phi| for a centered Fourier vector (_graph_seminorms)."""
    phi = np.asarray(phi, dtype=complex)
    if len(phi) % 2 != 1:
        raise ValueError("expected a centered vector of odd length")
    return float(_graph_seminorms(phi[None, :, None], k)[0])


def _graph_seminorms(c: np.ndarray, k: int) -> np.ndarray:
    """Graph seminorms of (s, n, j) TrigPoly arrays: the square root of
    sum_n (1 + 4 pi^2 n^2)^(2k) |phi_n|^2, added one frequency at a time in
    ascending order.  The weights are Python float powers, and
    np.hypot(re, im) rounds as Python's abs of a complex does."""
    weights = np.array([(1.0 + (TWO_PI * n) ** 2) ** (2 * k)
                        for n in _frequencies(c).tolist()])
    values = _evaluate(c)
    terms = weights * np.hypot(values.real, values.imag) ** 2
    return np.sqrt(np.cumsum(terms, axis=-1)[:, -1])


# Integer random coefficients have real and imaginary parts in
# [-RANDOM_SCALE, RANDOM_SCALE]; submultiplicativity_probe draws trigonometric
# polynomials up to frequency SUBMULT_MAX_FREQ, exact_identities CCR
# polynomials of degree SYMBOLIC_DEGREE up to frequency SYMBOLIC_MAX_FREQ.
RANDOM_SCALE = 2
SUBMULT_MAX_FREQ = 8
SYMBOLIC_DEGREE = 3
SYMBOLIC_MAX_FREQ = 3


def _random_coefficients(rng, shape: tuple, integer: bool) -> np.ndarray:
    """Complex draws in C order, each real part drawn before its imaginary
    part, as the array C[..., n + F, 0]."""
    if integer:
        draws = rng.integers(-RANDOM_SCALE, RANDOM_SCALE + 1,
                             size=(*shape, 2)).astype(float)
    else:
        draws = rng.standard_normal((*shape, 2))
    return draws.view(complex)


def random_ccr_polynomial(rng, degree: int, max_freq: int) -> CCRPolynomial:
    return CCRPolynomial._from_array(_random_coefficients(
        rng, (degree + 1, 2 * max_freq + 1), True))


def exact_identities(rng, samples: int) -> bool:
    """Do **q1 = q1, (q1 q2)* = q2* q1* and (q1 q2) q3 = q1 (q2 q3) hold
    coefficient-exactly on `samples` triples of random polynomials?

    The triples come from one draw, the same stream as 3 * samples
    random_ccr_polynomial(rng, SYMBOLIC_DEGREE, SYMBOLIC_MAX_FREQ) calls in
    the order q1, q2, q3 per sample, and
    each side of an identity is one batched kernel call.
    """
    draws = _random_coefficients(
        rng, (samples, 3, SYMBOLIC_DEGREE + 1, 2 * SYMBOLIC_MAX_FREQ + 1), True)
    for batch in _batches(draws):
        q1, q2, q3 = batch[:, 0], batch[:, 1], batch[:, 2]
        star1, q12 = _involution(q1), _leibniz(q1, q2)
        if not (_same(_involution(star1), q1)
                and _same(_involution(q12), _leibniz(_involution(q2), star1))
                and _same(_leibniz(q12, q3), _leibniz(q1, _leibniz(q2, q3)))):
            return False
    return True


def submultiplicativity_probe(k: int, n_pairs: int = 40,
                              seed: int = 0) -> dict:
    """Empirical constant in |phi chi|_k <= c_k |phi|_k |chi|_k.

    Reports the largest observed ratio over a seeded sample and the value
    at half the sample size, so growth under sample refinement is visible.
    The pairs come from one draw of standard normal coefficients: phi
    then chi for each pair, each polynomial's frequencies in increasing
    order from -SUBMULT_MAX_FREQ, each real part before its imaginary
    part.  Their products come from one batched call.

    Returns the keys k, max_ratio, half_sample_ratio, n_pairs (pairs with
    a nonzero denominator) and stable.
    """
    rng = np.random.default_rng(seed)
    draws = _random_coefficients(
        rng, (n_pairs, 2, 2 * SUBMULT_MAX_FREQ + 1), False)
    ratios = []
    for batch in _batches(draws):
        phi, chi = batch[:, 0], batch[:, 1]
        denom = _graph_seminorms(phi, k) * _graph_seminorms(chi, k)
        kept = denom != 0
        ratios += (_graph_seminorms(_trig_products(phi, chi), k)[kept]
                   / denom[kept]).tolist()
    half = float(np.max(ratios[:max(1, len(ratios) // 2)]))
    worst = float(np.max(ratios))
    # stable: doubling the sample must not blow the estimate up
    return {"k": k, "max_ratio": worst, "half_sample_ratio": half,
            "n_pairs": len(ratios), "stable": worst <= 2.0 * max(half, 1.0)}


# ---------------------------------------------------------------------------
# Representation checks

def homomorphism_check(q1: CCRPolynomial, q2: CCRPolynomial,
                       n_trunc: int) -> dict:
    """Residual of pi(q1 q2) = pi(q1) pi(q2) on the safe subspace: the keys
    residual, relative_residual (over scale, the larger matrix entry of
    the two sides) and safe_dim."""
    margin = q1.max_freq + q2.max_freq
    safe = safe_indices(n_trunc, margin)
    lhs = ccr_represent(ccr_mul(q1, q2), n_trunc).matrix
    rhs = ccr_represent(q1, n_trunc).matrix @ ccr_represent(q2, n_trunc).matrix
    diff = np.max(np.abs((lhs - rhs)[:, safe])) if len(safe) else 0.0
    scale = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))), 1e-300)
    return {"residual": float(diff), "relative_residual": float(diff) / scale,
            "scale": scale, "safe_dim": len(safe)}


def adjoint_check(q: CCRPolynomial, n_trunc: int) -> float:
    """Residual of pi(q)^dagger = pi(q*) on the safe subspace (both sides
    restricted, since the adjoint of a clipped band differs at the edge)."""
    margin = max(q.max_freq, ccr_star(q).max_freq)
    safe = safe_indices(n_trunc, margin)
    lhs = ccr_represent(q, n_trunc).adjoint().matrix
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
    norms = []
    for m in range(min(q.degree, n_trunc - q.max_freq) + 1):
        probe = np.zeros(dim, dtype=complex)
        probe[m + n_trunc] = 1.0
        norms.append(float(np.linalg.norm(op.apply(probe))))
    return float(np.max(norms, initial=0.0))


def uniform_seminorm_identity(phi_vec: np.ndarray, test_polys,
                              n_trunc: int) -> tuple[float, float]:
    """Both sides of |pi(Phi)|_M = |Phi|_(M* M) for a coefficient vector.

    The left side pairs the convolution action against the test family;
    the right side pairs Phi directly against the products conj(f) g.
    Returns (lhs, rhs); polynomially growing Phi vectors are fine, and a
    NaN in Phi makes both sides NaN.
    """
    phi_vec = np.asarray(phi_vec, dtype=complex)
    conv = np.array(_band_matrices(_evaluate(phi_vec[:, None]), n_trunc))
    vectors = [f.to_vector(n_trunc) for f in test_polys]
    images = [conv @ fv for fv in vectors]
    lhs = [abs(complex(np.vdot(gv, img))) for img in images for gv in vectors]
    rhs = [abs(complex(np.vdot((f.conj() * g).to_vector(n_trunc), phi_vec)))
           for f in test_polys for g in test_polys]
    return float(np.max(lhs, initial=0.0)), float(np.max(rhs, initial=0.0))
