"""The array-backed CCR algebra: golden values recorded from the earlier
dict-of-dict implementation, canonical form of the coefficient arrays, the
Leibniz product and involution against a cell-by-cell reference, and the
batched kernels and draws against the same computations one sample at a
time."""

import json
import math
import os

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (polynomial_from_literal, polynomial_to_literal,
                      random_trig_poly)
from qstarlab import ccr
from qstarlab.ccr import (CCRPolynomial, TrigPoly, ccr_mul,
                          ccr_star, exact_identities, homomorphism_check,
                          random_ccr_polynomial)

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "ccr_golden.json")


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Golden values (compared with ==, not approximately)

def test_golden_random_products_and_star():
    golden = load_golden()["random"]
    rng = np.random.default_rng(golden["seed"])
    q1, q2, q3 = (random_ccr_polynomial(rng, golden["degree"],
                                        golden["max_freq"]) for _ in range(3))
    assert polynomial_to_literal(q1) == golden["q1"]
    assert polynomial_to_literal(ccr_mul(q1, q2)) == golden["product"]
    assert polynomial_to_literal(ccr_star(q1)) == golden["star"]
    assert polynomial_to_literal(ccr_mul(ccr_mul(q1, q2), q3)) \
        == golden["triple"]


def test_golden_dyadic_product():
    golden = load_golden()["dyadic"]
    a = polynomial_from_literal(golden["a"])
    b = polynomial_from_literal(golden["b"])
    prod = ccr_mul(a, b)
    assert polynomial_to_literal(prod) == golden["product"]
    assert polynomial_to_literal(ccr_star(prod)) == golden["star"]


def test_golden_submultiplicativity_seminorms():
    golden = load_golden()["submultiplicativity"]
    rng = np.random.default_rng(golden["seed"])
    for expected in golden["seminorms"]:
        phi = random_trig_poly(rng, golden["max_freq"], integer=False)
        chi = random_trig_poly(rng, golden["max_freq"], integer=False)
        assert [float(ccr._graph_seminorms((phi * chi)._c[None], k)[0])
                for k in golden["ks"]] == expected


# ---------------------------------------------------------------------------
# Canonical form: stored shape never shows through == or hash

def padded(q, k=0, n=0, j=0):
    """The same polynomial built from its array with trailing zero powers of
    p and of 2*pi and with extra zero frequencies on both sides."""
    return type(q)._from_array(
        np.pad(np.asarray(q._c), [(0, k), (n, n), (0, j)][-q._c.ndim:]))


def test_zero_differences_are_the_zero_polynomial():
    rng = np.random.default_rng(7)
    q = random_ccr_polynomial(rng, 3, 2)
    assert q - q == CCRPolynomial()
    assert hash(q - q) == hash(CCRPolynomial())
    assert (q - q).degree == -1 and (q - q).max_freq == 0
    phi = q.coeffs[1]
    assert phi - phi == TrigPoly() and (phi - phi).is_zero()
    assert ccr_mul(q, q - q) == CCRPolynomial()
    assert ccr_star(CCRPolynomial()) == CCRPolynomial()


def test_trailing_zeros_do_not_change_equality_or_hash():
    rng = np.random.default_rng(8)
    q = ccr_mul(random_ccr_polynomial(rng, 2, 2),
                random_ccr_polynomial(rng, 1, 1))
    for k, n, j in [(1, 0, 0), (0, 2, 0), (0, 0, 3), (2, 1, 1)]:
        other = padded(q, k, n, j)
        assert other == q and hash(other) == hash(q)
        assert other._c.shape == q._c.shape
    phi = q.coeffs[0]
    assert padded(phi, n=3, j=2) == phi
    assert hash(padded(phi, n=3, j=2)) == hash(phi)
    # explicit zeros through the public constructors
    assert TrigPoly({0: 1, 4: 0, -2: {1: 0}}) == TrigPoly.one()
    assert TrigPoly({0: {0: 2, 3: 0}}) == TrigPoly({0: 2})
    assert CCRPolynomial([{1: 1j}, TrigPoly(), {}]) \
        == CCRPolynomial([{1: 1j}])
    # a signed zero is zero
    assert TrigPoly({0: complex(1, -0.0)}) == TrigPoly({0: 1})
    assert hash(TrigPoly({0: complex(1, -0.0)})) == hash(TrigPoly({0: 1}))


def test_arrays_are_trimmed_and_read_only():
    q = CCRPolynomial([TrigPoly({-1: 1, 1: 0}), TrigPoly()])
    assert q._c.shape == (1, 3, 1) and q.max_freq == 1 and q.degree == 0
    assert not q._c.flags.writeable
    assert TrigPoly({2: 1})._c.shape == (5, 1)
    assert CCRPolynomial()._c.shape == (0, 1, 0)
    assert TrigPoly()._c.shape == (1, 0)


# ---------------------------------------------------------------------------
# Product and involution against a cell-by-cell reference

def cells(q) -> dict:
    """{(power of p, frequency, power of 2*pi): coefficient}."""
    return {(k, n, j): v for k, phi in enumerate(q.coeffs)
            for n, parts in phi.coeffs.items()
            for j, v in parts.items()}


def reference_mul(q1, q2) -> dict:
    """Leibniz rule term by term: phi p^k psi = sum_r C(k, r) phi
    (-i d/dx)^r psi p^(k-r), with (-i)^r (2 pi i n)^r = n^r (2 pi)^r."""
    out: dict = {}
    for (k, n1, j1), v1 in cells(q1).items():
        for (l, n2, j2), v2 in cells(q2).items():
            for r in range(k + 1):
                key = (k - r + l, n1 + n2, j1 + j2 + r)
                out[key] = out.get(key, 0) + math.comb(k, r) * n2 ** r * v1 * v2
    return {key: v for key, v in out.items() if v != 0}


def reference_star(q) -> dict:
    """(phi p^k)* = sum_r C(k, r) n^r (2 pi)^r conj(phi)_n p^(k-r)."""
    out: dict = {}
    for (k, n, j), v in cells(q).items():
        for r in range(k + 1):
            key = (k - r, -n, j + r)
            out[key] = out.get(key, 0) + math.comb(k, r) * (-n) ** r \
                * v.conjugate()
    return {key: v for key, v in out.items() if v != 0}


@st.composite
def gaussian_polys(draw, max_degree=3, max_freq=2, max_power=1):
    """Mixed-degree Gaussian-integer polynomials, including the zero
    polynomial and pure powers p^k, with powers of 2*pi in the coefficients."""
    kind = draw(st.sampled_from(["zero", "pure", "mixed"]))
    if kind == "zero":
        return CCRPolynomial()
    degree = draw(st.integers(0, max_degree))
    if kind == "pure":
        return CCRPolynomial([TrigPoly()] * degree + [TrigPoly.one()])
    gauss = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3))
    coeffs = []
    for _ in range(degree + 1):
        freq = draw(st.integers(0, max_freq))
        coeffs.append(TrigPoly({
            n: {j: draw(gauss) for j in range(draw(st.integers(0, max_power)) + 1)}
            for n in range(-freq, freq + 1)}))
    return CCRPolynomial(coeffs)


@settings(max_examples=60, deadline=None)
@given(gaussian_polys(), gaussian_polys())
def test_mul_and_star_match_reference(q1, q2):
    assert cells(ccr_mul(q1, q2)) == reference_mul(q1, q2)
    assert cells(ccr_star(q1)) == reference_star(q1)


@settings(max_examples=40, deadline=None)
@given(gaussian_polys(max_power=0), gaussian_polys(max_power=0))
def test_homomorphism_on_mixed_degrees(q1, q2):
    check = homomorphism_check(q1, q2, 12)
    assert check["safe_dim"] == 2 * (12 - q1.max_freq - q2.max_freq) + 1
    if q1.is_zero() or q2.is_zero():
        assert check["residual"] == 0.0
    assert check["relative_residual"] < 1e-12


# ---------------------------------------------------------------------------
# Batched kernels against one sample at a time

def stacked(items) -> np.ndarray:
    """The arrays of polynomials (or TrigPolys) of mixed shapes as one
    batch, each zero-padded to the common shape, frequency centred."""
    shape = tuple(np.max([q._c.shape for q in items], axis=0))
    return np.stack([ccr._embedded(q._c, shape) for q in items])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(gaussian_polys(), gaussian_polys()),
                min_size=1, max_size=5))
def test_batched_mul_and_star_match_reference(pairs):
    left, right = stacked([a for a, _ in pairs]), stacked([b for _, b in pairs])
    products, stars = ccr._leibniz(left, right), ccr._involution(left)
    for (q1, q2), prod, star in zip(pairs, products, stars):
        assert cells(CCRPolynomial._from_array(prod)) == reference_mul(q1, q2)
        assert cells(CCRPolynomial._from_array(star)) == reference_star(q1)


def reference_trig_mul(phi, chi) -> dict:
    """{(frequency, power of 2*pi): coefficient}, each summed in Python over
    the cells of phi in ascending order, then those of chi."""
    out: dict = {}
    for (n1, j1), v1 in sorted(trig_cells(phi).items()):
        for (n2, j2), v2 in sorted(trig_cells(chi).items()):
            key = (n1 + n2, j1 + j2)
            out[key] = out.get(key, 0) + v1 * v2
    return {key: v for key, v in out.items() if v != 0}


def trig_cells(phi) -> dict:
    return {(n, j): v for n, parts in phi.coeffs.items()
            for j, v in parts.items()}


def reference_graph_seminorm(phi, k) -> float:
    """The graph seminorm of one TrigPoly as a Python loop over the
    frequencies."""
    total = 0.0
    for n, parts in sorted(phi.coeffs.items()):
        value = sum((v * (2 * math.pi) ** j
                     for j, v in sorted(parts.items())), 0j)
        total += (1.0 + (2 * math.pi * n) ** 2) ** (2 * k) * abs(value) ** 2
    return math.sqrt(total)


def normal_trig_polys(rng, count):
    """Standard-normal TrigPolys of mixed frequency ranges and powers of
    2*pi, with zero cells, a single mode and the zero TrigPoly among them."""
    polys = [TrigPoly(), TrigPoly.mode(-3, 0.3 - 1.1j)]
    while len(polys) < count:
        f, j = rng.integers(0, 6), rng.integers(1, 4)
        c = rng.standard_normal((2 * f + 1, j, 2)).view(complex)[..., 0]
        c[rng.random(c.shape) < 0.2] = 0
        polys.append(TrigPoly._from_array(c))
    return polys


def test_batched_trig_products_and_seminorms_match_the_loop():
    # non-dyadic data: only the per-cell summation order keeps the bits
    rng = np.random.default_rng(11)
    phis, chis = normal_trig_polys(rng, 12), normal_trig_polys(rng, 12)[::-1]
    products = ccr._trig_products(stacked(phis), stacked(chis))
    for phi, chi, prod in zip(phis, chis, products):
        assert trig_cells(TrigPoly._from_array(prod)) \
            == reference_trig_mul(phi, chi)
        assert TrigPoly._from_array(prod) == phi * chi
    for k in (0, 1, 2):
        norms = ccr._graph_seminorms(stacked(phis), k)
        assert norms.tolist() == [reference_graph_seminorm(phi, k)
                                  for phi in phis]
        assert norms.tolist() == [ccr._graph_seminorms(phi._c[None], k)[0]
                                  for phi in phis]


def test_batched_draws_follow_the_sequential_stream():
    for seed, samples in ((0, 25), (3, 1), (7, ccr.BATCH_SAMPLES + 5)):
        rng, batched = np.random.default_rng(seed), np.random.default_rng(seed)
        polys = [random_ccr_polynomial(rng, 3, 3) for _ in range(3 * samples)]
        draws = ccr._random_coefficients(batched, (samples, 3, 4, 7), True)
        assert batched.bit_generator.state == rng.bit_generator.state
        assert polys == [CCRPolynomial._from_array(c)
                         for c in draws.reshape(3 * samples, 4, 7, 1)]
        again = np.random.default_rng(seed)
        assert exact_identities(again, samples)
        assert again.bit_generator.state == rng.bit_generator.state

        rng, batched = np.random.default_rng(seed), np.random.default_rng(seed)
        polys = [random_trig_poly(rng, 8, integer=False)
                 for _ in range(2 * samples)]
        draws = ccr._random_coefficients(batched, (samples, 2, 17), False)
        assert batched.bit_generator.state == rng.bit_generator.state
        assert polys == [TrigPoly._from_array(c)
                         for c in draws.reshape(2 * samples, 17, 1)]


def test_exact_identities_see_a_wrong_product(monkeypatch):
    # one cell off in the last sample of every product breaks an identity
    leibniz = ccr._leibniz

    def off_by_one(a, b):
        out = leibniz(a, b)
        out[-1, 0, out.shape[2] // 2, 0] += 1
        return out

    assert exact_identities(np.random.default_rng(5), 30)
    monkeypatch.setattr(ccr, "_leibniz", off_by_one)
    assert not exact_identities(np.random.default_rng(5), 30)
