import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (momentum_matrix, polynomial_from_literal,
                      polynomial_to_literal)
from qstarlab import ccr
from qstarlab.ccr import (CCRPolynomial, TrigPoly, adjoint_check,
                          ccr_mul, ccr_represent, ccr_star,
                          faithfulness_defect, freqs,
                          graph_seminorm, homomorphism_check,
                          random_ccr_polynomial, safe_indices,
                          submultiplicativity_probe, uniform_seminorm_identity)

TWO_PI = 2 * math.pi


# ---------------------------------------------------------------------------
# Trigonometric polynomials

def test_trig_poly_coefficient_dicts():
    phi = TrigPoly({0: 3, 1: {0: 1 + 1j, 1: 2, 2: 0}, -1: {3: 0}})
    assert phi.coeffs == {0: {0: 3}, 1: {0: 1 + 1j, 1: 2}}
    assert TrigPoly(phi.coeffs) == phi
    with pytest.raises(ValueError, match="negative power"):
        TrigPoly({0: {-1: 1}})


def test_trig_poly_keys_must_be_integers():
    # 1.5 used to be read as frequency 1, and a float power raised a bare
    # numpy TypeError
    for coeffs, key in (({1.5: 1}, "frequency 1.5"), ({1.0: 1}, "frequency 1.0"),
                        ({0: {1.0: 2}}, "power of 2\\*pi 1.0"),
                        ({2: {0.5: 1}}, "power of 2\\*pi 0.5")):
        with pytest.raises(ValueError, match=f"{key} in .* is not an integer"):
            TrigPoly(coeffs)
    assert TrigPoly({np.int64(2): {np.int32(1): 3}}) == TrigPoly({2: {1: 3}})


def test_trig_poly_product_and_derivative():
    e1 = TrigPoly.mode(1)
    assert (e1 * e1) == TrigPoly.mode(2)
    d = e1.derivative()
    assert d.coeffs == {1: {1: 1j}}
    assert TrigPoly.mode(0, 5).derivative().is_zero()


def test_trig_poly_vector_window():
    v = TrigPoly({2: 1j, -1: 2}).to_vector(3)
    assert v[3 + 2] == 1j and v[3 - 1] == 2
    with pytest.raises(ValueError):
        TrigPoly({5: 1}).to_vector(3)


# ---------------------------------------------------------------------------
# Product and involution formulas

def test_mul_momentum_with_coefficient():
    psi = TrigPoly({1: 2.0, -1: 3.0 - 1j})
    prod = ccr_mul(CCRPolynomial.momentum(), CCRPolynomial.multiplication(psi))
    expected = CCRPolynomial([psi.derivative().scale(-1j), psi])
    assert prod == expected


def test_mul_degree_zero_is_pointwise():
    phi = TrigPoly({0: 2.0, 1: 1j})
    psi = TrigPoly({-1: 1.0, 2: 0.5})
    q = CCRPolynomial([TrigPoly(), TrigPoly(), psi])  # psi p^2
    prod = ccr_mul(CCRPolynomial.multiplication(phi), q)
    assert prod == CCRPolynomial([TrigPoly(), TrigPoly(), phi * psi])


def test_mul_momentum_squared():
    p = CCRPolynomial.momentum()
    assert ccr_mul(p, p) == CCRPolynomial([TrigPoly(), TrigPoly(),
                                           TrigPoly.one()])


def test_star_examples():
    phi = TrigPoly({1: 1 + 2j, 0: -1j})
    assert ccr_star(CCRPolynomial.multiplication(phi)) \
        == CCRPolynomial([phi.conj()])
    p = CCRPolynomial.momentum()
    assert ccr_star(p) == p
    got = ccr_star(CCRPolynomial([TrigPoly(), phi]))
    expected = CCRPolynomial([phi.conj().derivative().scale(-1j), phi.conj()])
    assert got == expected


def test_degree_additivity_and_distributivity():
    rng = np.random.default_rng(0)
    q1 = random_ccr_polynomial(rng, 2, 2)
    q2 = random_ccr_polynomial(rng, 3, 2)
    q3 = random_ccr_polynomial(rng, 1, 2)
    prod = ccr_mul(q1, q2)
    if not q1.is_zero() and not q2.is_zero():
        assert prod.degree == q1.degree + q2.degree
    lhs = ccr_mul(q1, q2 + q3)
    rhs = ccr_mul(q1, q2) + ccr_mul(q1, q3)
    assert lhs == rhs


@st.composite
def ccr_polys(draw, degree=2, freq=2, scale=2):
    coeffs = []
    for _ in range(degree + 1):
        entries = {}
        for n in range(-freq, freq + 1):
            re = draw(st.integers(-scale, scale))
            im = draw(st.integers(-scale, scale))
            if re or im:
                entries[n] = complex(re, im)
        coeffs.append(TrigPoly(entries))
    return CCRPolynomial(coeffs)


@settings(max_examples=20, deadline=None)
@given(ccr_polys(), ccr_polys())
def test_star_antimultiplicative_exact(q1, q2):
    assert ccr_star(ccr_mul(q1, q2)) == ccr_mul(ccr_star(q2), ccr_star(q1))


@settings(max_examples=20, deadline=None)
@given(ccr_polys())
def test_star_involutive_exact(q):
    assert ccr_star(ccr_star(q)) == q


@settings(max_examples=10, deadline=None)
@given(ccr_polys(degree=2, freq=1), ccr_polys(degree=1, freq=2),
       ccr_polys(degree=2, freq=1))
def test_associativity_exact(q1, q2, q3):
    assert ccr_mul(ccr_mul(q1, q2), q3) == ccr_mul(q1, ccr_mul(q2, q3))


# ---------------------------------------------------------------------------
# Spectral representation

def test_represent_momentum_small_window():
    op = ccr_represent(CCRPolynomial.momentum(), 1)
    assert np.allclose(op.matrix, np.diag([-TWO_PI, 0.0, TWO_PI]))


def test_represent_unit_is_identity():
    op = ccr_represent(CCRPolynomial.one(), 3)
    assert np.allclose(op.matrix, np.eye(7))


def test_represent_single_mode_is_shift():
    op = ccr_represent(CCRPolynomial.multiplication(TrigPoly.mode(1)), 2)
    expected = np.zeros((5, 5))
    for j in range(4):
        expected[j + 1, j] = 1.0
    assert np.allclose(op.matrix, expected)


def test_represent_truncation_too_small():
    q = CCRPolynomial.multiplication(TrigPoly.mode(3))
    with pytest.raises(ValueError, match="truncation too small"):
        ccr_represent(q, 3)


def test_commutation_relation_residual():
    phi = TrigPoly({0: 1.0, 1: 0.5 + 0.25j, -1: 0.5 - 0.25j, 2: -0.125j})
    p_mat = momentum_matrix(64)
    f_mat = ccr_represent(CCRPolynomial.multiplication(phi), 64).matrix
    comm = p_mat @ f_mat - f_mat @ p_mat
    target = ccr_represent(
        CCRPolynomial.multiplication(phi.derivative().scale(-1j)), 64).matrix
    assert np.max(np.abs(comm - target)) < 1e-10


def test_homomorphism_check_examples():
    rng = np.random.default_rng(1)
    zero = CCRPolynomial()
    q = random_ccr_polynomial(rng, 2, 2)
    assert homomorphism_check(zero, q, 16)["residual"] == 0.0
    p = CCRPolynomial.momentum()
    assert homomorphism_check(p, p, 16)["residual"] == 0.0  # diagonals commute
    check = homomorphism_check(random_ccr_polynomial(rng, 2, 2),
                               random_ccr_polynomial(rng, 2, 2), 64)
    assert check["residual"] < 1e-10 * max(check["scale"], 1.0)
    assert check["relative_residual"] < 1e-12


def test_homomorphism_residual_decays_with_truncation():
    rng = np.random.default_rng(2)
    q1 = random_ccr_polynomial(rng, 2, 1)
    q2 = random_ccr_polynomial(rng, 1, 1)
    for n_trunc in (8, 16, 32):
        check = homomorphism_check(q1, q2, n_trunc)
        assert check["relative_residual"] < 1e-12


def test_homomorphism_margin_violation():
    q = CCRPolynomial.multiplication(TrigPoly.mode(3))
    with pytest.raises(ValueError, match="safe subspace"):
        homomorphism_check(q, q, 6)


def test_adjoint_compatibility():
    rng = np.random.default_rng(3)
    for _ in range(5):
        q = random_ccr_polynomial(rng, 2, 2)
        assert adjoint_check(q, 32) < 1e-10


def test_faithfulness_probes():
    assert faithfulness_defect(CCRPolynomial(), 8) == 0.0
    rng = np.random.default_rng(4)
    for _ in range(10):
        q = random_ccr_polynomial(rng, 2, 2)
        if q.is_zero():
            continue
        assert faithfulness_defect(q, 32) > 1e-8
    # a NaN coefficient gives a NaN defect, not the 0 of the zero polynomial
    spoiled = CCRPolynomial.from_terms([(0, TrigPoly({0: np.nan})),
                                        (1, TrigPoly({0: 1.0}))])
    assert np.isnan(faithfulness_defect(spoiled, 32))


def test_safe_indices():
    idx = safe_indices(4, 2)
    assert np.array_equal(freqs(4)[idx], np.arange(-2, 3))
    with pytest.raises(ValueError):
        safe_indices(4, 4)


# ---------------------------------------------------------------------------
# Graph seminorms

def test_graph_seminorm_values():
    e0 = TrigPoly.mode(0).to_vector(4)
    for k in (0, 1, 3):
        assert graph_seminorm(e0, k) == pytest.approx(1.0)
    e1 = TrigPoly.mode(1).to_vector(4)
    assert graph_seminorm(e1, 1) == pytest.approx(1 + 4 * math.pi ** 2,
                                                  abs=1e-10)
    pair = (TrigPoly.mode(1) + TrigPoly.mode(-1)).to_vector(4)
    assert graph_seminorm(pair, 0) == pytest.approx(math.sqrt(2))


def test_graph_seminorm_rejects_uncentered_vector():
    with pytest.raises(ValueError, match="odd length"):
        graph_seminorm(np.ones(4), 1)


def test_graph_seminorm_monotone_in_k():
    rng = np.random.default_rng(5)
    for _ in range(10):
        v = rng.standard_normal(13) + 1j * rng.standard_normal(13)
        for k in range(3):
            assert graph_seminorm(v, k) <= graph_seminorm(v, k + 1) + 1e-12


def poly_graph_seminorm(phi: TrigPoly, k: int) -> float:
    """The graph seminorm of one TrigPoly, a batch of one."""
    return float(ccr._graph_seminorms(phi._c[None], k)[0])


def test_trig_poly_graph_seminorm_agrees_with_vector():
    phi = TrigPoly({0: 1.0, 2: -1j, -1: 0.5})
    for k in (0, 1, 2):
        assert poly_graph_seminorm(phi, k) == pytest.approx(
            graph_seminorm(phi.to_vector(4), k), rel=1e-12)


def test_submultiplicativity_probe(monkeypatch):
    # unit mode pairs force c_k >= 1; products of single modes stay at 1
    assert poly_graph_seminorm(TrigPoly.one() * TrigPoly.one(), 0) \
        == pytest.approx(1.0)
    e1 = TrigPoly.mode(1)
    assert poly_graph_seminorm(e1 * e1, 0) == pytest.approx(1.0)
    for k in (0, 1, 2):
        report = submultiplicativity_probe(k, n_pairs=40, seed=0)
        assert np.isfinite(report["max_ratio"])
        assert report["stable"]
    # a NaN product in the second pair must reach max_ratio and fail stable
    products = ccr._trig_products

    def spoiled(a, b):
        out = products(a, b)
        out[1] = np.nan
        return out

    monkeypatch.setattr(ccr, "_trig_products", spoiled)
    report = submultiplicativity_probe(1, n_pairs=40, seed=0)
    assert np.isnan(report["max_ratio"])
    assert not report["stable"]


def test_polynomial_literal_roundtrip():
    literal = [[0, [[0, [1.0, 0.0]], [1, [0.5, -0.25]]]],
               [2, [[-1, [0.0, 2.0]]]]]
    q = polynomial_from_literal(literal)
    assert q.degree == 2
    assert q.coeffs[0] == TrigPoly({0: 1.0, 1: 0.5 - 0.25j})
    assert q.coeffs[2] == TrigPoly({-1: 2j})
    assert polynomial_to_literal(q) == literal
    # serialization is deterministic: frequencies come out sorted
    scrambled = [[0, [[1, [0.5, -0.25]], [0, [1.0, 0.0]]]],
                 [2, [[-1, [0.0, 2.0]]]]]
    assert polynomial_to_literal(
        polynomial_from_literal(scrambled)) == literal


def test_uniform_seminorm_identity():
    tests = [TrigPoly.one(), TrigPoly.mode(1), TrigPoly({1: 0.5, -1: 0.5}),
             TrigPoly.mode(2, 1j)]
    trig = TrigPoly({0: 1.0, 3: 2.0, -2: 0.5j}).to_vector(16)
    lhs, rhs = uniform_seminorm_identity(trig, tests, 16)
    assert lhs == pytest.approx(rhs, abs=1e-12)
    dual = (freqs(16).astype(complex)) ** 2  # polynomially growing proxy
    lhs, rhs = uniform_seminorm_identity(dual, tests, 16)
    assert lhs == pytest.approx(rhs, abs=1e-12)
    # a NaN at frequency 0 must spoil both sides, not drop out of a running
    # maximum and leave an identity that reads as holding
    spoiled = trig.copy()
    spoiled[16] = np.nan
    lhs, rhs = uniform_seminorm_identity(spoiled, tests, 16)
    assert np.isnan(lhs) and np.isnan(rhs)
    assert not abs(lhs - rhs) < 1e-10
