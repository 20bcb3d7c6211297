import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qstarlab.algebra import (AlgebraError, DimensionMismatchError,
                              MissingUnitError, NonPositiveStateError, State,
                              StarAlgebra, cyclic_group_algebra,
                              evaluate_state, matrix_unit_algebra, multiply,
                              normalized_trace_state, scalar_algebra, star)
from qstarlab.gns import gns_construct

from conftest import (coeffs_to_matrix, matrix_to_coeffs,
                      state_hermiticity_residual, structure_report)


def test_structure_residuals_stock_algebras():
    for algebra in (matrix_unit_algebra(2), matrix_unit_algebra(3),
                    cyclic_group_algebra(4), cyclic_group_algebra(5),
                    scalar_algebra()):
        report = structure_report(algebra)
        assert report["associativity"] < 1e-12
        assert report["involution"] < 1e-12
        assert report["anti_automorphism"] < 1e-12
        assert report["unit_law"] < 1e-12


# E_{rc} flattened as i = 2r + c in M2; BASIS[i] is the coefficient vector
# of e_i.
E11, E12, E21, E22 = 0, 1, 2, 3
BASIS = np.eye(4, dtype=complex)


def test_multiply_matches_dense_product_oracle(m2):
    rng = np.random.default_rng(3)
    for _ in range(25):
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        got = multiply(m2, a, b)
        oracle = matrix_to_coeffs(coeffs_to_matrix(a, 2) @ coeffs_to_matrix(b, 2))
        assert np.allclose(got, oracle, atol=1e-12)


def test_multiply_matrix_units(m2):
    prod = multiply(m2, BASIS[E12], BASIS[E21])
    expected = np.zeros(4)
    expected[E11] = 1.0
    assert np.allclose(prod, expected)


def test_multiply_unit_and_zero(m2):
    a = np.array([0.3, -1j, 2.0, 0.5 + 0.5j])
    assert np.allclose(multiply(m2, m2.unit, a), a)
    assert np.allclose(multiply(m2, a, m2.unit), a)
    zero = np.zeros(4, dtype=complex)
    assert np.allclose(multiply(m2, zero, a), 0.0)
    assert np.linalg.norm(zero) == 0.0
    assert np.linalg.norm(m2.unit) == pytest.approx(np.sqrt(2))


def test_multiply_and_star_broadcast_over_leading_axes(m2):
    rng = np.random.default_rng(11)
    a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    b = rng.standard_normal((2, 1, 4)) + 1j * rng.standard_normal((2, 1, 4))
    products = multiply(m2, a, b)
    assert products.shape == (2, 3, 4)
    for i in range(2):
        for j in range(3):
            oracle = matrix_to_coeffs(coeffs_to_matrix(a[j], 2)
                                      @ coeffs_to_matrix(b[i, 0], 2))
            assert np.allclose(products[i, j], oracle, atol=1e-12)
    stars = star(m2, a)
    assert stars.shape == (3, 4)
    for j in range(3):
        oracle = matrix_to_coeffs(coeffs_to_matrix(a[j], 2).conj().T)
        assert np.allclose(stars[j], oracle, atol=1e-14)


def test_star_is_conjugate_transpose(m2):
    rng = np.random.default_rng(5)
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    got = star(m2, a)
    oracle = matrix_to_coeffs(coeffs_to_matrix(a, 2).conj().T)
    assert np.allclose(got, oracle, atol=1e-14)


def test_star_examples(m2):
    assert np.allclose(star(m2, BASIS[E12]), BASIS[E21])
    assert np.allclose(star(m2, m2.unit), m2.unit)
    got = star(m2, [1j, 0, 0, 0])
    assert np.allclose(got, [-1j, 0, 0, 0])


def test_evaluate_state_trace_oracle(m2, trace2):
    rng = np.random.default_rng(7)
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    got = evaluate_state(trace2, a)
    assert abs(got - np.trace(coeffs_to_matrix(a, 2)) / 2) < 1e-14
    assert abs(evaluate_state(trace2, BASIS[E11]) - 0.5) < 1e-14
    assert abs(evaluate_state(trace2, m2.unit) - 1.0) < 1e-14
    assert evaluate_state(trace2, np.zeros(4)) == 0.0


def test_state_invariants(m2, trace2, corner2, z4, ztrace4):
    for algebra, state in ((m2, trace2), (m2, corner2), (z4, ztrace4)):
        assert state_hermiticity_residual(state, algebra) < 1e-12
        gram = state.check_positive(algebra)
        assert np.allclose(gram, gram.conj().T)


def test_non_positive_state_reports_eigenvalue(m2):
    bad = State(np.array([1.0, 0, 0, -3.0], dtype=complex), name="indefinite")
    with pytest.raises(NonPositiveStateError) as err:
        bad.check_positive(m2)
    assert err.value.eigenvalue < -1e-10


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
                min_size=4, max_size=4))
def test_star_is_involutive(pairs):
    m2 = matrix_unit_algebra(2)
    a = np.array([complex(re, im) for re, im in pairs])
    assert np.max(np.abs(star(m2, star(m2, a)) - a)) < 1e-14


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
                min_size=8, max_size=8))
def test_state_cauchy_schwarz_and_positivity(pairs):
    m2 = matrix_unit_algebra(2)
    trace2 = normalized_trace_state(2)
    a = np.array([complex(re, im) for re, im in pairs[:4]])
    diag = evaluate_state(trace2, multiply(m2, star(m2, a), a))
    assert abs(diag.imag) < 1e-10
    assert diag.real >= -1e-10
    # |omega(A)|^2 <= omega(A*A) omega(I)
    assert abs(evaluate_state(trace2, a)) ** 2 <= diag.real + 1e-10


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
                min_size=8, max_size=8))
def test_star_antimultiplicative(pairs):
    z4 = cyclic_group_algebra(4)
    a = np.array([complex(re, im) for re, im in pairs[:4]])
    b = np.array([complex(re, im) for re, im in pairs[4:]])
    lhs = star(z4, multiply(z4, a, b))
    rhs = multiply(z4, star(z4, b), star(z4, a))
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_unitless_algebra():
    # one self-adjoint generator with e*e = 0
    nil = StarAlgebra(np.zeros((1, 1, 1)), np.ones((1, 1)), None, name="nil")
    assert nil.unit is None
    assert structure_report(nil)["unit_law"] is None
    with pytest.raises(MissingUnitError, match="without unit"):
        gns_construct(nil, State(np.ones(1, dtype=complex)))


def test_dimension_mismatch(m2):
    with pytest.raises(DimensionMismatchError):
        multiply(m2, [1.0, 2.0], BASIS[0])
    with pytest.raises(DimensionMismatchError):
        multiply(m2, BASIS[0], np.ones((3, 2)))
    with pytest.raises(DimensionMismatchError):
        star(m2, [1.0, 2.0])


def test_malformed_algebra_rejected():
    with pytest.raises(AlgebraError):
        StarAlgebra(np.zeros((2, 2, 3)), np.eye(2))  # tensor not cubic
    with pytest.raises(AlgebraError, match="involution"):
        StarAlgebra(np.zeros((2, 2, 2)), np.eye(3))
    with pytest.raises(AlgebraError, match="unit"):
        StarAlgebra(np.zeros((2, 2, 2)), np.eye(2), unit=np.ones(3))


def test_evaluate_state_dimension_mismatch(m2):
    short_state = State(np.ones(2, dtype=complex))
    with pytest.raises(DimensionMismatchError):
        evaluate_state(short_state, BASIS[0])
