import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qstarlab.algebra import (AlgebraError, DimensionMismatchError,
                              MissingUnitError, NonPositiveStateError, State,
                              StarAlgebra, cyclic_group_algebra,
                              evaluate_state, matrix_unit_algebra, multiply,
                              normalized_trace_state, scalar_algebra, star)

from conftest import coeffs_to_matrix, matrix_to_coeffs, structure_report


def test_structure_residuals_stock_algebras():
    for algebra in (matrix_unit_algebra(2), matrix_unit_algebra(3),
                    cyclic_group_algebra(4), cyclic_group_algebra(5),
                    scalar_algebra()):
        report = structure_report(algebra)
        assert report["associativity"] < 1e-12
        assert report["involution"] < 1e-12
        assert report["anti_automorphism"] < 1e-12
        assert report["unit_law"] < 1e-12


# E_{rc} flattened as i = 2r + c in M2.
E11, E12, E21, E22 = 0, 1, 2, 3


def test_multiply_matches_dense_product_oracle(m2):
    rng = np.random.default_rng(3)
    for _ in range(25):
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        got = multiply(m2.element(a), m2.element(b)).coeffs
        oracle = matrix_to_coeffs(coeffs_to_matrix(a, 2) @ coeffs_to_matrix(b, 2))
        assert np.allclose(got, oracle, atol=1e-12)


def test_multiply_matrix_units(m2):
    prod = multiply(m2.basis_element(E12), m2.basis_element(E21))
    expected = np.zeros(4)
    expected[E11] = 1.0
    assert np.allclose(prod.coeffs, expected)


def test_multiply_unit_and_zero(m2):
    a = m2.element([0.3, -1j, 2.0, 0.5 + 0.5j])
    assert np.allclose(multiply(m2.unit_element(), a).coeffs, a.coeffs)
    assert np.allclose(multiply(a, m2.unit_element()).coeffs, a.coeffs)
    zero = m2.element(np.zeros(4))
    assert np.allclose(multiply(zero, a).coeffs, 0.0)
    assert zero.norm() == 0.0
    assert m2.unit_element().norm() == pytest.approx(np.sqrt(2))


def test_star_is_conjugate_transpose(m2):
    rng = np.random.default_rng(5)
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    got = star(m2.element(a)).coeffs
    oracle = matrix_to_coeffs(coeffs_to_matrix(a, 2).conj().T)
    assert np.allclose(got, oracle, atol=1e-14)


def test_star_examples(m2):
    assert np.allclose(star(m2.basis_element(E12)).coeffs,
                       m2.basis_element(E21).coeffs)
    assert np.allclose(star(m2.unit_element()).coeffs, m2.unit)
    got = star(m2.element([1j, 0, 0, 0])).coeffs
    assert np.allclose(got, [-1j, 0, 0, 0])


def test_evaluate_state_trace_oracle(m2, trace2):
    rng = np.random.default_rng(7)
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    got = evaluate_state(trace2, m2.element(a))
    assert abs(got - np.trace(coeffs_to_matrix(a, 2)) / 2) < 1e-14
    assert abs(evaluate_state(trace2, m2.basis_element(E11)) - 0.5) < 1e-14
    assert abs(evaluate_state(trace2, m2.unit_element()) - 1.0) < 1e-14
    assert evaluate_state(trace2, m2.element(np.zeros(4))) == 0.0


def test_state_invariants(m2, trace2, corner2, z4, ztrace4):
    for algebra, state in ((m2, trace2), (m2, corner2), (z4, ztrace4)):
        assert state.hermiticity_residual(algebra) < 1e-12
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
    a = m2.element([complex(re, im) for re, im in pairs])
    assert np.max(np.abs(star(star(a)).coeffs - a.coeffs)) < 1e-14


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
                min_size=8, max_size=8))
def test_state_cauchy_schwarz_and_positivity(pairs):
    m2 = matrix_unit_algebra(2)
    trace2 = normalized_trace_state(2)
    a = m2.element([complex(re, im) for re, im in pairs[:4]])
    diag = evaluate_state(trace2, multiply(star(a), a))
    assert abs(diag.imag) < 1e-10
    assert diag.real >= -1e-10
    # |omega(A)|^2 <= omega(A*A) omega(I)
    assert abs(evaluate_state(trace2, a)) ** 2 <= diag.real + 1e-10


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
                min_size=8, max_size=8))
def test_star_antimultiplicative(pairs):
    z4 = cyclic_group_algebra(4)
    a = z4.element([complex(re, im) for re, im in pairs[:4]])
    b = z4.element([complex(re, im) for re, im in pairs[4:]])
    lhs = star(multiply(a, b)).coeffs
    rhs = multiply(star(b), star(a)).coeffs
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_unitless_algebra():
    # one self-adjoint generator with e*e = 0
    nil = StarAlgebra(np.zeros((1, 1, 1)), np.ones((1, 1)), None, name="nil")
    assert not nil.has_unit
    assert structure_report(nil)["unit_law"] is None
    with pytest.raises(MissingUnitError, match="without unit"):
        nil.unit_element()


def test_dimension_mismatch(m2, z4):
    with pytest.raises(DimensionMismatchError):
        multiply(m2.basis_element(0), z4.basis_element(0))
    with pytest.raises(DimensionMismatchError):
        m2.element([1.0, 2.0])


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
        evaluate_state(short_state, m2.basis_element(0))
