"""Cross-module consistency: form-level verdicts against operator-level
verdicts on the same probe families."""

import numpy as np
import pytest

from qstarlab import function_lab as flab
from qstarlab.algebra import matrix_unit_algebra, normalized_trace_state
from qstarlab.forms import ProbeFamily, closability_probe, form_from_state
from qstarlab.gns import gns_construct
from qstarlab.topologies import (BoundedSet, Suite, TruncatedOperator,
                                 closability_check)


@pytest.fixture(scope="module")
def m2_setup():
    m2 = matrix_unit_algebra(2)
    state = normalized_trace_state(2)
    return m2, state, form_from_state(m2, state), gns_construct(m2, state)


COEFF_FAMILIES = [
    ProbeFamily(name="unit/n",
                generate=lambda n: np.array([1, 0, 0, 1], dtype=complex) / n),
    ProbeFamily(name="offdiag/n^2",
                generate=lambda n: np.array([0, 1, 1j, 0], dtype=complex) / n ** 2),
    ProbeFamily(name="rotating/n",
                generate=lambda n: np.exp(2j * np.pi / n)
                * np.array([1, 1, 0, -1], dtype=complex) / n),
]


def test_form_closability_implies_operator_closability(m2_setup):
    # Whenever the form probe finds no counterexample on a family, the
    # strong*-closability probe of the induced cyclic representation finds
    # none on the same family.
    m2, state, ctx, rep = m2_setup
    # strong* over the canonical basis, with the e_i as test vectors: each
    # value is within a factor sqrt(rank) = 2 of the Hilbert norms
    # max(|A e_i|, |A* e_i|)
    dim = rep.rank
    suite = Suite("strongstar", [BoundedSet.basis(dim, "e")],
                  phis=[(f"e{i}", f)
                        for i, f in enumerate(np.eye(dim, dtype=complex))])

    def rep_map(coeffs):
        return TruncatedOperator(rep.represent(coeffs))

    op_verdicts = {v.family: v for v in closability_check(
        COEFF_FAMILIES, rep_map, suite=suite,
        ambient_norm=np.linalg.norm, n_max=512)}
    for family in COEFF_FAMILIES:
        form_verdict = closability_probe(ctx, family, 512)
        assert not form_verdict.counterexample
        assert not op_verdicts[family.name].counterexample
        if form_verdict.null:
            assert op_verdicts[family.name].null


def test_gaussian_polynomial_closability_through_operator_layer():
    # Multiplication by polynomials on the Gaussian-weighted line, with the
    # sandwich seminorms as the suite: integrable-null families have null
    # operator limits.
    grid = flab.gauss_hermite_grid()
    x = grid.nodes

    def rep_map(coeffs):
        vals = np.polynomial.polynomial.polyval(x, np.asarray(coeffs))
        return TruncatedOperator(np.diag(vals.astype(complex)))

    def l1_norm(coeffs):  # the Gaussian-weighted L^1 norm on the grid
        return float(np.dot(grid.weights, np.abs(
            np.polynomial.polynomial.polyval(x, coeffs))))

    suite = Suite("strong", [BoundedSet.basis(grid.n_nodes, "nodes")],
                  phis=[(f"j{j}", (1 + x ** 2) ** (-2 * j))
                        for j in (1, 2, 3, 4)])
    fams = [
        ProbeFamily(name="x/n", generate=lambda n: np.array([0.0, 1.0 / n]),
                    tau_norm=lambda n: l1_norm(np.array([0.0, 1.0 / n]))),
        ProbeFamily(name="quad/n",
                    generate=lambda n: np.array([1.0, 0.0, -0.5]) / n,
                    tau_norm=lambda n: l1_norm(np.array([1.0, 0.0, -0.5]) / n)),
    ]
    verdicts = closability_check(fams, rep_map, suite=suite, n_max=256)
    for v in verdicts:
        assert v.null and v.cauchy
        assert max(v.limits) <= 1e-6
        assert not v.counterexample


def test_gns_vector_norms_match_shifted_form(m2_setup):
    # |pi(a) class(b)|^2 equals the b-shifted form on (a, a): the identity
    # that transports form-level Cauchy data to operator-level Cauchy data.
    from qstarlab.forms import b_shifted_form

    m2, state, ctx, rep = m2_setup
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        image = rep.represent(a) @ rep.projection @ b
        lhs = float(np.linalg.norm(image)) ** 2
        rhs = float(np.real(b_shifted_form(ctx, b).form(a, a)))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_hoelder_consistency_on_grid():
    # |f phi|_2 <= |f|_s |phi|_p for conjugate 2/s' pairings, sampled.
    grid = flab.simpson_grid()
    p, s = 4.0, 4.0
    rng = np.random.default_rng(0)
    fs = [flab.power_function(grid, 0.2),
          flab.GridFunction.from_callable(lambda x: 1 + x ** 2, grid)]
    for _ in range(5):
        a = rng.standard_normal(3)
        fs.append(flab.GridFunction(
            (a[0] + a[1] * np.cos(2 * np.pi * grid.nodes)
             + 1j * a[2] * grid.nodes).astype(complex), grid))
    for f in fs:
        for phi in fs:
            lhs = flab.lp_norm(f * phi, 2.0)
            rhs = flab.lp_norm(f, s) * flab.lp_norm(phi, p)
            assert lhs <= rhs + 1e-9


def test_right_multiplication_keeps_integrability_class():
    # Hoelder-exponent oracle: multiplying x^(-beta) by a bounded
    # continuous factor cannot leave L^s.
    verdict = flab.ls_membership(
        lambda grid: flab.power_function(grid, 0.2)
        * flab.GridFunction.from_callable(
            lambda x: np.cos(2 * np.pi * x).astype(complex) + 2.0, grid),
        4.0)
    assert verdict["member"]
