import numpy as np
import pytest

from qstarlab.algebra import (corner_state, cyclic_group_algebra,
                              group_trace_state, matrix_unit_algebra,
                              normalized_trace_state, scalar_algebra)
from qstarlab.ccr import (TWO_PI, CCRPolynomial, TrigPoly, _evaluate,
                          _frequencies, _random_coefficients, freqs)
from qstarlab.topologies import Suite, seminorm


@pytest.fixture(scope="session")
def m2():
    return matrix_unit_algebra(2)


@pytest.fixture(scope="session")
def m3():
    return matrix_unit_algebra(3)


@pytest.fixture(scope="session")
def z4():
    return cyclic_group_algebra(4)


@pytest.fixture(scope="session")
def scalars():
    return scalar_algebra()


@pytest.fixture(scope="session")
def trace2():
    return normalized_trace_state(2)


@pytest.fixture(scope="session")
def corner2():
    return corner_state(2)


@pytest.fixture(scope="session")
def ztrace4():
    return group_trace_state(4)


def structure_report(algebra) -> dict:
    """Residuals of the algebra axioms; all should be at round-off."""
    c, s = algebra.structure, algebra.involution
    lhs = np.einsum("ijm,mkl->ijkl", c, c)
    rhs = np.einsum("jkm,iml->ijkl", c, c)
    assoc = float(np.max(np.abs(lhs - rhs)))
    invol = float(np.max(np.abs(s @ s.conj() - np.eye(algebra.dim))))
    # (e_i e_j)* = (e_j)* (e_i)*, expanded through structure constants.
    star_of_prod = np.einsum("ijk,kl->ijl", c.conj(), s)
    prod_of_stars = np.einsum("jk,il,klm->ijm", s, s, c)
    anti = float(np.max(np.abs(star_of_prod - prod_of_stars)))
    report = {"associativity": assoc, "involution": invol,
              "anti_automorphism": anti}
    if algebra.unit is not None:
        left = np.einsum("i,ijk->jk", algebra.unit, c)
        right = np.einsum("j,ijk->ik", algebra.unit, c)
        report["unit_law"] = float(
            max(np.max(np.abs(left - np.eye(algebra.dim))),
                np.max(np.abs(right - np.eye(algebra.dim)))))
    else:
        report["unit_law"] = None
    return report


def pairing(u, psi) -> complex:
    """Dual pairing <u, psi> of a dual-proxy vector against a domain vector."""
    return complex(np.vdot(np.asarray(psi, dtype=complex), np.asarray(u)))


def one_seminorm(a, topology, m=None, phi=None, psi=None) -> float:
    """One seminorm of a topology, the value of a one-entry Suite: uniform
    takes m, strong and strongstar m and phi, weak phi and psi."""
    suite = Suite(topology, [] if m is None else [m],
                  phis=[] if phi is None else [("phi", phi)],
                  weak_pairs=([] if phi is None or psi is None
                              else [("pair", phi, psi)]))
    (value,) = seminorm(a, suite)
    return float(value)


def coeffs_to_matrix(coeffs, n):
    """Oracle: reassemble the dense matrix from matrix-unit coordinates."""
    return np.asarray(coeffs, dtype=complex).reshape(n, n)


def matrix_to_coeffs(mat):
    return np.asarray(mat, dtype=complex).reshape(-1)


def polynomial_from_literal(data) -> CCRPolynomial:
    """A CCR polynomial from its literal form in test data: a list of
    (power, [(frequency, [re, im]), ...]) entries."""
    terms = []
    for power, coeff_entries in data:
        coeffs = {int(n): complex(re, im) for n, (re, im) in coeff_entries}
        terms.append((int(power), TrigPoly(coeffs)))
    return CCRPolynomial.from_terms(terms)


def polynomial_to_literal(q: CCRPolynomial) -> list:
    """Deterministic literal form: entries sorted by power and frequency,
    scalar coefficients evaluated to [re, im] pairs."""
    literal = []
    nonzero = (q._c != 0).any(axis=-1).tolist()  # per power and frequency
    for k, (values, present) in enumerate(zip(_evaluate(q._c).tolist(),
                                              nonzero)):
        entries = [[n, [v.real, v.imag]] for n, v, hit
                   in zip(_frequencies(q._c).tolist(), values, present) if hit]
        if entries:
            literal.append([k, entries])
    return literal


def momentum_matrix(n_trunc: int) -> np.ndarray:
    """The momentum acts diagonally: the n-th mode has eigenvalue 2 pi n."""
    return np.diag(TWO_PI * freqs(n_trunc)).astype(complex)


def hermiticity_residual(ctx, pairs) -> float:
    """max over pairs of |Omega(x,y) - conj(Omega(y,x))|; NaN if any form
    value is NaN."""
    return float(np.max([abs(ctx.form(a, b) - np.conj(ctx.form(b, a)))
                         for a, b in pairs]))


def cauchy_schwarz_residual(ctx, pairs) -> float:
    """max over pairs of |Omega(x,y)|^2 - Omega(x,x) Omega(y,y), clipped at 0;
    NaN if any form value is NaN."""
    return float(np.max([abs(ctx.form(a, b)) ** 2 - ctx.diag(a) * ctx.diag(b)
                         for a, b in pairs], initial=0.0))


def state_hermiticity_residual(state, algebra) -> float:
    """max_i |omega(e_i*) - conj(omega(e_i))|."""
    starred = algebra.involution @ state.values
    return float(np.max(np.abs(starred - state.values.conj())))


def random_trig_poly(rng, max_freq: int, integer: bool = True) -> TrigPoly:
    """Random trigonometric polynomial; integer mode keeps coefficients
    Gaussian-integer so symbolic identities stay exact."""
    return TrigPoly._from_array(
        _random_coefficients(rng, (2 * max_freq + 1,), integer))


def plain(value):
    """Recursively convert numpy scalars and arrays to JSON types; complex
    numbers become [re, im] pairs.  The reference for the JSON writer:
    its text is json.dumps(plain(data), sort_keys=True, indent=1)."""
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (complex, np.complexfloating)):
        return [float(value.real), float(value.imag)]
    if isinstance(value, np.ndarray):
        return plain(value.tolist())
    return value
