"""Finite *-algebras presented by structure constants, with states.

An algebra lives on a fixed basis e_0 .. e_{d-1}; the product is a rank-3
tensor c with e_i e_j = sum_k c[i, j, k] e_k, and the involution a matrix S
with (e_i)* = sum_j S[i, j] e_j.  Matrix algebras, the scalars and cyclic
group algebras are all loadable from this one presentation.  An element
is its complex coefficient array on the last axis; multiply and star
broadcast over leading axes, so a stack of elements is one call.  A unit
is optional: algebras without one are supported, and operations that need
the unit fail explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

POSITIVITY_TOL = 1e-10


class AlgebraError(ValueError):
    """Base class for algebra construction and operation failures."""


class DimensionMismatchError(AlgebraError):
    """A coefficient array's last axis does not match the algebra's
    dimension."""


class MissingUnitError(AlgebraError):
    """Operation requires a unit, but the algebra has none."""


class NonPositiveStateError(AlgebraError):
    """A state failed positivity; carries the offending eigenvalue."""

    def __init__(self, eigenvalue: float):
        super().__init__(f"state is not positive: Gram eigenvalue {eigenvalue:.3e}")
        self.eigenvalue = eigenvalue


@dataclass(frozen=True, eq=False)
class StarAlgebra:
    """*-algebra on a finite basis given by structure constants.

    structure[i, j, k] is the coefficient of e_k in e_i e_j; involution[i, j]
    the coefficient of e_j in (e_i)*; unit the coefficient vector of the
    identity, or None for algebras without unit.
    """

    structure: np.ndarray
    involution: np.ndarray
    unit: np.ndarray | None = None
    name: str = ""

    def __post_init__(self):
        c = np.asarray(self.structure, dtype=complex)
        s = np.asarray(self.involution, dtype=complex)
        d = c.shape[0]
        if c.shape != (d, d, d):
            raise AlgebraError(f"structure tensor must be cubic, got {c.shape}")
        if s.shape != (d, d):
            raise AlgebraError(f"involution matrix must be {d}x{d}, got {s.shape}")
        object.__setattr__(self, "structure", c)
        object.__setattr__(self, "involution", s)
        if self.unit is not None:
            u = np.asarray(self.unit, dtype=complex)
            if u.shape != (d,):
                raise AlgebraError(f"unit must have length {d}, got {u.shape}")
            object.__setattr__(self, "unit", u)

    @property
    def dim(self) -> int:
        return self.structure.shape[0]


def _coefficients(algebra: StarAlgebra, a) -> np.ndarray:
    """a as a complex array whose last axis has the algebra's dimension."""
    a = np.asarray(a, dtype=complex)
    if a.shape[-1:] != (algebra.dim,):
        raise DimensionMismatchError(
            f"coefficient array of shape {a.shape} does not match "
            f"algebra dimension {algebra.dim}")
    return a


def multiply(algebra: StarAlgebra, a, b) -> np.ndarray:
    """Product through the structure constants, on the last axis; leading
    axes broadcast."""
    return np.einsum("...i,...j,ijk->...k", _coefficients(algebra, a),
                     _coefficients(algebra, b), algebra.structure)


def star(algebra: StarAlgebra, a) -> np.ndarray:
    """Involution: antilinear extension of the basis involution, on the
    last axis."""
    return _coefficients(algebra, a).conj() @ algebra.involution


@dataclass(frozen=True, eq=False)
class State:
    """Linear functional on the algebra, stored as values on the basis."""

    values: np.ndarray
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=complex))

    def gram(self, algebra: StarAlgebra) -> np.ndarray:
        """G[i, j] = omega(e_i* e_j)."""
        s, c = algebra.involution, algebra.structure
        return np.einsum("ik,kjl,l->ij", s, c, self.values)

    def check_positive(self, algebra: StarAlgebra) -> np.ndarray:
        """Return the Gram matrix, raising if it is not Hermitian PSD to
        within POSITIVITY_TOL."""
        g = self.gram(algebra)
        herm = float(np.max(np.abs(g - g.conj().T)))
        if herm > POSITIVITY_TOL:
            raise NonPositiveStateError(herm)
        eigs = np.linalg.eigvalsh(0.5 * (g + g.conj().T))
        if eigs[0] < -POSITIVITY_TOL:
            raise NonPositiveStateError(float(eigs[0]))
        return g


def evaluate_state(state: State, a) -> complex:
    """omega(a) for the coefficient vector a."""
    a = np.asarray(a, dtype=complex)
    if state.values.shape != a.shape:
        raise DimensionMismatchError("state and element dimensions differ")
    return complex(np.dot(state.values, a))


# ---------------------------------------------------------------------------
# Builders for the stock test algebras.

def matrix_unit_algebra(n: int) -> StarAlgebra:
    """M_n(C) on the matrix-unit basis E_{rc}, flattened as i = n*r + c."""
    d = n * n
    c = np.zeros((d, d, d), dtype=complex)
    s = np.zeros((d, d), dtype=complex)
    for r in range(n):
        for col in range(n):
            i = n * r + col
            s[i, n * col + r] = 1.0  # (E_{rc})* = E_{cr}
            for r2 in range(n):
                for c2 in range(n):
                    j = n * r2 + c2
                    if col == r2:  # E_{rc} E_{c c2} = E_{r c2}
                        c[i, j, n * r + c2] = 1.0
    unit = np.zeros(d, dtype=complex)
    for r in range(n):
        unit[n * r + r] = 1.0
    return StarAlgebra(c, s, unit, name=f"M{n}")


def cyclic_group_algebra(k: int) -> StarAlgebra:
    """Group algebra of Z_k: g_i g_j = g_{i+j mod k}, (g_i)* = g_{-i mod k}."""
    c = np.zeros((k, k, k), dtype=complex)
    s = np.zeros((k, k), dtype=complex)
    for i in range(k):
        s[i, (-i) % k] = 1.0
        for j in range(k):
            c[i, j, (i + j) % k] = 1.0
    unit = np.zeros(k, dtype=complex)
    unit[0] = 1.0
    return StarAlgebra(c, s, unit, name=f"C[Z{k}]")


def scalar_algebra() -> StarAlgebra:
    """The complex numbers as a one-dimensional *-algebra."""
    c = np.ones((1, 1, 1), dtype=complex)
    s = np.ones((1, 1), dtype=complex)
    return StarAlgebra(c, s, np.ones(1, dtype=complex), name="C")


def normalized_trace_state(n: int) -> State:
    """tr/n on M_n in matrix-unit coordinates."""
    values = np.zeros(n * n, dtype=complex)
    for r in range(n):
        values[n * r + r] = 1.0 / n
    return State(values, name=f"tr/{n}")


def corner_state(n: int) -> State:
    """The vector state A -> A_{00} on M_n."""
    values = np.zeros(n * n, dtype=complex)
    values[0] = 1.0
    return State(values, name="corner")


def group_trace_state(k: int) -> State:
    """omega(g_j) = delta_{j0} on C[Z_k]; its Gram matrix is the identity."""
    values = np.zeros(k, dtype=complex)
    values[0] = 1.0
    return State(values, name="group-trace")


def group_character_state(k: int) -> State:
    """The trivial character omega(g_j) = 1; rank-one Gram matrix."""
    return State(np.ones(k, dtype=complex), name="trivial-character")
