"""GNS construction from a state on a finite *-algebra.

The quotient of the algebra by the null ideal of the state is realised
through an eigendecomposition of the Gram matrix G[i, j] = omega(e_i* e_j):
eigenvectors above the rank threshold give an orthonormal basis of the
quotient, the kernel spans the null ideal in coordinates.  Representation
matrices act on quotient coordinates; the class of the unit is the cyclic
vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (MissingUnitError, StarAlgebra, State, evaluate_state,
                      multiply, star)

RANK_TOL = 1e-10  # relative to the largest Gram eigenvalue


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive."""
    fixed = vectors.copy()
    for k in range(fixed.shape[1]):
        col = fixed[:, k]
        pivot = int(np.argmax(np.abs(col)))
        val = col[pivot]
        if abs(val) > 0:
            fixed[:, k] = col * (abs(val) / val)
    return fixed


@dataclass(frozen=True, eq=False)
class GNSRep:
    """Representation data on the quotient pre-Hilbert space.

    quotient_basis columns are algebra coefficient vectors whose classes
    form an orthonormal basis of the quotient; projection maps algebra
    coordinates to quotient coordinates; rep_matrices[i] is the action of
    the i-th basis element; cyclic_vector the class of the unit.
    """

    algebra: StarAlgebra
    state: State
    gram: np.ndarray
    quotient_basis: np.ndarray  # (dim, rank)
    projection: np.ndarray      # (rank, dim)
    rep_matrices: np.ndarray    # (dim, rank, rank)
    cyclic_vector: np.ndarray   # (rank,)
    rank: int

    def represent(self, a) -> np.ndarray:
        """Matrix of the class action of the coefficient array a, by
        linearity in the basis; leading axes of a broadcast."""
        return np.einsum("...i,ijk->...jk", a, self.rep_matrices)


def gns_construct(algebra: StarAlgebra, state: State) -> GNSRep:
    """Build the cyclic representation defined by a normalized state.

    The quotient basis is ordered by descending Gram eigenvalue.
    """
    if algebra.unit is None:
        raise MissingUnitError(
            f"algebra {algebra.name or '<anonymous>'} has no unit "
            "(quasi *-algebra without unit)")
    if abs(evaluate_state(state, algebra.unit) - 1.0) > 1e-8:
        raise ValueError("state is not normalized: omega(I) != 1")
    gram = state.check_positive(algebra)

    eigvals, eigvecs = np.linalg.eigh(0.5 * (gram + gram.conj().T))
    order = np.argsort(eigvals)[::-1]
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    rank = int(np.sum(eigvals > RANK_TOL * max(eigvals[0], 0.0)))
    if rank == 0:
        raise ValueError("state Gram matrix has numerical rank 0")
    kept = slice(0, rank)
    vals, vecs = eigvals[kept], _fix_phases(eigvecs[:, kept])

    scale = np.sqrt(vals)
    quotient_basis = vecs / scale[np.newaxis, :]
    projection = scale[:, np.newaxis] * vecs.conj().T

    # left multiplication by e_i maps x to structure[i].T @ x
    rep_matrices = projection @ algebra.structure.transpose(0, 2, 1) \
        @ quotient_basis
    cyclic = projection @ algebra.unit
    return GNSRep(algebra=algebra, state=state, gram=gram,
                  quotient_basis=quotient_basis, projection=projection,
                  rep_matrices=rep_matrices, cyclic_vector=cyclic, rank=rank)


def verify_gns(rep: GNSRep) -> dict:
    """Recompute the representation contract and report residuals.

    Returns the keys residuals (homomorphism, adjoint, inner_product and
    state), max_residual, cyclicity_rank, rank and kernel_dim.  Each
    residual is a numpy maximum, so a NaN in the representation makes it
    and max_residual NaN, which fails any residual bound.
    """
    algebra, state = rep.algebra, rep.state
    d, r = algebra.dim, rep.rank
    basis = np.eye(d, dtype=complex)
    mats = rep.rep_matrices

    # products[i, j] = e_i e_j and stars[i] = (e_i)*
    products = multiply(algebra, basis[:, None], basis[None, :])
    stars = star(algebra, basis)
    hom = np.max(np.abs(rep.represent(products)
                        - mats[:, None] @ mats[None, :]))
    adj = np.max(np.abs(rep.represent(stars) - mats.conj().transpose(0, 2, 1)))

    # <class(x), class(y)> = omega(y* x) on all basis pairs; column i of
    # projection is the class of e_i.
    classes = rep.projection
    ip = np.max(np.abs(classes.conj().T @ classes
                       - multiply(algebra, stars[:, None], basis[None, :])
                       @ state.values))

    # omega(a) = <class(I), pi(a) class(I)>.
    orbit = mats @ rep.cyclic_vector
    st = np.max(np.abs(orbit @ rep.cyclic_vector.conj() - state.values))
    cyc_rank = int(np.linalg.matrix_rank(orbit, tol=1e-8))

    residuals = {"homomorphism": float(hom), "adjoint": float(adj),
                 "inner_product": float(ip), "state": float(st)}
    return {"residuals": residuals,
            "max_residual": float(np.max(list(residuals.values()))),
            "cyclicity_rank": cyc_rank, "rank": r, "kernel_dim": d - r}
