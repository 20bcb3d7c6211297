"""Operator topologies on truncated domains and extension by closure.

Operators between a truncated domain and its dual proxy are plain matrices
in coordinates orthonormal for the Hilbert inner product; the dual pairing
is the coordinate sesquilinear sum, and polynomially growing coefficient
vectors stand in for distributions.  Four topologies are realised as
seminorm families over finite bounded sets: uniform sup |<A phi, psi>| over
M x M, strong sup over psi in M for a fixed phi, strong* adding the
adjoint, weak a single matrix element.  Verdicts are always relative to
the finite suite in use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .forms import ladder_series
from .rates import geometric_ladder, ladder_cauchy, ladder_probe

TOPOLOGIES = ("uniform", "strong", "strongstar", "weak")


class TruncatedOperator:
    """Matrix acting from the truncated domain into its dual proxy.

    A diagonal operator, such as multiplication by a function on grid
    nodes, can be given by its diagonal alone: TruncatedOperator(diag=d).
    Differences of two diagonal operators and adjoints of one stay diagonal;
    a diagonal/dense pair goes through the dense matrices, and .matrix
    builds the dense matrix on demand.  A real diagonal is applied
    elementwise, which equals the dense product bit for bit.  A complex
    one is applied through the dense matrix, because BLAS rounds complex
    products differently from elementwise multiplication, and a value must
    not depend on the form an operator was built in.  A real 2-D diagonal
    (L x N) is a stack of L operators, one per row, such as a ladder of
    multiplication operators (stack_ladder); it has no single .matrix.
    """

    __slots__ = ("_matrix", "diag", "_real_diag")

    def __init__(self, matrix=None, *, diag=None):
        if (matrix is None) == (diag is None):
            raise ValueError("give either an operator matrix or a diagonal")
        if diag is not None:
            d = np.asarray(diag, dtype=complex)
            real = not d.imag.any()
            if d.ndim != 1 and (d.ndim != 2 or not real):
                raise ValueError(f"operator diagonal must be 1-D, or 2-D and "
                                 f"real for a stack, got {d.shape}")
            self._matrix, self.diag = None, d
            self._real_diag = d if real else None
            return
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator matrix must be square, got {m.shape}")
        self._matrix = m
        self.diag = self._real_diag = None

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None and self.diag.ndim != 1:
            raise ValueError("a stack of operators has no single matrix")
        return np.diag(self.diag) if self._matrix is None else self._matrix

    @property
    def dim(self) -> int:
        return (self.diag.shape[-1] if self._matrix is None
                else self._matrix.shape[0])

    def adjoint(self) -> "TruncatedOperator":
        if self._matrix is not None:
            return TruncatedOperator(self._matrix.conj().T)
        return TruncatedOperator(diag=self.diag.conj())

    def __sub__(self, other: "TruncatedOperator") -> "TruncatedOperator":
        if self.dim != other.dim:
            raise ValueError(f"inconsistent truncation: dimensions differ "
                             f"({self.dim} and {other.dim})")
        if (self.diag is not None and other.diag is not None
                and self.diag.shape == other.diag.shape):
            return TruncatedOperator(diag=self.diag - other.diag)
        return TruncatedOperator(self.matrix - other.matrix)

    @classmethod
    def stack_ladder(cls, ops) -> tuple | None:
        """Real diagonal operators of one dimension as one stack and their
        consecutive differences as another; None when any is dense or
        complex or the dimensions differ."""
        if (any(op._real_diag is None for op in ops)
                or len({op.dim for op in ops}) > 1):
            return None
        d = np.stack([op._real_diag for op in ops])
        return cls(diag=d), cls(diag=d[1:] - d[:-1])

    def apply(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=complex)
        if self._real_diag is not None and self._real_diag.ndim == 1:
            return (self._real_diag * v.T).T  # scales rows of a 2-D v too
        return self.matrix @ v  # raises on a stack


class BoundedSet:
    """Finite stand-in for a bounded subset of the domain.

    The vectors are stacked once, on construction, into the read-only
    `rows` matrix (one vector of length `dim` per row) and its conjugate
    `conj_rows`.  `BoundedSet.basis(dim, name)` declares the canonical
    basis instead (`is_basis`), for which seminorms read operator entries
    instead of multiplying by I; it stores no rows (`rows` and `conj_rows`
    are None), and `stack()` builds the identity from `dim`.
    """

    __slots__ = ("name", "dim", "rows", "conj_rows")

    def __init__(self, vectors, name: str = "M"):
        if not len(vectors):
            raise ValueError("bounded set must contain at least one vector")
        self.name, self.rows = name, vectors
        self.rows = self.stack()  # the set's own copy from here on
        self.conj_rows, self.dim = self.rows.conj(), self.rows.shape[-1]
        self.rows.flags.writeable = self.conj_rows.flags.writeable = False

    @classmethod
    def basis(cls, dim: int, name: str) -> "BoundedSet":
        """The canonical basis of dimension dim, declared, not stored."""
        m = cls.__new__(cls)
        m.name, m.dim, m.rows, m.conj_rows = name, dim, None, None
        return m

    @property
    def is_basis(self) -> bool:
        return self.rows is None

    def stack(self) -> np.ndarray:
        if self.is_basis:
            return np.eye(self.dim, dtype=complex)
        return np.stack(self.rows, dtype=complex)


class Suite:
    """A seminorm suite: one topology over finite test data.

    uniform takes bounded sets; strong and strongstar take bounded sets and
    phis, (label, vector) pairs; weak takes weak_pairs, (label, phi, psi)
    triples.  names labels the seminorms: set-major, then vector, for
    strong and strongstar.  The suite is checked once, here: an unknown
    topology, missing test data or an empty suite raise.
    """

    __slots__ = ("topology", "bounded_sets", "phis", "weak_pairs", "names")

    def __init__(self, topology: str, bounded_sets=(), phis=(), weak_pairs=()):
        self.topology = topology
        self.bounded_sets = tuple(bounded_sets)
        self.phis = tuple(phis)
        self.weak_pairs = tuple(weak_pairs)
        if topology == "uniform":
            names = [f"uniform|{m.name}" for m in self.bounded_sets]
        elif topology in ("strong", "strongstar"):
            if not self.phis:
                raise ValueError(f"{topology} suite needs test vectors")
            names = [f"{topology}|{m.name}|{label}"
                     for m in self.bounded_sets for label, _ in self.phis]
        elif topology == "weak":
            if not self.weak_pairs:
                raise ValueError("weak suite needs vector pairs: two vectors "
                                 "per seminorm")
            names = [f"weak|{label}" for label, _, _ in self.weak_pairs]
        else:
            raise ValueError(f"unknown topology {topology!r}; expected one of "
                             f"{TOPOLOGIES}")
        if not names:
            raise ValueError(f"empty {topology} suite: no bounded set")
        self.names = tuple(names)


def seminorm(a: TruncatedOperator, suite: Suite) -> np.ndarray:
    """Every seminorm of the suite on one operator, in suite.names order;
    on a stack (a 2-D diagonal), one such row per operator.

    The path follows a._real_diag: a stack, or one real diagonal as a
    stack of one, is evaluated as arrays (_diagonal_seminorms), a dense or
    complex operator (None) through its matrix (_dense_seminorm).  Each
    test vector is applied once per operator and its image shared across
    the bounded sets.  A row of a stack equals its operator's values bit
    for bit: the same elementwise products, and a stacked matmul makes
    the same BLAS call per row.  Strong* takes the larger of the values
    of A and its adjoint by np.maximum, which keeps a NaN; a real
    diagonal is its own adjoint and has one image.  Over the canonical
    basis (m.is_basis) the pairings are the operator's entries, so
    uniform is max |A_ij| and strong max |(A phi)_i|, read without the
    product with I.  For finite entries the values equal the product's
    bit for bit (each product entry is A_ij * 1 plus exact zeros, and abs
    drops signed zeros); an inf entry gives inf where the product would
    give nan (0 * inf).
    """
    if a._real_diag is None:
        return _dense_seminorm(a, suite)
    values = _diagonal_seminorms(np.atleast_2d(a._real_diag), suite)
    return values if a._real_diag.ndim == 2 else values[0]


def _diagonal_seminorms(d: np.ndarray, suite: Suite) -> np.ndarray:
    """The suite on the real diagonals d (L x N): an L x n_seminorms array."""
    sets = suite.bounded_sets
    if suite.topology == "uniform":
        return np.stack(
            [np.max(np.abs(d), axis=1) if m.is_basis else
             np.max(np.abs((m.conj_rows * d[:, None, :]) @ m.rows.T),
                    axis=(1, 2)) for m in sets], axis=1)
    if suite.topology == "weak":
        return np.stack([_weak_pairings(d * np.asarray(phi, dtype=complex),
                                        psi)
                         for _, phi, psi in suite.weak_pairs], axis=1)
    phis = np.array([phi for _, phi in suite.phis], dtype=complex)
    sups = _sup_pairings(sets, d[:, None, :] * phis)  # [operator, phi, set]
    return sups.transpose(0, 2, 1).reshape(len(d), len(suite.names))


def _dense_seminorm(a: TruncatedOperator, suite: Suite) -> np.ndarray:
    """The suite on one operator through its matrix (dense or complex)."""
    sets = suite.bounded_sets
    if suite.topology == "uniform":
        return np.array([
            np.max(np.abs(a.diag if a.diag is not None else a.matrix))
            if m.is_basis else np.max(np.abs(m.conj_rows @ a.matrix
                                             @ m.rows.T)) for m in sets])
    if suite.topology == "weak":
        return np.array([_weak_pairings(a.apply(phi), psi)
                         for _, phi, psi in suite.weak_pairs])
    sups = _sup_pairings(sets, np.array([a.apply(phi)
                                         for _, phi in suite.phis]))
    if suite.topology == "strongstar":
        adjoint = a.adjoint()
        sups = np.maximum(sups, _sup_pairings(sets, np.array(
            [adjoint.apply(phi) for _, phi in suite.phis])))
    return sups.T.ravel()  # set-major


def _sup_pairings(sets, imgs: np.ndarray) -> np.ndarray:
    """sup over psi in m of |<img, psi>| for each image (the last axis of
    imgs) and each bounded set m, the sets on a new last axis."""
    return np.stack(
        [np.max(np.abs(imgs), axis=-1) if m.is_basis else
         np.max(np.abs(np.matmul(m.conj_rows, imgs[..., None])),
                axis=(-2, -1)) for m in sets], axis=-1)


def _weak_pairings(imgs: np.ndarray, psi) -> np.ndarray:
    """|<img, psi>| for each image (the last axis of imgs): one
    (1, N) @ (N, 1) product each, the dot product np.vdot takes; hypot is
    Python's abs of a complex, where np.abs rounds differently."""
    psi_bar = np.asarray(psi, dtype=complex).conj()
    z = np.matmul(psi_bar[None, :], imgs[..., None])[..., 0, 0]
    return np.hypot(z.real, z.imag)


# ---------------------------------------------------------------------------
# Extension by closure

@dataclass(frozen=True)
class ExtensionResult:
    converged: bool
    limit: TruncatedOperator | None
    topology: str
    # the extension domain reached, and why: the keys ambient_limit,
    # operator_cauchy and domain ("Atilde" or "none")
    membership: dict
    seminorm_names: tuple
    residual_trace: np.ndarray   # (steps-1, n_seminorms)
    ambient_residuals: np.ndarray

    def trace_table(self) -> tuple[list[str], list[list[float]]]:
        header = ["step"] + list(self.seminorm_names) + ["ambient"]
        rows = []
        for k in range(self.residual_trace.shape[0]):
            rows.append([k + 1] + [float(x) for x in self.residual_trace[k]]
                        + [float(self.ambient_residuals[k])])
        return header, rows


def extend_by_closure(ambient_norm, family, rep_map, ns, topology: str, *,
                      suite: Suite) -> ExtensionResult:
    """Drive one approximating family through the closure engine.

    The family's members on the ladder ns are the ambient elements, rep_map
    their representatives at a common truncation.  The run converges when every
    seminorm in the suite has Cauchy residuals that vanish (hard threshold
    relative to the largest seminorm seen, or clear power-law decay); the
    ambient residuals are judged the same way against the ambient norms.  The
    membership domain is "Atilde", the Cauchy domain, when both converge
    and "none" otherwise; whether the limit also lies in the full
    extension domain "A" is not measured.
    """
    if not len(ns):
        raise ValueError("empty ladder")
    # subtracting representatives of two truncations raises
    _, (ambient, values), (ambient_res, residuals), last = ladder_series(
        family, ns, None, [(None, ambient_norm, 1),
                           (rep_map, partial(seminorm, suite=suite), 1)])
    converged = len(ns) >= 3 and ladder_cauchy(ns, values, residuals,
                                               suite.names)[0]
    ambient_cauchy = len(ns) >= 3 and ladder_cauchy(ns, ambient, ambient_res,
                                                    ("ambient",))[0]

    membership = {"ambient_limit": ambient_cauchy,
                  "operator_cauchy": converged,
                  "domain": "Atilde" if converged and ambient_cauchy
                  else "none"}
    if converged and last is None:  # a ScaledFamily holds no member
        last = family.generate(int(ns[-1]))
    limit = rep_map(last) if converged else None
    return ExtensionResult(converged=converged, limit=limit, topology=topology,
                           membership=membership, seminorm_names=suite.names,
                           residual_trace=residuals,
                           ambient_residuals=ambient_res[:, 0])


# ---------------------------------------------------------------------------
# Closability of the representation

def closability_check(null_families, rep_map, *, suite: Suite,
                      ambient_norm=None, n_max: int = 256) -> list:
    """Hunt for families that are ambient-null with a nonzero operator limit;
    one LadderProbe per family, its value series the suite's seminorms.

    Each family must tau-converge to 0 (closed-form norms preferred).  A
    family whose representatives are suite-Cauchy and whose limit operator
    has a seminorm bounded away from 0 is a closability counterexample.
    """
    ns = geometric_ladder(n_max, points=16)
    view = (rep_map, partial(seminorm, suite=suite), 1)
    verdicts = []
    for fam in null_families:
        if ambient_norm is None and getattr(fam, "tau_norm", None) is None:
            raise ValueError(f"family {fam.name} carries no ambient norm")
        tau, (values,), (steps,), _ = ladder_series(fam, ns, ambient_norm,
                                                    [view])
        verdicts.append(ladder_probe(fam.name, ns, tau, values, steps,
                                     suite.names))
    return verdicts


# ---------------------------------------------------------------------------
# Quasi *-algebra structure of the extension domain

def quasi_algebra_closure_test(extension_samples, a_o_elements, rep_map,
                               mul, topology: str, *, suite: Suite,
                               star=None,
                               n_max: int = 256) -> dict:
    """Stability of the extension domain under right multiplication and *.

    extension_samples are approximating families for domain elements; for
    each sample X and each element B of the dense algebra, the family
    n -> X_n B must again have suite-Cauchy representatives.  Involution
    stability is checked unless the topology is the strong one, for which
    the involution is not continuous and the check is skipped and flagged.

    Returns the keys right_multiplication ((sample, shift, cauchy)
    tuples), involution ((sample, cauchy) tuples, empty when skipped),
    involution_skipped, bounded_rep_norm (the largest operator norm of the
    shifts' representatives, None without shifts) and all_stable.
    """
    skipped = topology == "strong"
    if not skipped and star is None:
        raise ValueError("involution check needs a star operation")
    # one view per right shift, then the involution's
    values_of = partial(seminorm, suite=suite)
    views = [(lambda x, b=b: rep_map(mul(x, b)), values_of, 1)
             for _, b in a_o_elements]
    if not skipped:
        views.append((lambda x: rep_map(star(x)), values_of, 1))
    ns = geometric_ladder(n_max, points=12)
    right, involution = [], []
    for fam in extension_samples:
        _, values, steps, _ = ladder_series(fam, ns, None, views)
        flags = [ladder_cauchy(ns, v, s, suite.names)[0]
                 for v, s in zip(values, steps)]
        right.extend((fam.name, label, flag)
                     for (label, _), flag in zip(a_o_elements, flags))
        if not skipped:
            involution.append((fam.name, flags[-1]))

    bounded = max((float(np.linalg.norm(rep_map(b).matrix, 2))
                   for _, b in a_o_elements), default=None)

    all_stable = (all(flag for _, _, flag in right)
                  and all(flag for _, flag in involution))
    return {"right_multiplication": right, "involution": involution,
            "involution_skipped": skipped, "bounded_rep_norm": bounded,
            "all_stable": all_stable}
