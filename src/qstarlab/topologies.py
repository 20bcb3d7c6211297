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

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .rates import geometric_ladder, ladder_cauchy, ladder_probe

TOPOLOGIES = ("uniform", "strong", "strongstar", "weak")


@dataclass(frozen=True, eq=False)
class TruncatedTriple:
    """Truncation of a rigged triple: domain, Hilbert space, dual proxy.

    Coordinates are orthonormal for the Hilbert inner product.
    graph_weights realise the graph-topology seminorms |w^k . v| and must
    be >= 1 (the generating operator is normalised to H >= 1); the dual
    proxy uses the inverse weights, so coefficient vectors with polynomial
    growth have finite dual seminorms.
    """

    dim: int
    graph_weights: np.ndarray
    name: str = ""

    def __post_init__(self):
        w = np.asarray(self.graph_weights, dtype=float)
        if w.shape != (self.dim,):
            raise ValueError(f"need {self.dim} graph weights, got {w.shape}")
        if np.any(w < 1.0 - 1e-12):
            raise ValueError("graph weights must be >= 1")
        object.__setattr__(self, "graph_weights", w)

    def graph_norm(self, v, k: int) -> float:
        return float(np.linalg.norm(self.graph_weights ** k
                                    * np.asarray(v, dtype=complex)))


class TruncatedOperator:
    """Matrix acting from the truncated domain into its dual proxy.

    A diagonal operator, such as multiplication by a function on grid
    nodes, can be given by its diagonal alone: TruncatedOperator(diag=d).
    Sums, differences and adjoints of two diagonal operators stay diagonal;
    a diagonal/dense pair goes through the dense matrices, and .matrix
    builds the dense matrix on demand.  A real diagonal is applied
    elementwise, which equals the dense product bit for bit.  A complex
    one is applied through the dense matrix, because BLAS rounds complex
    products differently from elementwise multiplication, and a value must
    not depend on the form an operator was built in.
    """

    __slots__ = ("_matrix", "diag", "_real_diag", "_adjoint")

    def __init__(self, matrix=None, *, diag=None):
        if (matrix is None) == (diag is None):
            raise ValueError("give either an operator matrix or a diagonal")
        self._adjoint = None
        if diag is not None:
            d = np.asarray(diag, dtype=complex)
            if d.ndim != 1:
                raise ValueError(f"operator diagonal must be 1-D, got {d.shape}")
            self._matrix = None
            self.diag = d
            self._real_diag = None if d.imag.any() else d
            return
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator matrix must be square, got {m.shape}")
        self._matrix = m
        self.diag = self._real_diag = None

    @property
    def matrix(self) -> np.ndarray:
        return np.diag(self.diag) if self._matrix is None else self._matrix

    @property
    def dim(self) -> int:
        return len(self.diag) if self._matrix is None else self._matrix.shape[0]

    @property
    def adjoint_matrix(self) -> np.ndarray:
        return self.adjoint().matrix

    def adjoint(self) -> "TruncatedOperator":
        if self._adjoint is None:
            self._adjoint = (TruncatedOperator(self._matrix.conj().T)
                             if self._matrix is not None
                             else TruncatedOperator(diag=self.diag.conj()))
        return self._adjoint

    def _combine(self, other: "TruncatedOperator", op) -> "TruncatedOperator":
        if self.dim != other.dim:
            raise ValueError("truncation dimensions differ")
        if self.diag is not None and other.diag is not None:
            return TruncatedOperator(diag=op(self.diag, other.diag))
        return TruncatedOperator(op(self.matrix, other.matrix))

    def __sub__(self, other: "TruncatedOperator") -> "TruncatedOperator":
        return self._combine(other, np.subtract)

    def __add__(self, other: "TruncatedOperator") -> "TruncatedOperator":
        return self._combine(other, np.add)

    def apply(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=complex)
        if self._real_diag is not None:
            return (self._real_diag * v.T).T  # scales rows of a 2-D v too
        return self.matrix @ v


@dataclass(frozen=True, eq=False)
class BoundedSet:
    """Finite stand-in for a bounded subset of the domain.

    The vectors are stacked once, on construction, into the read-only
    `rows` matrix (one vector per row) and its conjugate `conj_rows`;
    `vectors` are the rows of that one array.  `is_basis` records whether
    the rows are exactly the canonical basis (square, rows == I), for
    which seminorms read operator entries instead of multiplying by I.
    """

    vectors: tuple
    name: str = "M"
    rows: np.ndarray = field(init=False, repr=False)
    conj_rows: np.ndarray = field(init=False, repr=False)
    is_basis: bool = field(init=False, repr=False)

    def __post_init__(self):
        if not len(self.vectors):
            raise ValueError("bounded set must contain at least one vector")
        rows = self.stack()
        rows.flags.writeable = False
        conj_rows = rows.conj()
        conj_rows.flags.writeable = False
        n = len(rows)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "conj_rows", conj_rows)
        object.__setattr__(self, "vectors", tuple(rows))
        object.__setattr__(self, "is_basis", rows.shape == (n, n)
                           and np.array_equal(rows, np.eye(n)))

    def stack(self) -> np.ndarray:
        return np.stack(self.vectors, dtype=complex)


def pairing(u, psi) -> complex:
    """Dual pairing <u, psi> of a dual-proxy vector against a domain vector."""
    return complex(np.vdot(np.asarray(psi, dtype=complex), np.asarray(u)))


def seminorm(a: TruncatedOperator, topology: str, m: BoundedSet | None = None,
             phi=None, psi=None) -> float:
    """Topology seminorm of one operator.

    uniform needs m; strong and strongstar need m and phi; weak needs phi
    and psi.  Over the canonical basis (m.is_basis) the pairings are the
    operator's entries, so uniform is max |A_ij| and strong max |(A phi)_i|,
    read without the product with I.  For finite entries the values equal
    the product's bit for bit (each product entry is A_ij * 1 plus exact
    zeros, and abs drops signed zeros); an inf entry gives inf where the
    product would give nan (0 * inf).
    """
    if topology == "uniform":
        if m is None:
            raise ValueError("uniform seminorm needs a bounded set")
        if m.is_basis:
            entries = a.diag if a.diag is not None else a.matrix
            return float(np.max(np.abs(entries)))
        d = a._real_diag
        left = m.conj_rows * d if d is not None else m.conj_rows @ a.matrix
        grid = left @ m.rows.T  # [psi index, phi index]
        return float(np.max(np.abs(grid)))
    if topology == "strong":
        if m is None or phi is None:
            raise ValueError("strong seminorm needs a bounded set and a vector")
        img = a.apply(phi)
        if not m.is_basis:
            img = m.conj_rows @ img
        return float(np.max(np.abs(img)))
    if topology == "strongstar":
        if m is None or phi is None:
            raise ValueError("strong* seminorm needs a bounded set and a vector")
        return max(seminorm(a, "strong", m, phi),
                   seminorm(a.adjoint(), "strong", m, phi))
    if topology == "weak":
        if phi is None or psi is None:
            raise ValueError("weak seminorm needs two vectors")
        return abs(pairing(a.apply(phi), psi))
    raise ValueError(f"unknown topology {topology!r}; expected one of {TOPOLOGIES}")


def strongstar_hilbert_seminorm(a: TruncatedOperator, f) -> float:
    """max(|A f|, |A' f|) with the Hilbert norm; the strong* seminorm used
    for operators mapping the domain into the Hilbert space itself."""
    return max(float(np.linalg.norm(a.apply(f))),
               float(np.linalg.norm(a.adjoint().apply(f))))


# ---------------------------------------------------------------------------
# Seminorm suites

Suite = Sequence[tuple[str, Callable[[TruncatedOperator], float]]]


def suite_from_bounded_sets(topology: str, bounded_sets,
                            phis=None, weak_pairs=None) -> list:
    """Named seminorm evaluators for a topology over finite test data.

    phis: (label, vector) pairs for strong/strong*; weak_pairs: (label,
    phi, psi) triples for the weak topology.
    """
    suite = []
    if topology == "uniform":
        for m in bounded_sets:
            suite.append((f"uniform|{m.name}",
                          lambda a, m=m: seminorm(a, "uniform", m)))
    elif topology in ("strong", "strongstar"):
        if not phis:
            raise ValueError(f"{topology} suite needs test vectors")
        for m in bounded_sets:
            for label, phi in phis:
                suite.append((f"{topology}|{m.name}|{label}",
                              lambda a, m=m, phi=phi, t=topology:
                              seminorm(a, t, m, phi)))
    elif topology == "weak":
        if not weak_pairs:
            raise ValueError("weak suite needs vector pairs")
        for label, phi, psi in weak_pairs:
            suite.append((f"weak|{label}",
                          lambda a, phi=phi, psi=psi:
                          seminorm(a, "weak", phi=phi, psi=psi)))
    else:
        raise ValueError(f"unknown topology {topology!r}")
    return suite


def _suite_series(suite: Suite, ops) -> tuple[np.ndarray, np.ndarray, list]:
    """Suite values of each operator of a ladder (one column per seminorm),
    the residuals between consecutive operators, and the seminorm names."""
    values = np.array([[fn(op) for _, fn in suite] for op in ops])
    residuals = np.array([[fn(ops[k] - ops[k - 1]) for _, fn in suite]
                          for k in range(1, len(ops))])
    return (values, residuals.reshape(len(ops) - 1, len(suite)),
            [name for name, _ in suite])


# ---------------------------------------------------------------------------
# Extension by closure

@dataclass(frozen=True)
class ExtensionMembership:
    """The extension domain a closure run reached, and why."""

    ambient_limit: bool
    operator_cauchy: bool
    domain: str  # "A", "Atilde" or "none"


@dataclass(frozen=True)
class ExtensionResult:
    converged: bool
    limit: TruncatedOperator | None
    topology: str
    membership: ExtensionMembership
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


def extend_by_closure(ambient_norm, element_seq, rep_seq, topology: str, *,
                      suite: Suite, space_complete: bool = False,
                      steps=None) -> ExtensionResult:
    """Drive one approximating sequence through the closure engine.

    element_seq are ambient elements carrying the tau-norms, rep_seq their
    representatives at a common truncation.  The run converges when every
    seminorm in the suite has Cauchy residuals that vanish (hard threshold
    relative to the largest seminorm seen, or clear power-law decay); the
    ambient residuals are judged the same way against the ambient norms.  The
    membership verdict distinguishes the extension domain reached: the
    Cauchy domain when the operator space is not complete for the chosen
    topology, the full extension domain when it is.
    """
    rep_seq = list(rep_seq)
    element_seq = list(element_seq)
    if not rep_seq:
        raise ValueError("empty representative sequence")
    if len(element_seq) != len(rep_seq):
        raise ValueError("element and representative sequences differ in length")
    dims = {op.dim for op in rep_seq}
    if len(dims) != 1:
        raise ValueError(f"inconsistent truncation dims {sorted(dims)}")
    if not suite:
        raise ValueError("empty seminorm suite")

    n_steps = len(rep_seq)
    steps = np.arange(1, n_steps + 1) if steps is None else np.asarray(steps)

    values, residuals, names = _suite_series(suite, rep_seq)
    converged = n_steps >= 3 and ladder_cauchy(steps, values, residuals,
                                               names)[0]

    ambient_res = np.array([ambient_norm(element_seq[k] - element_seq[k - 1])
                            for k in range(1, n_steps)])
    ambient_cauchy = n_steps >= 3 and ladder_cauchy(
        steps, [ambient_norm(x) for x in element_seq], ambient_res,
        ("ambient",))[0]

    if converged and ambient_cauchy:
        domain = "A" if space_complete else "Atilde"
    else:
        domain = "none"
    membership = ExtensionMembership(ambient_limit=ambient_cauchy,
                                     operator_cauchy=converged, domain=domain)
    limit = rep_seq[-1] if converged else None
    return ExtensionResult(converged=converged, limit=limit, topology=topology,
                           membership=membership, seminorm_names=tuple(names),
                           residual_trace=residuals,
                           ambient_residuals=ambient_res)


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
    verdicts = []
    for fam in null_families:
        ns = geometric_ladder(n_max, points=16)
        elements = [fam.generate(int(n)) for n in ns]
        if fam.tau_norm is not None:
            tau = np.array([fam.tau_norm(int(n)) for n in ns])
        elif ambient_norm is not None:
            tau = np.array([ambient_norm(x) for x in elements])
        else:
            raise ValueError(f"family {fam.name} carries no ambient norm")
        values, residuals, names = _suite_series(
            suite, [rep_map(x) for x in elements])
        verdicts.append(ladder_probe(fam.name, ns, tau, values, residuals,
                                     names))
    return verdicts


# ---------------------------------------------------------------------------
# Quasi *-algebra structure of the extension domain

@dataclass(frozen=True)
class ClosureStabilityReport:
    right_multiplication: list  # (sample, shift, cauchy) tuples
    involution: list            # (sample, cauchy) tuples, empty when skipped
    involution_skipped: bool
    bounded_rep_norm: float | None
    all_stable: bool


def quasi_algebra_closure_test(extension_samples, a_o_elements, rep_map,
                               mul, topology: str, *, suite: Suite,
                               star=None,
                               n_max: int = 256) -> ClosureStabilityReport:
    """Stability of the extension domain under right multiplication and *.

    extension_samples are approximating families for domain elements; for
    each sample X and each element B of the dense algebra, the family
    n -> X_n B must again have suite-Cauchy representatives.  Involution
    stability is checked unless the topology is the strong one, for which
    the involution is not continuous and the check is skipped and flagged.
    """
    ns = geometric_ladder(n_max, points=12)
    right = []
    for fam in extension_samples:
        elements = [fam.generate(int(n)) for n in ns]
        for label, b in a_o_elements:
            shifted_ops = [rep_map(mul(x, b)) for x in elements]
            right.append((fam.name, label, ladder_cauchy(
                ns, *_suite_series(suite, shifted_ops))[0]))

    involution = []
    skipped = topology == "strong"
    if not skipped:
        if star is None:
            raise ValueError("involution check needs a star operation")
        for fam in extension_samples:
            starred_ops = [rep_map(star(fam.generate(int(n)))) for n in ns]
            involution.append((fam.name, ladder_cauchy(
                ns, *_suite_series(suite, starred_ops))[0]))

    bounded = max((float(np.linalg.norm(rep_map(b).matrix, 2))
                   for _, b in a_o_elements), default=None)

    all_stable = (all(flag for _, _, flag in right)
                  and all(flag for _, flag in involution))
    return ClosureStabilityReport(right_multiplication=right,
                                  involution=involution,
                                  involution_skipped=skipped,
                                  bounded_rep_norm=bounded,
                                  all_stable=all_stable)
