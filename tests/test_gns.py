import dataclasses
import json

import numpy as np
import pytest

from qstarlab.algebra import (MissingUnitError, NonPositiveStateError, State,
                              StarAlgebra, cyclic_group_algebra,
                              evaluate_state, group_character_state,
                              group_trace_state, matrix_unit_algebra, multiply,
                              normalized_trace_state, scalar_algebra, star)
from qstarlab.gns import GNSRep, gns_construct, verify_gns
from qstarlab.serialize import complex_to_nested, gnsrep_to_dict

from conftest import coeffs_to_matrix, plain


def brute_force_gram(algebra, state, n):
    """Oracle: omega(e_i* e_j) through dense matrix products."""
    d = algebra.dim
    gram = np.zeros((d, d), dtype=complex)
    basis = [coeffs_to_matrix(e_i, n) for e_i in np.eye(d)]
    weights = coeffs_to_matrix(state.values, n)
    for i in range(d):
        for j in range(d):
            prod = basis[i].conj().T @ basis[j]
            gram[i, j] = np.sum(weights * prod.reshape(n, n))
    return gram


def state_vector(rep):
    """i -> <Omega, pi(e_i) Omega>: a unitary invariant of the representation."""
    return np.array([np.vdot(rep.cyclic_vector, m @ rep.cyclic_vector)
                     for m in rep.rep_matrices])


def rep_from_golden(data, algebra, state):
    """Rebuild a representation record written by gnsrep_to_dict."""
    def nested(key):
        arr = np.asarray(data[key], dtype=float)
        return arr[..., 0] + 1j * arr[..., 1]

    return GNSRep(algebra=algebra, state=state, rank=int(data["rank"]),
                  **{key: nested(key) for key in (
                      "gram", "quotient_basis", "projection", "rep_matrices",
                      "cyclic_vector")})


def test_gram_m2_trace_is_half_identity(m2, trace2):
    gram = trace2.check_positive(m2)
    assert np.allclose(gram, 0.5 * np.eye(4), atol=1e-14)
    assert np.allclose(gram, brute_force_gram(m2, trace2, 2), atol=1e-14)


def test_gram_scalar():
    algebra = scalar_algebra()
    gram = State(np.ones(1, dtype=complex)).check_positive(algebra)
    assert np.allclose(gram, [[1.0]])


def test_gram_corner_state_rank_two(m2, corner2):
    gram = corner2.check_positive(m2)
    assert np.allclose(gram, brute_force_gram(m2, corner2, 2), atol=1e-14)
    # SVD oracle for the rank; the kernel holds matrices with zero first column.
    assert np.linalg.matrix_rank(gram, tol=1e-10) == 2
    e12 = np.eye(4)[1]
    assert np.linalg.norm(gram @ e12) < 1e-14


def test_gram_rejects_non_positive_state(m2):
    with pytest.raises(NonPositiveStateError):
        State(np.array([0, 1.0, 1.0, 0], dtype=complex)).check_positive(m2)


def test_gns_scalar_identity_case():
    rep = gns_construct(scalar_algebra(), State(np.ones(1, dtype=complex)))
    assert rep.rank == 1
    assert np.allclose(rep.rep_matrices[0], [[1.0]])
    assert np.allclose(np.abs(rep.cyclic_vector), [1.0])
    diag = verify_gns(rep)
    assert diag["max_residual"] == 0.0


def test_gns_m2_trace_faithful(m2, trace2):
    rep = gns_construct(m2, trace2)
    assert rep.rank == 4
    diag = verify_gns(rep)
    assert diag["max_residual"] < 1e-10
    assert diag["cyclicity_rank"] == 4
    # Oracle: pi is similar to left multiplication, so traces must agree.
    for i in range(4):
        left = m2.structure[i].T  # x -> e_i x on coefficient space
        assert abs(np.trace(rep.rep_matrices[i]) - np.trace(left)) < 1e-10


def test_gns_corner_state_is_defining_representation(m2, corner2):
    rep = gns_construct(m2, corner2)
    assert rep.rank == 2
    diag = verify_gns(rep)
    assert diag["max_residual"] < 1e-10
    # Character oracle: traces match the defining 2x2 matrix units.
    for i in range(4):
        dense = coeffs_to_matrix(np.eye(4)[i], 2)
        assert abs(np.trace(rep.rep_matrices[i]) - np.trace(dense)) < 1e-10


def test_verify_flags_corrupted_rep(m2, trace2):
    rep = gns_construct(m2, trace2)
    bad_matrices = rep.rep_matrices.copy()
    bad_matrices[1, 0, 0] += 5e-2
    bad = GNSRep(algebra=rep.algebra, state=rep.state, gram=rep.gram,
                 quotient_basis=rep.quotient_basis, projection=rep.projection,
                 rep_matrices=bad_matrices, cyclic_vector=rep.cyclic_vector,
                 rank=rep.rank)
    assert verify_gns(bad)["residuals"]["homomorphism"] > 1e-3
    # one NaN class coordinate spoils the inner products; it must fail the
    # residual bound of the gns_construct operation, not drop out of a
    # running maximum
    projection = rep.projection.copy()
    projection[0, 1] = np.nan
    diag = verify_gns(dataclasses.replace(rep, projection=projection))
    assert np.isnan(diag["residuals"]["inner_product"])
    assert not diag["max_residual"] < 1e-10


def test_rank_plus_kernel_is_dim():
    cases = [
        (matrix_unit_algebra(2), normalized_trace_state(2)),
        (matrix_unit_algebra(2),
         State(np.array([1, 0, 0, 0], dtype=complex), name="corner")),
        (cyclic_group_algebra(4), group_trace_state(4)),
        (cyclic_group_algebra(4), group_character_state(4)),
    ]
    for algebra, state in cases:
        state = State(state.values / np.dot(state.values, algebra.unit),
                      name=state.name)
        rep = gns_construct(algebra, state)
        diag = verify_gns(rep)
        assert rep.rank + diag["kernel_dim"] == algebra.dim


def test_group_character_rank_one(z4):
    rep = gns_construct(z4, group_character_state(4))
    assert rep.rank == 1
    assert verify_gns(rep)["max_residual"] < 1e-12


def test_quotient_inner_product_reproduces_state(m2, corner2):
    rep = gns_construct(m2, corner2)
    for i in range(4):
        for j in range(4):
            lhs = complex(np.vdot(rep.projection[:, j], rep.projection[:, i]))
            e_i, e_j = np.eye(4)[i], np.eye(4)[j]
            rhs = evaluate_state(corner2, multiply(m2, star(m2, e_j), e_i))
            assert abs(lhs - rhs) < 1e-10


def test_missing_unit_and_unnormalized_state(m2):
    nil = StarAlgebra(np.zeros((1, 1, 1)), np.ones((1, 1)), None)  # e*e = 0
    with pytest.raises(MissingUnitError):
        gns_construct(nil, State(np.ones(1, dtype=complex)))
    with pytest.raises(ValueError, match="normalized"):
        gns_construct(m2, State(2.0 * normalized_trace_state(2).values))


def test_golden_file_regression(m2, trace2):
    import os

    data_dir = os.path.join(os.path.dirname(__file__), "data")

    def load(name):
        with open(os.path.join(data_dir, name), encoding="utf-8") as fh:
            return json.load(fh)

    golden = load("gns_scalar.json")
    scalars = scalar_algebra()
    ident = State(np.ones(1, dtype=complex), name="id")
    rebuilt = rep_from_golden(golden, scalars, ident)
    assert rebuilt.rank == 1
    assert verify_gns(rebuilt)["max_residual"] == 0.0
    # a freshly built scalar rep serializes byte-identically to the golden
    fresh = gns_construct(scalars, ident)
    assert json.dumps(gnsrep_to_dict(fresh), sort_keys=True) \
        == json.dumps(golden, sort_keys=True)

    rebuilt = rep_from_golden(load("gns_m2_trace.json"), m2, trace2)
    assert rebuilt.rank == 4
    diag = verify_gns(rebuilt)
    assert diag["max_residual"] < 1e-10
    assert np.max(np.abs(state_vector(rebuilt) - trace2.values)) < 1e-10


def test_serialization_is_deterministic(m2, trace2):
    rep1 = gns_construct(m2, trace2)
    rep2 = gns_construct(m2, trace2)
    dump1 = json.dumps(gnsrep_to_dict(rep1), sort_keys=True)
    dump2 = json.dumps(gnsrep_to_dict(rep2), sort_keys=True)
    assert dump1 == dump2
    payload = json.loads(dump1)
    assert payload["rank"] == 4
    gram = np.asarray(payload["gram"], dtype=float)
    assert gram.shape == (4, 4, 2)
    assert complex_to_nested(np.array(1.0 + 2.0j)) == [1.0, 2.0]
    odd = [complex(-0.0, np.nan), complex(np.inf, -0.0),
           complex(np.nan, -np.inf), complex(1e-310, -1e16),
           complex(2.5, -0.0), complex(-0.0, 0.5)]
    for arr in (np.array(odd[:1]), np.array(odd),
                np.array(odd).reshape(2, 3), np.array(odd).reshape(3, 2, 1),
                np.array(odd[:4]).reshape(2, 1, 2)):
        assert repr(complex_to_nested(arr)) == repr(plain(arr))
