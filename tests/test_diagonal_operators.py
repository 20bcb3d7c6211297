"""The diagonal form of TruncatedOperator and the stacked BoundedSet give
exactly the values of the dense path they replace."""

import numpy as np
import pytest

from qstarlab import function_lab as flab
from qstarlab.topologies import (TOPOLOGIES, BoundedSet, TruncatedOperator,
                                 seminorm, strongstar_hilbert_seminorm)

GRID = flab.simpson_grid(65)
DIM = GRID.n_nodes


def random_vector(rng, complex_valued=True):
    v = rng.standard_normal(DIM)
    return v + 1j * rng.standard_normal(DIM) if complex_valued else v


def random_set(rng):
    return BoundedSet(tuple(random_vector(rng) for _ in range(5)), name="random")


BOUNDED_SETS = {
    "node-spikes": lambda rng: flab.node_spike_set(GRID),
    "smooth-ball": lambda rng: flab.smooth_ball_set(GRID, 2.0, count=4, seed=3),
    "random": random_set,
}


@pytest.mark.parametrize("complex_valued", [False, True])
@pytest.mark.parametrize("set_name", sorted(BOUNDED_SETS))
def test_diagonal_seminorms_equal_dense(set_name, complex_valued):
    rng = np.random.default_rng(7)
    m = BOUNDED_SETS[set_name](rng)
    for _ in range(3):
        d = random_vector(rng, complex_valued)
        diag, dense = TruncatedOperator(diag=d), TruncatedOperator(np.diag(d))
        phi, psi = random_vector(rng), random_vector(rng)
        args = {"m": m, "phi": phi, "psi": psi}
        for topology in TOPOLOGIES:
            assert seminorm(diag, topology, **args) == \
                seminorm(dense, topology, **args), topology
        assert strongstar_hilbert_seminorm(diag, phi) == \
            strongstar_hilbert_seminorm(dense, phi)


@pytest.mark.parametrize("complex_valued", [False, True])
def test_diagonal_arithmetic_equals_dense(complex_valued):
    rng = np.random.default_rng(11)
    a, b = random_vector(rng, complex_valued), random_vector(rng, complex_valued)
    da, db = np.diag(a.astype(complex)), np.diag(b.astype(complex))
    op_a, op_b = TruncatedOperator(diag=a), TruncatedOperator(diag=b)
    difference, total = op_a - op_b, op_a + op_b
    assert difference.diag is not None and total.diag is not None
    assert np.array_equal(difference.matrix, da - db)
    assert np.array_equal(total.matrix, da + db)
    assert op_a.adjoint().diag is not None
    assert np.array_equal(op_a.adjoint().matrix, da.conj().T)
    assert np.array_equal(op_a.adjoint_matrix, da.conj().T)
    v = random_vector(rng)
    assert np.array_equal(op_a.apply(v), da @ v)
    assert np.array_equal(op_a.adjoint().apply(v), da.conj().T @ v)
    block = np.stack([random_vector(rng) for _ in range(3)], axis=1)
    assert np.array_equal(op_a.apply(block), da @ block)
    assert op_a.dim == DIM


def test_mixed_diagonal_dense_arithmetic():
    rng = np.random.default_rng(13)
    d = random_vector(rng, complex_valued=False)
    mat = rng.standard_normal((DIM, DIM)) + 1j * rng.standard_normal((DIM, DIM))
    diag, dense = TruncatedOperator(diag=d), TruncatedOperator(mat)
    for result, expected in ((diag - dense, np.diag(d) - mat),
                             (dense - diag, mat - np.diag(d)),
                             (diag + dense, np.diag(d) + mat)):
        assert result.diag is None
        assert np.array_equal(result.matrix, expected)
    with pytest.raises(ValueError, match="dimensions differ"):
        diag - TruncatedOperator(np.eye(3))


def test_diagonal_constructor_validation():
    with pytest.raises(ValueError, match="1-D"):
        TruncatedOperator(diag=np.ones((3, 3)))
    with pytest.raises(ValueError, match="1-D"):
        TruncatedOperator(diag=1.0)
    with pytest.raises(ValueError, match="either"):
        TruncatedOperator()
    with pytest.raises(ValueError, match="either"):
        TruncatedOperator(np.eye(2), diag=np.ones(2))


def test_mult_operator_is_diagonal():
    f = flab.power_function(GRID, 0.2)
    op = flab.mult_operator(f)
    assert op.diag is not None
    assert np.array_equal(op.matrix, np.diag(f.values))


def test_bounded_set_stacks_once_read_only():
    rng = np.random.default_rng(17)
    raw = [random_vector(rng, complex_valued=False) for _ in range(4)]
    m = BoundedSet(tuple(raw), name="M")
    assert np.array_equal(m.stack(), np.stack(m.vectors))
    assert np.array_equal(m.stack(), np.stack(raw).astype(complex))
    assert np.array_equal(m.conj_rows, m.rows.conj())
    assert all(v.base is m.rows for v in m.vectors)
    with pytest.raises(ValueError):
        m.vectors[0][0] = 5.0
    with pytest.raises(ValueError):
        m.rows[0, 0] = 5.0
    with pytest.raises(ValueError):
        m.conj_rows[0, 0] = 5.0
    fresh = m.stack()
    fresh[0, 0] = 5.0
    assert m.vectors[0][0] == raw[0][0]
    raw[0][0] = 7.0
    assert m.vectors[0][0] != 7.0
