"""The diagonal form of TruncatedOperator and the stacked BoundedSet give
exactly the values of the dense path they replace."""

import tracemalloc

import numpy as np
import pytest

from conftest import one_seminorm
from qstarlab import function_lab as flab
from qstarlab.topologies import (TOPOLOGIES, BoundedSet, Suite,
                                 TruncatedOperator, seminorm)

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
            assert one_seminorm(diag, topology, **args) == \
                one_seminorm(dense, topology, **args), topology


@pytest.mark.parametrize("complex_valued", [False, True])
def test_diagonal_arithmetic_equals_dense(complex_valued):
    rng = np.random.default_rng(11)
    a, b = random_vector(rng, complex_valued), random_vector(rng, complex_valued)
    da, db = np.diag(a.astype(complex)), np.diag(b.astype(complex))
    op_a, op_b = TruncatedOperator(diag=a), TruncatedOperator(diag=b)
    difference = op_a - op_b
    assert difference.diag is not None
    assert np.array_equal(difference.matrix, da - db)
    assert op_a.adjoint().diag is not None
    assert np.array_equal(op_a.adjoint().matrix, da.conj().T)
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
                             (dense - diag, mat - np.diag(d))):
        assert result.diag is None
        assert np.array_equal(result.matrix, expected)
    with pytest.raises(ValueError, match="dimensions differ"):
        diag - TruncatedOperator(np.eye(3))


def test_diagonal_constructor_validation():
    # a real 2-D diagonal is a stack of operators, which has no one matrix
    stack = TruncatedOperator(diag=np.ones((3, 4)))
    assert stack.dim == 4
    with pytest.raises(ValueError, match="no single matrix"):
        stack.matrix
    # what needs one operator goes through .matrix, so a stack raises
    one = TruncatedOperator(diag=np.ones(4))
    for misuse in (lambda: stack.apply(np.ones(4)), lambda: stack - one,
                   lambda: one - stack,
                   lambda: stack - TruncatedOperator(np.eye(4))):
        with pytest.raises(ValueError, match="no single matrix"):
            misuse()
    assert np.array_equal((stack - stack).diag, np.zeros((3, 4)))
    with pytest.raises(ValueError, match="1-D"):
        TruncatedOperator(diag=np.ones((3, 3)) + 1j * np.eye(3))
    with pytest.raises(ValueError, match="1-D"):
        TruncatedOperator(diag=np.ones((2, 3, 3)))
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
    assert np.array_equal(m.stack(), m.rows) and m.dim == len(raw[0])
    assert np.array_equal(m.stack(), np.stack(raw).astype(complex))
    assert np.array_equal(m.conj_rows, m.rows.conj())
    with pytest.raises(ValueError):
        m.rows[0, 0] = 5.0
    with pytest.raises(ValueError):
        m.conj_rows[0, 0] = 5.0
    fresh = m.stack()
    fresh[0, 0] = 5.0
    assert m.rows[0, 0] == raw[0][0]
    raw[0][0] = 7.0
    assert m.rows[0, 0] != 7.0 and m.stack()[0, 0] != 7.0


# The canonical basis (node spikes) reads operator entries; the seminorms
# must equal the explicit products with the set's rows bit for bit.

SPIKE_TOPOLOGIES = ("uniform", "strong", "strongstar")


def product_reference(a, topology, m, phi):
    """The seminorm computed with explicit products against m's rows."""
    rows = m.stack()

    def strong(mat):
        return float(np.max(np.abs(rows.conj() @ (mat @ phi))))

    if topology == "uniform":
        return float(np.max(np.abs(rows.conj() @ a.matrix @ rows.T)))
    if topology == "strong":
        return strong(a.matrix)
    return max(strong(a.matrix), strong(a.matrix.conj().T))


def weak_reference(a, phi, psi):
    """The weak seminorm computed with the dense matrix."""
    return abs(complex(np.vdot(psi, a.matrix @ phi)))


def sample_operators(rng, dim):
    d = rng.standard_normal(dim)
    dense = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return {"real-diagonal": TruncatedOperator(diag=d),
            "complex-diagonal": TruncatedOperator(
                diag=d + 1j * rng.standard_normal(dim)),
            "dense": TruncatedOperator(dense)}


@pytest.mark.parametrize("n_nodes", [33, 257])
def test_node_spike_seminorms_equal_products(n_nodes):
    rng = np.random.default_rng(n_nodes)
    spikes = flab.node_spike_set(flab.simpson_grid(n_nodes))
    assert spikes.is_basis
    for _ in range(2):
        phi = rng.standard_normal(n_nodes) + 1j * rng.standard_normal(n_nodes)
        for kind, a in sample_operators(rng, n_nodes).items():
            for topology in SPIKE_TOPOLOGIES:
                assert one_seminorm(a, topology, spikes, phi) == \
                    product_reference(a, topology, spikes, phi), (kind, topology)


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_suite_values_follow_its_names(topology):
    # Two bounded sets and three test vectors (three pairs for weak): the
    # values come set by set, each set's in vector order, as the names do.
    rng = np.random.default_rng(31)
    sets = [flab.node_spike_set(GRID), random_set(rng)]
    phis = [(f"v{i}", random_vector(rng)) for i in range(3)]
    pairs = [(f"{a}|{b}", u, v) for (a, u), (b, v)
             in zip(phis, phis[1:] + phis[:1])]
    suite = Suite(topology, sets, phis=phis, weak_pairs=pairs)
    for kind, a in sample_operators(rng, DIM).items():
        if topology == "weak":
            expected = {f"weak|{label}": weak_reference(a, phi, psi)
                        for label, phi, psi in pairs}
        elif topology == "uniform":
            expected = {f"uniform|{m.name}":
                        product_reference(a, topology, m, None) for m in sets}
        else:
            expected = {f"{topology}|{m.name}|{label}":
                        product_reference(a, topology, m, phi)
                        for m in sets for label, phi in phis}
        assert suite.names == tuple(expected)
        assert seminorm(a, suite).tolist() == list(expected.values()), kind


def test_strongstar_takes_one_image_of_a_real_diagonal_only(monkeypatch):
    calls, adjoint = [], TruncatedOperator.adjoint
    monkeypatch.setattr(TruncatedOperator, "adjoint",
                        lambda op: calls.append(op) or adjoint(op))
    rng = np.random.default_rng(41)
    sets = [flab.node_spike_set(GRID), random_set(rng),
            flab.smooth_ball_set(GRID, 2.0, count=4, seed=3)]
    phis = [(f"v{i}", random_vector(rng)) for i in range(3)]
    suite = Suite("strongstar", sets, phis=phis)
    d = rng.standard_normal(DIM)
    for entry in (0.0, np.nan):
        d[5] = entry
        real = TruncatedOperator(diag=d)
        np.testing.assert_array_equal(
            seminorm(real, suite),
            [product_reference(real, "strongstar", m, phi)
             for m in sets for _, phi in phis])
        assert not calls  # its adjoint was never needed
    # a complex diagonal is not self-adjoint: against this set its image
    # pairs to 0 and only the adjoint's image gives the value sqrt(2)
    a = TruncatedOperator(diag=[1j, 1.0])
    tilted = BoundedSet((np.array([1.0, 1j]) / np.sqrt(2),), name="tilted")
    phi = np.array([1.0, 1.0])
    assert one_seminorm(a, "strong", tilted, phi) == pytest.approx(0.0, abs=1e-15)
    assert one_seminorm(a, "strongstar", tilted, phi) == pytest.approx(np.sqrt(2))
    assert calls == [a]
    # one adjoint per evaluation, not one per test vector
    seminorm(TruncatedOperator(diag=np.ones(DIM) + 1j), suite)
    assert len(calls) == 2


def test_node_spikes_build_no_identity():
    # A materialized 1025 x 1025 complex identity takes 16.8 MB.
    tracemalloc.start()
    try:
        spikes = flab.node_spike_set(flab.simpson_grid(1025))
        a = TruncatedOperator(diag=np.arange(1025.0))
        phi = np.ones(1025, dtype=complex)
        assert one_seminorm(a, "uniform", spikes) == 1024.0
        assert one_seminorm(a, "strong", spikes, phi) == 1024.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak
    assert spikes.is_basis and spikes.name == "node-spikes"
    assert spikes.rows is None and spikes.conj_rows is None
    assert np.array_equal(spikes.stack(), np.eye(1025))


def test_basis_is_declared_not_detected():
    # The identity's rows given as vectors stay an ordinary set (product
    # path); its seminorms equal the declared basis's for finite entries.
    rng = np.random.default_rng(23)
    given = BoundedSet(tuple(np.eye(DIM)), name="identity-rows")
    declared = BoundedSet.basis(DIM, "identity")
    assert not given.is_basis and declared.is_basis
    phi = rng.standard_normal(DIM) + 1j * rng.standard_normal(DIM)
    for kind, a in sample_operators(rng, DIM).items():
        for topology in SPIKE_TOPOLOGIES:
            assert one_seminorm(a, topology, given, phi) == \
                one_seminorm(a, topology, declared, phi), (kind, topology)
    assert np.array_equal(declared.stack(), given.stack())


def eye_with_eps(dim):
    rows = np.eye(dim)
    rows[0, 1] = 1e-3
    return rows


NOT_BASIS = {
    "permuted": lambda: np.eye(DIM)[np.roll(np.arange(DIM), 1)],
    "scaled": lambda: 3.0 * np.eye(DIM),
    "off-diagonal-eps": lambda: eye_with_eps(DIM),
    "non-square": lambda: np.eye(DIM)[:-1],
    "smooth-ball": lambda: flab.smooth_ball_set(GRID, 2.0, count=4, seed=3).rows,
}


@pytest.mark.parametrize("set_name", sorted(NOT_BASIS))
def test_near_basis_sets_keep_the_product_path(set_name):
    rng = np.random.default_rng(19)
    m = BoundedSet(tuple(NOT_BASIS[set_name]()), name=set_name)
    assert not m.is_basis
    phi = rng.standard_normal(DIM) + 1j * rng.standard_normal(DIM)
    for kind, a in sample_operators(rng, DIM).items():
        for topology in SPIKE_TOPOLOGIES:
            assert one_seminorm(a, topology, m, phi) == \
                product_reference(a, topology, m, phi), (kind, topology)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_node_spike_seminorms_of_non_finite_entries():
    # Read entries give inf for an inf entry, where the product with I
    # gives nan (0 * inf); a nan entry gives nan either way.
    spikes = flab.node_spike_set(GRID)
    phi = np.ones(DIM, dtype=complex)
    for bad in (np.inf, -np.inf):
        d = np.ones(DIM)
        d[5] = bad
        assert one_seminorm(TruncatedOperator(np.diag(d)), "uniform", spikes) \
            == np.inf
        for topology in SPIKE_TOPOLOGIES:
            assert one_seminorm(TruncatedOperator(diag=d), topology, spikes,
                            phi) == np.inf
    d = np.ones(DIM)
    d[5] = np.nan
    for a in (TruncatedOperator(diag=d), TruncatedOperator(np.diag(d))):
        for topology in SPIKE_TOPOLOGIES:
            assert np.isnan(one_seminorm(a, topology, spikes, phi))
