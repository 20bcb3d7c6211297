"""Every probe-family member, lemma24 shift and entry-rule matrix, embedded
densely, equals the dense complex matrix of the reference construction
exactly.

The reference builders below construct each member as a dense complex
N x N array, entry by entry, the way the matrix lab did before it stored
support blocks.  Real-valued members must now be float64 blocks with the
shapes the families are defined by.
"""

import numpy as np
import pytest

from qstarlab.matrix_lab import ENTRY_RULES, _rule_matrix, matrix_family
from qstarlab.rates import geometric_ladder
from qstarlab.scenarios import _matrix_shift_suite


def _corner(k, n):
    a = np.zeros((n, n), dtype=complex)
    a[0, 0] = 1.0 / k
    return a


def _rank_one_decay(k, n):
    inv = 1.0 / np.arange(1, n + 1, dtype=float)
    return (2.0 ** -float(k)) * np.outer(inv, inv).astype(complex)


def _shrinking_block(k, n):
    a = np.zeros((n, n), dtype=complex)
    side = min(int(np.ceil(np.sqrt(k))), n)
    a[:side, :side] = 1.0 / k ** 2
    return a


def _decaying_column(k, n):
    # (1/k) times the 1/m^2 column: the family is declared as that scalar
    # multiple, which differs from 1/(k m^2) in the last bit of some entries.
    a = np.zeros((n, n), dtype=complex)
    a[:, 0] = (1.0 / k) * (1.0 / np.arange(1, n + 1, dtype=float) ** 2)
    return a


def _moving_bump(k, n):
    a = np.zeros((n, n), dtype=complex)
    idx = min(k, n) - 1
    a[idx, idx] = 1.0
    return a


def _spreading_block(k, n):
    a = np.zeros((n, n), dtype=complex)
    side = min(k, n)
    a[:side, :side] = 1.0 / k
    return a


def _shifts(n):
    e11 = np.zeros((n, n), dtype=complex)
    e11[0, 0] = 1.0
    swap = np.zeros((n, n), dtype=complex)
    swap[0, 1] = swap[1, 0] = 1.0
    diag3 = np.zeros((n, n), dtype=complex)
    diag3[:3, :3] = np.diag([1.0, 1.0, 1.0])
    band = np.zeros((n, n), dtype=complex)
    for i in range(3):
        for j in range(3):
            band[i, j] = 1.0 / (i + j + 1)
    cornerj = np.zeros((n, n), dtype=complex)
    cornerj[0, 2] = 1.0j
    return [("E11", e11), ("swap12", swap), ("diag3", diag3),
            ("band3", band), ("corner_i", cornerj)]


# family -> (reference builder, block shape of member k at truncation n)
FAMILIES = {
    "scaled_corner": (_corner, lambda k, n: (1, 1)),
    "decaying_column": (_decaying_column, lambda k, n: (n, 1)),
    "shrinking_block": (_shrinking_block,
                        lambda k, n: (min(int(np.ceil(np.sqrt(k))), n),) * 2),
    "spreading_block": (_spreading_block, lambda k, n: (min(k, n),) * 2),
    "moving_bump": (_moving_bump, lambda k, n: (1, 1)),
    "rank_one_decay": (_rank_one_decay, lambda k, n: (n, n)),
}


@pytest.mark.parametrize("n", [8, 64, 256])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_family_members_equal_reference(name, n):
    reference, shape = FAMILIES[name]
    family = matrix_family(name, n)
    # the probe's and the replay's ladders
    ks = sorted({int(k) for points in (16, 24)
                 for k in geometric_ladder(n, points=points)})
    for k in ks:
        member = family.generate(k)
        assert member.truncation == n
        assert member.entries.dtype == np.float64, (name, k)
        assert member.entries.shape == shape(k, n), (name, k)
        dense = np.asarray(member)
        assert dense.shape == (n, n)
        assert (dense == reference(k, n)).all(), (name, k)


@pytest.mark.parametrize("n", [8, 64, 256])
def test_lemma24_shifts_equal_reference(n):
    got = _matrix_shift_suite(n)
    want = _shifts(n)
    assert [label for label, _ in got] == [label for label, _ in want]
    for (label, block), (_, dense) in zip(got, want):
        assert block.truncation == n
        assert (np.asarray(block) == dense).all(), label
        real = label != "corner_i"
        assert block.entries.dtype == (np.float64 if real else np.complex128)


@pytest.mark.parametrize("n", [16, 256])
def test_rule_matrices_equal_reference(n):
    idx = np.arange(1, n + 1, dtype=float)
    for name, (rule, _) in ENTRY_RULES.items():
        got = _rule_matrix(rule, n)
        assert got.dtype == np.float64, name
        want = np.asarray(rule(idx[:, None], idx[None, :]), dtype=complex)
        assert got.shape == (n, n) and (got == want).all(), name
