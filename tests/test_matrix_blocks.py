"""Support-block arithmetic of the weighted matrix space against its dense
N x N embedding.

A block is an r x c part of an N x N truncation, the top-left corner
unless placed elsewhere (`at`); `np.asarray` embeds it densely.  Norms and the form agree with the dense computation to
1e-13 relative (the sums skip zeros, which reorders them), and exactly for
real blocks with one nonzero entry; differences and the involution are
exact.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qstarlab.matrix_lab import (WeightedMatrix, trace_form,
                                 trace_form_context, weight_matrix,
                                 weighted_norm)
from qstarlab.rates import geometric_ladder

REL = 1e-13
CTX = trace_form_context()
VALUES = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)


def _dense_weight(n):
    inv_sq = 1.0 / np.arange(1, n + 1, dtype=float) ** 2
    return np.outer(inv_sq, inv_sq)


@st.composite
def _block(draw, n):
    """An r x c block of real or complex entries spread over six decades
    (drawn from a seeded generator: blocks reach 40 x 40)."""
    rows = draw(st.integers(1, n))
    cols = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.standard_normal((rows, cols))
    if draw(st.booleans()):
        a = a + 1j * rng.standard_normal((rows, cols))
    return WeightedMatrix(a * 10.0 ** rng.uniform(-3, 3, (rows, cols)), n)


@st.composite
def _pair(draw, max_n=40):
    n = draw(st.integers(2, max_n))
    return draw(_block(n)), draw(_block(n))


@st.composite
def _one_entry(draw, n):
    """A real block with one nonzero entry.  (A complex product may round
    differently in the BLAS kernels for different sizes.)"""
    rows = draw(st.integers(1, n))
    cols = draw(st.integers(1, n))
    a = np.zeros((rows, cols))
    a[draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))] = \
        draw(VALUES)
    return WeightedMatrix(a, n)


def _close(got, want, scale):
    assert abs(got - want) <= REL * scale, (got, want, scale)


@settings(max_examples=150, deadline=None)
@given(_pair())
def test_norms_and_form_match_dense(pair):
    a, b = pair
    da, db = np.asarray(a), np.asarray(b)
    assert da.shape == (a.truncation, a.truncation)
    want_w = float(np.sqrt(np.sum(_dense_weight(a.truncation) * np.abs(da) ** 2)))
    _close(weighted_norm(a), want_w, want_w)
    scale = float(np.linalg.norm(da) * np.linalg.norm(db))
    _close(trace_form(a, b), complex(np.vdot(db, da)), scale)
    _close(trace_form(a, a), complex(np.vdot(da, da)), np.linalg.norm(da) ** 2)


@settings(max_examples=150, deadline=None)
@given(_pair())
def test_arithmetic_matches_dense(pair):
    a, b = pair
    da, db = np.asarray(a), np.asarray(b)
    for got, want in ((a - b, da - db), (a - db, da - db)):
        assert isinstance(got, WeightedMatrix)
        assert np.array_equal(np.asarray(got), want)
    star = CTX.star(a)
    assert star.entries.shape == a.entries.shape[::-1]
    assert np.array_equal(np.asarray(star), da.conj().T)
    prod = CTX.mul(a, b)
    assert prod.entries.shape == (a.entries.shape[0], b.entries.shape[1])
    scale = float(np.linalg.norm(da) * np.linalg.norm(db))
    assert np.max(np.abs(np.asarray(prod) - da @ db)) <= REL * scale


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 40).flatmap(lambda n: st.tuples(_one_entry(n),
                                                      _one_entry(n))))
def test_one_entry_blocks_are_exact(pair):
    a, b = pair
    da, db = np.asarray(a), np.asarray(b)
    w = _dense_weight(a.truncation)
    assert weighted_norm(a) == float(np.sqrt(np.sum(w * np.abs(da) ** 2)))
    assert trace_form(a, b) == complex(np.vdot(db, da))
    assert np.array_equal(np.asarray(CTX.mul(a, b)), da @ db)


def test_real_entries_are_float64_and_square_arrays_are_full_blocks():
    assert WeightedMatrix([[1, 2]], 4).entries.dtype == np.float64
    assert WeightedMatrix([[1j]], 4).entries.dtype == np.complex128
    full = WeightedMatrix(np.eye(3))
    assert full.truncation == 3 and full.entries.shape == (3, 3)
    assert weighted_norm(np.eye(3)) == weighted_norm(full)


def test_truncation_mismatch_and_oversized_blocks_rejected():
    a = WeightedMatrix(np.ones((2, 2)), 4)
    b = WeightedMatrix(np.ones((2, 2)), 5)
    with pytest.raises(ValueError, match="mismatch"):
        trace_form(a, b)
    with pytest.raises(ValueError, match="mismatch"):
        a - b
    with pytest.raises(ValueError, match="mismatch"):
        a - np.ones((5, 5))
    for shape in ((5, 3), (3, 5)):
        with pytest.raises(ValueError):
            WeightedMatrix(np.ones(shape), 4)
    with pytest.raises(ValueError):
        WeightedMatrix(np.ones((2, 3)))


def test_weight_matrix_is_cached_and_read_only():
    w = weight_matrix(17)
    assert weight_matrix(17) is w
    assert not w.flags.writeable
    assert np.array_equal(w, _dense_weight(17))
    with pytest.raises(ValueError):
        w[0, 0] = 2.0


@st.composite
def _positioned(draw, n):
    """A block placed anywhere in the truncation; one in three is a single
    real entry, as a moving_bump member is."""
    rows = draw(st.integers(1, n))
    cols = draw(st.integers(1, n))
    at = (draw(st.integers(0, n - rows)), draw(st.integers(0, n - cols)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.integers(0, 2)) == 0:
        return WeightedMatrix([[draw(VALUES)]], n, (at[0] + rows - 1,
                                                    at[1] + cols - 1))
    a = rng.standard_normal((rows, cols))
    if draw(st.booleans()):
        a = a + 1j * rng.standard_normal((rows, cols))
    return WeightedMatrix(a, n, at)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 40).flatmap(lambda n: st.tuples(_positioned(n),
                                                      _positioned(n))))
def test_positioned_blocks_match_dense(pair):
    a, b = pair
    da, db = np.asarray(a), np.asarray(b)
    r0, c0 = a.at
    assert np.array_equal(da[r0:r0 + a.entries.shape[0],
                             c0:c0 + a.entries.shape[1]], a.entries)
    assert np.count_nonzero(da) == np.count_nonzero(a.entries)
    diff = a - b
    assert np.array_equal(np.asarray(diff), da - db)
    assert np.array_equal(np.asarray(-0.5 * a), -0.5 * da)
    star = CTX.star(a)
    assert np.array_equal(np.asarray(star), da.conj().T)
    scale = float(np.linalg.norm(da) * np.linalg.norm(db))
    prod = CTX.mul(a, b)
    assert np.max(np.abs(np.asarray(prod) - da @ db)) <= REL * scale
    _close(trace_form(a, b), complex(np.vdot(db, da)), scale)
    want_w = float(np.sqrt(np.sum(_dense_weight(a.truncation)
                                  * np.abs(da) ** 2)))
    _close(weighted_norm(a), want_w, want_w)


@pytest.mark.parametrize("n", [4, 64, 256])
def test_bumps_are_exact_at_any_two_positions(n):
    """A sum over a block with one or two nonzero terms rounds once,
    whatever zeros surround them: the one-entry bumps of moving_bump give
    the dense values bit for bit."""
    w = _dense_weight(n)
    shift = WeightedMatrix(np.arange(1.0, 10.0).reshape(3, 3), n)
    # the positions of the 16-point replay ladder, as bump indices
    for i in sorted({min(int(k), n) - 1 for k in geometric_ladder(n, 16)}):
        for j in (0, i // 2, i, min(i + 1, n - 1), n - 1):
            a = WeightedMatrix([[1.0]], n, (i, i))
            b = WeightedMatrix([[-2.5]], n, (j, j))
            da, db = np.asarray(a), np.asarray(b)
            diff = a - b
            dd = da - db
            assert np.array_equal(np.asarray(diff), dd)
            assert diff.entries.shape == (abs(i - j) + 1,) * 2
            assert weighted_norm(diff) == float(np.sqrt(np.sum(
                w * np.abs(dd) ** 2)))
            assert trace_form(diff, diff) == complex(np.vdot(dd, dd))
            assert trace_form(a, b) == complex(np.vdot(db, da))
            for x, dx in ((a, da), (diff, dd)):
                assert np.array_equal(np.asarray(CTX.mul(x, shift)),
                                      dx @ np.asarray(shift))
                assert np.array_equal(np.asarray(CTX.star(x)), dx.T)


def test_blocks_that_do_not_meet():
    a = WeightedMatrix([[2.0]], 8, (5, 5))
    b = WeightedMatrix(np.ones((2, 2)), 8)
    assert trace_form(a, b) == 0j
    prod = CTX.mul(a, b)  # a's column 5 meets none of b's rows 0 and 1
    assert prod.at == (5, 0) and not prod.entries.any()
    assert np.array_equal(np.asarray(prod), np.asarray(a) @ np.asarray(b))
    with pytest.raises(ValueError, match="does not fit"):
        WeightedMatrix([[1.0, 2.0]], 8, (0, 7))
    with pytest.raises(ValueError, match="does not fit"):
        WeightedMatrix([[1.0]], 8, (-1, 0))
