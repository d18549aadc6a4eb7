"""Every packed-row GF(2) kernel against the plain numpy reference in helpers,
and asbits against the plain mod-2 reduction.

Widths straddle byte and 64-bit word boundaries (1, 7, 8, 9, 63, 64, 65, up
to 130 columns), zero rows and zero columns included; low-rank products
give dependent rows, zero rows and empty columns.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import sympcliff as sc
from sympcliff.gf2core import _eliminate, _mul_rows, _pack, _rank, _transpose
from helpers import (ref_coset_leader, ref_invert, ref_lex_min_nonzero,
                     ref_lu_decompose, ref_mul, ref_nullspace, ref_rank,
                     ref_rref, ref_solve_linear)

WIDTHS = st.sampled_from([0, 1, 7, 8, 9, 63, 64, 65, 130]) | st.integers(0, 130)


def bit_arrays(rows, cols):
    return arrays(np.uint8, (rows, cols), elements=st.integers(0, 1))


@st.composite
def matrices(draw, rows=None, cols=None):
    """A 0/1 matrix, either unstructured or of rank at most 4."""
    rows = draw(st.integers(0, 12)) if rows is None else rows
    cols = draw(WIDTHS) if cols is None else cols
    if draw(st.booleans()):
        return draw(bit_arrays(rows, cols))
    inner = draw(st.integers(0, 4))
    return ref_mul(draw(bit_arrays(rows, inner)), draw(bit_arrays(inner, cols)))


@st.composite
def squares(draw):
    """A square 0/1 matrix, invertible (a row-permuted L U product) or not."""
    n = draw(st.sampled_from([0, 1, 7, 8, 9, 63, 64, 65]) | st.integers(0, 70))
    if draw(st.booleans()):
        return draw(matrices(rows=n, cols=n))
    low = np.tril(draw(bit_arrays(n, n)), -1) | np.eye(n, dtype=np.uint8)
    up = np.triu(draw(bit_arrays(n, n)), 1) | np.eye(n, dtype=np.uint8)
    perm = draw(st.permutations(range(n)))
    return ref_mul(low, up)[list(perm)]


def assert_same(got, want):
    """Equal values, dtypes and shapes, through tuples and lists."""
    if isinstance(want, (tuple, list)):
        assert type(got) is type(want) and len(got) == len(want)
        for g, w in zip(got, want):
            assert_same(g, w)
    elif isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert np.array_equal(got, want)
    else:
        assert type(got) is type(want) and got == want


def outcome(fn, *args):
    """The result, or the exception type for a raising call."""
    try:
        return fn(*args)
    except (sc.SingularMatrixError, sc.InfeasibleError) as err:
        return type(err)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_transpose_matches_numpy(m):
    assert _transpose(_pack(m), m.shape[1]) == _pack(m.T)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rref_rank_and_nullspace_match_reference(m):
    assert_same(sc.rref(m), ref_rref(m))
    assert sc.rank(m) == ref_rank(m)
    assert_same(sc.nullspace(m), ref_nullspace(m))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_solve_linear_matches_reference(data):
    m = data.draw(matrices())
    if data.draw(st.booleans()):
        rhs = data.draw(bit_arrays(m.shape[0], 1)).ravel()
    else:
        x = data.draw(bit_arrays(m.shape[1], 1))
        rhs = ref_mul(m, x).ravel()
    ref = ref_solve_linear(m, rhs)
    got = sc.solve_linear(m, rhs)
    if ref is None:
        assert got is None
        return
    assert_same(got, (ref_coset_leader(*ref), ref_nullspace(m)))
    if got[1].shape[0]:
        assert_same(got[1][-1], ref_lex_min_nonzero(got[1]))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_coset_leader_and_lex_min_nonzero_match_reference(data):
    # A system whose solution set is the coset x + span(basis): its rows
    # span the annihilator of the basis, so its nullspace is span(basis).
    basis = data.draw(matrices())
    x = data.draw(bit_arrays(1, basis.shape[1])).ravel()
    m = ref_nullspace(basis)
    leader, null = sc.solve_linear(m, ref_mul(m, x.reshape(-1, 1)).ravel())
    assert_same(leader, ref_coset_leader(x, basis))
    got = null[-1] if null.shape[0] else sc.InfeasibleError
    assert_same(got, outcome(ref_lex_min_nonzero, basis))


@settings(max_examples=150, deadline=None)
@given(squares())
def test_invert_and_lu_decompose_match_reference(q):
    assert_same(outcome(sc.invert, q), outcome(ref_invert, q))
    assert_same(outcome(sc.lu_decompose, q), outcome(ref_lu_decompose, q))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_mul_matches_reference(data):
    r, k1, k2, c = (data.draw(st.integers(0, 12)), data.draw(st.integers(0, 300)),
                    data.draw(st.integers(0, 300)), data.draw(WIDTHS))
    a = data.draw(bit_arrays(r, k1))
    b = data.draw(bit_arrays(k1, k2))
    d = data.draw(bit_arrays(k2, c))
    assert_same(sc.mul(a, b), ref_mul(a, b))
    assert_same(sc.mul(a, b, d), ref_mul(a, b, d))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mul_rows_matches_reference_and_ignores_stray_high_bits(data):
    # X is r x k and M is k x c; each packed X row also carries stray bits
    # from k up, which must neither count nor reach a neighbouring row
    k, c = data.draw(WIDTHS), data.draw(WIDTHS)
    x = data.draw(matrices(cols=k))
    m = data.draw(matrices(rows=k, cols=c))
    m[data.draw(st.lists(st.booleans(), min_size=k, max_size=k))] = 0
    x[:, data.draw(st.integers(0, k)):] = 0  # X's rows may end well before row k of M
    stray = st.integers(0, (1 << data.draw(st.sampled_from([0, 1, 8, 200]))) - 1)
    xs = [r | data.draw(stray) << k for r in _pack(x)]
    assert _mul_rows(xs, _pack(m)) == _pack(ref_mul(x, m))



ASBITS_ELEMENTS = {
    np.uint8: st.integers(0, 255),
    np.bool_: st.booleans(),
    np.int8: st.integers(-128, 127),
    np.int64: st.integers(-2**62, 2**62),
    # integral floats read as integers; any other float is refused
    np.float64: st.floats(-1e6, 1e6) | st.integers(-2**53, 2**53).map(float),
}


@st.composite
def asbits_inputs(draw):
    """An array of any of the dtypes in ASBITS_ELEMENTS, 0-d and empty
    included, sometimes a non-contiguous view of a 2-D array or a list."""
    dtype = draw(st.sampled_from(list(ASBITS_ELEMENTS)))
    elements = ASBITS_ELEMENTS[dtype]
    if dtype is np.uint8 and draw(st.booleans()):
        elements = st.integers(0, 1)  # passes through asbits uncopied
    shape = draw(array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6))
    x = draw(arrays(dtype, shape, elements=elements))
    view = draw(st.sampled_from(["as is", "T", "every other column", "list"]))
    if view == "T":
        x = x.T
    elif view == "every other column" and x.ndim == 2:
        x = x[:, ::2]
    elif view == "list":
        x = x.tolist()
    return x


@settings(max_examples=300, deadline=None)
@given(asbits_inputs())
def test_asbits_matches_mod_2(x):
    arr = np.asarray(x)
    if not np.array_equal(np.trunc(arr), arr):  # a float that is not an integer
        first = arr[np.trunc(arr) != arr].tolist()[0]
        with pytest.raises(ValueError, match=r"^bit value %s is not an integer$"
                           % re.escape(repr(first))):
            sc.asbits(x)
        return
    got = sc.asbits(x)
    want = np.mod(arr, 2).astype(np.uint8)
    # a 0-d input may come back as a numpy scalar on either side
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert np.array_equal(got, want)
    if isinstance(x, np.ndarray) and x.dtype == np.uint8 and not (x > 1).any():
        assert got is x


def test_asbits_examples():
    a = np.array([[0, 1, 1], [1, 0, 0]], dtype=np.uint8)
    for view in (a, a.T, a[:, ::2], a[:, :0], np.ones((), np.uint8)):
        assert sc.asbits(view) is view
    b = np.array([[2, 255], [3, 4]], dtype=np.uint8)
    assert_same(sc.asbits(b), np.array([[0, 1], [1, 0]], dtype=np.uint8))
    assert_same(sc.asbits(b.T[:, ::-1]), np.array([[1, 0], [0, 1]], dtype=np.uint8))
    assert_same(sc.asbits(np.array([-1, -2, 3], dtype=np.int8)),
                np.array([1, 0, 1], dtype=np.uint8))
    assert_same(sc.asbits(np.array([True, False])), np.array([1, 0], dtype=np.uint8))
    assert sc.asbits(np.float64(3.0)) == 1


@settings(max_examples=150, deadline=None)
@given(matrices(), st.sampled_from([0, 1, 8, 64, 200]))
def test_eliminate_matches_reference_past_the_rows_last_bit(m, extra):
    # zero columns past every row's last bit give no pivot
    r, pivots, _ = ref_rref(m)
    rows = _pack(m)
    assert _eliminate(rows, m.shape[1] + extra) == pivots
    assert rows == _pack(r)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_incremental_rank_matches_gauss_jordan(m):
    rows = _pack(m)
    assert _rank(rows) == len(_eliminate(list(rows), m.shape[1]))
