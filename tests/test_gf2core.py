from __future__ import annotations

import itertools
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sympcliff as sc
from sympcliff.gf2core import (_augment, _echelon_insert, _echelon_solve, _pack,
                               _unpack)
from helpers import bits, hamming_parity, ref_coset_leader, ref_nullspace


@st.composite
def gf2_matrix(draw, max_dim=6):
    r = draw(st.integers(1, max_dim))
    c = draw(st.integers(1, max_dim))
    data = draw(st.lists(st.integers(0, 1), min_size=r * c, max_size=r * c))
    return np.array(data, dtype=np.uint8).reshape(r, c)


def test_symplectic_inner_unit_pair():
    assert sc.symplectic_inner(np.array([1, 0], np.uint8),
                               np.array([0, 1], np.uint8)) == 1


def test_symplectic_inner_self_is_zero():
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.integers(0, 2, size=12, dtype=np.uint8)
        assert sc.symplectic_inner(x, x) == 0


def test_symplectic_inner_published_pair():
    u1 = np.concatenate([bits("110000")[0], np.zeros(6, np.uint8)])
    v1 = np.concatenate([np.zeros(6, np.uint8), bits("010001")[0]])
    assert sc.symplectic_inner(u1, v1) == 1


@st.composite
def gf2_rows(draw, rows, cols):
    data = draw(st.lists(st.integers(0, 1), min_size=rows * cols, max_size=rows * cols))
    return np.array(data, dtype=np.uint8).reshape(rows, cols)


@st.composite
def row_pair(draw):
    two_m = 2 * draw(st.integers(1, 32))
    return (draw(gf2_rows(draw(st.integers(0, 5)), two_m)),
            draw(gf2_rows(draw(st.integers(0, 5)), two_m)))


@settings(max_examples=60, deadline=None)
@given(row_pair())
def test_gram_entries_are_symplectic_inner_products(pair):
    a, b = pair
    m = a.shape[1] // 2
    g = sc.gram(a, b)
    assert g.shape == (a.shape[0], b.shape[0])
    for i in range(a.shape[0]):
        for j in range(b.shape[0]):
            by_hand = (int(a[i, :m] @ b[j, m:]) + int(a[i, m:] @ b[j, :m])) % 2
            assert g[i, j] == by_hand == sc.symplectic_inner(a[i], b[j])
    assert np.array_equal(sc.gram(a), sc.gram(a, a))


@st.composite
def square_or_symplectic(draw):
    m = draw(st.integers(1, 4))
    if draw(st.booleans()):
        return draw(gf2_rows(2 * m, 2 * m))
    f = np.eye(2 * m, dtype=np.uint8)
    for _ in range(draw(st.integers(0, 6))):
        f = sc.mul(f, sc.transvection_matrix(draw(gf2_rows(1, 2 * m))))
    return f


@settings(max_examples=80, deadline=None)
@given(square_or_symplectic())
def test_is_symplectic_matches_the_defining_product(f):
    w = sc.omega(f.shape[0] // 2)
    assert sc.is_symplectic(f) == np.array_equal(sc.mul(f, w, f.T), w)


def test_mul_reduces_a_single_operand_mod_2():
    out = sc.mul(np.array([[2, 3, 256, 257]]))
    assert out.dtype == np.uint8
    assert out.tolist() == [[0, 1, 0, 1]]


def test_rank_identity():
    assert sc.rank(np.eye(4, dtype=np.uint8)) == 4


def test_rank_zero_matrix():
    assert sc.rank(np.zeros((3, 5), np.uint8)) == 0


def test_rank_weight_two_quartet():
    g = bits("110000", "101000", "100100", "100010")
    assert sc.rank(g) == 4


def test_rref_transform_reproduces_result():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = rng.integers(0, 2, size=(5, 7), dtype=np.uint8)
        r, pivots, t = sc.rref(m)
        assert np.array_equal(sc.mul(t, m), r)
        assert len(pivots) == sc.rank(m)
        for row, col in enumerate(pivots):
            unit = np.zeros(5, np.uint8)
            unit[row] = 1
            assert np.array_equal(r[:, col], unit)


def test_invert_identity_and_omega():
    assert np.array_equal(sc.invert(np.eye(5, dtype=np.uint8)),
                          np.eye(5, dtype=np.uint8))
    assert np.array_equal(sc.invert(sc.omega(3)), sc.omega(3))


def test_invert_transpose_matches_published_block_pair():
    a = bits("100000", "010000", "111000", "000100", "000010", "110001")
    d = bits("101001", "011001", "001000", "000100", "000010", "000001")
    assert np.array_equal(sc.invert(a).T, d)


def test_invert_rejects_singular():
    with pytest.raises(sc.SingularMatrixError):
        sc.invert(np.zeros((3, 3), np.uint8))


@settings(max_examples=60)
@given(gf2_matrix())
def test_nullspace_annihilates_and_has_right_rank(m):
    ns = sc.nullspace(m)
    if ns.shape[0]:
        assert not sc.mul(m, ns.T).any()
    assert ns.shape[0] == m.shape[1] - sc.rank(m)
    assert sc.rank(ns) == ns.shape[0]


def test_solve_identity_system():
    b = np.array([1, 0, 1], np.uint8)
    x, ns = sc.solve_linear(np.eye(3, dtype=np.uint8), b)
    assert np.array_equal(x, b)
    assert ns.shape[0] == 0


def test_solve_zero_system():
    x, ns = sc.solve_linear(np.zeros((2, 4), np.uint8), np.zeros(2, np.uint8))
    assert not x.any()
    assert ns.shape[0] == 4


def test_solve_infeasible_returns_none():
    assert sc.solve_linear(np.zeros((2, 3), np.uint8),
                           np.array([1, 0], np.uint8)) is None


def test_solve_rank_three_system_by_substitution():
    rng = np.random.default_rng(11)
    while True:
        m = rng.integers(0, 2, size=(4, 6), dtype=np.uint8)
        if sc.rank(m) == 3:
            break
    x0 = rng.integers(0, 2, size=6, dtype=np.uint8)
    rhs = sc.mul(m, x0.reshape(-1, 1)).ravel()
    x, ns = sc.solve_linear(m, rhs)
    assert np.array_equal(sc.mul(m, x.reshape(-1, 1)).ravel(), rhs)
    for row in ns:
        assert not sc.mul(m, row.reshape(-1, 1)).any()


@settings(max_examples=60)
@given(gf2_matrix(), st.lists(st.integers(0, 1), min_size=6, max_size=6))
def test_solve_feasible_systems_round_trip(m, xbits):
    x0 = np.array(xbits[: m.shape[1]], np.uint8)
    rhs = sc.mul(m, x0.reshape(-1, 1)).ravel()
    out = sc.solve_linear(m, rhs)
    assert out is not None
    x, ns = out
    assert np.array_equal(sc.mul(m, x.reshape(-1, 1)).ravel(), rhs)
    assert ns.shape[0] == m.shape[1] - sc.rank(m)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_solve_linear_is_lex_min_over_every_solution(data):
    rows, cols = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 10))
    flat = data.draw(st.lists(st.integers(0, 1), min_size=rows * cols,
                              max_size=rows * cols))
    m = np.array(flat, np.uint8).reshape(rows, cols)
    rhs = np.array(data.draw(st.lists(st.integers(0, 1), min_size=rows,
                                      max_size=rows)), np.uint8)
    # every x in lex order, column 0 most significant
    every = np.array(list(itertools.product((0, 1), repeat=cols)),
                     np.uint8).reshape(1 << cols, cols)
    hits = every[((every.astype(int) @ m.T.astype(int)) % 2 == rhs).all(axis=1)]
    sol = sc.solve_linear(m, rhs)
    assert (sol is None) == (hits.shape[0] == 0)
    if sol is None:
        return
    x, ns = sol
    assert np.array_equal(x, hits[0])
    spans = {tuple(np.bitwise_xor.reduce(ns[list(sel)], axis=0)
                   if any(sel) else np.zeros(cols, np.uint8))
             for sel in itertools.product((False, True), repeat=ns.shape[0])}
    assert spans == {tuple(h ^ x) for h in hits}
    assert len(spans) == 1 << ns.shape[0]


def _lex(width):
    """Sort key of a packed row: lex order, column 0 most significant."""
    return lambda w: [w >> c & 1 for c in range(width)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_echelon_solve_matches_solve_linear(data):
    width = data.draw(st.sampled_from((2, 8, 62, 64)))
    word = st.integers(0, (1 << width) - 1)
    inserted = data.draw(st.lists(word, max_size=width))
    ech = {}
    for row in inserted:
        _echelon_insert(ech, row)
    # echelon: each key is its row's highest bit, as its bit_length
    for top, e in ech.items():
        assert top == e.bit_length()
    assert len(ech) == sc.rank(_unpack(inserted, width))
    # the stored rows, augmented with right-hand sides that some y meets
    # (y = 0: the homogeneous form the transvection chain keeps)
    y = data.draw(st.just(0) | word)
    stored = [(row, (row & y).bit_count() & 1) for row in inserted]
    aug = {}
    assert _augment(aug, stored)
    before = dict(aug)
    extra = []
    for _ in range(2):
        # a combination of earlier rows, plus possibly a random word: the
        # system is often inconsistent or redundant, also at width 64
        pool = inserted + [row for row, _ in extra]
        pick = data.draw(st.lists(st.booleans(), min_size=len(pool),
                                  max_size=len(pool)))
        row = data.draw(st.just(0) | word)
        for r in itertools.compress(pool, pick):
            row ^= r
        extra.append((row, data.draw(st.integers(0, 1))))
    free = data.draw(word)
    got, lex_min = _echelon_solve(aug, extra, free), _echelon_solve(aug, extra)
    assert aug == before  # the stored form is not changed
    rows, rhs = zip(*(extra + stored))
    want = sc.solve_linear(_unpack(list(rows), width), np.array(rhs, np.uint8))
    assert (got is None) == (lex_min is None) == (want is None)
    if want is not None:
        x, null = want
        assert np.array_equal(_unpack([lex_min], width)[0], x)
        # got ^ free is the smallest of s ^ free over the solutions s
        leader = ref_coset_leader(x ^ _unpack([free], width)[0], null)
        assert np.array_equal(_unpack([got ^ free], width)[0], leader)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_echelon_solve_is_lex_min_over_every_w(data):
    width = data.draw(st.integers(1, 10))
    word = st.integers(0, (1 << width) - 1)
    stored = data.draw(st.lists(word, max_size=width + 2))
    extra = data.draw(st.lists(st.tuples(word, st.integers(0, 1)), max_size=width + 2))
    y = data.draw(word)
    free = data.draw(word)
    aug = {}
    assert _augment(aug, [(row, (row & y).bit_count() & 1) for row in stored])
    hits = [w for w in range(1 << width)
            if all((e & w).bit_count() % 2 == (e & y).bit_count() % 2 for e in stored)
            and all((row & w).bit_count() % 2 == rhs for row, rhs in extra)]
    assert _echelon_solve(aug, extra) == min(hits, key=_lex(width), default=None)
    want = min(hits, key=lambda w: _lex(width)(w ^ free), default=None)
    assert _echelon_solve(aug, extra, free) == want


@pytest.mark.parametrize("r", (3, 4, 5))
def test_echelon_solve_on_the_sign_fix_systems_of_hamming_codes(r):
    # the sign fix solves for [c | d] with one row [z | x] per stabilizer
    # generator and logical Pauli: k + 2n rows of 2m columns, m up to 31
    code = sc.css_build(sc.CssSpec(hc=hamming_parity(r)))
    m = code.m
    given = [g.z | g.x << m
             for g in (*code.stabilizers, *code.logical_x, *code.logical_z)]
    # every nullspace vector n, from the numpy reference: got ^ n is the
    # larger solution exactly when got has a 0 at n's lowest set bit
    span = [0]
    for n in _pack(ref_nullspace(_unpack(given, 2 * m))):
        span += [s ^ n for s in span]
    rng = np.random.default_rng(r)
    for _ in range(20):
        rhs = rng.integers(0, 2, size=len(given)).tolist()
        got = _echelon_solve({}, list(zip(given, rhs)))
        # the rows are independent, so every right-hand side is reachable
        assert got is not None
        assert [(row & got).bit_count() & 1 for row in given] == rhs
        assert not any(got & n & -n for n in span[1:])


def test_lu_identity():
    perm, low, up = sc.lu_decompose(np.eye(4, dtype=np.uint8))
    assert list(perm) == [0, 1, 2, 3]
    assert np.array_equal(low, np.eye(4, dtype=np.uint8))
    assert np.array_equal(up, np.eye(4, dtype=np.uint8))


def test_lu_permutation_matrix():
    q = np.zeros((6, 6), np.uint8)
    image = [5, 1, 2, 3, 4, 0]
    for i, j in enumerate(image):
        q[i, j] = 1
    perm, low, up = sc.lu_decompose(q)
    assert np.array_equal(low, np.eye(6, dtype=np.uint8))
    assert np.array_equal(up, np.eye(6, dtype=np.uint8))
    assert np.array_equal(q[perm, :], np.eye(6, dtype=np.uint8))


def test_lu_exhaustive_over_invertible_two_by_two():
    mats = []
    for sel in range(16):
        q = np.array([[sel & 1, (sel >> 1) & 1],
                      [(sel >> 2) & 1, (sel >> 3) & 1]], np.uint8)
        if sc.rank(q) == 2:
            mats.append(q)
    assert len(mats) == 6
    for q in mats:
        perm, low, up = sc.lu_decompose(q)
        assert np.array_equal(q[perm, :], sc.mul(low, up))
        assert np.array_equal(np.tril(low), low)
        assert np.array_equal(np.triu(up), up)
        assert low.diagonal().all() and up.diagonal().all()


def test_lu_random_invertible_round_trip():
    rng = np.random.default_rng(13)
    done = 0
    while done < 40:
        q = rng.integers(0, 2, size=(6, 6), dtype=np.uint8)
        if sc.rank(q) < 6:
            continue
        perm, low, up = sc.lu_decompose(q)
        assert np.array_equal(q[perm, :], sc.mul(low, up))
        done += 1


def _delta_pairs(pairs, m):
    for a, (ua, va) in enumerate(pairs):
        for b, (ub, vb) in enumerate(pairs):
            assert sc.symplectic_inner(ua, ub) == 0
            assert sc.symplectic_inner(va, vb) == 0
            assert sc.symplectic_inner(ua, vb) == (1 if a == b else 0)
    assert len(pairs) == m


def test_gram_schmidt_standard_basis():
    m = 3
    seed = [np.eye(2 * m, dtype=np.uint8)[i] for i in range(2 * m)]
    pairs = sc.symplectic_gram_schmidt(seed)
    _delta_pairs(pairs, m)
    for i, (u, v) in enumerate(pairs):
        assert np.array_equal(u, seed[i])
        assert np.array_equal(v, seed[m + i])


def test_gram_schmidt_completes_published_ten_vector_seed():
    zero = np.zeros(6, np.uint8)
    us = [np.concatenate([bits(r)[0], zero]) for r in
          ("110000", "101000", "100100", "100010", "111111")]
    vs = [np.concatenate([zero, bits(r)[0]]) for r in
          ("010001", "001001", "000101", "000011", "111111")]
    seed = us + vs
    pairs = sc.symplectic_gram_schmidt(seed)
    _delta_pairs(pairs, 6)
    seen = {tuple(int(b) for b in w) for pair in pairs for w in pair}
    for w in seed:
        assert tuple(int(b) for b in w) in seen


def test_gram_schmidt_random_partial_seed():
    rng = np.random.default_rng(17)
    done = 0
    while done < 20:
        f = sc.transvection_matrix(rng.integers(0, 2, size=6, dtype=np.uint8))
        g = sc.transvection_matrix(rng.integers(0, 2, size=6, dtype=np.uint8))
        basis = sc.mul(sc.omega(3)[[0, 3, 1, 4, 2, 5]], f, g)
        take = sorted(rng.choice(6, size=rng.integers(1, 7), replace=False))
        seed = [basis[i] for i in take]
        if sc.rank(np.vstack(seed)) < len(seed):
            continue
        pairs = sc.symplectic_gram_schmidt(seed, m=3)
        _delta_pairs(pairs, 3)
        done += 1


def test_sp_group_order_small():
    assert sc.sp_group_order(1) == 6
    assert sc.sp_group_order(2) == 720
    assert sc.sp_group_order(3) == 1451520


def test_matrix_text_round_trip():
    rng = np.random.default_rng(19)
    m = rng.integers(0, 2, size=(5, 7), dtype=np.uint8)
    text = sc.save_matrix_text(m)
    assert np.array_equal(sc.load_matrix_text(text), m)


def test_matrix_text_rejects_bad_entry():
    with pytest.raises(sc.ParseError) as err:
        sc.load_matrix_text("1 0\n0 2\n")
    assert "2" in str(err.value)


def test_matrix_text_rejects_ragged_rows():
    with pytest.raises(sc.ParseError):
        sc.load_matrix_text("1 0 1\n0 1\n")


@pytest.mark.parametrize("a, b", [
    (np.ones((2, 3), np.uint8), None),  # odd length
    (np.ones((2, 4), np.uint8), np.ones((2, 6), np.uint8)),  # mismatched
    (np.ones(4, np.uint8), None),  # one row, not a 2-D array
])
def test_gram_rejects_rows_that_are_not_of_one_even_length(a, b):
    with pytest.raises(ValueError, match="even length"):
        sc.gram(a, b)


def test_symplectic_inner_rejects_odd_or_mismatched_rows():
    with pytest.raises(ValueError, match="even length"):
        sc.symplectic_inner([1, 0, 1], [0, 1, 1])
    with pytest.raises(ValueError, match="even length"):
        sc.symplectic_inner([1, 0], [1, 0, 0, 0])


def test_sp_group_order_rejects_negative_m():
    with pytest.raises(ValueError, match="nonnegative"):
        sc.sp_group_order(-1)


# Each public entry that reads bits through asbits, with a value placed
# first in one of its bit arrays
BIT_ENTRIES = {
    "asbits": lambda v: sc.asbits([v, 1]),
    "gram": lambda v: sc.gram([[v, 1], [0, 1]]),
    "mul": lambda v: sc.mul(np.eye(2, dtype=np.uint8), [[v, 1], [0, 1]]),
    "rref": lambda v: sc.rref([[v, 1], [0, 1]]),
    "solve_linear matrix": lambda v: sc.solve_linear([[v, 1], [0, 1]], [1, 0]),
    "solve_linear rhs": lambda v: sc.solve_linear(np.eye(2, dtype=np.uint8), [v, 1]),
    "PauliOperator": lambda v: sc.PauliOperator(2, 0, [v, 1], [0, 1]),
    "pauli_e": lambda v: sc.pauli_e([0, 1], [v, 1]),
    "from_gamma": lambda v: sc.from_gamma([v, 1, 0, 1]),
}
NOT_INTEGERS = [2.5, -0.5, float("nan"), float("inf"), float("-inf"), 1 + 2j, "1",
                None, object(), Fraction(1, 2)]


@pytest.mark.parametrize("entry", BIT_ENTRIES)
def test_a_bit_that_is_not_an_integer_is_refused_naming_it(entry):
    call = BIT_ENTRIES[entry]
    # integral floats and bools read as the integers they equal
    for value, same in ((3.0, 1), (-2.0, 0), (np.float32(5), 1), (True, 1),
                        (np.False_, 0), (Fraction(4, 2), 0), (2**70 + 1, 1)):
        assert repr(call(value)) == repr(call(same)), (value, same)
    for value in NOT_INTEGERS:
        with pytest.raises(ValueError, match="^bit value %s is not an integer$"
                           % re.escape(repr(value))):
            call(value)
