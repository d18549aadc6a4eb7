"""The packed-int Pauli operator against the array-backed reference in
helpers (RefPauli and the ref_* functions), on 1 to 80 qubits, so the x and
z ints cross 64 bits; plus the constructor's input checks."""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sympcliff as sc
from helpers import (RefPauli, random_circuit, ref_commutes, ref_conjugate_many,
                     ref_from_gamma, ref_from_label, ref_gamma, ref_multiply,
                     ref_pauli_d, ref_pauli_e, ref_to_label)


def _bits(word: int, m: int) -> np.ndarray:
    return np.array([(word >> t) & 1 for t in range(m)], dtype=np.uint8)


def _key(p):
    """Everything an operator shows: qubit count, phase, bits and label."""
    return p.m, p.kappa, p.a.tobytes(), p.b.tobytes(), ref_to_label(p)


def _parsed(fn, text, m):
    try:
        return _key(fn(text, m))
    except sc.ParseError as err:
        return "ParseError: %s" % err


@st.composite
def operator_pairs(draw):
    """(m, p, q) with p and q as (kappa, x, z); each field of q equals p's
    half the time, so equality and hashing see both outcomes."""
    m = draw(st.integers(1, 80))
    fields = (st.integers(0, 3), st.integers(0, (1 << m) - 1),
              st.integers(0, (1 << m) - 1))
    p = tuple(draw(f) for f in fields)
    q = tuple(v if draw(st.booleans()) else draw(f) for v, f in zip(p, fields))
    return m, p, q


@settings(max_examples=200, deadline=None)
@given(operator_pairs(), st.data())
def test_operations_match_reference(pair, data):
    m, (kp, xp, zp), (kq, xq, zq) = pair
    p, q = sc.PauliOperator(m, kp, xp, zp), sc.PauliOperator(m, kq, xq, zq)
    rp = RefPauli(m, kp, _bits(xp, m), _bits(zp, m))
    rq = RefPauli(m, kq, _bits(xq, m), _bits(zq, m))
    assert _key(p) == _key(rp)
    assert (p.x, p.z) == (xp, zp)

    label = sc.to_label(p)
    assert label == ref_to_label(rp)
    assert sc.from_label(label) == p
    for size in (None, m, m + 1):
        assert _parsed(sc.from_label, label, size) == _parsed(ref_from_label, label, size)
    at = data.draw(st.integers(0, len(label)))
    bad = label[:at] + data.draw(st.sampled_from("Qx?0 é")) + label[at:]
    assert _parsed(sc.from_label, bad, None) == _parsed(ref_from_label, bad, None)

    assert _key(sc.multiply(p, q)) == _key(ref_multiply(rp, rq))
    assert sc.commutes(p, q) == ref_commutes(rp, rq)
    assert p.kappa_d == rp.kappa_d
    row = sc.gamma(p)
    assert (row.dtype, row.shape) == (np.uint8, (2 * m,))
    assert np.array_equal(row, ref_gamma(rp))
    assert _key(sc.from_gamma(row, kq)) == _key(ref_from_gamma(row, kq))
    assert _key(sc.pauli_e(rp.a, rp.b, kq)) == _key(ref_pauli_e(rp.a, rp.b, kq))
    assert _key(sc.pauli_d(rp.a, rp.b, kq)) == _key(ref_pauli_d(rp.a, rp.b, kq))

    assert (p == q) == (rp == rq)
    if p == q:
        assert hash(p) == hash(q)

    circ = random_circuit(np.random.default_rng(data.draw(st.integers(0, 2**32))),
                          m, data.draw(st.integers(0, 12)))
    assert sc.conjugate_many(circ, [p, q]) == ref_conjugate_many(circ, [rp, rq])


def test_bit_arrays_are_read_only_uint8():
    p = sc.from_label("-XYZI")
    for bits, want in ((p.a, [1, 1, 0, 0]), (p.b, [0, 1, 1, 0])):
        assert (bits.dtype, bits.shape) == (np.uint8, (4,))
        assert bits.tolist() == want
        with pytest.raises(ValueError):
            bits[0] ^= 1
    assert p == sc.from_label("-XYZI")
    assert sc.identity(0).a.shape == (0,)
    assert pickle.loads(pickle.dumps(p)) == p
    assert dataclasses.replace(p, kappa=0) == sc.from_label("XYZI")


def test_commutes_rejects_different_qubit_counts():
    p, q = sc.from_label("XZ"), sc.from_label("ZXI")
    for fn in (sc.commutes, sc.multiply):
        with pytest.raises(ValueError, match="^qubit counts differ$"):
            fn(p, q)


@pytest.mark.parametrize("kappa", [1.7, 2.0, "1", None])
def test_non_integral_kappa_raises(kappa):
    with pytest.raises(ValueError, match="must be integers"):
        sc.PauliOperator(2, kappa, 1, 2)


def test_integer_like_kappa_and_words_pass():
    for kappa, want in ((np.int64(5), 1), (np.uint8(3), 3), (True, 1), (-1, 3)):
        assert sc.PauliOperator(2, kappa, 1, 2).kappa == want
    assert sc.PauliOperator(2, 0, np.int64(3), True) == sc.from_label("YX")


@pytest.mark.parametrize("x, z", [(-1, 0), (0, -2), (4, 0), (0, 1 << 70),
                                  (np.int64(-1), 0)])
def test_words_outside_m_bits_raise(x, z):
    with pytest.raises(ValueError, match=r"\[0, 2\^m\)"):
        sc.PauliOperator(2, 0, x, z)


def test_bit_arrays_of_the_wrong_length_raise():
    with pytest.raises(ValueError, match="must each hold m bits"):
        sc.PauliOperator(3, 0, [1, 0], [0, 0, 1])


def test_from_gamma_names_the_even_length_rule():
    with pytest.raises(ValueError, match="even length 2m, got 3"):
        sc.from_gamma([1, 0, 1])
