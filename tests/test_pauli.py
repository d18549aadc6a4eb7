from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sympcliff as sc
from helpers import ref_from_label, ref_to_label


def rand_pauli(rng, m):
    return sc.pauli_e(rng.integers(0, 2, size=m, dtype=np.uint8),
                      rng.integers(0, 2, size=m, dtype=np.uint8),
                      kappa=int(rng.integers(0, 4)))


def test_x_times_z_gains_cube_phase():
    x = sc.pauli_e([1], [0])
    z = sc.pauli_e([0], [1])
    p = sc.multiply(x, z)
    assert p.kappa == 3
    assert p.a[0] == 1 and p.b[0] == 1
    assert sc.to_label(p) == "-iY"


def test_multiply_by_identity():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = rand_pauli(rng, 4)
        assert sc.multiply(p, sc.identity(4)) == p
        assert sc.multiply(sc.identity(4), p) == p


def test_hermitian_squares_to_identity():
    rng = np.random.default_rng(1)
    for _ in range(40):
        p = rand_pauli(rng, 5)
        if not p.is_hermitian:
            continue
        sq = sc.multiply(p, p)
        assert sq == sc.identity(5)
        assert sq.kappa == 0


def test_commutes_with_itself():
    rng = np.random.default_rng(2)
    for _ in range(10):
        p = rand_pauli(rng, 3)
        assert sc.commutes(p, p)


def test_commutes_on_paired_logicals(code642):
    assert not sc.commutes(code642.logical_x[0], code642.logical_z[0])
    assert sc.commutes(code642.logical_x[0], code642.logical_z[1])


def test_labels_of_basic_operators():
    assert sc.to_label(sc.pauli_e([1], [1])) == "Y"
    assert sc.to_label(sc.pauli_d(np.ones(6, np.uint8), np.zeros(6, np.uint8))) == "XXXXXX"
    assert sc.to_label(sc.pauli_d(np.zeros(6, np.uint8), np.ones(6, np.uint8))) == "ZZZZZZ"


def test_label_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(60):
        p = rand_pauli(rng, 4)
        assert sc.from_label(sc.to_label(p)) == p


def test_label_prefixes():
    assert sc.from_label("+iXZ").kappa == 1
    assert sc.from_label("-XZ").kappa == 2
    assert sc.from_label("-iXZ").kappa == 3
    assert sc.from_label("XZ").kappa == 0
    with pytest.raises(sc.ParseError):
        sc.from_label("XQ")
    with pytest.raises(sc.ParseError):
        sc.from_label("")


def test_gamma_round_trip():
    rng = np.random.default_rng(4)
    for _ in range(20):
        p = rand_pauli(rng, 5)
        row = sc.gamma(p)
        q = sc.from_gamma(row, kappa=p.kappa)
        assert q == p
        assert np.array_equal(row[:5], p.a) and np.array_equal(row[5:], p.b)


def test_d_form_phase_relation():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.integers(0, 2, size=4, dtype=np.uint8)
        b = rng.integers(0, 2, size=4, dtype=np.uint8)
        d = sc.pauli_d(a, b)
        assert d.kappa_d == 0
        assert d.kappa == (-int(a @ b)) % 4


def _dense_oracle_product(p, q):
    return sc.dense(p) @ sc.dense(q)


def test_multiply_matches_dense_oracle():
    rng = np.random.default_rng(6)
    for m in (1, 2, 3):
        for _ in range(80):
            p, q = rand_pauli(rng, m), rand_pauli(rng, m)
            got = sc.dense(sc.multiply(p, q))
            assert np.max(np.abs(got - _dense_oracle_product(p, q))) < 1e-12


def test_multiply_is_associative():
    rng = np.random.default_rng(7)
    for _ in range(60):
        p, q, r = (rand_pauli(rng, 2) for _ in range(3))
        left = sc.multiply(sc.multiply(p, q), r)
        right = sc.multiply(p, sc.multiply(q, r))
        assert left == right


def test_commutes_matches_dense_oracle():
    rng = np.random.default_rng(8)
    for _ in range(60):
        p, q = rand_pauli(rng, 2), rand_pauli(rng, 2)
        pq = sc.dense(p) @ sc.dense(q)
        qp = sc.dense(q) @ sc.dense(p)
        assert sc.commutes(p, q) == bool(np.max(np.abs(pq - qp)) < 1e-12)


def test_dense_single_qubit_matrices():
    assert np.array_equal(sc.dense(sc.from_label("X")), np.array([[0, 1], [1, 0]]))
    assert np.array_equal(sc.dense(sc.from_label("Z")), np.array([[1, 0], [0, -1]]))
    y = sc.dense(sc.from_label("Y"))
    assert np.max(np.abs(y - np.array([[0, -1j], [1j, 0]]))) < 1e-12


def test_hermitian_base_transposes_with_product_sign():
    rng = np.random.default_rng(9)
    for _ in range(40):
        a = rng.integers(0, 2, size=2, dtype=np.uint8)
        b = rng.integers(0, 2, size=2, dtype=np.uint8)
        p = sc.pauli_e(a, b)
        d = sc.dense(p)
        assert np.max(np.abs(d.conj().T - d)) < 1e-12
        sign = (-1) ** int(a @ b)
        assert np.max(np.abs(d.T - sign * d)) < 1e-12


def test_dense_qubit_one_is_most_significant():
    p = sc.from_label("XI")
    d = sc.dense(p)
    expect = np.kron(np.array([[0, 1], [1, 0]]), np.eye(2))
    assert np.array_equal(d, expect)


def test_phase_and_sign_accessors():
    p = sc.pauli_e([1], [0], kappa=2)
    assert p.phase == -1
    assert p.sign == -1
    assert sc.to_label(p) == "-X"
    q = sc.pauli_e([1], [0], kappa=1)
    assert q.phase == 1j
    assert not q.is_hermitian


PREFIXES = ["", "+", "-", "+i", "-i"]


def parsed(fn, text, m=None):
    """(m, kappa, a, b, label) of the parsed operator, or the ParseError's
    message."""
    try:
        p = fn(text, m)
    except sc.ParseError as err:
        return "ParseError: %s" % err
    return p.m, p.kappa, p.a.tobytes(), p.b.tobytes(), ref_to_label(p)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PREFIXES), st.text("IXYZ", min_size=1, max_size=80),
       st.sampled_from(["", " ", "\t\n"]))
def test_labels_match_reference(prefix, letters, pad):
    text = pad + prefix + letters + pad
    want = parsed(ref_from_label, text)
    assert parsed(sc.from_label, text) == want
    assert parsed(sc.from_label, text, len(letters)) == want
    p = sc.from_label(text)
    assert sc.to_label(p) == ref_to_label(p) == {"+": ""}.get(prefix, prefix) + letters


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 80), st.integers(0, 3), st.data())
def test_to_label_matches_reference(m, kappa, data):
    a = data.draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
    b = data.draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
    p = sc.pauli_e(a, b, kappa)
    assert sc.to_label(p) == ref_to_label(p)
    assert parsed(sc.from_label, sc.to_label(p)) == parsed(ref_from_label, ref_to_label(p))


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=12) | st.text("IXYZ+-i xé", max_size=12),
       st.none() | st.integers(0, 12))
def test_from_label_on_any_text_matches_reference(text, m):
    assert parsed(sc.from_label, text, m) == parsed(ref_from_label, text, m)


@pytest.mark.parametrize("text, m", [
    ("", None), ("  ", None), ("+", None), ("-", None), ("+i", None),
    ("-i", None), ("QXYZ", None), ("XYZQ", None), ("-iQ", None),
    ("xyz", None), ("XyZ", None), ("Xé", None), ("éX", None),
    ("X\N{GREEK CAPITAL LETTER CHI}", None), ("X Y", None), ("++X", None),
    ("XYZ", 2), ("XYZ", 4), ("-iXYZ", 0), ("XQ", 5)])
def test_malformed_labels_match_reference(text, m):
    got = parsed(sc.from_label, text, m)
    assert got == parsed(ref_from_label, text, m)
    assert got.startswith("ParseError: label %r" % text)
