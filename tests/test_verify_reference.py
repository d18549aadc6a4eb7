"""The bit-sliced tableau conjugation against the numpy reference in helpers
(ref_conjugate_many, ref_induced_symplectic).

Circuits mix all eight gate kinds on 1 to 40 qubits, empty circuits
included; rows number 1 to 130, so the packed row ints cross 64 bits, and
carry every phase kappa in {0, 1, 2, 3}.
"""

from __future__ import annotations

import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sympcliff as sc
from sympcliff.circuit import GATE_KINDS
from helpers import random_circuit, ref_conjugate_many, ref_induced_symplectic


@st.composite
def circuits(draw, max_m=40, max_gates=40):
    m = draw(st.integers(1, max_m))
    gates = []
    for kind in draw(st.lists(st.sampled_from(GATE_KINDS), max_size=max_gates)):
        if kind == "PERMUTE":
            gates.append(sc.gate(kind, *draw(st.permutations(range(1, m + 1)))))
        elif kind in ("CZ", "CNOT"):
            if m > 1:
                q, r = draw(st.lists(st.integers(1, m), min_size=2, max_size=2,
                                     unique=True))
                gates.append(sc.gate(kind, q, r))
        else:
            gates.append(sc.gate(kind, draw(st.integers(1, m))))
    return sc.circuit(m, gates)


def _bits(word: int, m: int) -> np.ndarray:
    return np.array([(word >> q) & 1 for q in range(m)], dtype=np.uint8)


@st.composite
def rows(draw, m, max_rows=130):
    n = draw(st.integers(1, max_rows))
    word = st.integers(0, (1 << m) - 1)
    return [sc.PauliOperator(m, kappa, _bits(a, m), _bits(b, m))
            for kappa, a, b in draw(st.lists(st.tuples(st.integers(0, 3), word, word),
                                             min_size=n, max_size=n))]


def _assert_same_conjugation(circ, ps):
    got = sc.conjugate_many(circ, ps)
    want = ref_conjugate_many(circ, ps)
    assert [sc.to_label(p) for p in got] == [sc.to_label(p) for p in want]
    assert got == want


def _assert_same_induced(circ):
    f, signs = sc.induced_symplectic(circ)
    want_f, want_signs = ref_induced_symplectic(circ)
    assert (f.dtype, f.shape) == (want_f.dtype, want_f.shape)
    assert (signs.dtype, signs.shape) == (want_signs.dtype, want_signs.shape)
    assert np.array_equal(f, want_f)
    assert np.array_equal(signs, want_signs)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_conjugation_matches_reference(data):
    circ = data.draw(circuits())
    _assert_same_conjugation(circ, data.draw(rows(circ.m)))
    _assert_same_induced(circ)


@pytest.mark.parametrize("m", [1, 2, 31, 40])
@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
def test_conjugation_matches_reference_at_word_edges(m, n):
    rng = np.random.default_rng(1000 * m + n)
    for count in (0, 1, 200):
        circ = random_circuit(rng, m, count)
        ps = [sc.PauliOperator(m, int(k), a, b) for k, a, b in
              zip(rng.integers(0, 4, n), rng.integers(0, 2, (n, m), dtype=np.uint8),
                  rng.integers(0, 2, (n, m), dtype=np.uint8))]
        _assert_same_conjugation(circ, ps)
        _assert_same_induced(circ)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_unknown_gate_kind_raises_what_the_reference_raises(data):
    circ = data.draw(circuits(max_m=6, max_gates=8))
    at = data.draw(st.integers(0, len(circ.gates)))
    gates = circ.gates[:at] + (sc.Gate("SWAP", (1,)),) + circ.gates[at:]
    ps = data.draw(rows(circ.m, max_rows=4))
    # the reference takes any gate list; Circuit refuses this one when made
    bad = types.SimpleNamespace(m=circ.m, gates=gates)
    for ref in (lambda: ref_conjugate_many(bad, ps), lambda: ref_induced_symplectic(bad)):
        with pytest.raises(ValueError) as want:
            ref()
        with pytest.raises(ValueError) as got:
            sc.Circuit(circ.m, gates)
        assert str(got.value) == str(want.value) == "unknown gate kind 'SWAP'"
