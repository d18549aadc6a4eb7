from __future__ import annotations

import dataclasses
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sympcliff as sc
from sympcliff.circuit import GATE_KINDS, _join
from helpers import ref_conjugate_many, ref_depth


def test_gate_validation():
    with pytest.raises(ValueError):
        sc.gate("H", 1, 2)
    with pytest.raises(ValueError):
        sc.gate("CZ", 3, 3)
    with pytest.raises(ValueError):
        sc.gate("CNOT", 0, 1)
    with pytest.raises(ValueError):
        sc.gate("Q", 1)
    with pytest.raises(ValueError):
        sc.gate("PERMUTE", 1, 1, 2)


def test_cz_qubits_are_stored_sorted():
    assert sc.gate("CZ", 6, 2).qubits == (2, 6)
    assert str(sc.gate("CZ", 6, 2)) == "CZ 2 6"


def test_cnot_keeps_direction():
    assert sc.gate("CNOT", 6, 2).qubits == (6, 2)


def test_circuit_rejects_out_of_range_qubits():
    with pytest.raises(ValueError):
        sc.circuit(2, [sc.gate("H", 3)])


@pytest.mark.parametrize("bad, text", [
    (("H", 1), "('H', 1)"),
    (sc.Gate("H", 1), "Gate(kind='H', qubits=1)"),
    ("H 1", "'H 1'"),
], ids=["int-qubits", "gate-int-qubits", "text-line"])
def test_circuit_refuses_a_malformed_gate_naming_it(bad, text):
    message = "gate %s is not a (kind, qubits) pair" % text
    for gates in ([bad], [sc.gate("H", 1), bad]):
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            sc.Circuit(2, gates)


@pytest.mark.parametrize("kind, text", [
    (["H"], "['H']"),
    ({"CZ": 2}, "{'CZ': 2}"),
    (("H",), "('H',)"),
    (("CZ", "X"), "('CZ', 'X')"),
    ("Q", "'Q'"),
    (np.array(["CNOT", "X"]), repr(np.array(["CNOT", "X"]))),
], ids=["list", "dict", "1-tuple", "2-tuple", "str", "array"])
def test_an_unknown_gate_kind_of_any_type_is_refused_naming_it(kind, text):
    message = "^%s$" % re.escape("unknown gate kind %s" % text)
    for qubits in ((1,), (1, 2), (2, 1), (1, 2, 3)):
        with pytest.raises(ValueError, match=message):
            sc.gate(kind, *qubits)
        for gates in ([(kind, qubits)], [sc.gate("H", 1), (kind, qubits)]):
            with pytest.raises(ValueError, match=message):
                sc.Circuit(3, gates)
    # the qubits are checked before the kind, as for a known kind
    with pytest.raises(ValueError, match=r"^qubit 1\.5 is not an integer$"):
        sc.gate(kind, 1.5)


@pytest.mark.parametrize("g, message", [
    (sc.gate("H", 1), "gate H 1 exceeds qubit count 0"),
    (sc.gate("CZ", 2, 1), "gate CZ 1 2 exceeds qubit count 0"),
    (sc.gate("CNOT", 2, 1), "gate CNOT 2 1 exceeds qubit count 0"),
    (sc.gate("PERMUTE", 1), "PERMUTE image has 1 entries on 0 qubits"),
])
def test_a_circuit_on_zero_qubits_refuses_every_gate_on_a_qubit(g, message):
    for gates in ([g], [tuple(g)]):
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            sc.Circuit(0, gates)
    assert sc.Circuit(0, [sc.gate("PERMUTE")]).gates == (("PERMUTE", ()),)


def test_circuit_keeps_each_canonical_gate_as_the_same_object():
    gates = [sc.gate("H", 1), sc.gate("CZ", 1, 3), sc.gate("CNOT", 3, 2),
             sc.gate("PERMUTE", 2, 3, 1), sc.gate("Z", 3)]
    for box in (list, tuple, iter):
        c = sc.Circuit(3, box(gates))
        assert type(c.gates) is tuple
        assert all(a is b for a, b in zip(c.gates, gates, strict=True))
    # any other form is stored as a new Gate in gate()'s form
    other = [("H", (1,)), sc.Gate("H", [1]), sc.Gate("CZ", (3, 1)),
             sc.Gate("X", (True,)), sc.Gate("PERMUTE", [2, 1, np.int64(3)])]
    c = sc.Circuit(3, other)
    assert c.gates == (("H", (1,)), ("H", (1,)), ("CZ", (1, 3)), ("X", (1,)),
                       ("PERMUTE", (2, 1, 3)))
    assert all(type(g) is sc.Gate and type(g.qubits) is tuple
               and {*map(type, g.qubits)} == {int} for g in c.gates)
    assert not any(a is b for a, b in zip(c.gates, other))
    for g in other:  # alone, too
        assert type(sc.Circuit(3, [g]).gates[0].qubits) is tuple


def test_join_concatenates_circuits_on_the_same_qubits():
    a = sc.circuit(3, [sc.gate("X", 2)])
    b = sc.circuit(3, [sc.gate("CZ", 3, 1), sc.gate("H", 1)])
    assert _join(a, b) == sc.circuit(3, list(a.gates) + list(b.gates))
    assert _join(sc.circuit(3, []), b) == b
    with pytest.raises(ValueError, match="^cannot join circuits on 3 and 2 qubits$"):
        _join(a, sc.circuit(2, []))


def test_serialize_phase_circuit():
    c = sc.circuit(6, [sc.gate("P", 2), sc.gate("CZ", 2, 6), sc.gate("P", 6)])
    assert sc.serialize(c) == "P 2\nCZ 2 6\nP 6\n"


def test_serialize_empty():
    assert sc.serialize(sc.circuit(3, [])) == ""


def test_save_adds_header():
    c = sc.circuit(3, [sc.gate("H", 1)])
    assert sc.save_circuit_text(c) == "qubits 3\nH 1\n"


def _random_circuit(rng, m, count):
    gates = []
    for _ in range(count):
        kind = rng.choice(["H", "P", "X", "Y", "Z", "CZ", "CNOT", "PERMUTE"])
        if kind in ("CZ", "CNOT"):
            q, r = rng.choice(m, size=2, replace=False) + 1
            gates.append(sc.gate(kind, int(q), int(r)))
        elif kind == "PERMUTE":
            gates.append(sc.gate(kind, *(int(x) for x in rng.permutation(m) + 1)))
        else:
            gates.append(sc.gate(kind, int(rng.integers(1, m + 1))))
    return sc.circuit(m, gates)


def test_parse_round_trip_fifty_gates():
    rng = np.random.default_rng(21)
    c = _random_circuit(rng, 6, 50)
    assert sc.parse(sc.save_circuit_text(c)) == c
    assert sc.parse(sc.serialize(c), m=6) == c


def test_parse_accepts_comments_and_blanks():
    c = sc.parse("# a phase\n\nqubits 2\nP 1\n  # done\nCZ 1 2\n")
    assert c.m == 2
    assert [str(g) for g in c.gates] == ["P 1", "CZ 1 2"]


def test_parse_requires_some_qubit_count():
    with pytest.raises(sc.ParseError):
        sc.parse("H 1\n")


def test_parse_header_after_gates_is_an_error():
    with pytest.raises(sc.ParseError) as err:
        sc.parse("H 1\nqubits 3\n", m=3)
    assert "line 2" in str(err.value)


def test_parse_header_mismatch():
    with pytest.raises(sc.ParseError):
        sc.parse("qubits 3\nH 1\n", m=4)


def test_parse_rejects_a_qubit_count_below_one():
    for text, m in (("qubits -3\n", None), ("qubits 0\n", None), ("", -3)):
        with pytest.raises(sc.ParseError, match="at least 1"):
            sc.parse(text, m)


def test_parse_reports_line_number():
    with pytest.raises(sc.ParseError) as err:
        sc.parse("qubits 3\nH 1\nFLIP 2\n")
    assert "line 3" in str(err.value)


def test_depth_single_stage():
    c = sc.circuit(4, [sc.gate("H", 1), sc.gate("CZ", 2, 3), sc.gate("P", 4)])
    assert sc.depth(c) == 1


def test_depth_two_stages():
    c = sc.circuit(4, [sc.gate("H", 2), sc.gate("CZ", 2, 3), sc.gate("P", 4)])
    assert sc.depth(c) == 2


def test_depth_empty():
    assert sc.depth(sc.circuit(5, [])) == 0


def test_depth_permute_touches_everything():
    c = sc.circuit(3, [sc.gate("H", 1), sc.gate("PERMUTE", 2, 1, 3),
                       sc.gate("H", 2)])
    assert sc.depth(c) == 3


def _seeded_gates(rng, m, count):
    """count gates on m qubits, each kind drawn uniformly among those that
    fit m (CZ and CNOT need two qubits), on uniformly drawn qubits."""
    kinds = [k for k in GATE_KINDS if m >= 2 or k not in ("CZ", "CNOT")]
    gates = []
    for _ in range(count):
        kind = rng.choice(kinds)
        n = m if kind == "PERMUTE" else 2 if kind in ("CZ", "CNOT") else 1
        gates.append(sc.gate(kind, *rng.sample(range(1, m + 1), n)))
    return gates


@pytest.mark.parametrize("m", (1, 2, 3, 31, 64))
def test_depth_matches_the_reference_on_seeded_circuits(m):
    rng = random.Random(m)
    circuits = [sc.circuit(m, [])] + [sc.circuit(m, _seeded_gates(rng, m, count))
                                      for count in (1, 2, 3, 8, 40, 300)]
    for c in circuits:
        assert sc.depth(c) == ref_depth(c)
    # every kind that fits m, CNOT both ways, and PERMUTE with m entries
    gates = {g for c in circuits for g in c.gates}
    assert {kind for kind, _ in gates} == \
        {k for k in GATE_KINDS if m >= 2 or k not in ("CZ", "CNOT")}
    assert m < 2 or {qs[0] < qs[1] for kind, qs in gates if kind == "CNOT"} == {True, False}
    assert {len(qs) for kind, qs in gates if kind == "PERMUTE"} == {m}


def test_depth_of_a_permute_on_zero_qubits_is_one():
    c = sc.circuit(0, [sc.gate("PERMUTE")])
    assert sc.depth(c) == ref_depth(c) == 1


def test_gate_equals_and_hashes_as_its_kind_qubits_tuple():
    g = sc.gate("CZ", 3, 1)
    assert g == ("CZ", (1, 3)) and hash(g) == hash(("CZ", (1, 3)))
    assert str(g) == "CZ 1 3"
    assert repr(g) == "Gate(kind='CZ', qubits=(1, 3))"


def test_gate_reads_qubits_as_integers_only():
    for args, message in ((("H", 1.7), "qubit 1.7 is not an integer"),
                          (("CZ", 2, 2.5), "qubit 2.5 is not an integer"),
                          (("CNOT", 1, "2"), "qubit '2' is not an integer")):
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            sc.gate(*args)
    g = sc.gate("CZ", np.int64(3), np.uint8(1))
    assert g == ("CZ", (1, 3)) and all(type(q) is int for q in g.qubits)
    assert sc.circuit(3, [g, sc.gate("PERMUTE", *np.array([2, 3, 1]))]).m == 3


@st.composite
def raw_gates(draw):
    """(m, kind, qubits): unknown kinds, arity 0 to 3, qubits from -1 to
    m + 2 with repeats, and PERMUTEs that are (or are not) permutations.
    Each qubit is an int, a numpy integer or (for 0 and 1) a bool."""
    m = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(GATE_KINDS + ("SWAP", "cz")))
    if kind == "PERMUTE" and draw(st.booleans()):
        qs = draw(st.permutations(range(1, draw(st.integers(0, m + 1)) + 1)))
    else:
        qs = draw(st.lists(st.integers(-1, m + 2), max_size=3))
    return m, kind, tuple(draw(st.sampled_from(
        (int, np.int64, np.int32) + ((bool,) if q in (0, 1) else ())))(q) for q in qs)


@settings(max_examples=200, deadline=None)
@given(raw_gates())
def test_gate_text_is_its_kind_and_qubits_joined(raw):
    """str() formats through the per-arity table, for canonical gates and
    for Gates built directly with any qubits (numpy ints, bools, repeats)."""
    _, kind, qs = raw
    gates = [sc.Gate(kind, qs), sc.Gate(kind, list(qs))]
    try:
        gates.append(sc.gate(kind, *qs))
    except ValueError:
        pass
    for g in gates:
        assert str(g) == " ".join([g.kind] + [str(q) for q in g.qubits])


def _outcome(build):
    try:
        return build()
    except ValueError as exc:
        return "ValueError: %s" % exc


@settings(max_examples=400, deadline=None)
@given(raw_gates(), st.data())
def test_circuit_checks_exactly_what_gate_and_circuit_check(raw, data):
    m, kind, qs = raw
    box = data.draw(st.sampled_from((list, tuple)))
    # a plain (kind, qubits) tuple is checked and stored as a Gate
    g = data.draw(st.sampled_from((sc.Gate(kind, qs), (kind, qs))))
    want = _outcome(lambda: sc.circuit(m, [sc.gate(kind, *qs)]))
    got = _outcome(lambda: sc.Circuit(m, box([g])))
    replaced = _outcome(lambda: dataclasses.replace(sc.circuit(m, []),
                                                    gates=box([g])))
    assert replaced == got
    assert got == want
    for bad in (-m, str(m), float(m), m + 0.9):
        for build in (sc.Circuit, sc.circuit):
            with pytest.raises(ValueError, match="^qubit count "):
                build(bad, box([g]))
    if isinstance(got, str):
        return
    for bad in (float(m), m + 0.5, str(m)):
        for text in (sc.serialize(got), sc.save_circuit_text(got)):
            with pytest.raises(sc.ParseError, match="^qubit count %s is not an integer$"
                               % re.escape(repr(bad))):
                sc.parse(text, m=bad)
    assert [type(x) for x in got.gates] == [sc.Gate]
    assert type(sc.Circuit(np.int64(m), box(got.gates)).m) is int
    assert sc.parse(sc.save_circuit_text(got)) == got
    assert sc.depth(got) == ref_depth(got) == sc.depth(want)
    word = st.integers(0, (1 << m) - 1)
    ps = [sc.PauliOperator(m, k, np.array([a >> q & 1 for q in range(m)], np.uint8),
                           np.array([b >> q & 1 for q in range(m)], np.uint8))
          for k, a, b in data.draw(st.lists(st.tuples(st.integers(0, 3), word, word),
                                            min_size=1, max_size=4))]
    assert sc.conjugate_many(got, ps) == ref_conjugate_many(got, ps) == \
        sc.conjugate_many(want, ps)
