"""Every text parser raises only ParseError, whatever lines it is fed."""

from __future__ import annotations

import importlib
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sympcliff as sc
from sympcliff.circuit import GATE_KINDS
from helpers import ref_parse

# the module: sc.circuit is the function of that name
CIRCUIT = importlib.import_module("sympcliff.circuit")

DIRECTIVES = (
    "qubits", "stabilizer", "logicalX", "logicalZ", "op", "policy", "mapX",
    "mapZ", "mapS", "H", "P", "X", "Y", "Z", "CZ", "CNOT", "PERMUTE", "0", "1",
    "#", "",
)
ARGUMENTS = (
    # counts and indices: small, zero, negative, huge and non-numeric
    "1", "2", "3", "0", "-3", "100000000000000000000", "-100000000000000000000",
    "1.5", "one",
    # labels, with and without prefixes
    "XX", "ZZ", "XYZ", "IIII", "+XX", "-ZZ", "+iXY", "-iZI", "-", "Q",
    "centralize", "normalize", "#",
)

_lines = st.builds(lambda d, args: " ".join([d] + args),
                   st.sampled_from(DIRECTIVES),
                   st.lists(st.sampled_from(ARGUMENTS), max_size=3))
_texts = st.lists(_lines, min_size=1, max_size=4).map("\n".join)

PARSERS = (
    sc.load_code,
    sc.load_spec,
    sc.parse,
    lambda text: sc.parse(text, m=2),
    sc.load_matrix_text,
)


@settings(max_examples=1000, deadline=None)
@given(_texts)
def test_parsers_raise_only_parse_error(text):
    for parse in PARSERS:
        try:
            parsed = parse(text)
        except sc.ParseError:
            continue
        if hasattr(parsed, "m"):  # a code or a circuit
            assert parsed.m >= 1


@pytest.mark.parametrize("parser,text,message", [
    (sc.parse, "qubits 2 7\nH 1\n", "line 1: bad qubits header"),
    (sc.load_code, "qubits 1 9\n", "line 1: expected 'qubits <count>'"),
    (sc.load_code, "qubits 1\nstabilizer Z extra\n",
     "line 2: expected 'stabilizer <label>'"),
    (sc.load_code, "qubits 1\nlogicalX 1 X extra\n",
     "line 2: expected 'logicalX <index> <label>'"),
    (sc.load_spec, "op h\nmapX 1 X extra\n",
     "line 2: expected 'mapX <index> <label>'"),
], ids=["parse-header", "code-qubits", "code-stabilizer", "code-logical",
        "spec-map"])
def test_parsers_refuse_trailing_tokens(parser, text, message):
    with pytest.raises(sc.ParseError) as err:
        parser(text)
    assert str(err.value) == message


# Circuit text lines: every gate kind and an unknown one at arity 0 to 3 on
# qubits 0, -1, 1-7, huge and non-integer; well-formed one-qubit lines and
# CZ and CNOT pairs (equal and descending ones among them), weighted up so
# that many texts parse; PERMUTE images, headers and comments.
QUBITS = ("0", "-1", "1", "2", "3", "4", "5", "6", "7",
          "100000000000000000000", "1.5", "two")
_gate_lines = st.builds(lambda kind, qs: " ".join((kind,) + tuple(qs)),
                        st.sampled_from(GATE_KINDS + ("SWAP",)),
                        st.lists(st.sampled_from(QUBITS), max_size=3))
_singles = st.builds("{} {}".format, st.sampled_from(("H", "P", "X", "Y", "Z")),
                     st.integers(1, 7))
_pairs = st.builds("{} {} {}".format, st.sampled_from(("CZ", "CNOT")),
                   st.integers(1, 7), st.integers(1, 7))
_permutes = st.integers(1, 7).flatmap(
    lambda n: st.permutations(range(1, n + 1))).map(
    lambda image: "PERMUTE " + " ".join(map(str, image)))
_headers = st.sampled_from(("qubits 1", "qubits 2", "qubits 3", "qubits 6",
                            "qubits 0", "qubits", "qubits x", "qubits 2 7"))
_circuit_lines = st.tuples(
    st.one_of(_singles, _pairs, _singles, _pairs, _gate_lines, _permutes,
              _headers, st.just("")),
    st.sampled_from(("", "  # note", "#"))).map("".join)


def _parse_outcome(parse, text, m):
    try:
        return parse(text, m)
    except sc.ParseError as exc:
        return "ParseError: %s" % exc


@settings(max_examples=400, deadline=None)
@given(st.lists(_circuit_lines, min_size=1, max_size=5).map("\n".join))
def test_parse_matches_the_gate_per_line_parser(text):
    """parse, which checks each gate line once by the one gate rule
    (circuit._checked), gives ref_parse's circuit or its ParseError text,
    and hands Circuit every gate already in gate()'s form (int qubits, CZ
    pairs ascending), so Circuit rebuilds none of them."""
    real = CIRCUIT.circuit
    for m in (None, 1, 2, 3, 6):
        want = _parse_outcome(ref_parse, text, m)
        handed = []
        with mock.patch.object(CIRCUIT, "circuit",
                               lambda m, gates: real(m, handed.extend(gates) or gates)):
            got = _parse_outcome(sc.parse, text, m)
        assert got == want
        if not isinstance(want, str):
            assert handed == list(want.gates)
            assert all(type(g) is sc.Gate and all(type(q) is int for q in g.qubits)
                       for g in handed)

