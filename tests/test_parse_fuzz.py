"""Every text parser raises only ParseError, whatever lines it is fed."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sympcliff as sc

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
