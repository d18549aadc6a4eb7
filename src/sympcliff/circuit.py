"""Physical circuits: ordered lists of Clifford gates on m qubits.

Gate order in a circuit is execution order (leftmost acts first on states).
Qubits are numbered 1..m, and a Circuit checks every gate when it is made.
The text form is one gate per line, e.g.

    P 2
    CZ 2 6
    P 6

A circuit file may start with a ``qubits <m>`` header; ``#`` starts a comment.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import index, is_
from typing import NamedTuple

import numpy as np

from .gf2core import ParseError, _tokens, _unpack

_ARITY = {"H": 1, "P": 1, "X": 1, "Y": 1, "Z": 1, "CZ": 2, "CNOT": 2}
GATE_KINDS = tuple(_ARITY) + ("PERMUTE",)
_ONE_QUBIT, _TWO_QUBIT = (frozenset(k for k in _ARITY if _ARITY[k] == n) for n in (1, 2))


class Gate(NamedTuple):
    """One gate; it equals, and hashes as, its (kind, qubits) tuple."""

    kind: str
    qubits: tuple[int, ...]

    def __str__(self):
        return " ".join([self.kind] + [str(q) for q in self.qubits])


def _qubit(q) -> int:
    try:
        return index(q)
    except TypeError:
        raise ValueError("qubit %r is not an integer" % (q,)) from None


def gate(kind: str, *qubits: int) -> Gate:
    """Build a validated gate.  CZ qubit pairs are stored ascending.  A
    qubit may be any integer type (numpy's too) and is stored as an int."""
    qs = tuple(map(_qubit, qubits))
    if kind == "PERMUTE":
        if sorted(qs) != list(range(1, len(qs) + 1)):
            raise ValueError("PERMUTE needs the full image of qubits 1..m")
        return Gate(kind, qs)
    arity = _ARITY.get(kind)
    if arity is None:
        raise ValueError("unknown gate kind %r" % kind)
    if len(qs) != arity:
        raise ValueError("%s takes %d qubit(s), got %d" % (kind, arity, len(qs)))
    if any(q < 1 for q in qs):
        raise ValueError("qubits are numbered from 1")
    if arity == 2 and qs[0] == qs[1]:
        raise ValueError("%s needs two distinct qubits" % kind)
    if kind == "CZ":
        qs = tuple(sorted(qs))
    return Gate(kind, qs)


@dataclass(frozen=True)
class Circuit:
    """Gates on qubits 1..m in execution order, each checked here however
    the circuit is made (ValueError otherwise); every reader trusts them.
    The gates are stored as a tuple in gate()'s form: int qubits, CZ pairs
    ascending."""

    m: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        try:
            m = index(self.m)
        except TypeError:
            raise ValueError("qubit count %r is not an integer" % (self.m,)) from None
        if m < 0:
            raise ValueError("qubit count must not be negative, got %d" % m)
        gates = self.gates
        if m is not self.m or type(gates) is not tuple:
            gates = tuple(gates)
            object.__setattr__(self, "m", m)
            object.__setattr__(self, "gates", gates)
        changed = not {*map(type, gates)} <= {Gate}
        for kind, qs in gates:
            # accept the common gates in gate()'s form (int qubits, CZ pairs
            # ascending) fast, else check by its rules
            if len(qs) == 1:
                q, = qs
                if kind in _ONE_QUBIT and type(q) is int and 0 < q <= m:
                    continue
            elif len(qs) == 2:
                q, r = qs
                if (type(q) is int and type(r) is int and 0 < q <= m and 0 < r <= m
                        and (kind in _TWO_QUBIT if q < r
                             else kind == "CNOT" and q != r)):
                    continue
            g = gate(kind, *qs)
            if kind == "PERMUTE":
                if len(qs) != m:
                    raise ValueError("PERMUTE image has %d entries on %d qubits"
                                     % (len(qs), m))
            elif max(g.qubits) > m:
                raise ValueError("gate %s exceeds qubit count %d" % (g, m))
            # gate() returns an int qubit as that same object, in place
            if not all(map(is_, g.qubits, qs)):
                changed = True
        if changed:  # store gate()'s form of every gate
            object.__setattr__(self, "gates", tuple(gate(kind, *qs) for kind, qs in gates))

    def __len__(self):
        return len(self.gates)


def circuit(m: int, gates) -> Circuit:
    return Circuit(m, gates)


def _join(a: Circuit, b: Circuit) -> Circuit:
    """a's gates, then b's, as one circuit.  Both were checked when they
    were made, so no gate is checked again; their qubit counts must agree
    (ValueError otherwise)."""
    if a.m != b.m:
        raise ValueError("cannot join circuits on %d and %d qubits" % (a.m, b.m))
    joined = object.__new__(Circuit)
    object.__setattr__(joined, "m", a.m)
    object.__setattr__(joined, "gates", a.gates + b.gates)
    return joined


def serialize(c: Circuit) -> str:
    """Gate lines only, one per line; empty circuit serializes to ''."""
    return "".join(str(g) + "\n" for g in c.gates)


def save_circuit_text(c: Circuit) -> str:
    return "qubits %d\n" % c.m + serialize(c)


def parse(text: str, m: int | None = None) -> Circuit:
    """Inverse of serialize.  Accepts an optional ``qubits <m>`` header line,
    otherwise m must be supplied."""
    header_m = None
    gates = []
    for ln, toks in _tokens(text):
        if toks[0] == "qubits":
            if gates or header_m is not None:
                raise ParseError("line %d: qubits header must come first" % ln)
            try:
                header_m, = map(int, toks[1:])
            except ValueError:
                raise ParseError("line %d: bad qubits header" % ln) from None
            continue
        try:
            gates.append(gate(toks[0], *[int(t) for t in toks[1:]]))
        except ValueError as exc:
            raise ParseError("line %d: %s" % (ln, exc)) from None
    if header_m is not None and m is not None and header_m != m:
        raise ParseError("header says %d qubits, caller says %d" % (header_m, m))
    if header_m is None and m is None:
        raise ParseError("qubit count unknown: no header and no m argument")
    use_m = header_m if header_m is not None else m
    if use_m < 1:
        raise ParseError("qubit count must be at least 1, got %s" % use_m)
    try:
        return circuit(use_m, gates)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def depth(c: Circuit) -> int:
    """Greedy stage count: a gate starts right after the latest prior gate
    sharing one of its qubits (a PERMUTE lists, and so shares, every
    qubit).  No commutation-based reordering."""
    stage: dict[int, int] = {}
    get = stage.get
    deepest = 0
    for _, qs in c.gates:
        s = 1
        for q in qs:
            t = get(q, 0)
            if t >= s:
                s = t + 1
        for q in qs:
            stage[q] = s
        if s > deepest:
            deepest = s
    return deepest


def _plane_max(x: list[int], y: list[int]) -> list[int]:
    """Lane-wise maximum of two bit-plane counters of the same width."""
    more, open_ = 0, -1  # lanes where x > y; lanes not yet decided
    for a, b in zip(reversed(x), reversed(y)):
        if d := (a ^ b) & open_:
            more |= d & a
            open_ ^= d
    return [b ^ (a ^ b) & more for a, b in zip(x, y)] if more else y


def _score_planes(gates, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """depth and the gate count of the n lanes of a (kind, qubits, lane mask)
    template (decompose._emit_lanes), as per-lane arrays, by depth's greedy
    rule.  Each qubit's stage is a bit-plane counter (plane b holds bit b of
    every lane's stage) as wide as the template's gate count needs, so none
    can overflow; only the final depth planes and the gate masks are
    unpacked."""
    width = len(gates).bit_length()
    stage = [[0] * width] * m
    for kind, qs, mask in gates:
        if mask:
            cols = range(m) if kind == "PERMUTE" else [q - 1 for q in qs]
            top, carry = [], mask  # deepest stage of cols, plus one by ripple carry
            for x in reduce(_plane_max, [stage[c] for c in cols]):
                top.append(x ^ carry)
                carry &= x
            for c in cols:
                stage[c] = [a ^ (a ^ b) & mask for a, b in zip(stage[c], top)]
    weights = 1 << np.arange(width, dtype=np.int64)
    return (weights @ _unpack(reduce(_plane_max, stage), n),
            _unpack([mask for *_, mask in gates], n).sum(0, dtype=np.int64))
