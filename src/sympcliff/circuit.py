"""Physical circuits: ordered lists of Clifford gates on m qubits.

Gate order in a circuit is execution order (leftmost acts first on states).
Qubits are numbered 1..m.  The text form is one gate per line, e.g.

    P 2
    CZ 2 6
    P 6

A circuit file may start with a ``qubits <m>`` header; ``#`` starts a comment.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf2core import ParseError

_ARITY = {"H": 1, "P": 1, "X": 1, "Y": 1, "Z": 1, "CZ": 2, "CNOT": 2}
GATE_KINDS = tuple(_ARITY) + ("PERMUTE",)


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]

    def __str__(self):
        return " ".join([self.kind] + [str(q) for q in self.qubits])


def gate(kind: str, *qubits: int) -> Gate:
    """Build a validated gate.  CZ qubit pairs are stored ascending."""
    qs = tuple(int(q) for q in qubits)
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
    m: int
    gates: tuple[Gate, ...]

    def __len__(self):
        return len(self.gates)


def circuit(m: int, gates) -> Circuit:
    gs = tuple(gates)
    for g in gs:
        if g.kind == "PERMUTE":
            if len(g.qubits) != m:
                raise ValueError("PERMUTE image has %d entries on %d qubits"
                                 % (len(g.qubits), m))
        elif max(g.qubits) > m:
            raise ValueError("gate %s exceeds qubit count %d" % (g, m))
    return Circuit(int(m), gs)


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
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if toks[0] == "qubits":
            if gates or header_m is not None:
                raise ParseError("line %d: qubits header must come first" % ln)
            try:
                header_m = int(toks[1])
            except (IndexError, ValueError):
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
        raise ParseError("qubit count must be at least 1, got %d" % use_m)
    try:
        return circuit(use_m, gates)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def depth(c: Circuit) -> int:
    """Greedy stage count: a gate starts right after the latest prior gate
    sharing one of its qubits.  No commutation-based reordering."""
    stage: dict[int, int] = {}
    deepest = 0
    for g in c.gates:
        qs = range(1, c.m + 1) if g.kind == "PERMUTE" else g.qubits
        s = 1 + max((stage.get(q, 0) for q in qs), default=0)
        for q in qs:
            stage[q] = s
        deepest = max(deepest, s)
    return deepest
