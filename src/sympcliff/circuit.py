"""Physical circuits: ordered lists of Clifford gates on m qubits.

Gate order in a circuit is execution order (leftmost acts first on states).
Qubits are numbered 1..m, and a Circuit checks every gate when it is made,
by the one gate rule (_checked) that gate() and parse also check through.
The package's own emitters (decompose's, the sign fix) check nothing per
gate: they pick their gates from one table (_table) whose entries each
passed the rule once, when the table was built, and make their circuits
through one trusted constructor (_trusted).  A circuit that a user makes,
by circuit(), Circuit(...), dataclasses.replace or parse, is still checked
on every gate.  The text form is one gate per line, e.g.

    P 2
    CZ 2 6
    P 6

A circuit file may start with a ``qubits <m>`` header; ``#`` starts a comment.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import index
from typing import NamedTuple

import numpy as np

from .gf2core import ParseError, _tokens, _unpack

_ARITY = {"H": 1, "P": 1, "X": 1, "Y": 1, "Z": 1, "CZ": 2, "CNOT": 2, "PERMUTE": None}
GATE_KINDS = tuple(_ARITY)
_ONE_QUBIT, _TWO_QUBIT = (frozenset(k for k in _ARITY if _ARITY[k] == n) for n in (1, 2))
# Gate(kind, qubits) runs the NamedTuple's Python-level __new__; the package
# builds its own gates with this builtin instead, as _new(Gate, (kind, qubits))
_new = tuple.__new__
# Gate.__str__'s text for up to two qubits; %s is str(), as in the join for more
_FORMATS = ("%s", "%s %s", "%s %s %s")


class Gate(NamedTuple):
    """One gate; it equals, and hashes as, its (kind, qubits) tuple."""

    kind: str
    qubits: tuple[int, ...]

    def __str__(self):
        qs = self.qubits
        if len(qs) < 3:
            return _FORMATS[len(qs)] % (self.kind, *qs)
        return " ".join([self.kind] + [str(q) for q in qs])


def _checked(gates, m: int | None = None) -> tuple[Gate, ...]:
    """The gate rule, written only here: each (kind, qubits) pair of gates
    as a Gate in gate()'s form (int qubits, CZ pairs ascending), each pair
    checked before the next is read, so the first bad one raises ValueError.
    A Gate already in that form is kept as the same object.  With m, a qubit
    must also be at most m, and a PERMUTE image must have m entries."""
    top = float("inf") if m is None else m
    out = []
    append = out.append
    for g in gates:
        try:
            kind, qs = g
            n = len(qs)
        except (TypeError, ValueError):
            raise ValueError("gate %r is not a (kind, qubits) pair" % (g,)) from None
        canonical = type(g) is Gate and type(qs) is tuple  # kept if it passes as is
        try:  # one table test accepts the common gates in gate()'s form
            if n == 1:
                q, = qs
                if kind in _ONE_QUBIT and type(q) is int and 0 < q <= top:
                    append(g if canonical else _new(Gate, (kind, (q,))))
                    continue
            elif n == 2:
                q, r = qs
                if (type(q) is int and type(r) is int and 0 < q <= top and 0 < r <= top
                        and (kind in _TWO_QUBIT if q < r else kind == "CNOT" and q != r)):
                    append(g if canonical else _new(Gate, (kind, (q, r))))
                    continue
        except (TypeError, ValueError):  # a kind that is unhashable or compares
            pass  # as an array is named by the full check below
        try:  # the rest are checked in full, on their qubits as ints; q is the one read
            ints = qs if {*map(type, qs)} <= {int} else [index(q := x) for x in qs]
        except TypeError:
            raise ValueError("qubit %r is not an integer" % (q,)) from None
        try:
            arity = _ARITY[kind]
        except (KeyError, TypeError):
            raise ValueError("unknown gate kind %r" % (kind,)) from None
        if arity is None:  # PERMUTE
            if sorted(ints) != list(range(1, n + 1)):
                raise ValueError("PERMUTE needs the full image of qubits 1..m")
            if m is not None and n != m:
                raise ValueError("PERMUTE image has %d entries on %d qubits" % (n, m))
        else:
            if n != arity:
                raise ValueError("%s takes %d qubit(s), got %d" % (kind, arity, n))
            if min(ints) < 1:
                raise ValueError("qubits are numbered from 1")
            if arity == 2 and ints[0] == ints[1]:
                raise ValueError("%s needs two distinct qubits" % kind)
            if kind == "CZ" and ints[0] > ints[1]:
                ints = ints[::-1]
            if max(ints) > top:
                raise ValueError("gate %s exceeds qubit count %d"
                                 % (" ".join(map(str, [kind, *ints])), m))
        append(g if canonical and ints is qs else _new(Gate, (kind, tuple(ints))))
    return tuple(out)


def gate(kind: str, *qubits: int) -> Gate:
    """Build a validated gate.  CZ qubit pairs are stored ascending.  A
    qubit may be any integer type (numpy's too) and is stored as an int."""
    return _checked([(kind, qubits)])[0]


@dataclass(frozen=True)
class Circuit:
    """Gates on qubits 1..m in execution order, each checked here by the one
    gate rule, _checked, however a caller makes the circuit (ValueError
    otherwise); every reader trusts them.  They are stored as a tuple in
    gate()'s form.  The package's emitters build theirs with _trusted."""

    m: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        try:
            m = index(self.m)
        except TypeError:
            raise ValueError("qubit count %r is not an integer" % (self.m,)) from None
        if m < 0:
            raise ValueError("qubit count must not be negative, got %d" % m)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "gates", _checked(self.gates, m))

    def __len__(self):
        return len(self.gates)


def circuit(m: int, gates) -> Circuit:
    return Circuit(m, gates)


def _trusted(m: int, gates: tuple[Gate, ...]) -> Circuit:
    """The Circuit of a tuple of gates that already passed the gate rule on
    m qubits: _table's entries on qubits 1..m and the gates of circuits on
    m qubits.  Only m is checked, as every Circuit checks it; no gate is
    checked again."""
    c = Circuit(m, ())
    object.__setattr__(c, "gates", gates)
    return c


def _join(a: Circuit, b: Circuit) -> Circuit:
    """a's gates, then b's, as one circuit; their qubit counts must agree
    (ValueError otherwise)."""
    if a.m != b.m:
        raise ValueError("cannot join circuits on %d and %d qubits" % (a.m, b.m))
    return _trusted(a.m, a.gates + b.gates)


_TABLE: dict[str, list] = {}  # _table's; built at its first use, not at import


def _table(m: int) -> dict[str, list]:
    """The gate table (see _table_on) on at least m qubits.  A table on
    fewer is replaced by one built for m, so the table only grows, and only
    when a circuit has more qubits than any before it.  The caller gets the
    table it tested, so a rebuild in another thread cannot hand it a
    smaller one."""
    global _TABLE
    table = _TABLE
    if len(table.get("H", ())) <= m:
        table = _TABLE = _table_on(m)
    return table


def _table_on(m: int) -> dict[str, list]:
    """Every one- and two-qubit gate on m qubits, indexed by its qubits:
    table[k][q] is the Gate k on qubit q for H, P, X, Y and Z, and
    table[k][q][r] the Gate k on (q, r) for CZ with q < r and CNOT with
    q != r; every other slot holds None.  One _checked call over all their
    (kind, qubits) pairs makes the entries, so each passes the gate rule
    once, here."""
    qs = range(1, m + 1)
    pairs = [(k, (q,)) for k in sorted(_ONE_QUBIT) for q in qs]
    pairs += [(k, (q, r)) for k in sorted(_TWO_QUBIT) for q in qs for r in qs
              if q < r or k == "CNOT" and q != r]
    entry = {g: g for g in _checked(pairs, m)}
    table = {k: [None] + [entry[k, (q,)] for q in qs] for k in sorted(_ONE_QUBIT)}
    for k in sorted(_TWO_QUBIT):
        table[k] = [None] + [[entry.get((k, (q, r))) for r in range(m + 1)] for q in qs]
    return table


def serialize(c: Circuit) -> str:
    """Gate lines only, one per line; empty circuit serializes to ''."""
    return "".join(str(g) + "\n" for g in c.gates)


def save_circuit_text(c: Circuit) -> str:
    return "qubits %d\n" % c.m + serialize(c)


def parse(text: str, m: int | None = None) -> Circuit:
    """Inverse of serialize.  Accepts an optional ``qubits <m>`` header line,
    otherwise m must be supplied."""
    header_m = ln = None

    def gate_lines():  # a header's errors, too, get its line number below
        nonlocal header_m, ln
        for i, (ln, toks) in enumerate(_tokens(text)):
            if toks[0] != "qubits":
                yield toks[0], tuple(map(int, toks[1:]))
            elif i:
                raise ValueError("qubits header must come first")
            else:
                try:
                    header_m, = map(int, toks[1:])
                except ValueError:
                    raise ValueError("bad qubits header") from None

    try:  # the rule reads no line past the first bad one, so ln is that line
        gates = _checked(gate_lines())
    except ValueError as exc:
        raise ParseError("line %d: %s" % (ln, exc)) from None
    if m is not None:
        try:
            m = index(m)
        except TypeError:
            raise ParseError("qubit count %r is not an integer" % (m,)) from None
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
    qubit).  No commutation-based reordering.

    stage[q] is qubit q's stage so far; Circuit keeps every qubit in 1..m.
    One- and two-qubit gates, PERMUTE on m <= 2 too, take a branch each,
    and only a longer PERMUTE loops over its qubits."""
    stage = [0] * (c.m + 1)
    deepest = 0
    for _, qs in c.gates:
        n = len(qs)
        if n == 2:
            q, r = qs
            s = stage[q]
            if stage[r] > s:
                s = stage[r]
            stage[q] = stage[r] = s = s + 1
        elif n == 1:
            q, = qs
            stage[q] = s = stage[q] + 1
        else:
            s = max([stage[q] for q in qs], default=0) + 1
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
