"""Exact verification of circuits against requested Pauli conjugation maps.

Conjugation runs on a bit-sliced tableau in the Aaronson-Gottesman layout
(CHP, quant-ph/0406196; Stim, arXiv:2103.02202 slices it the same way):
each qubit column is a pair of Python ints x_q, z_q whose bit r is row r's
bit, and one int holds every row's sign.  The per-gate rules are exact for
the Hermitian form E(a, b) of ``pauli``: a Clifford gate maps E(a, b) to
+/- E(a', b'), so it flips only bit 1 of the phase exponent kappa, and bit 0
is carried through unchanged.  A dense-matrix oracle (m <= 12) is available
for cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_, xor

import numpy as np

from .circuit import Circuit, Gate
from .gf2core import _transpose, _unpack
from .pauli import PauliOperator, dense, to_label


def _tableau(circ: Circuit, xs: list[int], zs: list[int], s: int) -> tuple:
    """Conjugate a bit-sliced tableau by every gate of the circuit, in order.

    xs[q] and zs[q] hold qubit q + 1's x and z bits, bit r for row r; s holds
    bit 1 of each row's kappa.  The lists are updated in place.
    """
    for kind, qs in circ.gates:
        if kind == "CNOT":
            c, t = qs[0] - 1, qs[1] - 1
            xc, zt = xs[c], zs[t]
            s ^= xc & zt & ~(xs[t] ^ zs[c])
            xs[t] ^= xc
            zs[c] ^= zt
        elif kind == "CZ":
            q, r = qs[0] - 1, qs[1] - 1
            xq, xr = xs[q], xs[r]
            s ^= xq & xr & (zs[q] ^ zs[r])
            zs[q] ^= xr
            zs[r] ^= xq
        elif kind == "H":
            q = qs[0] - 1
            s ^= xs[q] & zs[q]
            xs[q], zs[q] = zs[q], xs[q]
        elif kind == "P":
            q = qs[0] - 1
            s ^= xs[q] & zs[q]
            zs[q] ^= xs[q]
        elif kind == "X":
            s ^= zs[qs[0] - 1]
        elif kind == "Z":
            s ^= xs[qs[0] - 1]
        elif kind == "Y":
            q = qs[0] - 1
            s ^= xs[q] ^ zs[q]
        elif kind == "PERMUTE":
            # qubit q + 1 moves to position qs[q]
            ox, oz = xs[:], zs[:]
            for q, target in enumerate(qs):
                xs[target - 1] = ox[q]
                zs[target - 1] = oz[q]
        else:
            raise ValueError("unknown gate kind %r" % kind)
    return xs, zs, s


def _columns(ops: list[PauliOperator], m: int) -> list[int]:
    """Column ints of operators on m qubits, bit r for row r: the x bits
    of qubits 1..m, their z bits, then bits 0 and 1 of kappa."""
    return _transpose([p.x | p.z << m | p.kappa << 2 * m for p in ops],
                      2 * m + 2)


def _conjugate_rows(circ: Circuit, ops: list[PauliOperator]) -> list[int]:
    """Conjugate operators through the circuit on the bit-sliced tableau;
    returns the images' columns in the layout of _columns."""
    m = circ.m
    for p in ops:
        if p.m != m:
            raise ValueError("operator acts on %d qubits, circuit on %d"
                             % (p.m, m))
    cols = _columns(ops, m)
    xs, zs, hi = _tableau(circ, cols[:m], cols[m:2 * m], cols[2 * m + 1])
    return xs + zs + [cols[2 * m], hi]


def _mismatches(circ: Circuit, rows) -> tuple[int, int, int]:
    """Conjugate each (name, input, wanted) row's input through the circuit
    and compare the image with the wanted operator, all on packed rows.

    Returns three masks, bit r for row r: a wrong binary image, a wrong
    bit 0 of kappa (an imaginary phase error), and a wrong bit 1 (a sign
    error).  No operator is built for the images.
    """
    given = [g for _, g, _ in rows]
    m = circ.m
    # a wanted row on another qubit count is a wrong image
    misfit = sum(1 << r for r, (_, _, w) in enumerate(rows) if w.m != m)
    want = _columns([w if w.m == m else g for g, (_, _, w) in zip(given, rows)], m)
    diff = list(map(xor, _conjugate_rows(circ, given), want))
    return reduce(or_, diff[:2 * m], misfit), diff[2 * m], diff[2 * m + 1]


def conjugate_many(circ: Circuit, paulis) -> list[PauliOperator]:
    """Conjugate each operator by the whole circuit, exactly.

    Every operator must act on circ.m qubits (ValueError otherwise).  The
    rows go through one bit-sliced pass; operators are built from its output.
    """
    ps = list(paulis)
    if not ps:
        return []
    m = circ.m
    mask = (1 << m) - 1
    return [PauliOperator(m, w >> 2 * m, w & mask, w >> m & mask)
            for w in _transpose(_conjugate_rows(circ, ps), len(ps))]


def conjugate(circ: Circuit, p: PauliOperator) -> PauliOperator:
    """g p g^dagger for the circuit's overall operator g, exact phase included."""
    return conjugate_many(circ, [p])[0]


def induced_symplectic(circ: Circuit) -> tuple[np.ndarray, np.ndarray]:
    """The binary symplectic matrix of a circuit, plus per-row signs.

    Row i < m is the image of X on qubit i+1, row m + j the image of Z on
    qubit j+1; signs[i] is the +/-1 phase the corresponding generator picks
    up.  Computed by one bit-sliced pass over the identity tableau.
    """
    m = circ.m
    xs, zs, s = _tableau(circ, [1 << q for q in range(m)],
                         [1 << (m + q) for q in range(m)], 0)
    f = np.hstack([_unpack(xs, 2 * m).T, _unpack(zs, 2 * m).T])
    signs = 1 - 2 * _unpack([s], 2 * m)[0].astype(np.int64)
    return f, signs


_H2 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_P2 = np.array([[1, 0], [0, 1j]], dtype=complex)
_X2 = np.array([[0, 1], [1, 0]], dtype=complex)
_Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
_CZ4 = np.diag([1, 1, 1, -1]).astype(complex)
_CNOT4 = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                  dtype=complex)
_GATE_1Q = {"H": _H2, "P": _P2, "X": _X2, "Y": _Y2, "Z": _Z2}
_GATE_2Q = {"CZ": _CZ4, "CNOT": _CNOT4}


def _apply_dense(u: np.ndarray, g: Gate, m: int) -> np.ndarray:
    cols = u.shape[1]
    if g.kind == "PERMUTE":
        n = u.shape[0]
        idx = np.arange(n)
        out_idx = np.zeros(n, dtype=np.int64)
        for q0, target in enumerate(g.qubits):
            bit = (idx >> (m - 1 - q0)) & 1
            out_idx |= bit << (m - target)
        res = np.empty_like(u)
        res[out_idx] = u
        return res
    t = u.reshape((2,) * m + (cols,))
    if g.kind in _GATE_1Q:
        q = g.qubits[0] - 1
        t = np.moveaxis(t, q, 0)
        t = np.tensordot(_GATE_1Q[g.kind], t, axes=(1, 0))
        t = np.moveaxis(t, 0, q)
    else:
        q1, q2 = g.qubits[0] - 1, g.qubits[1] - 1
        t = np.moveaxis(t, (q1, q2), (0, 1))
        g4 = _GATE_2Q[g.kind].reshape(2, 2, 2, 2)
        t = np.tensordot(g4, t, axes=([2, 3], [0, 1]))
        t = np.moveaxis(t, (0, 1), (q1, q2))
    return t.reshape(u.shape)


def dense_unitary(circ: Circuit) -> np.ndarray:
    """The circuit's unitary; gate i+1 is applied after gate i, so the matrix
    product runs in reverse circuit order.  Qubit 1 is the most significant
    index bit.  Limited to m <= 12."""
    if circ.m > 12:
        raise ValueError("dense form limited to m <= 12")
    n = 1 << circ.m
    u = np.eye(n, dtype=complex)
    for g in circ.gates:
        u = _apply_dense(u, g, circ.m)
    return u


def _as_bitvector(x, n: int) -> np.ndarray:
    if isinstance(x, str):
        if len(x) != n or any(c not in "01" for c in x):
            raise ValueError("expected %d bits, got %r" % (n, x))
        return np.array([int(c) for c in x], dtype=np.uint8)
    arr = np.asarray(x, dtype=np.int64).ravel() % 2
    if arr.shape != (n,):
        raise ValueError("expected %d bits" % n)
    return arr.astype(np.uint8)


def prepare_css_state(code, x) -> np.ndarray:
    """The logical computational basis state |psi_x> of a CSS-shaped code.

    The state is the uniform superposition over the coset (x . G^X) + C_perp,
    where C_perp is spanned by the X-type stabilizer rows.  Requires every
    stabilizer and logical operator to be purely X- or Z-type.
    """
    m = code.m
    if m > 12:
        raise ValueError("dense form limited to m <= 12")
    mixed = [s for s in code.stabilizers if s.x and s.z]
    if mixed:
        raise ValueError("stabilizer %s is mixed type; state preparation "
                         "needs a CSS code" % to_label(mixed[0]))
    hc = [s.x for s in code.stabilizers if s.x]
    if any(p.z for p in code.logical_x):
        raise ValueError("logical X operators must be X-type")
    bits = _as_bitvector(x, len(code.logical_x))
    base = reduce(xor, (p.x for xi, p in zip(bits, code.logical_x) if xi), 0)
    vec = np.zeros(1 << m, dtype=complex)
    for combo in range(1 << len(hc)):
        c = reduce(xor, (row for j, row in enumerate(hc) if combo >> j & 1), base)
        # qubit 1 is the most significant bit of the index: c bit-reversed
        vec[int(format(c, "0%db" % m)[::-1], 2)] += 1
    return vec / np.sqrt(1 << len(hc))


@dataclass(frozen=True)
class ReportRow:
    name: str
    given: PauliOperator
    expected: PauliOperator
    computed: PauliOperator
    ok: bool


@dataclass(frozen=True)
class ConjugationReport:
    rows: tuple[ReportRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)

    def render(self) -> str:
        lines = []
        for r in self.rows:
            verdict = "ok" if r.ok else "FAIL"
            lines.append("%-4s %-4s %s -> %s (want %s)"
                         % (verdict, r.name, to_label(r.given),
                            to_label(r.computed), to_label(r.expected)))
        lines.append("result: %s" % ("pass" if self.passed else "fail"))
        return "\n".join(lines)


def expected_images(code, spec=None) -> list[tuple[str, PauliOperator, PauliOperator]]:
    """(name, input, required image) for each stabilizer generator and logical
    Pauli.  Unspecified rows default to the identity map; under the centralize
    policy stabilizer rows always map to themselves."""
    images_x = getattr(spec, "images_x", None) or {}
    images_z = getattr(spec, "images_z", None) or {}
    stab_images = getattr(spec, "stab_images", None) or {}
    policy = getattr(spec, "policy", "centralize")
    rows = []
    for j, s in enumerate(code.stabilizers, start=1):
        want = stab_images.get(j, s) if policy == "normalize" else s
        rows.append(("S%d" % j, s, want))
    for i, p in enumerate(code.logical_x, start=1):
        rows.append(("X%d" % i, p, images_x.get(i, p)))
    for i, p in enumerate(code.logical_z, start=1):
        rows.append(("Z%d" % i, p, images_z.get(i, p)))
    return rows


def verify_solution(code, spec, solution, dense_check: bool = False) -> ConjugationReport:
    """Check a circuit (or synthesis result) against the requested maps.

    Every stabilizer generator and logical Pauli is conjugated symbolically;
    a row passes only if the image matches the requirement exactly, phase
    included.  With dense_check=True each row is additionally verified by
    dense matrix conjugation (m <= 12).
    """
    circ = getattr(solution, "circuit", solution)
    rows = expected_images(code, spec)
    outs = conjugate_many(circ, [given for _, given, _ in rows])
    u = dense_unitary(circ) if dense_check else None
    report = []
    for (name, given, want), got in zip(rows, outs):
        ok = got == want
        if ok and u is not None:
            lhs = u @ dense(given) @ u.conj().T
            ok = bool(np.max(np.abs(lhs - dense(want))) <= 1e-10)
        report.append(ReportRow(name, given, want, got, ok))
    return ConjugationReport(tuple(report))
