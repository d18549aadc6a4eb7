"""Exact verification of circuits against requested Pauli conjugation maps.

Conjugation runs on a bit-sliced tableau in the Aaronson-Gottesman layout
(CHP, quant-ph/0406196; Stim, arXiv:2103.02202 slices it the same way):
each qubit column is a pair of Python ints x_q, z_q whose bit r is row r's
bit, and one int holds every row's sign.  The per-gate rules are exact for
the Hermitian form E(a, b) of ``pauli``: a Clifford gate maps E(a, b) to
+/- E(a', b'), so it flips only bit 1 of the phase exponent kappa, and bit 0
is carried through unchanged; the gates were checked when their Circuit
was made.  synth's sign fix runs on one such pass (_sign_fix), and realize
builds its report from that pass.  A dense-matrix oracle (m <= 12) is
available for cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_, xor

import numpy as np

from .circuit import Circuit, Gate, _join, _new
from .gf2core import _echelon_solve, _transpose, _unpack
from .pauli import PauliOperator, dense, identity, multiply, to_label


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
        else:  # PERMUTE: qubit q + 1 moves to position qs[q]
            ox, oz = xs[:], zs[:]
            for q, target in enumerate(qs):
                xs[target - 1] = ox[q]
                zs[target - 1] = oz[q]
    return xs, zs, s


def _columns(ops: list[PauliOperator], m: int) -> list[int]:
    """Column ints of operators on m qubits, bit r for row r: the x bits
    of qubits 1..m, their z bits, then bits 0 and 1 of kappa.  Every
    operator must act on m qubits (ValueError otherwise)."""
    for p in ops:
        if p.m != m:
            raise ValueError("operator acts on %d qubits, circuit on %d"
                             % (p.m, m))
    return _transpose([p.x | p.z << m | p.kappa << 2 * m for p in ops],
                      2 * m + 2)


def _conjugate_rows(circ: Circuit, cols: list[int]) -> list[int]:
    """Conjugate the rows whose columns are cols (the layout of _columns)
    through the circuit on the bit-sliced tableau; returns the images'
    columns in the same layout."""
    m = circ.m
    xs, zs, hi = _tableau(circ, cols[:m], cols[m:2 * m], cols[2 * m + 1])
    return xs + zs + [cols[2 * m], hi]


def _operators(cols: list[int], m: int, n: int) -> list[PauliOperator]:
    """The n operators on m qubits whose columns (the layout of _columns)
    are cols."""
    mask = (1 << m) - 1
    return [PauliOperator(m, w >> 2 * m, w & mask, w >> m & mask)
            for w in _transpose(cols, n)] if n else []


def conjugate_many(circ: Circuit, paulis) -> list[PauliOperator]:
    """Conjugate each operator by the whole circuit, exactly.

    Every operator must act on circ.m qubits (ValueError otherwise).  The
    rows go through one bit-sliced pass; operators are built from its output.
    """
    ps = list(paulis)
    return _operators(_conjugate_rows(circ, _columns(ps, circ.m)), circ.m, len(ps))


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
            # equal operators have equal labels
            got = to_label(r.computed)
            want = got if r.computed == r.expected else to_label(r.expected)
            lines.append("%-4s %-4s %s -> %s (want %s)"
                         % (verdict, r.name, to_label(r.given), got, want))
        lines.append("result: %s" % ("pass" if self.passed else "fail"))
        return "\n".join(lines)


def _maps(spec) -> tuple[dict, dict, dict, str]:
    """spec's images_x, images_z, stab_images and policy; spec may be None
    or any object that carries only some of them."""
    return (getattr(spec, "images_x", None) or {},
            getattr(spec, "images_z", None) or {},
            getattr(spec, "stab_images", None) or {},
            getattr(spec, "policy", "centralize"))


def expected_images(code, spec=None) -> list[tuple[str, PauliOperator, PauliOperator]]:
    """(name, input, required image) for each stabilizer generator and logical
    Pauli.  Unspecified rows default to the identity map; under the centralize
    policy stabilizer rows always map to themselves."""
    images_x, images_z, stab_images, policy = _maps(spec)
    rows = []
    for j, s in enumerate(code.stabilizers, start=1):
        want = stab_images.get(j, s) if policy == "normalize" else s
        rows.append(("S%d" % j, s, want))
    for i, p in enumerate(code.logical_x, start=1):
        rows.append(("X%d" % i, p, images_x.get(i, p)))
    for i, p in enumerate(code.logical_z, start=1):
        rows.append(("Z%d" % i, p, images_z.get(i, p)))
    return rows


def _check_spec(code, spec) -> None:
    """ValueError unless the spec fits the code: every index in range,
    every image on the code's qubits and, under normalize, every stabilizer
    image a stabilizer-group element with its intrinsic sign."""
    images_x, images_z, stab_images, policy = _maps(spec)
    n = code.n_logical
    for label, d, top in (("mapX", images_x, n), ("mapZ", images_z, n),
                          ("mapS", stab_images, code.k)):
        for i, p in d.items():
            if not 1 <= i <= top:
                raise ValueError("%s index %d out of range 1..%d" % (label, i, top))
            if p.m != code.m:
                raise ValueError("%s %d acts on %d qubits, code has %d"
                                 % (label, i, p.m, code.m))
    if policy == "normalize":
        m = code.m
        # column c of Sg, packed over the generators
        cols = _transpose([s.x | s.z << m for s in code.stabilizers], 2 * m)
        for j, target in stab_images.items():
            t = target.x | target.z << m
            coeffs = _echelon_solve([], 0, [(c, t >> i & 1) for i, c in enumerate(cols)])
            if coeffs is None:
                raise ValueError("mapS %d target %s is not a stabilizer-group "
                                 "element" % (j, to_label(target)))
            prod = reduce(multiply, (s for jj, s in enumerate(code.stabilizers)
                                     if coeffs >> jj & 1), identity(m))
            if not coeffs or prod != target:
                want = to_label(prod) if coeffs else "the identity"
                raise ValueError(
                    "mapS %d target %s does not carry its intrinsic sign; the "
                    "generator product is %s" % (j, to_label(target), want))


def _sign_fix(code, spec, raw: Circuit) -> tuple[list, Circuit, PauliOperator, list[int]]:
    """fix_signs on one conjugation pass: the rows of expected_images, raw
    with the correction prepended, the correction, and the corrected
    circuit's images of the rows' inputs as columns (the layout of _columns).

    The correction's Pauli gates move no x or z bit, and every gate's sign
    term ignores the incoming sign, so the corrected circuit's sign column
    is the raw pass's XOR the correction circuit's own pass over the inputs.
    """
    rows = expected_images(code, spec)
    m = raw.m
    given = _columns([g for _, g, _ in rows], m)
    images = _conjugate_rows(raw, given)
    # a wanted row on another qubit count is a wrong image
    misfit = sum(1 << r for r, (_, _, w) in enumerate(rows) if w.m != m)
    diff = list(map(xor, images, _columns([w if w.m == m else g
                                           for _, g, w in rows], m)))
    bad_image = reduce(or_, diff[:2 * m], misfit)
    bad = bad_image | diff[2 * m]
    if bad:
        first = bad & -bad
        name = rows[first.bit_length() - 1][0]
        if bad_image & first:
            raise ValueError("row %s: circuit does not realize the requested "
                             "symplectic map" % name)
        raise RuntimeError("row %s: image of a Hermitian row is not "
                           "Hermitian" % name)
    # each input row gamma = [a | b] times Omega is [b | a]; the solve
    # gives the lex-min correction [c | d], packed with bit t for column t
    err = diff[2 * m + 1]
    cd = _echelon_solve([], 0, [(g.z | g.x << m, err >> r & 1)
                                for r, (_, g, _) in enumerate(rows)])
    if cd is None:
        raise RuntimeError("no Pauli correction exists: the code's rows are "
                           "not independent")
    correction = PauliOperator(m, 0, cd & ((1 << m) - 1), cd >> m)
    fix = Circuit(m, tuple(_new(Gate, (kind, (t + 1,)))
                           for t, kind in enumerate(to_label(correction)) if kind != "I"))
    images[2 * m + 1] ^= _tableau(fix, given[:m], given[m:2 * m], 0)[2]
    return rows, _join(fix, raw), correction, images


def _report(rows, outs: list[PauliOperator], circ: Circuit,
            dense_check: bool) -> ConjugationReport:
    """The report on (name, input, wanted) rows whose images through circ
    are outs: a row passes only if its image equals the wanted operator,
    phase included, and, with dense_check, also under dense matrix
    conjugation (m <= 12)."""
    u = dense_unitary(circ) if dense_check else None
    report = []
    for (name, given, want), got in zip(rows, outs):
        ok = got == want
        if ok and u is not None:
            lhs = u @ dense(given) @ u.conj().T
            ok = bool(np.max(np.abs(lhs - dense(want))) <= 1e-10)
        report.append(ReportRow(name, given, want, got, ok))
    return ConjugationReport(tuple(report))


def verify_solution(code, spec, solution, dense_check: bool = False) -> ConjugationReport:
    """Check a circuit (or synthesis result) against the requested maps.

    Every stabilizer generator and logical Pauli is conjugated symbolically
    in a bit-sliced pass of its own; a row passes only if the image matches
    the requirement exactly, phase included.  With dense_check=True each
    row is additionally verified by dense matrix conjugation (m <= 12).  A
    spec that does not fit the code raises ValueError, as in build_system.
    realize builds the same report from the sign fix's pass (_sign_fix);
    this function checks any circuit independently of that.
    """
    _check_spec(code, spec)
    circ = getattr(solution, "circuit", solution)
    rows = expected_images(code, spec)
    outs = conjugate_many(circ, [given for _, given, _ in rows])
    return _report(rows, outs, circ, dense_check)
