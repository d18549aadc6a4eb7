"""Factoring symplectic matrices into circuit-ready elementary pieces.

Every F in Sp(2m, F2) factors as A_Q1 * Omega * T_R1 * G_k * T_R2 * A_Q2 with

    A_Q  = [[Q, 0], [0, Q^-T]]    (CNOTs / relabeling)
    T_R  = [[I, R], [0, I]]       (R symmetric; P and CZ gates)
    G_k  = [[L_mk, U_k], [U_k, L_mk]]  (partial Hadamard; G_m = Omega, G_0 = I)
    Omega = [[0, I], [I, 0]]      (Hadamard on every qubit)

where U_k = diag(I_k, 0) and L_mk = diag(0, I_{m-k}), k = rank of F's upper
left block.  Identity factors are dropped, and an adjacent Omega, G_m pair
(their product is the identity) is dropped too, so e.g. a pure T_R input
factors as just [TR] and the identity factors as [].

An ElementaryFactor holds its matrix as packed rows (one Python int per
row, bit c holding column c, as in gf2core): Q and Q^-T for A_Q, R for T_R,
and k for G_k.  It is checked once, when built, and compares and hashes by
value; f.q and f.r unpack to read-only arrays when read.  Each factor acts
on packed rows in one place, _left, which gives the factor times the rows;
expand and every product of factors are that action on the identity.  With
the rows split into a top half X and a bottom half Z, Omega swaps X and Z,
G_k swaps their first k rows, T_R adds R Z onto X, and A_Q maps (X, Z) to
(Q X, Q^-T Z).  One emitter, _emit, turns factors into Gates.

Each factor is a function of F = [[A, B], [C, D]] alone, read off in closed
form.  One elimination of [A | I] gives A's pivot columns and the row
operations T that reduce A.  Q2^-T lists e_p for each pivot column p, then
the reduced echelon basis of A's nullspace (Q2 = I when k = m).  With S
picking A's pivot columns, then columns k..m-1 of B Q2^T,

    Q1 = [A | B Q2^T] S,   R1 = Q1^T [C | D Q2^T] S,

and R2 is the top-left k x k block of T B Q2^T.  Three self-checks raise
RuntimeError: B Q2^T = Q1 (R2 + diag(0, I)) with R2 symmetric, R1 is
symmetric, and the kept factors multiply back to F.  Every kept factor is
symplectic by construction, so the last check also proves F symplectic;
only when the closed form fails is F's Gram matrix compared with Omega,
to raise ValueError for an input that is not symplectic.  The scalar core,
_factor, runs this on packed rows.

A bit-sliced lane core (_factor_lanes, _emit_lanes; McBits' layout,
Bernstein, Chou & Schwabe, CHES 2013) runs the same closed form and
emission over N matrices at once, one Python int per matrix entry with one
bit per lane, as one fixed template of AND/XOR steps: one-hot lane masks
for pivots, slots and LU permutations, k as m + 1 masks "k >= t", one lane
mask per potential gate, and every self-check raising when any lane fails.
Synthesis ranks solution batches with it; decompose and realize keep the
scalar core, faster for one matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_, getitem, index, or_, xor

import numpy as np

from .circuit import Circuit, Gate, _new, circuit
from .gf2core import (SingularMatrixError, _eliminate, _frozen, _gram_mismatch,
                      _inverse, _lu, _mul_rows, _pack, _transpose, _unpack,
                      asbits)

FACTOR_KINDS = ("OMEGA", "AQ", "TR", "GK")


@dataclass(frozen=True, slots=True)
class ElementaryFactor:
    """One elementary symplectic factor on m qubits, compared by value.

    rows holds Q for AQ and R for TR, packed; inv_t holds Q^-T for AQ; k is
    set for GK only.  The constructor takes Q or R as an m x m array and
    raises unless Q is invertible, R symmetric and 0 <= k <= m.
    """

    kind: str
    m: int
    k: int | None
    rows: tuple[int, ...]
    inv_t: tuple[int, ...]

    def __init__(self, kind: str, m: int, q=None, r=None, k=None):
        if kind not in FACTOR_KINDS:
            raise ValueError("unknown factor kind %r" % (kind,))
        if ([v is not None for v in (q, r, k)]
                != [kind == x for x in ("AQ", "TR", "GK")]):
            raise ValueError("AQ takes q, TR takes r, GK takes k and OMEGA none")
        try:
            m, k = index(m), None if k is None else index(k)
        except TypeError:
            raise ValueError("m and k must be integers, got %r and %r"
                             % (m, k)) from None
        if not 0 <= (k or 0) <= m:
            raise ValueError("k must lie in 0..m" if m >= 0 else
                             "m must not be negative")
        rows = inv_t = ()
        if kind in ("AQ", "TR"):
            a = asbits(q if r is None else r)
            square = a.ndim == 2 and len(a) == a.shape[1]
            if kind == "AQ" and not square:
                raise SingularMatrixError("matrix is not square")
            rows = _pack(a) if square else []
            if kind == "TR" and not (square and _symmetric(rows, len(a))):
                raise ValueError("R must be square and symmetric")
            if len(rows) != m:
                raise ValueError("%s must be %d x %d" % (kind[1], m, m))
            if kind == "AQ":
                inv_t = _transpose(_inverse(rows, m), m)  # raises if singular
        _made(kind, m, rows, inv_t, k, self)

    def __repr__(self):
        extra = "" if self.k is None else ", k=%d" % self.k
        return "ElementaryFactor(%s, m=%d%s)" % (self.kind, self.m, extra)

    @property
    def q(self) -> np.ndarray | None:
        """Q of an AQ factor as a read-only m x m array, else None."""
        return _frozen(self.rows, self.m) if self.kind == "AQ" else None

    @property
    def r(self) -> np.ndarray | None:
        """R of a TR factor as a read-only m x m array, else None."""
        return _frozen(self.rows, self.m) if self.kind == "TR" else None


def _made(kind: str, m: int, rows=(), inv_t=(), k: int | None = None,
          f: ElementaryFactor | None = None) -> ElementaryFactor:
    """A factor of packed rows, unchecked (_closed_form's product check
    covers every factor it returns); fills f when given."""
    f = object.__new__(ElementaryFactor) if f is None else f
    for name, value in zip(f.__slots__, (kind, m, k, tuple(rows), tuple(inv_t))):
        object.__setattr__(f, name, value)
    return f


def f_omega(m: int) -> ElementaryFactor:
    return ElementaryFactor("OMEGA", m)


def f_aq(q) -> ElementaryFactor:
    q = asbits(q)
    return ElementaryFactor("AQ", q.shape[0] if q.ndim else 0, q=q)


def f_tr(r) -> ElementaryFactor:
    r = asbits(r)
    return ElementaryFactor("TR", r.shape[0] if r.ndim else 0, r=r)


def f_gk(m: int, k: int) -> ElementaryFactor:
    return ElementaryFactor("GK", m, k=k)


def expand(f: ElementaryFactor) -> np.ndarray:
    """The 2m x 2m symplectic matrix of one factor."""
    return _unpack(_product([f], f.m), 2 * f.m)


def _bits(x: int):
    """Indices of the set bits of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _symmetric(rows: list[int], n: int) -> bool:
    return rows == _transpose(rows, n)


def _left(f: ElementaryFactor, rows: list[int]) -> list[int]:
    """One factor times 2m packed rows, by its action on their top and
    bottom halves."""
    m = f.m
    top, bottom = rows[:m], rows[m:]
    if f.kind == "OMEGA":
        return bottom + top
    if f.kind == "GK":
        return bottom[:f.k] + top[f.k:] + top[:f.k] + bottom[f.k:]
    if f.kind == "TR":
        return list(map(xor, top, _mul_rows(f.rows, bottom))) + bottom
    return _mul_rows(f.rows, top) + _mul_rows(f.inv_t, bottom)


def _product(factors, m: int) -> list[int]:
    """The product of factors on m qubits, left to right, as 2m packed rows."""
    rows = [1 << i for i in range(2 * m)]
    for f in reversed(factors):
        rows = _left(f, rows)
    return rows


def _factor(rows: list[int], m: int) -> list[ElementaryFactor]:
    """Packed core of decompose: the kept factors of F, given as its 2m
    packed rows (bit c of row i is F[i, c]), by the closed form of the
    module docstring.

    Identity factors are dropped, and so are Omega and G_m when nothing is
    left between them.  Raises ValueError when F is not symplectic, and
    RuntimeError when a self-check fails on a symplectic F.  Only a failed
    closed form compares F's Gram matrix with Omega: the product check of
    a passing one already proves F symplectic.
    """
    try:
        return _closed_form(rows, m)
    except (RuntimeError, SingularMatrixError):
        if _gram_mismatch(rows, [1 << c for c in range(2 * m)], m) is not None:
            raise ValueError("input matrix is not symplectic") from None
        raise


def _closed_form(rows: list[int], m: int) -> list[ElementaryFactor]:
    """_factor without its symplectic check.  Each kept factor is
    symplectic by construction (Q with Q^-T, a checked-symmetric R, G_k,
    Omega), so the factors' product, checked to be F, is too.  On an input
    that is not symplectic some check fails: a RuntimeError, or a
    SingularMatrixError from inverting Q1."""
    # one elimination of [A | I] gives the pivots and the row operations T
    identity = [1 << i for i in range(m)]
    low = (1 << m) - 1
    ta = [r & low | 1 << (m + i) for i, r in enumerate(rows[:m])]
    pivots = _eliminate(ta, m)
    k = len(pivots)
    kmask = (1 << k) - 1
    # free column c gives e_c plus the pivots of the rows with a 1 at c;
    # reducing these gives nullspace()'s unique reduced echelon basis
    null = [1 << c | sum(1 << p for p, r in zip(pivots, ta) if r >> c & 1)
            for c in range(m) if c not in pivots]
    _eliminate(null, m)
    q2inv_t = [1 << p for p in pivots] + null
    q2t = _inverse(q2inv_t, m) if k < m else identity
    bq2t = _mul_rows([r >> m for r in rows[:m]], q2t)
    # Q1 = [A | B Q2^T] S and [C | D Q2^T] S in one product: F times S with
    # Q2^T's columns k..m-1 folded into its B side
    fs = _mul_rows(rows, _transpose(q2inv_t[:k], m) + [r & ~kmask for r in q2t])
    q1 = fs[:m]
    r1 = _mul_rows(_transpose(q1, m), fs[m:])
    r2 = [r & kmask for r in _mul_rows([r >> m for r in ta[:k]], bq2t)]

    if bq2t != _mul_rows(q1, r2 + identity[k:]) or not _symmetric(r2, k):
        raise RuntimeError("B block of a symplectic input lost its normal form")
    if not _symmetric(r1, m):
        raise RuntimeError("reduced input is not a lower T_R factor")

    out = [_made("AQ", m, q1, _transpose(_inverse(q1, m), m))] if q1 != identity else []
    if any(r1) or k < m:
        out.append(_made("OMEGA", m))
        if any(r1):
            out.append(_made("TR", m, r1))
        if k:
            out.append(_made("GK", m, k=k))
    if any(r2):
        out.append(_made("TR", m, r2 + [0] * (m - k)))
    if q2inv_t != identity:
        out.append(_made("AQ", m, _transpose(q2t, m), q2inv_t))

    if _product(out, m) != rows:
        raise RuntimeError("factor product does not reproduce the input")
    return out


def decompose(f_in) -> list[ElementaryFactor]:
    """Elementary factor list whose left-to-right product equals the input.

    Raises ValueError when the input is not symplectic or is empty (m = 0).
    """
    f = asbits(f_in)
    if f.ndim != 2 or f.shape[0] != f.shape[1] or f.shape[0] % 2:
        raise ValueError("input matrix is not symplectic")
    m = f.shape[0] // 2
    if not m:
        raise ValueError("input matrix is empty; decompose needs m >= 1")
    return _factor(_pack(f), m)


def _emit(factors):
    """Gates realizing factors, in circuit order.

    Omega is H on every qubit, G_k H on the first k, T_R P on its diagonal
    then CZ on its upper triangle row by row, and A_Q a PERMUTE for its row
    pivots followed by CNOTs for its LU factors.
    """
    for f in factors:
        m = f.m
        if f.kind == "OMEGA" or f.kind == "GK":
            for q in range(1, (m if f.kind == "OMEGA" else f.k) + 1):
                yield _new(Gate, ("H", (q,)))
        elif f.kind == "TR":
            for i, r in enumerate(f.rows):
                if r >> i & 1:
                    yield _new(Gate, ("P", (i + 1,)))
            for i, r in enumerate(f.rows):
                for j in _bits(r >> (i + 1)):
                    yield _new(Gate, ("CZ", (i + 1, i + j + 2)))
        else:
            perm, low, up = _lu(f.rows, m)
            image = [0] * m
            for i, p in enumerate(perm):
                image[p] = i + 1
            if perm != list(range(m)):
                yield _new(Gate, ("PERMUTE", tuple(image)))
            # CNOT matrix I + E_ct adds the control coordinate onto the
            # target; emitting L's entries with controls ascending multiplies
            # out to L exactly, and U's with controls descending to U
            for c in range(1, m):
                for t in _bits(low[c] & ((1 << c) - 1)):
                    yield _new(Gate, ("CNOT", (c + 1, t + 1)))
            for c in range(m - 2, -1, -1):
                for t in _bits(up[c] >> (c + 1)):
                    yield _new(Gate, ("CNOT", (c + 1, c + t + 2)))


def factor_to_gates(f: ElementaryFactor) -> list[Gate]:
    """Physical gates realizing one factor; circuit order is product order."""
    return list(_emit([f]))


def factors_to_circuit(factors, m: int) -> Circuit:
    """The circuit of factors in product order, on m qubits; raises
    ValueError when a factor acts on another number of qubits."""
    factors = tuple(factors)
    if any(f.m != m for f in factors):
        raise ValueError("every factor must act on the circuit's %d qubits" % m)
    return circuit(m, _emit(factors))


# The lane core (see the module docstring).  A sliced matrix, as
# synth._sliced builds it, is a list of rows of ints, entry (i, j) holding
# lane l's entry in bit l; full masks all lanes.  Where _factor branches, a
# lane carries the identity of the factor's kind instead (Q = I, R = 0,
# Omega and G_k masked off), which emits no gates, so each lane emits
# exactly _emit's gates.

def _dots(x, y) -> list[list[int]]:
    """x times y transposed, lane by lane."""
    return [[reduce(xor, map(and_, r, s), 0) for s in y] for r in x]


def _t(x) -> list[list[int]]:
    return [list(c) for c in zip(*x)]


def _add(x, y) -> list[list[int]]:
    return [[a ^ b for a, b in zip(r, s)] for r, s in zip(x, y)]


def _cat(x, y) -> list[list[int]]:
    return [r + s for r, s in zip(x, y)]


def _diag(d: list[int]) -> list[list[int]]:
    return [[x if i == j else 0 for j in range(len(d))] for i, x in enumerate(d)]


def _differ(x, y) -> int:
    """The lanes where two sliced matrices differ."""
    return reduce(or_, (a ^ b for r, s in zip(x, y) for a, b in zip(r, s)), 0)


def _sliced_rref(a, n: int, count: list[int], full: int):
    """Gauss-Jordan elimination of sliced rows on columns 0..n-1; later
    columns ride along.  Rows never move: a lane's pivot for column c is
    its first row not yet a pivot row with a 1 there.  count[t] holds the
    lanes whose next pivot takes slot t.  Returns (slot, rows, count):
    slot[s][c] the lanes whose pivot in column c takes slot s, rows[c] the
    reduced pivot row of column c (zero in lanes without one), and count
    after the last column."""
    free = [full] * len(a)
    slot = [[0] * n for _ in range(n)]
    sels = []
    for c in range(n):
        seen, sel = 0, []
        for r, row in enumerate(a):
            h = row[c] & free[r] & ~seen
            seen |= h
            free[r] ^= h
            sel.append(h)
        sels.append(sel)
        if seen:
            for s in range(n):
                slot[s][c] = count[s] & seen
            piv = _dots([sel], _t(a))[0]
            a = [[x ^ g & p for x, p in zip(row, piv)] if (g := row[c] & ~h) else row
                 for row, h in zip(a, sel)]
            count = [count[0] & ~seen] + [x & ~seen | y & seen
                                          for x, y in zip(count[1:], count)]
    return slot, _dots(sels, _t(a)), count


def _factor_lanes(f, full: int) -> list[tuple]:
    """_factor for a sliced batch of 2m x 2m matrices, as the fixed
    template AQ (Q1), OMEGA, TR (R1), GK, TR (R2), AQ (Q2) of (kind, data)
    pairs: Q and R sliced, OMEGA's data the lanes that keep it, GK's the
    masks "k >= t", t = 0..m, in those lanes.

    The factors follow the closed form of the module docstring.  Each
    self-check of _factor runs on every lane as an OR over a difference,
    and raises as _factor does when any lane fails: as in _factor, the
    lanes' Gram matrices are compared with Omega only after a failed
    check, and ValueError is raised when any lane is not symplectic.
    """
    try:
        return _closed_form_lanes(f, full)
    except (RuntimeError, SingularMatrixError):
        m = len(f) // 2
        omega = [r[m:] + r[:m] for r in _diag([full] * 2 * m)]
        if _differ(_dots([r[m:] + r[:m] for r in f], f), omega):
            raise ValueError("input matrix is not symplectic") from None
        raise


def _closed_form_lanes(f, full: int) -> list[tuple]:
    """_factor_lanes without its symplectic check.  Q2 is inverted (a
    singular lane raises), R1 and R2 are checked symmetric, and the block
    checks give A = Q1 U Q2, B = Q1 (R2 + L) Q2^-T and

        Q1^T [C | D] = [(R1 U + L) Q2 | (U + R1 (R2 + L)) Q2^-T],

    U = diag(I_k, 0) and L = diag(0, I_{m-k}).  Q1 is never inverted here,
    but a lane that passes has Q1 invertible.  Take v with v (R1 U + L) = 0
    and v (U + R1 (R2 + L)) = 0.  The L block of the first forces v's last
    m - k entries to 0, and the rest of it leaves v R1 zero on the first k
    columns; the first k entries of the second are then v's first k
    entries, so v = 0.  The right side has rank m, so Q1^T does, and F is
    the product of the template's factors, each symplectic by
    construction.  A lane that is not symplectic therefore fails some
    check."""
    m = len(f) // 2
    top, bottom = f[:m], f[m:]

    # A's pivot rows, each with its row operations riding along, take slots
    # 0..k-1; free column c of A gives the nullspace row e_c plus the pivots
    # of the rows with a 1 at c, and reduced, these take slots k..m-1
    ident = _diag([full] * m)
    a, b = [r[:m] for r in top], [r[m:] for r in top]
    slot_a, rows_a, count = _sliced_rref(_cat(a, ident), m, [full] + [0] * m, full)
    kge = [reduce(or_, count[t:]) for t in range(m + 1)]
    slot_n, rows_n, _ = _sliced_rref(_add(ident, _t(rows_a)[:m]), m, count, full)
    _, inv, count = _sliced_rref(_cat(_add(slot_a, _dots(slot_n, _t(rows_n))), ident),
                                 m, [full] + [0] * m, full)
    if count[m] != full:
        raise SingularMatrixError("matrix is singular over GF(2)")
    q2 = _t([r[m:] for r in inv])
    pick = [p + [x & ~kge[s + 1] for x in q] for s, (p, q) in enumerate(zip(slot_a, q2))]
    q1t = _dots(pick, top)
    q1 = _t(q1t)
    r1 = _dots(q1t, _dots(pick, bottom))

    # R2 = T B Q2^T on the first k rows and columns, T the row operations
    # that reduce A
    u, lo = _diag(kge[1:]), _diag([full ^ x for x in kge[1:]])  # U, diag(0, I)
    bq2 = _dots(b, q2)
    tbq2 = _dots([r[m:] for r in _dots(slot_a, _t(rows_a))], _t(bq2))
    r2 = [[x & kge[i + 1] & y for x, y in zip(row, kge[1:])] for i, row in enumerate(tbq2)]
    r2l = _add(r2, lo)
    if _differ(bq2, _dots(q1, _t(r2l))) | _differ(r2, _t(r2)):
        raise RuntimeError("B block of a symplectic input lost its normal form")
    if _differ(r1, _t(r1)):
        raise RuntimeError("reduced input is not a lower T_R factor")
    # F = A_Q1 Omega T_R1 G_k T_R2 A_Q2 block by block, the right blocks
    # times Q2^T and the lower ones Q1^T times; B is checked above
    ft, q2t = _t(f), _t(q2)
    r1u = _add([[x & y for x, y in zip(row, kge[1:])] for row in r1], lo)
    if (_differ(a, _dots(q1, _t(_dots(u, q2t))))
            | _differ(_dots(q1t, [r[m:] for r in ft[:m]]), _dots(r1u, q2t))
            | _differ(_dots(_dots(q1t, [r[m:] for r in ft[m:]]), q2),
                      _add(u, _dots(r1, _t(r2l))))):
        raise RuntimeError("factor product does not reproduce the input")
    keep = reduce(or_, (x for row in r1 for x in row)) | full ^ kge[m]
    return [("AQ", q1), ("OMEGA", keep), ("TR", r1),
            ("GK", [keep & x for x in kge]), ("TR", r2), ("AQ", q2)]


def _sliced_lu(q, full: int) -> tuple[list, list]:
    """_lu for a sliced batch of m x m matrices: (perm, lu), perm[c][r] the
    lanes whose row c after pivoting is row r of Q, lu holding L below the
    diagonal and U on and above it.  Raises SingularMatrixError when any
    lane is singular."""
    m = len(q)
    a = _cat(q, _diag([full] * m))
    for c in range(m):
        seen, sel = 0, []
        for row in a[c:]:
            sel.append(row[c] & ~seen)
            seen |= row[c]
        if seen != full:
            raise SingularMatrixError("matrix is singular over GF(2)")
        if sel[0] != full:
            a[c:] = _dots([sel], _t(a[c:])) + [
                [x ^ (x ^ y) & s for x, y in zip(row, a[c])] if s else row
                for row, s in zip(a[c + 1:], sel[1:])]
        # rows below keep their bit c: the multiplier L[r, c]
        a[c + 1:] = [row[:c + 1] + [x ^ h & p for x, p in zip(row[c + 1:m], a[c][c + 1:])]
                     + row[m:] if (h := row[c]) else row for row in a[c + 1:]]
    return [r[m:] for r in a], [r[:m] for r in a]


def _emit_lanes(factors, full: int) -> list[tuple]:
    """_emit over lanes: every gate the template can emit, in circuit order,
    as (kind, qubits, mask) triples, mask the lanes that carry the gate.  A
    PERMUTE's qubits are the perm masks of _sliced_lu."""
    m = len(factors[0][1])
    out = []
    for kind, data in factors:
        if kind == "OMEGA" or kind == "GK":
            out += [("H", (q,), data if kind == "OMEGA" else data[q])
                    for q in range(1, m + 1)]
        elif kind == "TR":
            out += [("P", (i + 1,), data[i][i]) for i in range(m)]
            out += [("CZ", (i + 1, j + 1), data[i][j])
                    for i in range(m) for j in range(i + 1, m)]
        else:
            perm, lu = _sliced_lu(data, full)
            out.append(("PERMUTE", perm, full ^ reduce(and_, map(getitem, perm, range(m)))))
            out += [("CNOT", (c + 1, t + 1), lu[c][t])
                    for c in range(1, m) for t in range(c)]
            out += [("CNOT", (c + 1, t + 1), lu[c][t])
                    for c in range(m - 2, -1, -1) for t in range(c + 1, m)]
    return out


def _lane_gates(gates, lane: int) -> list[Gate]:
    """One lane's gates out of an _emit_lanes template."""
    out = []
    for kind, qs, mask in gates:
        if mask >> lane & 1:
            if kind == "PERMUTE":  # row i holds qubit p's image i + 1
                qs = tuple(i + 1 for col in zip(*qs) for i, x in enumerate(col)
                           if x >> lane & 1)
            out.append(_new(Gate, (kind, qs)))
    return out
