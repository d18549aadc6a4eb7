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
(Q X, Q^-T Z).  One private core, _factor, factors a matrix of packed rows
into such factors.  It checks that the input is symplectic, that the B
block keeps its normal form, that the reduced matrix is a lower T_R, and
that the kept factors multiply back to the input; each check raises.  One
emitter, _emit, turns factors into Gates.

Beside this scalar core, a lane core (_factor_lanes, _emit_lanes) runs the
same factoring and emission over a stack of N matrices at once, as one
fixed template of steps on numpy arrays with one lane per matrix: per-lane
pivots, rank and LU permutation, one lane mask per potential gate, and
every self-check raising when any lane fails.  Synthesis ranks solution
batches with it; decompose and realize keep the scalar core.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index, xor

import numpy as np

from .circuit import Circuit, Gate, circuit
from .gf2core import (SingularMatrixError, _eliminate, _inverse, _lu, _mul_rows,
                      _frozen, _pack, _transpose, _unpack, asbits, eye, omega,
                      zeros)

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
    """A factor of packed rows, unchecked (_factor's product check covers
    every factor it returns); fills f when given."""
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
    packed rows (bit c of row i is F[i, c]).

    Identity factors are dropped, and so are Omega and G_m when nothing is
    left between them.  Raises ValueError when F is not symplectic, and
    RuntimeError when a self-check fails.
    """
    n = 2 * m
    low = (1 << m) - 1
    swapped = [(r >> m) | (r & low) << m for r in rows]
    for i, r in enumerate(rows):
        for j in range(i + 1, n):
            if (r & swapped[j]).bit_count() & 1 != (j == i + m):
                raise ValueError("input matrix is not symplectic")

    # row operations (q11inv) and columns (q2) putting A into rank normal
    # form: pivot columns first, then the reduced nullspace basis of A; an
    # invertible A (k = m) needs no column operations, so Q2 = I and the
    # products with it are skipped
    identity = [1 << i for i in range(m)]
    ta = [r & low | 1 << (m + i) for i, r in enumerate(rows[:m])]
    pivots = _eliminate(ta, m)
    k = len(pivots)
    q11inv = [r >> m for r in ta]
    b_prime = _mul_rows(q11inv, [r >> m for r in rows[:m]])
    q2 = q2t = q2inv_t = identity
    if k < m:
        # free column c gives e_c plus the pivots of the rows with a 1 at c;
        # reducing these gives nullspace()'s unique reduced echelon basis
        null = [1 << c | sum(1 << p for p, r in zip(pivots, ta) if r >> c & 1)
                for c in range(m) if c not in pivots]
        _eliminate(null, m)
        q2inv_t = [1 << p for p in pivots] + null
        q2t = _inverse(q2inv_t, m)
        q2 = _transpose(q2t, m)
        b_prime = _mul_rows(b_prime, q2t)

    kmask = (1 << k) - 1
    r2 = [r & kmask for r in b_prime[:k]] + [0] * (m - k)
    if any(r & kmask for r in b_prime[k:]) or not _symmetric(r2[:k], k):
        raise RuntimeError("B block of a symplectic input lost its normal form")
    # q1inv = [[I, E], [0, I]] diag(I, B_mk^-1) q11inv
    q12 = q11inv[:k] + _mul_rows(_inverse([r >> k for r in b_prime[k:]], m - k),
                                 q11inv[k:])
    q1inv = [r ^ x for r, x in zip(q12, _mul_rows([r >> k for r in b_prime[:k]],
                                                  q12[k:]))] + q12[k:]
    q1 = _inverse(q1inv, m)

    # A_Q^-1 = A_{Q^-1}, and T_R, G_k and Omega are involutions, so this is
    # A_{Q1^-1} F A_{Q2^-1} T_R2 G_k Omega (Q2 = I skipped)
    inv_q2 = [_made("AQ", m, _transpose(q2inv_t, m), q2t)] if k < m else []
    right = _product(inv_q2 + [_made("TR", m, r2), _made("GK", m, k=k),
                               _made("OMEGA", m)], m)
    mid = _left(_made("AQ", m, q1inv, _transpose(q1, m)), _mul_rows(rows, right))
    r1 = [r & low for r in mid[m:]]
    if (mid[:m] != identity or [r >> m for r in mid[m:]] != identity
            or not _symmetric(r1, m)):
        raise RuntimeError("reduced input is not a lower T_R factor")

    out = [_made("AQ", m, q1, _transpose(q1inv, m))] if q1 != identity else []
    if any(r1) or k < m:
        out.append(_made("OMEGA", m))
        if any(r1):
            out.append(_made("TR", m, r1))
        if k:
            out.append(_made("GK", m, k=k))
    if any(r2):
        out.append(_made("TR", m, r2))
    if q2 != identity:
        out.append(_made("AQ", m, q2, q2inv_t))

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
                yield Gate("H", (q,))
        elif f.kind == "TR":
            for i, r in enumerate(f.rows):
                if r >> i & 1:
                    yield Gate("P", (i + 1,))
            for i, r in enumerate(f.rows):
                for j in _bits(r >> (i + 1)):
                    yield Gate("CZ", (i + 1, i + j + 2))
        else:
            perm, low, up = _lu(list(f.rows), m)
            image = [0] * m
            for i, p in enumerate(perm):
                image[p] = i + 1
            if perm != list(range(m)):
                yield Gate("PERMUTE", tuple(image))
            # CNOT matrix I + E_ct adds the control coordinate onto the
            # target; emitting L's entries with controls ascending multiplies
            # out to L exactly, and U's with controls descending to U
            for c in range(1, m):
                for t in _bits(low[c] & ((1 << c) - 1)):
                    yield Gate("CNOT", (c + 1, t + 1))
            for c in range(m - 2, -1, -1):
                for t in _bits(up[c] >> (c + 1)):
                    yield Gate("CNOT", (c + 1, c + t + 2))


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


# The lane core: _factor and _emit over a stack of N matrices at once, one
# lane per matrix, as a fixed template of steps on (N, rows, cols) uint8
# arrays.  Where _factor branches, a lane carries the identity of the
# factor's kind instead (Q = I, R = 0, k = 0, or Omega masked off), which
# emits no gates, so each lane emits exactly _emit's gates.

def _lane_mul(*mats) -> np.ndarray:
    """Product of stacks of 0/1 matrices, left to right, lane by lane: in
    float32 through BLAS, exact while the inner dimension stays below 2^24."""
    out = mats[0]
    for m in mats[1:]:
        prod = out.astype(np.float32) @ m.astype(np.float32)
        out = (prod.astype(np.int32) & 1).astype(np.uint8)
    return out


def _lane_right(f: np.ndarray, factors) -> np.ndarray:
    """A stack of 2m-column matrices times lane factors, in order, by each
    factor's action on a row (x, z): A_Q maps it to (x Q, z Q^-T), T_R adds
    x R onto z, G_k swaps the first k coordinates of x and z, Omega swaps
    x and z.  An AQ factor's data is (Q, Q^-T), a TR factor's R, and a GK
    factor's the (N, 1, m) mask of the swapped columns, each holding every
    lane."""
    m = f.shape[2] // 2
    x, z = f[:, :, :m], f[:, :, m:]
    for kind, data in factors:
        if kind == "OMEGA":
            x, z = z, x
        elif kind == "GK":
            x, z = np.where(data, z, x), np.where(data, x, z)
        elif kind == "TR":
            z = z ^ _lane_mul(x, data)
        else:
            x, z = _lane_mul(x, data[0]), _lane_mul(z, data[1])
    return np.concatenate([x, z], 2)


def _lane_eliminate(a: np.ndarray, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jordan elimination of a stack (N, r, w) on columns 0..cols-1,
    each lane with its own pivots.

    Column c's pivot in a lane is its first row not yet a pivot row with a 1
    there, and it clears column c from every other row; no row moves until
    the end, when each lane lists its pivot rows by pivot column and then
    its other rows in order.  So the top rows are the reduced row echelon
    form, and columns from cols up carry the row operations.  Returns that
    stack and the (N, cols) mask of pivot columns.
    """
    n, r, _ = a.shape
    a = a.copy()
    lanes = np.arange(n)
    taken = np.zeros((n, r), bool)
    place = np.tile(np.arange(cols, cols + r), (n, 1))
    pivots = np.zeros((n, cols), bool)
    for c in range(cols):
        hit = a[:, :, c] == 1
        free = hit & ~taken
        has, row = free.any(1), free.argmax(1)
        hit[lanes, row] = False
        a ^= hit[:, :, None] & (a[lanes, row] * has[:, None])[:, None, :]
        taken[lanes, row] |= has
        place[lanes, row] = np.where(has, c, place[lanes, row])
        pivots[:, c] = has
    return a[lanes[:, None], place.argsort(1)], pivots


def _lane_inverse(a: np.ndarray) -> np.ndarray:
    """Inverses of a stack of n x n matrices; raises SingularMatrixError when
    any lane is singular."""
    n = a.shape[1]
    red, pivots = _lane_eliminate(
        np.concatenate([a, np.broadcast_to(eye(n), a.shape)], 2), n)
    if not pivots.all():
        raise SingularMatrixError("matrix is singular over GF(2)")
    return red[:, :, n:]


def _lane_lu(q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_lu for a stack of invertible m x m matrices: (perm, L, U) per lane,
    perm as an (N, m) array; each lane's pivot for column c is its first
    row at or below row c with a 1 there."""
    n, m, _ = q.shape
    a = q.copy()
    lanes = np.arange(n)
    perm = np.tile(np.arange(m), (n, 1))
    for c in range(m):
        piv = c + a[:, c:, c].argmax(1)
        for x in (a, perm):
            top = x[:, c].copy()
            x[:, c] = x[lanes, piv]
            x[lanes, piv] = top
        right = a[:, c].copy()
        right[:, :c + 1] = 0
        a[:, c + 1:] ^= a[:, c + 1:, c, None] * right[:, None, :]
    return perm, np.tril(a, -1) | eye(m), np.triu(a)


def _factor_lanes(f: np.ndarray) -> list[tuple]:
    """_factor for a stack of N symplectic matrices (N, 2m, 2m), as the
    fixed template AQ (Q1), OMEGA, TR (R1), GK, TR (R2), AQ (Q2) of
    (kind, data) pairs whose data hold every lane: Q and R as (N, m, m)
    stacks, OMEGA as the mask of the lanes that keep it, GK as k per lane
    (0 where Omega is dropped).

    The row operations that put A in normal form differ from _factor's (no
    row moves during elimination), but every factor is a function of F
    alone: a different transform for A changes Q11^-1 and B' only in ways
    that cancel in Q1^-1 = [[I, E], [0, I]] diag(I, B_mk^-1) Q11^-1.  Each
    self-check of _factor runs on every lane, and raises as _factor does
    when any lane fails.
    """
    n, two_m, _ = f.shape
    m = two_m // 2
    one, om = eye(m), omega(m)
    if (_lane_mul(_lane_right(f, [("OMEGA", None)]), f.mT) != om).any():
        raise ValueError("input matrix is not symplectic")

    red, pivots = _lane_eliminate(
        np.concatenate([f[:, :m, :m], np.broadcast_to(one, (n, m, m))], 2), m)
    k = pivots.sum(1)
    q11inv = red[:, :, m:]
    # row i < k of units is e_p for the lane's i-th pivot column p
    units = zeros((n, m, m))
    lane, col = np.nonzero(pivots)
    units[lane, pivots.cumsum(1)[lane, col] - 1, col] = 1
    # free column c gives e_c plus the pivots of the rows with a 1 at c;
    # reduced, these are nullspace()'s basis, and Q2^-T lists them after
    # the pivot rows
    null = (_lane_mul(red[:, :, :m].mT, units) | one) * ~pivots[:, :, None]
    null = _lane_eliminate(null, m)[0]
    shift = (np.arange(m) - k[:, None]) % m
    q2inv_t = units | null[np.arange(n)[:, None], shift]
    q2t = _lane_inverse(q2inv_t)
    b_prime = _lane_mul(q11inv, f[:, :m, m:], q2t)

    rows_k = (np.arange(m) < k[:, None])[:, :, None]
    cols_k = rows_k.mT
    r2 = b_prime * (rows_k & cols_k)
    if (b_prime * (~rows_k & cols_k)).any() or (r2 != r2.mT).any():
        raise RuntimeError("B block of a symplectic input lost its normal form")
    # q1inv = [[I, E], [0, I]] diag(I, B_mk^-1) q11inv
    q12 = _lane_mul(_lane_inverse(np.where(rows_k, one, b_prime)), q11inv)
    q1inv = q12 ^ _lane_mul(b_prime * (rows_k & ~cols_k), q12)
    q1 = _lane_inverse(q1inv)
    q2 = q2t.mT

    # A_Q^-1 = A_{Q^-1}, and T_R, G_k and Omega are involutions
    mid = _lane_right(f, [("AQ", (q2inv_t.mT, q2t)), ("TR", r2), ("GK", cols_k),
                          ("OMEGA", None)])
    mid = np.concatenate([_lane_mul(q1inv, mid[:, :m]), _lane_mul(q1.mT, mid[:, m:])], 1)
    r1 = mid[:, m:, :m]
    if ((mid[:, :m] != np.eye(m, two_m, dtype=np.uint8)).any()
            or (mid[:, m:, m:] != one).any() or (r1 != r1.mT).any()):
        raise RuntimeError("reduced input is not a lower T_R factor")

    total = _lane_right(np.broadcast_to(eye(two_m), f.shape),
                        [("AQ", (q1, q1inv.mT)), ("OMEGA", None), ("TR", r1),
                         ("GK", cols_k), ("TR", r2), ("AQ", (q2, q2inv_t))])
    if (total != f).any():
        raise RuntimeError("factor product does not reproduce the input")
    keep = r1.any((1, 2)) | (k < m)
    return [("AQ", q1), ("OMEGA", keep), ("TR", r1), ("GK", np.where(keep, k, 0)),
            ("TR", r2), ("AQ", q2)]


def _emit_lanes(factors, m: int) -> list[tuple]:
    """_emit over lanes: every gate the template can emit, in circuit order,
    as (kind, qubits, mask) triples, mask the lanes that carry the gate.
    A PERMUTE's qubits are one image per lane, an (N, m) array."""
    out = []
    for kind, data in factors:
        if kind == "OMEGA":
            out += [("H", (q,), data) for q in range(1, m + 1)]
        elif kind == "GK":
            out += [("H", (q,), data >= q) for q in range(1, m + 1)]
        elif kind == "TR":
            out += [("P", (i + 1,), data[:, i, i] == 1) for i in range(m)]
            out += [("CZ", (i + 1, j + 1), data[:, i, j] == 1)
                    for i in range(m) for j in range(i + 1, m)]
        else:
            perm, low, up = _lane_lu(data)
            out.append(("PERMUTE", perm.argsort(1) + 1,
                        (perm != np.arange(m)).any(1)))
            out += [("CNOT", (c + 1, t + 1), low[:, c, t] == 1)
                    for c in range(1, m) for t in range(c)]
            out += [("CNOT", (c + 1, t + 1), up[:, c, t] == 1)
                    for c in range(m - 2, -1, -1) for t in range(c + 1, m)]
    return out


def _lane_pairs(gates, lane: int) -> list[Gate]:
    """One lane's gates out of an _emit_lanes template."""
    return [Gate(kind, tuple(qs[lane].tolist()) if kind == "PERMUTE" else qs)
            for kind, qs, mask in gates if mask[lane]]
