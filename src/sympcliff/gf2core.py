"""Dense linear algebra over GF(2) and the binary symplectic group Sp(2m, F2).

Vectors are rows and matrices act on the right (x -> x @ F), so row i of a
matrix is the image of basis vector e_i.  The public functions take and
return numpy uint8 arrays holding 0/1; phase bookkeeping never touches this
module.  Underneath, each row is one Python int, bit c holding column c, so
a row operation is one integer XOR, as in the packed tableau rows of CHP
and Stim; products (mul) run in float64 through BLAS.  The private kernels
take and return such ints: _eliminate, _inverse, _lu, _mul_rows and
_transpose serve decompose's factoring core, _rank serves every rank-only
check, and the growing echelon form (_echelon_insert, _echelon_solve), the
affine solve (_solve), the basis completion (_hyperbolic) and the Gram
comparison (_gram_mismatch) serve sympsolve and synth.
"""

from __future__ import annotations

from functools import reduce
from operator import or_, xor

import numpy as np


class SingularMatrixError(ValueError):
    """A matrix that must be invertible over GF(2) is not."""


class InfeasibleError(ValueError):
    """A constraint system admits no solution."""


class ParseError(ValueError):
    """A text input does not match its expected format."""


def _tokens(text: str):
    """(line number, tokens) for each line of a text format that has tokens
    left once its # comment is cut."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split("#", 1)[0].split()
        if toks:
            yield ln, toks


def asbits(data) -> np.ndarray:
    """Coerce to a uint8 array of 0/1, reducing mod 2.

    A uint8 array that already holds only 0/1 comes back as the same object,
    uncopied.  That test is one bytes pass (deleting the bytes 0 and 1 leaves
    nothing), not a numpy reduction, so arrays the package has just built
    cost almost nothing to pass through again.
    """
    arr = np.asarray(data)
    if arr.dtype != np.uint8 or arr.tobytes().translate(None, b"\x00\x01"):
        arr = np.mod(arr, 2).astype(np.uint8)
    return arr


def zeros(shape) -> np.ndarray:
    return np.zeros(shape, dtype=np.uint8)


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.uint8)


def mul(*mats) -> np.ndarray:
    """Product of GF(2) matrices, left to right.

    Each operand is reduced mod 2 and multiplied in float64 through BLAS.
    That is exact: every entry of a product of 0/1 matrices is an integer
    no larger than the inner dimension, far below 2^53.  The parity is then
    taken on int64, where it is cheaper than a float remainder.
    """
    out = asbits(mats[0])
    for m in mats[1:]:
        prod = out.astype(np.float64) @ asbits(m).astype(np.float64)
        out = prod.astype(np.int64) & 1
    return out.astype(np.uint8)


def omega(m: int) -> np.ndarray:
    """The symplectic form matrix [[0, I], [I, 0]] on 2m coordinates."""
    w = zeros((2 * m, 2 * m))
    w[:m, m:] = eye(m)
    w[m:, :m] = eye(m)
    return w


def gram(a, b=None) -> np.ndarray:
    """Symplectic Gram matrix: entry (i, j) is <a_i, b_j>; b defaults to a.

    Rows have even length 2m.  F is symplectic iff gram(F) = Omega, and
    x_i F = y_i can hold only if gram(X) = gram(Y), which _gram_mismatch
    checks on packed rows.
    """
    a = asbits(a)
    b = a if b is None else asbits(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1] or a.shape[1] % 2:
        raise ValueError("gram takes 2-D arrays of rows of one even length 2m, "
                         "got shapes %s and %s" % (a.shape, b.shape))
    m = a.shape[1] // 2
    return mul(a[:, :m], b[:, m:].T) ^ mul(a[:, m:], b[:, :m].T)


def _swap(v: int, m: int) -> int:
    """v Omega for a packed row of 2m bits: its halves exchanged, so that
    parity(_swap(x, m) & y) is the symplectic product <x, y>."""
    return v >> m | (v & ((1 << m) - 1)) << m


def _gram_mismatch(xs: list[int], ys: list[int], m: int) -> tuple[int, int] | None:
    """First pair i < j, row-major, with <x_i, x_j> != <y_i, y_j>, or None.

    One popcount per pair: x_i Omega next to y_i Omega, ANDed with x_j next
    to y_j, has the parity of the two products' sum.
    """
    two = 2 * m
    ws = [x << two | y for x, y in zip(xs, ys)]
    for i, (x, y) in enumerate(zip(xs, ys)):
        z = _swap(x, m) << two | _swap(y, m)
        for j, w in enumerate(ws[i + 1:], i + 1):
            if (z & w).bit_count() & 1:
                return i, j
    return None


def symplectic_inner(x, y) -> int:
    """Symplectic inner product of two rows of even length 2m."""
    return int(gram(asbits(x).reshape(1, -1), asbits(y).reshape(1, -1))[0, 0])


def is_symplectic(f) -> bool:
    f = asbits(f)
    if f.ndim != 2 or f.shape[0] != f.shape[1] or f.shape[0] % 2:
        return False
    return bool(np.array_equal(gram(f), omega(f.shape[0] // 2)))


def _pack(m: np.ndarray) -> list[int]:
    """Rows of a 2-D 0/1 uint8 array as ints, bit c holding column c."""
    rows, cols = m.shape
    nb = (cols + 7) // 8
    if not nb:
        return [0] * rows
    buf = np.packbits(m, axis=1, bitorder="little").tobytes()
    return [int.from_bytes(buf[i:i + nb], "little") for i in range(0, rows * nb, nb)]


def _unpack(rows: list[int], cols: int) -> np.ndarray:
    """Inverse of _pack: a (len(rows), cols) uint8 array of bits 0..cols-1."""
    nb = (cols + 7) // 8
    buf = b"".join(r.to_bytes(nb, "little") for r in rows)
    packed = np.frombuffer(buf, dtype=np.uint8).reshape(len(rows), nb)
    return np.unpackbits(packed, axis=1, count=cols, bitorder="little")


def _frozen(rows: list[int], cols: int) -> np.ndarray:
    """_unpack as a read-only array."""
    out = _unpack(rows, cols)
    out.flags.writeable = False
    return out


def _eliminate(rows: list[int], cols: int) -> list[int]:
    """Gauss-Jordan elimination of packed rows, in place, on bits 0..cols-1.

    The pivot for each column is the first row at or below the current one
    with a 1 there.  Bits from cols up ride along with every row operation,
    so a caller that puts the identity there reads the transform T back.
    Returns the pivot columns in ascending order.
    """
    mask = (1 << cols) - 1
    pivots: list[int] = []
    for pr in range(len(rows)):
        # rows from pr on are zero left of the next pivot column, so the
        # lowest bit of their union is that column
        below = reduce(or_, rows[pr:]) & mask
        if not below:
            break
        bit = below & -below
        piv = pr
        while not rows[piv] & bit:
            piv += 1
        p = rows[piv]
        rows[piv] = rows[pr]
        rows[:] = [r ^ p if r & bit else r for r in rows]
        rows[pr] = p
        pivots.append(bit.bit_length() - 1)
    return pivots


def _rank(rows: list[int]) -> int:
    """Rank of packed rows, without Gauss-Jordan: each row is reduced only
    against the rows kept so far whose highest bit it has, highest first,
    and is kept under its own highest bit when something is left."""
    kept: dict[int, int] = {}
    for r in rows:
        while r:
            top = r.bit_length()
            if top not in kept:
                kept[top] = r
                break
            r ^= kept[top]
    return len(kept)


def _echelon_insert(ech: list[tuple[int, int]], row: int) -> None:
    """Add a packed row to a reduced echelon form, in place.

    ech holds (pivot bit, row) pairs: each pivot is its row's highest set
    bit, and no other row has a 1 there.  A row already in the span is
    dropped.
    """
    for bit, e in ech:
        if row & bit:
            row ^= e
    if row:
        bit = 1 << (row.bit_length() - 1)
        ech[:] = [(p, e ^ row) if e & bit else (p, e) for p, e in ech]
        ech.append((bit, row))


def _reduce(ech: list[tuple[int, int]], y: int,
            extra: list[tuple[int, int]]) -> list[tuple[int, int, int]] | None:
    """The (row, rhs) pairs of extra, each reduced against ech (whose rows e
    have the right-hand sides parity(e & y)) and the rows before it, as
    (pivot bit, row, rhs) triples in reduced echelon form, each pivot its
    row's highest set bit; None when they are inconsistent."""
    new: list[tuple[int, int, int]] = []
    for row, rhs in extra:
        start = row
        for bit, e in ech:
            if row & bit:
                row ^= e
        rhs ^= ((row ^ start) & y).bit_count() & 1
        for bit, u, s in new:
            if row & bit:
                row ^= u
                rhs ^= s
        if not row:
            if rhs:
                return None
            continue
        bit = 1 << (row.bit_length() - 1)
        new = [(p, u ^ row, s ^ rhs) if u & bit else (p, u, s) for p, u, s in new]
        new.append((bit, row, rhs))
    return new


def _echelon_solve(ech: list[tuple[int, int]], y: int,
                   extra: list[tuple[int, int]]) -> int | None:
    """Lexicographically smallest packed w (column 0 most significant) with
    parity(e & w) = parity(e & y) for every stored row e of ech and
    parity(row & w) = rhs for every extra (row, rhs) pair; None when the
    system is inconsistent.

    With the extras reduced (_reduce), every free column at 0 is the lex-min
    choice, as in _solve, and the new pivots take their right-hand sides z;
    each stored row e, which has a 1 at no other stored pivot, then takes
    parity(e & (y ^ z)) without being back-reduced or carrying a transform.
    """
    new = _reduce(ech, y, extra)
    if new is None:
        return None
    w = sum(bit for bit, _, s in new if s)  # distinct pivot bits: sum is OR
    yz = y ^ w
    for bit, e in ech:
        if (e & yz).bit_count() & 1:
            w |= bit
    return w


def _solve(rows: list[tuple[int, int]], cols: int) -> tuple[int, list[int]] | None:
    """(x, null) for parity(row & x) = rhs over the (row, rhs) pairs of
    cols bits, or None when inconsistent: x is the lexicographically
    smallest solution (column 0 most significant) and null the reduced
    echelon basis of the nullspace.  Each reduced row's pivot is its highest
    bit and its other 1s are at free columns below, so the free columns at
    0 give x, and free column f gives e_f plus the pivots of its rows.
    """
    new = _reduce([], 0, rows)
    if new is None:
        return None
    pivots = sum(bit for bit, _, _ in new)
    return (sum(bit for bit, _, s in new if s),
            [1 << f | sum(bit for bit, u, _ in new if u >> f & 1)
             for f in range(cols) if not pivots >> f & 1])


def rref(m_in) -> tuple[np.ndarray, list[int], np.ndarray]:
    """Reduced row echelon form.

    Returns (R, pivots, T) with T @ m_in = R, T invertible, and pivots the
    pivot column indices in ascending order.
    """
    m = asbits(m_in)
    rows, cols = m.shape
    packed = [r | 1 << (cols + i) for i, r in enumerate(_pack(m))]
    pivots = _eliminate(packed, cols)
    mask = (1 << cols) - 1
    return (_unpack([r & mask for r in packed], cols), pivots,
            _unpack([r >> cols for r in packed], rows))


def rank(m_in) -> int:
    return _rank(_pack(asbits(m_in)))


def _inverse(rows: list[int], n: int) -> list[int]:
    """Inverse of an n x n matrix of packed rows; raises SingularMatrixError."""
    packed = [r | 1 << (n + i) for i, r in enumerate(rows)]
    if len(_eliminate(packed, n)) != n:
        raise SingularMatrixError("matrix is singular over GF(2)")
    return [r >> n for r in packed]


def _transpose(rows: list[int], cols: int) -> list[int]:
    """Packed columns of packed rows: bit i of column c is bit c of row i."""
    if not rows:
        return [0] * cols
    # the rows' binary strings (row last to first, bit cols - 1 first)
    # joined: column c is character cols - 1 - c of every row, the strided
    # slice buf[cols - 1 - c::cols]
    fmt = "0%db" % cols
    buf = "".join([format(r, fmt) for r in reversed(rows)])
    return [int(buf[j::cols], 2) for j in range(cols - 1, -1, -1)]


def _mul_rows(xs: list[int], rows: list[int]) -> list[int]:
    """Packed product X M: row i is the XOR of the rows of M at the set bits
    of xs[i], which must lie below len(rows).

    Each group of five rows of M gets a table of its 32 XOR combinations
    (an all-zero group is skipped), so a product row costs one lookup per
    five columns of X.  Five keeps a matrix of up to five rows to a single
    table and, at 31 rows, balances building the tables against the
    lookups.
    """
    out = None
    for g in range(0, len(rows), 5):
        group = rows[g:g + 5]
        if not any(group):
            continue
        tab = [0]
        for r in group:
            tab += [v ^ r for v in tab]
        part = [tab[x >> g & 31] for x in xs]
        out = part if out is None else list(map(xor, out, part))
    return [0] * len(xs) if out is None else out


def invert(m_in) -> np.ndarray:
    """Inverse of a square GF(2) matrix; raises SingularMatrixError if singular."""
    m = asbits(m_in)
    n = m.shape[0]
    if m.ndim != 2 or m.shape[1] != n:
        raise SingularMatrixError("matrix is not square")
    return _unpack(_inverse(_pack(m), n), n)


def nullspace(m_in) -> np.ndarray:
    """Right nullspace basis {x : M x^T = 0}, rows in reduced echelon form.

    Shape is (d, cols); d may be zero.
    """
    m = asbits(m_in)
    return solve_linear(m, zeros(m.shape[0]))[1]


def solve_linear(m_in, rhs) -> tuple[np.ndarray, np.ndarray] | None:
    """Solve M x = rhs over GF(2) for the column vector x (given as a row).

    Returns (x, nullspace(M)), x the lexicographically smallest solution
    (column 0 most significant), or None when the system is inconsistent.
    """
    m = asbits(m_in)
    b = asbits(rhs).ravel()
    rows, cols = m.shape
    if b.shape[0] != rows:
        raise ValueError("rhs length does not match row count")
    sol = _solve(list(zip(_pack(m), b.tolist())), cols)
    if sol is None:
        return None
    return _unpack([sol[0]], cols)[0], _unpack(sol[1], cols)


def _lu(a: list[int], n: int) -> tuple[list[int], list[int], list[int]]:
    """Row-pivoted LU of an n x n matrix of packed rows, consumed in place.

    Returns (perm, L, U) with L and U as packed rows; the pivot for column c
    is the first row at or below row c with a 1 there.
    """
    perm = list(range(n))
    for c in range(n):
        bit = 1 << c
        piv = next((r for r in range(c, n) if a[r] & bit), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular over GF(2)")
        a[c], a[piv] = a[piv], a[c]
        perm[c], perm[piv] = perm[piv], perm[c]
        right = a[c] >> (c + 1) << (c + 1)
        for r in range(c + 1, n):
            if a[r] & bit:
                a[r] ^= right  # a[r] keeps bit c: the multiplier L[r, c]
    low = [(a[r] & ((1 << r) - 1)) | 1 << r for r in range(n)]
    up = [a[r] >> r << r for r in range(n)]
    return perm, low, up


def lu_decompose(q_in) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-pivoted LU factorization of an invertible GF(2) matrix.

    Returns (perm, L, U) with Q[perm, :] = L @ U, L unit lower triangular and
    U unit upper triangular (over GF(2) the pivots are all 1).
    """
    q = asbits(q_in)
    n = q.shape[0]
    if q.ndim != 2 or q.shape[1] != n:
        raise SingularMatrixError("matrix is not square")
    perm, low, up = _lu(_pack(q), n)
    return np.array(perm, dtype=np.intp), _unpack(low, n), _unpack(up, n)


def _hyperbolic(seeds: list[int], m: int) -> list[int]:
    """symplectic_gram_schmidt on packed rows of 2m bits: the basis rows
    u_1..u_m, v_1..v_m as ints."""
    n = len(seeds)
    if n > 2 * m:
        raise InfeasibleError("more seed vectors than basis slots")
    if _rank(seeds) != n:
        raise InfeasibleError("seed vectors are linearly dependent")

    slots: list[list[int]] = []
    for i, x in enumerate(seeds):
        xw = _swap(x, m)
        mates = [j for j, y in enumerate(seeds) if (xw & y).bit_count() & 1]
        if len(mates) > 1:
            raise InfeasibleError(
                "seed vector %d pairs with %d others; Gram pattern is not a matching"
                % (i, len(mates)))
        if not mates or mates[0] > i:  # else x already sits in its mate's slot
            slots.append([x, seeds[mates[0]] if mates else 0])

    def pick(mate: int, nonzero_only: bool) -> int:
        # <f, w> = 1 for f = mate (0 for none), 0 for every other row so far
        sol = _solve([(_swap(f, m), int(f == mate)) for p in slots for f in p if f],
                     2 * m)
        if sol is None:
            raise InfeasibleError("seed cannot be extended to a symplectic basis")
        # the slots hold whole pairs only, so the nullspace is nonempty and
        # its last reduced row is its smallest nonzero vector
        return sol[1][-1] if nonzero_only else sol[0]

    for pair in slots:
        if not pair[1]:
            pair[1] = pick(pair[0], nonzero_only=False)
    while len(slots) < m:
        slots.append([pick(0, nonzero_only=True), 0])
        slots[-1][1] = pick(slots[-1][0], nonzero_only=False)

    basis = [p[0] for p in slots] + [p[1] for p in slots]
    if _gram_mismatch(basis, [1 << c for c in range(2 * m)], m) is not None:
        raise RuntimeError("completed basis is not hyperbolic")
    return basis


def symplectic_gram_schmidt(seed, m: int | None = None) -> list[tuple[np.ndarray, np.ndarray]]:
    """Extend seed vectors to a full hyperbolic basis (u_1..u_m, v_1..v_m).

    seed is an ordered list of rows of length 2m whose symplectic Gram pattern
    is a partial matching: each vector has product 1 with at most one other.
    Matched pairs keep first-seen order with the earlier vector on the u side;
    unmatched seeds get partners; remaining pairs are fresh.  Every choice is
    the lexicographically smallest valid vector, so output is deterministic.
    Raises InfeasibleError when the seeds are dependent or the pattern is not
    a matching.  Postcondition: <u_a, v_b> = delta_ab, <u_a, u_b> = <v_a, v_b> = 0.
    """
    vecs = [asbits(s).ravel() for s in seed]
    if vecs:
        if m is None:
            m = vecs[0].shape[0] // 2
        if any(v.shape[0] != 2 * m for v in vecs):
            raise InfeasibleError("seed vectors have inconsistent lengths")
    elif m is None:
        raise ValueError("m is required for an empty seed")
    rows = _unpack(_hyperbolic(_pack(np.vstack(vecs)) if vecs else [], m), 2 * m)
    return list(zip(rows[:m], rows[m:]))


def sp_group_order(m: int) -> int:
    """Order of Sp(2m, F2)."""
    if m < 0:
        raise ValueError("m must be nonnegative, got %d" % m)
    out = 1 << (m * m)
    for j in range(1, m + 1):
        out *= (1 << (2 * j)) - 1
    return out


def save_matrix_text(m_in) -> str:
    """One row per line, entries '0'/'1' separated by single spaces."""
    m = asbits(m_in)
    return "".join(" ".join(str(int(x)) for x in row) + "\n" for row in m)


def load_matrix_text(text: str) -> np.ndarray:
    """Parse the save_matrix_text format; a blank line terminates the matrix."""
    rows = []
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            if rows:
                break
            continue
        toks = stripped.split()
        if any(t not in ("0", "1") for t in toks):
            raise ParseError("line %d: matrix entries must be 0 or 1" % ln)
        if rows and len(toks) != len(rows[0]):
            raise ParseError("line %d: ragged row (expected %d entries)" % (ln, len(rows[0])))
        rows.append([int(t) for t in toks])
    if not rows:
        raise ParseError("no matrix rows found")
    return np.array(rows, dtype=np.uint8)
