"""Dense linear algebra over GF(2) and the binary symplectic group Sp(2m, F2).

Vectors are rows and matrices act on the right (x -> x @ F), so row i of a
matrix is the image of basis vector e_i.  The public functions take and
return numpy uint8 arrays holding 0/1; phase bookkeeping never touches this
module.  Underneath, each row is one Python int, bit c holding column c, so
a row operation is one integer XOR, as in the packed tableau rows of CHP
and Stim; products (mul) run in float64 through BLAS.  The private kernels
take and return such ints: _eliminate, _inverse, _lu, _mul_rows and
_transpose serve decompose's factoring core.  The three bulk kernels
(_mul_rows, _eliminate, _lu) work on the whole matrix as one int: row i
in bits [i w, (i + 1) w), w = 8 b for a slot of b bytes that holds every
operand row (_slotted).  An operation on many rows is one multiply: a
selection with bit 0 of each chosen slot set, times a row below 2^w, puts
one copy of that row in each chosen slot, and no carry crosses a slot.
The basis completion (_hyperbolic) and the Gram comparison
(_gram_mismatch) serve sympsolve and synth.  Every other elimination uses
one echelon form: a dict mapping each row's highest set bit, as its
bit_length, to that row (_echelon_insert).  _rank counts its rows.  Each
solve puts its rows, each with its right-hand side in an extra low bit,
through that forward elimination (_augment) and reads solutions off it by
back-substitution (_substitute).  _echelon_solve adds a few rows to a copy
of a stored form, which the transvection chain keeps with right-hand side
0 and the sign fix leaves empty, and back-substitutes from a given start
on the free columns (0 for the lex-min solution); _solve is the affine
solve with its reduced nullspace basis.
"""

from __future__ import annotations

import math
import numbers

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


def _integral(v) -> bool:
    """Whether v, one value of an array that holds neither bools nor ints,
    is an integer: an int of any type, a bool, or a finite real number
    (a float among them) equal to one."""
    if isinstance(v, (numbers.Integral, np.bool_)):
        return True
    return isinstance(v, numbers.Real) and math.isfinite(v) and v == int(v)


def asbits(data) -> np.ndarray:
    """Coerce to a uint8 array of 0/1, reducing mod 2.

    A uint8 array that already holds only 0/1 comes back as the same object,
    uncopied.  That test is one bytes pass (deleting the bytes 0 and 1 leaves
    nothing), not a numpy reduction, so arrays the package has just built
    cost almost nothing to pass through again.  Any other input must hold
    integers only: ints of any type, bools, and floats equal to an integer
    read as those integers.  A value that is not one (a fraction, NaN, inf,
    a complex number, a str, any other object) raises ValueError naming
    the first such value.
    """
    arr = np.asarray(data)
    if arr.dtype != np.uint8 or arr.tobytes().translate(None, b"\x00\x01"):
        if arr.dtype.kind not in "biu":
            bad = [v for v in arr.ravel().tolist() if not _integral(v)]
            if bad:
                raise ValueError("bit value %r is not an integer" % (bad[0],))
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


def _slotted(rows: list[int], bits: int) -> tuple[int, int, int]:
    """(x, ones, w): packed rows as one int x of w-bit slots, row i in bits
    [i w, (i + 1) w), w = 8 b for the fewest bytes b (at least one) that
    hold bits bits; ones holds bit 0 of every slot."""
    b = (bits + 7) // 8 or 1
    ones = int.from_bytes((b"\x01" + bytes(b - 1)) * len(rows), "little")
    return (int.from_bytes(b"".join([r.to_bytes(b, "little") for r in rows]), "little"),
            ones, 8 * b)


def _unslotted(x: int, n: int, w: int) -> list[int]:
    """The n rows of the w-bit slots of x (_slotted)."""
    full = (1 << w) - 1
    return [x >> i & full for i in range(0, n * w, w)]


def _eliminate(rows: list[int], cols: int) -> list[int]:
    """Gauss-Jordan elimination of packed rows, in place, on bits 0..cols-1.

    The pivot for each column is the first row at or below the current one
    with a 1 there.  Bits from cols up ride along with every row operation,
    so a caller that puts the identity there reads the transform T back.
    Returns the pivot columns in ascending order.

    The rows work as one int of slots (_slotted), each wide enough for
    cols and every row's bits.  For column c, x >> c & ones marks the
    rows with a 1 at c; the lowest mark at or below the current slot is
    the pivot, the swap is one XOR of the two slots, and every other
    marked row gains the pivot row in one multiply.
    """
    n = len(rows)
    x, ones, w = _slotted(rows, max(cols, max(rows, default=0).bit_length()))
    full = (1 << w) - 1
    below = ones  # bit 0 of the slots from the current row on
    at = 0  # the current row's slot offset
    pivots: list[int] = []
    for c in range(cols):
        col = x >> c & ones
        mark = col & below
        if not mark:
            continue
        mark &= -mark
        piv = mark.bit_length() - 1  # the pivot row's slot offset
        p = x >> piv & full
        if piv != at:  # the current row has no 1 at c, so it is no target
            d = (x >> at ^ p) & full
            x ^= d << at | d << piv
        x ^= (col ^ mark) * p
        pivots.append(c)
        below &= below - 1
        if not below:
            break
        at += w
    rows[:] = _unslotted(x, n, w)
    return pivots


def _echelon_insert(ech: dict[int, int], row: int) -> int:
    """Add a packed row to an echelon form, in place, and return what is
    left of it (0 when it lies in the span).

    ech maps each stored row's highest set bit, as its bit_length, to that
    row.  The row is reduced only by the stored rows whose highest bit it
    has, highest first, and is kept under its own highest bit when
    something is left; the stored rows are not touched.
    """
    while row:
        top = row.bit_length()
        if (e := ech.get(top)) is None:
            ech[top] = row
            break
        row ^= e
    return row


def _rank(rows: list[int]) -> int:
    """Rank of packed rows, without Gauss-Jordan (_echelon_insert)."""
    ech: dict[int, int] = {}
    for r in rows:
        _echelon_insert(ech, r)
    return len(ech)


def _augment(ech: dict[int, int], pairs) -> bool:
    """Insert (row, rhs) pairs into an echelon form of augmented rows, in
    place: row << 1 | rhs, so bit 0 carries the right-hand side through
    every XOR and column c sits at bit c + 1.  False when a pair is
    inconsistent with the rows before it (it reduces to the bare rhs 1)."""
    for row, rhs in pairs:
        if _echelon_insert(ech, row << 1 | rhs) == 1:
            return False
    return True


def _substitute(pivots: list[tuple[int, int]], w: int) -> int:
    """Back-substitution over the (top, row) pairs of an augmented echelon
    form (_augment), in ascending order.  The start w is packed as
    w << 1 | 1 to honour the right-hand sides, or as w << 1 for the
    homogeneous system.  Each pivot column is flipped when its row's parity
    with w so far is 1, which makes it 0; the free columns keep the start's
    values, and the start's pivot columns do not matter.  Returns the
    solution, unshifted."""
    for top, r in pivots:
        if (r & w).bit_count() & 1:
            w ^= 1 << (top - 1)
    return w >> 1


def _echelon_solve(aug: dict[int, int], extra: list[tuple[int, int]],
                   free: int = 0) -> int | None:
    """The packed w with parity(row & w) = rhs for every row of the
    augmented echelon form aug (_augment) and every extra (row, rhs) pair
    whose free columns are those of free; None when the system is
    inconsistent.  aug is not changed.

    A copy of aug takes the extras through the same forward elimination
    (_augment), then one back-substitution (_substitute) starts from free.
    The pivot columns are an invariant of the row space, so only the free
    columns are a choice: free = 0 gives the lexicographically smallest
    solution (column 0 most significant), and in general w ^ free is the
    smallest of s ^ free over all solutions s.
    """
    aug = dict(aug)
    if not _augment(aug, extra):
        return None
    return _substitute(sorted(aug.items()), free << 1 | 1)


def _solve(rows: list[tuple[int, int]], cols: int) -> tuple[int, list[int]] | None:
    """(x, null) for parity(row & x) = rhs over the (row, rhs) pairs of
    cols bits, or None when inconsistent: x is the lexicographically
    smallest solution (column 0 most significant) and null the reduced
    echelon basis of the nullspace.

    One forward elimination (_augment) serves every back-substitution
    (_substitute): x has every free column at 0, and the nullspace row of
    free column f is the homogeneous solution with e_f on the free
    columns, which is that basis's row for f.
    """
    ech: dict[int, int] = {}
    if not _augment(ech, rows):
        return None
    pivots = sorted(ech.items())
    free = [f for f in range(cols) if f + 2 not in ech]  # column f is bit f + 1
    return _substitute(pivots, 1), [_substitute(pivots, 2 << f) for f in free]


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
    of xs[i] below len(rows).  Bits of xs[i] from len(rows) up are ignored.

    X works as one int of slots (_slotted), each wide enough for every row
    of X and of M.  For row c of M below X's highest bit, and so inside
    every slot, x >> c & ones marks the X rows with bit c set; times
    rows[c] < 2^w it puts a copy of rows[c] in exactly those slots, so the
    product is one multiply and XOR per nonzero row of M.
    """
    n = len(xs)
    xbits = max(xs, default=0).bit_length()
    x, ones, w = _slotted(xs, max(xbits, max(rows, default=0).bit_length()))
    acc = 0
    for c, r in enumerate(rows[:xbits]):
        if r:
            acc ^= (x >> c & ones) * r
    return _unslotted(acc, n, w)


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
    """Row-pivoted LU of an n x n matrix of packed rows; a is not changed.

    Returns (perm, L, U) with L and U as packed rows; the pivot for column c
    is the first row at or below row c with a 1 there.  The rows work as
    one int of slots (_slotted), as in _eliminate: the swap is one XOR of
    two slots, and every lower row with a 1 at c gains the pivot row's bits
    right of c in one multiply, keeping bit c as the multiplier L[r, c].
    """
    perm = list(range(n))
    x, ones, w = _slotted(a, max(n, max(a, default=0).bit_length()))
    full = (1 << w) - 1
    below = ones  # bit 0 of the slots from row c on
    at = 0  # row c's slot offset
    for c in range(n):
        col = x >> c & ones
        mark = col & below
        if not mark:
            raise SingularMatrixError("matrix is singular over GF(2)")
        mark &= -mark
        piv = mark.bit_length() - 1  # the pivot row's slot offset
        p = x >> piv & full
        if piv != at:
            d = (x >> at ^ p) & full
            x ^= d << at | d << piv
            perm[c], perm[piv // w] = perm[piv // w], perm[c]
        below &= below - 1
        x ^= ((col ^ mark) & below) * (p >> (c + 1) << (c + 1))
        at += w
    rows = _unslotted(x, n, w)
    low = [(rows[r] & ((1 << r) - 1)) | 1 << r for r in range(n)]
    up = [rows[r] >> r << r for r in range(n)]
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
