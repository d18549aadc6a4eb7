"""Solving and enumerating binary symplectic matrices under linear constraints.

A constraint system asks for F in Sp(2m, F2) with x_i F = y_i for given row
pairs.  It holds its rows packed (one Python int per row, bit c holding
column c, as in gf2core), and all work below runs on such ints; numpy
arrays appear only at the public edge.  One solution comes from a chain of
at most 2t transvections (t = constraint count).  F's rows and the
sources' images are one int of power-of-two-width slots, one row per slot,
so a transvection is a few whole-int operations: a parity fold inside
every slot and one multiply.  One echelon pass over the targets (their
rows times Omega, right-hand side 0) both checks their rank and gives each
target's reduced row; the intermediate vectors are read off the form made
of the first rows of that pass, which grows by one stored row per
constraint.  The full solution set comes from a depth-first sweep over
the images of the unconstrained half of a hyperbolic basis containing the
x_i.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import product
from operator import index, xor

import numpy as np

from .gf2core import (InfeasibleError, _echelon_insert, _echelon_solve,
                      _gram_mismatch, _hyperbolic, _inverse, _mul_rows,
                      _pack, _rank, _slotted, _solve, _swap, _unpack,
                      _unslotted, asbits, eye, mul, omega, sp_group_order)


def transvection_matrix(h) -> np.ndarray:
    """F_h = I + Omega h^T h, the transvection x -> x + <x, h> h.

    h = 0 gives the identity; every transvection is an involution.
    """
    h = asbits(h).ravel()
    if h.shape[0] % 2:
        raise ValueError("transvection vector must have even length 2m")
    m = h.shape[0] // 2
    w = mul(h.reshape(1, -1), omega(m)).ravel()
    return eye(2 * m) ^ np.outer(w, h)


def map_vector(x, y) -> list[np.ndarray]:
    """Transvection vectors (at most two) whose product maps x to y.

    Both inputs must be nonzero and of the same even length.  Returns [] when
    x == y, [x + y] when <x, y> = 1, else [w + y, x + w] for the smallest
    valid intermediate w: _step with an empty echelon form, so w's only
    conditions are <x, w> = <y, w> = 1.
    """
    x = asbits(x).ravel()
    y = asbits(y).ravel()
    if x.shape != y.shape or x.shape[0] % 2:
        raise ValueError("x and y must have the same even length 2m, got %d and %d"
                         % (x.shape[0], y.shape[0]))
    if not x.any() or not y.any():
        raise InfeasibleError("transvections move only nonzero vectors")
    px, py = _pack(np.vstack([x, y]))
    return list(_unpack(_step(px, py, {}, x.shape[0] // 2), x.shape[0]))


def _step(xt: int, y: int, aug: dict[int, int], m: int) -> list[int]:
    """Packed transvection vectors taking xt to y while fixing the earlier
    targets y_j: [] when xt == y, [xt + y] when <xt, y> = 1, else
    [w + y, xt + w] for the smallest w with <xt, w> = <y, w> = 1 and
    <y_j, w> = <y_j, y>, so fixing this constraint disturbs none before it.

    In z = w + y those conditions are homogeneous in the y_j: <y_j, z> = 0,
    and <xt, z> = <y, z> = 1 since <xt, y> = <y, y> = 0 here.  So aug holds
    the rows y_j Omega once, as an augmented echelon form with right-hand
    side 0, and the smallest w is the z whose free columns are y's
    (_echelon_solve)."""
    if xt == y:
        return []
    yw = _swap(y, m)
    if (xt & yw).bit_count() & 1:
        return [xt ^ y]
    z = _echelon_solve(aug, [(_swap(xt, m), 1), (yw, 1)], y)
    if z is None:
        raise RuntimeError("intermediate vector system is not solvable")
    return [z, xt ^ y ^ z]


def _integer(value, name: str) -> int:
    """value as an int, read with operator.index; ValueError naming the
    argument for anything else (a float, a str)."""
    try:
        return index(value)
    except TypeError:
        raise ValueError("%s must be an integer, got %r" % (name, value)) from None


def _row(v, m: int, where: str) -> int:
    """One constraint row, an int (numpy ints too) or an array of 2m bits,
    as a packed int.  Anything else raises ValueError naming where, the
    row's side and position."""
    if isinstance(v, (int, np.integer)):
        v = int(v)
        if not 0 <= v < 1 << 2 * m:
            raise ValueError("%s: packed constraint rows must lie in [0, 2^2m), got %d"
                             % (where, v))
        return v
    try:
        bits = asbits(v).ravel()
    except (TypeError, ValueError):
        bits = None
    if bits is None or bits.shape != (2 * m,):
        raise ValueError("%s must be a packed int or an array of 2m = %d bits, got %.60r"
                         % (where, 2 * m, v))
    return _pack(bits.reshape(1, -1))[0]


@dataclass(init=False)
class SymplecticSystem:
    """Constraints x_i F = y_i over Sp(2m, F2).

    Each row may be an array of 2m bits (reduced mod 2) or a packed int, bit
    c holding column c; the system keeps the ints, and xs and ys give the
    rows back as uint8 arrays.  The hyperbolic-basis slot of each source
    vector is inferred from the symplectic Gram pattern of the sources, in
    the given order.  The first pair of constraints whose inner products
    differ (gf2core._gram_mismatch) is found once, at construction.
    """

    m: int
    _xs: list[int]
    _ys: list[int]
    _mismatch: tuple[int, int] | None = field(compare=False, repr=False)

    def __init__(self, m: int, xs=(), ys=()):
        m = _integer(m, "m")
        if m < 0:
            raise ValueError("m must be nonnegative, got %d" % m)
        xs, ys = list(xs), list(ys)
        if len(xs) != len(ys):
            raise ValueError("source and target counts differ")
        self.m = m
        self._xs = [_row(v, m, "source row %d" % i) for i, v in enumerate(xs)]
        self._ys = [_row(v, m, "target row %d" % i) for i, v in enumerate(ys)]
        self._mismatch = _gram_mismatch(self._xs, self._ys, m)

    @property
    def xs(self) -> list[np.ndarray]:
        return list(_unpack(self._xs, 2 * self.m))

    @property
    def ys(self) -> list[np.ndarray]:
        return list(_unpack(self._ys, 2 * self.m))

    def __len__(self):
        return len(self._xs)


def _chain(system: SymplecticSystem) -> tuple[list[int], list[int]]:
    """find_symplectic on packed rows: F's rows and the transvections.

    F's rows and the sources' images x_i F are one int of w-bit slots
    (_slotted): F's row r in slot r and x_i F in slot 2m + i, w the
    smallest power of two, at least 8, that holds 2m bits.  So x_i F is
    one slot read, and the transvection by h, which adds h to every row r
    with <r, h> = 1, is a few whole-int operations: the int AND h Omega in
    every slot, then t ^= t >> k for k = w/2, ..., 1 leaves each slot's
    parity in its bit 0, and those bits times h add h to the marked rows
    in one multiply.  After the step for k, bits [0, k) of each slot hold
    bits of that slot only, which is why w must be a power of two.  F is
    unslotted once, for the final check.

    The targets go through one echelon pass (_echelon_insert on y_j Omega,
    right-hand side 0), which is their rank check and gives each one's
    reduced row.  An insert never changes a stored row, so the form _step
    solves against after j constraints is the first j rows of that pass,
    and after step j the chain stores row j as it is.  The checks run in
    the order sources, targets, inner products.
    """
    m = system.m
    if _rank(system._xs) != len(system):
        raise InfeasibleError("source vectors are linearly dependent")
    ech: dict[int, int] = {}
    rows = [_echelon_insert(ech, _swap(y, m) << 1) for y in system._ys]
    if not all(rows):
        raise InfeasibleError("target vectors are linearly dependent")
    if system._mismatch is not None:
        raise InfeasibleError("constraints %d and %d have incompatible inner products"
                              % system._mismatch)
    n = 2 * m
    w = max(8, 1 << (n - 1).bit_length())
    full = (1 << w) - 1
    ones = ((1 << (n + len(system)) * w) - 1) // full  # bit 0 of every slot
    # the identity (bit r of slot r), then the sources
    s = ((1 << n * (w + 1)) - 1) // ((2 << w) - 1) | _slotted(system._xs, w)[0] << n * w
    folds = [w >> i for i in range(1, w.bit_length())]
    aug: dict[int, int] = {}  # the first rows of the target pass (_step)
    hs: list[int] = []
    for at, (y, row) in enumerate(zip(system._ys, rows), n):
        for h in _step(s >> at * w & full, y, aug, m):
            t = s & _swap(h, m) * ones
            for k in folds:
                t ^= t >> k
            s ^= (t & ones) * h
            hs.append(h)
        aug[row.bit_length()] = row
    f = _unslotted(s, n, w)
    if _mul_rows(system._xs, f) != system._ys:
        raise RuntimeError("transvection chain does not satisfy the system")
    return f, hs


def find_symplectic(system: SymplecticSystem, return_transvections: bool = False):
    """One F in Sp(2m, F2) satisfying the system, via <= 2t transvections.

    Each constraint is fixed by one transvection when <x_i F, y_i> = 1 and by
    two otherwise; the intermediate vector is the lex-smallest one that keeps
    the earlier constraints satisfied.  Empty system returns the identity.
    Raises InfeasibleError for dependent or inner-product-incompatible inputs.
    """
    f, hs = _chain(system)
    f = _unpack(f, 2 * system.m)
    return (f, list(_unpack(hs, 2 * system.m))) if return_transvections else f


def _matched(xs: list[int], m: int) -> list[int]:
    """Packed rows spanning what xs spans, through one invertible row
    transform, whose symplectic Gram pattern is a matching.

    Row i, in order, takes the first row after it that it pairs with as its
    partner j, and every other row r after it gains <r, x_j> x_i +
    <r, x_i> x_j, which leaves r orthogonal to both.  Rows whose pattern is
    already a matching come back unchanged.
    """
    xs = list(xs)
    todo = list(range(len(xs)))
    while todo:
        i = todo.pop(0)
        iw = _swap(xs[i], m)
        j = next((j for j in todo if (iw & xs[j]).bit_count() & 1), None)
        if j is not None:
            todo.remove(j)
            jw = _swap(xs[j], m)
            for r in todo:
                a, c = (jw & xs[r]).bit_count() & 1, (iw & xs[r]).bit_count() & 1
                xs[r] ^= (xs[i] if a else 0) ^ (xs[j] if c else 0)
    return xs


def _frame(system: SymplecticSystem) -> tuple[list[int], list[int], list[bool]]:
    """One solution f0 and a full hyperbolic basis (u_1..u_m, v_1..v_m), as
    packed rows, and which rows the sources pin.

    The basis contains the sources after _matched's transform.  The same
    transform of the targets gives an equivalent system, whose targets are
    those rows times f0, so the sweep reads them off f0.
    """
    f0 = _chain(system)[0]
    sources = _matched(system._xs, system.m)
    basis = _hyperbolic(sources, system.m)
    sources = set(sources)
    if not sources <= set(basis):
        raise RuntimeError("a source vector is not exactly one basis row")
    return f0, basis, [row in sources for row in basis]


def _count(pinned: list[bool]) -> int:
    """Solution count from the pinned basis rows: with alpha slots free on
    both sides and h slots with one side pinned, |Sp(2 alpha)| times
    2^(h(h+1)/2 + 2 alpha h)."""
    m = len(pinned) // 2
    sides = [pinned[r] + pinned[m + r] for r in range(m)]
    alpha, h = sides.count(0), sides.count(1)
    return sp_group_order(alpha) << (h * (h + 1) // 2 + 2 * alpha * h)


def _sweep(f0: list[int], basis: list[int], pinned: list[bool]):
    two_m = len(basis)
    m = two_m // 2
    basis_inv = _inverse(basis, two_m)
    b = _mul_rows(basis, f0)
    free_rows = [r for r in range(two_m) if not pinned[r]]
    done = [r for r in range(two_m) if pinned[r]]

    def rec(pos: int):
        if pos == len(free_rows):
            yield _unpack(_mul_rows(basis_inv, b), two_m)
            return
        r = free_rows[pos]
        # row r of B F must have product 1 with its partner row r +- m and
        # 0 with every other row already chosen
        sol = _solve([(_swap(b[q], m), int(q == (r + m) % two_m))
                      for q in done + free_rows[:pos]], two_m)
        if sol is None:
            return
        # the first nullspace row varies slowest
        for terms in product(*[(0, v) for v in sol[1]]):
            b[r] = reduce(xor, terms, sol[0])
            yield from rec(pos + 1)

    yield from rec(0)


def iter_all(system: SymplecticSystem):
    """Yield every F in Sp(2m, F2) satisfying the system, depth first.

    Sources are embedded in a hyperbolic basis; each basis row not pinned by a
    constraint ranges over the affine set allowed by the rows already chosen,
    in increasing lexicographic order (the lex-min solution offset by every
    combination of the reduced nullspace rows, first row most significant).
    Branches whose affine system turns inconsistent are pruned, which is what
    keeps the sweep exact when a slot is free on both sides (a naive
    2^{alpha(alpha+1)/2} count overshoots there: for m = 2 with only
    u1 -> u1, v1 -> v1 pinned, 6 solutions exist, not 8).
    """
    yield from _sweep(*_frame(system))


def enumerate_all(system: SymplecticSystem, cap: int = 1 << 20) -> list[np.ndarray]:
    """All solutions, materialized.  Raises before enumerating anything when
    the count exceeds cap (use iter_all to stream beyond); cap must be an
    integer (operator.index), else ValueError."""
    cap = _integer(cap, "cap")
    frame = _frame(system)
    if _count(frame[2]) > cap:
        raise ValueError("solution count exceeds cap %d" % cap)
    return list(_sweep(*frame))
