"""Solving and enumerating binary symplectic matrices under linear constraints.

A constraint system asks for F in Sp(2m, F2) with x_i F = y_i for given row
pairs.  One solution comes from a chain of at most 2t symplectic transvections
(t = constraint count); the full solution set comes from a depth-first sweep
over the images of the unconstrained half of a hyperbolic basis containing
the x_i.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gf2core import (InfeasibleError, asbits, coset_leader, eye, gram, invert,
                      mul, omega, rank, solve_linear, sp_group_order,
                      symplectic_gram_schmidt, symplectic_inner, zeros)


def transvection_matrix(h) -> np.ndarray:
    """F_h = I + Omega h^T h, the transvection x -> x + <x, h> h.

    h = 0 gives the identity; every transvection is an involution.
    """
    h = asbits(h).ravel()
    m = h.shape[0] // 2
    w = mul(h.reshape(1, -1), omega(m)).ravel()
    return eye(2 * m) ^ np.outer(w, h)


def map_vector(x, y) -> list[np.ndarray]:
    """Transvection vectors (at most two) whose product maps x to y.

    Both inputs must be nonzero.  Returns [] when x == y, [x + y] when
    <x, y> = 1, else [w + y, x + w] for the smallest valid intermediate w.
    """
    x = asbits(x).ravel()
    y = asbits(y).ravel()
    if not x.any() or not y.any():
        raise InfeasibleError("transvections move only nonzero vectors")
    return _step(x, y, [])


def _step(xt: np.ndarray, y: np.ndarray, prev_ys: list[np.ndarray]) -> list[np.ndarray]:
    """Transvection vectors taking xt to y while fixing the earlier targets:
    [] when xt == y, [xt + y] when <xt, y> = 1, else [w + y, xt + w]."""
    if np.array_equal(xt, y):
        return []
    if symplectic_inner(xt, y) == 1:
        return [xt ^ y]
    w = _choose_w(xt, y, prev_ys)
    return [w ^ y, xt ^ w]


def _choose_w(xt: np.ndarray, y: np.ndarray, prev_ys: list[np.ndarray]) -> np.ndarray:
    """Smallest w with <xt, w> = <y, w> = 1 and <y_j, w> = <y_j, y> for earlier
    targets y_j, so fixing this constraint disturbs none before it."""
    rows = np.vstack([xt, y] + prev_ys)
    rhs = np.concatenate([[1, 1], gram(rows[2:], y.reshape(1, -1)).ravel()])
    sol = solve_linear(mul(rows, omega(xt.shape[0] // 2)), rhs)
    if sol is None:
        raise RuntimeError("intermediate vector system is not solvable")
    return coset_leader(*sol)


@dataclass
class SymplecticSystem:
    """Constraints x_i F = y_i over Sp(2m, F2).

    The hyperbolic-basis slot of each source vector is inferred from the
    symplectic Gram pattern of the sources, in the given order.
    """

    m: int
    xs: list[np.ndarray] = field(default_factory=list)
    ys: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        self.xs = [asbits(x).ravel() for x in self.xs]
        self.ys = [asbits(y).ravel() for y in self.ys]
        if len(self.xs) != len(self.ys):
            raise ValueError("source and target counts differ")
        for v in self.xs + self.ys:
            if v.shape != (2 * self.m,):
                raise ValueError("constraint vectors must have length 2m")

    def __len__(self):
        return len(self.xs)


def _matrices(system: SymplecticSystem) -> tuple[np.ndarray, np.ndarray]:
    """Sources and targets stacked as t x 2m matrices, also when t = 0."""
    shape = (len(system), 2 * system.m)
    return (np.array(system.xs, dtype=np.uint8).reshape(shape),
            np.array(system.ys, dtype=np.uint8).reshape(shape))


def _validate(system: SymplecticSystem) -> None:
    t = len(system)
    xs, ys = _matrices(system)
    if rank(xs) != t:
        raise InfeasibleError("source vectors are linearly dependent")
    if rank(ys) != t:
        raise InfeasibleError("target vectors are linearly dependent")
    bad = np.argwhere(np.triu(gram(xs) != gram(ys), 1))
    if bad.size:
        raise InfeasibleError(
            "constraints %d and %d have incompatible inner products" % tuple(bad[0]))


def find_symplectic(system: SymplecticSystem, return_transvections: bool = False):
    """One F in Sp(2m, F2) satisfying the system, via <= 2t transvections.

    Each constraint is fixed by one transvection when <x_i F, y_i> = 1 and by
    two otherwise; the intermediate vector is chosen so earlier constraints
    stay satisfied.  Empty system returns the identity.  Raises
    InfeasibleError for dependent or inner-product-incompatible inputs.
    """
    _validate(system)
    f = eye(2 * system.m)
    hs: list[np.ndarray] = []
    for i in range(len(system)):
        xt = mul(system.xs[i].reshape(1, -1), f).ravel()
        for h in _step(xt, system.ys[i], system.ys[:i]):
            f = mul(f, transvection_matrix(h))
            hs.append(h)
    xs, ys = _matrices(system)
    if not np.array_equal(mul(xs, f), ys):
        raise RuntimeError("transvection chain does not satisfy the system")
    if return_transvections:
        return f, hs
    return f


def _frame(system: SymplecticSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One solution f0, a full hyperbolic basis (rows u_1..u_m, v_1..v_m)
    containing every x_i, and which basis rows the constraints pin."""
    f0 = find_symplectic(system)
    pairs = symplectic_gram_schmidt(system.xs, m=system.m)
    basis = np.vstack([p[0] for p in pairs] + [p[1] for p in pairs])
    hits = (_matrices(system)[0][:, None] == basis).all(axis=2)
    if (hits.sum(axis=1) != 1).any():
        raise RuntimeError("a source vector is not exactly one basis row")
    return f0, basis, hits.any(axis=0)


def _count(pinned: np.ndarray) -> int:
    """Solution count from the pinned basis rows: with alpha slots free on
    both sides and h slots with one side pinned, |Sp(2 alpha)| times
    2^(h(h+1)/2 + 2 alpha h)."""
    m = pinned.shape[0] // 2
    sides = pinned[:m].astype(int) + pinned[m:]
    alpha, h = int((sides == 0).sum()), int((sides == 1).sum())
    return sp_group_order(alpha) << (h * (h + 1) // 2 + 2 * alpha * h)


def _sweep(f0: np.ndarray, basis: np.ndarray, pinned: np.ndarray):
    two_m = basis.shape[0]
    w_form = omega(two_m // 2)
    basis_inv = invert(basis)
    a = mul(basis, f0)
    free_rows = [r for r in range(two_m) if not pinned[r]]
    b = a.copy()

    def rec(pos: int):
        if pos == len(free_rows):
            yield mul(basis_inv, b)
            return
        r = free_rows[pos]
        done = [q for q in range(two_m) if pinned[q]] + free_rows[:pos]
        if done:
            mat = mul(b[done], w_form)
            rhs = w_form[r, done]
        else:
            mat = zeros((0, two_m))
            rhs = zeros(0)
        sol = solve_linear(mat, rhs)
        if sol is None:
            return
        part, null = sol
        d = null.shape[0]
        for ell in range(1 << d):
            w = part.copy()
            for j in range(d):
                if (ell >> (d - 1 - j)) & 1:
                    w ^= null[j]
            b[r] = w
            yield from rec(pos + 1)
        b[r] = a[r]

    yield from rec(0)


def iter_all(system: SymplecticSystem):
    """Yield every F in Sp(2m, F2) satisfying the system, depth first.

    Sources are embedded in a hyperbolic basis; each basis row not pinned by a
    constraint ranges over the affine set allowed by the rows already chosen.
    Branches whose affine system turns inconsistent are pruned, which is what
    keeps the sweep exact when a slot is free on both sides (a naive
    2^{alpha(alpha+1)/2} count overshoots there: for m = 2 with only
    u1 -> u1, v1 -> v1 pinned, 6 solutions exist, not 8).
    """
    yield from _sweep(*_frame(system))


def enumerate_all(system: SymplecticSystem, cap: int = 1 << 20) -> list[np.ndarray]:
    """All solutions, materialized.  Raises before enumerating anything when
    the count exceeds cap (use iter_all to stream beyond)."""
    frame = _frame(system)
    if _count(frame[2]) > cap:
        raise ValueError("solution count exceeds cap %d" % cap)
    return list(_sweep(*frame))
