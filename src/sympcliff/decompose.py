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

The factoring runs on packed rows (one Python int per row, bit c holding
column c, as in gf2core) in one private core, _factor.  It applies each
factor by its row action instead of forming 2m x 2m products: Omega swaps
the x and z halves of a row, G_k swaps their first k coordinates, T_R adds
x R onto z, and A_Q maps (x, z) to (x Q, z Q^-T).  The core checks that the
input is symplectic, that the B block keeps its normal form, that the
reduced matrix is a lower T_R, and that the kept factors multiply back to
the input; each check raises.  One emitter, _emit, turns packed factors
into (kind, qubits) gate pairs: factor_to_gates wraps them in Gates, and
synthesis ranks solutions on them directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import xor

import numpy as np

from .circuit import Circuit, Gate, circuit
from .gf2core import (_eliminate, _inverse, _lu, _mul_rows, _pack, _transpose,
                      _unpack, asbits, eye, invert, omega, zeros)

FACTOR_KINDS = ("OMEGA", "AQ", "TR", "GK")


@dataclass(frozen=True)
class ElementaryFactor:
    kind: str
    m: int
    q: np.ndarray | None = None
    r: np.ndarray | None = None
    k: int | None = None

    def __repr__(self):
        extra = "" if self.k is None else ", k=%d" % self.k
        return "ElementaryFactor(%s, m=%d%s)" % (self.kind, self.m, extra)


def f_omega(m: int) -> ElementaryFactor:
    return ElementaryFactor("OMEGA", m)


def f_aq(q) -> ElementaryFactor:
    q = asbits(q)
    invert(q)  # raises if singular
    return ElementaryFactor("AQ", q.shape[0], q=q)


def _check_symmetric(r) -> np.ndarray:
    r = asbits(r)
    if r.ndim != 2 or r.shape[0] != r.shape[1] or not np.array_equal(r, r.T):
        raise ValueError("R must be square and symmetric")
    return r


def f_tr(r) -> ElementaryFactor:
    r = _check_symmetric(r)
    return ElementaryFactor("TR", r.shape[0], r=r)


def f_gk(m: int, k: int) -> ElementaryFactor:
    if not 0 <= k <= m:
        raise ValueError("k must lie in 0..m")
    return ElementaryFactor("GK", m, k=k)


def expand(f: ElementaryFactor) -> np.ndarray:
    """The 2m x 2m symplectic matrix of one factor."""
    m = f.m
    out = zeros((2 * m, 2 * m))
    if f.kind == "OMEGA":
        return omega(m)
    if f.kind == "AQ":
        out[:m, :m] = f.q
        out[m:, m:] = invert(f.q).T
        return out
    if f.kind == "TR":
        out[:m, :m] = eye(m)
        out[m:, m:] = eye(m)
        out[:m, m:] = f.r
        return out
    if f.kind == "GK":
        u_k = zeros((m, m))
        u_k[:f.k, :f.k] = eye(f.k)
        l_mk = eye(m) ^ u_k
        out[:m, :m] = l_mk
        out[m:, m:] = l_mk
        out[:m, m:] = u_k
        out[m:, :m] = u_k
        return out
    raise ValueError("unknown factor kind %r" % f.kind)


def _bits(x: int):
    """Indices of the set bits of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _symmetric(rows: list[int], n: int) -> bool:
    return rows == _transpose(rows, n)


def _right(rows: list[int], factor, m: int) -> list[int]:
    """Rows times one packed factor, by the factor's action on a row (x, z).

    A_Q maps (x, z) to (x Q, z Q^-T), T_R adds x R onto z, G_k swaps the
    first k coordinates of x and z, Omega swaps x and z.  An A_Q factor
    carries (Q, Q^-T) as its data.
    """
    kind, data = factor
    low = (1 << m) - 1
    if kind == "OMEGA":
        return [(x >> m) | (x & low) << m for x in rows]
    if kind == "GK":
        mask = (1 << data) - 1
        out = []
        for x in rows:
            d = (x ^ x >> m) & mask
            out.append(x ^ d ^ d << m)
        return out
    if kind == "TR":
        adds = _mul_rows([x & low for x in rows], data)
        return [x ^ a << m for x, a in zip(rows, adds)]
    q, q_inv_t = data
    return [a | b << m for a, b in zip(_mul_rows([x & low for x in rows], q),
                                      _mul_rows([x >> m for x in rows], q_inv_t))]


def _left(factor, rows: list[int], m: int) -> list[int]:
    """One packed factor times rows: the same actions on the top and bottom
    halves of the rows instead of on each row's x and z."""
    kind, data = factor
    top, bottom = rows[:m], rows[m:]
    if kind == "OMEGA":
        return bottom + top
    if kind == "GK":
        return bottom[:data] + top[data:] + top[:data] + bottom[data:]
    if kind == "TR":
        return list(map(xor, top, _mul_rows(data, bottom))) + bottom
    q, q_inv_t = data
    return _mul_rows(q, top) + _mul_rows(q_inv_t, bottom)


def _factor(rows: list[int], m: int) -> list[tuple]:
    """Packed core of decompose: the kept factors of F, given as its 2m
    packed rows (bit c of row i is F[i, c]), as (kind, data) pairs.

    The data is None for OMEGA, k for GK, the packed rows of R for TR and
    (Q, Q^-T) as packed rows for AQ.  Identity factors are dropped, and so
    are Omega and G_m when nothing is left between them.  Raises ValueError
    when F is not symplectic, and RuntimeError when a self-check fails.
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

    # A_Q^-1 = A_{Q^-1}, and T_R, G_k and Omega are involutions
    mid = rows
    if k < m:
        mid = _right(mid, ("AQ", (_transpose(q2inv_t, m), q2t)), m)
    for factor in (("TR", r2), ("GK", k), ("OMEGA", None)):
        mid = _right(mid, factor, m)
    mid = _left(("AQ", (q1inv, _transpose(q1, m))), mid, m)
    r1 = [r & low for r in mid[m:]]
    if (mid[:m] != identity or [r >> m for r in mid[m:]] != identity
            or not _symmetric(r1, m)):
        raise RuntimeError("reduced input is not a lower T_R factor")

    out = [("AQ", (q1, _transpose(q1inv, m)))] if q1 != identity else []
    if any(r1) or k < m:
        out.append(("OMEGA", None))
        if any(r1):
            out.append(("TR", r1))
        if k:
            out.append(("GK", k))
    if any(r2):
        out.append(("TR", r2))
    if q2 != identity:
        out.append(("AQ", (q2, q2inv_t)))

    total = [1 << i for i in range(n)]
    for factor in reversed(out):
        total = _left(factor, total, m)
    if total != rows:
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
    out = []
    for kind, data in _factor(_pack(f), m):
        if kind == "AQ":
            out.append(ElementaryFactor(kind, m, q=_unpack(data[0], m)))
        elif kind == "TR":
            out.append(ElementaryFactor(kind, m, r=_unpack(data, m)))
        else:
            out.append(ElementaryFactor(kind, m, k=data))
    return out


def _emit(factors, m: int):
    """(kind, qubits) gate pairs realizing packed factors, in circuit order.

    Factors are (kind, data) pairs as _factor gives them; an AQ factor's
    data need only hold Q first.  Omega is H on every qubit, G_k H on the
    first k, T_R P on its diagonal then CZ on its upper triangle row by
    row, and A_Q a PERMUTE for its row pivots followed by CNOTs for its LU
    factors.
    """
    for kind, data in factors:
        if kind == "OMEGA" or kind == "GK":
            for q in range(1, (m if kind == "OMEGA" else data) + 1):
                yield "H", (q,)
        elif kind == "TR":
            for i, r in enumerate(data):
                if r >> i & 1:
                    yield "P", (i + 1,)
            for i, r in enumerate(data):
                for j in _bits(r >> (i + 1)):
                    yield "CZ", (i + 1, i + j + 2)
        elif kind == "AQ":
            perm, low, up = _lu(list(data[0]), m)
            image = [0] * m
            for i, p in enumerate(perm):
                image[p] = i + 1
            if perm != list(range(m)):
                yield "PERMUTE", tuple(image)
            # CNOT matrix I + E_ct adds the control coordinate onto the
            # target; emitting L's entries with controls ascending multiplies
            # out to L exactly, and U's with controls descending to U
            for c in range(1, m):
                for t in _bits(low[c] & ((1 << c) - 1)):
                    yield "CNOT", (c + 1, t + 1)
            for c in range(m - 2, -1, -1):
                for t in _bits(up[c] >> (c + 1)):
                    yield "CNOT", (c + 1, c + t + 2)
        else:
            raise ValueError("unknown factor kind %r" % kind)


def _packed(f: ElementaryFactor) -> tuple:
    if f.kind == "AQ":
        return f.kind, (_pack(asbits(f.q)), None)
    if f.kind == "TR":
        return f.kind, _pack(asbits(f.r))
    return f.kind, f.k


def factor_to_gates(f: ElementaryFactor) -> list[Gate]:
    """Physical gates realizing one factor; circuit order is product order."""
    return [Gate(kind, qs) for kind, qs in _emit([_packed(f)], f.m)]


def factors_to_circuit(factors, m: int) -> Circuit:
    return circuit(m, [g for f in factors for g in factor_to_gates(f)])
