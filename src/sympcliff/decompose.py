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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate, circuit, gate
from .gf2core import (asbits, eye, invert, is_symplectic, lu_decompose, mul,
                      nullspace, omega, rref, zeros)

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
        return _aq_block(f.q, invert(f.q))
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


def _is_identity(f: ElementaryFactor) -> bool:
    if f.kind == "AQ":
        return bool(np.array_equal(f.q, eye(f.m)))
    if f.kind == "TR":
        return not f.r.any()
    if f.kind == "GK":
        return f.k == 0
    return False


def decompose(f_in) -> list[ElementaryFactor]:
    """Elementary factor list whose left-to-right product equals the input.

    Raises ValueError when the input is not symplectic.
    """
    f = asbits(f_in)
    if not is_symplectic(f):
        raise ValueError("input matrix is not symplectic")
    m = f.shape[0] // 2
    a_blk = f[:m, :m]
    b_blk = f[:m, m:]

    # column/row operations putting the A block into rank normal form
    r_a, pivots, q11inv = rref(a_blk)
    k = len(pivots)
    q2inv = zeros((m, m))
    for j, c in enumerate(pivots):
        q2inv[c, j] = 1
    null_a = nullspace(a_blk)
    for j in range(m - k):
        q2inv[:, k + j] = null_a[j]

    q2 = invert(q2inv)
    b_prime = mul(q11inv, b_blk, q2.T)
    r_k = b_prime[:k, :k]
    e_blk = b_prime[:k, k:]
    b_mk = b_prime[k:, k:]
    if b_prime[k:, :k].any() or not np.array_equal(r_k, r_k.T):
        raise RuntimeError("B block of a symplectic input lost its normal form")

    q12inv = eye(m)
    q12inv[k:, k:] = invert(b_mk)
    q13inv = eye(m)
    q13inv[:k, k:] = e_blk
    q1inv = mul(q13inv, q12inv, q11inv)
    q1 = invert(q1inv)

    r2 = zeros((m, m))
    r2[:k, :k] = r_k
    tr2 = f_tr(r2)
    gk = f_gk(m, k)

    mid = mul(_aq_block(q1inv, q1), f, _aq_block(q2inv, q2), expand(tr2),
              expand(gk), omega(m))
    r1 = mid[m:, :m]
    if not (np.array_equal(mid[:m, :m], eye(m)) and not mid[:m, m:].any()
            and np.array_equal(mid[m:, m:], eye(m))
            and np.array_equal(r1, r1.T)):
        raise RuntimeError("reduced input is not a lower T_R factor")

    # q1 and q2 are inverses, hence invertible: f_aq's probe would be redundant
    factors = [ElementaryFactor("AQ", m, q=q1), f_omega(m), f_tr(r1), gk, tr2,
               ElementaryFactor("AQ", m, q=q2)]
    kept = [fct for fct in factors if not _is_identity(fct)]
    out: list[ElementaryFactor] = []
    for fct in kept:
        if out and _cancels(out[-1], fct):
            out.pop()
            continue
        out.append(fct)

    total = eye(2 * m)
    for fct in out:
        total = mul(total, expand(fct))
    if not np.array_equal(total, f):
        raise RuntimeError("factor product does not reproduce the input")
    return out


def _cancels(left: ElementaryFactor, right: ElementaryFactor) -> bool:
    pair = {left.kind, right.kind}
    if pair != {"OMEGA", "GK"}:
        return False
    gk = left if left.kind == "GK" else right
    return gk.k == gk.m


def _aq_block(q: np.ndarray, q_inv: np.ndarray) -> np.ndarray:
    """A_Q = [[Q, 0], [0, Q^-T]] from Q and its known inverse."""
    m = q.shape[0]
    out = zeros((2 * m, 2 * m))
    out[:m, :m] = q
    out[m:, m:] = q_inv.T
    return out


def _tr_gates(r: np.ndarray) -> list[Gate]:
    m = r.shape[0]
    gates = [gate("P", i + 1) for i in range(m) if r[i, i]]
    for i in range(m):
        for j in range(i + 1, m):
            if r[i, j]:
                gates.append(gate("CZ", i + 1, j + 1))
    return gates


def factor_to_gates(f: ElementaryFactor) -> list[Gate]:
    """Physical gates realizing one factor; circuit order is product order."""
    m = f.m
    if f.kind == "OMEGA":
        return [gate("H", q) for q in range(1, m + 1)]
    if f.kind == "GK":
        return [gate("H", q) for q in range(1, f.k + 1)]
    if f.kind == "TR":
        return _tr_gates(f.r)
    if f.kind == "AQ":
        perm, low, up = lu_decompose(f.q)
        gates = []
        image = np.argsort(perm)
        if not np.array_equal(image, np.arange(m)):
            gates.append(gate("PERMUTE", *(int(i) + 1 for i in image)))
        # CNOT matrix I + E_ct adds the control coordinate onto the target;
        # emitting L's entries with controls ascending multiplies out to L
        # exactly, and U's with controls descending to U
        for c in range(1, m):
            for t in range(c):
                if low[c, t]:
                    gates.append(gate("CNOT", c + 1, t + 1))
        for c in range(m - 2, -1, -1):
            for t in range(c + 1, m):
                if up[c, t]:
                    gates.append(gate("CNOT", c + 1, t + 1))
        return gates
    raise ValueError("unknown factor kind %r" % f.kind)


def factors_to_circuit(factors, m: int) -> Circuit:
    gates: list[Gate] = []
    for f in factors:
        gates.extend(factor_to_gates(f))
    return circuit(m, gates)
