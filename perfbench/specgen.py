"""Seeded random logical Clifford operators, written in the spec file format.

A logical Clifford on n encoded qubits is, up to signs, an element of
Sp(2n, F2).  One is drawn uniformly by choosing a symplectic basis
u_1, v_1, ..., u_n, v_n one vector at a time: u_i uniformly among the nonzero
vectors of the symplectic complement of the pairs chosen so far, v_i uniformly
among the vectors of that complement with <u_i, v_i> = 1.  The group acts
simply transitively on ordered symplectic bases, so every element is equally
likely.  Logical X_i is sent to the code operator named by u_i (its X bits
pick logical X representatives, its Z bits logical Z representatives), Z_i to
the one named by v_i, and each image gets a random sign.

Only the standard library is used, so a seed names the same spec on every
platform; string seeds are hashed by ``random.Random`` with SHA-512.
"""

from __future__ import annotations

import random

_LETTER = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
_BITS = {v: k for k, v in _LETTER.items()}


def _inner(x: int, y: int, n: int) -> int:
    """Symplectic inner product of two 2n-bit vectors (X bits low, Z bits high)."""
    mask = (1 << n) - 1
    return bin(((x & mask) & (y >> n)) ^ ((x >> n) & (y & mask))).count("1") & 1


def _project(x: int, pairs: list[tuple[int, int]], n: int) -> int:
    """Map x onto the symplectic complement of the chosen (u, v) pairs.

    The map is linear and onto with equal-sized fibres, so a uniform x gives
    a uniform point of the complement.
    """
    for u, v in pairs:
        if _inner(x, v, n):
            x ^= u
        if _inner(x, u, n):
            x ^= v
    return x


def random_symplectic_basis(n: int, rng: random.Random) -> list[int]:
    """Rows u_1..u_n, v_1..v_n of a uniform random element of Sp(2n, F2)."""
    pairs: list[tuple[int, int]] = []
    for _ in range(n):
        u = 0
        while not u:
            u = _project(rng.getrandbits(2 * n), pairs, n)
        v = 0
        while not _inner(u, v, n):
            v = _project(rng.getrandbits(2 * n), pairs, n)
        pairs.append((u, v))
    return [u for u, _ in pairs] + [v for _, v in pairs]


def _label_bits(label: str) -> tuple[int, int]:
    """(X bits, Z bits) of an unsigned Pauli label, qubit 1 in bit 0."""
    a = b = 0
    for t, ch in enumerate(label):
        x, z = _BITS[ch]
        a |= x << t
        b |= z << t
    return a, b


def _combine(row: int, lx: list[tuple[int, int]], lz: list[tuple[int, int]],
             m: int) -> str:
    n = len(lx)
    a = b = 0
    for j in range(n):
        for bit, (pa, pb) in ((row >> j, lx[j]), (row >> (n + j), lz[j])):
            if bit & 1:
                a ^= pa
                b ^= pb
    return "".join(_LETTER[((a >> t) & 1, (b >> t) & 1)] for t in range(m))


def random_logical_spec(name: str, logical_x: list[str], logical_z: list[str],
                        seed) -> str:
    """Spec text for a uniform random signed logical Clifford.

    logical_x and logical_z are the code's unsigned representative labels, in
    order; the same seed always yields the same text.
    """
    if len(logical_x) != len(logical_z) or not logical_x:
        raise ValueError("need matching, nonempty logical X and Z lists")
    m = len(logical_x[0])
    n = len(logical_x)
    rng = random.Random(seed)
    basis = random_symplectic_basis(n, rng)
    lx = [_label_bits(s) for s in logical_x]
    lz = [_label_bits(s) for s in logical_z]
    lines = ["op %s" % name, "policy centralize"]
    for word, rows in (("mapX", basis[:n]), ("mapZ", basis[n:])):
        for i, row in enumerate(rows, start=1):
            sign = "-" if rng.getrandbits(1) else ""
            lines.append("%s %d %s%s" % (word, i, sign, _combine(row, lx, lz, m)))
    return "\n".join(lines) + "\n"
