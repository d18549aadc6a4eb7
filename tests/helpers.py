"""Matrix literals shared across test modules, including the four published
eight-element solution sets for the [[6,4,2]] code's logical gates."""

from __future__ import annotations

import numpy as np

I6 = np.eye(6, dtype=np.uint8)
Z6 = np.zeros((6, 6), dtype=np.uint8)
J6 = np.ones((6, 6), dtype=np.uint8)


def bits(*rows: str) -> np.ndarray:
    return np.array([[int(c) for c in r] for r in rows], dtype=np.uint8)


def sparse_rows(at: dict[int, str]) -> np.ndarray:
    out = np.zeros((6, 6), dtype=np.uint8)
    for r, s in at.items():
        out[r - 1] = [int(c) for c in s]
    return out


def eight_variants(a, b, c, d) -> list[np.ndarray]:
    """The eight solutions sharing a base matrix: the three free choices add
    the all-ones block to B, to C, and to A and D together."""
    out = []
    for sel in range(8):
        f = np.block([
            [a ^ (J6 if sel & 4 else 0), b ^ (J6 if sel & 1 else 0)],
            [c ^ (J6 if sel & 2 else 0), d ^ (J6 if sel & 4 else 0)],
        ]).astype(np.uint8)
        out.append(f)
    return out


CNOT21_A = bits("100000", "010000", "111000", "000100", "000010", "110001")
CNOT21_D = bits("101001", "011001", "001000", "000100", "000010", "000001")
HAD1_A = bits("100000", "100000", "001000", "000100", "000010", "110001")
HAD1_D = bits("110001", "000001", "001000", "000100", "000010", "000001")

B_PHASE = sparse_rows({2: "010001", 6: "010001"})
B_CZ = sparse_rows({2: "001001", 3: "010001", 6: "011000"})


def golden_solution_sets() -> dict[str, list[np.ndarray]]:
    return {
        "phase1": eight_variants(I6, B_PHASE, Z6, I6),
        "cz12": eight_variants(I6, B_CZ, Z6, I6),
        "cnot21": eight_variants(CNOT21_A, Z6, Z6, CNOT21_D),
        "hadamard1": eight_variants(
            HAD1_A, B_PHASE, sparse_rows({1: "110000", 2: "110000"}), HAD1_D),
    }


def as_set(mats) -> set[bytes]:
    return {np.asarray(f, dtype=np.uint8).tobytes() for f in mats}


# Reference GF(2) kernels: plain numpy row operations on uint8 arrays, one
# column at a time.  sympcliff's packed-row kernels must agree with these bit
# for bit, including the transform T and the pivot rule (first row at or
# below the current one with a 1).

def ref_mul(*mats) -> np.ndarray:
    out = np.asarray(mats[0], dtype=np.int64) % 2
    for m in mats[1:]:
        out = out @ (np.asarray(m, dtype=np.int64) % 2)
        out %= 2
    return out.astype(np.uint8)


def ref_rref(m_in) -> tuple[np.ndarray, list[int], np.ndarray]:
    r = np.asarray(m_in, dtype=np.uint8).copy()
    rows, cols = r.shape
    t = np.eye(rows, dtype=np.uint8)
    pivots: list[int] = []
    pr = 0
    for c in range(cols):
        if pr == rows:
            break
        hit = np.nonzero(r[pr:, c])[0]
        if hit.size == 0:
            continue
        piv = pr + int(hit[0])
        if piv != pr:
            r[[pr, piv]] = r[[piv, pr]]
            t[[pr, piv]] = t[[piv, pr]]
        sel = r[:, c].astype(bool).copy()
        sel[pr] = False
        if sel.any():
            r[sel] ^= r[pr]
            t[sel] ^= t[pr]
        pivots.append(c)
        pr += 1
    return r, pivots, t


def ref_rank(m_in) -> int:
    return len(ref_rref(m_in)[1])


def ref_invert(m_in) -> np.ndarray:
    from sympcliff import SingularMatrixError
    m = np.asarray(m_in, dtype=np.uint8)
    n = m.shape[0]
    if m.ndim != 2 or m.shape[1] != n:
        raise SingularMatrixError("matrix is not square")
    r, pivots, t = ref_rref(m)
    if len(pivots) != n:
        raise SingularMatrixError("matrix is singular over GF(2)")
    return t


def ref_nullspace(m_in) -> np.ndarray:
    m = np.asarray(m_in, dtype=np.uint8)
    cols = m.shape[1]
    r, pivots, _ = ref_rref(m)
    free = [c for c in range(cols) if c not in set(pivots)]
    basis = np.zeros((len(free), cols), dtype=np.uint8)
    for i, f in enumerate(free):
        basis[i, f] = 1
        for row, c in enumerate(pivots):
            basis[i, c] = r[row, f]
    if len(free) > 1:
        basis = ref_rref(basis)[0]
    return basis


def ref_solve_linear(m_in, rhs):
    m = np.asarray(m_in, dtype=np.uint8)
    b = np.asarray(rhs, dtype=np.uint8).ravel()
    r, pivots, t = ref_rref(m)
    c = ref_mul(t, b.reshape(-1, 1)).ravel()
    if c[len(pivots):].any():
        return None
    x = np.zeros(m.shape[1], dtype=np.uint8)
    for row, pc in enumerate(pivots):
        x[pc] = c[row]
    return x, ref_nullspace(m)


def ref_coset_leader(x, basis) -> np.ndarray:
    y = np.asarray(x, dtype=np.uint8).copy().ravel()
    reduced = ref_rref(basis)[0] if np.size(basis) else basis
    for row in reduced:
        nz = np.nonzero(row)[0]
        if nz.size and y[nz[0]]:
            y ^= row
    return y


def ref_lex_min_nonzero(basis) -> np.ndarray:
    from sympcliff import InfeasibleError
    b = np.asarray(basis, dtype=np.uint8)
    if b.shape[0] == 0 or not b.any():
        raise InfeasibleError("span is trivial")
    reduced, pivots, _ = ref_rref(b)
    return reduced[len(pivots) - 1].copy()


def ref_lu_decompose(q_in):
    from sympcliff import SingularMatrixError
    a = np.asarray(q_in, dtype=np.uint8).copy()
    n = a.shape[0]
    if a.ndim != 2 or a.shape[1] != n:
        raise SingularMatrixError("matrix is not square")
    perm = np.arange(n)
    for c in range(n):
        hit = np.nonzero(a[c:, c])[0]
        if hit.size == 0:
            raise SingularMatrixError("matrix is singular over GF(2)")
        piv = c + int(hit[0])
        if piv != c:
            a[[c, piv]] = a[[piv, c]]
            perm[[c, piv]] = perm[[piv, c]]
        for r in range(c + 1, n):
            if a[r, c]:
                a[r, c + 1:] ^= a[c, c + 1:]
    low = np.tril(a, -1) ^ np.eye(n, dtype=np.uint8)
    return perm, low, np.triu(a, 0)
