"""Matrix literals shared across test modules, including the four published
eight-element solution sets for the [[6,4,2]] code's logical gates; the
numpy reference implementations that sympcliff's packed kernels are checked
against; the per-letter reference Pauli labels; the gate()-per-line circuit
parser; random circuits over every gate kind; and a hypothesis strategy for
random symplectic matrices."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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


# Reference factoring: the numpy matrix of one factor, the numpy
# decomposition (rref, nullspace, invert and mul on m x m blocks, checked
# products of ref_expand'ed 2m x 2m factors), its gate emission through
# validated gate() calls, and the greedy depth over Gate objects.
# sympcliff's packed factors, factoring core and emitter must agree with
# these factor for factor and gate for gate.

def ref_expand(f) -> np.ndarray:
    """The 2m x 2m matrix of one factor, built block by block from f.q,
    f.r and f.k."""
    m = f.m
    eye = np.eye(m, dtype=np.uint8)
    out = np.zeros((2 * m, 2 * m), dtype=np.uint8)
    if f.kind == "OMEGA":
        out[:m, m:] = eye
        out[m:, :m] = eye
        return out
    if f.kind == "AQ":
        return _ref_aq_block(f.q, ref_invert(f.q))
    if f.kind == "TR":
        out[:m, :m] = eye
        out[m:, m:] = eye
        out[:m, m:] = f.r
        return out
    if f.kind == "GK":
        u_k = np.zeros((m, m), dtype=np.uint8)
        u_k[:f.k, :f.k] = np.eye(f.k, dtype=np.uint8)
        l_mk = eye ^ u_k
        out[:m, :m] = l_mk
        out[m:, m:] = l_mk
        out[:m, m:] = u_k
        out[m:, :m] = u_k
        return out
    raise ValueError("unknown factor kind %r" % f.kind)

def _ref_aq_block(q, q_inv):
    m = q.shape[0]
    out = np.zeros((2 * m, 2 * m), dtype=np.uint8)
    out[:m, :m] = q
    out[m:, m:] = q_inv.T
    return out


def _ref_is_identity(f) -> bool:
    if f.kind == "AQ":
        return bool(np.array_equal(f.q, np.eye(f.m, dtype=np.uint8)))
    if f.kind == "TR":
        return not f.r.any()
    if f.kind == "GK":
        return f.k == 0
    return False


def _ref_cancels(left, right) -> bool:
    if {left.kind, right.kind} != {"OMEGA", "GK"}:
        return False
    gk = left if left.kind == "GK" else right
    return gk.k == gk.m


def ref_decompose(f_in):
    import sympcliff as sc
    f = sc.asbits(f_in)
    if not sc.is_symplectic(f):
        raise ValueError("input matrix is not symplectic")
    m = f.shape[0] // 2
    eye = np.eye(m, dtype=np.uint8)
    a_blk = f[:m, :m]
    b_blk = f[:m, m:]
    r_a, pivots, q11inv = sc.rref(a_blk)
    k = len(pivots)
    q2inv = np.zeros((m, m), dtype=np.uint8)
    for j, c in enumerate(pivots):
        q2inv[c, j] = 1
    null_a = sc.nullspace(a_blk)
    for j in range(m - k):
        q2inv[:, k + j] = null_a[j]
    q2 = sc.invert(q2inv)
    b_prime = sc.mul(q11inv, b_blk, q2.T)
    r_k = b_prime[:k, :k]
    e_blk = b_prime[:k, k:]
    b_mk = b_prime[k:, k:]
    if b_prime[k:, :k].any() or not np.array_equal(r_k, r_k.T):
        raise RuntimeError("B block of a symplectic input lost its normal form")
    q12inv = eye.copy()
    q12inv[k:, k:] = sc.invert(b_mk)
    q13inv = eye.copy()
    q13inv[:k, k:] = e_blk
    q1inv = sc.mul(q13inv, q12inv, q11inv)
    q1 = sc.invert(q1inv)
    r2 = np.zeros((m, m), dtype=np.uint8)
    r2[:k, :k] = r_k
    tr2 = sc.f_tr(r2)
    gk = sc.f_gk(m, k)
    mid = sc.mul(_ref_aq_block(q1inv, q1), f, _ref_aq_block(q2inv, q2),
                 ref_expand(tr2), ref_expand(gk), sc.omega(m))
    r1 = mid[m:, :m]
    if not (np.array_equal(mid[:m, :m], eye) and not mid[:m, m:].any()
            and np.array_equal(mid[m:, m:], eye)
            and np.array_equal(r1, r1.T)):
        raise RuntimeError("reduced input is not a lower T_R factor")
    factors = [sc.ElementaryFactor("AQ", m, q=q1), sc.f_omega(m), sc.f_tr(r1),
               gk, tr2, sc.ElementaryFactor("AQ", m, q=q2)]
    out = []
    for fct in factors:
        if _ref_is_identity(fct):
            continue
        if out and _ref_cancels(out[-1], fct):
            out.pop()
            continue
        out.append(fct)
    total = np.eye(2 * m, dtype=np.uint8)
    for fct in out:
        total = sc.mul(total, ref_expand(fct))
    if not np.array_equal(total, f):
        raise RuntimeError("factor product does not reproduce the input")
    return out


def ref_factor_to_gates(f):
    from sympcliff import gate, lu_decompose
    m = f.m
    if f.kind == "OMEGA":
        return [gate("H", q) for q in range(1, m + 1)]
    if f.kind == "GK":
        return [gate("H", q) for q in range(1, f.k + 1)]
    if f.kind == "TR":
        gates = [gate("P", i + 1) for i in range(m) if f.r[i, i]]
        for i in range(m):
            for j in range(i + 1, m):
                if f.r[i, j]:
                    gates.append(gate("CZ", i + 1, j + 1))
        return gates
    if f.kind == "AQ":
        perm, low, up = lu_decompose(f.q)
        gates = []
        image = np.argsort(perm)
        if not np.array_equal(image, np.arange(m)):
            gates.append(gate("PERMUTE", *(int(i) + 1 for i in image)))
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


def ref_depth(c) -> int:
    stage: dict[int, int] = {}
    deepest = 0
    for g in c.gates:
        qs = range(1, c.m + 1) if g.kind == "PERMUTE" else g.qubits
        s = 1 + max((stage.get(q, 0) for q in qs), default=0)
        for q in qs:
            stage[q] = s
        deepest = max(deepest, s)
    return deepest


def ref_parse(text: str, m: int | None = None):
    """circuit.parse as it read every line: gate() on each gate line, whose
    error is that line's message; then the header and m checks; then
    Circuit's own.  Only an integer m (or None) is in its domain."""
    import sympcliff as sc
    from sympcliff.gf2core import ParseError, _tokens
    header_m = None
    gates = []
    for ln, toks in _tokens(text):
        if toks[0] == "qubits":
            if gates or header_m is not None:
                raise ParseError("line %d: qubits header must come first" % ln)
            try:
                header_m, = map(int, toks[1:])
            except ValueError:
                raise ParseError("line %d: bad qubits header" % ln) from None
            continue
        try:
            gates.append(sc.gate(toks[0], *[int(t) for t in toks[1:]]))
        except ValueError as exc:
            raise ParseError("line %d: %s" % (ln, exc)) from None
    if header_m is not None and m is not None and header_m != m:
        raise ParseError("header says %d qubits, caller says %d" % (header_m, m))
    if header_m is None and m is None:
        raise ParseError("qubit count unknown: no header and no m argument")
    use_m = header_m if header_m is not None else m
    if use_m < 1:
        raise ParseError("qubit count must be at least 1, got %s" % use_m)
    try:
        return sc.circuit(use_m, gates)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


# Reference ranking: the per-solution path that synth's batch replaced.  The
# lane core must give every lane ref_unsigned's gate pairs and (depth,
# gates) pair, synth._solutions must list ref_solutions' matrices in the
# same order, and synth._sliced must give ref_slice of them.

def ref_unsigned(f, m):
    """F's unsigned circuit as a list of Gates (each equal to its (kind,
    qubits) pair), with its (depth, gates) pair, from the scalar packed
    factoring core and gate emitter."""
    from sympcliff.circuit import circuit, depth
    from sympcliff.decompose import _emit, _factor
    from sympcliff.gf2core import _pack
    gates = list(_emit(_factor(_pack(f), m)))
    return gates, (depth(circuit(m, gates)), len(gates))


def ref_slice(stack):
    """A stack of N matrices (N, r, c) as one sliced r x c matrix for the
    lane core: entry (i, j) is an int holding lane l's entry in bit l."""
    from sympcliff.gf2core import _pack
    n, r, c = stack.shape
    flat = _pack(stack.reshape(n, r * c).T)
    return [flat[i:i + c] for i in range(0, r * c, c)]


def ref_solutions(code, f0, start, stop):
    """Solutions start..stop-1 as (I + Omega Sg^T S Sg) f0, one product per
    index, S's upper triangle set row-major from the index bits, most
    significant first."""
    import sympcliff as sc
    sg = sc.stab_gamma(code)
    k = code.k
    left = sc.mul(sc.omega(code.m), sg.T)
    right = sc.mul(sg, f0)
    rows, cols = np.triu_indices(k)
    for i in range(start, stop):
        s = np.zeros((k, k), dtype=np.uint8)
        s[rows, cols] = [(i >> b) & 1 for b in reversed(range(rows.size))]
        yield f0 ^ sc.mul(left, s | s.T, right)


# Reference transvection chain: the numpy find_symplectic, which re-solves
# the intermediate-vector system from scratch at every step with
# solve_linear.  sympcliff's packed chain must agree with it matrix for
# matrix and transvection for transvection.

def _ref_choose_w(xt, y, prev_ys):
    import sympcliff as sc
    rows = np.vstack([xt, y] + prev_ys)
    rhs = np.concatenate([[1, 1], sc.gram(rows[2:], y.reshape(1, -1)).ravel()])
    sol = sc.solve_linear(sc.mul(rows, sc.omega(xt.shape[0] // 2)), rhs)
    if sol is None:
        raise RuntimeError("intermediate vector system is not solvable")
    return sol[0]


def _ref_step(xt, y, prev_ys):
    import sympcliff as sc
    if np.array_equal(xt, y):
        return []
    if sc.symplectic_inner(xt, y) == 1:
        return [xt ^ y]
    w = _ref_choose_w(xt, y, prev_ys)
    return [w ^ y, xt ^ w]


def ref_matrices(system) -> tuple[np.ndarray, np.ndarray]:
    """Sources and targets stacked as t x 2m matrices, also when t = 0."""
    shape = (len(system), 2 * system.m)
    return (np.array(system.xs, dtype=np.uint8).reshape(shape),
            np.array(system.ys, dtype=np.uint8).reshape(shape))


def ref_validate(system) -> None:
    import sympcliff as sc
    t = len(system)
    xs, ys = ref_matrices(system)
    if sc.rank(xs) != t:
        raise sc.InfeasibleError("source vectors are linearly dependent")
    if sc.rank(ys) != t:
        raise sc.InfeasibleError("target vectors are linearly dependent")
    bad = np.argwhere(np.triu(sc.gram(xs) != sc.gram(ys), 1))
    if bad.size:
        raise sc.InfeasibleError(
            "constraints %d and %d have incompatible inner products" % tuple(bad[0]))


def ref_find_symplectic(system, return_transvections=False):
    import sympcliff as sc
    ref_validate(system)
    m = system.m
    f = np.eye(2 * m, dtype=np.uint8)
    hs = []
    for i in range(len(system)):
        xt = sc.mul(system.xs[i].reshape(1, -1), f).ravel()
        for h in _ref_step(xt, system.ys[i], system.ys[:i]):
            f ^= sc.mul(f, np.concatenate([h[m:], h[:m]]).reshape(-1, 1)) * h
            hs.append(h)
    xs, ys = ref_matrices(system)
    if not np.array_equal(sc.mul(xs, f), ys):
        raise RuntimeError("transvection chain does not satisfy the system")
    if return_transvections:
        return f, hs
    return f


# Reference basis completion and enumeration: the numpy
# symplectic_gram_schmidt, _frame and _sweep on uint8 rows.  sympcliff's
# packed versions must agree with them pair for pair and solution for
# solution, in order.

def ref_symplectic_gram_schmidt(seed, m=None):
    import sympcliff as sc
    from sympcliff import InfeasibleError
    from sympcliff.gf2core import zeros
    vecs = [sc.asbits(s).ravel() for s in seed]
    if vecs:
        if m is None:
            m = vecs[0].shape[0] // 2
        if any(v.shape[0] != 2 * m for v in vecs):
            raise InfeasibleError("seed vectors have inconsistent lengths")
    elif m is None:
        raise ValueError("m is required for an empty seed")
    n = len(vecs)
    if n > 2 * m:
        raise InfeasibleError("more seed vectors than basis slots")
    if n and sc.rank(np.vstack(vecs)) != n:
        raise InfeasibleError("seed vectors are linearly dependent")

    partner = [None] * n
    if n:
        for i, row in enumerate(sc.gram(np.vstack(vecs))):
            mates = np.flatnonzero(row)
            if mates.size > 1:
                raise InfeasibleError(
                    "seed vector %d pairs with %d others; Gram pattern is not a matching"
                    % (i, mates.size))
            if mates.size:
                partner[i] = int(mates[0])

    slots = []
    seen = [False] * n
    for i in range(n):
        if seen[i]:
            continue
        seen[i] = True
        j = partner[i]
        if j is None:
            slots.append([vecs[i], None])
        else:
            seen[j] = True
            slots.append([vecs[i], vecs[j]])

    w = sc.omega(m)
    fixed = [v for pair in slots for v in pair if v is not None]

    def pick(target_products, nonzero_only):
        mat = sc.mul(np.vstack(fixed), w) if fixed else zeros((0, 2 * m))
        sol = sc.solve_linear(mat, target_products)
        if sol is None:
            raise InfeasibleError("seed cannot be extended to a symplectic basis")
        return sol[1][-1] if nonzero_only else sol[0]

    for pair in slots:
        if pair[1] is None:
            req = np.array([1 if f is pair[0] else 0 for f in fixed], dtype=np.uint8)
            pair[1] = pick(req, nonzero_only=False)
            fixed.append(pair[1])
    while len(slots) < m:
        u = pick(zeros(len(fixed)), nonzero_only=True)
        fixed.append(u)
        req = np.array([1 if f is u else 0 for f in fixed], dtype=np.uint8)
        v = pick(req, nonzero_only=False)
        fixed.append(v)
        slots.append([u, v])

    basis = np.array([p[0] for p in slots] + [p[1] for p in slots], dtype=np.uint8)
    if basis.size and not np.array_equal(sc.gram(basis), w):
        raise RuntimeError("completed basis is not hyperbolic")
    return [(p[0], p[1]) for p in slots]


def ref_matched(xs):
    """The numpy _matched: row i, in order, pairs with the first later row j
    of product 1, and every other later row r gains <r, x_j> x_i +
    <r, x_i> x_j."""
    import sympcliff as sc
    xs = [np.array(x, dtype=np.uint8) for x in xs]
    todo = list(range(len(xs)))
    while todo:
        i = todo.pop(0)
        j = next((j for j in todo if sc.symplectic_inner(xs[i], xs[j])), None)
        if j is None:
            continue
        todo.remove(j)
        for r in todo:
            a = sc.symplectic_inner(xs[r], xs[j])
            c = sc.symplectic_inner(xs[r], xs[i])
            xs[r] = xs[r] ^ xs[i] * a ^ xs[j] * c
    return xs


def ref_frame(system):
    f0 = ref_find_symplectic(system)
    sources = ref_matched(system.xs)
    pairs = ref_symplectic_gram_schmidt(sources, m=system.m)
    basis = np.vstack([p[0] for p in pairs] + [p[1] for p in pairs])
    rows = np.array(sources, dtype=np.uint8).reshape(len(sources), 2 * system.m)
    hits = (rows[:, None] == basis).all(axis=2)
    if (hits.sum(axis=1) != 1).any():
        raise RuntimeError("a source vector is not exactly one basis row")
    return f0, basis, hits.any(axis=0)


def ref_sweep(f0, basis, pinned):
    import sympcliff as sc
    from sympcliff.gf2core import zeros
    two_m = basis.shape[0]
    w_form = sc.omega(two_m // 2)
    basis_inv = sc.invert(basis)
    a = sc.mul(basis, f0)
    free_rows = [r for r in range(two_m) if not pinned[r]]
    b = a.copy()

    def rec(pos):
        if pos == len(free_rows):
            yield sc.mul(basis_inv, b)
            return
        r = free_rows[pos]
        done = [q for q in range(two_m) if pinned[q]] + free_rows[:pos]
        if done:
            mat = sc.mul(b[done], w_form)
            rhs = w_form[r, done]
        else:
            mat = zeros((0, two_m))
            rhs = zeros(0)
        sol = sc.solve_linear(mat, rhs)
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


def ref_iter_all(system):
    yield from ref_sweep(*ref_frame(system))

# Reference conjugation: the per-gate numpy column updates on product-form
# exponents.  sympcliff's bit-sliced tableau must agree with it label for
# label and sign for sign.

def _ref_apply_gate_batch(g, a, b, k):
    """Conjugate a batch of product-form Paulis (rows of a, b; phases k) by one gate.

    Updates are the exact Heisenberg rules; k holds product-form exponents
    mod 4 as int64.
    """
    kind = g.kind
    if kind == "H":
        q = g.qubits[0] - 1
        k += 2 * (a[:, q].astype(np.int64) * b[:, q])
        tmp = a[:, q].copy()
        a[:, q] = b[:, q]
        b[:, q] = tmp
    elif kind == "P":
        q = g.qubits[0] - 1
        k += a[:, q]
        b[:, q] ^= a[:, q]
    elif kind == "X":
        q = g.qubits[0] - 1
        k += 2 * b[:, q].astype(np.int64)
    elif kind == "Z":
        q = g.qubits[0] - 1
        k += 2 * a[:, q].astype(np.int64)
    elif kind == "Y":
        q = g.qubits[0] - 1
        k += 2 * (a[:, q].astype(np.int64) + b[:, q])
    elif kind == "CZ":
        q, r = g.qubits[0] - 1, g.qubits[1] - 1
        k += 2 * (a[:, q].astype(np.int64) * a[:, r])
        b[:, q] ^= a[:, r]
        b[:, r] ^= a[:, q]
    elif kind == "CNOT":
        c, t = g.qubits[0] - 1, g.qubits[1] - 1
        a[:, t] ^= a[:, c]
        b[:, c] ^= b[:, t]
    elif kind == "PERMUTE":
        sigma = np.array(g.qubits, dtype=np.int64) - 1
        inv = np.argsort(sigma)
        a[:, :] = a[:, inv]
        b[:, :] = b[:, inv]
    else:
        raise ValueError("unknown gate kind %r" % kind)
    return a, b, k


def ref_conjugate_many(circ, paulis):
    """Conjugate each operator by the whole circuit, exactly."""
    from sympcliff.pauli import PauliOperator
    ps = list(paulis)
    if not ps:
        return []
    a = np.vstack([p.a for p in ps]).copy()
    b = np.vstack([p.b for p in ps]).copy()
    k = np.array([p.kappa_d for p in ps], dtype=np.int64)
    for g in circ.gates:
        a, b, k = _ref_apply_gate_batch(g, a, b, k)
    out = []
    for i, p in enumerate(ps):
        kappa_e = (int(k[i]) - _idot(a[i], b[i])) % 4
        out.append(PauliOperator(p.m, kappa_e, a[i], b[i]))
    return out


def ref_induced_symplectic(circ):
    """The binary symplectic matrix of a circuit, plus per-row signs.

    Row i < m is the image of X on qubit i+1, row m + j the image of Z on
    qubit j+1; signs[i] is the +/-1 phase the corresponding generator picks
    up (circuits of these gates never map a Hermitian Pauli to an imaginary
    multiple).
    """
    m = circ.m
    a = np.vstack([np.eye(m, dtype=np.uint8), np.zeros((m, m), np.uint8)])
    b = np.vstack([np.zeros((m, m), np.uint8), np.eye(m, dtype=np.uint8)])
    k = np.zeros(2 * m, dtype=np.int64)
    for g in circ.gates:
        a, b, k = _ref_apply_gate_batch(g, a, b, k)
    kappa_e = (k - (a.astype(np.int64) * b).sum(axis=1)) % 4
    if (kappa_e % 2).any():
        raise RuntimeError("image of a Hermitian row is not Hermitian")
    signs = np.where(kappa_e == 0, 1, -1).astype(np.int64)
    return np.hstack([a, b]), signs


# Reference Pauli operator: the array-backed class, two read-only uint8
# arrays a and b, with its products and phases as integer dot products.
# sympcliff's packed-int operator must agree with it operation for
# operation.

def _idot(x: np.ndarray, y: np.ndarray) -> int:
    # integer dot product; GF(2) reduction here would lose phase information
    return int(x.astype(np.int64) @ y.astype(np.int64))


@dataclass(frozen=True, eq=False)
class RefPauli:
    """iota^kappa * E(a, b) on m qubits; kappa is the Hermitian-form exponent."""

    m: int
    kappa: int
    a: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)

    def __post_init__(self):
        from sympcliff.gf2core import asbits
        a = asbits(self.a).ravel().copy()
        b = asbits(self.b).ravel().copy()
        if a.shape != (self.m,) or b.shape != (self.m,):
            raise ValueError("a and b must each hold m bits")
        a.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "kappa", int(self.kappa) % 4)

    def __eq__(self, other):
        if not isinstance(other, RefPauli):
            return NotImplemented
        return (self.m == other.m and self.kappa == other.kappa
                and np.array_equal(self.a, other.a) and np.array_equal(self.b, other.b))

    def __hash__(self):
        return hash((self.m, self.kappa, self.a.tobytes(), self.b.tobytes()))

    @property
    def kappa_d(self) -> int:
        """Phase exponent relative to the bare product form X^a Z^b."""
        return (self.kappa + _idot(self.a, self.b)) % 4


def ref_pauli_e(a, b, kappa: int = 0) -> RefPauli:
    from sympcliff.gf2core import asbits
    a = asbits(a).ravel()
    return RefPauli(a.shape[0], kappa, a, asbits(b).ravel())


def ref_pauli_d(a, b, kappa: int = 0) -> RefPauli:
    from sympcliff.gf2core import asbits
    a = asbits(a).ravel()
    b = asbits(b).ravel()
    return RefPauli(a.shape[0], kappa - _idot(a, b), a, b)


def ref_gamma(p) -> np.ndarray:
    return np.concatenate([p.a, p.b])


def ref_from_gamma(row, kappa: int = 0) -> RefPauli:
    from sympcliff.gf2core import asbits
    row = asbits(row).ravel()
    m = row.shape[0] // 2
    return RefPauli(m, kappa, row[:m], row[m:])


def ref_multiply(p, q) -> RefPauli:
    if p.m != q.m:
        raise ValueError("qubit counts differ")
    kappa = (p.kappa + q.kappa
             + _idot(p.a, p.b) + _idot(q.a, q.b)
             + 2 * _idot(q.a, p.b)
             - _idot(p.a ^ q.a, p.b ^ q.b))
    return RefPauli(p.m, kappa, p.a ^ q.a, p.b ^ q.b)


def ref_commutes(p, q) -> bool:
    from sympcliff.gf2core import symplectic_inner
    return symplectic_inner(ref_gamma(p), ref_gamma(q)) == 0


# Reference Pauli labels: one Python lookup per letter.  sympcliff's
# table-driven labels must agree with these, error messages included.

_LETTER = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
_BITS = {v: k for k, v in _LETTER.items()}
_PREFIX = {0: "", 1: "+i", 2: "-", 3: "-i"}


def ref_to_label(p) -> str:
    letters = "".join(_LETTER[(int(x), int(z))] for x, z in zip(p.a, p.b))
    return _PREFIX[p.kappa] + letters


def ref_from_label(text: str, m: int | None = None):
    """Parse a label: optional prefix in {+, -, +i, -i}, then m letters IXYZ."""
    from sympcliff.gf2core import ParseError
    s = text.strip()
    kappa = 0
    for pref, k in (("+i", 1), ("-i", 3), ("+", 0), ("-", 2)):
        if s.startswith(pref):
            kappa = k
            s = s[len(pref):]
            break
    if not s:
        raise ParseError("label %r has no Pauli letters" % text)
    bits = []
    for ch in s:
        if ch not in _BITS:
            raise ParseError("label %r: bad letter %r" % (text, ch))
        bits.append(_BITS[ch])
    if m is not None and len(bits) != m:
        raise ParseError("label %r has %d letters, expected %d" % (text, len(bits), m))
    a = np.array([x for x, _ in bits], dtype=np.uint8)
    b = np.array([z for _, z in bits], dtype=np.uint8)
    return RefPauli(len(bits), kappa, a, b)


def random_circuit(rng, m, count):
    """count gates drawn uniformly from every gate kind, on m qubits."""
    import sympcliff as sc
    from sympcliff.circuit import GATE_KINDS
    gs = []
    while len(gs) < count:
        kind = GATE_KINDS[rng.integers(len(GATE_KINDS))]
        if kind == "PERMUTE":
            gs.append(sc.gate(kind, *(rng.permutation(m) + 1)))
        elif kind in ("CZ", "CNOT"):
            if m > 1:
                q, r = rng.choice(m, size=2, replace=False) + 1
                gs.append(sc.gate(kind, int(q), int(r)))
        else:
            gs.append(sc.gate(kind, int(rng.integers(m)) + 1))
    return sc.circuit(m, gs)


# Random symplectic matrices

SYMPLECTIC_FAMILIES = ("identity", "omega", "tr", "aq_tr_aq", "aq_omega_tr",
                       "lower_tr", "transvections")


def bit_arrays(rows, cols):
    return arrays(np.uint8, (rows, cols), elements=st.integers(0, 1))


def _symmetric(draw, m):
    s = draw(bit_arrays(m, m))
    return np.triu(s) | np.triu(s, 1).T


def _invertible(draw, m):
    eye = np.eye(m, dtype=np.uint8)
    low = np.tril(draw(bit_arrays(m, m)), -1) | eye
    up = np.triu(draw(bit_arrays(m, m)), 1) | eye
    return ref_mul(low, up)[list(draw(st.permutations(range(m))))]


@st.composite
def symplectic(draw, max_m=12, families=SYMPLECTIC_FAMILIES, min_m=1):
    """A symplectic 2m x 2m matrix, min_m <= m <= max_m, from families that reach
    every branch of the factoring: the identity (every factor dropped),
    Omega (rank-0 A block, nothing else), a pure T_R and A_Q T_R A_Q (rank-m
    A block, where Omega and G_m cancel), A_Q Omega T_R (rank-0 A block),
    Omega T_R Omega (a lower T_R: rank m without the cancellation) and
    products of random transvections (any rank)."""
    import sympcliff as sc
    m = draw(st.integers(min_m, max_m))
    family = draw(st.sampled_from(families))
    aq = lambda: sc.expand(sc.f_aq(_invertible(draw, m)))  # noqa: E731
    tr = lambda: sc.expand(sc.f_tr(_symmetric(draw, m)))  # noqa: E731
    if family == "identity":
        return np.eye(2 * m, dtype=np.uint8)
    if family == "omega":
        return sc.omega(m)
    if family == "tr":
        return tr()
    if family == "aq_tr_aq":
        return ref_mul(aq(), tr(), aq())
    if family == "aq_omega_tr":
        return ref_mul(aq(), sc.omega(m), tr())
    if family == "lower_tr":
        return ref_mul(sc.omega(m), tr(), sc.omega(m))
    f = np.eye(2 * m, dtype=np.uint8)
    for h in draw(st.lists(arrays(np.uint8, 2 * m, elements=st.integers(0, 1)),
                           max_size=3 * m)):
        f = ref_mul(f, sc.transvection_matrix(h))
    return f
