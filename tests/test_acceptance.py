"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single pass/fail line;
run with -s (or read captured output) for the summary.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

import sympcliff as sc
from conftest import FIXTURES, all_symplectic
from helpers import as_set, golden_solution_sets, ref_expand


@contextlib.contextmanager
def criterion(n: int, desc: str):
    try:
        yield
    except BaseException:
        print("criterion %d: FAIL - %s" % (n, desc))
        raise
    print("criterion %d: PASS - %s" % (n, desc))


def _spec(name):
    return sc.load_spec((FIXTURES / ("%s.spec" % name)).read_text())


def _rand_symplectic(rng, m):
    f = np.eye(2 * m, dtype=np.uint8)
    for _ in range(2 * m + 6):
        f = sc.mul(f, sc.transvection_matrix(
            rng.integers(0, 2, size=2 * m, dtype=np.uint8)))
    return f


def _all_paulis(m):
    out = []
    for word in range(1, 4 ** m):
        a = np.array([(word >> (2 * q)) & 1 for q in range(m)], dtype=np.uint8)
        b = np.array([(word >> (2 * q + 1)) & 1 for q in range(m)], dtype=np.uint8)
        out.append(sc.pauli_e(a, b))
    return out


def _random_circuit(rng, m, count):
    kinds = ("H", "P", "X", "Y", "Z", "CZ", "CNOT", "PERMUTE")
    gs = []
    while len(gs) < count:
        kind = kinds[rng.integers(len(kinds))]
        if kind == "PERMUTE":
            gs.append(sc.gate(kind, *(rng.permutation(m) + 1)))
        elif kind in ("CZ", "CNOT"):
            if m < 2:
                continue
            q, r = rng.choice(m, size=2, replace=False) + 1
            gs.append(sc.gate(kind, int(q), int(r)))
        else:
            gs.append(sc.gate(kind, int(rng.integers(m)) + 1))
    return sc.circuit(m, gs)


def test_criterion_01_golden_solution_sets(code642):
    with criterion(1, "each tabulated operator yields exactly the reference "
                      "set of eight symplectic solutions in under a second"):
        for name, want in golden_solution_sets().items():
            t0 = time.perf_counter()
            results = sc.synthesize(code642, _spec(name), mode="all")
            elapsed = time.perf_counter() - t0
            assert len(results) == 8, name
            assert as_set([r.f for r in results]) == as_set(want), name
            assert elapsed < 1.0, "%s took %.2fs" % (name, elapsed)


def test_criterion_02_golden_circuits(code642):
    with criterion(2, "minimum-depth phase circuit and sign-fixed entangling "
                      "circuit match the reference gate lists"):
        res, = sc.synthesize(code642, _spec("phase1"), mode="min_depth")
        assert sorted(str(g) for g in res.circuit.gates) \
            == ["CZ 2 6", "P 2", "P 6"]
        reference = sc.parse("CZ 3 6\nCZ 2 6\nCZ 2 3\nZ 6\n", 6)
        ref_f, ref_signs = sc.induced_symplectic(reference)
        results = sc.synthesize(code642, _spec("cz12"), mode="all")
        hits = 0
        for r in results:
            f, signs = sc.induced_symplectic(r.circuit)
            if np.array_equal(f, ref_f) and np.array_equal(signs, ref_signs):
                hits += 1
        assert hits >= 1


def test_criterion_03_solution_count_law(code642, code513):
    with criterion(3, "solution counts follow 2^(k(k+1)/2): 8 on the "
                      "six-qubit code, 1024 on the five-qubit code in <60s"):
        results = sc.synthesize(code642, _spec("phase1"), mode="all")
        assert len(results) == 8
        t0 = time.perf_counter()
        results = sc.synthesize(code513, _spec("hadamard5q"), mode="all",
                                cap=1 << 12)
        elapsed = time.perf_counter() - t0
        assert len(results) == 1024
        assert all(r.report.passed for r in results)
        assert elapsed < 60.0, "full enumeration took %.1fs" % elapsed


def test_criterion_04_brute_force_equivalence(sp2, sp4):
    with criterion(4, "enumeration matches brute-force symplectic group "
                      "filtering at m=1 and m=2"):
        assert len(sp2) == 6 and len(sp4) == 720
        assert len(sc.enumerate_all(sc.SymplecticSystem(1, [], []))) == 6
        assert len(sc.enumerate_all(sc.SymplecticSystem(2, [], []))) == 720
        rng = np.random.default_rng(37)
        for trial in range(25):
            fstar = sp4[int(rng.integers(len(sp4)))]
            basis = sp4[int(rng.integers(len(sp4)))]
            take = sorted(rng.choice(4, size=int(rng.integers(0, 5)),
                                     replace=False))
            xs = [basis[i] for i in take]
            ys = [sc.mul(x.reshape(1, -1), fstar).ravel() for x in xs]
            sols = sc.enumerate_all(sc.SymplecticSystem(2, xs, ys))
            brute = [f for f in sp4
                     if all(np.array_equal(sc.mul(x.reshape(1, -1), f).ravel(), y)
                            for x, y in zip(xs, ys))]
            assert as_set(sols) == as_set(brute), "trial %d" % trial


def test_criterion_05_transvection_bounds():
    with criterion(5, "vector transport needs at most 2 transvections and "
                      "system solving at most 2t, all constraints satisfied"):
        rng = np.random.default_rng(41)
        done = 0
        while done < 1000:
            m = int(rng.integers(1, 7))
            x = rng.integers(0, 2, size=2 * m, dtype=np.uint8)
            y = rng.integers(0, 2, size=2 * m, dtype=np.uint8)
            if not x.any() or not y.any():
                continue
            hs = sc.map_vector(x, y)
            assert len(hs) <= 2
            f = np.eye(2 * m, dtype=np.uint8)
            for h in hs:
                f = sc.mul(f, sc.transvection_matrix(h))
            assert np.array_equal(sc.mul(x.reshape(1, -1), f).ravel(), y)
            done += 1
        for trial in range(200):
            m = int(rng.integers(1, 4))
            target = _rand_symplectic(rng, m)
            base = rng.permutation(np.eye(2 * m, dtype=np.uint8))
            t = int(rng.integers(1, 2 * m + 1))
            xs = list(base[:t])
            ys = [sc.mul(x.reshape(1, -1), target).ravel() for x in xs]
            f, hs = sc.find_symplectic(sc.SymplecticSystem(m, xs, ys),
                                       return_transvections=True)
            assert len(hs) <= 2 * t
            assert sc.is_symplectic(f)
            for x, y in zip(xs, ys):
                assert np.array_equal(sc.mul(x.reshape(1, -1), f).ravel(), y)


def test_criterion_06_decomposition_round_trip(sp4):
    with criterion(6, "factoring round-trips exactly on all of Sp(4) plus "
                      "1000 random m=6 matrices; every factor's gates "
                      "realize its matrix"):
        seen = {}

        def product(factors, m):
            f = np.eye(2 * m, dtype=np.uint8)
            for fac in factors:
                f = sc.mul(f, ref_expand(fac))
                key = (fac.kind, fac.m, fac.k,
                       None if fac.q is None else fac.q.tobytes(),
                       None if fac.r is None else fac.r.tobytes())
                seen.setdefault(key, fac)
            return f

        for f0 in sp4:
            assert np.array_equal(product(sc.decompose(f0), 2), f0)
        rng = np.random.default_rng(43)
        for _ in range(1000):
            f0 = _rand_symplectic(rng, 6)
            assert np.array_equal(product(sc.decompose(f0), 6), f0)
        assert seen
        for fac in seen.values():
            circ = sc.circuit(fac.m, sc.factor_to_gates(fac))
            got, signs = sc.induced_symplectic(circ)
            assert np.array_equal(got, sc.expand(fac))


def test_criterion_07_symbolic_dense_agreement():
    with criterion(7, "symbolic conjugation equals dense unitary conjugation "
                      "to 1e-10 on 1000 random 20-gate circuits"):
        rng = np.random.default_rng(47)
        for trial in range(1000):
            m = int(rng.integers(1, 4))
            c = _random_circuit(rng, m, 20)
            u = sc.dense_unitary(c)
            ps = _all_paulis(m)
            for p, got in zip(ps, sc.conjugate_many(c, ps)):
                lhs = u @ sc.dense(p) @ u.conj().T
                assert np.max(np.abs(lhs - sc.dense(got))) <= 1e-10
            f, signs = sc.induced_symplectic(c)
            gens = [sc.pauli_e(*np.split(row, 2)) for row in np.eye(
                2 * m, dtype=np.uint8)]
            outs = sc.conjugate_many(c, gens)
            for i, q in enumerate(outs):
                assert np.array_equal(f[i], sc.gamma(q))
                assert signs[i] == (1 if q.kappa == 0 else -1)


def test_criterion_08_conjugation_table():
    with criterion(8, "the single- and two-qubit conjugation table "
                      "identities hold exactly"):
        tol = 1e-10
        cz = sc.parse("CZ 1 2\n", 2)
        cx = sc.parse("CNOT 1 2\n", 2)
        u_cz, u_cx = sc.dense_unitary(cz), sc.dense_unitary(cx)
        assert np.max(np.abs(u_cz - np.diag([1, 1, 1, -1]))) <= tol
        want = np.array([[1, 0, 0, 0], [0, 1, 0, 0],
                         [0, 0, 0, 1], [0, 0, 1, 0]])
        assert np.max(np.abs(u_cx - want)) <= tol
        assert np.max(np.abs(
            sc.dense_unitary(sc.parse("H 2\nCNOT 1 2\nH 2\n", 2)) - u_cz)) <= tol
        assert np.max(np.abs(
            sc.dense_unitary(sc.parse("H 2\nCZ 1 2\nH 2\n", 2)) - u_cx)) <= tol
        table = [
            (cz, "XI", "XZ"), (cx, "XI", "XX"),
            (cz, "ZI", "ZI"), (cx, "ZI", "ZI"),
            (cz, "IZ", "IZ"), (cx, "IX", "IX"),
            (cz, "IX", "ZX"), (cx, "IZ", "ZZ"),
            (cz, "XX", "YY"), (cx, "XZ", "-YY"),
        ]
        for circ, given, want_label in table:
            got = sc.conjugate(circ, sc.from_label(given))
            assert sc.to_label(got) == want_label, (given, want_label)
        h1 = sc.parse("H 1\n", 1)
        p1 = sc.parse("P 1\n", 1)
        for circ, given, want_label in [(h1, "Z", "X"), (h1, "X", "Z"),
                                        (p1, "Z", "Z"), (p1, "X", "Y")]:
            assert sc.to_label(sc.conjugate(circ, sc.from_label(given))) \
                == want_label


def test_criterion_09_css_construction(code642):
    with criterion(9, "the CSS pair construction reproduces the reference "
                      "code and its states realize logical bit and phase "
                      "flips on all 16 basis states"):
        tol = 1e-10
        g1 = np.array([[1, 1, 1, 1, 1, 1], [1, 1, 0, 0, 0, 0],
                       [1, 0, 1, 0, 0, 0], [1, 0, 0, 1, 0, 0],
                       [1, 0, 0, 0, 1, 0]], dtype=np.uint8)
        g2 = np.ones((1, 6), dtype=np.uint8)
        built = sc.css_build(sc.CssSpec(g1=g1, g2=g2))
        assert [sc.to_label(s) for s in built.stabilizers] \
            == ["XXXXXX", "ZZZZZZ"]
        assert [sc.to_label(p) for p in built.logical_x] \
            == [sc.to_label(p) for p in code642.logical_x]
        assert [sc.to_label(p) for p in built.logical_z] \
            == [sc.to_label(p) for p in code642.logical_z]
        psi0 = sc.prepare_css_state(built, "0000")
        want = np.zeros(64, dtype=complex)
        want[0b000000] = want[0b111111] = 1 / np.sqrt(2)
        assert np.max(np.abs(psi0 - want)) <= tol
        states = {}
        for word in range(16):
            x = format(word, "04b")
            states[x] = sc.prepare_css_state(built, x)
        for x, psi in states.items():
            for i in range(4):
                flipped = x[:i] + str(1 - int(x[i])) + x[i + 1:]
                image = sc.dense(built.logical_x[i]) @ psi
                assert np.max(np.abs(image - states[flipped])) <= tol
                image = sc.dense(built.logical_z[i]) @ psi
                sign = -1.0 if x[i] == "1" else 1.0
                assert np.max(np.abs(image - sign * psi)) <= tol


def test_criterion_10_normalizer_to_centralizer(code642):
    with criterion(10, "the transversal-Hadamard normalizing solution "
                       "converts to one fixing both stabilizer rows with "
                       "the logical action unchanged"):
        res, = sc.synthesize(code642, _spec("swapxz"), mode="min_depth")
        f_n = res.f
        sg = sc.stab_gamma(code642)
        assert not np.array_equal(sc.mul(sg, f_n), sg)
        f_c = sc.normalizer_to_centralizer(code642, f_n)
        assert sc.is_symplectic(f_c)
        assert np.array_equal(sc.mul(sg, f_c), sg)
        for rows in (sc.logical_x_gamma(code642), sc.logical_z_gamma(code642)):
            assert np.array_equal(sc.mul(rows, f_c), sc.mul(rows, f_n))
