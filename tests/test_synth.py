from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sympcliff as sc
from sympcliff import synth
from sympcliff.synth import _min_depth_key, _rank
from conftest import FIXTURES
from helpers import (as_set, bits, golden_solution_sets, ref_solutions,
                     ref_unsigned, symplectic)


def _spec(name):
    return sc.load_spec((FIXTURES / ("%s.spec" % name)).read_text())


def _gate_strings(circ):
    return sorted(str(g) for g in circ.gates)


def test_spec_rejects_bad_policy():
    with pytest.raises(ValueError):
        sc.CliffordSpec(policy="frobnicate")


def test_spec_rejects_stab_images_under_centralize():
    with pytest.raises(ValueError):
        sc.CliffordSpec(stab_images={1: sc.from_label("XXXXXX")})


def test_spec_rejects_imaginary_phase():
    with pytest.raises(ValueError):
        sc.CliffordSpec(images_x={1: sc.from_label("+iXYIIIZ")})


def test_spec_rejects_bad_name():
    with pytest.raises(ValueError):
        sc.CliffordSpec(name="has space")


def test_build_system_range_and_shape_errors(code642):
    with pytest.raises(ValueError):
        sc.build_system(code642, sc.CliffordSpec(
            images_x={5: sc.from_label("XIIIII")}))
    with pytest.raises(ValueError):
        sc.build_system(code642, sc.CliffordSpec(images_x={1: sc.from_label("XI")}))


def test_build_system_checks_stabilizer_membership(code642):
    spec = sc.CliffordSpec(policy="normalize",
                           stab_images={1: sc.from_label("XIIIII")})
    with pytest.raises(ValueError, match="stabilizer-group element"):
        sc.build_system(code642, spec)


def test_build_system_checks_intrinsic_sign(code642):
    spec = sc.CliffordSpec(policy="normalize",
                           stab_images={1: sc.from_label("-XXXXXX")})
    with pytest.raises(ValueError, match="intrinsic sign"):
        sc.build_system(code642, spec)


def test_build_system_rejects_commutation_change(code642):
    spec = sc.CliffordSpec(images_x={1: sc.from_label("ZIIIII")})
    with pytest.raises(sc.InfeasibleError):
        sc.build_system(code642, spec)


def test_build_system_names_the_first_bad_pair_in_constraint_order(code642):
    # Z1 -> IIIIIZ breaks its relations with X1 and with S1; the constraint
    # order (logical X, stabilizers, logical Z) puts X1 first
    spec = sc.CliffordSpec(images_z={1: sc.from_label("IIIIIZ")})
    with pytest.raises(sc.InfeasibleError) as err:
        sc.build_system(code642, spec)
    assert str(err.value) == "images of X1 and Z1 change their commutation relation"


def test_build_system_and_find_symplectic_compare_grams_once(code642, monkeypatch):
    # the system finds its first mismatched pair once, at construction;
    # build_system names it and find_symplectic's validation reads it
    from sympcliff import gf2core, sympsolve
    calls, compare = [], gf2core._gram_mismatch

    def counted(*args):
        calls.append(args)
        return compare(*args)

    for module in (gf2core, sympsolve, synth):
        monkeypatch.setattr(module, "_gram_mismatch", counted, raising=False)
    sc.find_symplectic(sc.build_system(code642, _spec("phase1")))
    assert len(calls) == 1


def test_build_system_rows(code642):
    system = sc.build_system(code642, _spec("phase1"))
    pairs = {(x.tobytes(), y.tobytes()) for x, y in zip(system.xs, system.ys)}
    src = sc.gamma(sc.from_label("XXIIII"))
    dst = sc.gamma(sc.from_label("XYIIIZ"))
    assert (src.tobytes(), dst.tobytes()) in pairs


def test_golden_solution_sets(code642):
    for name, want in golden_solution_sets().items():
        results = sc.synthesize(code642, _spec(name), mode="all")
        assert len(results) == 8
        assert as_set([r.f for r in results]) == as_set(want)
        assert all(r.report.passed for r in results)


@pytest.mark.parametrize("name", ["phase1", "cz12", "cnot21", "hadamard1", "swapxz"])
def test_all_mode_lists_the_closed_form_from_find_symplectic(code642, name):
    spec = _spec(name)
    system = sc.build_system(code642, spec)
    f0 = sc.find_symplectic(system)
    sg = sc.stab_gamma(code642)
    # index bits, most significant first, set S[0,0], S[0,1] = S[1,0], S[1,1]
    want = []
    for i in range(8):
        s = np.array([[i >> 2 & 1, i >> 1 & 1], [i >> 1 & 1, i & 1]], np.uint8)
        want.append(f0 ^ sc.mul(sc.omega(6), sg.T, s, sg, f0))
    results = sc.synthesize(code642, spec, mode="all")
    assert np.array_equal(results[0].f, f0)
    assert [r.f.tolist() for r in results] == [f.tolist() for f in want]
    assert as_set(want) == as_set(sc.iter_all(system))


def test_identity_spec_contains_identity_solution(code642):
    results = sc.synthesize(code642, sc.CliffordSpec(name="identity"))
    assert len(results) == 8
    eye = np.eye(12, dtype=np.uint8)
    trivial = [r for r in results if np.array_equal(r.f, eye)]
    assert len(trivial) == 1
    assert trivial[0].circuit.gates == ()
    assert sc.to_label(trivial[0].pauli_correction) == "IIIIII"


def test_min_depth_phase_circuit(code642):
    res, = sc.synthesize(code642, _spec("phase1"), mode="min_depth")
    assert _gate_strings(res.circuit) == ["CZ 2 6", "P 2", "P 6"]
    assert res.depth == 2
    assert sc.to_label(res.pauli_correction) == "IIIIII"


def test_min_depth_entangling_circuit(code642):
    res, = sc.synthesize(code642, _spec("cz12"), mode="min_depth")
    assert _gate_strings(res.circuit) == ["CZ 2 3", "CZ 2 6", "CZ 3 6", "Z 6"]
    assert res.depth == 3
    assert sc.to_label(res.pauli_correction) == "IIIIIZ"


def test_fix_signs_leaves_a_correct_circuit_alone(code642):
    raw = sc.parse("Z 6\nCZ 2 3\nCZ 2 6\nCZ 3 6\n", 6)
    fixed, corr = sc.fix_signs(code642, _spec("cz12"), raw)
    assert fixed.gates == raw.gates
    assert sc.to_label(corr) == "IIIIII"


def test_fix_signs_prepends_the_smallest_correction(code642):
    raw = sc.parse("CZ 2 3\nCZ 2 6\nCZ 3 6\n", 6)
    fixed, corr = sc.fix_signs(code642, _spec("cz12"), raw)
    assert sc.to_label(corr) == "IIIIIZ"
    assert fixed.gates[0] == sc.gate("Z", 6)
    assert fixed.gates[1:] == raw.gates


def test_fix_signs_rejects_wrong_symplectic_action(code642):
    # an explicit raise, not an assert that python -O would strip
    with pytest.raises(ValueError, match="does not realize"):
        sc.fix_signs(code642, _spec("cz12"), sc.circuit(6, []))


def test_parallel_jobs_match_serial(code642):
    spec = _spec("phase1")
    serial = sc.synthesize(code642, spec, mode="all")
    parallel = sc.synthesize(code642, spec, mode="all", jobs=2)
    assert [sc.serialize(r.circuit) for r in serial] \
        == [sc.serialize(r.circuit) for r in parallel]
    assert as_set([r.f for r in serial]) == as_set([r.f for r in parallel])
    assert [r.factors for r in serial] == [r.factors for r in parallel]


def test_synthesize_rejects_bad_mode(code642):
    with pytest.raises(ValueError):
        sc.synthesize(code642, sc.CliffordSpec(), mode="best")


def test_normalize_policy_transversal_solution(code642):
    res, = sc.synthesize(code642, _spec("swapxz"), mode="min_depth")
    kinds = sorted(g.kind for g in res.circuit.gates)
    assert kinds == ["H"] * 6 + ["PERMUTE"]
    assert res.depth == 2
    assert res.report.passed


def test_normalizer_to_centralizer_full_pipeline(code642):
    results = sc.synthesize(code642, _spec("swapxz"), mode="all",
                            cap=1 << 12)
    f_n = results[0].f
    f_c = sc.normalizer_to_centralizer(code642, f_n)
    sg = sc.stab_gamma(code642)
    assert sc.is_symplectic(f_c)
    assert np.array_equal(sc.mul(sg, f_c), sg)
    for rows in (sc.logical_x_gamma(code642), sc.logical_z_gamma(code642)):
        assert np.array_equal(sc.mul(rows, f_c), sc.mul(rows, f_n))


def test_normalizer_to_centralizer_identity_case(code642):
    f_n = np.eye(12, dtype=np.uint8)
    assert np.array_equal(sc.normalizer_to_centralizer(code642, f_n), f_n)


def test_normalizer_to_centralizer_rejects_bad_input(code642):
    with pytest.raises(ValueError):
        sc.normalizer_to_centralizer(code642, np.ones((12, 12), np.uint8))
    escape, _ = sc.induced_symplectic(sc.parse("H 1\n", 6))
    with pytest.raises(ValueError, match="does not normalize"):
        sc.normalizer_to_centralizer(code642, escape)


def test_normalizer_to_centralizer_names_the_expected_shape(code642):
    # a symplectic matrix on the wrong number of qubits
    with pytest.raises(ValueError, match="f_n must be 12 x 12 for a code on 6 "
                       "qubits, got 4 x 4"):
        sc.normalizer_to_centralizer(code642, sc.omega(2))


def test_normalizer_to_centralizer_on_a_second_code():
    from helpers import bits
    code = sc.css_build(sc.CssSpec(hc=bits("111100", "001111")))
    sg = sc.stab_gamma(code)
    lx, lz = sc.logical_x_gamma(code), sc.logical_z_gamma(code)
    swap = sc.induced_symplectic(
        sc.circuit(6, [sc.gate("H", q) for q in range(1, 7)]))[0]
    system = sc.build_system(code, sc.CliffordSpec())
    for i, g in enumerate(sc.iter_all(system)):
        if i == 5:
            break
        f_n = sc.mul(g, swap)
        assert sc.mul(sg, f_n).tolist() != sg.tolist()
        f_c = sc.normalizer_to_centralizer(code, f_n)
        assert np.array_equal(sc.mul(sg, f_c), sg)
        assert np.array_equal(sc.mul(lx, f_c), sc.mul(lx, f_n))
        assert np.array_equal(sc.mul(lz, f_c), sc.mul(lz, f_n))


def test_save_load_spec_round_trip():
    spec = sc.CliffordSpec(name="t-1", policy="normalize",
                           images_x={2: sc.from_label("XXZIIZ")},
                           images_z={1: sc.from_label("IZZIII")},
                           stab_images={1: sc.from_label("ZZZZZZ")})
    again = sc.load_spec(sc.save_spec(spec))
    assert again == spec
    for name in ("phase1", "cz12", "cnot21", "hadamard1", "swapxz"):
        text = (FIXTURES / ("%s.spec" % name)).read_text()
        spec = sc.load_spec(text)
        assert sc.load_spec(sc.save_spec(spec)) == spec


def test_load_spec_error_reporting():
    with pytest.raises(sc.ParseError, match="missing 'op"):
        sc.load_spec("policy centralize\n")
    with pytest.raises(sc.ParseError, match="line 2"):
        sc.load_spec("op a\npolicy bogus\n")
    with pytest.raises(sc.ParseError, match="line 3"):
        sc.load_spec("op a\nmapX 1 XX\nmapX 1 YY\n")
    with pytest.raises(sc.ParseError, match="qubit count"):
        sc.load_spec("op a\nmapX 1 XX\nmapZ 1 ZZZ\n")
    with pytest.raises(sc.ParseError, match="line 2"):
        sc.load_spec("op a\nmapX one XX\n")


def _signed_513_specs(seed, count):
    """count seeded signed logical Cliffords on [[5,1,3]]: X and Z go to two
    distinct members of {X, Z, Y} (all on the five qubits), each with a sign."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        x_img, z_img = rng.sample(["XXXXX", "ZZZZZ", "YYYYY"], 2)
        out.append(sc.CliffordSpec(
            name="signed%d" % i,
            images_x={1: sc.from_label(rng.choice("+-") + x_img)},
            images_z={1: sc.from_label(rng.choice("+-") + z_img)}))
    return out


_STREAMING_CASES = (
    [("code642", _spec(name)) for name in
     ("phase1", "cz12", "cnot21", "hadamard1", "swapxz")]
    + [("code513", _spec("hadamard5q"))]
    + [("code513", spec) for spec in _signed_513_specs(1803, 3)])


@pytest.mark.parametrize("code_name, spec", _STREAMING_CASES,
                         ids=[spec.name for _, spec in _STREAMING_CASES])
def test_min_depth_streaming_matches_exhaustive_min(code_name, spec, request):
    code = request.getfixturevalue(code_name)
    best, = sc.synthesize(code, spec, mode="min_depth")
    want = min(sc.synthesize(code, spec, mode="all"),
               key=lambda r: _min_depth_key(r.circuit))
    assert sc.serialize(best.circuit) == sc.serialize(want.circuit)
    assert sc.to_label(best.pauli_correction) == sc.to_label(want.pauli_correction)
    assert best.depth == want.depth
    assert np.array_equal(best.f, want.f)
    assert best.report.passed


def test_min_depth_ties_reach_the_text_tie_break():
    # on [[4,2,2]] two solutions of this action tie at depth 9 and 15 gates
    # with no correction, so only their serialized text separates them; in
    # either stream order the equal unsigned pair must not be pruned
    code = sc.css_build(sc.CssSpec(hc=bits("1111")))
    spec = sc.load_spec("op tie\nmapX 1 IXIX\nmapX 2 IZIZ\n"
                        "mapZ 1 IIZZ\nmapZ 2 XXII\n")
    fs = list(sc.iter_all(sc.build_system(code, spec)))
    want = min(_min_depth_key(sc.realize(code, spec, f).circuit) for f in fs)
    assert want[:2] == (9, 15)
    for order in (fs, fs[::-1]):
        assert _rank(code, spec, order)[0] == want


@settings(max_examples=150, deadline=None)
@given(symplectic(max_m=8))
def test_rank_key_is_depth_and_length_of_the_public_circuit(f):
    # _rank orders unsigned solutions by this pair before any sign fix
    m = f.shape[0] // 2
    c = sc.factors_to_circuit(sc.decompose(f), m)
    pairs, key = ref_unsigned(f, m)
    assert key == (sc.depth(c), len(c.gates))
    assert [sc.Gate(kind, qs) for kind, qs in pairs] == list(c.gates)


def test_min_depth_parallel_jobs_match_serial(code513):
    spec = _signed_513_specs(7, 1)[0]
    serial, = sc.synthesize(code513, spec, mode="min_depth")
    parallel, = sc.synthesize(code513, spec, mode="min_depth", jobs=2)
    assert sc.serialize(parallel.circuit) == sc.serialize(serial.circuit)
    assert sc.to_label(parallel.pauli_correction) \
        == sc.to_label(serial.pauli_correction)
    assert np.array_equal(parallel.f, serial.f)


def test_ranges_of_partial_unaligned_batches_give_the_serial_minimum(code513):
    # cuts that fall inside a block, a range inside one block and a
    # one-solution range leave lanes of their blocks out of the ranking; the
    # best over the pieces must be the best over all 1024
    spec = _spec("hadamard5q")
    f0 = sc.find_symplectic(sc.build_system(code513, spec))
    want = _rank(code513, spec, list(synth._solutions(code513, f0, 0, 1024)))
    pieces = [synth._rank_range(code513, spec, f0, a, b)
              for a, b in [(0, 341), (341, 682), (682, 1024)]]
    best = min(pieces, key=lambda r: r[0])
    assert best[0] == want[0] and np.array_equal(best[1], want[1])
    for a, b in [(5, 37), (700, 701)]:
        got = synth._rank_range(code513, spec, f0, a, b)
        fs = list(synth._solutions(code513, f0, a, b))
        assert got[0] == min(_min_depth_key(sc.realize(code513, spec, f).circuit)
                             for f in fs)
        assert any(np.array_equal(got[1], f) for f in fs)
    assert synth._rank_range(code513, spec, f0, 5, 5) is None
    assert _rank(code513, spec, []) is None


def test_a_range_over_several_blocks_ranks_like_every_solution(code513,
                                                                monkeypatch):
    # with 256-solution blocks, 100..899 is a clipped block, two full ones
    # and another clipped one, so later blocks are ranked against the best
    # of earlier ones; the winner is the first solution of least key
    monkeypatch.setattr(synth, "_CHUNK", 256)
    spec = _spec("hadamard5q")
    f0 = sc.find_symplectic(sc.build_system(code513, spec))
    assert [len(b) for b in synth._blocks(code513, f0, 100, 900)] \
        == [156, 256, 256, 132]
    fs = list(synth._solutions(code513, f0, 100, 900))
    assert [f.tobytes() for f in fs] \
        == [f.tobytes() for f in ref_solutions(code513, f0, 100, 900)]
    keys = [_min_depth_key(sc.realize(code513, spec, f).circuit) for f in fs]
    got = synth._rank_range(code513, spec, f0, 100, 900)
    assert got[0] == min(keys)
    assert np.array_equal(got[1], fs[keys.index(min(keys))])


def test_synthesis_results_compare_by_value(code642):
    spec = _spec("phase1")
    a, = sc.synthesize(code642, spec, mode="min_depth")
    b, = sc.synthesize(code642, spec, mode="min_depth")
    assert a is not b and a == b and not a != b
    assert a != dataclasses.replace(a, f=a.f ^ np.eye(len(a.f), dtype=np.uint8))
    # the same bytes in another shape are another matrix
    assert a != dataclasses.replace(a, f=a.f.reshape(-1))
    assert a != dataclasses.replace(a, depth=a.depth + 1)
    assert a != "result" and a != None  # noqa: E711
    with pytest.raises(TypeError):
        hash(a)


def test_jobs_never_exceed_cpu_count(code642, code513, monkeypatch):
    # a fake pool that records its size and maps in this process, so no
    # worker process starts whatever jobs asks for
    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            self.max_workers, self.tasks = max_workers, 0
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *args):
            out = list(map(fn, *args))
            self.tasks += len(out)
            return out

    monkeypatch.setattr(synth, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(synth.os, "cpu_count", lambda: 3)
    spec = _spec("hadamard5q")
    best, = sc.synthesize(code513, spec, mode="min_depth", jobs=100000)
    assert [(p.max_workers, p.tasks) for p in pools] == [(3, 3)]
    sc.synthesize(code642, _spec("phase1"), mode="all", jobs=100000)
    assert [(p.max_workers, p.tasks) for p in pools[1:]] == [(3, 8)]
    # an unknown cpu count runs serially, and three ranges pick the same winner
    monkeypatch.setattr(synth.os, "cpu_count", lambda: None)
    serial, = sc.synthesize(code513, spec, mode="min_depth", jobs=100000)
    assert sc.serialize(serial.circuit) == sc.serialize(best.circuit)
    assert len(pools) == 2


def test_min_depth_verifies_only_the_returned_circuit(code642, monkeypatch):
    calls = []
    real = synth.verify_solution

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(synth, "verify_solution", counting)
    res, = sc.synthesize(code642, _spec("hadamard1"), mode="min_depth")
    assert res.report.passed
    assert len(calls) == 1


@pytest.mark.parametrize("mode", ["all", "min_depth"])
def test_over_cap_is_refused_before_enumerating(mode, monkeypatch):
    hamming7 = sc.css_build(sc.CssSpec(hc=bits("1010101", "0110011", "0001111")))
    assert sc.solution_count(hamming7) == 1 << 21

    def refuse(*args, **kwargs):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(synth, "_solutions", refuse)
    with pytest.raises(ValueError, match="exceeds cap"):
        sc.synthesize(hamming7, sc.CliffordSpec(), mode=mode)


def _random_symplectic(rng, m):
    f = np.eye(2 * m, dtype=np.uint8)
    for _ in range(2 * m + 2):
        f = sc.mul(f, sc.transvection_matrix(rng.integers(0, 2, 2 * m, dtype=np.uint8)))
    return f


def _random_code_and_spec(rng, m, k, normalize=False):
    """Rows u_1..u_m, v_1..v_m of a random symplectic matrix give a code:
    the last k u rows stabilize, the other pairs are logical X and Z.  The
    spec is a random logical Clifford with random signs; under normalize it
    also sends each generator to a product of generators, through a random
    invertible k x k matrix."""
    n = m - k
    basis = _random_symplectic(rng, m)
    lx, stabs, lz = basis[:n], basis[n:m], basis[m:m + n]
    code = sc.make_code(m, [sc.from_gamma(r) for r in stabs],
                        [sc.from_gamma(r) for r in lx], [sc.from_gamma(r) for r in lz])
    images = sc.mul(_random_symplectic(rng, n), np.vstack([lx, lz])) if n else []
    signs = rng.integers(0, 2, 2 * n) * 2
    stab_images = {}
    if normalize and k:
        mix = np.zeros((k, k), dtype=np.uint8)
        while sc.rank(mix) < k:
            mix = rng.integers(0, 2, (k, k), dtype=np.uint8)
        for j in range(k):
            prod = None
            for l in np.flatnonzero(mix[j]):
                s = code.stabilizers[l]
                prod = s if prod is None else sc.multiply(prod, s)
            stab_images[j + 1] = prod
    spec = sc.CliffordSpec(
        images_x={i + 1: sc.from_gamma(images[i], signs[i]) for i in range(n)},
        images_z={i + 1: sc.from_gamma(images[n + i], signs[n + i]) for i in range(n)},
        stab_images=stab_images, policy="normalize" if normalize else "centralize")
    return code, spec


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 32), st.floats(0, 1), st.integers(0, 2**32 - 1))
def test_random_code_from_a_symplectic_basis_always_verifies(m, share, seed):
    """A random logical Clifford on a random code must give a verified circuit."""
    code, spec = _random_code_and_spec(np.random.default_rng(seed), m, round(share * m))
    f = sc.find_symplectic(sc.build_system(code, spec))
    assert sc.realize(code, spec, f).report.passed


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(0, 3), st.booleans(), st.integers(0, 2**32 - 1))
def test_closed_form_solutions_are_the_iter_all_set(m, k, normalize, seed):
    code, spec = _random_code_and_spec(np.random.default_rng(seed), m, min(k, m),
                                       normalize)
    system = sc.build_system(code, spec)
    f0 = sc.find_symplectic(system)
    count = sc.solution_count(code)
    closed = list(synth._solutions(code, f0, 0, count))
    assert np.array_equal(closed[0], f0)
    assert len(as_set(closed)) == count
    assert as_set(closed) == as_set(sc.iter_all(system))
    tail = list(synth._solutions(code, f0, 1, count))
    assert [f.tobytes() for f in tail] == [f.tobytes() for f in closed[1:]]


def _steane():
    return sc.css_build(sc.CssSpec(hc=bits("1010101", "0110011", "0001111")))


@pytest.mark.parametrize("name", ["code422", "code513", "code642", "code713"])
def test_solutions_match_one_product_per_index(name, request):
    # the table-and-offset generator lists what one closed-form product per
    # index gives, in S-index order; on [[7,1,3]] (2^21 solutions) every range
    # but the first crosses a block boundary, one spans two whole blocks, and
    # the last reaches the last index
    code = {"code422": lambda: sc.css_build(sc.CssSpec(hc=bits("1111"))),
            "code713": _steane}.get(name, lambda: request.getfixturevalue(name))()
    f0 = sc.find_symplectic(sc.build_system(code, sc.CliffordSpec()))
    count = sc.solution_count(code)
    c = synth._CHUNK
    ranges = [(0, count)] if count <= c else \
        [(0, 40), (c - 3, c + 2), (3 * c - 7, 5 * c + 2), (count - c - 30, count)]
    for start, stop in ranges:
        got = [f.tobytes() for f in synth._solutions(code, f0, start, stop)]
        assert got == [f.tobytes() for f in ref_solutions(code, f0, start, stop)]


def test_min_depth_sign_fixes_contenders_in_bound_order(code513, monkeypatch):
    # visiting the 1024 solutions by ascending unsigned bound sign-fixes two
    # contenders, and realize sign-fixes the winner once more
    calls = []
    real = synth.fix_signs

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(synth, "fix_signs", counting)
    sc.synthesize(code513, _spec("hadamard5q"), mode="min_depth")
    assert len(calls) == 3


def test_min_depth_on_a_code_wider_than_64_columns():
    # m = 33: each packed row has 2m = 66 bits; k = 2 gives 8 solutions
    code, spec = _random_code_and_spec(np.random.default_rng(33), 33, 2)
    best, = sc.synthesize(code, spec, mode="min_depth")
    fs = synth._solutions(code, sc.find_symplectic(sc.build_system(code, spec)),
                          0, sc.solution_count(code))
    want = min((_min_depth_key(sc.realize(code, spec, f).circuit), f.tobytes())
               for f in fs)
    assert (_min_depth_key(best.circuit), best.f.tobytes()) == want
