from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import sympcliff as sc
from sympcliff import sympsolve
from helpers import (as_set, golden_solution_sets, ref_find_symplectic,
                     symplectic)


def test_transvection_of_zero_is_identity():
    assert np.array_equal(sc.transvection_matrix(np.zeros(4, np.uint8)),
                          np.eye(4, dtype=np.uint8))


def test_transvection_single_qubit_swap():
    f = sc.transvection_matrix(np.array([1, 1], np.uint8))
    assert np.array_equal(sc.mul(np.array([[1, 0]], np.uint8), f).ravel(),
                          np.array([0, 1], np.uint8))
    assert np.array_equal(sc.mul(np.array([[0, 1]], np.uint8), f).ravel(),
                          np.array([1, 0], np.uint8))


def test_transvections_are_symplectic_involutions():
    rng = np.random.default_rng(23)
    for _ in range(30):
        h = rng.integers(0, 2, size=8, dtype=np.uint8)
        f = sc.transvection_matrix(h)
        assert sc.is_symplectic(f)
        assert np.array_equal(sc.mul(f, f), np.eye(8, dtype=np.uint8))


def test_map_vector_trivial_and_single():
    x = np.array([1, 0], np.uint8)
    y = np.array([0, 1], np.uint8)
    assert sc.map_vector(x, x) == []
    hs = sc.map_vector(x, y)
    assert len(hs) == 1
    assert np.array_equal(hs[0], np.array([1, 1], np.uint8))


def test_map_vector_rejects_zero_input():
    z = np.zeros(2, np.uint8)
    with pytest.raises(ValueError):
        sc.map_vector(z, np.array([1, 0], np.uint8))
    with pytest.raises(ValueError):
        sc.map_vector(np.array([1, 0], np.uint8), z)


def test_map_vector_thousand_random_pairs():
    rng = np.random.default_rng(29)
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


def test_map_vector_rejects_mismatched_or_odd_lengths():
    with pytest.raises(ValueError, match="same even length"):
        sc.map_vector([1, 0], [1, 0, 0, 0])
    with pytest.raises(ValueError, match="same even length"):
        sc.map_vector([1, 0, 1], [0, 1, 1])


def test_transvection_matrix_rejects_odd_length():
    with pytest.raises(ValueError, match="even length"):
        sc.transvection_matrix([1, 0, 1])


def test_system_rejects_negative_m():
    with pytest.raises(ValueError, match="nonnegative"):
        sc.SymplecticSystem(-1)


def test_find_symplectic_empty_system():
    sys0 = sc.SymplecticSystem(3, [], [])
    assert np.array_equal(sc.find_symplectic(sys0), np.eye(6, dtype=np.uint8))


def test_find_symplectic_satisfies_and_bounds_transvections():
    rng = np.random.default_rng(31)
    for _ in range(200):
        m = int(rng.integers(1, 4))
        base = rng.permutation(np.eye(2 * m, dtype=np.uint8))
        target = None
        while target is None or not sc.is_symplectic(target):
            target = sc.transvection_matrix(
                rng.integers(0, 2, size=2 * m, dtype=np.uint8))
            target = sc.mul(target, sc.transvection_matrix(
                rng.integers(0, 2, size=2 * m, dtype=np.uint8)))
        t = int(rng.integers(1, 2 * m + 1))
        xs = []
        for row in base:
            if len(xs) == t:
                break
            if sc.rank(np.vstack(xs + [row])) == len(xs) + 1:
                xs.append(row)
        ys = [sc.mul(x.reshape(1, -1), target).ravel() for x in xs]
        system = sc.SymplecticSystem(m, xs, ys)
        f, hs = sc.find_symplectic(system, return_transvections=True)
        assert len(hs) <= 2 * len(xs)
        assert sc.is_symplectic(f)
        for x, y in zip(xs, ys):
            assert np.array_equal(sc.mul(x.reshape(1, -1), f).ravel(), y)


def test_find_symplectic_rejects_commutation_change():
    e = np.eye(4, dtype=np.uint8)
    with pytest.raises(sc.InfeasibleError):
        sc.find_symplectic(sc.SymplecticSystem(2, [e[0], e[2]], [e[0], e[1]]))


def test_find_symplectic_rejects_dependent_sources():
    e = np.eye(4, dtype=np.uint8)
    with pytest.raises(sc.InfeasibleError):
        sc.find_symplectic(sc.SymplecticSystem(2, [e[0], e[0]], [e[0], e[1]]))


def test_find_symplectic_rejects_dependent_images():
    e = np.eye(4, dtype=np.uint8)
    with pytest.raises(sc.InfeasibleError):
        sc.find_symplectic(sc.SymplecticSystem(2, [e[0], e[1]], [e[0], e[0]]))


def test_enumerate_fully_constrained_returns_single_solution(sp4):
    f0 = sp4[137]
    e = np.eye(4, dtype=np.uint8)
    system = sc.SymplecticSystem(2, list(e), [sc.mul(x.reshape(1, -1), f0).ravel()
                                              for x in e])
    sols = sc.enumerate_all(system)
    assert len(sols) == 1
    assert np.array_equal(sols[0], f0)


def test_enumerate_empty_system_gives_whole_group(sp4):
    sols = sc.enumerate_all(sc.SymplecticSystem(2, [], []))
    assert len(sols) == 720
    assert as_set(sols) == as_set(sp4)


def test_enumerate_both_sides_free_pair_not_a_power_of_two(sp4):
    e = np.eye(4, dtype=np.uint8)
    system = sc.SymplecticSystem(2, [e[0], e[2]], [e[0], e[2]])
    sols = sc.enumerate_all(system)
    brute = [f for f in sp4
             if np.array_equal(f[0], e[0]) and np.array_equal(f[2], e[2])]
    assert as_set(sols) == as_set(brute)
    assert len(sols) == 6


def test_enumerate_matches_brute_force_on_random_systems(sp4):
    rng = np.random.default_rng(37)
    for trial in range(25):
        fstar = sp4[int(rng.integers(len(sp4)))]
        basis = sp4[int(rng.integers(len(sp4)))]
        take = sorted(rng.choice(4, size=int(rng.integers(0, 5)), replace=False))
        xs = [basis[i] for i in take]
        ys = [sc.mul(x.reshape(1, -1), fstar).ravel() for x in xs]
        system = sc.SymplecticSystem(2, xs, ys)
        sols = sc.enumerate_all(system)
        brute = [f for f in sp4
                 if all(np.array_equal(sc.mul(x.reshape(1, -1), f).ravel(), y)
                        for x, y in zip(xs, ys))]
        assert as_set(sols) == as_set(brute)
        assert sympsolve._count(sympsolve._frame(system)[2]) == len(brute)


def test_enumerate_respects_cap():
    with pytest.raises(ValueError):
        sc.enumerate_all(sc.SymplecticSystem(2, [], []), cap=100)


def test_enumerate_refuses_before_walking(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(sympsolve, "_sweep", refuse)
    # |Sp(6, F2)| = 1,451,520 solutions
    with pytest.raises(ValueError, match="exceeds cap"):
        sc.enumerate_all(sc.SymplecticSystem(3, [], []))


def test_iter_all_is_lazy_and_consistent():
    system = sc.SymplecticSystem(2, [], [])
    gen = sc.iter_all(system)
    first = next(gen)
    assert sc.is_symplectic(first)
    rest = list(gen)
    assert len(rest) == 719


def test_system_validation_errors():
    e = np.eye(4, dtype=np.uint8)
    with pytest.raises(ValueError):
        sc.SymplecticSystem(2, [e[0]], [])
    with pytest.raises(ValueError):
        sc.SymplecticSystem(2, [e[0][:3]], [e[0][:3]])


def test_golden_phase_system_solution_set(code642):
    spec = sc.CliffordSpec(name="phase1",
                           images_x={1: sc.from_label("XYIIIZ")})
    system = sc.build_system(code642, spec)
    sols = sc.enumerate_all(system)
    assert as_set(sols) == as_set(golden_solution_sets()["phase1"])


def _vec(bits):
    return np.array([int(c) for c in bits], np.uint8)


@st.composite
def general_system(draw):
    """(m, xs, ys) with 1 <= m <= 8: sources are distinct rows of a random
    symplectic matrix in random order, targets their images under a product
    of random transvections (few transvections leave many rows fixed)."""
    basis = draw(symplectic(max_m=8))
    m = basis.shape[0] // 2
    fstar = np.eye(2 * m, dtype=np.uint8)
    for h in draw(st.lists(arrays(np.uint8, 2 * m, elements=st.integers(0, 1)),
                           max_size=3 * m)):
        fstar = sc.mul(fstar, sc.transvection_matrix(h))
    order = draw(st.permutations(range(2 * m)))
    xs = [basis[i] for i in order[:draw(st.integers(0, 2 * m))]]
    return m, xs, [sc.mul(x.reshape(1, -1), fstar).ravel() for x in xs]


@settings(max_examples=150, deadline=None)
@given(general_system())
@example((3, [], []))  # t = 0
@example((2, [_vec("1000"), _vec("0010")], [_vec("1000"), _vec("0010")]))  # x = y
@example((1, [_vec("10")], [_vec("01")]))  # <x, y> = 1: one transvection
@example((2, [_vec("1000")], [_vec("0100")]))  # <x, y> = 0: two transvections
@example((2, [_vec("1000"), _vec("0100")], [_vec("0100"), _vec("1000")]))
def test_find_symplectic_matches_numpy_oracle(case):
    system = sc.SymplecticSystem(*case)
    f, hs = sc.find_symplectic(system, return_transvections=True)
    ref_f, ref_hs = ref_find_symplectic(system, return_transvections=True)
    assert (f.dtype, f.shape, f.tobytes()) == (ref_f.dtype, ref_f.shape, ref_f.tobytes())
    assert [(h.dtype, h.shape, h.tobytes()) for h in hs] == \
        [(h.dtype, h.shape, h.tobytes()) for h in ref_hs]


def _outcome(fn, system):
    try:
        return "solved", fn(system).tobytes()
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_find_symplectic_errors_match_numpy_oracle(data):
    # arbitrary targets: mostly dependent or commutation-incompatible
    m = data.draw(st.integers(1, 4))
    t = data.draw(st.integers(1, 2 * m))
    vec = arrays(np.uint8, 2 * m, elements=st.integers(0, 1))
    system = sc.SymplecticSystem(m, data.draw(st.lists(vec, min_size=t, max_size=t)),
                                 data.draw(st.lists(vec, min_size=t, max_size=t)))
    assert _outcome(sc.find_symplectic, system) == _outcome(ref_find_symplectic, system)


@pytest.mark.parametrize("xs, ys", [
    (["1000", "1000"], ["1000", "0100"]),  # dependent sources
    (["1000", "0100"], ["1000", "1000"]),  # dependent targets
    (["1000", "0010"], ["1000", "0100"]),  # commutation changes
])
def test_find_symplectic_rejections_match_numpy_oracle(xs, ys):
    system = sc.SymplecticSystem(2, [_vec(x) for x in xs], [_vec(y) for y in ys])
    got = _outcome(sc.find_symplectic, system)
    assert got[0] is sc.InfeasibleError
    assert got == _outcome(ref_find_symplectic, system)


def _hamming_parity(r):
    return np.array([[(c >> i) & 1 for c in range(1, 1 << r)] for i in range(r)],
                    dtype=np.uint8)


@pytest.mark.parametrize("r", (3, 4, 5))
def test_find_symplectic_on_hamming_codes_matches_oracle_and_realizes(r):
    # [[7,1,3]], [[15,7,3]] and [[31,21,3]]: m up to 31, t up to 52
    code = sc.css_build(sc.CssSpec(hc=_hamming_parity(r)))
    n = code.n_logical
    logical = np.vstack([sc.logical_x_gamma(code), sc.logical_z_gamma(code)])
    rng = np.random.default_rng(1000 + r)
    for trial in range(3):
        g = np.eye(2 * n, dtype=np.uint8)
        for _ in range(3 * n + 1):
            g = sc.mul(g, sc.transvection_matrix(
                rng.integers(0, 2, size=2 * n, dtype=np.uint8)))
        images = sc.mul(g, logical)
        signs = 2 * rng.integers(0, 2, size=2 * n)
        spec = sc.CliffordSpec(
            name="hamming%d_%d" % (r, trial),
            images_x={i + 1: sc.from_gamma(images[i], signs[i]) for i in range(n)},
            images_z={i + 1: sc.from_gamma(images[n + i], signs[n + i])
                      for i in range(n)})
        system = sc.build_system(code, spec)
        f = sc.find_symplectic(system)
        assert f.tobytes() == ref_find_symplectic(system).tobytes()
        assert sc.realize(code, spec, f).report.passed


def test_system_rejects_non_integral_m():
    with pytest.raises(ValueError, match="integer"):
        sc.SymplecticSystem(1.5)
    assert sc.SymplecticSystem(np.int64(2)).m == 2


def test_system_rejects_packed_rows_out_of_range():
    with pytest.raises(ValueError, match="packed constraint rows"):
        sc.SymplecticSystem(1, [4], [1])
    with pytest.raises(ValueError, match="packed constraint rows"):
        sc.SymplecticSystem(1, [1], [-1])


def test_system_takes_numpy_integers_as_packed_rows():
    system = sc.SymplecticSystem(1, [np.int64(1)], [np.uint8(2)])
    assert system == sc.SymplecticSystem(1, [1], [2])
    assert [type(v) for v in system._xs + system._ys] == [int, int]
    with pytest.raises(ValueError, match="packed constraint rows"):
        sc.SymplecticSystem(1, [np.int64(4)], [1])
    with pytest.raises(ValueError, match="packed constraint rows"):
        sc.SymplecticSystem(1, [1], [np.int64(-1)])


def test_system_takes_packed_rows_and_compares_by_value():
    e = np.eye(4, dtype=np.uint8)
    packed = sc.SymplecticSystem(2, [1, 4], [2, 8])
    arrays_ = sc.SymplecticSystem(2, [e[0], e[2]], [e[1], e[3]])
    assert packed == arrays_
    assert packed != sc.SymplecticSystem(2, [1, 4], [2, 4])
    assert packed != sc.SymplecticSystem(3, [1, 4], [2, 8])
    assert packed != "system"
    assert [x.tobytes() for x in packed.xs] == [e[0].tobytes(), e[2].tobytes()]
    assert [y.tobytes() for y in packed.ys] == [e[1].tobytes(), e[3].tobytes()]
    assert len(packed) == 2


def test_enumerate_zero_qubit_system_gives_the_empty_matrix():
    system = sc.SymplecticSystem(0)
    for sols in (list(sc.iter_all(system)), sc.enumerate_all(system)):
        assert [(f.dtype, f.shape) for f in sols] == [(np.uint8, (0, 0))]
    assert sc.find_symplectic(system).shape == (0, 0)
    assert sc.sp_group_order(0) == 1


def _brute(group, xs, ys):
    return [f for f in group
            if all(np.array_equal(sc.mul(x.reshape(1, -1), f).ravel(), y)
                   for x, y in zip(xs, ys))]


def test_enumerate_takes_sources_whose_gram_pattern_is_not_a_matching(sp4):
    # e2 pairs with e0 and with e2 ^ e1, so the sources' pattern is not a
    # matching, yet the identity solves the system
    e = np.eye(4, dtype=np.uint8)
    xs = [e[0], e[2], e[2] ^ e[1]]
    system = sc.SymplecticSystem(2, xs, xs)
    sols = sc.enumerate_all(system)
    assert as_set(sols) == as_set(_brute(sp4, xs, xs))
    assert len(sols) == sympsolve._count(sympsolve._frame(system)[2]) == 2


def test_enumerate_matches_brute_force_on_random_sources(sp2, sp4):
    # independent sources with any Gram pattern, feasible targets
    rng = np.random.default_rng(41)
    unmatched = 0
    for group, m in ((sp2, 1), (sp4, 2)):
        for trial in range(30):
            fstar = group[int(rng.integers(len(group)))]
            t = int(rng.integers(m, 2 * m + 1))
            xs = list(rng.integers(0, 2, (t, 2 * m), dtype=np.uint8))
            if sc.rank(np.array(xs)) < t:
                continue
            unmatched += int((sc.gram(np.array(xs)).sum(axis=1) > 1).any())
            ys = [sc.mul(x.reshape(1, -1), fstar).ravel() for x in xs]
            system = sc.SymplecticSystem(m, xs, ys)
            sols = sc.enumerate_all(system)
            brute = _brute(group, xs, ys)
            assert as_set(sols) == as_set(brute)
            assert len(sols) == len(brute)
            assert sympsolve._count(sympsolve._frame(system)[2]) == len(brute)
    assert unmatched >= 5
