from __future__ import annotations

import numpy as np
import pytest

import sympcliff as sc
from sympcliff import sympsolve
from helpers import as_set, golden_solution_sets


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
