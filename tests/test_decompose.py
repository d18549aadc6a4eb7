from __future__ import annotations

import numpy as np
import pytest

import sympcliff as sc
from helpers import B_PHASE, CNOT21_A, as_set, bits, golden_solution_sets


def rand_symplectic(rng, m):
    f = np.eye(2 * m, dtype=np.uint8)
    for _ in range(12):
        f = sc.mul(f, sc.transvection_matrix(
            rng.integers(0, 2, size=2 * m, dtype=np.uint8)))
    return f


def test_expand_tr_zero_is_identity():
    f = sc.f_tr(np.zeros((4, 4), np.uint8))
    assert np.array_equal(sc.expand(f), np.eye(8, dtype=np.uint8))


def test_expand_gk_full_is_omega():
    assert np.array_equal(sc.expand(sc.f_gk(3, 3)), sc.omega(3))
    assert np.array_equal(sc.expand(sc.f_gk(3, 0)), np.eye(6, dtype=np.uint8))


def test_expand_tr_phase_block():
    f = sc.expand(sc.f_tr(B_PHASE))
    assert np.array_equal(f[:6, :6], np.eye(6, dtype=np.uint8))
    assert np.array_equal(f[:6, 6:], B_PHASE)
    assert not f[6:, :6].any()
    assert np.array_equal(f[6:, 6:], np.eye(6, dtype=np.uint8))


def test_factor_constructors_validate():
    with pytest.raises(sc.SingularMatrixError):
        sc.f_aq(np.zeros((3, 3), np.uint8))
    with pytest.raises(ValueError):
        sc.f_tr(bits("01", "00"))
    with pytest.raises(ValueError):
        sc.f_gk(3, 4)


def test_decompose_identity_is_empty():
    assert sc.decompose(np.eye(12, dtype=np.uint8)) == []


def test_decompose_rejects_non_symplectic():
    bad = np.eye(4, dtype=np.uint8)
    bad[0, 1] = 1
    bad[1, 0] = 1
    with pytest.raises(ValueError):
        sc.decompose(bad)


def test_decompose_omega_single_factor():
    factors = sc.decompose(sc.omega(3))
    assert [f.kind for f in factors] == ["OMEGA"]


def test_decompose_tr_input_stays_diagonal_free():
    factors = sc.decompose(sc.expand(sc.f_tr(B_PHASE)))
    assert [f.kind for f in factors] == ["TR"]
    assert np.array_equal(factors[0].r, B_PHASE)


def _product(factors, m):
    f = np.eye(2 * m, dtype=np.uint8)
    for factor in factors:
        f = sc.mul(f, sc.expand(factor))
    return f


def test_decompose_round_trip_whole_small_group(sp4):
    for f in sp4:
        factors = sc.decompose(f)
        assert np.array_equal(_product(factors, 2), f)


def test_decompose_round_trip_published_hadamard_solution():
    f = golden_solution_sets()["hadamard1"][0]
    factors = sc.decompose(f)
    assert np.array_equal(_product(factors, 6), f)


def test_decompose_round_trip_random_larger_matrices():
    rng = np.random.default_rng(41)
    for _ in range(60):
        f = rand_symplectic(rng, 6)
        factors = sc.decompose(f)
        assert np.array_equal(_product(factors, 6), f)


def test_tr_gates_phase_multiset():
    gates = sc.factor_to_gates(sc.f_tr(B_PHASE))
    assert sorted(str(g) for g in gates) == ["CZ 2 6", "P 2", "P 6"]


def test_aq_permutation_becomes_permute_gate():
    q = np.eye(6, dtype=np.uint8)[[5, 1, 2, 3, 4, 0]]
    gates = sc.factor_to_gates(sc.f_aq(q))
    assert len(gates) == 1
    assert str(gates[0]) == "PERMUTE 6 2 3 4 5 1"


def test_omega_and_gk_gates_are_hadamard_layers():
    assert [str(g) for g in sc.factor_to_gates(sc.f_omega(3))] == \
        ["H 1", "H 2", "H 3"]
    assert [str(g) for g in sc.factor_to_gates(sc.f_gk(3, 2))] == ["H 1", "H 2"]


def test_every_factor_realizes_its_matrix():
    rng = np.random.default_rng(43)
    factors = [sc.f_omega(4), sc.f_gk(4, 2), sc.f_tr(B_PHASE[:4, :4] * 0),
               sc.f_tr((lambda r: ((r + r.T) % 2).astype(np.uint8))(
                   rng.integers(0, 2, size=(4, 4)))),
               sc.f_aq(np.eye(4, dtype=np.uint8)[[2, 0, 3, 1]])]
    for f in factors:
        circ = sc.circuit(f.m, sc.factor_to_gates(f))
        got, signs = sc.induced_symplectic(circ)
        assert np.array_equal(got, sc.expand(f))


def test_aq_gates_act_as_basis_permutation_on_states():
    f = sc.f_aq(CNOT21_A)
    circ = sc.circuit(6, sc.factor_to_gates(f))
    u = sc.dense_unitary(circ)
    for v in range(64):
        vbits = np.array([(v >> (5 - t)) & 1 for t in range(6)], np.uint8)
        img = sc.mul(vbits.reshape(1, -1), CNOT21_A).ravel()
        w = int("".join(str(int(x)) for x in img), 2)
        col = u[:, v]
        assert abs(col[w] - 1) < 1e-10
        assert np.sum(np.abs(col) > 1e-10) == 1


def test_gate_counts_from_factors_round_trip_through_induced_map():
    rng = np.random.default_rng(47)
    for _ in range(25):
        f = rand_symplectic(rng, 4)
        circ = sc.factors_to_circuit(sc.decompose(f), 4)
        got, _ = sc.induced_symplectic(circ)
        assert np.array_equal(got, f)
