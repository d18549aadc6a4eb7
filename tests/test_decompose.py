from __future__ import annotations

import pickle

import numpy as np
import pytest

import sympcliff as sc
from helpers import (B_PHASE, CNOT21_A, as_set, bits, golden_solution_sets,
                     ref_expand)


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
    with pytest.raises(ValueError):
        sc.f_gk(3, 2.5)


@pytest.mark.parametrize("kind, m, data, error", [
    ("TR", 2, {"r": [[0, 1], [0, 0]]}, "R must be square and symmetric"),
    ("GK", 2, {"k": 5}, "k must lie in 0..m"),
    ("GK", 2, {"k": -1}, "k must lie in 0..m"),
    ("AQ", 2, {"q": [[1, 1], [1, 1]]}, "matrix is singular over GF"),
    ("AQ", 2, {"q": [[1, 1, 0], [0, 1, 0]]}, "matrix is not square"),
    ("AQ", 3, {"q": np.eye(2, dtype=np.uint8)}, "Q must be 3 x 3"),
    ("TR", 1, {"r": np.zeros((2, 2), np.uint8)}, "R must be 1 x 1"),
    ("XX", 2, {}, "unknown factor kind"),
    ("GK", 2, {}, "takes q"),
    ("OMEGA", 2, {"k": 1}, "takes q"),
    ("TR", 2, {"q": np.eye(2, dtype=np.uint8)}, "takes q"),
    ("GK", 3, {"k": 2.5}, "must be integers"),
    ("OMEGA", 1.5, {}, "must be integers"),
    ("OMEGA", -1, {}, "must not be negative"),
])
def test_raw_constructor_rejects_bad_factors(kind, m, data, error):
    with pytest.raises(ValueError, match=error):
        sc.ElementaryFactor(kind, m, **data)


def test_equal_factors_compare_equal_and_hash_alike():
    q = np.eye(3, dtype=np.uint8)[[1, 2, 0]]
    for a, b in ((sc.f_aq(q), sc.f_aq(q.copy())),
                 (sc.f_tr(B_PHASE), sc.ElementaryFactor("TR", 6, r=B_PHASE.copy())),
                 (sc.f_gk(3, 2), sc.ElementaryFactor("GK", 3, k=np.int64(2)))):
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert sc.f_aq(q) != sc.f_aq(np.eye(3, dtype=np.uint8))
    assert sc.f_gk(3, 3) != sc.f_omega(3)
    assert len({sc.f_omega(3), sc.f_omega(3), sc.f_omega(4)}) == 2


def test_factor_arrays_are_read_only_views():
    aq, tr = sc.f_aq(CNOT21_A), sc.f_tr(B_PHASE)
    with pytest.raises(ValueError):
        aq.q[0, 1] = 0
    with pytest.raises(ValueError):
        tr.r[0, 1] = 1
    assert np.array_equal(aq.q, CNOT21_A) and np.array_equal(tr.r, B_PHASE)
    assert (aq.r, aq.k, tr.q, tr.k, sc.f_omega(2).k) == (None,) * 5


def test_factors_survive_a_pickle_round_trip():
    factors = sc.decompose(golden_solution_sets()["hadamard1"][0])
    assert [f.kind for f in factors] == ["AQ", "OMEGA", "TR", "GK", "AQ"]
    for f in factors:
        g = pickle.loads(pickle.dumps(f))
        assert g == f and repr(g) == repr(f)
        assert np.array_equal(sc.expand(g), sc.expand(f))


def test_factors_to_circuit_rejects_a_factor_on_other_qubits():
    with pytest.raises(ValueError):
        sc.factors_to_circuit([sc.f_omega(2)], 3)
    with pytest.raises(ValueError):
        sc.factors_to_circuit([sc.f_omega(3), sc.f_gk(2, 1)], 3)


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
        f = sc.mul(f, ref_expand(factor))
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
