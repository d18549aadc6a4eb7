from __future__ import annotations

import re
import types

import numpy as np
import pytest

import sympcliff as sc
from conftest import FIXTURES
from helpers import B_PHASE, random_circuit

TOL = 1e-10


def _circ(m, text):
    return sc.parse(text, m)


def _all_paulis(m):
    out = []
    for word in range(1, 4 ** m):
        a = np.array([(word >> (2 * q)) & 1 for q in range(m)], dtype=np.uint8)
        b = np.array([(word >> (2 * q + 1)) & 1 for q in range(m)], dtype=np.uint8)
        out.append(sc.pauli_e(a, b))
    return out


def test_conjugate_by_empty_circuit_is_identity():
    rng = np.random.default_rng(7)
    empty = sc.circuit(4, [])
    for _ in range(20):
        p = sc.pauli_e(rng.integers(0, 2, 4, dtype=np.uint8),
                       rng.integers(0, 2, 4, dtype=np.uint8))
        assert sc.conjugate(empty, p) == p


def test_induced_symplectic_of_phase_type_circuit():
    c = _circ(6, "P 2\nCZ 2 6\nP 6\n")
    f, signs = sc.induced_symplectic(c)
    eye = np.eye(6, dtype=np.uint8)
    want = np.block([[eye, B_PHASE], [np.zeros((6, 6), np.uint8), eye]])
    assert np.array_equal(f, want)
    assert (signs == 1).all()


def test_conjugate_many_matches_singles():
    rng = np.random.default_rng(11)
    c = random_circuit(rng, 3, 15)
    ps = _all_paulis(3)[:10]
    batch = sc.conjugate_many(c, ps)
    singles = [sc.conjugate(c, p) for p in ps]
    assert batch == singles


def test_dense_forms_of_entangling_gates():
    u_cz = sc.dense_unitary(_circ(2, "CZ 1 2\n"))
    assert np.max(np.abs(u_cz - np.diag([1, 1, 1, -1]))) <= TOL
    u_cx = sc.dense_unitary(_circ(2, "CNOT 1 2\n"))
    want = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    assert np.max(np.abs(u_cx - want)) <= TOL


def test_hadamard_on_target_exchanges_cz_and_cnot():
    u_cz = sc.dense_unitary(_circ(2, "CZ 1 2\n"))
    u_cx = sc.dense_unitary(_circ(2, "CNOT 1 2\n"))
    assert np.max(np.abs(sc.dense_unitary(_circ(2, "H 2\nCNOT 1 2\nH 2\n")) - u_cz)) <= TOL
    assert np.max(np.abs(sc.dense_unitary(_circ(2, "H 2\nCZ 1 2\nH 2\n")) - u_cx)) <= TOL


@pytest.mark.parametrize("gates,given,want", [
    ("CZ 1 2", "XI", "XZ"),
    ("CNOT 1 2", "XI", "XX"),
    ("CZ 1 2", "ZI", "ZI"),
    ("CNOT 1 2", "ZI", "ZI"),
    ("CZ 1 2", "IZ", "IZ"),
    ("CNOT 1 2", "IX", "IX"),
    ("CZ 1 2", "IX", "ZX"),
    ("CNOT 1 2", "IZ", "ZZ"),
    ("CZ 1 2", "XX", "YY"),
    ("CNOT 1 2", "XZ", "-YY"),
    ("H 1", "Z", "X"),
    ("H 1", "X", "Z"),
    ("P 1", "Z", "Z"),
    ("P 1", "X", "Y"),
])
def test_single_gate_conjugation_table(gates, given, want):
    m = len(given.lstrip("+-i"))
    got = sc.conjugate(_circ(m, gates + "\n"), sc.from_label(given))
    assert sc.to_label(got) == want


def test_dense_hadamard_matrix():
    u = sc.dense_unitary(_circ(1, "H 1\n"))
    assert np.max(np.abs(u - np.array([[1, 1], [1, -1]]) / np.sqrt(2))) <= TOL


def test_dense_unitary_is_unitary():
    rng = np.random.default_rng(23)
    for _ in range(10):
        u = sc.dense_unitary(random_circuit(rng, 3, 12))
        assert np.max(np.abs(u @ u.conj().T - np.eye(8))) <= TOL


def test_symbolic_conjugation_matches_dense():
    # every phase kappa, so the carried imaginary bit is checked too
    rng = np.random.default_rng(31)
    for _ in range(40):
        m = int(rng.integers(1, 4))
        c = random_circuit(rng, m, 20)
        u = sc.dense_unitary(c)
        ps = [sc.pauli_e(p.a, p.b, kappa)
              for p in _all_paulis(m) for kappa in range(4)]
        for p, got in zip(ps, sc.conjugate_many(c, ps)):
            lhs = u @ sc.dense(p) @ u.conj().T
            assert np.max(np.abs(lhs - sc.dense(got))) <= TOL


def test_prepared_state_is_coset_superposition(code642):
    psi = sc.prepare_css_state(code642, "0000")
    want = np.zeros(64, dtype=complex)
    want[0b000000] = want[0b111111] = 1 / np.sqrt(2)
    assert np.max(np.abs(psi - want)) <= TOL
    psi = sc.prepare_css_state(code642, "1000")
    want = np.zeros(64, dtype=complex)
    want[0b110000] = want[0b001111] = 1 / np.sqrt(2)
    assert np.max(np.abs(psi - want)) <= TOL


def test_prepared_state_is_stabilized(code642):
    for x in ("0000", "1010", "1111"):
        psi = sc.prepare_css_state(code642, x)
        for s in code642.stabilizers:
            assert np.max(np.abs(sc.dense(s) @ psi - psi)) <= TOL


def test_prepare_state_rejects_mixed_type_codes(code513):
    with pytest.raises(ValueError):
        sc.prepare_css_state(code513, "0")


def test_expected_images_default_and_normalize(code642):
    rows = sc.expected_images(code642)
    assert [name for name, _, _ in rows] == [
        "S1", "S2", "X1", "X2", "X3", "X4", "Z1", "Z2", "Z3", "Z4"]
    assert all(given == want for _, given, want in rows)
    spec = sc.load_spec((FIXTURES / "swapxz.spec").read_text())
    rows = sc.expected_images(code642, spec)
    by_name = {name: want for name, _, want in rows}
    assert sc.to_label(by_name["S1"]) == "ZZZZZZ"
    assert sc.to_label(by_name["S2"]) == "XXXXXX"
    assert sc.to_label(by_name["X1"]) == "IZIIIZ"


def test_verify_identity_circuit_passes(code642):
    report = sc.verify_solution(code642, None, sc.circuit(6, []))
    assert report.passed
    assert len(report.rows) == 10


def test_verify_published_entangling_circuit(code642):
    spec = sc.load_spec((FIXTURES / "cz12.spec").read_text())
    c = _circ(6, "Z 6\nCZ 2 3\nCZ 2 6\nCZ 3 6\n")
    report = sc.verify_solution(code642, spec, c, dense_check=True)
    assert report.passed
    by_name = {r.name: r for r in report.rows}
    assert sc.to_label(by_name["X1"].computed) == "XXZIIZ"
    assert sc.to_label(by_name["X2"].computed) == "XZXIIZ"


def test_verify_reports_the_exact_failing_row(code642):
    spec = sc.load_spec((FIXTURES / "cz12.spec").read_text())
    c = _circ(6, "CZ 2 3\nCZ 2 6\nCZ 3 6\n")  # sign fix dropped
    report = sc.verify_solution(code642, spec, c)
    assert not report.passed
    bad = [r for r in report.rows if not r.ok]
    assert [r.name for r in bad] == ["S1"]
    assert sc.to_label(bad[0].computed) == "-XXXXXX"
    text = report.render()
    assert "FAIL S1" in text and text.endswith("result: fail")


def _three_label_render(report):
    """ConjugationReport.render as it formatted all three labels of a row."""
    lines = ["%-4s %-4s %s -> %s (want %s)"
             % ("ok" if r.ok else "FAIL", r.name, sc.to_label(r.given),
                sc.to_label(r.computed), sc.to_label(r.expected))
             for r in report.rows]
    return "\n".join(lines + ["result: %s" % ("pass" if report.passed else "fail")])


def test_render_reuses_the_computed_label_only_for_an_equal_wanted_operator(code642):
    spec = sc.load_spec((FIXTURES / "cz12.spec").read_text())
    passing = sc.verify_solution(code642, spec, _circ(6, "Z 6\nCZ 2 3\nCZ 2 6\nCZ 3 6\n"))
    # a deliberately wrong circuit: the sign fix and a CZ dropped, an H added
    failing = sc.verify_solution(code642, spec, _circ(6, "CZ 2 3\nCZ 2 6\nH 4\n"))
    assert passing.passed and not failing.passed
    row = passing.rows[0]
    # a row whose images agree but that failed the dense check
    odd = sc.ConjugationReport((sc.ReportRow(row.name, row.given, row.expected,
                                             row.computed, False),))
    for report in (passing, failing, odd):
        assert report.render() == _three_label_render(report)


@pytest.mark.parametrize("labels,sizes", [
    (["XIIZZ"], (5, 3)),           # too long: the extra qubits were ignored
    (["XII", "XIIZ"], (4, 3)),     # mixed sizes
    (["XI"], (2, 3)),              # too short
])
def test_conjugate_many_rejects_a_qubit_count_mismatch(labels, sizes):
    c = sc.parse("CNOT 1 3\nH 2\n", 3)
    with pytest.raises(ValueError, match="operator acts on %d qubits, circuit "
                       "on %d" % sizes):
        sc.conjugate_many(c, [sc.from_label(t) for t in labels])


@pytest.mark.parametrize("bad", [
    # (gate, what Circuit raises); unchecked, H 0 would act on the last
    # qubit, CNOT 1 1 would map XI to II and PERMUTE 1 1 would map IX to XX
    (sc.Gate("H", (0,)), "qubits are numbered from 1"),
    (sc.Gate("CNOT", (1, 1)), "CNOT needs two distinct qubits"),
    (sc.Gate("PERMUTE", (1, 1)), "PERMUTE needs the full image of qubits 1..m"),
    (sc.Gate("X", (3,)), "gate X 3 exceeds qubit count 2"),  # past the end
    (sc.Gate("H", (1, 2)), "H takes 1 qubit(s), got 2"),
    (sc.Gate("H", ()), "H takes 1 qubit(s), got 0"),
    (sc.Gate("CNOT", (1,)), "CNOT takes 2 qubit(s), got 1"),
    (sc.Gate("H", (1.7,)), "qubit 1.7 is not an integer"),
    (sc.Gate("H", (1.0,)), "qubit 1.0 is not an integer"),
    (sc.Gate("CZ", (2, 2.5)), "qubit 2.5 is not an integer"),
])
def test_tableau_rejects_gates_that_bypassed_gate(bad):
    # a gate that bypassed gate() never reaches the tableau: Circuit refuses it
    g, message = bad
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        sc.Circuit(2, (sc.Gate("H", (1,)), g))


def test_fix_signs_and_verify_reject_a_circuit_on_other_qubits(code642):
    c = sc.circuit(5, [])
    with pytest.raises(ValueError, match="acts on 6 qubits, circuit on 5"):
        sc.fix_signs(code642, None, c)
    with pytest.raises(ValueError, match="acts on 6 qubits, circuit on 5"):
        sc.verify_solution(code642, None, c)


def test_fix_signs_names_the_first_failing_row(code642):
    # the identity circuit leaves X1 and X2 where cz12 wants them moved
    spec = sc.load_spec((FIXTURES / "cz12.spec").read_text())
    with pytest.raises(ValueError, match="^row X1: circuit does not realize"):
        sc.fix_signs(code642, spec, sc.circuit(6, []))


@pytest.mark.parametrize("x2,z1,error,message", [
    ("+iXIXIII", "ZZIIII", RuntimeError, "image of a Hermitian row"),
    ("ZZIIII", "+iIZIIIZ", ValueError, "circuit does not realize"),
])
def test_fix_signs_failure_order_picks_the_exception(code642, x2, z1, error, message):
    # X2 comes before Z1 in expected_images order; one wants an imaginary
    # phase on the right binary image, the other a wrong binary image
    spec = types.SimpleNamespace(images_x={2: sc.from_label(x2)},
                                 images_z={1: sc.from_label(z1)})
    with pytest.raises(error, match="^row X2: " + message):
        sc.fix_signs(code642, spec, sc.circuit(6, []))


def test_fix_signs_treats_a_wanted_row_on_other_qubits_as_a_wrong_image(code642):
    spec = types.SimpleNamespace(images_z={3: sc.from_label("IZIIIZZ")})
    with pytest.raises(ValueError, match="^row Z3: circuit does not realize"):
        sc.fix_signs(code642, spec, sc.circuit(6, []))
