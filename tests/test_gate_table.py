"""The gate table and the circuits the package builds from it.

The package's emitters (decompose's _emit and lane read-off _lane_gates,
the sign fix's correction) pick their gates from circuit._table and make
their circuits with circuit._trusted, so no emitted gate passes the gate
rule again.  These tests stand in for that skipped check: every gate of
every such circuit must pass circuit._checked as the very same object, on
random symplectic matrices, the [[6,4,2]] goldens, every [[5,1,3]]
hadamard5q lane and seeded Hamming specs at m = 31 and 63.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sympcliff as sc
from sympcliff import synth
from sympcliff.circuit import GATE_KINDS, _checked, _table, _table_on
from sympcliff.decompose import _emit_lanes, _factor_lanes, _lane_gates
from conftest import FIXTURES
from helpers import (golden_solution_sets, hamming_parity, random_logical_spec,
                     ref_slice, symplectic)

CIRCUIT = importlib.import_module("sympcliff.circuit")


def _spec(name):
    return sc.load_spec((FIXTURES / ("%s.spec" % name)).read_text())


def _assert_rule_keeps(gates, m):
    """The gate rule on m qubits passes every gate as the same object."""
    got = _checked(gates, m)
    assert len(got) == len(gates)
    assert all(a is b for a, b in zip(got, gates))


def _assert_emitted_circuits_pass(res, m):
    """realize's sign-fixed circuit, factors_to_circuit's raw circuit and
    factor_to_gates' gates of one result."""
    _assert_rule_keeps(res.circuit.gates, m)
    raw = sc.factors_to_circuit(res.factors, m)
    _assert_rule_keeps(raw.gates, m)
    assert raw.gates == res.circuit.gates[len(res.circuit) - len(raw):]
    for f in res.factors:
        _assert_rule_keeps(sc.factor_to_gates(f), m)


def _lanes(sliced, n, m):
    """Every lane's gates, read off the lane core's template."""
    full = (1 << n) - 1
    gates = _emit_lanes(_factor_lanes(sliced, full), full)
    return [_lane_gates(gates, lane, m) for lane in range(n)]


def _contenders(code, spec, monkeypatch):
    """min_depth's result, and every circuit that _rank sign-fixed: each
    contender's lane circuit and its corrected circuit."""
    seen = []
    real = synth.fix_signs

    def recording(code, spec, raw):
        out = real(code, spec, raw)
        seen.extend([raw, out[0]])
        return out

    with monkeypatch.context() as patched:
        patched.setattr(synth, "fix_signs", recording)
        best, = sc.synthesize(code, spec, mode="min_depth")
    assert seen
    return best, seen


def _trivial_code_and_spec(f, signs):
    """The code with no stabilizers on m qubits, logical X_i and Z_i the
    single-qubit Paulis, and the spec sending them to the rows of f with
    the given signs, so f is the one solution."""
    m = len(f) // 2
    unit = np.eye(2 * m, dtype=np.uint8)
    code = sc.make_code(m, [], [sc.from_gamma(unit[i]) for i in range(m)],
                        [sc.from_gamma(unit[m + i]) for i in range(m)])
    spec = sc.CliffordSpec(
        images_x={i + 1: sc.from_gamma(f[i], 2 * signs[i]) for i in range(m)},
        images_z={i + 1: sc.from_gamma(f[m + i], 2 * signs[m + i]) for i in range(m)})
    return code, spec


@pytest.mark.parametrize("m", [0, 1, 2, 5, 33])
def test_every_table_entry_is_its_gate_and_passes_the_rule_as_itself(m):
    table = _table_on(m)
    assert sorted(table) == sorted(k for k in GATE_KINDS if k != "PERMUTE")
    entries = []
    for kind, rows in table.items():
        assert len(rows) == m + 1 and rows[0] is None
        for q in range(1, m + 1):
            if kind in ("CZ", "CNOT"):
                assert len(rows[q]) == m + 1
                for r in range(m + 1):
                    valid = r > q if kind == "CZ" else r and r != q
                    if valid:
                        assert type(rows[q][r]) is sc.Gate
                        assert rows[q][r] == (kind, (q, r))
                        entries.append(rows[q][r])
                    else:
                        assert rows[q][r] is None
            else:
                assert type(rows[q]) is sc.Gate and rows[q] == (kind, (q,))
                entries.append(rows[q])
    assert len(entries) == 5 * m + 3 * m * (m - 1) // 2
    _assert_rule_keeps(entries, m)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_emitted_circuits_pass_the_rule_unchanged_on_random_symplectic(data):
    m = data.draw(st.integers(1, 8))
    fs = data.draw(st.lists(symplectic(min_m=m, max_m=m), min_size=1, max_size=4))
    for f in fs:
        signs = data.draw(st.lists(st.integers(0, 1), min_size=2 * m, max_size=2 * m))
        code, spec = _trivial_code_and_spec(f, signs)
        res = sc.realize(code, spec, f)
        _assert_emitted_circuits_pass(res, m)
        fixed, _ = sc.fix_signs(code, spec, sc.factors_to_circuit(res.factors, m))
        assert fixed == res.circuit
        _assert_rule_keeps(fixed.gates, m)
    for gates, f in zip(_lanes(ref_slice(np.stack(fs)), len(fs), m), fs):
        _assert_rule_keeps(gates, m)
        assert gates == list(sc.factors_to_circuit(sc.decompose(f), m).gates)


def test_emitted_circuits_pass_the_rule_unchanged_on_the_642_goldens(code642,
                                                                    monkeypatch):
    for name in golden_solution_sets():
        spec = _spec(name)
        for res in sc.synthesize(code642, spec, mode="all"):
            _assert_emitted_circuits_pass(res, 6)
        best, seen = _contenders(code642, spec, monkeypatch)
        _assert_emitted_circuits_pass(best, 6)
        for c in seen:
            _assert_rule_keeps(c.gates, 6)


def test_every_hadamard5q_lane_passes_the_rule_unchanged(code513, monkeypatch):
    spec = _spec("hadamard5q")
    f0 = sc.find_symplectic(sc.build_system(code513, spec))
    deltas = synth._deltas(code513, f0)
    lanes = _lanes(synth._sliced(f0, deltas, range(1024)), 1024, 5)
    for gates in lanes:
        _assert_rule_keeps(gates, 5)
    for i in (0, 1, 511, 1023):
        f = next(synth._solutions(f0, deltas, i, i + 1))
        assert lanes[i] == list(sc.factors_to_circuit(sc.decompose(f), 5).gates)
    best, seen = _contenders(code513, spec, monkeypatch)
    _assert_emitted_circuits_pass(best, 5)
    for c in seen:
        _assert_rule_keeps(c.gates, 5)


@pytest.mark.parametrize("r", [5, 6])
def test_hamming_circuits_pass_the_rule_unchanged(r):
    code = sc.css_build(sc.CssSpec(hc=hamming_parity(r)))
    rng = np.random.default_rng(31 + r)
    for i in range(2):
        spec = random_logical_spec(code, rng, "table%d_%d" % (r, i))
        f0 = sc.find_symplectic(sc.build_system(code, spec))
        _assert_emitted_circuits_pass(sc.realize(code, spec, f0), code.m)
    if r == 5:  # four lanes of one [[31,21,3]] batch
        idx = [0, 1, 1 << 40, 12345]
        for gates in _lanes(synth._sliced(f0, synth._deltas(code, f0), idx), 4, code.m):
            _assert_rule_keeps(gates, code.m)


def test_the_table_grows_once_and_never_for_a_smaller_m(monkeypatch):
    # hamming_single's cycle: after one m = 31 realize, m = 7, 15 and 31
    # keep the same table; m = 63 builds one larger table, once
    builds = []

    def counting(m):
        builds.append(m)
        return _table_on(m)

    monkeypatch.setattr(CIRCUIT, "_TABLE", {})
    monkeypatch.setattr(CIRCUIT, "_table_on", counting)
    codes = {r: sc.css_build(sc.CssSpec(hc=hamming_parity(r))) for r in (3, 4, 5, 6)}
    rng = np.random.default_rng(7)

    def realize(r):
        code = codes[r]
        spec = random_logical_spec(code, rng, "grow%d" % r)
        assert sc.realize(code, spec, sc.find_symplectic(sc.build_system(code, spec)))

    realize(5)
    table = CIRCUIT._TABLE
    assert builds == [31] and _table(31) is table
    for r in (3, 4, 5, 3, 4, 5):
        realize(r)
        assert CIRCUIT._TABLE is table
    assert builds == [31]
    realize(6)
    grown = CIRCUIT._TABLE
    assert builds == [31, 63] and len(grown["H"]) == 64
    for r in (3, 4, 5, 6):
        realize(r)
        assert CIRCUIT._TABLE is grown
    assert builds == [31, 63]
