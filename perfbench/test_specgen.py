"""Tests of the benchmark's seeded random logical Clifford generator.

    python3 -m pytest perfbench
"""

import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import sympcliff as sc  # noqa: E402
from specgen import _inner, random_logical_spec, random_symplectic_basis  # noqa: E402
from workloads import DATA, hamming_parity  # noqa: E402


def _labels(ops):
    return [sc.to_label(p) for p in ops]


def _codes():
    yield sc.load_code((DATA / "sixfourtwo.code").read_text())
    yield sc.load_code((DATA / "fivequbit.code").read_text())
    for r in (3, 4, 5):
        yield sc.css_build(sc.CssSpec(hc=hamming_parity(r)))


CODES = list(_codes())


def _spec(code, seed):
    return random_logical_spec("g", _labels(code.logical_x),
                               _labels(code.logical_z), seed)


@pytest.mark.parametrize("n", [1, 2, 4, 21])
def test_basis_is_symplectic(n):
    rng = random.Random(n)
    rows = random_symplectic_basis(n, rng)
    for i in range(2 * n):
        for j in range(2 * n):
            want = 1 if abs(i - j) == n else 0
            assert _inner(rows[i], rows[j], n) == want


@pytest.mark.parametrize("code", CODES, ids=lambda c: "m%d" % c.m)
def test_same_seed_same_spec(code):
    assert _spec(code, "s:7") == _spec(code, "s:7")
    assert _spec(code, 12) == _spec(code, 12)


@pytest.mark.parametrize("code", [c for c in CODES if c.n_logical > 1],
                         ids=lambda c: "m%d" % c.m)
def test_different_seed_different_spec(code):
    specs = {_spec(code, "s:%d" % i) for i in range(20)}
    assert len(specs) == 20


def test_one_logical_qubit_reaches_all_24_actions():
    code = CODES[1]
    specs = {_spec(code, i) for i in range(400)}
    assert len(specs) == 24


@pytest.mark.parametrize("code", CODES, ids=lambda c: "m%d" % c.m)
def test_every_spec_passes_build_system(code):
    for i in range(10 if code.m < 31 else 3):
        spec = sc.load_spec(_spec(code, "b:%d" % i))
        system = sc.build_system(code, spec)
        assert len(system) == code.m + code.n_logical
