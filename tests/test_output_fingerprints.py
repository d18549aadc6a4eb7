"""Output guard: every benchmark input that any seed can draw must give the
output digest recorded in perfbench/data/fingerprints.json.

The inputs are built and run by the benchmark's own workload code in
perfbench/workloads.py, which this test imports and does not change: all
96 ``hamming_single`` universe triples (one solution each on the [[7,1,3]],
[[15,7,3]] and [[31,21,3]] Hamming codes) and all 25 ``min513`` universe
inputs (min-depth over 1024 solutions of the [[5,1,3]] code): the
``hadamard5q`` input and 24 drawn specs, which cover all six classes of
Sp(2, F2), the workload's own stratification.  Each universe must be
exactly the set of recorded inputs.  A digest covers every output bit:
circuit text, Pauli correction and depth.

``cli642_all`` is left out on purpose: its recorded digests predate the
S-index order in which ``mode="all"`` lists (and numbers) the solutions, so
they no longer match.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import workloads
    recorded = json.loads((PERFBENCH / "data" / "fingerprints.json").read_text())
    return workloads, recorded


def _universe_digests(workloads, wl, tmp_path) -> dict[str, str]:
    wl.universe_setup(tmp_path)
    return {wl.key(item): workloads.digest(wl.canonical(item, wl.run(item)))
            for item in wl.pool}


def test_hamming_single_triples_match_recorded_digests(bench, tmp_path):
    workloads, recorded = bench
    wl = workloads.HammingSingle()
    got = _universe_digests(workloads, wl, tmp_path)
    assert len(got) == 96
    assert got == recorded[wl.name]


@pytest.fixture(scope="module")
def min513(bench, tmp_path_factory):
    workloads, recorded = bench
    wl = workloads.Min513()
    got = _universe_digests(workloads, wl, tmp_path_factory.mktemp("min513"))
    return wl, got, recorded[wl.name]


def test_min513_hadamard5q_matches_recorded_digest(min513):
    wl, got, recorded = min513
    (item,) = [item for item in wl.pool if item[1].name == "hadamard5q"]
    assert got[wl.key(item)] == recorded[wl.key(item)]


def test_min513_one_input_per_class_matches_recorded_digests(min513):
    wl, got, recorded = min513
    firsts = {}
    for item in wl.pool:
        if item[1].name != "hadamard5q":  # _action reads drawn specs only
            firsts.setdefault(wl._action(item[0]), item)
    assert len(firsts) == 6
    for action, item in sorted(firsts.items()):
        assert got[wl.key(item)] == recorded[wl.key(item)], action


def test_min513_universe_matches_recorded_digests(min513):
    wl, got, recorded = min513
    assert len(got) == 25
    assert got == recorded
