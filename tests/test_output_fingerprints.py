"""Output guard: a fixed handful of benchmark inputs must give the output
digests recorded in perfbench/data/fingerprints.json.

The inputs are built and run by the benchmark's own workload code in
perfbench/workloads.py, which this test imports and does not change: four
``hamming_single`` universe triples (one solution each on the [[7,1,3]],
[[15,7,3]] and [[31,21,3]] Hamming codes), the ``hadamard5q`` input of
``min513`` (min-depth over 1024 solutions of the [[5,1,3]] code) and one
``min513`` universe input from each of the six classes of Sp(2, F2), the
workload's own stratification.  A digest covers every output bit: circuit
text, Pauli correction and depth.

``cli642_all`` is left out on purpose: its recorded digests predate the
S-index order in which ``mode="all"`` lists (and numbers) the solutions, so
they no longer match.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import sympcliff as sc

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
HAMMING_TRIPLES = (0, 17, 58, 95)


@pytest.fixture(scope="module")
def bench():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import workloads
    recorded = json.loads((PERFBENCH / "data" / "fingerprints.json").read_text())
    return workloads, recorded


def test_hamming_single_triples_match_recorded_digests(bench):
    workloads, recorded = bench
    wl = workloads.HammingSingle()
    wl.codes = wl._codes()
    for idx in HAMMING_TRIPLES:
        item = wl._triple(idx)
        got = workloads.digest(wl.canonical(item, wl.run(item)))
        assert got == recorded[wl.name][wl.key(item)], "universe triple %d" % idx


def test_min513_hadamard5q_matches_recorded_digest(bench):
    workloads, recorded = bench
    wl = workloads.Min513()
    wl.code = wl._code()
    text = (workloads.DATA / "hadamard5q.spec").read_text()
    item = (text, sc.load_spec(text))
    got = workloads.digest(wl.canonical(item, wl.run(item)))
    assert got == recorded[wl.name][wl.key(item)]


def test_min513_one_input_per_class_matches_recorded_digests(bench, tmp_path):
    workloads, recorded = bench
    wl = workloads.Min513()
    wl.universe_setup(tmp_path)
    firsts = {}
    for item in wl.pool:
        if item[1].name != "hadamard5q":  # tested above; _action reads drawn specs
            firsts.setdefault(wl._action(item[0]), item)
    assert len(firsts) == 6
    for action, item in sorted(firsts.items()):
        got = workloads.digest(wl.canonical(item, wl.run(item)))
        assert got == recorded[wl.name][wl.key(item)], action
