from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sympcliff as sc
from conftest import FIXTURES
from sympcliff import cli, synth
from sympcliff.cli import entry, main

CODE642 = str(FIXTURES / "sixfourtwo.code")
CODE513 = str(FIXTURES / "fivequbit.code")
SRC = str(Path(sc.__file__).resolve().parents[1])


def _python(*args, **kwargs):
    """subprocess.run of `python <args>`, importing this checkout's package,
    at 80 columns, with its output captured as text."""
    env = dict(os.environ, COLUMNS="80",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120, **kwargs)


def run_fresh(argv, *flags, cwd=None):
    """(exit code, stdout, stderr) of `python <flags> -m sympcliff <argv>` in
    a new process."""
    proc = _python(*flags, "-m", "sympcliff", *argv, cwd=cwd)
    return proc.returncode, proc.stdout, proc.stderr


# Calls cli.main on each argv of the JSON list on stdin, capturing its
# streams, and prints the JSON list of (exit code, stdout, stderr).
_DRIVER = """
import contextlib, io, json, sys
from sympcliff.cli import main
runs = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    runs.append((rc, out.getvalue(), err.getvalue()))
json.dump(runs, sys.stdout)
"""


def run_in_one_process(argvs, *flags, cwd=None):
    """[(exit code, stdout, stderr)] of cli.main on each argv in turn, in one
    new `python <flags>` process."""
    proc = _python(*flags, "-c", _DRIVER, cwd=cwd, input=json.dumps(argvs), check=True)
    return [tuple(run) for run in json.loads(proc.stdout)]


def test_info_published_code(capsys):
    assert main(["info", "--code", CODE642]) == 0
    assert capsys.readouterr().out == \
        "m=6 k=2 logical=4 solutions-per-operator=8\n"


def test_info_five_qubit_code(capsys):
    assert main(["info", "--code", CODE513]) == 0
    assert capsys.readouterr().out == \
        "m=5 k=4 logical=1 solutions-per-operator=1024\n"


@pytest.mark.parametrize("count", [10**20, -3])
def test_info_rejects_impossible_qubit_counts(count, tmp_path, capsys):
    path = tmp_path / "bad.code"
    path.write_text("qubits %d\n" % count)
    assert main(["info", "--code", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_synth_min_depth_writes_one_file(tmp_path, capsys):
    rc = main(["synth", "--code", CODE642,
               "--spec", str(FIXTURES / "phase1.spec"), "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("1 solution\n")
    assert "depth 2, gates 3, correction IIIIII" in out
    path = tmp_path / "phase1_min_depth.circ"
    circ = sc.parse(path.read_text())
    assert sorted(str(g) for g in circ.gates) == ["CZ 2 6", "P 2", "P 6"]


def test_synth_all_writes_every_solution(tmp_path, capsys, code642):
    rc = main(["synth", "--code", CODE642,
               "--spec", str(FIXTURES / "phase1.spec"),
               "--all", "--out", str(tmp_path)])
    assert rc == 0
    assert capsys.readouterr().out.startswith("8 solutions\n")
    spec = sc.load_spec((FIXTURES / "phase1.spec").read_text())
    for i in range(1, 9):
        circ = sc.parse((tmp_path / ("phase1_%d.circ" % i)).read_text())
        assert sc.verify_solution(code642, spec, circ).passed


def test_synth_all_runs_in_process_at_any_jobs(tmp_path, capsys, monkeypatch):
    # --all never starts a process pool: with one that refuses to start,
    # --jobs 2 prints the same text and writes the same bytes as --jobs 1
    def refuse(*args, **kwargs):
        raise AssertionError("a process pool started")

    monkeypatch.setattr(synth, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(synth.os, "cpu_count", lambda: 4)
    runs = []
    for jobs in ("1", "2"):
        cwd = tmp_path / ("jobs" + jobs)
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        rc = main(["synth", "--all", "--jobs", jobs, "--code", CODE642,
                   "--spec", str(FIXTURES / "hadamard1.spec"), "--out", "out"])
        files = {p.name: p.read_bytes() for p in (cwd / "out").iterdir()}
        runs.append((rc, capsys.readouterr().out, files))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and len(runs[0][2]) == 8


def test_synth_policy_override(tmp_path, capsys):
    rc = main(["synth", "--code", CODE642,
               "--spec", str(FIXTURES / "phase1.spec"),
               "--all", "--normalize", "--out", str(tmp_path)])
    assert rc == 0
    assert capsys.readouterr().out.startswith("8 solutions\n")
    # forcing centralize onto a spec that rewrites stabilizers cannot work
    rc = main(["synth", "--code", CODE642,
               "--spec", str(FIXTURES / "swapxz.spec"),
               "--centralize", "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_synth_unreadable_spec(tmp_path, capsys):
    out = tmp_path / "results"
    rc = main(["synth", "--code", CODE642,
               "--spec", str(tmp_path / "missing.spec"), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("case", ["info_on_a_directory",
                                  "synth_out_on_an_existing_file",
                                  "decompose_out_on_a_directory"])
def test_os_errors_exit_2(case, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    argv = {"info_on_a_directory": ["info", "--code", str(tmp_path)],
            "synth_out_on_an_existing_file":
                ["synth", "--code", CODE642, "--spec",
                 str(FIXTURES / "phase1.spec"), "--out", str(taken)],
            "decompose_out_on_a_directory":
                ["decompose", "--matrix", str(FIXTURES / "omega6.mat"),
                 "--out", str(tmp_path)]}[case]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_synth_checks_out_before_synthesizing(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("synthesize ran before --out was checked")

    monkeypatch.setattr("sympcliff.cli.synthesize", refuse)
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["synth", "--code", CODE642, "--spec",
                 str(FIXTURES / "phase1.spec"), "--out", str(taken)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_synth_solution_cap(tmp_path, capsys):
    rc = main(["synth", "--code", CODE642,
               "--spec", str(FIXTURES / "phase1.spec"),
               "--all", "--max-solutions", "4", "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_verify_pass_and_fail(tmp_path, capsys):
    good = tmp_path / "good.circ"
    good.write_text("qubits 6\nZ 6\nCZ 2 3\nCZ 2 6\nCZ 3 6\n")
    rc = main(["verify", "--code", CODE642,
               "--spec", str(FIXTURES / "cz12.spec"),
               "--circuit", str(good), "--dense"])
    assert rc == 0
    assert "result: pass" in capsys.readouterr().out
    bad = tmp_path / "bad.circ"
    bad.write_text("qubits 6\nCZ 2 3\nCZ 2 6\nCZ 3 6\n")
    rc = main(["verify", "--code", CODE642,
               "--spec", str(FIXTURES / "cz12.spec"), "--circuit", str(bad)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL S1" in out and "result: fail" in out


@pytest.mark.parametrize("line,message", [
    ("mapX 7 ZZZZZZ", "mapX index 7 out of range 1..4"),
    ("mapX 1 ZZZ", "mapX 1 acts on 3 qubits, code has 6"),
])
def test_verify_refuses_a_spec_that_synth_refuses(line, message, tmp_path, capsys):
    spec = tmp_path / "bad.spec"
    spec.write_text("op bad\n%s\n" % line)
    empty = tmp_path / "empty.circ"
    empty.write_text("qubits 6\n")
    for argv in (["synth", "--out", str(tmp_path / "out")],
                 ["verify", "--circuit", str(empty)]):
        assert main(argv + ["--code", CODE642, "--spec", str(spec)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: %s\n" % message)


def test_decompose_identity_to_stdout(tmp_path, capsys):
    mat = tmp_path / "eye.mat"
    mat.write_text(sc.save_matrix_text(np.eye(12, dtype=np.uint8)))
    assert main(["decompose", "--matrix", str(mat)]) == 0
    out = capsys.readouterr().out
    assert out == "factors: (identity)\nqubits 6\n"


def test_decompose_omega_to_file(tmp_path, capsys):
    out_path = tmp_path / "omega.circ"
    rc = main(["decompose", "--matrix", str(FIXTURES / "omega6.mat"),
               "--out", str(out_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "factors: OMEGA"
    assert "wrote %s" % out_path in out
    circ = sc.parse(out_path.read_text())
    assert [str(g) for g in circ.gates] == ["H 1", "H 2", "H 3"]


def test_decompose_rejects_nonsymplectic(tmp_path, capsys):
    mat = tmp_path / "bad.mat"
    mat.write_text(sc.save_matrix_text(np.ones((12, 12), np.uint8)))
    assert main(["decompose", "--matrix", str(mat)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_css_pair_form_matches_fixture(tmp_path, capsys, code642):
    g1 = tmp_path / "g1.mat"
    g2 = tmp_path / "g2.mat"
    g1.write_text("1 1 1 1 1 1\n1 1 0 0 0 0\n1 0 1 0 0 0\n"
                  "1 0 0 1 0 0\n1 0 0 0 1 0\n")
    g2.write_text("1 1 1 1 1 1\n")
    out_path = tmp_path / "built.code"
    rc = main(["css", "--g1", str(g1), "--g2", str(g2), "--out", str(out_path)])
    assert rc == 0
    assert capsys.readouterr().out == \
        "m=6 k=2 logical=4 file %s\n" % out_path
    assert out_path.read_text() == sc.save_code(code642)


def test_css_conflicting_forms(tmp_path, capsys):
    mat = str(FIXTURES / "hc_642.mat")
    pair = "error: pair form needs exactly g1 and g2\n"
    for flags, message in ((["--hc", mat, "--g1", mat], pair),
                           (["--g1", mat], pair),
                           (["--g1", mat, "--g2", mat, "--gx", mat], pair),
                           (["--gx", mat], "error: need hc or the g1/g2 pair\n")):
        rc = main(["css", *flags, "--out", str(tmp_path / "x.code")])
        assert rc == 2
        assert capsys.readouterr() == ("", message)
    assert not (tmp_path / "x.code").exists()


def test_bad_arguments_exit_2(capsys):
    assert main([]) == 2
    assert main(["synth", "--code", CODE642]) == 2
    assert main(["synth", "--code", CODE642,
                 "--spec", str(FIXTURES / "phase1.spec"),
                 "--all", "--min-depth"]) == 2
    capsys.readouterr()


def test_entry_point_exits_with_status(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["sympcliff", "info", "--code", CODE642])
    with pytest.raises(SystemExit) as exc:
        entry()
    assert exc.value.code == 0
    capsys.readouterr()


def test_repeated_in_process_calls_match_fresh_processes(tmp_path, capsys,
                                                         monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    bad = ["synth", "--code", CODE642]
    calls = [bad, ["--help"], ["info", "--code", CODE642],
             ["info", "--code", str(tmp_path)], bad]
    cli._build_parser.cache_clear()
    for argv in calls:
        rc = main(argv)
        captured = capsys.readouterr()
        assert (rc, captured.out, captured.err) == run_fresh(argv)
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(calls) - 1)


def test_cli_under_optimize_flag_matches_plain_run(tmp_path):
    # python -O strips assert statements, so a check written as one would
    # change what these runs print
    spec = str(FIXTURES / "cz12.spec")
    bad = tmp_path / "bad.mat"
    bad.write_text(sc.save_matrix_text(np.ones((12, 12), np.uint8)))
    runs = {}
    for flags in ((), ("-O",)):
        cwd = tmp_path / ("run%s" % "".join(flags))
        cwd.mkdir()
        # the first run goes through the entry point, the rest through
        # cli.main in one process
        out = [run_fresh(["synth", "--all", "--code", CODE642, "--spec", spec,
                          "--out", "out"], *flags, cwd=cwd)]
        files = sorted((cwd / "out").iterdir())
        assert len(files) == 8
        argvs = [["verify", "--code", CODE642, "--spec", spec,
                  "--circuit", str(path.relative_to(cwd))] for path in files]
        argvs += [["decompose", "--matrix", mat]
                  for mat in (str(FIXTURES / "omega6.mat"), str(bad))]
        # the default mode, min_depth, ranks through the bit-sliced lane core
        argvs.append(["synth", "--code", CODE513, "--spec",
                      str(FIXTURES / "hadamard5q.spec"), "--out", "min"])
        out += run_in_one_process(argvs, *flags, cwd=cwd)
        files += sorted((cwd / "min").iterdir())
        runs[flags] = out, {p.name: p.read_text() for p in files}
    assert runs[("-O",)] == runs[()]
    assert [rc for rc, _, _ in runs[()][0]] == [0] * 10 + [2, 0]
    assert runs[()][0][11][1].startswith("1 solution\nsolution 1: depth ")
    assert runs[()][0][11][2] == ""
    assert "hadamard5q_min_depth.circ" in runs[()][1]
    assert runs[()][0][0][1].startswith("8 solutions\n")
    assert runs[()][0][9][1] == "factors: OMEGA\nqubits 3\nH 1\nH 2\nH 3\n"
    assert runs[()][0][10][2].startswith("error: input matrix is not symplectic")
    assert all(err == "" for _, _, err in runs[()][0][:10])
