"""The benchmark's three workloads: inputs built from a seed, one operation,
and the checks on its outputs.

Each workload draws its operators from a fixed universe of seeded specs (all
24 signed logical actions for [[5,1,3]]), so a digest of every possible
output can be recorded once (data/fingerprints.json) and compared on any
seed.  The seed picks which universe members a run uses and in what order.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import sympcliff as sc
from sympcliff import cli

from specgen import random_logical_spec

DATA = Path(__file__).resolve().parent / "data"
FIXTURES_642 = ("phase1", "cz12", "cnot21", "hadamard1", "swapxz")


def _labels(ops) -> list[str]:
    return [sc.to_label(p) for p in ops]


def _gamma(p) -> np.ndarray:
    return np.concatenate([p.a, p.b]).astype(np.int64)


def _omega(m: int) -> np.ndarray:
    z, i = np.zeros((m, m), np.int64), np.eye(m, dtype=np.int64)
    return np.block([[z, i], [i, z]])


def expected_rows(code, spec):
    """(input, required image) for every stabilizer generator and logical
    Pauli, read straight off the code and the spec."""
    rows = []
    for j, s in enumerate(code.stabilizers, start=1):
        rows.append((s, spec.stab_images.get(j, s) if spec.policy == "normalize" else s))
    for i, p in enumerate(code.logical_x, start=1):
        rows.append((p, spec.images_x.get(i, p)))
    for i, p in enumerate(code.logical_z, start=1):
        rows.append((p, spec.images_z.get(i, p)))
    return rows


def solution_count(code) -> int:
    return 1 << (code.k * (code.k + 1) // 2)


def matrix_problems(code, spec, f) -> list[str]:
    """F must be symplectic and send every input row's binary image to the
    required one."""
    f = np.asarray(f, dtype=np.int64)
    w = _omega(code.m)
    if f.shape != w.shape or not np.array_equal((f @ w @ f.T) % 2, w):
        return ["matrix is not symplectic"]
    return ["row %s maps to the wrong binary image" % sc.to_label(given)
            for given, want in expected_rows(code, spec)
            if not np.array_equal((_gamma(given) @ f) % 2, _gamma(want))]


def dense_problems(code, spec, circ) -> list[str]:
    """Conjugate every row by the circuit's dense unitary; signs included."""
    u = sc.dense_unitary(circ)
    return ["dense check: row %s is wrong" % sc.to_label(given)
            for given, want in expected_rows(code, spec)
            if np.max(np.abs(u @ sc.dense(given) @ u.conj().T - sc.dense(want))) > 1e-9]


def result_problems(code, spec, res) -> list[str]:
    probs = matrix_problems(code, spec, res.f)
    if not np.array_equal(sc.induced_symplectic(res.circuit)[0], res.f):
        probs.append("circuit does not induce its matrix F")
    if not res.report.passed:
        probs.append("verification report failed")
    return probs


def _key(*parts: str) -> str:
    return hashlib.sha256("\0".join(parts).encode()).hexdigest()[:16]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _result_text(res) -> str:
    return "%scorrection %s\ndepth %d\n" % (sc.serialize(res.circuit),
                                           sc.to_label(res.pauli_correction),
                                           res.depth)


def hamming_parity(r: int) -> np.ndarray:
    """r x (2^r - 1) parity matrix whose columns are 1 .. 2^r - 1 in binary."""
    m = (1 << r) - 1
    return np.array([[(c >> i) & 1 for c in range(1, m + 1)] for i in range(r)],
                    dtype=np.uint8)


class Workload:
    """One workload.  ``setup`` builds ``pool`` (the run's distinct inputs,
    cycled in order); ``run`` is the timed operation; everything else runs
    outside the timed region."""

    name = ""
    trace_ops = 1  # operations in each traced pass
    dense_sample = 0  # inputs per run cross-checked with dense unitaries

    @staticmethod
    def span(name: str):
        """Context for a span the workload opens itself; a tracer replaces it."""
        return nullcontext()

    def setup(self, seed, tmp: Path) -> None:
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def collect(self, item, raw):
        """Turn a raw operation result into the record the checks read."""
        return raw

    def key(self, item) -> str:
        raise NotImplementedError

    def canonical(self, item, rec) -> str:
        """Text of every output bit: its digest is the fingerprint."""
        raise NotImplementedError

    def check(self, item, rec, dense: bool) -> list[str]:
        raise NotImplementedError

    def circuits(self, rec) -> list[tuple[int, int]]:
        """(gate count, depth) of each circuit the operation returned."""
        raise NotImplementedError

    def universe_setup(self, tmp: Path) -> None:
        """Like setup, with every input any seed can draw as the pool."""
        raise NotImplementedError


class Cli642All(Workload):
    """`sympcliff synth --all` then `sympcliff verify` on each file, [[6,4,2]]."""

    name = "cli642_all"
    trace_ops = 24
    dense_sample = 8
    n_random = 59
    n_universe = 256

    def _code_text(self) -> str:
        return (DATA / "sixfourtwo.code").read_text()

    def _universe_spec(self, code, idx: int) -> tuple[str, str]:
        name = "r642_%03d" % idx
        return name, random_logical_spec(name, _labels(code.logical_x),
                                         _labels(code.logical_z),
                                         "cli642_all:universe:%d" % idx)

    def _specs(self, code, indices):
        out = [(n, (DATA / ("%s.spec" % n)).read_text()) for n in FIXTURES_642]
        return out + [self._universe_spec(code, i) for i in indices]

    def _write(self, tmp: Path, code_text: str, specs):
        tmp.mkdir(parents=True, exist_ok=True)
        code_path = tmp / "code.code"
        code_path.write_text(code_text)
        pool = []
        for name, text in specs:
            spec_path = tmp / ("%s.spec" % name)
            spec_path.write_text(text)
            pool.append({"name": name, "text": text, "code": str(code_path),
                         "spec": str(spec_path), "out": str(tmp / "out" / name)})
        return pool

    def setup(self, seed, tmp: Path) -> None:
        code_text = self._code_text()
        self.code = sc.load_code(code_text)
        picks = random.Random("%s:cli642_all" % seed).sample(
            range(self.n_universe), self.n_random)
        self.pool = self._write(tmp, code_text, self._specs(self.code, picks))

    def universe_setup(self, tmp: Path) -> None:
        code_text = self._code_text()
        self.code = sc.load_code(code_text)
        self.pool = self._write(tmp, code_text,
                                self._specs(self.code, range(self.n_universe)))

    def run(self, item):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(out):
            with self.span("cli.main.synth"):
                rc = cli.main(["synth", "--all", "--code", item["code"],
                               "--spec", item["spec"], "--out", item["out"]])
            synth_text = out.getvalue()
            verdicts = []
            for path in sorted(Path(item["out"]).glob("*.circ")):
                out.seek(0)
                out.truncate()
                with self.span("cli.main.verify"):
                    vrc = cli.main(["verify", "--code", item["code"], "--spec",
                                    item["spec"], "--circuit", str(path)])
                verdicts.append((path, vrc, out.getvalue()))
        return rc, synth_text, verdicts

    def collect(self, item, raw):
        rc, synth_text, verdicts = raw
        return {"rc": rc, "synth": synth_text.replace(item["out"], "OUT"),
                "files": [(p.name, p.read_text(), vrc, text)
                          for p, vrc, text in verdicts]}

    def key(self, item) -> str:
        return _key(self.name, item["text"])

    def canonical(self, item, rec) -> str:
        parts = ["exit %d\n%s" % (rec["rc"], rec["synth"])]
        for fname, text, vrc, vtext in rec["files"]:
            parts.append("%s\n%sexit %d\n%s" % (fname, text, vrc, vtext))
        return "".join(parts)

    def check(self, item, rec, dense: bool) -> list[str]:
        probs = []
        if rec["rc"] != 0:
            probs.append("synth exited %d" % rec["rc"])
        want = solution_count(self.code)
        if len(rec["files"]) != want:
            probs.append("%d circuit files, expected %d" % (len(rec["files"]), want))
        spec = sc.load_spec(item["text"])
        mats = set()
        for fname, text, vrc, vtext in rec["files"]:
            if vrc != 0 or not vtext.rstrip().endswith("result: pass"):
                probs.append("%s: verify exited %d" % (fname, vrc))
            circ = sc.parse(text, m=self.code.m)
            f = sc.induced_symplectic(circ)[0]
            probs += ["%s: %s" % (fname, p) for p in matrix_problems(self.code, spec, f)]
            mats.add(f.astype(np.uint8).tobytes())
            if dense:
                probs += ["%s: %s" % (fname, p)
                          for p in dense_problems(self.code, spec, circ)]
        if len(mats) != len(rec["files"]):
            probs.append("solutions are not distinct")
        golden = _golden().get(item["name"])
        if golden is not None and mats != golden:
            probs.append("solution set differs from the published set")
        return probs

    def circuits(self, rec) -> list[tuple[int, int]]:
        out = []
        for _, text, _, _ in rec["files"]:
            circ = sc.parse(text, m=self.code.m)
            out.append((len(circ.gates), sc.depth(circ)))
        return out


def _golden() -> dict[str, set[bytes]]:
    """The paper's eight-element solution sets for the [[6,4,2]] code."""
    raw = json.loads((DATA / "golden642.json").read_text())
    return {name: {np.array([[int(c) for c in row] for row in f], np.uint8).tobytes()
                   for f in mats}
            for name, mats in raw.items()}


class Min513(Workload):
    """`synthesize(mode="min_depth")` on [[5,1,3]]: 1024 solutions each."""

    name = "min513"
    trace_ops = 1
    dense_sample = 7

    def _code(self):
        return sc.load_code((DATA / "fivequbit.code").read_text())

    def _draw(self, seed, j: int) -> str:
        return random_logical_spec("rand513", _labels(self.code.logical_x),
                                   _labels(self.code.logical_z),
                                   "%s:min513:%d" % (seed, j))

    @staticmethod
    def _action(text: str) -> str:
        """The spec's symplectic class: its images with signs dropped."""
        return " ".join(t.lstrip("-") for t in text.split()[4:])

    def setup(self, seed, tmp: Path) -> None:
        # one random spec per class of Sp(2, F2) (six), so the mix of
        # identity-like and nontrivial actions, whose circuits differ in size
        # by a factor of ten, is the same on every seed
        self.code = self._code()
        texts = [(DATA / "hadamard5q.spec").read_text()]
        seen = set()
        j = 0
        while len(seen) < 6:
            text = self._draw(seed, j)
            j += 1
            if self._action(text) not in seen:
                seen.add(self._action(text))
                texts.append(text)
        self.pool = [(t, sc.load_spec(t)) for t in texts]

    def universe_setup(self, tmp: Path) -> None:
        self.code = self._code()
        texts = {(DATA / "hadamard5q.spec").read_text()}
        j = 0
        while len(texts) < 25:
            texts.add(self._draw("universe", j))
            j += 1
        self.pool = [(t, sc.load_spec(t)) for t in sorted(texts)]

    def run(self, item):
        return sc.synthesize(self.code, item[1], mode="min_depth")

    def key(self, item) -> str:
        return _key(self.name, item[0])

    def canonical(self, item, rec) -> str:
        return "".join(_result_text(r) for r in rec)

    def check(self, item, rec, dense: bool) -> list[str]:
        if len(rec) != 1:
            return ["min_depth returned %d results" % len(rec)]
        spec = item[1]
        probs = result_problems(self.code, spec, rec[0])
        found = len(sc.enumerate_all(sc.build_system(self.code, spec)))
        if found != solution_count(self.code):
            probs.append("enumerated %d solutions, expected %d"
                         % (found, solution_count(self.code)))
        if dense:
            probs += dense_problems(self.code, spec, rec[0].circuit)
        return probs

    def circuits(self, rec) -> list[tuple[int, int]]:
        return [(len(r.circuit.gates), r.depth) for r in rec]


class HammingSingle(Workload):
    """One solution per Hamming CSS code [[7,1,3]], [[15,7,3]], [[31,21,3]]:
    build_system -> find_symplectic -> realize, never enumerating."""

    name = "hamming_single"
    trace_ops = 8
    n_pool = 32
    n_universe = 96

    def _codes(self):
        return [sc.css_build(sc.CssSpec(hc=hamming_parity(r))) for r in (3, 4, 5)]

    def _triple(self, idx: int):
        out = []
        for code in self.codes:
            text = random_logical_spec(
                "h%d_%03d" % (code.m, idx), _labels(code.logical_x),
                _labels(code.logical_z), "hamming_single:universe:%d:%d" % (idx, code.m))
            out.append((text, sc.load_spec(text)))
        return out

    def setup(self, seed, tmp: Path) -> None:
        self.codes = self._codes()
        picks = random.Random("%s:hamming_single" % seed).sample(
            range(self.n_universe), self.n_pool)
        self.pool = [self._triple(i) for i in picks]

    def universe_setup(self, tmp: Path) -> None:
        self.codes = self._codes()
        self.pool = [self._triple(i) for i in range(self.n_universe)]

    def run(self, item):
        out = []
        for code, (_, spec) in zip(self.codes, item):
            f = sc.find_symplectic(sc.build_system(code, spec))
            out.append(sc.realize(code, spec, f))
        return out

    def key(self, item) -> str:
        return _key(self.name, *[t for t, _ in item])

    def canonical(self, item, rec) -> str:
        return "".join(_result_text(r) for r in rec)

    def check(self, item, rec, dense: bool) -> list[str]:
        probs = []
        for code, (_, spec), res in zip(self.codes, item, rec):
            probs += ["m=%d: %s" % (code.m, p) for p in result_problems(code, spec, res)]
        return probs

    def circuits(self, rec) -> list[tuple[int, int]]:
        return [(len(r.circuit.gates), r.depth) for r in rec]


WORKLOADS = {w.name: w for w in (Cli642All, Min513, HammingSingle)}
