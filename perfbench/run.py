"""Benchmark of sympcliff's synthesis pipeline on three workloads.

    python3 perfbench/run.py --workload <cli642_all|min513|hamming_single|all>
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the library is imported from ./src.
--trace 0 times the workload with tracing off and prints the end-to-end
metrics; --trace 1 prints the per-layer metrics from spans recorded around
the calls into each layer.  Either way every output is checked, lines for a
reader come first, and the last line is one JSON object with the keys
correct, attempted, failed and metrics.  --workload all runs each workload
in its own process and prints all of their metrics.  See perfbench/README.md
for what each workload and metric is for.
"""

import os

# BLAS threads are pinned before numpy can be imported, so that every load
# comes from one thread of one process.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter_ns  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("cli642_all", "min513", "hamming_single")
SETUP_PROBES = 7
# The timed loop stops here even if its first pass over the inputs is not
# done, so that a run ends well within 180 s.
LOOP_LIMIT_S = 110
CHILD_TIMEOUT_S = 170


def die(msg: str) -> None:
    print("error: %s" % msg, file=sys.stderr)
    sys.exit(2)


def import_library():
    """Import sympcliff from this checkout's src, and nowhere else."""
    if not (SRC / "sympcliff" / "__init__.py").is_file():
        die("no sympcliff sources under %s; run from the root of a checkout" % SRC)
    sys.path.insert(0, str(SRC))
    import sympcliff
    if Path(sympcliff.__file__).resolve().parent != SRC / "sympcliff":
        die("imported sympcliff from %s, not from %s" % (sympcliff.__file__, SRC))
    return sympcliff


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def env_line() -> str:
    import numpy
    return ("env nproc=%d python=%s numpy=%s commit=%s %s"
            % (os.cpu_count() or 0, platform.python_version(), numpy.__version__,
               git_commit(), " ".join("%s=1" % v for v in THREAD_VARS)))


def tail(values: list) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least ten samples
    beyond it, but never one below p90.  With fewer than 100 samples that
    would be a low percentile (with 11, the minimum), so p90 is taken
    instead, interpolated between the two nearest samples."""
    xs = sorted(values)
    n = len(xs)
    if n >= 100:
        return xs[n - 11], 100.0 * (n - 10) / n
    if n == 1:
        return xs[0], 90.0
    return statistics.quantiles(xs, n=10, method="inclusive")[-1], 90.0


def scratch_dir(tag: str) -> Path:
    d = ROOT / ".bench_tmp" / ("%s-%d" % (tag, os.getpid()))
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    return d


class Checker:
    """Checks each operation's outputs outside the timed region.

    The first run of each input gets every check; a repeat must give the
    same output digest as the first.  Failing operations are counted, and
    each distinct input's digest is compared with the one recorded at the
    seed commit.
    """

    def __init__(self, wl, dense_items: set):
        self.wl = wl
        self.dense_items = dense_items
        self.first: dict[str, str] = {}
        self.bad_keys: set[str] = set()
        self.problems: list[str] = []
        self.failed = 0
        self.circuits: list[tuple[int, int]] = []
        ref = json.loads((HERE / "data" / "fingerprints.json").read_text())
        self.reference = ref.get(wl.name, {})

    def failure(self, msg: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(msg)

    def op(self, idx: int, item, rec) -> None:
        from workloads import digest
        key = self.wl.key(item)
        dig = digest(self.wl.canonical(item, rec))
        if key in self.first:
            if key in self.bad_keys:
                self.failure("input %s: failed its checks" % key)
            elif dig != self.first[key]:
                self.failure("input %s: output differs from its first run" % key)
            return
        self.first[key] = dig
        try:
            probs = self.wl.check(item, rec, dense=idx in self.dense_items)
            self.circuits += self.wl.circuits(rec)
        except Exception:
            probs = ["check raised:\n" + traceback.format_exc()]
        if probs:
            self.bad_keys.add(key)
            self.failure("input %s: %s" % (key, "; ".join(probs)))

    def outputs_changed(self) -> int:
        return sum(1 for k, d in self.first.items() if self.reference.get(k) != d)

    def quality(self) -> tuple[float, float]:
        if not self.circuits:
            return float("nan"), float("nan")
        return (statistics.fmean(g for g, _ in self.circuits),
                statistics.fmean(d for _, d in self.circuits))


def probe_setup(workload: str, seed) -> None:
    """Child process: time importing sympcliff and building every input,
    then the calibration kernel, so that the set-up is scaled by the speed of
    the machine at the time it ran."""
    t0 = perf_counter_ns()
    import_library()
    from workloads import WORKLOADS
    wl = WORKLOADS[workload]()
    tmp = scratch_dir("probe")
    try:
        wl.setup(seed, tmp)
        t1 = perf_counter_ns()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    from calib import kernel
    print(json.dumps({"setup_ns": t1 - t0, "kernel_ns": min(kernel() for _ in range(3))}))


def setup_seconds(workload: str, seed) -> list[tuple[float, float]]:
    """(unscaled, scaled) set-up seconds of SETUP_PROBES fresh processes."""
    from calib import REF_NS
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            die("set-up probe exited %d" % proc.returncode)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        secs = probe["setup_ns"] / 1e9
        out.append((secs, secs * REF_NS / probe["kernel_ns"]))
    return out


def run_op(wl, item, clock=perf_counter_ns):
    """Run one operation; returns (ns, record or None, error or None)."""
    t0 = clock()
    try:
        raw = wl.run(item)
    except Exception:
        return clock() - t0, None, traceback.format_exc()
    ns = clock() - t0
    return ns, wl.collect(item, raw), None


def trace_ops(wl) -> list:
    """The fixed list of operations a traced pass runs."""
    return [wl.pool[i % len(wl.pool)] for i in range(wl.trace_ops)]


def dense_sample(wl, seed) -> set:
    n = min(wl.dense_sample, len(wl.pool))
    return set(random.Random("%s:dense" % seed).sample(range(len(wl.pool)), n))


def measure(args) -> dict:
    """Untraced run: end-to-end metrics."""
    import_library()
    from calib import REF_NS, SpeedLog
    speed = SpeedLog()
    setups = setup_seconds(args.workload, args.seed)
    speed.sample()
    from workloads import WORKLOADS
    print(env_line())
    wl = WORKLOADS[args.workload]()
    tmp = scratch_dir(args.workload)
    ops = []  # (start ns, end ns, operation ns, loop ns)
    try:
        wl.setup(args.seed, tmp)
        checker = Checker(wl, dense_sample(wl, args.seed))
        # the speed sampler runs from the warm-up on; operation and loop
        # times are read from its clock, which leaves its own samples out
        speed.start()
        # one untimed warm-up operation: first calls pay for lazy set-up
        err = run_op(wl, wl.pool[0])[2]
        if err:
            checker.problems.append("warm-up raised:\n" + err)
        busy_ns = 0
        limit = min(args.seconds, LOOP_LIMIT_S) * 10**9
        while True:
            idx = len(ops) % len(wl.pool)
            item = wl.pool[idx]
            t0, c0 = perf_counter_ns(), speed.clock()
            ns, rec, err = run_op(wl, item, speed.clock)
            t1, c1 = perf_counter_ns(), speed.clock()
            # the loop's own time: the operation and reading its outputs back
            ops.append((t0, t1, ns, c1 - c0))
            busy_ns += c1 - c0
            if err:
                checker.failure("operation %d raised:\n%s" % (len(ops), err))
            else:
                checker.op(idx, item, rec)
            if busy_ns >= limit and len(ops) >= len(wl.pool):
                break
            if busy_ns >= LOOP_LIMIT_S * 10**9:  # first pass still not done
                checker.problems.append("first pass over the inputs did not "
                                        "finish in %d s" % LOOP_LIMIT_S)
                break
    finally:
        speed.stop()
        shutil.rmtree(tmp, ignore_errors=True)
    speed.sample()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gates, depth = checker.quality()
    scales = [speed.scale(t0, t1) for t0, t1, _, _ in ops]
    lat_ms = [ns * s / 1e6 for (_, _, ns, _), s in zip(ops, scales)]
    loop_s = sum(loop * s for (_, _, _, loop), s in zip(ops, scales)) / 1e9
    tail_ms, tail_pct = tail(lat_ms)
    n = len(ops)
    raw_ms = [ns / 1e6 for _, _, ns, _ in ops]
    metrics = {
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "ops_per_s": (n / loop_s, "1/s"),
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "circuit_gates_mean": (gates, "count"),
        "circuit_depth_mean": (depth, "count"),
    }
    notes = {
        "latency_p50_ms": "median of n=%d operations; unscaled %.3f ms"
                          % (n, statistics.median(raw_ms)),
        "latency_tail_ms": ("p%.1f of n=%d operations (%d beyond it); unscaled %.3f ms"
                            % (tail_pct, n, sum(1 for x in lat_ms if x > tail_ms),
                               tail(raw_ms)[0])),
        "ops_per_s": "unscaled %.4f" % (n / (busy_ns / 1e9)),
        "setup_s": "median of %d fresh processes, unscaled: %s"
                   % (len(setups), " ".join("%.4f" % s for s, _ in setups)),
        "circuit_gates_mean": "over %d circuits from %d distinct inputs"
                              % (len(checker.circuits), len(checker.first)),
    }
    extra = [
        "times are scaled to a machine where the calibration kernel takes "
        "%.1f ms; its time here ranged %.2f..%.2f ms over %d measurements"
        % (REF_NS / 1e6, min(speed.costs) / 1e6, max(speed.costs) / 1e6,
           len(speed.costs)),
        "fail_frac %.6f (%d failed of %d attempted)"
        % (checker.failed / n, checker.failed, n),
        "outputs_changed %d (of %d distinct inputs, against data/fingerprints.json)"
        % (checker.outputs_changed(), len(checker.first)),
    ]
    return finish(args, metrics, notes, extra, n, checker)


def trace(args) -> dict:
    """Traced run: per-layer metrics from spans, plus tracing overhead."""
    import_library()
    from tracing import Tracer, layer_of
    from workloads import WORKLOADS, Workload, solution_count
    print(env_line())
    wl = WORKLOADS[args.workload]()
    tmp = scratch_dir(args.workload)
    tracer = Tracer(exclude={"cli.main"})
    try:
        wl.setup(args.seed, tmp / "untraced")
        err = run_op(wl, wl.pool[0])[2]
        untraced = []
        records = []
        bounds = []
        # untraced and traced passes alternate, so that drift in machine
        # speed does not show up as tracing overhead
        for p in range(2):
            untraced += [run_op(wl, item)[0] for item in trace_ops(wl)]
            wl.span = tracer.span
            tracer.install(measure={"sympsolve.enumerate_all": len})
            first = len(tracer.start)
            n_enum = len(tracer.results["sympsolve.enumerate_all"])
            try:
                with tracer.span("setup"):
                    wl.setup(args.seed, tmp / ("pass%d" % p))
                for item in trace_ops(wl):
                    with tracer.span("op"):
                        _, rec, err2 = run_op(wl, item)
                    records.append((item, rec, err2))
            finally:
                tracer.uninstall()
                wl.span = Workload.span
            bounds.append((first, len(tracer.start),
                           tracer.results["sympsolve.enumerate_all"][n_enum:]))
        pool_index = {wl.key(it): i for i, it in enumerate(wl.pool)}
        checker = Checker(wl, set(range(len(trace_ops(wl)))))
        if err:
            checker.problems.append("warm-up raised:\n" + err)
        for item, rec, err2 in records:
            if err2:
                checker.failure("traced operation raised:\n" + err2)
            else:
                checker.op(pool_index[wl.key(item)], item, rec)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    passes = [tracer.summarize(a, b) for a, b, _ in bounds]
    if passes[0].counts() != passes[1].counts() or bounds[0][2] != bounds[1][2]:
        checker.problems.append("the two traced passes made different calls")
    want = solution_count(wl.code) if hasattr(wl, "code") else None
    for _, _, sizes in bounds:
        if any(s != want for s in sizes):
            checker.problems.append("enumerate_all returned %s solutions, expected %s"
                                    % (sorted(set(sizes)), want))
    both = tracer.summarize(bounds[0][0], bounds[1][1])
    n_ops = len(records)
    enum_sizes = bounds[0][2] + bounds[1][2]

    def table(name):
        calls, incl, self_ns = both.op.get(name, (0, 0, 0))
        c2, i2, s2 = both.setup.get(name, (0, 0, 0))
        return calls + c2, incl + i2, self_ns + s2

    def per_call_ms(name, self_time=False):
        calls, incl, self_ns = table(name)
        return (self_ns if self_time else incl) / 1e6 / calls if calls else 0.0

    def per_op_calls(name):
        return both.op.get(name, (0, 0, 0))[0] / n_ops

    def split_ms(ctx):
        calls, ns = both.under("verify.verify_solution",
                               ("synth.realize", "cli.main.verify")).get(ctx, (0, 0))
        return ns / 1e6 / calls if calls else 0.0

    layers = ("gf2core", "pauli", "sympsolve", "decompose", "circuit", "codes",
              "verify", "synth", "cli")
    layer_self = {layer: 0 for layer in layers}
    for name, (_, _, self_ns) in both.op.items():
        if layer_of(name) in layer_self:
            layer_self[layer_of(name)] += self_ns
    returned = sum(len(wl.circuits(rec)) for _, rec, e in records if not e)
    realize_calls = table("synth.realize")[0]
    traced_med = statistics.median(both.op_latency_ns)
    metrics = {
        "sympsolve.enumerate_all.ms": (per_call_ms("sympsolve.enumerate_all"), "ms"),
        "sympsolve.enumerate_all.solutions":
            (statistics.fmean(enum_sizes) if enum_sizes else 0.0, "count"),
        "synth.realize.calls": (per_op_calls("synth.realize"), "count/op"),
        "synth.realize.ms": (per_call_ms("synth.realize"), "ms"),
        "synth.realize.returned_frac":
            (returned / realize_calls if realize_calls else 0.0, "frac"),
        "decompose.decompose.ms": (per_call_ms("decompose.decompose", True), "ms"),
        "decompose.factors_to_circuit.ms":
            (per_call_ms("decompose.factors_to_circuit", True), "ms"),
        "synth.fix_signs.ms": (per_call_ms("synth.fix_signs", True), "ms"),
        "verify.verify_solution.ms": (per_call_ms("verify.verify_solution", True), "ms"),
        "verify.verify_solution.in_realize.ms": (split_ms("synth.realize"), "ms"),
        "verify.verify_solution.in_cli_verify.ms": (split_ms("cli.main.verify"), "ms"),
        "verify.conjugate_many.calls": (per_op_calls("verify.conjugate_many"), "count/op"),
        "sympsolve.find_symplectic.ms": (per_call_ms("sympsolve.find_symplectic"), "ms"),
        "synth.build_system.ms": (per_call_ms("synth.build_system"), "ms"),
        "codes.css_build.ms": (per_call_ms("codes.css_build"), "ms"),
        "codes.load_code.ms": (per_call_ms("codes.load_code"), "ms"),
        "synth.load_spec.ms": (per_call_ms("synth.load_spec"), "ms"),
        "circuit.parse.ms": (per_call_ms("circuit.parse"), "ms"),
        "circuit.serialize.ms": (per_call_ms("circuit.serialize"), "ms"),
        "cli.main.synth.ms": (per_call_ms("cli.main.synth"), "ms"),
        "cli.main.verify.ms": (per_call_ms("cli.main.verify"), "ms"),
        "circuit.depth.ms": (per_call_ms("circuit.depth"), "ms"),
        "circuit.serialize.calls": (per_op_calls("circuit.serialize"), "count/op"),
        "gf2core.rref.calls": (per_op_calls("gf2core.rref"), "count/op"),
        "gf2core.mul.calls": (per_op_calls("gf2core.mul"), "count/op"),
        "gf2core.solve_linear.calls": (per_op_calls("gf2core.solve_linear"), "count/op"),
    }
    for layer in layers:
        metrics["%s.self_ms" % layer] = (layer_self[layer] / 1e6 / n_ops, "ms/op")
    metrics["trace.overhead_frac"] = (traced_med / statistics.median(untraced) - 1, "frac")
    metrics["outputs_changed"] = (checker.outputs_changed(), "count")
    metrics["fail_frac"] = (checker.failed / n_ops, "frac")
    notes = {"trace.overhead_frac": "median traced %.3f ms over %d ops, untraced %.3f ms"
             " over %d ops" % (traced_med / 1e6, n_ops,
                               statistics.median(untraced) / 1e6, len(untraced)),
             "outputs_changed": "of %d distinct inputs" % len(checker.first)}
    extra = ["spans %d over two traced passes of %d operations each (%d span names)"
             % (bounds[1][1] - bounds[0][0], n_ops // 2, len(tracer.names))]
    write_trace_summary(args, both)
    return finish(args, metrics, notes, extra, n_ops, checker)


def write_trace_summary(args, summary) -> None:
    """Per-span-name aggregates of the traced run, for a reader."""
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    rows = {}
    for where, tab in (("op", summary.op), ("setup", summary.setup)):
        for name, (calls, incl, self_ns) in sorted(tab.items()):
            rows["%s:%s" % (where, name)] = {"calls": calls, "incl_ms": incl / 1e6,
                                             "self_ms": self_ns / 1e6}
    path = out / ("trace-%s-seed%s.json" % (args.workload, args.seed))
    path.write_text(json.dumps({"env": env_line(), "spans": rows}, indent=1) + "\n")
    print("trace summary written to %s" % path.relative_to(ROOT))


def finish(args, metrics, notes, extra, attempted, checker) -> dict:
    print("workload %s seed %s seconds %s trace %s"
          % (args.workload, args.seed, args.seconds, args.trace))
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print("%-42s %14.6g %-8s%s" % (name, value, unit,
                                        "  (%s)" % note if note else ""))
    for line in extra:
        print(line)
    for p in checker.problems:
        print("PROBLEM: %s" % p)
    return {"correct": not checker.problems and checker.failed == 0,
            "attempted": attempted, "failed": checker.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_all(args) -> dict:
    """Each workload in a fresh process; metrics prefixed by workload name."""
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            die("workload %s exited %d" % (name, proc.returncode))
        res = json.loads(lines[-1])
        out["correct"] = out["correct"] and res["correct"]
        out["attempted"] += res["attempted"]
        out["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            out["metrics"]["%s.%s" % (name, k)] = v
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return
    if args.workload == "all":
        result = run_all(args)
    elif args.trace:
        result = trace(args)
    else:
        result = measure(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
