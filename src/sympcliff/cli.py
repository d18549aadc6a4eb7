"""Command line front end.

Subcommands: synth (solve for circuits), verify (check a circuit against a
requested logical action), decompose (factor a symplectic matrix into gates),
css (build a CSS code file), info (code parameters and solution count).
Exit codes: 0 success, 1 verification failure, 2 bad input.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

from .circuit import parse, save_circuit_text
from .codes import CssSpec, css_build, load_code, save_code
from .decompose import decompose, factors_to_circuit
from .gf2core import InfeasibleError, ParseError, load_matrix_text
from .pauli import to_label
from .synth import load_spec, solution_count, synthesize
from .verify import verify_solution


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sympcliff",
        description="Synthesize and check physical Clifford circuits that "
                    "realize logical operators on stabilizer codes.")
    sub = ap.add_subparsers(dest="command", required=True)

    syn = sub.add_parser("synth", help="synthesize circuits for an operator")
    syn.add_argument("--code", required=True, help="stabilizer code file")
    syn.add_argument("--spec", required=True, help="operator file")
    mode = syn.add_mutually_exclusive_group()
    mode.add_argument("--all", action="store_true",
                      help="write every solution, not just the best one")
    mode.add_argument("--min-depth", action="store_true",
                      help="write only the minimum-depth solution (default)")
    pol = syn.add_mutually_exclusive_group()
    pol.add_argument("--centralize", action="store_true",
                     help="force stabilizer generators to map to themselves")
    pol.add_argument("--normalize", action="store_true",
                     help="allow stabilizer generators to map across the group")
    syn.add_argument("--out", default=".", help="output directory")
    syn.add_argument("--jobs", type=int, default=1,
                     help="worker processes for the min-depth ranking, each "
                          "ranking one range of 1024-solution blocks; --all, "
                          "and 1024 or fewer solutions, run in this process")
    syn.add_argument("--max-solutions", type=int, default=1 << 20,
                     help="abort if the solution count exceeds this")
    syn.add_argument("--dense", action="store_true",
                     help="cross-check each returned circuit with dense "
                          "matrices")

    ver = sub.add_parser("verify", help="check a circuit file")
    ver.add_argument("--code", required=True)
    ver.add_argument("--spec", required=True)
    ver.add_argument("--circuit", required=True)
    ver.add_argument("--dense", action="store_true")

    dec = sub.add_parser("decompose", help="factor a symplectic matrix")
    dec.add_argument("--matrix", required=True, help="binary matrix file")
    dec.add_argument("--out", help="write the circuit here instead of stdout")

    css = sub.add_parser("css", help="build a CSS code file")
    css.add_argument("--hc", help="classical parity-check matrix file")
    css.add_argument("--gx", help="logical X generator file")
    css.add_argument("--gz", help="logical Z generator file")
    css.add_argument("--g1", help="outer code generator file (C2 in C1)")
    css.add_argument("--g2", help="inner code generator file")
    css.add_argument("--out", required=True, help="code file to write")

    info = sub.add_parser("info", help="code parameters and solution count")
    info.add_argument("--code", required=True)
    return ap


def _cmd_synth(args) -> int:
    code = load_code(Path(args.code).read_text())
    spec = load_spec(Path(args.spec).read_text())
    if args.centralize:
        spec = dataclasses.replace(spec, policy="centralize")
    elif args.normalize:
        spec = dataclasses.replace(spec, policy="normalize")
    mode = "all" if args.all else "min_depth"
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    results = synthesize(code, spec, mode=mode, cap=args.max_solutions,
                         jobs=args.jobs, dense_check=args.dense)
    if mode == "all":
        width = len(str(len(results)))
        names = ["%s_%0*d.circ" % (spec.name, width, i)
                 for i in range(1, len(results) + 1)]
    else:
        names = ["%s_min_depth.circ" % spec.name]
    n = len(results)
    print("%d solution%s" % (n, "" if n == 1 else "s"))
    for i, (res, fname) in enumerate(zip(results, names), start=1):
        path = outdir / fname
        path.write_text(save_circuit_text(res.circuit))
        print("solution %d: depth %d, gates %d, correction %s, file %s"
              % (i, res.depth, len(res.circuit.gates),
                 to_label(res.pauli_correction), path))
    return 0


def _cmd_verify(args) -> int:
    code = load_code(Path(args.code).read_text())
    spec = load_spec(Path(args.spec).read_text())
    circ = parse(Path(args.circuit).read_text(), m=code.m)
    report = verify_solution(code, spec, circ, dense_check=args.dense)
    print(report.render())
    return 0 if report.passed else 1


def _cmd_decompose(args) -> int:
    f = load_matrix_text(Path(args.matrix).read_text())
    factors = decompose(f)
    circ = factors_to_circuit(factors, f.shape[0] // 2)
    kinds = " ".join(x.kind + ("(%d)" % x.k if x.k is not None else "")
                     for x in factors)
    if args.out:
        Path(args.out).write_text(save_circuit_text(circ))
    print("factors: %s" % (kinds or "(identity)"))
    if args.out:
        print("wrote %s" % args.out)
    else:
        sys.stdout.write(save_circuit_text(circ))
    return 0


def _load_optional(path):
    return load_matrix_text(Path(path).read_text()) if path else None


def _cmd_css(args) -> int:
    code = css_build(CssSpec(**{name: _load_optional(getattr(args, name))
                                for name in ("hc", "gx", "gz", "g1", "g2")}))
    Path(args.out).write_text(save_code(code))
    print("m=%d k=%d logical=%d file %s"
          % (code.m, code.k, code.n_logical, args.out))
    return 0


def _cmd_info(args) -> int:
    code = load_code(Path(args.code).read_text())
    print("m=%d k=%d logical=%d solutions-per-operator=%d"
          % (code.m, code.k, code.n_logical, solution_count(code)))
    return 0


_HANDLERS = {"synth": _cmd_synth, "verify": _cmd_verify,
             "decompose": _cmd_decompose, "css": _cmd_css, "info": _cmd_info}


def main(argv=None) -> int:
    """Run one command line; return its exit code (0, 1 or 2).

    main may be called any number of times in one process.  The calls share
    one argument parser, built on the first call: parsing keeps no state
    between calls, and argparse looks up sys.stdout and sys.stderr only when
    it prints, so help, usage errors and exit codes are those of a fresh
    process, also under redirected streams.
    """
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (ParseError, InfeasibleError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
