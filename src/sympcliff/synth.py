"""End-to-end synthesis of physical circuits for logical Clifford operators.

Given a stabilizer code and requested images for its logical Paulis (and,
under the normalize policy, for its stabilizer generators), the symplectic
solutions are enumerated and factored into gates; every circuit returned is
sign-corrected with a Pauli prefix and verified exactly.  The solutions come
in closed form from one solution, and the min-depth ranking factors and
scores them in batches through decompose's lane core.
"""

from __future__ import annotations

import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import reduce
from itertools import repeat

import numpy as np

from .circuit import Circuit, _score_planes, _trusted, depth, serialize
from .codes import (StabilizerCode, logical_x_gamma, logical_z_gamma,
                    stab_gamma)
from .decompose import (ElementaryFactor, _bits, _emit_lanes, _factor_lanes,
                        _lane_gates, decompose, factors_to_circuit)
from .gf2core import (InfeasibleError, ParseError, _pack, _tokens, asbits,
                      is_symplectic, mul, omega, solve_linear)
from .pauli import PauliOperator, from_label, to_label
from .sympsolve import SymplecticSystem, _integer, find_symplectic
from .verify import (ConjugationReport, _check_spec, _operators, _report,
                     _sign_fix, expected_images)

POLICIES = ("centralize", "normalize")
_NAME_RE = re.compile(r"^[A-Za-z0-9_\-]+$")


@dataclass
class CliffordSpec:
    """Requested logical action.  Missing indices default to the identity map.

    Under "centralize" every stabilizer generator must return to itself; under
    "normalize" stab_images may send generators to signed stabilizer-group
    elements.
    """

    name: str = "operator"
    images_x: dict[int, PauliOperator] = field(default_factory=dict)
    images_z: dict[int, PauliOperator] = field(default_factory=dict)
    stab_images: dict[int, PauliOperator] = field(default_factory=dict)
    policy: str = "centralize"

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError("policy must be one of %s" % (POLICIES,))
        if not _NAME_RE.match(self.name):
            raise ValueError("operator name %r must be alphanumeric/_/-" % self.name)
        if self.policy == "centralize" and self.stab_images:
            raise ValueError("stabilizer images need the normalize policy")
        for d in (self.images_x, self.images_z, self.stab_images):
            for i, p in d.items():
                if p.kappa % 2:
                    raise ValueError("image %s for index %d has an imaginary "
                                     "phase" % (to_label(p), i))


@dataclass
class SynthesisResult:
    """One verified solution.  Results compare by value, f by its shape and
    bytes, and are not hashable."""

    f: np.ndarray
    factors: tuple[ElementaryFactor, ...]
    circuit: Circuit
    pauli_correction: PauliOperator
    depth: int
    report: ConjugationReport

    def __eq__(self, other):
        if not isinstance(other, SynthesisResult):
            return NotImplemented
        mine, theirs = dict(vars(self)), dict(vars(other))
        f, g = mine.pop("f"), theirs.pop("f")
        return f.shape == g.shape and f.tobytes() == g.tobytes() and mine == theirs


def _layout(lx: list, stabs: list, lz: list) -> list:
    """Constraint order: logical X, stabilizers, logical Z.  Basis completion
    then puts logical pair i in slot i and stabilizer j on the u side of
    slot n + j."""
    return list(lx) + list(stabs) + list(lz)


def build_system(code: StabilizerCode, spec: CliffordSpec) -> SymplecticSystem:
    """Constraint system whose solutions are exactly the symplectic matrices
    realizing the requested logical action.

    Constraint order: logical X rows, stabilizer rows, logical Z rows; the
    sources occupy a hyperbolic basis with the stabilizers on the u side of
    the slots whose v side stays free.
    """
    _check_spec(code, spec)
    n, k = code.n_logical, code.k
    rows = expected_images(code, spec)
    ordered = _layout(rows[k:k + n], rows[:k], rows[k + n:])
    xs = [given.x | given.z << code.m for _, given, _ in ordered]
    ys = [want.x | want.z << code.m for _, _, want in ordered]
    system = SymplecticSystem(code.m, xs, ys)
    if system._mismatch is not None:
        i, j = system._mismatch
        raise InfeasibleError("images of %s and %s change their commutation "
                              "relation" % (ordered[i][0], ordered[j][0]))
    return system


def fix_signs(code: StabilizerCode, spec: CliffordSpec,
              raw: Circuit) -> tuple[Circuit, PauliOperator]:
    """Prepend the smallest Pauli making every tableau row's sign exact.

    The raw circuit already realizes the right binary symplectic map; each
    row's sign error is linear in the correction's commutation with the row's
    input, so one GF(2) solve fixes all rows at once.  The first failing row
    in expected_images order names an error.  The one conjugation pass and
    the solve are verify._sign_fix, which realize shares; raw's gates are
    not checked again.
    """
    _, circ, correction, _ = _sign_fix(code, spec, raw)
    return circ, correction


def realize(code: StabilizerCode, spec: CliffordSpec, f: np.ndarray,
            dense_check: bool = False) -> SynthesisResult:
    """Turn one symplectic solution into a verified physical circuit.

    A spec that does not fit the code raises ValueError first, then an f
    that is not 2m x 2m for the code's m qubits.  f is read once, reduced
    mod 2, into a uint8 array that the result owns.  The report is built
    from the sign fix's own conjugation pass (verify._sign_fix);
    verify_solution stays an independent check for callers.
    """
    _check_spec(code, spec)
    f = asbits(f).copy()
    n = 2 * code.m
    if f.shape != (n, n):
        raise ValueError("f must be %d x %d for a code on %d qubits, got %s"
                         % (n, n, code.m, " x ".join(map(str, f.shape)) or "a scalar"))
    factors = decompose(f)
    rows, circ, correction, images = _sign_fix(
        code, spec, factors_to_circuit(factors, code.m))
    report = _report(rows, _operators(images, code.m, len(rows)), circ, dense_check)
    if not report.passed:
        raise RuntimeError("synthesized circuit failed verification:\n"
                           + report.render())
    return SynthesisResult(f=f, factors=tuple(factors), circuit=circ,
                           pauli_correction=correction, depth=depth(circ),
                           report=report)


def solution_count(code: StabilizerCode) -> int:
    """Number of symplectic solutions for any operator spec on the code.

    build_system pins every hyperbolic basis row except the partners of the
    k stabilizer generators; the j-th of those ranges over an affine space
    of dimension k - j + 1, so there are 2^(k(k+1)/2) solutions under
    either policy.
    """
    return 1 << (code.k * (code.k + 1) // 2)


_CHUNK = 1 << 10  # solutions per block, the lanes of one sliced batch


def _deltas(code: StabilizerCode, f0: np.ndarray) -> np.ndarray:
    """The closed form of the code's solutions, as a stack of one 2m x 2m
    delta per solution index bit.

    Every solution is (I + Omega Sg^T S Sg) f0 for one symmetric k x k
    binary S (Sg = stab_gamma(code), f0 any solution): the shift is
    symplectic because the stabilizers commute, fixes every source row
    because each commutes with every stabilizer, and is distinct for
    distinct S.  Index i sets the upper triangle of S, row-major, from its
    bits, most significant first; index 0 is S = 0, which gives f0.

    The shift is linear in S, so solution i is f0 plus delta b for each set
    bit b of i.
    """
    sg = stab_gamma(code)
    lt = mul(sg, omega(code.m))  # row a: column a of Omega Sg^T
    right = mul(sg, f0)
    rows, cols = np.triu_indices(code.k)
    # entry (a, b) puts a 1 at (a, b) and (b, a) of S, one 1 when a = b
    return ((lt[rows, :, None] & right[cols, None, :])
            ^ (lt[cols, :, None] & right[rows, None, :]
               & (rows != cols)[:, None, None]))[::-1]  # [b]: index bit b


def _solutions(f0: np.ndarray, deltas: np.ndarray, start: int, stop: int):
    """Solutions start..stop-1 of the code's system, one by one (see _deltas)."""
    for i in range(start, stop):
        yield f0 ^ reduce(np.bitwise_xor, (deltas[b] for b in _bits(i)), 0)


def _sliced(f0: np.ndarray, deltas: np.ndarray, idx) -> list[list[int]]:
    """Solutions idx[l] as lane l of one sliced matrix: entry (r, c) is
    f0[r, c] in every lane, XOR the mask of lanes whose index has bit b set
    for each delta b with a 1 at (r, c)."""
    idx = np.asarray(idx, dtype=np.int64)
    masks = _pack((idx >> np.arange(len(deltas))[:, None] & 1).astype(np.uint8))
    full = (1 << len(idx)) - 1
    out = [[full if x else 0 for x in row] for row in f0.tolist()]
    for b, r, c in zip(*(a.tolist() for a in np.nonzero(deltas))):
        out[r][c] ^= masks[b]
    return out


def _min_depth_key(circ: Circuit):
    return (depth(circ), len(circ.gates), serialize(circ))


def _rank(code: StabilizerCode, spec: CliffordSpec, f0, deltas, idx, best=None):
    """best, a (min_depth key, S index) pair or None, updated with the
    solutions of the S indices idx, possibly none.

    _sliced gives one batch, one lane per index, for the bit-sliced lane
    core (decompose._factor_lanes and _emit_lanes, circuit._score_planes),
    which gives every lane its unsigned circuit's (depth, gates) pair with
    no circuit built.  The sign correction only prepends single-qubit
    Paulis: it cannot lower the depth, adds one gate per qubit it touches,
    and leaves the circuit unchanged when it touches none.  So the unsigned
    pair bounds the signed key from below.  The lanes are visited in
    ascending (bound, position) order; a lane's gates are read off the
    template and sign-fixed only while its bound does not exceed the best
    key so far, and the first lane above it ends the batch.
    """
    if not len(idx):
        return best
    m, full = code.m, (1 << len(idx)) - 1
    gates = _emit_lanes(_factor_lanes(_sliced(f0, deltas, idx), full), full)
    depths, counts = _score_planes(gates, m, len(idx))
    for lane in np.lexsort((counts, depths)).tolist():
        if best is not None and (depths[lane], counts[lane]) > best[0][:2]:
            break
        raw = _trusted(m, tuple(_lane_gates(gates, lane, m)))
        key = _min_depth_key(fix_signs(code, spec, raw)[0])
        if best is None or key < best[0]:
            best = (key, idx[lane])
    return best


def _rank_range(code: StabilizerCode, spec: CliffordSpec, f0: np.ndarray,
                deltas: np.ndarray, start: int, stop: int):
    """_rank over solutions start..stop-1 (one worker's share), one batch
    per aligned block of _CHUNK indices."""
    best = None
    for block in range(start - start % _CHUNK, stop, _CHUNK):
        best = _rank(code, spec, f0, deltas,
                     range(max(start, block), min(stop, block + _CHUNK)), best)
    return best


def synthesize(code: StabilizerCode, spec: CliffordSpec, mode: str = "all",
               cap: int = 1 << 20, jobs: int = 1,
               dense_check: bool = False) -> list[SynthesisResult]:
    """All verified circuit solutions ("all"), or the best one ("min_depth").

    The solutions are f0 = find_symplectic(build_system(code, spec)) shifted
    by every symmetric k x k binary S, all read from one closed form
    (_deltas); "all" realizes them in S-index order, so the first result
    is f0.  min_depth ranks by depth, then gate count, then serialized
    text, so the choice is a deterministic function of the solution set.
    It scores the solutions one aligned block of _CHUNK at a time in the
    bit-sliced lane core and sign-fixes only contenders (see _rank); only
    the returned circuit goes through the public decompose, is realized
    with its final correction and verified.  jobs splits only min_depth's
    ranking, over min(jobs, cpu count, block count) worker processes (the
    pool starts them all at once) that each rank one contiguous range of
    whole blocks, since a block split across workers costs each of them
    nearly the whole block; so 1024 or fewer solutions rank in this process.
    "all" runs in this process: a worker's results reach the parent
    pickled, and unpickling one costs about as much as realizing it.
    Raises ValueError before enumerating anything when the solution count
    exceeds cap.  cap and jobs are read as integers (operator.index) before
    any work, and anything else (a float, a str) raises ValueError naming
    the argument; jobs <= 0 ranks in this process, like jobs = 1.
    """
    if mode not in ("all", "min_depth"):
        raise ValueError("mode must be 'all' or 'min_depth'")
    cap, jobs = _integer(cap, "cap"), _integer(jobs, "jobs")
    system = build_system(code, spec)
    count = solution_count(code)
    if count > cap:
        raise ValueError("solution count exceeds cap %d" % cap)
    f0 = find_symplectic(system)
    deltas = _deltas(code, f0)
    if mode == "all":
        return [realize(code, spec, f, dense_check)
                for f in _solutions(f0, deltas, 0, count)]
    blocks = -(-count // _CHUNK)
    workers = max(min(jobs, os.cpu_count() or 1, blocks), 1)
    if workers > 1:  # each worker ranks whole blocks
        cuts = [min(blocks * i // workers * _CHUNK, count) for i in range(workers + 1)]
        with ProcessPoolExecutor(max_workers=workers) as ex:
            ranked = list(ex.map(_rank_range, repeat(code), repeat(spec), repeat(f0),
                                 repeat(deltas), cuts[:-1], cuts[1:]))
    else:
        ranked = [_rank_range(code, spec, f0, deltas, 0, count)]
    _, i = min((r for r in ranked if r is not None), key=lambda r: r[0])
    return [realize(code, spec, next(_solutions(f0, deltas, i, i + 1)), dense_check)]


def normalizer_to_centralizer(code: StabilizerCode, f_n: np.ndarray) -> np.ndarray:
    """Straighten a normalizing solution into a centralizing one.

    f_n may send stabilizer generators to products of generators; the result
    fixes every generator row exactly while inducing the same logical action.
    Raises ValueError when f_n does not normalize the stabilizer group.
    """
    if not is_symplectic(f_n):
        raise ValueError("input matrix is not symplectic")
    n = asbits(f_n).shape[0]
    if n != 2 * code.m:
        raise ValueError("f_n must be %d x %d for a code on %d qubits, got %d x %d"
                         % (2 * code.m, 2 * code.m, code.m, n, n))
    sg = stab_gamma(code)
    k = code.k
    if k == 0:
        return np.array(f_n, dtype=np.uint8, copy=True)
    sg_img = mul(sg, f_n)
    krows = []
    for j in range(k):
        sol = solve_linear(sg_img.T, sg[j])
        if sol is None:
            raise ValueError("matrix does not normalize the stabilizer group")
        krows.append(sol[0])
    kmat = np.vstack(krows)
    lx, lz = logical_x_gamma(code), logical_z_gamma(code)
    h = find_symplectic(SymplecticSystem(code.m, _layout(lx, sg, lz),
                                         _layout(lx, mul(kmat, sg), lz)))
    return mul(h, f_n)


def save_spec(spec: CliffordSpec) -> str:
    lines = ["op %s" % spec.name, "policy %s" % spec.policy]
    for key, word in ((spec.images_x, "mapX"), (spec.images_z, "mapZ"),
                      (spec.stab_images, "mapS")):
        for i in sorted(key):
            lines.append("%s %d %s" % (word, i, to_label(key[i])))
    return "\n".join(lines) + "\n"


def load_spec(text: str) -> CliffordSpec:
    """Parse the save_spec format; errors carry the offending line number."""
    name = None
    policy = None
    maps = {"mapX": {}, "mapZ": {}, "mapS": {}}
    qubit_counts = set()
    for ln, toks in _tokens(text):
        try:
            if toks[0] == "op":
                if name is not None or len(toks) != 2:
                    raise ParseError("one 'op <name>' line is required")
                name = toks[1]
            elif toks[0] == "policy":
                if policy is not None or len(toks) != 2 or toks[1] not in POLICIES:
                    raise ParseError("policy must be centralize or normalize")
                policy = toks[1]
            elif toks[0] in maps:
                if len(toks) != 3:
                    raise ParseError("expected '%s <index> <label>'" % toks[0])
                idx = int(toks[1])
                if idx in maps[toks[0]]:
                    raise ParseError("duplicate %s index %d" % (toks[0], idx))
                p = from_label(toks[2])
                qubit_counts.add(p.m)
                maps[toks[0]][idx] = p
            else:
                raise ParseError("unknown directive %r" % toks[0])
        except (IndexError, ValueError) as exc:
            raise ParseError("line %d: %s" % (ln, exc)) from None
    if name is None:
        raise ParseError("missing 'op <name>' line")
    if len(qubit_counts) > 1:
        raise ParseError("labels disagree on the qubit count: %s"
                         % sorted(qubit_counts))
    try:
        return CliffordSpec(name=name, images_x=maps["mapX"], images_z=maps["mapZ"],
                            stab_images=maps["mapS"],
                            policy=policy or "centralize")
    except ValueError as exc:
        raise ParseError(str(exc)) from None
