"""End-to-end synthesis of physical circuits for logical Clifford operators.

Given a stabilizer code and requested images for its logical Paulis (and,
under the normalize policy, for its stabilizer generators), the symplectic
solutions are enumerated and factored into gates; every circuit returned is
sign-corrected with a Pauli prefix and verified exactly.
"""

from __future__ import annotations

import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .circuit import Circuit, circuit, depth, gate, serialize
from .codes import (StabilizerCode, _gamma_rows, logical_x_gamma, logical_z_gamma,
                    stab_gamma)
from .decompose import ElementaryFactor, decompose, factors_to_circuit
from .gf2core import (InfeasibleError, ParseError, coset_leader, gram,
                      is_symplectic, mul, omega, rank, solve_linear, zeros)
from .pauli import (PauliOperator, from_gamma, from_label, gamma, multiply,
                    to_label)
from .sympsolve import SymplecticSystem, find_symplectic
from .verify import ConjugationReport, conjugate_many, expected_images, verify_solution

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
    f: np.ndarray
    factors: tuple[ElementaryFactor, ...]
    circuit: Circuit
    pauli_correction: PauliOperator
    depth: int
    report: ConjugationReport


def _check_spec(code: StabilizerCode, spec: CliffordSpec) -> None:
    n = code.n_logical
    for label, d, top in (("mapX", spec.images_x, n), ("mapZ", spec.images_z, n),
                          ("mapS", spec.stab_images, code.k)):
        for i, p in d.items():
            if not 1 <= i <= top:
                raise ValueError("%s index %d out of range 1..%d" % (label, i, top))
            if p.m != code.m:
                raise ValueError("%s %d acts on %d qubits, code has %d"
                                 % (label, i, p.m, code.m))
    if spec.policy == "normalize":
        sg = stab_gamma(code)
        for j, target in spec.stab_images.items():
            sol = solve_linear(sg.T, gamma(target))
            if sol is None:
                raise ValueError("mapS %d target %s is not a stabilizer-group "
                                 "element" % (j, to_label(target)))
            coeffs = sol[0]
            prod = None
            for jj in range(code.k):
                if coeffs[jj]:
                    s = code.stabilizers[jj]
                    prod = s if prod is None else multiply(prod, s)
            if prod is None or prod != target:
                want = to_label(prod) if prod is not None else "the identity"
                raise ValueError(
                    "mapS %d target %s does not carry its intrinsic sign; the "
                    "generator product is %s" % (j, to_label(target), want))


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
    xs = _gamma_rows([given for _, given, _ in ordered], code.m)
    ys = _gamma_rows([want for _, _, want in ordered], code.m)
    bad = np.argwhere(np.triu(gram(xs) != gram(ys), 1))
    if bad.size:
        i, j = bad[0]
        raise InfeasibleError("images of %s and %s change their commutation "
                              "relation" % (ordered[i][0], ordered[j][0]))
    return SymplecticSystem(code.m, list(xs), list(ys))


def fix_signs(code: StabilizerCode, spec: CliffordSpec,
              raw: Circuit) -> tuple[Circuit, PauliOperator]:
    """Prepend the smallest Pauli making every tableau row's sign exact.

    The raw circuit already realizes the right binary symplectic map; each
    row's sign error is linear in the correction's commutation with the row's
    input, so one GF(2) solve fixes all rows at once.
    """
    rows = expected_images(code, spec)
    outs = conjugate_many(raw, [given for _, given, _ in rows])
    err = []
    gam = []
    for (name, given, want), got in zip(rows, outs):
        if not np.array_equal(gamma(got), gamma(want)):
            raise ValueError("row %s: circuit does not realize the requested "
                             "symplectic map" % name)
        diff = (got.kappa - want.kappa) % 4
        if diff not in (0, 2):
            raise RuntimeError("row %s: image of a Hermitian row is not "
                               "Hermitian" % name)
        err.append(1 if diff else 0)
        gam.append(gamma(given))
    m = code.m
    if not gam:
        return raw, from_gamma(np.zeros(2 * m, dtype=np.uint8))
    mat = mul(np.vstack(gam), omega(m))
    sol = solve_linear(mat, np.array(err, dtype=np.uint8))
    if sol is None:
        raise RuntimeError("no Pauli correction exists: the code's rows are "
                           "not independent")
    cd = coset_leader(*sol)
    corr_gates = []
    for t in range(m):
        c, d = int(cd[t]), int(cd[m + t])
        if c and d:
            corr_gates.append(gate("Y", t + 1))
        elif c:
            corr_gates.append(gate("X", t + 1))
        elif d:
            corr_gates.append(gate("Z", t + 1))
    fixed = circuit(m, tuple(corr_gates) + raw.gates)
    return fixed, from_gamma(cd)


def realize(code: StabilizerCode, spec: CliffordSpec, f: np.ndarray,
            dense_check: bool = False) -> SynthesisResult:
    """Turn one symplectic solution into a verified physical circuit."""
    factors = decompose(f)
    raw = factors_to_circuit(factors, code.m)
    circ, correction = fix_signs(code, spec, raw)
    report = verify_solution(code, spec, circ, dense_check)
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


def _solutions(code: StabilizerCode, f0: np.ndarray, start: int, stop: int):
    """Solutions start..stop-1 of the code's system in closed form.

    Every solution is (I + Omega Sg^T S Sg) f0 for one symmetric k x k
    binary S (Sg = stab_gamma(code), f0 any solution): the shift is
    symplectic because the stabilizers commute, fixes every source row
    because each commutes with every stabilizer, and is distinct for
    distinct S.  Index i sets the upper triangle of S, row-major, from its
    bits, most significant first; index 0 is S = 0, which gives f0.
    """
    sg = stab_gamma(code)
    k = code.k
    left = mul(omega(code.m), sg.T)
    right = mul(sg, f0)
    rows, cols = np.triu_indices(k)
    for i in range(start, stop):
        s = zeros((k, k))
        s[rows, cols] = [(i >> b) & 1 for b in reversed(range(rows.size))]
        yield f0 ^ mul(left, s | s.T, right)


def _min_depth_key(circ: Circuit):
    return (depth(circ), len(circ.gates), serialize(circ))


def _rank(code: StabilizerCode, spec: CliffordSpec, fs):
    """(min_depth key, F) of the best solution in fs, or None when fs is empty.

    Each F is factored without signs.  The sign correction only prepends
    single-qubit Paulis: it cannot lower the depth, adds one gate per qubit
    it touches, and leaves the circuit unchanged when it touches none.  So
    the unsigned (depth, gates) pair bounds the signed key from below, and
    fix_signs runs only when that bound does not exceed the best key so far.
    """
    best = None
    for f in fs:
        raw = factors_to_circuit(decompose(f), code.m)
        if best is not None and (depth(raw), len(raw.gates)) > best[0][:2]:
            continue
        key = _min_depth_key(fix_signs(code, spec, raw)[0])
        if best is None or key < best[0]:
            best = (key, f)
    return best


def _rank_range(code: StabilizerCode, spec: CliffordSpec, f0: np.ndarray,
                start: int, stop: int):
    """_rank over solutions start..stop-1 (one worker's share)."""
    return _rank(code, spec, _solutions(code, f0, start, stop))


def _map(jobs: int, fn, *args) -> list:
    """list(map(fn, *args)), over jobs worker processes when jobs > 1."""
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            return list(ex.map(fn, *args))
    return list(map(fn, *args))


def synthesize(code: StabilizerCode, spec: CliffordSpec, mode: str = "all",
               cap: int = 1 << 20, jobs: int = 1,
               dense_check: bool = False) -> list[SynthesisResult]:
    """All verified circuit solutions ("all"), or the best one ("min_depth").

    The solutions are f0 = find_symplectic(build_system(code, spec)) shifted
    in closed form by every symmetric k x k binary S (see _solutions);
    "all" lists them in S-index order, so the first result is f0.
    min_depth ranks by depth, then gate count, then serialized text, so the
    choice is a deterministic function of the solution set.  It streams the
    solutions: each is factored into an unsigned circuit, only contenders for
    the minimum are sign-fixed, and only the returned circuit is realized
    with its final correction and verified.  With jobs > 1 each worker ranks
    one contiguous range of S indices.  Raises ValueError before enumerating
    anything when the solution count exceeds cap.
    """
    if mode not in ("all", "min_depth"):
        raise ValueError("mode must be 'all' or 'min_depth'")
    system = build_system(code, spec)
    count = solution_count(code)
    if count > cap:
        raise ValueError("solution count exceeds cap %d" % cap)
    f0 = find_symplectic(system)
    if mode == "all":
        return _map(jobs, realize, repeat(code), repeat(spec),
                    _solutions(code, f0, 0, count), repeat(dense_check))
    parts = max(jobs, 1)
    cuts = [count * i // parts for i in range(parts + 1)]
    ranked = _map(jobs, _rank_range, repeat(code), repeat(spec), repeat(f0),
                  cuts[:-1], cuts[1:])
    _, best_f = min((r for r in ranked if r is not None), key=lambda r: r[0])
    return [realize(code, spec, best_f, dense_check)]


def normalizer_to_centralizer(code: StabilizerCode, f_n: np.ndarray) -> np.ndarray:
    """Straighten a normalizing solution into a centralizing one.

    f_n may send stabilizer generators to products of generators; the result
    fixes every generator row exactly while inducing the same logical action.
    Raises ValueError when f_n does not normalize the stabilizer group.
    """
    if not is_symplectic(f_n):
        raise ValueError("input matrix is not symplectic")
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
    if rank(kmat) != k:
        raise ValueError("stabilizer image map is not invertible")
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
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
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
