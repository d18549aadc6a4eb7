"""Stabilizer codes, CSS constructions, and their text format.

A code on m qubits with k independent commuting stabilizer generators encodes
m - k logical qubits; logical_x[i] and logical_z[i] are chosen Hermitian
representatives pairing like X_i, Z_i (they anticommute within a pair and
commute across pairs and with every stabilizer).  A StabilizerCode checks
this however it is made, and css_build is the one check of a CssSpec's form.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from operator import index

import numpy as np

from .gf2core import (InfeasibleError, ParseError, _pack, _rank, _tokens,
                      _unpack, asbits, mul, nullspace, rank, solve_linear)
from .pauli import PauliOperator, commutes, from_label, to_label


@dataclass(frozen=True)
class StabilizerCode:
    """Checked by validate_code however it is made; operators kept in tuples."""

    m: int
    stabilizers: tuple[PauliOperator, ...]
    logical_x: tuple[PauliOperator, ...]
    logical_z: tuple[PauliOperator, ...]

    def __post_init__(self):
        try:
            object.__setattr__(self, "m", index(self.m))
        except TypeError:
            raise ValueError("qubit count %r is not an integer" % (self.m,)) from None
        for name in ("stabilizers", "logical_x", "logical_z"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        validate_code(self)

    @property
    def k(self) -> int:
        return len(self.stabilizers)

    @property
    def n_logical(self) -> int:
        return self.m - self.k


def make_code(m, stabilizers, logical_x, logical_z) -> StabilizerCode:
    return StabilizerCode(m, stabilizers, logical_x, logical_z)


def validate_code(code: StabilizerCode) -> None:
    """Raises ValueError naming the offending row when any invariant fails."""
    paulis = list(code.stabilizers) + list(code.logical_x) + list(code.logical_z)
    names = (["stabilizer %d" % (j + 1) for j in range(code.k)]
             + ["logicalX %d" % (i + 1) for i in range(len(code.logical_x))]
             + ["logicalZ %d" % (i + 1) for i in range(len(code.logical_z))])
    for name, p in zip(names, paulis):
        if p.m != code.m:
            raise ValueError("%s acts on %d qubits, code has %d" % (name, p.m, code.m))
        if p.kappa != 0:
            raise ValueError("%s must carry a +1 phase, got %s" % (name, to_label(p)))
    n = code.n_logical
    if len(code.logical_x) != n or len(code.logical_z) != n:
        raise ValueError("need %d logical X and Z operators, got %d and %d"
                         % (n, len(code.logical_x), len(code.logical_z)))
    k, m = code.k, code.m
    words = [p.x | p.z << m for p in paulis]
    if _rank(words[:k]) != k:
        raise ValueError("stabilizer generators are dependent")
    for j, jj in combinations(range(k), 2):
        if not commutes(paulis[j], paulis[jj]):
            raise ValueError("stabilizer %d anticommutes with stabilizer %d"
                             % (j + 1, jj + 1))
    for i, j in product(range(2 * n), range(k)):
        if not commutes(paulis[k + i], paulis[j]):
            raise ValueError("%s %d anticommutes with stabilizer %d"
                             % ("logicalX" if i < n else "logicalZ", i % n + 1, j + 1))
    lx, lz = code.logical_x, code.logical_z
    for i1, i2 in product(range(n), range(n)):
        if commutes(lx[i1], lz[i2]) == (i1 == i2):
            raise ValueError("logicalX %d vs logicalZ %d: wrong commutation"
                             % (i1 + 1, i2 + 1))
        for name, ops in (("logicalX", lx), ("logicalZ", lz)):
            if i2 > i1 and not commutes(ops[i1], ops[i2]):
                raise ValueError("%s %d anticommutes with %s %d"
                                 % (name, i1 + 1, name, i2 + 1))
    if _rank(words) != len(words):
        raise ValueError("stabilizers and logicals are not independent")


def _gamma_rows(paulis, m: int) -> np.ndarray:
    """Binary rows of the given Paulis as a t x 2m matrix, also when t = 0."""
    return _unpack([p.x | p.z << m for p in paulis], 2 * m)


def stab_gamma(code: StabilizerCode) -> np.ndarray:
    return _gamma_rows(code.stabilizers, code.m)


def logical_x_gamma(code: StabilizerCode) -> np.ndarray:
    return _gamma_rows(code.logical_x, code.m)


def logical_z_gamma(code: StabilizerCode) -> np.ndarray:
    return _gamma_rows(code.logical_z, code.m)


@dataclass(frozen=True, eq=False)
class CssSpec:
    """Input to css_build, which checks its form.

    Either hc (self-orthogonal parity rows, with optional gx/gz completing the
    logical choice) or the nested pair g1, g2 (generators of C1 and of C2
    inside C1) alone.  Like the arrays it holds, a spec equals only itself.
    """

    hc: np.ndarray | None = None
    gx: np.ndarray | None = None
    gz: np.ndarray | None = None
    g1: np.ndarray | None = None
    g2: np.ndarray | None = None


def _extend_basis(base: np.ndarray, candidates: np.ndarray, count: int) -> np.ndarray:
    """Greedily pick rows from candidates that grow the span of base."""
    picked = []
    cur = base
    for row in candidates:
        if len(picked) == count:
            break
        trial = np.vstack([cur, row.reshape(1, -1)])
        if rank(trial) > rank(cur):
            picked.append(row)
            cur = trial
    if len(picked) != count:
        raise InfeasibleError("could not extend basis: candidates too small")
    return np.vstack(picked) if picked else np.zeros((0, base.shape[1]), np.uint8)


def _paired_z_rows(gx: np.ndarray, container: np.ndarray) -> np.ndarray:
    """Rows z_j in rowspan(container) with gx z_j^T = e_j, each the
    lexicographically smallest choice.

    z lies in rowspan(container) iff it is orthogonal to the container's
    nullspace, so each row is one solve with those rows appended to gx.
    """
    mat = np.vstack([gx, nullspace(container)])
    out = []
    for j in range(gx.shape[0]):
        rhs = np.zeros(mat.shape[0], dtype=np.uint8)
        rhs[j] = 1
        sol = solve_linear(mat, rhs)
        if sol is None:
            raise InfeasibleError("no paired Z representative for row %d" % (j + 1))
        out.append(sol[0])
    if not out:
        return np.zeros((0, container.shape[1]), dtype=np.uint8)
    return np.vstack(out)


def derive_logical_z(gx, hc) -> np.ndarray:
    """Logical Z rows paired against gx inside the code spanned by hc and gx.

    Postcondition: gx @ result^T = I, every row orthogonal to hc, and
    stacking hc with the result spans the same code as stacking hc with any
    other valid pairing choice.
    """
    gx = asbits(np.atleast_2d(gx))
    hc = asbits(np.atleast_2d(hc)) if hc is not None and np.size(hc) else \
        np.zeros((0, gx.shape[1]), dtype=np.uint8)
    container = np.vstack([hc, gx]) if hc.shape[0] else gx
    return _paired_z_rows(gx, container)


def css_build(spec: CssSpec) -> StabilizerCode:
    """Build a CSS code, X-type stabilizers first.

    Self-orthogonal form: stabilizers are X and Z copies of hc's rows; gx
    (derived when omitted) gives the logical X rows and gz (derived when
    omitted) the paired logical Z rows.  Pair form: X stabilizers from g2,
    Z stabilizers from the dual of g1, logicals from the quotient.
    """
    if spec.g1 is not None or spec.g2 is not None:
        if (spec.g1 is None or spec.g2 is None
                or any(a is not None for a in (spec.hc, spec.gx, spec.gz))):
            raise ValueError("pair form needs exactly g1 and g2")
        return _css_from_pair(asbits(np.atleast_2d(spec.g1)),
                              asbits(np.atleast_2d(spec.g2)))
    if spec.hc is None:
        raise ValueError("need hc or the g1/g2 pair")
    hc = asbits(np.atleast_2d(spec.hc))
    if hc.shape[1] == 0:
        if spec.gx is None:
            raise ValueError("empty hc needs gx to set the qubit count")
        hc = np.zeros((0, asbits(np.atleast_2d(spec.gx)).shape[1]), np.uint8)
    m = hc.shape[1]
    kp = hc.shape[0]
    if kp and rank(hc) != kp:
        raise ValueError("hc rows are dependent")
    if mul(hc, hc.T).any():
        raise ValueError("hc is not self-orthogonal")
    n_log = m - 2 * kp
    if n_log < 0:
        raise ValueError("too many parity rows for %d qubits" % m)
    inside = nullspace(hc) if kp else np.eye(m, dtype=np.uint8)
    if spec.gx is None:
        gx = _extend_basis(hc if kp else np.zeros((0, m), np.uint8), inside, n_log)
    else:
        gx = asbits(np.atleast_2d(spec.gx))
        if gx.shape != (n_log, m):
            raise ValueError("gx must be %d x %d" % (n_log, m))
        if kp and mul(hc, gx.T).any():
            raise ValueError("gx rows must lie in the code (orthogonal to hc)")
        if rank(np.vstack([hc, gx])) != kp + n_log:
            raise ValueError("gx rows are dependent modulo hc")
    if spec.gz is None:
        gz = derive_logical_z(gx, hc) if n_log else np.zeros((0, m), np.uint8)
    else:
        gz = asbits(np.atleast_2d(spec.gz))
        if gz.shape != (n_log, m):
            raise ValueError("gz must be %d x %d" % (n_log, m))
        if kp and mul(hc, gz.T).any():
            raise ValueError("gz rows must lie in the code (orthogonal to hc)")
        if not np.array_equal(mul(gx, gz.T), np.eye(n_log, dtype=np.uint8)):
            raise ValueError("gx and gz do not pair to the identity")
    return _css_code(m, hc, hc, gx, gz)


def _css_from_pair(g1: np.ndarray, g2: np.ndarray) -> StabilizerCode:
    m = g1.shape[1]
    if g2.shape[1] != m:
        raise ValueError("g1 and g2 must have the same width")
    k1, k2 = rank(g1), rank(g2)
    if k1 != g1.shape[0] or k2 != g2.shape[0]:
        raise ValueError("generator rows must be independent")
    if rank(np.vstack([g1, g2])) != k1:
        raise ValueError("g2 must generate a subcode of g1")
    gx = _extend_basis(g2, g1, k1 - k2)
    gz = _paired_z_rows(gx, nullspace(g2)) if k1 > k2 else np.zeros((0, m), np.uint8)
    return _css_code(m, g2, nullspace(g1), gx, gz)


def _css_code(m: int, sx, sz, gx, gz) -> StabilizerCode:
    """The CSS code whose X and Z stabilizers, logical X and logical Z
    operators have the 0/1 rows of sx, sz, gx and gz as supports."""
    return make_code(m, [PauliOperator(m, 0, w, 0) for w in _pack(sx)]
                     + [PauliOperator(m, 0, 0, w) for w in _pack(sz)],
                     [PauliOperator(m, 0, w, 0) for w in _pack(gx)],
                     [PauliOperator(m, 0, 0, w) for w in _pack(gz)])


def save_code(code: StabilizerCode) -> str:
    lines = ["qubits %d" % code.m]
    lines += ["stabilizer %s" % to_label(s) for s in code.stabilizers]
    lines += ["logicalX %d %s" % (i + 1, to_label(p))
              for i, p in enumerate(code.logical_x)]
    lines += ["logicalZ %d %s" % (i + 1, to_label(p))
              for i, p in enumerate(code.logical_z)]
    return "\n".join(lines) + "\n"


_LINES = {"qubits": "qubits <count>", "stabilizer": "stabilizer <label>",
          "logicalX": "logicalX <index> <label>",
          "logicalZ": "logicalZ <index> <label>"}


def load_code(text: str) -> StabilizerCode:
    """Parse the save_code format; errors carry the offending line number."""
    m = None
    stabs: list[PauliOperator] = []
    lx: dict[int, PauliOperator] = {}
    lz: dict[int, PauliOperator] = {}
    for ln, toks in _tokens(text):
        try:
            if toks[0] == "qubits":
                m = int(toks[1])
                if m < 1:
                    raise ParseError("qubit count must be at least 1, got %d" % m)
            elif toks[0] == "stabilizer":
                stabs.append(from_label(toks[1], m))
            elif toks[0] in ("logicalX", "logicalZ"):
                idx = int(toks[1])
                dst = lx if toks[0] == "logicalX" else lz
                if idx in dst:
                    raise ParseError("duplicate %s index %d" % (toks[0], idx))
                dst[idx] = from_label(toks[2], m)
            else:
                raise ParseError("unknown directive %r" % toks[0])
            if len(toks) > len(_LINES[toks[0]].split()):
                raise ParseError("expected '%s'" % _LINES[toks[0]])
        except (IndexError, ValueError) as exc:
            raise ParseError("line %d: %s" % (ln, exc)) from None
    if m is None:
        raise ParseError("missing qubits line")
    n = m - len(stabs)
    for name, d in (("logicalX", lx), ("logicalZ", lz)):
        # lengths first: n comes from the file and may be huge
        if len(d) != n or sorted(d) != list(range(1, n + 1)):
            raise ParseError("%s indices must be exactly 1..%d" % (name, n))
    try:
        return make_code(m, stabs, [lx[i] for i in range(1, n + 1)],
                         [lz[i] for i in range(1, n + 1)])
    except ValueError as exc:
        raise ParseError(str(exc)) from None
