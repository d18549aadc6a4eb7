"""Pauli operators on m qubits with exact phase tracking.

An operator is stored as iota^kappa * E(a, b), where E(a, b) is the Hermitian
form: E = iota^{a.b} X^{a_1}Z^{b_1} (x) ... (x) X^{a_m}Z^{b_m}.  E(a, b) squares
to the identity, and its per-qubit letters are exactly I/X/Z/Y for
(a_t, b_t) = (0,0)/(1,0)/(0,1)/(1,1), so labels read straight off (a, b).
All phase arithmetic is integer, mod 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gf2core import ParseError, asbits, symplectic_inner

# Each qubit's letter is indexed by its code a_t + 2 b_t: I, X, Z, Y.  Labels
# are converted with bytes.translate; _CODE sends every byte that is not a
# letter to _BAD.
_LETTERS = bytes.maketrans(b"\x00\x01\x02\x03", b"IXZY")
_BAD = 0xFF
_CODE = bytes(b"IXZY".find(c) & _BAD for c in range(256))
_PREFIX = {0: "", 1: "+i", 2: "-", 3: "-i"}


def _idot(x: np.ndarray, y: np.ndarray) -> int:
    # integer dot product; GF(2) reduction here would lose phase information
    return int(x.astype(np.int64) @ y.astype(np.int64))


@dataclass(frozen=True, eq=False)
class PauliOperator:
    """iota^kappa * E(a, b) on m qubits; kappa is the Hermitian-form exponent."""

    m: int
    kappa: int
    a: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = asbits(self.a).ravel().copy()
        b = asbits(self.b).ravel().copy()
        if a.shape != (self.m,) or b.shape != (self.m,):
            raise ValueError("a and b must each hold m bits")
        a.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "kappa", int(self.kappa) % 4)

    def __eq__(self, other):
        if not isinstance(other, PauliOperator):
            return NotImplemented
        return (self.m == other.m and self.kappa == other.kappa
                and np.array_equal(self.a, other.a) and np.array_equal(self.b, other.b))

    def __hash__(self):
        return hash((self.m, self.kappa, self.a.tobytes(), self.b.tobytes()))

    def __repr__(self):
        return "PauliOperator(%r)" % to_label(self)

    @property
    def kappa_d(self) -> int:
        """Phase exponent relative to the bare product form X^a Z^b."""
        return (self.kappa + _idot(self.a, self.b)) % 4

    @property
    def is_hermitian(self) -> bool:
        return self.kappa % 2 == 0

    @property
    def phase(self) -> complex:
        return 1j ** self.kappa

    @property
    def sign(self) -> int:
        """+1 or -1 for a Hermitian operator; raises otherwise."""
        if self.kappa == 0:
            return 1
        if self.kappa == 2:
            return -1
        raise ValueError("operator phase is imaginary")


def pauli_e(a, b, kappa: int = 0) -> PauliOperator:
    """Build iota^kappa * E(a, b)."""
    a = asbits(a).ravel()
    return PauliOperator(a.shape[0], kappa, a, asbits(b).ravel())


def pauli_d(a, b, kappa: int = 0) -> PauliOperator:
    """Build iota^kappa * X^a Z^b (bare product form), converting the phase."""
    a = asbits(a).ravel()
    b = asbits(b).ravel()
    return PauliOperator(a.shape[0], kappa - _idot(a, b), a, b)


def identity(m: int) -> PauliOperator:
    z = np.zeros(m, dtype=np.uint8)
    return PauliOperator(m, 0, z, z)


def gamma(p: PauliOperator) -> np.ndarray:
    """The binary image [a, b] of the operator (phase dropped)."""
    return np.concatenate([p.a, p.b])


def from_gamma(row, kappa: int = 0) -> PauliOperator:
    row = asbits(row).ravel()
    m = row.shape[0] // 2
    return PauliOperator(m, kappa, row[:m], row[m:])


def multiply(p: PauliOperator, q: PauliOperator) -> PauliOperator:
    """Exact group product p * q.

    The cross-term exponent must be accumulated over the integers: reducing
    the dot products mod 2 merges iota and -iota.
    """
    if p.m != q.m:
        raise ValueError("qubit counts differ")
    kappa = (p.kappa + q.kappa
             + _idot(p.a, p.b) + _idot(q.a, q.b)
             + 2 * _idot(q.a, p.b)
             - _idot(p.a ^ q.a, p.b ^ q.b))
    return PauliOperator(p.m, kappa, p.a ^ q.a, p.b ^ q.b)


def commutes(p: PauliOperator, q: PauliOperator) -> bool:
    return symplectic_inner(gamma(p), gamma(q)) == 0


def to_label(p: PauliOperator) -> str:
    """The operator's label: phase prefix ("", "+i", "-", "-i"), then one
    letter I/X/Z/Y per qubit, read off (a_t, b_t) in one table lookup."""
    letters = (p.a + 2 * p.b).tobytes().translate(_LETTERS).decode("ascii")
    return _PREFIX[p.kappa] + letters


def from_label(text: str, m: int | None = None) -> PauliOperator:
    """Parse a label: optional prefix in {+, -, +i, -i}, then m letters IXYZ."""
    s = text.strip()
    kappa = 0
    for pref, k in (("+i", 1), ("-i", 3), ("+", 0), ("-", 2)):
        if s.startswith(pref):
            kappa = k
            s = s[len(pref):]
            break
    if not s:
        raise ParseError("label %r has no Pauli letters" % text)
    # "replace" turns each non-ASCII character into one b"?", so byte
    # positions stay character positions
    codes = s.encode("ascii", "replace").translate(_CODE)
    bad = codes.find(_BAD)
    if bad >= 0:
        raise ParseError("label %r: bad letter %r" % (text, s[bad]))
    if m is not None and len(codes) != m:
        raise ParseError("label %r has %d letters, expected %d" % (text, len(codes), m))
    c = np.frombuffer(codes, dtype=np.uint8)
    return PauliOperator(len(codes), kappa, c & 1, c >> 1)


_X2 = np.array([[0, 1], [1, 0]], dtype=complex)
_Z2 = np.array([[1, 0], [0, -1]], dtype=complex)


def dense(p: PauliOperator) -> np.ndarray:
    """Matrix form, qubit 1 as the most significant tensor factor (m <= 12)."""
    if p.m > 12:
        raise ValueError("dense form limited to m <= 12")
    out = np.ones((1, 1), dtype=complex)
    for x, z in zip(p.a, p.b):
        f = np.eye(2, dtype=complex)
        if x:
            f = f @ _X2
        if z:
            f = f @ _Z2
        out = np.kron(out, f)
    return (1j) ** ((p.kappa + _idot(p.a, p.b)) % 4) * out
