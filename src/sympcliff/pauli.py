"""Pauli operators on m qubits with exact phase tracking.

An operator is stored as iota^kappa * E(a, b), where E(a, b) is the Hermitian
form: E = iota^{a.b} X^{a_1}Z^{b_1} (x) ... (x) X^{a_m}Z^{b_m}.  E(a, b) squares
to the identity, and its per-qubit letters are exactly I/X/Z/Y for
(a_t, b_t) = (0,0)/(1,0)/(0,1)/(1,1), so labels read straight off (a, b).
All phase arithmetic is integer, mod 4.

The bits are held packed, as in the tableau rows of CHP (quant-ph/0406196)
and Stim (arXiv:2103.02202): the Python ints x and z hold a and b, bit t
for qubit t + 1, the gf2core convention for packed rows.  Products,
commutation and phases are popcounts of & and ^ on them.  p.a and p.b give
the bits as read-only uint8 arrays, built on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

import numpy as np

from .gf2core import ParseError, _frozen, _pack, _unpack, asbits

# Labels go through binary strings.  _XCHR and _ZCHR send each letter to its
# a_t or b_t as "0"/"1", and int(..., 2) packs them.  On the way out,
# reading a binary string as hex puts bit t in hex digit t, so x + 2z has
# the digit a_t + 2 b_t, which _LETTERS turns into I, X, Z, Y.
_XCHR = bytes.maketrans(b"IXZY", b"0101")
_ZCHR = bytes.maketrans(b"IXZY", b"0011")
_LETTERS = bytes.maketrans(b"0123", b"IXZY")
_PREFIX = {0: "", 1: "+i", 2: "-", 3: "-i"}
_KAPPA = {"": 0, "+": 0, "+i": 1, "-": 2, "-i": 3}


def _word(v, m: int) -> int:
    """Bits given as an int (numpy ints and bools too) or m array bits, packed."""
    if isinstance(v, (int, np.integer)):
        return int(v)
    bits = asbits(v).ravel()
    if bits.shape != (m,):
        raise ValueError("a and b must each hold m bits")
    return _pack(bits.reshape(1, m))[0]


@dataclass(frozen=True, slots=True, eq=False)
class PauliOperator:
    """iota^kappa * E(a, b) on m qubits; kappa is the Hermitian-form exponent.

    x and z hold a and b packed, bit t for qubit t + 1.  The constructor
    also takes them as arrays of m bits.
    """

    m: int
    kappa: int
    x: int
    z: int

    def __init__(self, m: int, kappa: int, x, z):
        try:
            m, kappa = index(m), index(kappa) % 4
        except TypeError:
            raise ValueError("m and kappa must be integers, got %r and %r"
                             % (m, kappa)) from None
        x = x if type(x) is int else _word(x, m)
        z = z if type(z) is int else _word(z, m)
        # a negative int shifts down to -1, so one test covers both bounds
        if m < 0 or (x | z) >> m:
            raise ValueError("x and z must be ints in [0, 2^m)")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)

    def __eq__(self, other):
        if not isinstance(other, PauliOperator):
            return NotImplemented
        return (self.x == other.x and self.z == other.z
                and self.kappa == other.kappa and self.m == other.m)

    def __hash__(self):
        return hash((self.m, self.kappa, self.x, self.z))

    def __repr__(self):
        return "PauliOperator(%r)" % to_label(self)

    @property
    def a(self) -> np.ndarray:
        """The X bits a_1..a_m, a read-only uint8 array."""
        return _frozen([self.x], self.m)[0]

    @property
    def b(self) -> np.ndarray:
        """The Z bits b_1..b_m, a read-only uint8 array."""
        return _frozen([self.z], self.m)[0]

    @property
    def kappa_d(self) -> int:
        """Phase exponent relative to the bare product form X^a Z^b."""
        return (self.kappa + (self.x & self.z).bit_count()) % 4

    @property
    def is_hermitian(self) -> bool:
        return self.kappa % 2 == 0

    @property
    def phase(self) -> complex:
        return 1j ** self.kappa

    @property
    def sign(self) -> int:
        """+1 or -1 for a Hermitian operator; raises otherwise."""
        if self.kappa % 2:
            raise ValueError("operator phase is imaginary")
        return 1 - self.kappa


def pauli_e(a, b, kappa: int = 0) -> PauliOperator:
    """Build iota^kappa * E(a, b)."""
    a = asbits(a).ravel()
    return PauliOperator(a.shape[0], kappa, a, b)


def pauli_d(a, b, kappa: int = 0) -> PauliOperator:
    """Build iota^kappa * X^a Z^b (bare product form), converting the phase."""
    p = pauli_e(a, b)
    return PauliOperator(p.m, kappa - (p.x & p.z).bit_count(), p.x, p.z)


def identity(m: int) -> PauliOperator:
    return PauliOperator(m, 0, 0, 0)


def gamma(p: PauliOperator) -> np.ndarray:
    """The binary image [a, b] of the operator (phase dropped)."""
    return _unpack([p.x | p.z << p.m], 2 * p.m)[0]


def from_gamma(row, kappa: int = 0) -> PauliOperator:
    row = asbits(row).ravel()
    if row.shape[0] % 2:
        raise ValueError("a gamma row [a, b] must have even length 2m, got %d"
                         % row.shape[0])
    m = row.shape[0] // 2
    return PauliOperator(m, kappa, row[:m], row[m:])


def multiply(p: PauliOperator, q: PauliOperator) -> PauliOperator:
    """Exact group product p * q.

    The cross-term exponent must be accumulated over the integers: reducing
    the dot products mod 2 merges iota and -iota.
    """
    if p.m != q.m:
        raise ValueError("qubit counts differ")
    x, z = p.x ^ q.x, p.z ^ q.z
    kappa = (p.kappa + q.kappa
             + (p.x & p.z).bit_count() + (q.x & q.z).bit_count()
             + 2 * (q.x & p.z).bit_count()
             - (x & z).bit_count())
    return PauliOperator(p.m, kappa, x, z)


def commutes(p: PauliOperator, q: PauliOperator) -> bool:
    if p.m != q.m:
        raise ValueError("qubit counts differ")
    return not ((p.x & q.z) ^ (p.z & q.x)).bit_count() & 1


def to_label(p: PauliOperator) -> str:
    """The label: phase prefix ("", "+i", "-", "-i"), then a letter IXZY per qubit."""
    digits = int(format(p.x, "b"), 16) + 2 * int(format(p.z, "b"), 16)
    letters = ("%0*x" % (p.m, digits))[::-1].encode().translate(_LETTERS)
    return _PREFIX[p.kappa] + letters[:p.m].decode("ascii")


def from_label(text: str, m: int | None = None) -> PauliOperator:
    """Parse a label: optional prefix in {+, -, +i, -i}, then m letters IXYZ."""
    s = text.strip()
    pref = next(p for p in ("+i", "-i", "+", "-", "") if s.startswith(p))
    kappa, s = _KAPPA[pref], s[len(pref):]
    if not s:
        raise ParseError("label %r has no Pauli letters" % text)
    # "replace" turns each non-ASCII character into one b"?", so byte
    # positions stay character positions
    raw = s.encode("ascii", "replace")
    if raw.translate(None, b"IXZY"):
        bad = next(i for i, c in enumerate(raw) if c not in b"IXZY")
        raise ParseError("label %r: bad letter %r" % (text, s[bad]))
    if m is not None and len(raw) != m:
        raise ParseError("label %r has %d letters, expected %d" % (text, len(raw), m))
    # qubit 1 comes first in the label and must be bit 0
    return PauliOperator(len(raw), kappa, int(raw.translate(_XCHR)[::-1], 2),
                         int(raw.translate(_ZCHR)[::-1], 2))


_I2 = np.eye(2, dtype=complex)
_X2 = np.array([[0, 1], [1, 0]], dtype=complex)
_Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
# X^{a_t} Z^{b_t} by a_t + 2 b_t, multiplied out from I (keeping signed zeros)
_FACTORS = (_I2, _I2 @ _X2, _I2 @ _Z2, _I2 @ _X2 @ _Z2)


def dense(p: PauliOperator) -> np.ndarray:
    """Matrix form, qubit 1 as the most significant tensor factor (m <= 12)."""
    if p.m > 12:
        raise ValueError("dense form limited to m <= 12")
    out = np.ones((1, 1), dtype=complex)
    for t in range(p.m):
        out = np.kron(out, _FACTORS[(p.x >> t & 1) | (p.z >> t & 1) << 1])
    return 1j ** p.kappa_d * out
