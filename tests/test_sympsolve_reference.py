"""The packed constraint system, basis completion and enumeration against
the numpy reference in helpers (ref_frame, ref_iter_all,
ref_symplectic_gram_schmidt).

Enumeration order is compared solution for solution on general systems
with m <= 3 and at most 768 solutions (m = 3 keeps at least two
constraints; fewer give 23,040 or more) and on [[6,4,2]] systems from
build_system; errors are compared by type and message.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import sympcliff as sc
from sympcliff import sympsolve
from sympcliff.gf2core import _unpack
from helpers import (ref_frame, ref_iter_all, ref_symplectic_gram_schmidt,
                     symplectic)


def _vectors(m):
    return arrays(np.uint8, 2 * m, elements=st.integers(0, 1))


@st.composite
def small_system(draw):
    """Sources: distinct rows of a random symplectic matrix, in random
    order; targets: their images under a product of random transvections."""
    basis = draw(symplectic(max_m=3))
    m = basis.shape[0] // 2
    fstar = np.eye(2 * m, dtype=np.uint8)
    for h in draw(st.lists(_vectors(m), max_size=3 * m)):
        fstar = sc.mul(fstar, sc.transvection_matrix(h))
    order = draw(st.permutations(range(2 * m)))
    t = draw(st.integers(2 if m == 3 else 0, 2 * m))
    xs = [basis[i] for i in order[:t]]
    return sc.SymplecticSystem(m, xs, [sc.mul(x.reshape(1, -1), fstar).ravel()
                                       for x in xs])


def _listing(solutions):
    return [(f.dtype, f.shape, f.tobytes()) for f in solutions]


@settings(max_examples=15, deadline=None)
@given(small_system())
def test_iter_all_order_matches_numpy_oracle(system):
    assert sympsolve._count(sympsolve._frame(system)[2]) <= 4096
    got = _listing(sc.iter_all(system))
    assert got == _listing(ref_iter_all(system))
    assert got == _listing(sc.enumerate_all(system))


@settings(max_examples=10, deadline=None)
@given(st.lists(st.integers(1, 255), max_size=12), st.lists(st.integers(0, 1), min_size=8,
                                                          max_size=8))
def test_iter_all_order_matches_numpy_oracle_on_code_systems(code642, hs, signs):
    # a random logical action on the four logical qubits: a product of
    # transvections of the 8 logical coordinates, with random signs
    g = np.eye(8, dtype=np.uint8)
    for h in hs:
        g = sc.mul(g, sc.transvection_matrix([h >> i & 1 for i in range(8)]))
    images = sc.mul(g, np.vstack([sc.logical_x_gamma(code642),
                                  sc.logical_z_gamma(code642)]))
    spec = sc.CliffordSpec(
        images_x={i + 1: sc.from_gamma(images[i], 2 * signs[i]) for i in range(4)},
        images_z={i + 1: sc.from_gamma(images[4 + i], 2 * signs[4 + i])
                  for i in range(4)})
    system = sc.build_system(code642, spec)
    got = _listing(sc.iter_all(system))
    assert len(got) == sc.solution_count(code642)
    assert got == _listing(ref_iter_all(system))


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def _packed_frame(system):
    f0, basis, pinned = sympsolve._frame(system)
    return (_unpack(f0, 2 * system.m).tobytes(),
            _unpack(basis, 2 * system.m).tobytes(), list(pinned))


def _numpy_frame(system):
    f0, basis, pinned = ref_frame(system)
    return f0.tobytes(), basis.tobytes(), [bool(p) for p in pinned]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_frame_and_errors_match_numpy_oracle(data):
    # arbitrary sources: often dependent, or with a Gram pattern that is not
    # a matching; targets arbitrary (mostly rejected) or equal to the sources
    m = data.draw(st.integers(1, 4))
    t = data.draw(st.integers(1, 2 * m))
    xs = data.draw(st.lists(_vectors(m), min_size=t, max_size=t))
    ys = xs if data.draw(st.booleans()) else \
        data.draw(st.lists(_vectors(m), min_size=t, max_size=t))
    system = sc.SymplecticSystem(m, xs, ys)
    assert _outcome(_packed_frame, system) == _outcome(_numpy_frame, system)


def _pairs(out):
    if isinstance(out, tuple):
        return out
    return [(u.dtype, u.shape, u.tobytes(), v.dtype, v.shape, v.tobytes())
            for u, v in out]


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_symplectic_gram_schmidt_matches_numpy_oracle(data):
    basis = data.draw(symplectic(max_m=8))
    m = basis.shape[0] // 2
    if data.draw(st.booleans()):
        # rows of a symplectic matrix: a matching Gram pattern
        order = data.draw(st.permutations(range(2 * m)))
        seed = [basis[i] for i in order[:data.draw(st.integers(0, 2 * m))]]
    else:
        seed = data.draw(st.lists(_vectors(m), max_size=2 * m + 1))
    given_m = m if not seed or data.draw(st.booleans()) else None
    assert _pairs(_outcome(sc.symplectic_gram_schmidt, seed, m=given_m)) == \
        _pairs(_outcome(ref_symplectic_gram_schmidt, seed, m=given_m))
