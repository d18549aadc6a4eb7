"""The packed factoring core and gate emitter against the numpy reference in
helpers (ref_decompose, ref_factor_to_gates, ref_depth), and the lane core
that factors a batch at once against the scalar core (ref_unsigned).

Inputs are random symplectic matrices with m up to 12 from
helpers.symplectic, whose families reach every branch of the factoring.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sympcliff as sc
from sympcliff import synth
from sympcliff.circuit import _score_planes
from sympcliff.decompose import (FACTOR_KINDS, _emit_lanes, _factor_lanes,
                                 _lane_gates)
from conftest import FIXTURES
from helpers import (_invertible, _symmetric, bit_arrays, hamming_parity,
                     random_logical_spec, ref_decompose, ref_depth, ref_expand,
                     ref_factor_to_gates, ref_find_symplectic, ref_mul,
                     ref_slice, ref_solutions, ref_unsigned, symplectic)


def _assert_same_factors(got, want):
    assert [(g.kind, g.m, g.k) for g in got] == [(w.kind, w.m, w.k) for w in want]
    for g, w in zip(got, want):
        for attr in ("q", "r"):
            a, b = getattr(g, attr), getattr(w, attr)
            assert (a is None) == (b is None)
            if b is not None:
                assert (a.dtype, a.shape) == (b.dtype, b.shape)
                assert np.array_equal(a, b)


@settings(max_examples=300, deadline=None)
@given(symplectic())
def test_decompose_and_gates_match_reference(f):
    m = f.shape[0] // 2
    factors = sc.decompose(f)
    want = ref_decompose(f)
    _assert_same_factors(factors, want)
    for got_f, want_f in zip(factors, want):
        assert sc.factor_to_gates(got_f) == ref_factor_to_gates(want_f)
    circ = sc.factors_to_circuit(factors, m)
    assert list(circ.gates) == [g for w in want for g in ref_factor_to_gates(w)]
    for g in circ.gates:
        assert g == sc.gate(g.kind, *g.qubits)
    assert sc.depth(circ) == ref_depth(circ)


@settings(max_examples=200, deadline=None)
@given(symplectic(max_m=6), st.data())
def test_flipped_bits_raise_what_the_reference_raises(f, data):
    # a flipped bit usually breaks symplecticity, which must be refused with
    # the reference's error; a matrix that stays symplectic must factor alike
    n = f.shape[0]
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    g = f.copy()
    for i, j in data.draw(st.lists(cells, min_size=1, max_size=3)):
        g[i, j] ^= 1
    try:
        want = ref_decompose(g)
    except ValueError as exc:
        with pytest.raises(type(exc)) as got:
            sc.decompose(g)
        assert str(got.value) == str(exc)
        return
    _assert_same_factors(sc.decompose(g), want)


def _refused_or_factored_as_the_reference(f):
    """decompose refuses f with exactly the ValueError of a matrix that is
    not symplectic, or factors it as ref_decompose does."""
    if sc.is_symplectic(f):
        _assert_same_factors(sc.decompose(f), ref_decompose(f))
        return
    with pytest.raises(Exception) as got:
        sc.decompose(f)
    assert type(got.value) is ValueError
    assert str(got.value) == "input matrix is not symplectic"


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(lambda m: bit_arrays(2 * m, 2 * m)))
def test_uniform_random_matrices_are_refused_or_factored(f):
    # almost none of these is symplectic, so the closed form fails on them
    # and only the Gram comparison behind it names the fault
    _refused_or_factored_as_the_reference(f)


@functools.cache
def _hamming_solution(r: int) -> tuple[sc.StabilizerCode, np.ndarray]:
    """The Hamming CSS code of r parity checks, with one solution f0 of a
    seeded random logical spec."""
    code = sc.css_build(sc.CssSpec(hc=hamming_parity(r)))
    spec = random_logical_spec(code, np.random.default_rng(r), "flip%d" % r)
    return code, sc.find_symplectic(sc.build_system(code, spec))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((4, 5)), st.data())
def test_flipped_bits_of_hamming_solutions_are_refused(r, data):
    # one or two flipped bits of a [[15,7,3]] or [[31,21,3]] solution
    f = _hamming_solution(r)[1].copy()
    n = f.shape[0]
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for i, j in data.draw(st.lists(cells, min_size=1, max_size=2, unique=True)):
        f[i, j] ^= 1
    _refused_or_factored_as_the_reference(f)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.sampled_from(FACTOR_KINDS), st.data())
def test_expand_matches_the_reference_for_every_kind(m, kind, data):
    f = {"OMEGA": lambda: sc.f_omega(m),
         "AQ": lambda: sc.f_aq(_invertible(data.draw, m)),
         "TR": lambda: sc.f_tr(_symmetric(data.draw, m)),
         "GK": lambda: sc.f_gk(m, data.draw(st.integers(0, m)))}[kind]()
    assert np.array_equal(sc.expand(f), ref_expand(f))


def test_families_reach_the_cancellation_and_both_ranks():
    # A_Q T_R A_Q has a rank-m A block and no T_R between Omega and G_m, so
    # both are dropped; Omega T_R Omega keeps them
    rng = np.random.default_rng(5)
    m = 4
    q = np.eye(m, dtype=np.uint8)[[2, 0, 3, 1]]
    q[0] ^= q[1]
    r = rng.integers(0, 2, (m, m), dtype=np.uint8)
    r = np.triu(r) | np.triu(r, 1).T
    aq, tr = sc.expand(sc.f_aq(q)), sc.expand(sc.f_tr(r))
    assert [f.kind for f in sc.decompose(ref_mul(aq, tr, aq))] == ["AQ", "TR"]
    lower = sc.decompose(ref_mul(sc.omega(m), tr, sc.omega(m)))
    assert [(f.kind, f.k) for f in lower] == [("OMEGA", None), ("TR", None),
                                              ("GK", m)]
    zero_a = sc.decompose(ref_mul(aq, sc.omega(m), tr))
    assert [f.kind for f in zero_a] == ["AQ", "OMEGA", "TR"]


def test_decompose_rejects_the_empty_matrix():
    with pytest.raises(ValueError):
        sc.decompose(np.zeros((0, 0), dtype=np.uint8))


@pytest.mark.parametrize("shape", [(3, 3), (2, 4), (4,)])
def test_decompose_rejects_shapes_that_are_not_2m_square(shape):
    with pytest.raises(ValueError):
        sc.decompose(np.zeros(shape, dtype=np.uint8))


def test_whole_sp4_matches_the_reference_factor_for_factor(sp4):
    for f in sp4:
        _assert_same_factors(sc.decompose(f), ref_decompose(f))


def _transvections(rng, m, count):
    f = np.eye(2 * m, dtype=np.uint8)
    for _ in range(count):
        f = ref_mul(f, sc.transvection_matrix(rng.integers(0, 2, 2 * m, dtype=np.uint8)))
    return f


@pytest.mark.parametrize("m", (31, 32, 33))
def test_decompose_and_find_symplectic_match_the_oracles_across_64_bits(m):
    # rows of 2m = 62, 64 and 66 bits: the GF(2) kernels' slots are 8, 8
    # and 9 bytes wide.  Seeded members of helpers.symplectic's families,
    # and G_k times a few transvections for A blocks of rank below m.
    rng = np.random.default_rng(m)
    eye = np.eye(m, dtype=np.uint8)

    def aq():
        low = np.tril(rng.integers(0, 2, (m, m), dtype=np.uint8), -1) | eye
        up = np.triu(rng.integers(0, 2, (m, m), dtype=np.uint8), 1) | eye
        return sc.expand(sc.f_aq(ref_mul(low, up)[rng.permutation(m)]))

    def tr():
        s = rng.integers(0, 2, (m, m), dtype=np.uint8)
        return sc.expand(sc.f_tr(np.triu(s) | np.triu(s, 1).T))

    near = _transvections(rng, m, 4)
    fs = [ref_mul(aq(), tr(), aq()), ref_mul(aq(), sc.omega(m), tr()),
          ref_mul(sc.omega(m), tr(), sc.omega(m)), _transvections(rng, m, 3 * m)]
    fs += [ref_mul(sc.expand(sc.f_gk(m, k)), near) for k in (1, m // 2, m)]
    assert {sc.rank(f[:m, :m]) for f in fs} > {0, m}  # and ranks between
    for f in fs:
        _assert_same_factors(sc.decompose(f), ref_decompose(f))
    # sources: 2m - 3 rows of a symplectic matrix; targets: their images
    g = fs[3]
    xs = fs[0][rng.permutation(2 * m)[:2 * m - 3]]
    system = sc.SymplecticSystem(m, xs, ref_mul(xs, g))
    f, hs = sc.find_symplectic(system, return_transvections=True)
    ref_f, ref_hs = ref_find_symplectic(system, return_transvections=True)
    assert f.tobytes() == ref_f.tobytes()
    assert [h.tobytes() for h in hs] == [h.tobytes() for h in ref_hs]
    _assert_same_factors(sc.decompose(f), ref_decompose(f))


# The bit-sliced lane core (_factor_lanes, _emit_lanes, _lane_gates,
# _score_planes) against the scalar oracle helpers.ref_unsigned, lane for
# lane.

def _sliced_outputs(sliced, n, m):
    full = (1 << n) - 1
    gates = _emit_lanes(_factor_lanes(sliced, full), full)
    depths, counts = _score_planes(gates, m, n)
    return [(_lane_gates(gates, lane, m), (depths[lane], counts[lane]))
            for lane in range(n)]


def _lane_outputs(fs, m):
    return _sliced_outputs(ref_slice(np.stack(fs)), len(fs), m)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_lanes_match_the_scalar_oracle(data):
    m = data.draw(st.integers(1, 8))
    fs = data.draw(st.lists(symplectic(min_m=m, max_m=m), min_size=1, max_size=5))
    assert _lane_outputs(fs, m) == [ref_unsigned(f, m) for f in fs]


def test_lanes_match_the_scalar_oracle_at_every_rank_of_a():
    # G_k F has an A block of any rank; one batch holds every rank 0..m
    m = 6
    rng = np.random.default_rng(5)
    fs = []
    for k in range(m + 1):
        f = np.eye(2 * m, dtype=np.uint8)
        for _ in range(4):
            f = ref_mul(f, sc.transvection_matrix(rng.integers(0, 2, 2 * m)))
        fs += [ref_mul(sc.expand(sc.f_gk(m, k)), f), sc.expand(sc.f_gk(m, k))]
    assert sorted({sc.rank(f[:m, :m]) for f in fs}) == list(range(m + 1))
    assert _lane_outputs(fs, m) == [ref_unsigned(f, m) for f in fs]


def test_whole_sp4_in_one_lane_batch_matches_the_scalar_oracle(sp4):
    assert len(sp4) == 720
    assert _lane_outputs(sp4, 2) == [ref_unsigned(f, 2) for f in sp4]


def _lane_refused_or_factored(f):
    """A one-lane batch of f gives ref_unsigned's gates and pair, or raises
    exactly the ValueError of a matrix that is not symplectic."""
    m = f.shape[0] // 2
    if sc.is_symplectic(f):
        assert _lane_outputs([f], m) == [ref_unsigned(f, m)]
        return
    with pytest.raises(Exception) as got:
        _lane_outputs([f], m)
    assert type(got.value) is ValueError
    assert str(got.value) == "input matrix is not symplectic"


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(lambda m: bit_arrays(2 * m, 2 * m)))
def test_uniform_random_one_lane_batches_are_refused_or_factored(f):
    # Gram matrices are compared only after a failed check, so every lane
    # that is not symplectic must fail one of the closed form's checks
    _lane_refused_or_factored(f)


@settings(max_examples=150, deadline=None)
@given(symplectic(max_m=6), st.data())
def test_flipped_bits_of_one_lane_batches_are_refused_or_factored(f, data):
    # one to three flips of a symplectic matrix, near the symplectic group
    # where a check that proves too little would let a lane through
    n = f.shape[0]
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    g = f.copy()
    for i, j in data.draw(st.lists(cells, min_size=1, max_size=3, unique=True)):
        g[i, j] ^= 1
    _lane_refused_or_factored(g)


def test_one_corrupted_lane_makes_the_batch_raise():
    m = 3
    rng = np.random.default_rng(9)
    fs = np.stack([ref_mul(*[sc.transvection_matrix(rng.integers(0, 2, 2 * m))
                             for _ in range(5)]) for _ in range(8)])
    _factor_lanes(ref_slice(fs), 255)
    fs[5, 2, 4] ^= 1
    with pytest.raises(ValueError, match="not symplectic"):
        _factor_lanes(ref_slice(fs), 255)


def test_a_full_block_batch_matches_the_scalar_oracle(code513):
    # hadamard5q's first block is one batch of _CHUNK lanes (at least 512),
    # so lane masks above bit 63 (past any machine word) are checked too
    spec = sc.load_spec((FIXTURES / "hadamard5q.spec").read_text())
    f0 = sc.find_symplectic(sc.build_system(code513, spec))
    n = synth._CHUNK
    assert 512 <= n <= sc.solution_count(code513)
    sliced = synth._sliced(f0, synth._deltas(code513, f0), range(n))
    assert _sliced_outputs(sliced, n, 5) \
        == [ref_unsigned(f, 5) for f in ref_solutions(code513, f0, 0, n)]


@pytest.mark.parametrize("r", [4, 5])
def test_scattered_lanes_of_a_large_hamming_batch_match_the_scalar_oracle(r):
    # [[15,7,3]] has 36 index bits and [[31,21,3]] 55: one batch built by
    # _sliced holds index 0, single bits below and past bit 32, the last
    # index and 20 seeded indices, most of them past bit 32
    code, f0 = _hamming_solution(r)
    bits = code.k * (code.k + 1) // 2
    assert (code.m, bits) == {4: (15, 36), 5: (31, 55)}[r]
    rng = np.random.default_rng(1000 + r)
    idx = [0, 1, 1 << 32, (1 << bits) - 1] \
        + [int(i) for i in rng.integers(2, 1 << bits, 20)]
    assert sum(i >> 33 > 0 for i in idx) >= 15
    sliced = synth._sliced(f0, synth._deltas(code, f0), idx)
    assert _sliced_outputs(sliced, len(idx), code.m) \
        == [ref_unsigned(next(ref_solutions(code, f0, i, i + 1)), code.m)
            for i in idx]
