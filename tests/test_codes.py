from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import sympcliff as sc
from helpers import bits

GX_642 = bits("110000", "101000", "100100", "100010")
GZ_642 = bits("010001", "001001", "000101", "000011")
HC_642 = bits("111111")


def _labels(ps):
    return [sc.to_label(p) for p in ps]


def test_make_code_validates_commutation():
    with pytest.raises(ValueError):
        sc.make_code(2, [sc.from_label("XX"), sc.from_label("ZI")], [], [])
    # lone stabilizer must commute with the logicals it protects
    with pytest.raises(ValueError):
        sc.make_code(2, [sc.from_label("XX")],
                     [sc.from_label("XI")], [sc.from_label("ZI")])


def test_make_code_requires_hermitian_generators():
    with pytest.raises(ValueError):
        sc.make_code(2, [sc.from_label("+iXX")],
                     [sc.from_label("XI")], [sc.from_label("ZZ")])


def test_make_code_rejects_dependent_stabilizers():
    with pytest.raises(ValueError):
        sc.make_code(2, [sc.from_label("XX"), sc.from_label("XX")], [], [])


def test_make_code_rejects_wrong_pairing():
    # logical X1 must anti-commute with its own Z, commute with the other
    with pytest.raises(ValueError):
        sc.make_code(2, [],
                     [sc.from_label("XI"), sc.from_label("IX")],
                     [sc.from_label("IZ"), sc.from_label("ZI")])


@pytest.mark.parametrize("m, stabs, lx, lz, message", [
    # the logical row is the outer loop: a stabilizer-first scan would name
    # logicalX 2 vs stabilizer 1
    (4, ["IIZI", "IIIZ"], ["XIIX", "IXXI"], ["ZIII", "IZII"],
     "logicalX 1 anticommutes with stabilizer 2"),
    # pair (1, 1) is checked before pair (1, 2)
    (2, [], ["XI", "ZX"], ["IZ", "ZI"],
     "logicalX 1 vs logicalZ 1: wrong commutation"),
    # all three relations of pair (1, 2) come before any of pair (2, 1)
    (2, [], ["XI", "YX"], ["ZI", "IZ"],
     "logicalX 1 anticommutes with logicalX 2"),
])
def test_make_code_names_the_first_bad_pair(m, stabs, lx, lz, message):
    with pytest.raises(ValueError) as err:
        sc.make_code(m, [sc.from_label(p) for p in stabs],
                     [sc.from_label(p) for p in lx], [sc.from_label(p) for p in lz])
    assert str(err.value) == message


def test_loaded_fixture_shape(code642, code513):
    assert (code642.m, code642.k, code642.n_logical) == (6, 2, 4)
    assert (code513.m, code513.k, code513.n_logical) == (5, 4, 1)


def test_css_build_with_explicit_generators_reproduces_published_code(code642):
    code = sc.css_build(sc.CssSpec(hc=HC_642, gx=GX_642, gz=GZ_642))
    assert _labels(code.stabilizers) == ["XXXXXX", "ZZZZZZ"]
    assert _labels(code.logical_x) == _labels(code642.logical_x)
    assert _labels(code.logical_z) == _labels(code642.logical_z)


def test_css_build_derives_the_published_z_generators(code642):
    code = sc.css_build(sc.CssSpec(hc=HC_642, gx=GX_642))
    assert _labels(code.logical_z) == _labels(code642.logical_z)


def test_css_build_from_code_pair_reproduces_published_code(code642):
    g1 = np.vstack([HC_642, GX_642])
    code = sc.css_build(sc.CssSpec(g1=g1, g2=HC_642))
    assert _labels(code.stabilizers) == ["XXXXXX", "ZZZZZZ"]
    assert _labels(code.logical_x) == _labels(code642.logical_x)
    assert _labels(code.logical_z) == _labels(code642.logical_z)


def test_css_build_trivial_code_gives_bare_qubits():
    code = sc.css_build(sc.CssSpec(hc=np.zeros((0, 3), np.uint8)))
    assert code.k == 0
    assert _labels(code.logical_x) == ["XII", "IXI", "IIX"]
    assert _labels(code.logical_z) == ["ZII", "IZI", "IIZ"]


def test_css_build_six_two_code_invariants():
    code = sc.css_build(sc.CssSpec(hc=bits("111100", "001111")))
    assert (code.m, code.k, code.n_logical) == (6, 4, 2)
    sc.validate_code(code)


def test_css_build_rejects_non_self_orthogonal_check():
    with pytest.raises(ValueError):
        sc.css_build(sc.CssSpec(hc=bits("110000", "011000")))


def test_css_build_rejects_pair_without_containment():
    with pytest.raises(ValueError):
        sc.css_build(sc.CssSpec(g1=bits("110000", "001100"), g2=bits("111111")))


def test_css_spec_pair_form_takes_g1_and_g2_alone_and_equals_only_itself():
    g1 = np.vstack([HC_642, GX_642])
    for extra in ({"hc": HC_642}, {"gx": GX_642}, {"gz": GZ_642}):
        with pytest.raises(ValueError, match="^pair form needs exactly g1 and g2$"):
            sc.css_build(sc.CssSpec(g1=g1, g2=HC_642, **extra))
    # compares and hashes like the arrays it holds: by identity, never raising
    spec = sc.CssSpec(hc=HC_642)
    assert spec == spec and spec != sc.CssSpec(hc=HC_642.copy())
    assert hash(spec) == hash(spec)


def test_a_code_checks_itself_however_it_is_made(code642):
    with pytest.raises(ValueError,
                       match="^need 4 logical X and Z operators, got 3 and 3$"):
        dataclasses.replace(code642, logical_x=code642.logical_x[:3],
                            logical_z=code642.logical_z[:3])
    with pytest.raises(ValueError,
                       match="^stabilizer 1 anticommutes with stabilizer 2$"):
        sc.StabilizerCode(2, [sc.from_label("XX"), sc.from_label("ZI")], [], [])
    code = sc.StabilizerCode(code642.m, list(code642.stabilizers),
                             list(code642.logical_x), list(code642.logical_z))
    assert code == code642 and type(code.logical_z) is tuple
    assert dataclasses.replace(code642) == code642


def test_derive_logical_z_published_rows():
    gz = sc.derive_logical_z(GX_642, HC_642)
    assert np.array_equal(gz, GZ_642)


def test_derive_logical_z_pairing_identity_without_container():
    gx = np.eye(3, dtype=np.uint8)
    gz = sc.derive_logical_z(gx, None)
    assert np.array_equal(sc.mul(gx, gz.T), np.eye(3, dtype=np.uint8))


def test_derive_logical_z_random_admissible_instances():
    rng = np.random.default_rng(53)
    done = 0
    while done < 15:
        m = int(rng.integers(2, 9))
        k = int(rng.integers(0, m // 2 + 1))
        hc = rng.integers(0, 2, size=(k, m), dtype=np.uint8)
        if k and (sc.mul(hc, hc.T).any() or sc.rank(hc) != k):
            continue
        try:
            code = sc.css_build(sc.CssSpec(hc=hc))
        except ValueError:
            continue
        gx = np.vstack([sc.gamma(p)[:m] for p in code.logical_x]) \
            if code.n_logical else np.zeros((0, m), np.uint8)
        gz = np.vstack([sc.gamma(p)[m:] for p in code.logical_z]) \
            if code.n_logical else np.zeros((0, m), np.uint8)
        n = code.n_logical
        assert np.array_equal(sc.mul(gx, gz.T), np.eye(n, dtype=np.uint8))
        if k:
            assert not sc.mul(gz, hc.T).any()
        done += 1


def test_save_load_round_trip(code513):
    text = sc.save_code(code513)
    again = sc.load_code(text)
    assert _labels(again.stabilizers) == _labels(code513.stabilizers)
    assert _labels(again.logical_x) == _labels(code513.logical_x)
    assert _labels(again.logical_z) == _labels(code513.logical_z)
    assert sc.save_code(again) == text


def test_load_rejects_anticommuting_stabilizers():
    text = ("qubits 2\nstabilizer XX\nstabilizer ZI\n"
            "logicalX 1 IX\nlogicalZ 1 IZ\n")  # wrong on purpose
    with pytest.raises(sc.ParseError):
        sc.load_code(text)


def test_load_reports_line_numbers():
    with pytest.raises(sc.ParseError) as err:
        sc.load_code("qubits 2\nstabilizer XQ\n")
    assert "line 2" in str(err.value)


def test_load_requires_complete_logical_indices():
    text = "qubits 2\nlogicalX 1 XI\nlogicalZ 1 ZI\nlogicalX 2 IX\n"
    with pytest.raises(sc.ParseError):
        sc.load_code(text)


@pytest.mark.parametrize("count", [10**20, -3, 0])
def test_load_rejects_impossible_qubit_counts(count):
    with pytest.raises(sc.ParseError):
        sc.load_code("qubits %d\n" % count)


def test_gamma_row_helpers(code642):
    sg = sc.stab_gamma(code642)
    assert sg.shape == (2, 12)
    assert np.array_equal(sg[0], np.concatenate([np.ones(6), np.zeros(6)]).astype(np.uint8))
    lx = sc.logical_x_gamma(code642)
    lz = sc.logical_z_gamma(code642)
    assert lx.shape == (4, 12) and lz.shape == (4, 12)
    assert np.array_equal(lx[0][:6], bits("110000")[0])
    assert np.array_equal(lz[0][6:], bits("010001")[0])
