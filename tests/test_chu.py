import json

import pytest

from setdev.chu import (
    ChuMorphism,
    ChuSpace,
    compose,
    e_space,
    embed,
    ex_deviation,
    ex_mapping,
    forced_backward,
    identity_morphism,
    morphism_is_valid,
)
from setdev.cli import main
from setdev.finset import FiniteSet, Mapping
from setdev.verifier import enumerate_mappings


def m(nx, ny, table):
    return Mapping(FiniteSet(nx), FiniteSet(ny), tuple(table))


def test_chu_space_validation():
    ChuSpace(FiniteSet(2), FiniteSet(3), FiniteSet(2), ((0, 1, 0), (1, 1, 0)))
    with pytest.raises(ValueError):
        ChuSpace(FiniteSet(2), FiniteSet(3), FiniteSet(2), ((0, 1, 0),))
    with pytest.raises(ValueError):
        ChuSpace(FiniteSet(1), FiniteSet(2), FiniteSet(2), ((0, 2),))


def test_e_space_matrices():
    assert e_space(FiniteSet(1)).matrix == ((0, 1),)
    space = e_space(FiniteSet(2))
    assert space.matrix == ((0, 1, 0, 1), (0, 0, 1, 1))
    # Column of the full subset is all ones.
    assert tuple(space.matrix[x][3] for x in range(2)) == (1, 1)
    for n in range(1, 5):
        sp = e_space(FiniteSet(n))
        for x in range(n):
            assert sum(sp.matrix[x]) == 1 << (n - 1)


def test_identity_is_valid():
    for n in range(4):
        sp = e_space(FiniteSet(n))
        assert morphism_is_valid(identity_morphism(sp), sp, sp)


def test_embed_is_valid_everywhere():
    for nx in range(4):
        for ny in range(4):
            ex, ey = e_space(FiniteSet(nx)), e_space(FiniteSet(ny))
            for f in enumerate_mappings(FiniteSet(nx), FiniteSet(ny)):
                assert morphism_is_valid(embed(f), ex, ey)


def test_broken_backward_is_invalid():
    f = Mapping.identity(FiniteSet(2))
    ex = e_space(FiniteSet(2))
    good = embed(f)
    bad_table = list(good.backward.table)
    bad_table[1] ^= 1  # flip one membership bit
    bad = ChuMorphism(good.forward, Mapping(good.backward.dom, good.backward.cod, tuple(bad_table)))
    assert not morphism_is_valid(bad, ex, ex)


def test_signature_mismatch_raises():
    ex1, ex2 = e_space(FiniteSet(1)), e_space(FiniteSet(2))
    with pytest.raises(ValueError):
        morphism_is_valid(identity_morphism(ex1), ex1, ex2)


def test_chu_command_refuses_a_carrier_past_eight(capsys):
    # Evaluation spaces over nine points have 512 states; the command does not print them.
    code = main(["chu", json.dumps({"dom": 9, "cod": 1, "table": [0] * 9})])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert "printable up to carrier size 8" in captured.err and "Traceback" not in captured.err


def test_compose_identity_and_associativity():
    f = m(2, 3, [0, 2])
    g = m(3, 2, [1, 1, 0])
    h = m(2, 2, [1, 0])
    ef, eg, eh = embed(f), embed(g), embed(h)
    ide = identity_morphism(e_space(FiniteSet(2)))
    assert compose(ide, ef) == ef
    assert compose(compose(ef, eg), eh) == compose(ef, compose(eg, eh))


def test_embed_functorial_samples():
    f = m(2, 3, [1, 0])
    g = m(3, 2, [0, 0, 1])
    assert embed(f.then(g)) == compose(embed(f), embed(g))


def test_forced_backward_examples():
    ident = Mapping.identity(FiniteSet(2))
    assert forced_backward(ident).table == tuple(range(4))
    const = m(2, 2, [0, 0])
    assert forced_backward(const).table == (0, 3, 0, 3)
    for nx in range(4):
        for ny in range(4):
            for u in enumerate_mappings(FiniteSet(nx), FiniteSet(ny)):
                assert forced_backward(u) == embed(u).backward


def test_ex_mapping_layout():
    f = ex_mapping(FiniteSet(2))
    assert f.dom.size == 8 and f.cod.size == 2
    # (x=0, A={0}) at index 0*4+1 evaluates to 1.
    assert f.table[1] == 1
    assert f.table[0] == 0


def test_ex_deviation_blocks():
    for n in (2, 3, 4):
        dev = ex_deviation(FiniteSet(n))
        expected = n * (1 << (n - 1))
        assert [b.bit_count() for b in dev.part.blocks] == [expected, expected]
        assert dev.missed == 0


def test_ex_deviation_needs_two_points():
    with pytest.raises(ValueError):
        ex_deviation(FiniteSet(1))
    with pytest.raises(ValueError):
        ex_deviation(FiniteSet(0))


def test_forced_backward_is_unique_by_blind_enumeration():
    # At tiny sizes, sweep every candidate backward map: for each forward u
    # exactly one is valid, and it is the forced one.
    for nx in range(3):
        for ny in range(3):
            x, y = FiniteSet(nx), FiniteSet(ny)
            ex, ey = e_space(x), e_space(y)
            for u in enumerate_mappings(x, y):
                valid = [
                    bwd
                    for bwd in enumerate_mappings(ey.states, ex.states)
                    if morphism_is_valid(ChuMorphism(u, bwd), ex, ey)
                ]
                assert valid == [forced_backward(u)]
