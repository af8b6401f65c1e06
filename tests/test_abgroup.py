from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from setdev.abgroup import (
    FinAbGroup,
    GroupHom,
    TRIVIAL_GROUP,
    canonical,
    devg,
    devg1,
    devg1_oracle,
    devg2,
    devg2_oracle,
    devg_leq,
    element_table,
    embeds_in,
    embeds_in_oracle,
    enumerate_groups,
    enumerate_homs,
    smith_normal_form,
)


def _det(mat):
    # Fraction-based elimination; exact for the small unimodular factors.
    n = len(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] * inv
            if factor:
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return det


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


# --- groups and elements ------------------------------------------------------


def test_invariant_factor_validation():
    FinAbGroup((2, 4))
    with pytest.raises(ValueError):
        FinAbGroup((4, 2))
    with pytest.raises(ValueError):
        FinAbGroup((2, 3))
    with pytest.raises(ValueError):
        FinAbGroup((1, 2))
    assert TRIVIAL_GROUP.order() == 1


def test_canonical_recombination():
    assert canonical([2, 3]) == FinAbGroup((6,))
    assert canonical([4, 2]) == FinAbGroup((2, 4))
    assert canonical([2, 2, 3]) == FinAbGroup((2, 6))
    assert canonical([1, 1]) == TRIVIAL_GROUP


def test_element_table_examples():
    assert len(element_table(TRIVIAL_GROUP).elements) == 1
    klein = element_table(FinAbGroup((2, 2)))
    assert len(klein.elements) == 4
    assert all(klein.add(e, e) == klein.zero() for e in klein.elements)
    z6 = element_table(FinAbGroup((6,)))
    gen = (1,)
    seen = set()
    cur = z6.zero()
    for _ in range(6):
        seen.add(cur)
        cur = z6.add(cur, gen)
    assert len(seen) == 6
    with pytest.raises(ValueError):
        element_table(FinAbGroup((4096, 2)))


# --- smith normal form ---------------------------------------------------------


def test_snf_examples():
    _, d, _ = smith_normal_form([[1]])
    assert d == [[1]]
    u, d, v = smith_normal_form([[2, 0], [0, 3]])
    assert [d[i][i] for i in range(2)] == [1, 6]
    assert _matmul(_matmul(u, [[2, 0], [0, 3]]), v) == d
    assert abs(_det(u)) == 1 and abs(_det(v)) == 1
    _, d, _ = smith_normal_form([[0]])
    assert d == [[0]]


def test_snf_empty_matrix():
    u, d, v = smith_normal_form([])
    assert (u, d, v) == ([], [], [])


@st.composite
def int_matrices(draw, max_dim=4, max_entry=9):
    nrows = draw(st.integers(min_value=1, max_value=max_dim))
    ncols = draw(st.integers(min_value=1, max_value=max_dim))
    return [
        [draw(st.integers(min_value=-max_entry, max_value=max_entry)) for _ in range(ncols)]
        for _ in range(nrows)
    ]


@settings(max_examples=150)
@given(int_matrices())
def test_snf_properties(rows):
    u, d, v = smith_normal_form(rows)
    assert _matmul(_matmul(u, rows), v) == d
    assert abs(_det(u)) == 1
    assert abs(_det(v)) == 1
    diag = [d[i][i] for i in range(min(len(rows), len(rows[0])))]
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0  # zeros trail the chain
        else:
            assert b % a == 0
    for i in range(len(rows)):
        for j in range(len(rows[0])):
            if i != j:
                assert d[i][j] == 0


# --- hom validation and enumeration --------------------------------------------


def test_hom_well_definedness():
    GroupHom(FinAbGroup((2,)), FinAbGroup((4,)), ((2,),))
    with pytest.raises(ValueError):
        GroupHom(FinAbGroup((2,)), FinAbGroup((4,)), ((1,),))
    with pytest.raises(ValueError):
        GroupHom(FinAbGroup((2,)), FinAbGroup((3,)), ((1,),))
    with pytest.raises(ValueError):
        GroupHom(FinAbGroup((2,)), FinAbGroup((4,)), ((4,),))  # not reduced


def test_enumerate_homs_counts():
    z2, z3, z4 = FinAbGroup((2,)), FinAbGroup((3,)), FinAbGroup((4,))
    assert len(list(enumerate_homs(z2, z2))) == 2
    assert len(list(enumerate_homs(z2, z3))) == 1
    assert len(list(enumerate_homs(z4, z2))) == 2
    tables = [h.matrix for h in enumerate_homs(z4, z4)]
    assert tables == sorted(tables)
    with pytest.raises(ValueError):
        next(enumerate_homs(FinAbGroup((17,)), z2))


def test_enumerate_groups():
    groups = enumerate_groups(8)
    assert FinAbGroup((8,)) in groups
    assert FinAbGroup((2, 4)) in groups
    assert FinAbGroup((2, 2, 2)) in groups
    assert len([g for g in groups if g.order() == 8]) == 3
    assert len(groups) == 11


# --- deviations -----------------------------------------------------------------


def test_devg_examples():
    z4 = FinAbGroup((4,))
    zero = GroupHom.zero(z4, z4)
    assert devg1(zero) == TRIVIAL_GROUP and devg2(zero) == z4

    ident = GroupHom.identity(FinAbGroup((6,)))
    assert devg1(ident) == FinAbGroup((6,)) and devg2(ident) == TRIVIAL_GROUP

    mult2 = GroupHom(z4, z4, ((2,),))
    assert devg(mult2).first == FinAbGroup((2,))
    assert devg(mult2).second == FinAbGroup((2,))

    ident24 = GroupHom.identity(FinAbGroup((2, 4)))
    assert devg(ident24).first == FinAbGroup((2, 4))
    assert devg(ident24).second == TRIVIAL_GROUP

    zero2 = GroupHom.zero(FinAbGroup((2,)), FinAbGroup((2,)))
    assert devg(zero2).first == TRIVIAL_GROUP and devg(zero2).second == FinAbGroup((2,))

    incl = GroupHom(FinAbGroup((2,)), z4, ((2,),))
    assert devg(incl).first == FinAbGroup((2,)) and devg(incl).second == FinAbGroup((2,))


def test_devg_oracle_agreement_small():
    groups = enumerate_groups(6)
    for a in groups:
        for b in groups:
            for f in enumerate_homs(a, b):
                assert devg1(f) == devg1_oracle(f), f
                assert devg2(f) == devg2_oracle(f), f


def test_devg_leq_examples():
    z2 = FinAbGroup((2,))
    ident = GroupHom.identity(z2)
    zero = GroupHom.zero(z2, z2)
    for g in enumerate_homs(z2, z2):
        assert devg_leq(ident, g)
        assert devg_leq(g, g)
    assert not devg_leq(zero, ident)
    with pytest.raises(ValueError):
        devg_leq(ident, GroupHom.zero(z2, FinAbGroup((4,))))


# --- embeddability ---------------------------------------------------------------


def test_embeds_in_examples():
    z2, z4, klein = FinAbGroup((2,)), FinAbGroup((4,)), FinAbGroup((2, 2))
    for g in enumerate_groups(8):
        assert embeds_in(TRIVIAL_GROUP, g)
    assert not embeds_in(z4, klein)
    assert not embeds_in(klein, z4)
    assert embeds_in(z2, z4)
    assert embeds_in(FinAbGroup((4, 4)), FinAbGroup((2, 4, 4)))
    assert not embeds_in(FinAbGroup((4, 4)), FinAbGroup((2, 2, 4)))


def test_embeds_oracle_matches_fast_path_small():
    groups = enumerate_groups(16)
    for a in groups:
        for b in groups:
            assert embeds_in(a, b) == embeds_in_oracle(a, b), (a, b)


def test_embeds_oracle_bound():
    with pytest.raises(ValueError):
        embeds_in_oracle(FinAbGroup((65,)), FinAbGroup((65,)))


def _all_subgroup_carriers(table):
    """Every addition-closed subset containing zero, by closure growth."""
    zero = table.zero()
    found = {frozenset({zero})}
    frontier = set(found)
    while frontier:
        next_frontier = set()
        for sub in frontier:
            for g in table.elements:
                if g in sub:
                    continue
                cur = set(sub)
                stack = [g]
                while stack:
                    a = stack.pop()
                    if a in cur:
                        continue
                    cur.add(a)
                    stack.extend(table.add(a, b) for b in list(cur))
                closed = frozenset(cur)
                if closed not in found:
                    found.add(closed)
                    next_frontier.add(closed)
        frontier = next_frontier
    return found


def _torsion_count(group, n):
    # Solutions of n*x = 0 in the group, from the factor structure.
    return prod(gcd(n, d) for d in group.factors)


def test_embeds_in_matches_literal_subgroup_enumeration():
    # Third route, independent of both the partition criterion and the
    # injective-hom search: enumerate actual subgroups and compare their
    # n-torsion layer sizes against each candidate group (torsion counts
    # determine a finite abelian group up to isomorphism).
    groups = enumerate_groups(12)
    for b in groups:
        table = element_table(b)
        carriers = _all_subgroup_carriers(table)
        for a in groups:
            literal = any(
                len(c) == a.order()
                and all(
                    sum(1 for x in c if table.scale(n, x) == table.zero())
                    == _torsion_count(a, n)
                    for n in range(1, a.order() + 1)
                )
                for c in carriers
            )
            assert literal == embeds_in(a, b), (a, b)


@st.composite
def small_groups(draw, max_order=24):
    pool = enumerate_groups(max_order)
    return draw(st.sampled_from(pool))


@given(small_groups(), small_groups(), small_groups())
def test_embeds_in_is_a_preorder(a, b, c):
    assert embeds_in(a, a)
    if embeds_in(a, b) and embeds_in(b, c):
        assert embeds_in(a, c)


@given(small_groups(), small_groups())
def test_embeds_in_antisymmetric_on_canonical_forms(a, b):
    if embeds_in(a, b) and embeds_in(b, a):
        assert a == b


@given(st.data())
def test_devg_components_divide_the_carriers(data):
    groups = enumerate_groups(8)
    a = data.draw(st.sampled_from(groups))
    b = data.draw(st.sampled_from(groups))
    homs = list(enumerate_homs(a, b))
    f = data.draw(st.sampled_from(homs))
    assert a.order() % devg1(f).order() == 0
    assert b.order() % devg2(f).order() == 0
    assert embeds_in(devg1(f), a)
    assert embeds_in(devg2(f), b)
