import time
from fractions import Fraction
from itertools import combinations, product
from math import gcd, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from setdev.abgroup import (
    MAX_HOM_ORDER,
    MAX_TRIAL_DIVISOR,
    FinAbGroup,
    GroupHom,
    TRIVIAL_GROUP,
    GroupDeviation,
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
    image_mask,
    kernel_mask,
    smith_normal_form,
    _shared_group,
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


def _valuation(n, p):
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


# Tuple arithmetic on coordinates, the reference for the coded tables.


def _zero(group):
    return (0,) * len(group.factors)


def _add(group, x, y):
    return tuple((u + v) % d for u, v, d in zip(x, y, group.factors))


def _scale(group, n, x):
    return tuple(n * u % d for u, d in zip(x, group.factors))


def _order(group, x):
    n, cur = 1, x
    while cur != _zero(group):
        cur = _add(group, cur, x)
        n += 1
    return n


def _apply(f, x):
    return tuple(sum(m * u for m, u in zip(row, x)) % b for row, b in zip(f.matrix, f.cod.factors))


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


def test_element_table_examples():
    assert len(element_table(TRIVIAL_GROUP).elements) == 1
    klein_group = FinAbGroup((2, 2))
    klein = element_table(klein_group)
    assert len(klein.elements) == 4
    assert all(_add(klein_group, e, e) == _zero(klein_group) for e in klein.elements)
    z6_group = FinAbGroup((6,))
    z6 = element_table(z6_group)
    gen = (1,)
    seen = set()
    cur = _zero(z6_group)
    for _ in range(6):
        seen.add(cur)
        cur = _add(z6_group, cur, gen)
    assert len(seen) == 6 and seen == set(z6.elements)
    with pytest.raises(ValueError):
        element_table(FinAbGroup((4096, 2)))
    with pytest.raises(ValueError):
        element_table(FinAbGroup((65,)))
    assert element_table(FinAbGroup((64,))).order == 64


def test_coded_tables_match_tuple_arithmetic():
    for group in enumerate_groups(16):
        table = element_table(group)
        assert table.elements == tuple(product(*(range(d) for d in group.factors)))
        code = {x: i for i, x in enumerate(table.elements)}
        for x in table.elements:
            assert table.orders[code[x]] == _order(group, x)
            for y in table.elements:
                assert table.sums[code[x]][code[y]] == code[_add(group, x, y)]
        for n in range(group.order() + 1):
            assert table.multiple(n) == bytes(code[_scale(group, n, x)] for x in table.elements)


def test_hom_tables_and_masks_match_apply():
    groups = enumerate_groups(8)
    for a in groups:
        for b in groups:
            ta, tb = element_table(a), element_table(b)
            code_b = {y: i for i, y in enumerate(tb.elements)}
            for f in enumerate_homs(a, b):
                values = tb.table(f)
                assert values == bytes(code_b[_apply(f, x)] for x in ta.elements)
                kernel = {x for x in ta.elements if _apply(f, x) == _zero(b)}
                image = {_apply(f, x) for x in ta.elements}
                assert kernel_mask(values) == sum(1 << i for i, x in enumerate(ta.elements) if x in kernel)
                assert image_mask(values) == sum(1 << i for i, y in enumerate(tb.elements) if y in image)
                assert tb.hom(a, tb.columns(f)) == f


# --- local smith normal form ----------------------------------------------------


def _minor_diagonal(rows, p, e):
    """The local Smith form from minors alone: the i-th diagonal entry is
    p^(v(g_i) - v(g_(i-1))), g_i the gcd of all i x i minors, capped at p^e."""
    k, n = len(rows), len(rows[0]) if rows else 0
    out, prev = [], 0
    for t in range(1, k + 1):
        g = 0
        if t <= n:
            for rs in combinations(range(k), t):
                for cs in combinations(range(n), t):
                    g = gcd(g, int(_det([[rows[r][c] for c in cs] for r in rs])))
        if g == 0:
            out.extend([p**e] * (k - len(out)))
            break
        v = _valuation(g, p)
        out.append(p ** min(v - prev, e))
        prev = v
    return out


def test_snf_examples():
    assert smith_normal_form([[1]], 2, 3) == [1]
    # diag(2, 3) has integer Smith form diag(1, 6).
    assert smith_normal_form([[2, 0], [0, 3]], 2, 3) == [1, 2]
    assert smith_normal_form([[2, 0], [0, 3]], 3, 2) == [1, 3]
    assert smith_normal_form([[2, 0], [0, 3]], 5, 1) == [1, 1]
    assert smith_normal_form([[0]], 2, 3) == [8]
    # [[4, 2], [2, 4]] has integer Smith form diag(2, 6).
    assert smith_normal_form([[4, 2], [2, 4]], 2, 3) == [2, 2]
    assert smith_normal_form([[4, 2], [2, 4]], 3, 1) == [1, 3]
    # Over Z/8, 16 is 0 and a row without columns is a free summand.
    assert smith_normal_form([[16, 2]], 2, 3) == [2]
    assert smith_normal_form([[2], [0]], 2, 3) == [2, 8]


def test_snf_empty_matrix():
    assert smith_normal_form([], 2, 1) == []
    assert smith_normal_form([[]], 3, 2) == [9]


@st.composite
def int_matrices(draw, max_dim=4, max_entry=9):
    # Empty shapes included; one row and one column take smith_normal_form's closed forms.
    nrows = draw(st.integers(min_value=0, max_value=max_dim))
    ncols = draw(st.integers(min_value=0, max_value=max_dim))
    return [
        [draw(st.integers(min_value=-max_entry, max_value=max_entry)) for _ in range(ncols)]
        for _ in range(nrows)
    ]


@settings(max_examples=150)
@given(int_matrices(), st.sampled_from([2, 3, 5]), st.integers(min_value=1, max_value=4))
@example([], 2, 1)
@example([[]], 3, 2)
@example([[], []], 5, 1)
@example([[4, -6, 12]], 2, 3)
@example([[6], [-3], [0]], 3, 2)
def test_snf_properties(rows, p, e):
    # Certificate independent of the elimination: each diagonal entry is
    # pinned by the gcds of the integer matrix's minors.
    diag = smith_normal_form(rows, p, e)
    assert diag == sorted(diag)
    assert all(d in [p**v for v in range(e + 1)] for d in diag)
    assert diag == _minor_diagonal(rows, p, e)


def test_snf_rank_one_closed_forms_match_minors():
    # Every one-row and one-column matrix with entries mod q = p^e, the shapes
    # smith_normal_form answers by a gcd without elimination.
    for p, e in product([2, 3], [1, 2]):
        q = p**e
        for k, m in [(1, 1), (1, 2), (1, 3), (2, 1), (3, 1)]:
            for flat in product(range(q), repeat=k * m):
                rows = [list(flat[i * m : (i + 1) * m]) for i in range(k)]
                assert smith_normal_form(rows, p, e) == _minor_diagonal(rows, p, e), (rows, p, e)


# --- hom validation and enumeration --------------------------------------------


def test_hom_well_definedness():
    z2, z4 = FinAbGroup((2,)), FinAbGroup((4,))
    GroupHom(z2, z4, ((2,),))
    with pytest.raises(ValueError, match="not well-defined"):
        GroupHom(z2, z4, ((1,),))
    with pytest.raises(ValueError, match="not well-defined"):
        GroupHom(z2, FinAbGroup((3,)), ((1,),))
    with pytest.raises(ValueError, match="not reduced"):
        GroupHom(z2, z4, ((4,),))
    # Only enumerate_homs skips the checks; the other constructors keep them.
    with pytest.raises(ValueError, match="not well-defined"):
        GroupHom.from_json_dict({"dom": [2], "cod": [4], "matrix": [[1]]})
    with pytest.raises(ValueError, match="not well-defined"):
        element_table(z4).hom(z2, bytes([1]))


def test_enumerated_homs_pass_the_checked_constructor():
    # enumerate_homs checks each entry's choices once per pair of groups and
    # stores its matrices without __post_init__, so every one of them must
    # still pass the checks.
    groups = enumerate_groups(MAX_HOM_ORDER)
    for a, b in product(groups, repeat=2):
        for f in enumerate_homs(a, b):
            assert GroupHom(f.dom, f.cod, f.matrix) == f


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
    zero = GroupHom(z4, z4, ((0,),))
    assert devg1(zero) == TRIVIAL_GROUP and devg2(zero) == z4

    ident = GroupHom(FinAbGroup((6,)), FinAbGroup((6,)), ((1,),))
    assert devg1(ident) == FinAbGroup((6,)) and devg2(ident) == TRIVIAL_GROUP

    mult2 = GroupHom(z4, z4, ((2,),))
    assert devg(mult2).first == FinAbGroup((2,))
    assert devg(mult2).second == FinAbGroup((2,))

    z2z4 = FinAbGroup((2, 4))
    ident24 = GroupHom(z2z4, z2z4, ((1, 0), (0, 1)))
    assert devg(ident24).first == FinAbGroup((2, 4))
    assert devg(ident24).second == TRIVIAL_GROUP

    zero2 = GroupHom(FinAbGroup((2,)), FinAbGroup((2,)), ((0,),))
    assert devg(zero2).first == TRIVIAL_GROUP and devg(zero2).second == FinAbGroup((2,))

    # Image {0} + 2Z/8, cyclic of order 4, so the cokernel is Z/2 + Z/2.
    into_z8 = GroupHom(z2z4, FinAbGroup((2, 8)), ((0, 0), (4, 2)))
    assert devg(into_z8) == GroupDeviation(z4, FinAbGroup((2, 2)))

    into_trivial = GroupHom(z4, TRIVIAL_GROUP, ())
    assert devg(into_trivial) == GroupDeviation(TRIVIAL_GROUP, TRIVIAL_GROUP)
    from_trivial = GroupHom(TRIVIAL_GROUP, z4, ((),))
    assert devg(from_trivial) == GroupDeviation(TRIVIAL_GROUP, z4)

    incl = GroupHom(FinAbGroup((2,)), z4, ((2,),))
    assert devg(incl).first == FinAbGroup((2,)) and devg(incl).second == FinAbGroup((2,))


def test_devg_factoring_is_bounded():
    # 2^61 - 1 is prime, so trial division would take about 10^9 steps; it stops at the bound.
    prime = 2**61 - 1
    big = FinAbGroup((prime,))
    start = time.perf_counter()
    for component in (devg1, devg2):
        with pytest.raises(ValueError, match=f"no prime factor up to {MAX_TRIAL_DIVISOR}"):
            component(GroupHom(big, big, ((1,),)))
    assert time.perf_counter() - start < 5.0
    # devg1 factors gcd(|dom|, |cod|) and devg2 |cod|, so a large domain alone is fine.
    onto = GroupHom(FinAbGroup((2 * prime,)), FinAbGroup((2,)), ((1,),))
    assert devg(onto) == GroupDeviation(FinAbGroup((2,)), TRIVIAL_GROUP)
    # Large orders with small prime factors, or a prime cofactor below the
    # bound's square, factor at once.
    big2 = FinAbGroup((2**20, 2**39))
    assert devg(GroupHom(big2, big2, ((1, 0), (0, 1)))) == GroupDeviation(big2, TRIVIAL_GROUP)
    assert devg(GroupHom(big2, big2, ((0, 0), (0, 2)))) == GroupDeviation(
        FinAbGroup((2**38,)), FinAbGroup((2, 2**20))
    )
    z = FinAbGroup((3 * 1000003,))
    assert devg(GroupHom(z, z, ((3,),))) == GroupDeviation(FinAbGroup((1000003,)), FinAbGroup((3,)))
    # Here gcd(|dom|, |cod|) = 1, so only devg2 meets the two primes above the bound.
    zero = GroupHom(FinAbGroup((2,)), FinAbGroup((1000003 * 1000033,)), ((0,),))
    assert devg1(zero) == TRIVIAL_GROUP
    with pytest.raises(ValueError, match=f"no prime factor up to {MAX_TRIAL_DIVISOR}"):
        devg2(zero)


def test_devg_oracle_agreement_small():
    groups = enumerate_groups(6)
    for a in groups:
        for b in groups:
            for f in enumerate_homs(a, b):
                assert devg1(f) == devg1_oracle(f), f
                assert devg2(f) == devg2_oracle(f), f


def test_devg_results_are_shared_groups():
    # One object per isomorphism class, whether one prime or several build it.
    prime_counts = set()
    groups = enumerate_groups(12)
    for a, b in product(groups, repeat=2):
        for f in enumerate_homs(a, b):
            for g in (devg1(f), devg2(f)):
                assert g is _shared_group(g.factors), f
                prime_counts.add(sum(g.order() % p == 0 for p in (2, 3, 5, 7, 11)))
    assert {1, 2} <= prime_counts


def test_devg_leq_examples():
    z2, z4 = FinAbGroup((2,)), FinAbGroup((4,))
    ident = devg(GroupHom(z2, z2, ((1,),)))
    zero = devg(GroupHom(z2, z2, ((0,),)))
    for g in enumerate_homs(z2, z2):
        assert devg_leq(ident, devg(g))
        assert devg_leq(devg(g), devg(g))
    assert not devg_leq(zero, ident)
    # Endomorphisms of Z/4: the identity lies below doubling, which lies
    # below zero, and not the other way round.
    double = devg(GroupHom(z4, z4, ((2,),)))
    zero4 = devg(GroupHom(z4, z4, ((0,),)))
    assert devg_leq(double, zero4) and not devg_leq(zero4, double)


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


def _all_subgroup_carriers(group):
    """Every addition-closed subset containing zero, by closure growth."""
    elements = element_table(group).elements
    found = {frozenset({_zero(group)})}
    frontier = set(found)
    while frontier:
        next_frontier = set()
        for sub in frontier:
            for g in elements:
                if g in sub:
                    continue
                cur = set(sub)
                stack = [g]
                while stack:
                    a = stack.pop()
                    if a in cur:
                        continue
                    cur.add(a)
                    stack.extend(_add(group, a, b) for b in list(cur))
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
        carriers = _all_subgroup_carriers(b)
        for a in groups:
            literal = any(
                len(c) == a.order()
                and all(
                    sum(1 for x in c if _scale(b, n, x) == _zero(b))
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
