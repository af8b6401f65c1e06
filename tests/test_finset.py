import gc
import sys

import pytest
from hypothesis import given, strategies as st

from setdev.finset import (
    FiniteSet,
    Mapping,
    Partition,
    Deviation,
    all_partitions,
    canonical_factorization,
    classify,
    deviation,
    deviation_leq,
    discrete,
    elements,
    image,
    indiscrete,
    kernel_partition,
    partition_leq,
)
from setdev.powerset import direct_image_map, kappa, preimage_map, restrict_preimage_to_image
from setdev.verifier import enumerate_mappings, mappings, size_triples


def m(nx, ny, table):
    return Mapping(FiniteSet(nx), FiniteSet(ny), tuple(table))


# --- carriers and validation -------------------------------------------------


def test_finite_set_rejects_negative_size():
    with pytest.raises(ValueError):
        FiniteSet(-1)


def test_subset_bounds():
    # A subset is a bare bitmask; a deviation range-checks its missed set.
    assert elements(0b101) == (0, 2)
    assert elements(0) == ()
    part, base = discrete(FiniteSet(2)), FiniteSet(3)
    assert Deviation(part, base, 0b111).missed == 0b111
    for missed in (1 << 3, 0b1001, -1):
        with pytest.raises(ValueError, match="outside the codomain"):
            Deviation(part, base, missed)


def test_partition_validation():
    for blocks, reason in [
        ((True, 0b110), "int bitmasks"),  # True == 1, but a bool is not a bitmask
        ((0b011, 0b100, 0), "nonempty"),
        ((0b011, 0b110), "disjoint"),
        ((0b100, 0b011), "ordered"),
        ((0b011, 0b1100), "cover"),  # a bit outside the carrier
        ((0b011,), "cover"),
    ]:
        with pytest.raises(ValueError, match=reason):
            Partition(FiniteSet(3), blocks)


def test_partition_blocks_are_masks_in_canonical_order():
    part = Partition(FiniteSet(3), (0b011, 0b100))
    assert part.to_lists() == [[0, 1], [2]]
    assert discrete(FiniteSet(3)).blocks == (0b001, 0b010, 0b100)
    assert indiscrete(FiniteSet(3)).blocks == (0b111,)
    assert kernel_partition(m(4, 3, [2, 0, 2, 1])).blocks == (0b0101, 0b0010, 0b1000)


def test_discrete_partitions_leave_no_blocks_behind():
    # One discrete partition per mapping of the maps-sweep universe (5,705).
    # A tuple grown from a generator is resized, and once freed it stays in
    # CPython's free list for its length; a full collection empties the free
    # lists, so one runs only before the loop.
    gc.collect()
    before = sys.getallocatedblocks()
    for f in mappings(5):
        discrete(f.dom)
    assert sys.getallocatedblocks() - before < 1000


def test_empty_carrier_has_exactly_the_empty_partition():
    base = FiniteSet(0)
    parts = list(all_partitions(base))
    assert parts == [Partition(base, ())]
    assert discrete(base) == indiscrete(base) == parts[0]


def test_mapping_validation():
    with pytest.raises(ValueError):
        m(2, 2, [5, 0])
    with pytest.raises(ValueError):
        m(2, 2, [0])
    with pytest.raises(ValueError):
        m(1, 0, [0])
    # The range error names the first index out of range.
    with pytest.raises(ValueError, match=r"^table\[1\] = 5 is outside the codomain of size 2$"):
        m(3, 2, [0, 5, 7])
    with pytest.raises(ValueError, match=r"^table\[2\] = -1 "):
        m(3, 2, [0, 1, -1])  # negative entry
    with pytest.raises(ValueError, match=r"^table\[3\] = 3 "):
        m(4, 3, [0, 1, 2, 3])  # out of range only at the last index


def test_library_built_values_pass_the_checked_constructors():
    # These mappings and kernel partitions are built without __post_init__,
    # their validity following from valid inputs, so every one of them must
    # still pass the checks.
    def rebuilt(h):
        assert type(h.table) is tuple
        assert Mapping(h.dom, h.cod, h.table) == h
        part = kernel_partition(h)
        assert Partition(part.base, part.blocks) == part

    for f in mappings(4):  # enumerate_mappings, up to powerset base 4
        fact = canonical_factorization(f)
        pre = preimage_map(f)
        subset_maps = (direct_image_map(f), pre, restrict_preimage_to_image(f), kappa(pre))
        for h in (f, fact.proj, fact.mid, fact.incl, *subset_maps):
            rebuilt(h)
    for nx, ny, nz in size_triples(3):
        y = FiniteSet(ny)
        gs = list(enumerate_mappings(y, FiniteSet(nz)))
        for f in enumerate_mappings(FiniteSet(nx), y):
            for g in gs:
                rebuilt(f.then(g))


# --- image / kernel / factorization ------------------------------------------


def test_image_examples():
    assert image(Mapping.identity(FiniteSet(3))) == 0b111
    assert image(m(3, 2, [0, 0, 0])) == 0b001
    assert image(m(3, 3, [0, 0, 2])) == 0b101


def test_kernel_partition_examples():
    assert kernel_partition(Mapping.identity(FiniteSet(3))).to_lists() == [[0], [1], [2]]
    assert kernel_partition(m(3, 1, [0, 0, 0])).to_lists() == [[0, 1, 2]]
    assert kernel_partition(m(3, 3, [0, 0, 2])).to_lists() == [[0, 1], [2]]
    assert kernel_partition(m(0, 2, [])).to_lists() == []


def test_factorization_shapes():
    ident = Mapping.identity(FiniteSet(3))
    fact = canonical_factorization(ident)
    assert fact.proj.is_bijective() and fact.incl.is_bijective()

    fact = canonical_factorization(m(2, 2, [0, 0]))
    assert (fact.proj.dom.size, fact.proj.cod.size) == (2, 1)
    assert (fact.mid.dom.size, fact.mid.cod.size) == (1, 1)
    assert (fact.incl.dom.size, fact.incl.cod.size) == (1, 2)

    fact = canonical_factorization(m(3, 3, [0, 0, 2]))
    assert fact.proj.table == (0, 0, 1)
    assert fact.mid.table == (0, 1)
    assert fact.incl.table == (0, 2)


def test_factorization_exhaustive_small():
    for nx in range(4):
        for ny in range(4):
            for f in enumerate_mappings(FiniteSet(nx), FiniteSet(ny)):
                fact = canonical_factorization(f)
                assert fact.proj.is_surjective()
                assert fact.mid.is_bijective()
                assert fact.incl.is_injective()
                assert fact.recompose() == f


def test_factorization_projects_onto_the_kernel_partition():
    # proj is the surjection onto the kernel blocks in canonical order and
    # incl lists the image, so the factorization is the canonical one.
    for nx in range(4):
        for ny in range(4):
            for f in enumerate_mappings(FiniteSet(nx), FiniteSet(ny)):
                fact = canonical_factorization(f)
                fibres = [0] * fact.proj.cod.size
                for x, block in enumerate(fact.proj.table):
                    fibres[block] |= 1 << x
                assert tuple(fibres) == kernel_partition(f).blocks
                assert fact.incl.table == elements(image(f))


# --- deviation and classification ---------------------------------------------


def test_deviation_examples():
    dev = deviation(Mapping.identity(FiniteSet(3)))
    assert dev.part == discrete(FiniteSet(3)) and dev.missed == 0

    dev = deviation(m(3, 2, [0, 0, 0]))
    assert dev.part.to_lists() == [[0, 1, 2]] and dev.missed == 0b10

    dev = deviation(m(2, 3, [0, 2]))
    assert dev.part == discrete(FiniteSet(2)) and dev.missed == 0b010


def test_classification_examples():
    assert classify(Mapping.identity(FiniteSet(3))).flags() == (
        "injective",
        "surjective",
        "bijective",
    )
    assert classify(m(3, 2, [0, 0, 1])).flags() == ("surjective",)
    assert classify(m(2, 2, [1, 1])).flags() == ("constant",)


def test_empty_mapping_classification():
    # The empty mapping is injective and vacuously constant; it is surjective
    # (hence bijective) only onto the empty codomain.
    assert classify(m(0, 0, [])).flags() == ("injective", "surjective", "bijective", "constant")
    assert classify(m(0, 2, [])).flags() == ("injective", "constant")


# --- orders ---------------------------------------------------------------------


def test_partition_leq_examples():
    base = FiniteSet(3)
    top = indiscrete(base)
    for p in all_partitions(base):
        assert partition_leq(discrete(base), p)
        assert partition_leq(p, top)
    p = Partition(base, (0b011, 0b100))
    q = Partition(base, (0b001, 0b110))
    assert not partition_leq(p, q)
    assert not partition_leq(q, p)


@pytest.mark.parametrize("n", range(6))
def test_partition_leq_matches_literal_refinement(n):
    parts = list(all_partitions(FiniteSet(n)))
    blocks = [[set(b) for b in p.to_lists()] for p in parts]
    for p, p_blocks in zip(parts, blocks):
        for q, q_blocks in zip(parts, blocks):
            refines = all(any(a <= b for b in q_blocks) for a in p_blocks)
            assert partition_leq(p, q) == refines


def test_partition_leq_base_mismatch():
    with pytest.raises(ValueError):
        partition_leq(discrete(FiniteSet(2)), discrete(FiniteSet(3)))


def test_deviation_leq_examples():
    x, y = FiniteSet(3), FiniteSet(3)
    bij = deviation(Mapping.identity(x))
    for g in enumerate_mappings(x, y):
        assert deviation_leq(bij, deviation(g))
    f = deviation(m(3, 2, [0, 0, 0]))
    assert deviation_leq(f, f)
    assert not deviation_leq(f, deviation(m(3, 2, [0, 1, 0])))
    assert deviation_leq(deviation(m(3, 2, [0, 1, 0])), f)


def test_deviation_leq_signature_mismatch():
    with pytest.raises(ValueError):
        deviation_leq(deviation(m(2, 2, [0, 1])), deviation(m(2, 3, [0, 1])))
    # The first partition does not refine the second, so only an explicit
    # codomain check can reject this pair.
    with pytest.raises(ValueError):
        deviation_leq(deviation(m(2, 2, [0, 0])), deviation(m(2, 3, [0, 1])))
    with pytest.raises(ValueError):
        deviation_leq(deviation(m(2, 2, [0, 1])), deviation(m(3, 2, [0, 1, 1])))


def test_rho_examples():
    # rho(f) is the middle bijection of the canonical factorization.
    bij = m(3, 3, [2, 0, 1])
    r = canonical_factorization(bij).mid
    assert r.is_bijective() and r.dom.size == 3
    assert canonical_factorization(m(3, 2, [0, 0, 0])).mid.dom.size == 1
    assert canonical_factorization(m(3, 3, [0, 0, 2])).mid.dom.size == 2


# --- properties -----------------------------------------------------------------


def test_bell_numbers():
    counts = [sum(1 for _ in all_partitions(FiniteSet(n))) for n in range(6)]
    assert counts == [1, 1, 2, 5, 15, 52]


@st.composite
def partitions(draw, max_size=5):
    n = draw(st.integers(min_value=0, max_value=max_size))
    base = FiniteSet(n)
    if n == 0:
        return Partition(base, ())
    rgs = [0]
    for _ in range(n - 1):
        rgs.append(draw(st.integers(min_value=0, max_value=max(rgs) + 1)))
    # Block v first appears at its least element, so masks come in canonical order.
    masks = [0] * (max(rgs) + 1)
    for x, v in enumerate(rgs):
        masks[v] |= 1 << x
    return Partition(base, tuple(masks))


@given(partitions())
def test_partition_leq_reflexive(p):
    assert partition_leq(p, p)


@given(st.data())
def test_partition_leq_antisymmetric_and_transitive(data):
    n = data.draw(st.integers(min_value=0, max_value=4))
    base = FiniteSet(n)
    pool = list(all_partitions(base))
    p = data.draw(st.sampled_from(pool))
    q = data.draw(st.sampled_from(pool))
    r = data.draw(st.sampled_from(pool))
    if partition_leq(p, q) and partition_leq(q, p):
        assert p == q
    if partition_leq(p, q) and partition_leq(q, r):
        assert partition_leq(p, r)


@given(st.data())
def test_kernel_partition_blocks_are_fibres(data):
    nx = data.draw(st.integers(min_value=0, max_value=5))
    ny = data.draw(st.integers(min_value=1, max_value=5))
    table = tuple(data.draw(st.integers(min_value=0, max_value=ny - 1)) for _ in range(nx))
    f = m(nx, ny, table)
    part = kernel_partition(f)
    for values in part.to_lists():
        assert len({f.table[x] for x in values}) == 1
    assert sum(b.bit_count() for b in part.blocks) == nx


def test_json_round_trip():
    f = m(3, 2, [0, 0, 1])
    assert Mapping.from_json_dict(f.to_json_dict()) == f
    with pytest.raises(ValueError):
        Mapping.from_json_dict({"dom": 2, "table": [0, 0]})
