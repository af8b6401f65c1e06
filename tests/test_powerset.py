import pytest
from hypothesis import example, given, strategies as st

from setdev.finset import FiniteSet, Mapping, image, kernel_partition
from setdev.powerset import (
    _unions,
    direct_image_map,
    iota,
    kappa,
    power_set,
    preimage_map,
    restrict_preimage_to_image,
)
from setdev.verifier import VERDICT_VERIFIED, Universe, check_claim, enumerate_mappings


def m(nx, ny, table):
    return Mapping(FiniteSet(nx), FiniteSet(ny), tuple(table))


def test_power_set_sizes():
    assert power_set(FiniteSet(0)).size == 1
    assert power_set(FiniteSet(3)).size == 8
    assert power_set(FiniteSet(4)).size == 16


def test_power_set_bound():
    with pytest.raises(ValueError):
        power_set(FiniteSet(13))
    # The identity on 13 elements and its preimage map, built by hand: the
    # powerset of the image, the domain of each result, is past the bound.
    with pytest.raises(ValueError, match="exceeds the bound"):
        restrict_preimage_to_image(Mapping.identity(FiniteSet(13)))
    n = 1 << 13
    with pytest.raises(ValueError, match="exceeds the bound"):
        kappa(Mapping(FiniteSet(n), FiniteSet(n), tuple(range(n))))


@given(st.lists(st.integers(0, 255) | st.integers(256, 4095), max_size=8))
@example([255] * 8)
@example([0, 256, 1, 4095])
def test_unions_is_the_or_over_the_bits_of_each_subset(masks):
    # Tables of masks below 256 are built in bytes, any others in a list.
    table = _unions(masks)
    assert type(table) is tuple and len(table) == 1 << len(masks)
    for s, value in enumerate(table):
        union = 0
        for i, mask in enumerate(masks):
            if s >> i & 1:
                union |= mask
        assert value == union


def test_direct_image_examples():
    ident = Mapping.identity(FiniteSet(2))
    assert direct_image_map(ident).table == (0, 1, 2, 3)
    const = m(2, 2, [0, 0])
    assert direct_image_map(const).table == (0, 1, 1, 1)
    for nx in range(4):
        for ny in range(4):
            for f in enumerate_mappings(FiniteSet(nx), FiniteSet(ny)):
                tilde = direct_image_map(f)
                assert tilde.table[0] == 0
                assert all(v != 0 for v in tilde.table[1:])


def test_preimage_examples():
    const = m(2, 2, [0, 0])
    assert preimage_map(const).table == (0, 3, 0, 3)
    for nx in range(4):
        for ny in range(4):
            for f in enumerate_mappings(FiniteSet(nx), FiniteSet(ny)):
                pre = preimage_map(f)
                assert pre.table[0] == 0
                assert pre.table[-1] == (1 << nx) - 1
    bij = m(3, 3, [2, 0, 1])
    assert preimage_map(bij).is_bijective()


def test_restriction_examples():
    surj = m(3, 2, [0, 0, 1])
    assert restrict_preimage_to_image(surj) == preimage_map(surj)
    const = m(2, 2, [0, 0])
    restricted = restrict_preimage_to_image(const)
    assert restricted.dom.size == 2
    assert restricted.table == (0, 3)
    for nx in range(4):
        for ny in range(4):
            for f in enumerate_mappings(FiniteSet(nx), FiniteSet(ny)):
                assert restrict_preimage_to_image(f).is_injective()


def _subsets(n):
    """P({0..n-1}) as Python sets, listed in powerset-carrier index order."""
    return [{x for x in range(n) if a >> x & 1} for a in range(1 << n)]


def test_subset_maps_match_their_set_definitions():
    for nx in range(4):
        for ny in range(4):
            px, py = _subsets(nx), _subsets(ny)
            for f in enumerate_mappings(FiniteSet(nx), FiniteSet(ny)):
                apply = dict(enumerate(f.table))
                direct = [py.index({apply[x] for x in a}) for a in px]
                assert direct_image_map(f) == m(len(px), len(py), direct)
                pre = [px.index({x for x in range(nx) if apply[x] in u}) for u in py]
                assert preimage_map(f) == m(len(py), len(px), pre)

                img = sorted(set(f.table))
                # Subsets of the image, indexed over the image's own carrier.
                pimg = [{img[j] for j in v} for v in _subsets(len(img))]
                restricted = [px.index({x for x in range(nx) if apply[x] in v}) for v in pimg]
                assert restrict_preimage_to_image(f) == m(len(pimg), len(px), restricted)

                # Kernel classes of the preimage map, numbered by least member.
                classes = []
                for u in py:
                    fibre = {x for x in range(nx) if apply[x] in u}
                    if fibre not in classes:
                        classes.append(fibre)
                ka = [classes.index({x for x in range(nx) if apply[x] in v}) for v in pimg]
                assert kappa(preimage_map(f)) == m(len(pimg), len(classes), ka)


def test_iota():
    assert iota(FiniteSet(1)).table == (0,)
    assert iota(FiniteSet(3)).table == (0, 1, 2)
    assert iota(FiniteSet(3)).is_bijective()


def test_kappa_surjective_is_identity_shaped():
    surj = m(3, 2, [0, 0, 1])
    ka = kappa(preimage_map(surj))
    assert ka.dom.size == 4 and ka.cod.size == 4
    assert ka.is_bijective()
    # Kernel classes of the preimage map are singletons, indexed like P(Y).
    assert kernel_partition(preimage_map(surj)).to_lists() == [[0], [1], [2], [3]]


def test_kappa_constant_two_blocks():
    const = m(2, 2, [0, 0])
    ka = kappa(preimage_map(const))
    assert ka.dom.size == 2 and ka.cod.size == 2
    assert ka.table == (0, 1)
    assert kernel_partition(preimage_map(const)).to_lists() == [[0, 2], [1, 3]]


def test_kappa_bijective_full_size():
    bij = m(3, 3, [1, 2, 0])
    ka = kappa(preimage_map(bij))
    assert ka.dom.size == 8 and ka.cod.size == 8 and ka.is_bijective()


@pytest.mark.parametrize(
    "pre",
    [
        Mapping.identity(FiniteSet(3)),  # carriers of no powerset
        m(0, 1, []),  # no entry for the empty subset
        m(2, 2, [1, 1]),  # the empty subset pulls back to {0}
        m(4, 4, [0, 1, 1, 1]),  # the singletons {0} and {1} pull back to overlapping sets
        m(2, 4, [0, 1]),  # the one singleton pulls back to {0}, which misses 1
        m(4, 4, [0, 1, 2, 0]),  # {0, 1} pulls back to the empty set, not to {0, 1}
    ],
    ids=["identity-3", "empty", "empty-subset", "overlap", "no-cover", "no-union"],
)
def test_kappa_refuses_what_is_no_preimage_map(pre):
    with pytest.raises(ValueError, match="not a preimage map"):
        kappa(pre)


@pytest.mark.parametrize("claim_id", ["L3.3a", "L3.3b"])
def test_kappa_guard_passes_every_preimage_map_of_the_sweeps(claim_id):
    report = check_claim(claim_id, Universe(max_powerset_base=4))
    assert (report.verdict, report.witness, report.instances) == (VERDICT_VERIFIED, None, 499)


@given(st.data())
def test_subset_grows_under_preimage_of_image(data):
    nx = data.draw(st.integers(min_value=0, max_value=5))
    ny = data.draw(st.integers(min_value=1, max_value=5))
    table = tuple(data.draw(st.integers(min_value=0, max_value=ny - 1)) for _ in range(nx))
    f = m(nx, ny, table)
    tilde = direct_image_map(f)
    pre = preimage_map(f)
    a = data.draw(st.integers(min_value=0, max_value=(1 << nx) - 1))
    assert a & ~pre.table[tilde.table[a]] == 0


@given(st.data())
def test_image_retracts_preimage_on_image_subsets(data):
    nx = data.draw(st.integers(min_value=0, max_value=5))
    ny = data.draw(st.integers(min_value=1, max_value=5))
    table = tuple(data.draw(st.integers(min_value=0, max_value=ny - 1)) for _ in range(nx))
    f = m(nx, ny, table)
    tilde = direct_image_map(f)
    pre = preimage_map(f)
    img = image(f)
    v = data.draw(st.integers(min_value=0, max_value=(1 << ny) - 1)) & img
    assert tilde.table[pre.table[v]] == v
