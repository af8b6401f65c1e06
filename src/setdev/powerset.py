"""Powerset carriers and the subset-level maps a mapping induces.

A subset's bitmask doubles as its index in the powerset carrier, so index 0
is the empty set and the carrier of P(X) is the finite set of size 2**|X|.
Every map on a powerset is tabulated in full, so bases are capped at
MAX_BASE elements. Each entry of a subset map is a union of masks of the
mapping's values or fibres, so the maps are built without re-checking
their tables.
"""

from __future__ import annotations

from .finset import FiniteSet, Mapping, _finite_set, _mapping, discrete

# A table over P(X) has 2**|X| entries; 4096 keeps every sweep tractable.
MAX_BASE = 12
_POWER_SETS = tuple(FiniteSet(1 << n) for n in range(MAX_BASE + 1))


def power_set(base: FiniteSet) -> FiniteSet:
    """The carrier of P(base), indexed by subset bitmask."""
    if base.size > MAX_BASE:
        raise ValueError(f"powerset over {base.size} elements exceeds the bound {MAX_BASE}")
    return _POWER_SETS[base.size]


# _OR[mask][v] is v | mask, for masks below 256, each table built on first use.
_OR: dict[int, bytes] = {}


def _unions(masks: list[int]) -> tuple[int, ...]:
    """table[s] is the OR of masks[i] over the bits i of s."""
    if max(masks, default=0) < 256:
        # Bases up to 8: each doubling ORs mask into the table so far by one translate.
        table = b"\0"
        for mask in masks:
            if mask not in _OR:
                _OR[mask] = bytes([v | mask for v in range(256)])
            table += table.translate(_OR[mask])
        return tuple(table)
    table = [0]
    for mask in masks:
        table += [t | mask for t in table]
    return tuple(table)


def _fibres(f: Mapping) -> list[int]:
    """fibres[y] is the bitmask of the x with f(x) = y."""
    fibres = [0] * f.cod.size
    for x, y in enumerate(f.table):
        fibres[y] |= 1 << x
    return fibres


def direct_image_map(f: Mapping) -> Mapping:
    """Subset-level extension of f: encoded A goes to encoded f(A).

    Sends the empty set to the empty set and nothing else to it, since f is
    total.
    """
    return _mapping(power_set(f.dom), power_set(f.cod), _unions([1 << y for y in f.table]))


def preimage_map(f: Mapping) -> Mapping:
    """Subset-level inverse of f: encoded U goes to encoded preimage of U."""
    return _mapping(power_set(f.cod), power_set(f.dom), _unions(_fibres(f)))


def restrict_preimage_to_image(f: Mapping) -> Mapping:
    """Preimage map restricted to subsets of the image of f.

    The domain is the powerset carrier of the image (as its own canonical
    carrier); the restriction is injective for every f, because taking the
    image is a one-sided inverse on subsets of the image.
    """
    cod = power_set(f.dom)  # checks the base; the image is no larger
    # The nonempty fibres, in element order, are those of the image.
    fibres = [fibre for fibre in _fibres(f) if fibre]
    return _mapping(_POWER_SETS[len(fibres)], cod, _unions(fibres))


def iota(base: FiniteSet) -> Mapping:
    """Identification of each element with its singleton block.

    The discrete partition lists singletons in element order, so the map is
    the identity on indices; it exists as a named map so that statements
    identifying a carrier with its discrete partition are literally testable.
    """
    blocks = discrete(base).blocks
    return Mapping(base, FiniteSet(len(blocks)), tuple(range(base.size)))


def kappa(pre: Mapping) -> Mapping:
    """Identification of P(image f) with the kernel blocks of pre = preimage_map(f).

    Two subsets of the codomain have the same preimage exactly when they cut
    the image identically, so the class of U is reached from V = U n image(f);
    kappa sends encoded V to the index of that class; image(f) is the set of
    y whose singleton has a nonempty preimage. Kernel blocks are ordered by
    least element, so a block's index is the order in which its preimage
    value first occurs in the preimage table. It is a bijection for every f.

    Raises ValueError unless both carriers are powersets, the singletons
    pull back to disjoint sets covering the domain of f and every subset
    pulls back to the union of its singletons' preimages, as under a
    preimage map.
    """
    size, cod_size = pre.dom.size, pre.cod.size
    if size.bit_count() != 1 or cod_size.bit_count() != 1:
        raise ValueError("kappa: not a preimage map, a carrier is no powerset")
    if size > 1 << MAX_BASE:  # the image of f is no larger than its codomain, this base
        raise ValueError(f"kappa: powerset over more than {MAX_BASE} elements exceeds the bound")
    singles = [pre.table[1 << y] for y in range(size.bit_length() - 1)]
    covered = 0
    for single in singles:
        if single & covered:
            raise ValueError("kappa: not a preimage map, two singletons pull back to meeting sets")
        covered |= single
    if covered != cod_size - 1:
        raise ValueError("kappa: not a preimage map, the singletons' preimages miss part of the domain")
    # A union of no preimages is empty, so this also sends the empty set to itself.
    if pre.table != _unions(singles):
        raise ValueError("kappa: not a preimage map, a subset's preimage is not the union of its elements'")
    # The nonempty preimages of singletons are the fibres over the image, in
    # element order, so their union table lists the preimages of its subsets.
    fibres = [single for single in singles if single]
    block_of = {v: i for i, v in enumerate(dict.fromkeys(pre.table))}
    # From a list, not a generator: tuples grown by resizing pile up in the free lists.
    table = tuple([block_of[v] for v in _unions(fibres)])
    return _mapping(_POWER_SETS[len(fibres)], _finite_set(len(block_of)), table)
