"""Finite sets, mappings, partitions, and deviations from bijectivity.

The carrier of a finite set of size n is canonically the integers 0..n-1;
optional labels are presentation-only and never enter equality. All values
are immutable and every operation is a pure function of its inputs, so
values can be shared and evaluated concurrently without coordination.

A mapping f deviates from being a bijection in exactly two ways: it can
glue domain elements together (failure of injectivity, recorded by the
kernel partition of f) and it can miss codomain elements (failure of
surjectivity, recorded by the complement of the image). The pair of the
two is the deviation of f, and every mapping factors as

    surjection onto the kernel partition
    -> bijection onto the image
    -> inclusion into the codomain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator


def _is_int(value: object) -> bool:
    # bool is an int subclass and 2.0 == 2, but JSON true and 2.0 are not integer literals.
    return type(value) is int


@dataclass(frozen=True)
class FiniteSet:
    """Canonical carrier {0, ..., size-1} with optional display labels."""

    size: int
    labels: tuple[str, ...] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"size must be non-negative, got {self.size}")
        if self.labels is not None:
            if len(self.labels) != self.size:
                raise ValueError("need exactly one label per element")
            if len(set(self.labels)) != len(self.labels):
                raise ValueError("labels must be pairwise distinct")

    def elements(self) -> range:
        return range(self.size)

    def label(self, x: int) -> str:
        return self.labels[x] if self.labels is not None else str(x)


@dataclass(frozen=True)
class SubsetOf:
    """Subset of a finite carrier, stored as a bitmask over element indices."""

    base: FiniteSet
    bits: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.bits < (1 << self.base.size):
            raise ValueError("bitmask sets bits outside the carrier")

    @classmethod
    def of(cls, base: FiniteSet, elems: Iterable[int]) -> SubsetOf:
        bits = 0
        for x in elems:
            if not 0 <= x < base.size:
                raise ValueError(f"element {x} outside carrier of size {base.size}")
            bits |= 1 << x
        return cls(base, bits)

    @classmethod
    def full(cls, base: FiniteSet) -> SubsetOf:
        return cls(base, (1 << base.size) - 1)

    def __contains__(self, x: int) -> bool:
        return 0 <= x < self.base.size and self.bits >> x & 1 == 1

    def __len__(self) -> int:
        return self.bits.bit_count()

    def elements(self) -> tuple[int, ...]:
        return tuple(x for x in range(self.base.size) if self.bits >> x & 1)

    def complement(self) -> SubsetOf:
        return SubsetOf(self.base, self.bits ^ ((1 << self.base.size) - 1))

    def issubset(self, other: SubsetOf) -> bool:
        if self.base != other.base:
            raise ValueError("subsets of different carriers are not comparable")
        return self.bits & ~other.bits == 0

    def to_list(self) -> list[int]:
        return list(self.elements())


@dataclass(frozen=True)
class Partition:
    """Partition of a finite carrier into nonempty disjoint covering blocks.

    Blocks are kept in canonical order (ascending minimum element), so
    partition equality is plain structural equality. The empty carrier has
    exactly one partition: the empty one.
    """

    base: FiniteSet
    blocks: tuple[SubsetOf, ...]

    def __post_init__(self) -> None:
        seen = 0
        prev_min = -1
        for blk in self.blocks:
            if blk.base != self.base:
                raise ValueError("block carrier differs from partition carrier")
            if blk.bits == 0:
                raise ValueError("blocks must be nonempty")
            if blk.bits & seen:
                raise ValueError("blocks must be pairwise disjoint")
            lo = (blk.bits & -blk.bits).bit_length() - 1
            if lo <= prev_min:
                raise ValueError("blocks must be ordered by minimum element")
            prev_min = lo
            seen |= blk.bits
        if seen != (1 << self.base.size) - 1:
            raise ValueError("blocks must cover the carrier")

    @classmethod
    def of(cls, base: FiniteSet, blocks: Iterable[Iterable[int]]) -> Partition:
        subs = sorted(
            (SubsetOf.of(base, blk) for blk in blocks),
            key=lambda s: s.bits & -s.bits,
        )
        return cls(base, tuple(subs))

    def block_index(self, x: int) -> int:
        for i, blk in enumerate(self.blocks):
            if x in blk:
                return i
        raise ValueError(f"element {x} outside carrier of size {self.base.size}")

    def to_lists(self) -> list[list[int]]:
        return [blk.to_list() for blk in self.blocks]


def discrete(base: FiniteSet) -> Partition:
    """The all-singletons partition (bottom of the refinement order)."""
    return Partition(base, tuple(SubsetOf(base, 1 << x) for x in range(base.size)))


def indiscrete(base: FiniteSet) -> Partition:
    """The single-block partition (top of the refinement order).

    On the empty carrier this is the empty partition, which is also the
    discrete one: the refinement order on partitions of the empty set is
    trivial.
    """
    if base.size == 0:
        return Partition(base, ())
    return Partition(base, (SubsetOf.full(base),))


def all_partitions(base: FiniteSet) -> Iterator[Partition]:
    """All partitions of the carrier, in restricted-growth-string order."""
    n = base.size
    if n == 0:
        yield Partition(base, ())
        return
    s = [0] * n

    def rec(i: int, mx: int) -> Iterator[Partition]:
        if i == n:
            nblocks = mx + 1
            masks = [0] * nblocks
            for x, v in enumerate(s):
                masks[v] |= 1 << x
            yield Partition(base, tuple(SubsetOf(base, m) for m in masks))
            return
        for v in range(mx + 2):
            s[i] = v
            yield from rec(i + 1, max(mx, v))

    yield from rec(1, 0)


@dataclass(frozen=True)
class Mapping:
    """Total mapping between finite carriers, tabulated on the domain."""

    dom: FiniteSet
    cod: FiniteSet
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.table) != self.dom.size:
            raise ValueError("table length must equal the domain size")
        for x, y in enumerate(self.table):
            if not 0 <= y < self.cod.size:
                raise ValueError(
                    f"table[{x}] = {y} is outside the codomain of size {self.cod.size}"
                )

    @classmethod
    def identity(cls, base: FiniteSet) -> Mapping:
        return cls(base, base, tuple(range(base.size)))

    @classmethod
    def constant(cls, dom: FiniteSet, cod: FiniteSet, value: int) -> Mapping:
        return cls(dom, cod, (value,) * dom.size)

    @classmethod
    def from_json_dict(cls, data: dict) -> Mapping:
        if not isinstance(data, dict) or set(data) != {"dom", "cod", "table"}:
            raise ValueError('mapping literal needs exactly the keys "dom", "cod", "table"')
        table = data["table"]
        if not (
            _is_int(data["dom"])
            and _is_int(data["cod"])
            and isinstance(table, list)
            and all(_is_int(v) for v in table)
        ):
            raise ValueError('mapping literal needs integer "dom" and "cod" and a list of integers as "table"')
        return cls(FiniteSet(data["dom"]), FiniteSet(data["cod"]), tuple(table))

    def to_json_dict(self) -> dict:
        return {"dom": self.dom.size, "cod": self.cod.size, "table": list(self.table)}

    def __call__(self, x: int) -> int:
        return self.table[x]

    def then(self, other: Mapping) -> Mapping:
        """Diagrammatic composite: first self, then other."""
        if self.cod != other.dom:
            raise ValueError("composite needs matching middle carrier")
        return Mapping(self.dom, other.cod, tuple(other.table[y] for y in self.table))

    def is_injective(self) -> bool:
        return len(set(self.table)) == len(self.table)

    def is_surjective(self) -> bool:
        return len(set(self.table)) == self.cod.size

    def is_bijective(self) -> bool:
        return self.is_injective() and self.is_surjective()

    def is_constant(self) -> bool:
        # Vacuously true on the empty domain.
        return len(set(self.table)) <= 1


@dataclass(frozen=True)
class Deviation:
    """How far a mapping is from a bijection.

    ``part`` partitions the domain into fibres (trivial iff injective) and
    ``missed`` is the set of codomain elements with empty fibre (empty iff
    surjective).
    """

    part: Partition
    missed: SubsetOf


@dataclass(frozen=True)
class Factorization:
    """Surjection-bijection-injection factorization of a mapping.

    ``proj`` collapses the domain onto the blocks of the kernel partition,
    ``mid`` is the induced bijection from blocks to image elements, and
    ``incl`` includes the image back into the codomain. Composing the three
    recovers the original mapping.
    """

    proj: Mapping
    mid: Mapping
    incl: Mapping

    def recompose(self) -> Mapping:
        return self.proj.then(self.mid).then(self.incl)


@dataclass(frozen=True)
class Classification:
    injective: bool
    surjective: bool
    bijective: bool
    constant: bool

    def flags(self) -> tuple[str, ...]:
        names = ("injective", "surjective", "bijective", "constant")
        values = (self.injective, self.surjective, self.bijective, self.constant)
        return tuple(n for n, v in zip(names, values) if v)


def image(f: Mapping) -> SubsetOf:
    bits = 0
    for y in f.table:
        bits |= 1 << y
    return SubsetOf(f.cod, bits)


def kernel_partition(f: Mapping) -> Partition:
    """Partition of the domain into the nonempty fibres of f."""
    fibres: dict[int, int] = {}
    for x, y in enumerate(f.table):
        fibres[y] = fibres.get(y, 0) | (1 << x)
    masks = sorted(fibres.values(), key=lambda b: b & -b)
    return Partition(f.dom, tuple(SubsetOf(f.dom, m) for m in masks))


def canonical_factorization(f: Mapping) -> Factorization:
    part = kernel_partition(f)
    img = image(f).elements()
    positions = {y: j for j, y in enumerate(img)}

    block_of = [0] * f.dom.size
    for i, blk in enumerate(part.blocks):
        for x in blk.elements():
            block_of[x] = i

    block_labels = tuple(
        "{" + ",".join(f.dom.label(x) for x in blk.elements()) + "}" for blk in part.blocks
    )
    quotient = FiniteSet(len(part.blocks), labels=block_labels)
    img_set = FiniteSet(len(img), labels=tuple(f.cod.label(y) for y in img))

    proj = Mapping(f.dom, quotient, tuple(block_of))
    mid_table = tuple(positions[f.table[blk.elements()[0]]] for blk in part.blocks)
    mid = Mapping(quotient, img_set, mid_table)
    incl = Mapping(img_set, f.cod, img)
    return Factorization(proj, mid, incl)


def deviation(f: Mapping) -> Deviation:
    return Deviation(kernel_partition(f), image(f).complement())


def classify(f: Mapping) -> Classification:
    """Read the four classification flags off the deviation of f.

    Injective iff the kernel partition is discrete, surjective iff nothing
    is missed, constant iff the kernel partition is the single-block one
    (vacuously so on the empty domain).
    """
    dev = deviation(f)
    injective = all(len(blk) == 1 for blk in dev.part.blocks)
    surjective = dev.missed.bits == 0
    constant = len(dev.part.blocks) <= 1
    return Classification(injective, surjective, injective and surjective, constant)


def partition_leq(p: Partition, q: Partition) -> bool:
    """Refinement order: p <= q iff every block of p sits inside a block of q."""
    if p.base != q.base:
        raise ValueError("partitions of different carriers are not comparable")
    holding: dict[int, int] = {}
    for blk in q.blocks:
        for x in blk.elements():
            holding[x] = blk.bits
    for blk in p.blocks:
        lo = (blk.bits & -blk.bits).bit_length() - 1
        if blk.bits & ~holding[lo]:
            return False
    return True


def deviation_leq(f: Mapping, g: Mapping) -> bool:
    """Compare deviations of two mappings sharing a signature.

    True iff the kernel partition of f refines that of g and f misses no
    codomain element that g reaches.
    """
    if f.dom != g.dom or f.cod != g.cod:
        raise ValueError("deviations compare only across a shared domain and codomain")
    if not partition_leq(kernel_partition(f), kernel_partition(g)):
        return False
    return image(g).issubset(image(f))


def rho(f: Mapping) -> Mapping:
    """The bijection a mapping induces from its kernel blocks onto its image."""
    return canonical_factorization(f).mid
