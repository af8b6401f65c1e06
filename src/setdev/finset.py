"""Finite sets, mappings, partitions, and deviations from bijectivity.

The carrier of a finite set of size n is the integers 0..n-1. All values
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

Values are slotted tuples, so building, comparing and hashing them runs in
C. Public constructors and literals keep every check, run once in
``__new__``, which ``_make`` and ``_replace`` also reach; the library's own
constructions whose validity follows from valid inputs (enumerated tables,
composites, factorizations, kernel partitions, subset maps) skip them through
``_finite_set``, ``_mapping`` and ``_partition``, which build the tuple alone.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator


def _is_int(value: object) -> bool:
    # bool is an int subclass and 2.0 == 2, but JSON true and 2.0 are not integer literals.
    return type(value) is int


def elements(mask: int) -> tuple[int, ...]:
    """The elements of the subset with bitmask mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class FiniteSet(namedtuple("FiniteSet", "size")):
    """Canonical carrier {0, ..., size-1}."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, size: int) -> FiniteSet:
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        return tuple.__new__(cls, (size,))


def _finite_set(size: int) -> FiniteSet:
    """A FiniteSet whose size is a count, so never negative, without its check."""
    return tuple.__new__(FiniteSet, (size,))


class Partition(namedtuple("Partition", "base blocks")):
    """Partition of a finite carrier into nonempty disjoint covering blocks.

    Blocks are int bitmasks in canonical order (ascending minimum element),
    so partition equality is plain structural equality. The empty carrier
    has exactly one partition: the empty one.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, base: FiniteSet, blocks: tuple[int, ...]) -> Partition:
        seen = prev_low = 0
        for blk in blocks:
            if type(blk) is not int or blk <= 0:
                raise ValueError("blocks must be nonempty int bitmasks")
            if blk & seen:
                raise ValueError("blocks must be pairwise disjoint")
            low = blk & -blk
            if low <= prev_low:
                raise ValueError("blocks must be ordered by minimum element")
            prev_low = low
            seen |= blk
        if seen != (1 << base.size) - 1:
            raise ValueError("blocks must cover the carrier and nothing outside it")
        return tuple.__new__(cls, (base, blocks))

    def to_lists(self) -> list[list[int]]:
        return [list(elements(blk)) for blk in self.blocks]


def _partition(base: FiniteSet, blocks: tuple[int, ...]) -> Partition:
    """A Partition whose blocks are valid by construction, without its checks."""
    return tuple.__new__(Partition, (base, blocks))


def discrete(base: FiniteSet) -> Partition:
    """The all-singletons partition (bottom of the refinement order)."""
    return Partition(base, tuple([1 << x for x in range(base.size)]))


def indiscrete(base: FiniteSet) -> Partition:
    """The single-block partition (top of the refinement order).

    On the empty carrier this is the empty partition, which is also the
    discrete one: the refinement order on partitions of the empty set is
    trivial.
    """
    if base.size == 0:
        return Partition(base, ())
    return Partition(base, ((1 << base.size) - 1,))


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
            yield Partition(base, tuple(masks))
            return
        for v in range(mx + 2):
            s[i] = v
            yield from rec(i + 1, max(mx, v))

    yield from rec(1, 0)


class Mapping(namedtuple("Mapping", "dom cod table")):
    """Total mapping between finite carriers, tabulated on the domain."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, dom: FiniteSet, cod: FiniteSet, table: tuple[int, ...]) -> Mapping:
        f = tuple.__new__(cls, (dom, cod, table))
        f.__post_init__()  # the checks, a hook of their own: perfbench counts its calls
        return f

    def __post_init__(self) -> None:
        table, size = self.table, self.cod.size
        if len(table) != self.dom.size:
            raise ValueError("table length must equal the domain size")
        # min and max scan in C; the walk only names the first bad index.
        if table and (min(table) < 0 or max(table) >= size):
            x, y = next((x, y) for x, y in enumerate(table) if not 0 <= y < size)
            raise ValueError(f"table[{x}] = {y} is outside the codomain of size {size}")

    @classmethod
    def identity(cls, base: FiniteSet) -> Mapping:
        return cls(base, base, tuple(range(base.size)))

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

    def then(self, other: Mapping) -> Mapping:
        """Diagrammatic composite: first self, then other."""
        if self.cod != other.dom:
            raise ValueError("composite needs matching middle carrier")
        table = other.table
        return _mapping(self.dom, other.cod, tuple([table[y] for y in self.table]))

    def is_injective(self) -> bool:
        return len(set(self.table)) == len(self.table)

    def is_surjective(self) -> bool:
        return len(set(self.table)) == self.cod.size

    def is_bijective(self) -> bool:
        return len(self.table) == self.cod.size == len(set(self.table))


def _mapping(dom: FiniteSet, cod: FiniteSet, table: tuple[int, ...]) -> Mapping:
    """A Mapping whose table is in range by construction, without __post_init__."""
    return tuple.__new__(Mapping, (dom, cod, table))


class Deviation(namedtuple("Deviation", "part cod missed")):
    """How far a mapping is from a bijection.

    ``part`` partitions the domain into fibres (trivial iff injective) and
    ``missed`` is the bitmask of the elements of ``cod`` with empty fibre
    (zero iff surjective).
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, part: Partition, cod: FiniteSet, missed: int) -> Deviation:
        if not 0 <= missed < (1 << cod.size):
            raise ValueError("missed set has bits outside the codomain")
        return tuple.__new__(cls, (part, cod, missed))


class Factorization(namedtuple("Factorization", "proj mid incl")):
    """Surjection-bijection-injection factorization of a mapping.

    ``proj`` collapses the domain onto the blocks of the kernel partition,
    ``mid`` is the induced bijection from blocks to image elements, and
    ``incl`` includes the image back into the codomain. Composing the three
    recovers the original mapping.
    """

    __slots__ = ()

    def recompose(self) -> Mapping:
        return self.proj.then(self.mid).then(self.incl)


class Classification(namedtuple("Classification", "injective surjective bijective constant")):
    __slots__ = ()

    def flags(self) -> tuple[str, ...]:
        return tuple(n for n, v in zip(self._fields, self) if v)


def image(f: Mapping) -> int:
    """The bitmask of the values of f."""
    bits = 0
    for y in f.table:
        bits |= 1 << y
    return bits


def kernel_partition(f: Mapping) -> Partition:
    """Partition of the domain into the nonempty fibres of f."""
    fibres: dict[int, int] = {}
    for x, y in enumerate(f.table):
        fibres[y] = fibres.get(y, 0) | (1 << x)
    # A fibre enters the dict at its least element, so insertion order is
    # already the canonical block order and needs no sort; fibres are
    # nonempty, disjoint and cover the domain.
    return _partition(f.dom, tuple(fibres.values()))


def canonical_factorization(f: Mapping) -> Factorization:
    # Kernel blocks are ordered by least element, so block i is the fibre of
    # the i-th distinct value of the table in order of first occurrence.
    block_of = {y: i for i, y in enumerate(dict.fromkeys(f.table))}
    img = tuple(sorted(block_of))
    positions = {y: j for j, y in enumerate(img)}

    quotient = _finite_set(len(block_of))
    img_set = _finite_set(len(img))

    proj = _mapping(f.dom, quotient, tuple([block_of[y] for y in f.table]))
    mid = _mapping(quotient, img_set, tuple([positions[y] for y in block_of]))
    incl = _mapping(img_set, f.cod, img)
    return Factorization(proj, mid, incl)


def deviation(f: Mapping) -> Deviation:
    return Deviation(kernel_partition(f), f.cod, image(f) ^ ((1 << f.cod.size) - 1))


def classify(dev: Deviation) -> Classification:
    """Read the four classification flags off a mapping's deviation.

    Injective iff the kernel partition is discrete, surjective iff nothing
    is missed, constant iff the kernel partition is the single-block one
    (vacuously so on the empty domain).
    """
    injective = all(blk & (blk - 1) == 0 for blk in dev.part.blocks)
    surjective = dev.missed == 0
    constant = len(dev.part.blocks) <= 1
    return Classification(injective, surjective, injective and surjective, constant)


def partition_leq(p: Partition, q: Partition) -> bool:
    """Refinement order: p <= q iff every block of p sits inside a block of q."""
    if p.base != q.base:
        raise ValueError("partitions of different carriers are not comparable")
    # Each block of p must sit inside the block of q holding its least element.
    for blk in p.blocks:
        low = blk & -blk
        for held in q.blocks:
            if held & low:
                if blk & ~held:
                    return False
                break
    return True


def deviation_leq(d: Deviation, e: Deviation) -> bool:
    """Compare two deviations of mappings sharing a signature.

    True iff the kernel partition of d refines that of e and d misses no
    codomain element that e reaches.
    """
    # Checked up front: a failed refinement would skip the codomain check.
    if d.part.base != e.part.base or d.cod != e.cod:
        raise ValueError("deviations compare only across a shared domain and codomain")
    return partition_leq(d.part, e.part) and d.missed & ~e.missed == 0
