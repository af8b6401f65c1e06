"""The claim registry: every law of the deviation calculus, made executable.

Each claim is a check declared with ``@claim`` on one of the domains below,
which fix the Universe field it sweeps, the layer cap, if any, below it and
what the check receives: the ``MappingFacts`` of each mapping, carrier or
powerset base size, size triple, homomorphism or pair of groups, or the
resolved bound alone.
A check returns one item per call or yields several; its docstring states
the law. Checks and domains call library functions through this module's
globals at call time, never through names bound at import, since planted
faults and the benchmark tracer rebind those globals. Direct definitional
tests used as the second route of a cross-check are written out literally
here rather than reusing library shortcuts.

The checks of SETS, POWERSETS and EXTENSIONS receive a ``MappingFacts`` per
mapping, which the claims the engine sweeps together share. Its facts are
library routes (the deviation, whose kernel it holds, the image, its
subsets and the subsets outside it, the subset maps, the kernel of the
extension, and kappa and deviation of the preimage map) and the direct
routes ``inj_direct``, ``surj_direct`` and ``const_direct``; each is
computed on first read and dropped with the mapping. The partitions they
are compared with are ``CarrierFacts``, built once per carrier size and
sweep. No claim reads both sides of a cross-check from one fact.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable, Iterator
from functools import partial
from itertools import count, product, repeat, starmap

from .abgroup import (
    MAX_HOM_ORDER,
    MAX_ORACLE_ORDER,
    TRIVIAL_GROUP,
    FinAbGroup,
    GroupDeviation,
    GroupHom,
    _hom,
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
)
from .chu import (
    ChuMorphism,
    ChuSpace,
    compose,
    e_space,
    embed,
    ex_deviation,
    forced_backward,
    identity_morphism,
    morphism_is_valid,
)
from .finset import (
    Deviation,
    FiniteSet,
    Mapping,
    Partition,
    all_partitions,
    canonical_factorization,
    classify,
    discrete,
    deviation,
    deviation_leq,
    elements,
    image,
    indiscrete,
    kernel_partition,
    partition_leq,
)
from .powerset import direct_image_map, iota, kappa, preimage_map, restrict_preimage_to_image
from .verifier import (
    VERDICT_COUNTEREXAMPLE,
    VERDICT_REFUTED,
    VERDICT_SKIPPED,
    Domain,
    claim,
    enumerate_mappings,
    mappings,
    size_pairs,
    size_triples,
)

# Group order bound of the claims that pair homomorphisms: T2.1 composes every
# pair through a middle group, 495,728 pairs at order 8.
MAX_COMPOSITION_ORDER = 8
# Powerset base bound, below max_powerset_base, of T3.1-T3.3, 3.44-* and the
# Chu claims, which tabulate several subset maps per mapping or pair them.
MAX_EXTENSION_BASE = 3


def _group_pairs(order: int) -> Iterator[tuple[FinAbGroup, FinAbGroup]]:
    """Every pair of groups of order at most order."""
    return product(enumerate_groups(order), repeat=2)


def _homs(order: int) -> Iterator[GroupHom]:
    """Every homomorphism between groups of order at most order, by group pair."""
    for a, b in _group_pairs(order):
        yield from enumerate_homs(a, b)


class _Fact:
    """A shared fact: compute(x) on the first read of x's attribute, then
    kept in x's dict, which later reads find before this descriptor. Unlike
    a slot filled by __getattr__, a first read raises no AttributeError, and
    unlike functools.cached_property before Python 3.12 it takes no lock:
    both measured slower at one object per mapping."""

    def __init__(self, compute: Callable) -> None:
        self.compute = compute

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, x, owner: type | None = None):
        value = x.__dict__[self.name] = self.compute(x)
        return value


class CarrierFacts:
    """The partitions of a carrier X of one size that the mapping claims
    compare with: the discrete and single-block partitions of X, and the
    discrete partition of P(X) with its singleton identification. Each is
    built on first read and shared by the mappings from or into X of one
    sweep."""

    def __init__(self, n: int) -> None:
        self.size = n

    bottom = _Fact(lambda c: discrete(FiniteSet(c.size)))
    top = _Fact(lambda c: indiscrete(FiniteSet(c.size)))
    power_bottom = _Fact(lambda c: discrete(FiniteSet(1 << c.size)))
    singletons = _Fact(lambda c: iota(FiniteSet(1 << c.size)))


class MappingFacts:
    """A mapping f, the CarrierFacts of its domain and codomain, and the
    facts of f that the claims of a sweep share: each is computed on first
    read through this module's globals and kept as long as the object."""

    def __init__(self, f: Mapping, dom: CarrierFacts, cod: CarrierFacts) -> None:
        self.f, self.dom, self.cod = f, dom, cod

    tilde = _Fact(lambda m: direct_image_map(m.f))
    tilde_kernel = _Fact(lambda m: kernel_partition(m.tilde))
    pre = _Fact(lambda m: preimage_map(m.f))
    restricted = _Fact(lambda m: restrict_preimage_to_image(m.f))
    kappa = _Fact(lambda m: kappa(m.pre))
    pre_deviation = _Fact(lambda m: deviation(m.pre))
    deviation = _Fact(lambda m: deviation(m.f))
    image = _Fact(lambda m: image(m.f))
    image_subsets = _Fact(lambda m: _image_subsets(m.image))
    # Bitmask over P(cod): the subsets not contained in the image.
    outside_image = _Fact(lambda m: sum(1 << b for b in range(1 << m.f.cod.size) if b & ~m.image))
    # The direct routes, read off the raw table.
    inj_direct = _Fact(lambda m: _inj_direct(m.f))
    surj_direct = _Fact(lambda m: _surj_direct(m.f))
    const_direct = _Fact(lambda m: _const_direct(m.f))


def _mapping_facts(bound: int) -> Iterator[MappingFacts]:
    """The facts of each mapping in mappings(bound) order."""
    carriers = [CarrierFacts(n) for n in range(bound + 1)]
    for f in mappings(bound):
        yield MappingFacts(f, carriers[f.dom.size], carriers[f.cod.size])


SETS = Domain("max_set_size", elements=_mapping_facts)
SET_SIZES = Domain("max_set_size", elements=lambda n: range(n + 1))
TRIPLES = Domain("max_triple_size", elements=size_triples)
TRIPLE_BOUND = Domain("max_triple_size")
POWERSETS = Domain("max_powerset_base", elements=_mapping_facts)
POWERSET_BASES = Domain("max_powerset_base", elements=lambda n: range(2, n + 1))
EXTENSIONS = Domain("max_powerset_base", MAX_EXTENSION_BASE, _mapping_facts)
EXTENSION_TRIPLES = Domain("max_powerset_base", MAX_EXTENSION_BASE, size_triples)
EXTENSION_BOUND = Domain("max_powerset_base", MAX_EXTENSION_BASE)
HOMS = Domain("max_group_order", MAX_HOM_ORDER, _homs)
COMPOSITIONS = Domain("max_group_order", MAX_COMPOSITION_ORDER)
ORACLE_GROUPS = Domain("max_group_order", MAX_ORACLE_ORDER, _group_pairs)


# --- direct definitional checks (the independent side of cross-checks) ----


def _inj_direct(f: Mapping) -> bool:
    n = len(f.table)
    for i in range(n):
        for j in range(i + 1, n):
            if f.table[i] == f.table[j]:
                return False
    return True


def _surj_direct(f: Mapping) -> bool:
    for y in range(f.cod.size):
        if y not in f.table:  # no x with f(x) = y
            return False
    return True


def _const_direct(f: Mapping) -> bool:
    n = len(f.table)
    for i in range(n):
        for j in range(n):
            if f.table[i] != f.table[j]:
                return False
    return True


def _pair_witness(f: Mapping, **extra) -> dict:
    return {"x_size": f.dom.size, "y_size": f.cod.size, "f": f.to_json_dict(), **extra}


def _subsets(y: FiniteSet, family: int) -> list[list[int]]:
    """The subsets of y whose bits are set in family, a bitmask over P(y)."""
    return sorted(list(elements(b)) for b in range(1 << y.size) if family >> b & 1)


def _composite_witness(f: Mapping, g: Mapping) -> dict:
    return {"sizes": [f.dom.size, f.cod.size, g.cod.size], "f": f.to_json_dict(), "g": g.to_json_dict()}


def _composite(f: Mapping, g: Mapping, table: bytes) -> Mapping:
    """f.then(g), checked against the table read off by lookup."""
    h = f.then(g)
    if bytes(h.table) != table:
        raise AssertionError("composite disagrees with its table lookup")
    return h


_KEPT = bytes(range(128, 256))  # padding and tags in a word of _pair_sweep


def _words(codes: Iterable[bytes], tags: Iterable[int], n: int) -> tuple[bytes, int]:
    """The words of _pair_sweep, joined, and their width, the least power of
    two above n. A word is an inner map's n codes, padding, then the byte
    128 + its tag; codes and tags are below 128."""
    width = 1 << n.bit_length()
    return b"".join(c.ljust(width - 1, b"\x80") + bytes((128 + t,)) for c, t in zip(codes, tags)), width


def _pair_sweep(words: bytes, width: int, rows: Iterable, judge: Callable, witness: Callable) -> Iterator:
    """Check every pair of inner map i, word i of words, with the outer map
    of each row (context, table, passed). The table takes inner codes to
    outer ones, with one length, at most 128, in every row; a pair's key is
    its word translated through it, bytes from 128 up kept. A row whose
    keys are all in passed is counted at once; otherwise its pairs are
    walked in order, and a key not in passed is judged, by judge(context,
    i, its word), and joins passed if judge returns a false value. Yields
    the number of pairs that passed, or at the first failing pair i the
    number before it, then witness(context, i, what judge returned)."""
    fmt = "BHIQ"[width.bit_length() - 1]  # the memoryview format of a word
    total, rest = 0, b""
    for context, table, passed in rows:
        rest = rest or bytes(128 - len(table)) + _KEPT
        packed = words.translate(table + rest)
        keys = memoryview(packed).cast(fmt)
        if not passed.issuperset(keys):
            for i, key in enumerate(keys):
                if key not in passed:
                    failure = judge(context, i, packed[i * width : i * width + width])
                    if failure:
                        yield total + i
                        yield witness(context, i, failure)
                        return
                    passed.add(key)
        total += len(keys)
    yield total


def _strict_pairs(pools: Iterable[tuple[dict, list]], leq: Callable, prefix: str) -> Iterator:
    """Walk the ordered pairs of each pool, a context and a list of maps
    with their deviations (f, d), and yield None per pair until one pair has
    d_f strictly below d_g under leq and one strictly above; then yield both
    pairs, each its context with f and g, under prefix_f_strictly_below_g
    and prefix_g_strictly_below_f."""
    first = second = None
    for context, pool in pools:
        for (f, df), (g, dg) in product(pool, repeat=2):
            if first is None and df != dg and leq(df, dg):
                first = {**context, "f": f.to_json_dict(), "g": g.to_json_dict()}
            if second is None and df != dg and leq(dg, df):
                second = {**context, "f": f.to_json_dict(), "g": g.to_json_dict()}
            if first and second:
                yield {f"{prefix}_f_strictly_below_g": first, f"{prefix}_g_strictly_below_f": second}
                return
            yield None


def _image_subsets(img: int) -> list[int]:
    """The subsets of the set with bitmask img, ascending: entry v is the
    subset that v encodes over img's elements taken in ascending order."""
    return [v for v in range(img + 1) if v & ~img == 0]


# --- mappings, factorization, deviation order ------------------------------


@claim("0.3", SETS)
def check_factorization(m: MappingFacts):
    """Every mapping factors as surjection, bijection, injection,
    recomposing to itself."""
    fact = canonical_factorization(m.f)
    ok = (
        fact.proj.is_surjective()
        and fact.mid.is_bijective()
        and fact.incl.is_injective()
        and fact.recompose().table == m.f.table
    )
    return None if ok else _pair_witness(m.f)


@claim("0.8-0.10", SETS)
def check_classification(m: MappingFacts):
    """Classification flags read off the deviation agree with the direct definitions."""
    c = classify(m.deviation)
    inj, surj = m.inj_direct, m.surj_direct
    ok = (
        c.injective == inj
        and c.surjective == surj
        and c.bijective == (inj and surj)
        and c.constant == m.const_direct
    )
    return None if ok else _pair_witness(m.f, flags=list(c.flags()))


@claim("1.3", SETS)
def check_kernel_bounds(m: MappingFacts):
    """Kernel partitions sit between discrete and single-block, with
    equality exactly for injective and constant mappings."""
    part, bottom, top = m.deviation.part, m.dom.bottom, m.dom.top
    ok = (
        partition_leq(bottom, part)
        and partition_leq(part, top)
        and (part == bottom) == m.inj_direct
        and (part == top) == m.const_direct
    )
    return None if ok else _pair_witness(m.f, kernel=part.to_lists())


@claim("partition-order", SET_SIZES)
def check_partition_order(n: int):
    """Refinement is reflexive, antisymmetric on canonical forms, and transitive."""
    parts = list(all_partitions(FiniteSet(n)))
    # One instance per partition; the pairs and triples yield only to refute.
    for p in parts:
        yield None if partition_leq(p, p) else {"size": n, "p": p.to_lists()}
    for p, q in product(parts, repeat=2):
        if partition_leq(p, q) and partition_leq(q, p) and p != q:
            yield {"size": n, "p": p.to_lists(), "q": q.to_lists()}
    for p, q in product(parts, repeat=2):
        if not partition_leq(p, q):
            continue
        for r in parts:
            if partition_leq(q, r) and not partition_leq(p, r):
                yield {"size": n, "p": p.to_lists(), "q": q.to_lists(), "r": r.to_lists()}


@claim("L1.1", SETS)
def check_least_deviation(m: MappingFacts):
    """The least deviation of a signature, (discrete, empty), lies below the
    deviation of each mapping, and a mapping is bijective iff its deviation
    is the least one."""
    least = Deviation(m.dom.bottom, m.f.cod, 0)
    dev = m.deviation
    ok = deviation_leq(least, dev) and (m.inj_direct and m.surj_direct) == (dev == least)
    return None if ok else _pair_witness(m.f)


@claim("T1.1", TRIPLES)
def check_dev1_monotone(sizes):
    """The kernel partition of f refines the kernel partition of any
    composite g after f."""
    nx, ny, nz = sizes
    y = FiniteSet(ny)
    fs = list(enumerate_mappings(FiniteSet(nx), y))
    # Per triple, kernel partitions are interned as ids, which tag the inner
    # words, and the keys that passed are kept. Each distinct composite table
    # gets its kernel's id once, and partition_leq runs once per pair of ids.
    ids: dict[Partition, int] = {}
    tags = [ids.setdefault(kernel_partition(f), len(ids)) for f in fs]
    words, width = _words([bytes(f.table) for f in fs], tags, nx)
    composite_ids: dict[bytes, int] = {}
    below: dict[tuple[int, int], bool] = {}

    def judge(g: Mapping, i: int, word: bytes) -> bool:
        table = word[:nx]
        if table not in composite_ids:
            composite_ids[table] = ids.setdefault(kernel_partition(_composite(fs[i], g, table)), len(ids))
        pair = word[-1] - 128, composite_ids[table]
        if pair not in below:
            parts = list(ids)
            below[pair] = partition_leq(parts[pair[0]], parts[pair[1]])
        return not below[pair]

    passed: set[int] = set()
    rows = ((g, bytes(g.table), passed) for g in enumerate_mappings(y, FiniteSet(nz)))
    yield from _pair_sweep(words, width, rows, judge, lambda g, i, _: _composite_witness(fs[i], g))


@claim("1.12", TRIPLES)
def check_dev2_outer(sizes):
    """The missed set of the outer mapping is contained in the missed
    set of the composite."""
    nx, ny, nz = sizes
    y = FiniteSet(ny)
    fs = list(enumerate_mappings(FiniteSet(nx), y))
    words, width = _words([bytes(f.table) for f in fs], repeat(0), nx)
    images: dict[bytes, int] = {}

    def judge(context: tuple[Mapping, int], i: int, word: bytes) -> int:
        (g, img_g), table = context, word[:nx]
        if table not in images:
            images[table] = image(_composite(fs[i], g, table))
        return images[table] & ~img_g

    # A row's context is g with its image, by which the keys that passed are kept.
    passed: dict[int, set[int]] = {}
    contexts = ((g, image(g)) for g in enumerate_mappings(y, FiniteSet(nz)))
    rows = ((c, bytes(c[0].table), passed.setdefault(c[1], set())) for c in contexts)
    yield from _pair_sweep(words, width, rows, judge, lambda c, i, _: _composite_witness(fs[i], c[0]))


@claim("T1.2-counterexample", TRIPLE_BOUND, VERDICT_COUNTEREXAMPLE)
def check_dev2_incomparable(bound: int):
    """Missed sets of inner and outer mappings admit strict inclusions
    in both directions, so no fixed comparison holds."""
    pools = (
        ({"size": n}, [(f, image(f) ^ ((1 << n) - 1)) for f in enumerate_mappings(FiniteSet(n), FiniteSet(n))])
        for n in range(bound + 1)
    )
    return _strict_pairs(pools, lambda d, e: d & ~e == 0, "dev2")


@claim("rho-not-functor", SETS, VERDICT_COUNTEREXAMPLE)
def check_rho_not_functor(m: MappingFacts):
    """The induced-bijection assignment has no fixed object part: its
    domain and codomain vary with the mapping."""
    # Each mapping is compared with the first of its signature, the constant
    # map at 0, whose kernel is the single block and which misses all but 0.
    if not any(m.f.table):
        return 0  # the first mapping itself
    nx, ny, dev = m.f.dom.size, m.f.cod.size, m.deviation
    if dev.part == m.dom.top and dev.missed == (1 << ny) - 2:
        return None
    return {
        "x_size": nx,
        "y_size": ny,
        "f": {"dom": nx, "cod": ny, "table": [0] * nx},
        "g": m.f.to_json_dict(),
        "kernel_f": m.dom.top.to_lists(),
        "kernel_g": dev.part.to_lists(),
        "image_f": [0],
        "image_g": list(elements(m.image)),
    }


# --- group deviations -------------------------------------------------------


@claim("devg-oracle", HOMS)
def check_devg_oracle(f: GroupHom):
    """Lattice/normal-form quotients equal element-table coset
    quotients for both deviation components of every homomorphism."""
    if devg1(f) == devg1_oracle(f) and devg2(f) == devg2_oracle(f):
        return None
    return {
        "hom": f.to_json_dict(),
        "devg1": list(devg1(f).factors),
        "devg1_oracle": list(devg1_oracle(f).factors),
        "devg2": list(devg2(f).factors),
        "devg2_oracle": list(devg2_oracle(f).factors),
    }


@claim("L2.1", HOMS)
def check_group_lemma(f: GroupHom):
    """A homomorphism is surjective iff the second component of its group
    deviation is trivial, and injective iff the first is the whole domain,
    so an isomorphism iff its deviation is the least one, (domain, trivial),
    which lies below the deviation of each homomorphism."""
    d = GroupDeviation(devg1(f), devg2(f))
    values = element_table(f.cod).table(f)
    if (image_mask(values) == (1 << f.cod.order()) - 1) != d.second.is_trivial():
        case = "surjective"
    elif (kernel_mask(values) == 1) != (d.first == f.dom):
        case = "injective"
    elif not devg_leq(GroupDeviation(f.dom, TRIVIAL_GROUP), d):
        case = "least"
    else:
        return None
    return {"hom": f.to_json_dict(), "case": case}


@claim("T2.1", COMPOSITIONS)
def check_group_composition(bound: int):
    """Under composition the first deviation component of the
    composite embeds in that of the inner map, and the second
    component of the outer map embeds in that of the composite."""
    # A pair (f, g) passes or fails by the generator images of f.then(g),
    # which are g's table read at f's columns, by devg1(f) and by devg2(g).
    # So f : a -> b is a word of _pair_sweep, its column codes tagged by its
    # interned devg1, and g : b -> c a row whose passed keys are kept per
    # (a, c, devg2(g)). Each distinct composite is built once per (a, c).
    groups = enumerate_groups(bound)
    if any(x.order() > 128 for x in groups):
        raise ValueError("element codes must fit below 128 to be told from tags")
    interned = list(groups)
    index = {x: i for i, x in enumerate(interned)}
    embeds = [[embeds_in(x, y) for y in interned] for x in interned]

    def intern(x: FinAbGroup) -> int:
        # Only a wrong devg1 or devg2 can return a group outside the sweep;
        # it joins the table so that embeds_in still judges it.
        if x not in index:
            index[x] = len(interned)
            interned.append(x)
            for row, y in zip(embeds, interned):
                row.append(embeds_in(y, x))
            embeds.append([embeds_in(x, y) for y in interned])
        return index[x]

    coded = [element_table(x) for x in groups]
    # For the homs out of b, by codomain c, then in order: tables[b] holds
    # their tables over b's codes, words[b] joins their words, of width
    # widths[b] and with the column codes read off the tables, those into c
    # from starts[b][c] on, and slots[b] holds the index of their (c,
    # interned devg2) in pairs, by which the keys that passed are kept.
    words, widths, index_of = [b""] * len(groups), [0] * len(groups), {}
    tables, slots, starts = ([[] for _ in groups] for _ in range(3))
    for b, x in enumerate(groups):
        tags, starts[b] = [], [0]
        for c, y in enumerate(groups):
            homs = list(enumerate_homs(x, y))
            tables[b] += [coded[c].table(f) for f in homs]
            tags += [intern(devg1(f)) for f in homs]
            if max(tags) >= 128:
                raise ValueError("too many distinct first deviations to tag in a byte")
            slots[b] += [index_of.setdefault((c, intern(devg2(f))), len(index_of)) for f in homs]
            starts[b].append(len(tags))
        columns = [bytes(map(t.__getitem__, coded[b].strides)) for t in tables[b]]
        words[b], widths[b] = _words(columns, tags, len(x.factors))
    pairs = list(index_of)

    def factor(b: int, k: int) -> GroupHom:
        # The k-th hom out of b, rebuilt from its word with no check repeated.
        c, at = pairs[slots[b][k]][0], k * widths[b]
        return _hom(groups[b], groups[c], coded[c]._matrix(words[b][at : at + len(groups[b].factors)]))

    def judge(a: int, b: int, composites: list, k: int, i: int, word: bytes) -> str | None:
        # composites[c][images]: interned devg1, devg2 of the composite a -> c.
        (c, d2g), images = pairs[slots[b][k]], word[: len(groups[a].factors)]
        if images not in composites[c]:
            h = factor(a, starts[a][b] + i).then(factor(b, k))
            if coded[c].columns(h) != images:
                raise AssertionError("composite disagrees with its generator images")
            composites[c][images] = intern(devg1(h)), intern(devg2(h))
        d1h, d2h = composites[c][images]
        if not embeds[d1h][word[-1] - 128]:
            return "first"
        return None if embeds[d2g][d2h] else "second"

    def witness(a: int, b: int, k: int, i: int, case: str) -> dict:
        return {"f": factor(a, starts[a][b] + i).to_json_dict(), "g": factor(b, k).to_json_dict(), "case": case}

    for a, width in enumerate(widths):
        composites, passed = [{} for _ in groups], [set() for _ in pairs]
        for b in range(len(groups)):
            # The words of the homs a -> b; a row's context is g's index among those out of b.
            fs = words[a][starts[a][b] * width : starts[a][b + 1] * width]
            rows = zip(count(), tables[b], map(passed.__getitem__, slots[b]))
            yield from _pair_sweep(fs, width, rows, partial(judge, a, b, composites), partial(witness, a, b))


@claim("T2.1-counterexample", COMPOSITIONS, VERDICT_COUNTEREXAMPLE)
def check_devg2_incomparable(bound: int):
    """Second components of inner and outer homomorphisms admit strict
    embeddings in both directions, so no fixed comparison holds."""
    pools = (
        ({"group": list(x.factors)}, [(f, devg2(f)) for f in enumerate_homs(x, x)])
        for x in enumerate_groups(bound)
    )
    return _strict_pairs(pools, embeds_in, "devg2")


@claim("embeds-oracle", ORACLE_GROUPS)
def check_embeds_oracle(pair: tuple[FinAbGroup, FinAbGroup]):
    """The conjugate-partition embedding criterion agrees with an
    exhaustive injective-homomorphism search."""
    a, b = pair
    fast, oracle = embeds_in(a, b), embeds_in_oracle(a, b)
    if fast == oracle:
        return None
    return {"a": list(a.factors), "b": list(b.factors), "fast": fast, "oracle": oracle}


# --- powerset maps ----------------------------------------------------------


@claim("3.18", POWERSETS)
def check_tilde_empty(m: MappingFacts):
    """The subset extension sends exactly the empty set to the empty set."""
    tilde = m.tilde.table
    # One count per mapping: every subset passes when only the empty set, at 0, goes to 0.
    if tilde[0] == 0 and tilde.count(0) == 1:
        yield len(tilde)
        return
    a = tilde.index(0, 1) if tilde[0] == 0 else 0  # the first subset that fails
    yield a
    yield _pair_witness(m.f, subset=list(elements(a)))


@claim("L3.1", POWERSETS)
def check_tilde_lemma(m: MappingFacts):
    """A mapping and its subset extension are injective, surjective,
    bijective together."""
    tilde, inj, surj = m.tilde, m.inj_direct, m.surj_direct
    ok = (
        inj == tilde.is_injective()
        and surj == tilde.is_surjective()
        and (inj and surj) == tilde.is_bijective()
    )
    return None if ok else _pair_witness(m.f)


@claim("L3.2", POWERSETS)
def check_preimage_lemma(m: MappingFacts):
    """The preimage map is surjective iff the mapping is injective, injective iff it
    is surjective, and its restriction to subsets of the image is always injective."""
    pre, inj, surj = m.pre, m.inj_direct, m.surj_direct
    ok = (
        pre.is_surjective() == inj
        and m.restricted.is_injective()
        and pre.is_injective() == surj
        and pre.is_bijective() == (inj and surj)
    )
    return None if ok else _pair_witness(m.f)


@claim("3.29-3.30", POWERSETS)
def check_galois_identities(m: MappingFacts):
    """Every subset sits inside the preimage of its image, with
    equality for all subsets exactly when the mapping is injective;
    taking images retracts preimages on subsets of the image."""
    tilde, pre, subsets = m.tilde.table, m.pre.table, m.image_subsets
    # back[a] is the preimage of the image of a.
    back = [pre[t] for t in tilde]
    expand_ok = [a | b for a, b in enumerate(back)] == back
    equal_all = back == list(range(1 << m.f.dom.size))
    collapse_ok = [tilde[pre[v]] for v in subsets] == subsets
    ok = expand_ok and collapse_ok and (equal_all == m.inj_direct)
    return None if ok else _pair_witness(m.f)


@claim("L3.3a", POWERSETS)
def check_kappa_lemma(m: MappingFacts):
    """Subsets of the image enumerate the kernel classes of the preimage
    map bijectively, and that kernel is discrete exactly for surjective
    mappings, where the enumeration is the singleton identification."""
    ka, surj = m.kappa, m.surj_direct
    discrete_on_py = m.pre_deviation.part == m.cod.power_bottom
    ok = ka.is_bijective() and discrete_on_py == surj and (not surj or ka == m.cod.singletons)
    return None if ok else _pair_witness(m.f)


@claim("L3.3b", POWERSETS)
def check_preimage_deviation_lemma(m: MappingFacts):
    """The deviation of the preimage map characterizes injectivity,
    surjectivity, and bijectivity of the original mapping."""
    dev, ka = m.pre_deviation, m.kappa
    injective_form = dev.missed == 0 and ka.is_bijective()
    surjective_form = dev.part == m.cod.power_bottom
    bijective_form = surjective_form and dev.missed == 0
    inj, surj = m.inj_direct, m.surj_direct
    ok = injective_form == inj and surjective_form == surj and bijective_form == (inj and surj)
    return None if ok else _pair_witness(m.f)


def _missed_mask(g: Mapping) -> int:
    hit = 0
    for v in g.table:
        hit |= 1 << v
    return ~hit & ((1 << g.cod.size) - 1)


@claim("T3.1", EXTENSIONS)
def check_theorem_injective(m: MappingFacts):
    """Six characterizations of injectivity coincide: the mapping, its
    subset extension, preimage surjectivity, and the three deviation
    shapes (with the extension's missed set in computed form)."""
    f, tilde = m.f, m.tilde
    items = (
        m.inj_direct,
        tilde.is_injective(),
        m.pre.is_surjective(),
        m.deviation.part == m.dom.bottom,
        m.tilde_kernel == m.dom.power_bottom and _missed_mask(tilde) == m.outside_image,
        m.pre_deviation.missed == 0,
    )
    return None if len(set(items)) == 1 else _pair_witness(f, items=list(items))


@claim("T3.2", EXTENSIONS)
def check_theorem_surjective(m: MappingFacts):
    """Six characterizations of surjectivity coincide."""
    f, tilde, pre = m.f, m.tilde, m.pre
    items = (
        m.surj_direct,
        tilde.is_surjective(),
        pre.is_injective(),
        m.image == (1 << f.cod.size) - 1,
        _missed_mask(tilde) == 0,
        m.pre_deviation.part == m.cod.power_bottom,
    )
    return None if len(set(items)) == 1 else _pair_witness(f, items=list(items))


@claim("T3.3", EXTENSIONS)
def check_theorem_bijective(m: MappingFacts):
    """Six characterizations of bijectivity coincide."""
    f, tilde, pre = m.f, m.tilde, m.pre
    items = (
        m.inj_direct and m.surj_direct,
        tilde.is_bijective(),
        pre.is_bijective(),
        m.deviation.part == m.dom.bottom and m.image == (1 << f.cod.size) - 1,
        m.tilde_kernel == m.dom.power_bottom and _missed_mask(tilde) == 0,
        m.pre_deviation.part == m.cod.power_bottom and _missed_mask(pre) == 0,
    )
    return None if len(set(items)) == 1 else _pair_witness(f, items=list(items))


@claim("3.44-literal", EXTENSIONS, VERDICT_REFUTED)
def check_tilde_deviation_literal(m: MappingFacts):
    """Missed subsets of the extension of an injective mapping form the
    powerset of the complement of the image (literal reading, empty set
    aside); refuted, since subsets straddling image and complement are
    missed too.

    The empty set is never missed, so the claimed family is the nonempty
    subsets of the complement; it falls short as soon as both the image and
    its complement are nonempty.
    """
    f, tilde = m.f, m.tilde
    ny = f.cod.size
    comp = m.image ^ ((1 << ny) - 1)
    claimed = sum(1 << b for b in range(1, 1 << ny) if b & ~comp == 0)
    missed = _missed_mask(tilde)
    literal_holds = m.tilde_kernel == m.dom.power_bottom and missed == claimed
    if literal_holds == m.inj_direct:
        return None
    return _pair_witness(
        f,
        missed_computed=_subsets(f.cod, missed),
        missed_claimed=_subsets(f.cod, claimed),
    )


@claim("3.44-computed", EXTENSIONS)
def check_tilde_deviation_computed(m: MappingFacts):
    """For injective mappings the extension misses exactly the subsets
    not contained in the image."""
    # Only the injective mappings are instances.
    if m.inj_direct:
        ok = _missed_mask(m.tilde) == m.outside_image
        yield None if ok else _pair_witness(m.f)


@claim("3.58-3.61", POWERSETS)
def check_composition_identities(m: MappingFacts):
    """Preimage after extension is the identity for injective mappings, extension after
    restricted preimage is the inclusion of image subsets, extension after preimage is
    the identity for surjective mappings, and the restricted preimage is injective."""
    tilde, pre, restricted = m.tilde.table, m.pre.table, m.restricted
    ok = (
        restricted.is_injective()
        and (not m.inj_direct or [pre[t] for t in tilde] == list(range(1 << m.f.dom.size)))
        # The restricted preimage is indexed by subsets of the image as
        # _image_subsets lists them, so extension after it is the inclusion.
        and [tilde[v] for v in restricted.table] == m.image_subsets
        and (not m.surj_direct or [tilde[v] for v in pre] == list(range(1 << m.f.cod.size)))
    )
    return None if ok else _pair_witness(m.f)


# --- chu spaces --------------------------------------------------------------


def _random_chu_pool() -> list[ChuSpace]:
    rng = random.Random(99173)
    shapes = [(1, 1, 2), (1, 2, 2), (2, 1, 2), (2, 2, 2), (2, 2, 2), (2, 2, 3)]
    pool = []
    for points, states, letters in shapes:
        matrix = tuple(
            tuple(rng.randrange(letters) for _ in range(states)) for _ in range(points)
        )
        pool.append(ChuSpace(FiniteSet(points), FiniteSet(states), FiniteSet(letters), matrix))
    return pool


def _valid_morphisms(src: ChuSpace, dst: ChuSpace) -> list[ChuMorphism]:
    pairs = product(enumerate_mappings(src.points, dst.points), enumerate_mappings(dst.states, src.states))
    return [m for m in starmap(ChuMorphism, pairs) if morphism_is_valid(m, src, dst)]


@claim("chu-category-laws", EXTENSION_BOUND)
def check_chu_category_laws(bound: int):
    """Identities are valid and neutral, composites of valid morphisms
    are valid, and composition is associative."""
    pool = _random_chu_pool()
    for sp in [e_space(FiniteSet(n)) for n in range(bound + 1)] + pool:
        valid_identity = morphism_is_valid(identity_morphism(sp), sp, sp)
        yield None if valid_identity else {"space": sp.to_json_dict()}

    # Associativity and closure along embedded chains.
    chain_bound = min(bound, 2)
    for nw, nx in size_pairs(chain_bound):
        for ny, nz in product(range(chain_bound + 1), repeat=2):
            w, x = FiniteSet(nw), FiniteSet(nx)
            y, z = FiniteSet(ny), FiniteSet(nz)
            ew, ez = e_space(w), e_space(z)
            for f in enumerate_mappings(w, x):
                ef = embed(f)
                for g in enumerate_mappings(x, y):
                    fg = compose(ef, embed(g))
                    for h in enumerate_mappings(y, z):
                        eh = embed(h)
                        left = compose(fg, eh)
                        right = compose(ef, compose(embed(g), eh))
                        if left == right and morphism_is_valid(left, ew, ez):
                            yield None
                            continue
                        yield {
                            "case": "embedded-chain",
                            "sizes": [nw, nx, ny, nz],
                            "f": f.to_json_dict(),
                            "g": g.to_json_dict(),
                            "h": h.to_json_dict(),
                        }

    # Composition preserves validity and identities are neutral, on the
    # deterministic pool.
    indices = range(len(pool))
    valid = {(i, j): _valid_morphisms(pool[i], pool[j]) for i, j in product(indices, repeat=2)}
    for i, j in product(indices, repeat=2):
        for m in valid[i, j]:
            ok = compose(identity_morphism(pool[i]), m) == m == compose(m, identity_morphism(pool[j]))
            yield None if ok else {"case": "identity-neutrality"}
        for k in indices:
            for m, n in product(valid[i, j], valid[j, k]):
                ok = morphism_is_valid(compose(m, n), pool[i], pool[k])
                yield None if ok else {"case": "closure", "spaces": [i, j, k]}
    for i, j, k, l in product(indices, repeat=4):
        for m, n, p in product(valid[i, j], valid[j, k], valid[k, l]):
            ok = compose(compose(m, n), p) == compose(m, compose(n, p))
            yield None if ok else {"case": "associativity", "spaces": [i, j, k, l]}


@claim("E-functoriality", EXTENSION_TRIPLES)
def check_embedding_functorial(sizes):
    """Embedding a composite equals composing the embeddings."""
    nx, ny, nz = sizes
    y = FiniteSet(ny)
    gs = [(g, embed(g)) for g in enumerate_mappings(y, FiniteSet(nz))]
    for f in enumerate_mappings(FiniteSet(nx), y):
        ef = embed(f)
        for g, eg in gs:
            ok = embed(f.then(g)) == compose(ef, eg)
            yield None if ok else _composite_witness(f, g)


@claim("E-faithfulness", EXTENSION_BOUND)
def check_embedding_faithful(bound: int):
    """Distinct mappings embed to distinct morphisms."""
    # Equal morphisms have equal carriers, so one table serves every signature.
    seen: dict[ChuMorphism, Mapping] = {}
    for f in mappings(bound):
        m = embed(f)
        if m in seen:
            yield {**_pair_witness(seen[m]), "g": f.to_json_dict()}
        else:
            seen[m] = f
            yield None


@claim("E-fullness", EXTENSIONS)
def check_embedding_full(m: MappingFacts):
    """Between evaluation spaces every valid morphism has the forced
    backward component and hence is an embedded mapping."""
    # forced_backward solves adjointness for each target state; a unique
    # solution everywhere means f has exactly one valid backward map.
    f = m.f
    backward = forced_backward(f)
    ok = backward is not None and ChuMorphism(f, backward) == embed(f)
    return None if ok else _pair_witness(f)


@claim("3.11-3.14", POWERSET_BASES)
def check_evaluation_deviation(n: int):
    """The evaluation matrix misses nothing and its kernel has exactly
    the member and non-member blocks, each of half the pairs."""
    dev = ex_deviation(FiniteSet(n))
    states = 1 << n
    in_mask = sum(1 << (xv * states + a) for xv in range(n) for a in range(states) if a >> xv & 1)
    out_mask = ((1 << (n * states)) - 1) ^ in_mask
    # Blocks equal to these two masks make the kernel relation the
    # two-case membership rule, so no pairwise comparison can add to it.
    ok = (
        dev.missed == 0
        and dev.part.blocks == (out_mask, in_mask)
        and all(blk.bit_count() == n * states // 2 for blk in dev.part.blocks)
    )
    return None if ok else {"size": n}


@claim("3.5-composition-order", TRIPLE_BOUND, VERDICT_REFUTED)
def check_composition_reading(bound: int):
    """The printed composition order for forward parts only typechecks when
    the end carriers coincide; composition must chain diagrammatically.

    With the outer forward applied second, the outer domain must equal the
    inner codomain, so the first composable pair with distinct end carriers
    witnesses that the printed reading cannot be meant applicatively.
    """
    reason = "outer forward expects the first carrier, inner forward lands in the third"
    for nx, ny, nz in size_triples(bound):
        yield None if nx == nz else {"sizes": [nx, ny, nz], "reason": reason}
    # Only reached when every end carrier coincides (max_triple_size 0):
    # nothing could refute the reading, and nothing was shown to verify it.
    return VERDICT_SKIPPED
