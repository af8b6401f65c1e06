"""The claim registry: every law of the deviation calculus, made executable.

Each claim is a check declared with ``@claim`` on one of the domains below,
which fix the Universe field it sweeps and the layer cap, if any, below it;
its docstring states the law. Most checks are predicates over one mapping,
homomorphism or pair of groups of their domain. The rest are generators over
the resolved bound, because they keep a memo across instances or their
instances are not the domain's elements. Predicates and domains call library
functions through this module's globals at call time, never through names
bound at import, since planted faults and the benchmark tracer rebind those
globals. Direct definitional tests used as the second route of a cross-check
are written out literally here rather than reusing library shortcuts.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Iterator

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


def _homs(order: int) -> Iterator[GroupHom]:
    """Every homomorphism between groups of order at most order, by group pair."""
    for a, b in product(enumerate_groups(order), repeat=2):
        yield from enumerate_homs(a, b)


SETS = Domain("max_set_size", elements=mappings)
TRIPLES = Domain("max_triple_size")
POWERSETS = Domain("max_powerset_base", elements=mappings)
EXTENSIONS = Domain("max_powerset_base", MAX_EXTENSION_BASE, mappings)
HOMS = Domain("max_group_order", MAX_HOM_ORDER, _homs)
COMPOSITIONS = Domain("max_group_order", MAX_COMPOSITION_ORDER)
ORACLE_GROUPS = Domain(
    "max_group_order", MAX_ORACLE_ORDER, lambda order: product(enumerate_groups(order), repeat=2)
)


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


def _lookup(g: Mapping) -> bytes:
    """g's table as a 256-byte translation: bytes(f.table).translate(_lookup(g)) is f.then(g)'s table."""
    return bytes(g.table).ljust(256, b"\0")


def _composite(f: Mapping, g: Mapping, table: bytes) -> Mapping:
    """f.then(g), checked against the table read off by lookup."""
    h = f.then(g)
    if bytes(h.table) != table:
        raise AssertionError("composite disagrees with its table lookup")
    return h


def _image_subsets(img: int) -> list[int]:
    """The subsets of the set with bitmask img, ascending: entry v is the
    subset that v encodes over img's elements taken in ascending order."""
    return [v for v in range(img + 1) if v & ~img == 0]


# --- mappings, factorization, deviation order ------------------------------


@claim("0.3", SETS)
def check_factorization(f: Mapping):
    """Every mapping factors as surjection, bijection, injection,
    recomposing to itself."""
    fact = canonical_factorization(f)
    ok = (
        fact.proj.is_surjective()
        and fact.mid.is_bijective()
        and fact.incl.is_injective()
        and fact.recompose().table == f.table
    )
    return None if ok else _pair_witness(f)


@claim("0.8-0.10", SETS)
def check_classification(f: Mapping):
    """Classification flags read off the deviation agree with the direct definitions."""
    c = classify(f)
    inj, surj = _inj_direct(f), _surj_direct(f)
    ok = (
        c.injective == inj
        and c.surjective == surj
        and c.bijective == (inj and surj)
        and c.constant == _const_direct(f)
    )
    return None if ok else _pair_witness(f, flags=list(c.flags()))


@claim("1.3", SETS)
def check_kernel_bounds(bound: int):
    """Kernel partitions sit between discrete and single-block, with
    equality exactly for injective and constant mappings."""
    for nx, ny in size_pairs(bound):
        x = FiniteSet(nx)
        bottom, top = discrete(x), indiscrete(x)
        for f in enumerate_mappings(x, FiniteSet(ny)):
            part = kernel_partition(f)
            ok = (
                partition_leq(bottom, part)
                and partition_leq(part, top)
                and (part == bottom) == _inj_direct(f)
                and (part == top) == _const_direct(f)
            )
            yield None if ok else _pair_witness(f, kernel=part.to_lists())


@claim("partition-order", SETS)
def check_partition_order(bound: int):
    """Refinement is reflexive, antisymmetric on canonical forms, and transitive."""
    for n in range(bound + 1):
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
def check_least_deviation(bound: int):
    """A mapping is bijective iff its deviation is (discrete, empty) and
    lies below the deviation of every mapping with the same signature."""
    for nx, ny in size_pairs(bound):
        x, y = FiniteSet(nx), FiniteSet(ny)
        full = (1 << ny) - 1
        least = Deviation(discrete(x), y, 0)
        # One pass keeps the distinct deviations and two flags per mapping,
        # not the mappings; a second pass re-enumerates them in order.
        devs = set()
        bijective, at_least = [], []
        for f in enumerate_mappings(x, y):
            part, img = kernel_partition(f), image(f)
            devs.add(Deviation(part, y, full ^ img))
            bijective.append(_inj_direct(f) and _surj_direct(f))
            at_least.append(part == least.part and img == full)
        least_is_below_all = all(deviation_leq(least, d) for d in devs)
        for f, bij, is_at in zip(enumerate_mappings(x, y), bijective, at_least):
            yield None if bij == (is_at and least_is_below_all) else _pair_witness(f)


@claim("T1.1", TRIPLES)
def check_dev1_monotone(bound: int):
    """The kernel partition of f refines the kernel partition of any
    composite g after f."""
    for nx, ny, nz in size_triples(bound):
        y = FiniteSet(ny)
        fs = list(enumerate_mappings(FiniteSet(nx), y))
        f_tables = [bytes(f.table) for f in fs]
        # Kernel partitions are interned per signature as ids in order of
        # first sighting, each distinct composite table gets its kernel's id
        # once, and partition_leq runs once per pair of ids. Each id of an
        # inner kernel keeps the verdicts by composite table.
        ids: dict[Partition, int] = {}
        f_ids = [ids.setdefault(kernel_partition(f), len(ids)) for f in fs]
        verdicts = [{} for _ in ids]
        f_verdicts = [verdicts[i] for i in f_ids]
        composite_ids: dict[bytes, int] = {}
        below: dict[tuple[int, int], bool] = {}
        # One count per outer g; a failing pair yields the count before it,
        # then its witness.
        for g in enumerate_mappings(y, FiniteSet(nz)):
            lookup = _lookup(g)
            for at, (f, f_table, i, known) in enumerate(zip(fs, f_tables, f_ids, f_verdicts)):
                table = f_table.translate(lookup)
                ok = known.get(table)
                if ok is None:
                    j = composite_ids.get(table)
                    if j is None:
                        part = kernel_partition(_composite(f, g, table))
                        j = composite_ids[table] = ids.setdefault(part, len(ids))
                    ok = below.get((i, j))
                    if ok is None:
                        parts = list(ids)
                        ok = below[i, j] = partition_leq(parts[i], parts[j])
                    known[table] = ok
                if not ok:
                    yield at
                    yield _composite_witness(f, g)
                    return
            yield len(fs)


@claim("1.12", TRIPLES)
def check_dev2_outer(bound: int):
    """The missed set of the outer mapping is contained in the missed
    set of the composite."""
    for nx, ny, nz in size_triples(bound):
        y = FiniteSet(ny)
        fs = list(enumerate_mappings(FiniteSet(nx), y))
        f_tables = [bytes(f.table) for f in fs]
        images: dict[bytes, int] = {}
        # One count per outer g, as in T1.1.
        for g in enumerate_mappings(y, FiniteSet(nz)):
            img_g = image(g)
            lookup = _lookup(g)
            for at, (f, f_table) in enumerate(zip(fs, f_tables)):
                table = f_table.translate(lookup)
                img = images.get(table)
                if img is None:
                    img = images[table] = image(_composite(f, g, table))
                if img & ~img_g:
                    yield at
                    yield _composite_witness(f, g)
                    return
            yield len(fs)


@claim("T1.2-counterexample", TRIPLES, VERDICT_COUNTEREXAMPLE)
def check_dev2_incomparable(bound: int):
    """Missed sets of inner and outer mappings admit strict inclusions
    in both directions, so no fixed comparison holds."""
    first = second = None
    for n in range(bound + 1):
        maps = list(enumerate_mappings(FiniteSet(n), FiniteSet(n)))
        devs = [image(f) ^ ((1 << n) - 1) for f in maps]
        for (f, df), (g, dg) in product(zip(maps, devs), repeat=2):
            if first is None and df & ~dg == 0 and df != dg:
                first = {"size": n, "f": f.to_json_dict(), "g": g.to_json_dict()}
            if second is None and dg & ~df == 0 and df != dg:
                second = {"size": n, "f": f.to_json_dict(), "g": g.to_json_dict()}
            if first and second:
                yield {"dev2_f_strictly_below_g": first, "dev2_g_strictly_below_f": second}
            else:
                yield None


@claim("rho-not-functor", SETS, VERDICT_COUNTEREXAMPLE)
def check_rho_not_functor(bound: int):
    """The induced-bijection assignment has no fixed object part: its
    domain and codomain vary with the mapping."""
    for nx, ny in size_pairs(bound):
        maps = list(enumerate_mappings(FiniteSet(nx), FiniteSet(ny)))
        for i, f in enumerate(maps):
            part_f, img_f = kernel_partition(f), image(f)
            for g in maps[i + 1 :]:
                part_g, img_g = kernel_partition(g), image(g)
                if part_f == part_g and img_f == img_g:
                    yield None
                    continue
                yield {
                    "x_size": nx,
                    "y_size": ny,
                    "f": f.to_json_dict(),
                    "g": g.to_json_dict(),
                    "kernel_f": part_f.to_lists(),
                    "kernel_g": part_g.to_lists(),
                    "image_f": list(elements(img_f)),
                    "image_g": list(elements(img_g)),
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
def check_group_lemma(bound: int):
    """A homomorphism is an isomorphism iff its group deviation is (domain,
    trivial) and lies below every other; surjective iff the second
    component is trivial; injective iff the first is the whole domain."""
    groups = enumerate_groups(bound)
    for a in groups:
        for b in groups:
            tb = element_table(b)
            full = (1 << b.order()) - 1
            homs = list(enumerate_homs(a, b))
            d1s = [devg1(f) for f in homs]
            d2s = [devg2(f) for f in homs]
            least = GroupDeviation(a, TRIVIAL_GROUP)
            devs = {GroupDeviation(d1, d2) for d1, d2 in zip(d1s, d2s)}
            least_is_below_all = all(devg_leq(least, d) for d in devs)
            for f, d1, d2 in zip(homs, d1s, d2s):
                values = tb.table(f)
                inj = kernel_mask(values) == 1
                surj = image_mask(values) == full
                if surj != d2.is_trivial():
                    yield {"hom": f.to_json_dict(), "case": "surjective"}
                elif inj != (d1 == a):
                    yield {"hom": f.to_json_dict(), "case": "injective"}
                elif (inj and surj) != (d1 == a and d2.is_trivial() and least_is_below_all):
                    yield {"hom": f.to_json_dict(), "case": "isomorphism"}
                else:
                    yield None


@claim("T2.1", COMPOSITIONS)
def check_group_composition(bound: int):
    """Under composition the first deviation component of the
    composite embeds in that of the inner map, and the second
    component of the outer map embeds in that of the composite."""
    # A pair (f, g) passes or fails by the generator images of f.then(g),
    # which are g's table read at f's columns, by devg1(f) and by devg2(g).
    # Each inner map f : a -> b is packed into one word: its column codes,
    # zero padding, then 128 + the interned index of devg1(f). Translating
    # the words of every f through g's table, which keeps bytes >= 128,
    # gives the keys of their pairs with g. The keys that passed are kept
    # per (a, c, devg2(g)), and each distinct composite is built once per (a, c).
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

    def tag(x: FinAbGroup) -> bytes:
        i = intern(x)
        if i >= 128:
            raise ValueError("too many distinct first deviations to tag in a byte")
        return bytes((128 + i,))

    coded = [element_table(x) for x in groups]
    # A word is the smallest power of two bytes holding a group's generators
    # and the tag.
    widths = [1 << len(x.factors).bit_length() for x in groups]
    # For each hom b -> c in order: tables[b][c] holds its table over b's codes,
    # devg2s[b][c] its interned devg2, and words[b][c] its word, all words of
    # b -> c joined. Appending rests[b] to a table makes it a translation
    # that keeps bytes >= 128. That is done per use: at order 8, keeping the
    # 1,128 translations would hold about 270 KiB more.
    tables, devg2s, words = ([[[] for _ in groups] for _ in groups] for _ in range(3))
    rests = [bytes(128 - x.order()) + bytes(range(128, 256)) for x in groups]
    for b, x in enumerate(groups):
        gens, zeros = bytes(coded[b].strides), bytes(widths[b] - 1 - len(x.factors))
        for c, code_c in enumerate(coded):
            for f in enumerate_homs(x, groups[c]):
                table = code_c.table(f)
                tables[b][c].append(table)
                words[b][c].append(gens.translate(table + rests[b]) + zeros + tag(devg1(f)))
                devg2s[b][c].append(intern(devg2(f)))
            words[b][c] = b"".join(words[b][c])

    def columns_of(b: int, table: bytes) -> bytes:
        """The column codes of the hom out of b with that table."""
        return bytes(coded[b].strides).translate(table)

    def factor(b: int, c: int, columns: bytes) -> GroupHom:
        # The columns are read off enumerated homs b -> c, so no check is repeated.
        return _hom(groups[b], groups[c], coded[c]._matrix(columns))

    for a, x in enumerate(groups):
        n, width = len(x.factors), widths[a]
        word = "BHIQ"[width.bit_length() - 1]  # the memoryview format of a word
        # composites[c][images]: devg1 and devg2 of the composite a -> c with
        # those generator images; passed[c, d2g]: the keys that passed.
        composites = [{} for _ in groups]
        passed: dict[tuple[int, int], set[int]] = {}
        for b, code_b in enumerate(coded):
            for c, code_c in enumerate(coded):
                known, fs = composites[c], words[a][b]
                for g_values, d2g in zip(tables[b][c], devg2s[b][c]):
                    g_table = g_values + rests[b]
                    packed = fs.translate(g_table)
                    keys = memoryview(packed).cast(word)
                    seen = passed.setdefault((c, d2g), set())
                    if seen.issuperset(keys):
                        yield len(keys)
                        continue
                    # Each key with the position of one of its pairs; only
                    # the keys not seen yet are checked.
                    at_key = dict(zip(keys, range(0, len(packed), width)))
                    failed = {}
                    for key in at_key.keys() - seen:
                        at = at_key[key]
                        images, d1f = packed[at : at + n], packed[at + width - 1] - 128
                        pair = known.get(images)
                        if pair is None:
                            h = factor(a, b, fs[at : at + n]).then(factor(b, c, columns_of(b, g_table)))
                            if code_c.columns(h) != images:
                                raise AssertionError("composite disagrees with its generator images")
                            pair = known[images] = (intern(devg1(h)), intern(devg2(h)))
                        d1h, d2h = pair
                        if not embeds[d1h][d1f]:
                            failed[key] = "first"
                        elif not embeds[d2g][d2h]:
                            failed[key] = "second"
                        else:
                            seen.add(key)
                    if not failed:
                        yield len(keys)
                        continue
                    # The pairs before the first that fails passed.
                    i = next(i for i, key in enumerate(keys) if key in failed)
                    yield i
                    f = code_b.hom(x, fs[i * width : i * width + n])
                    g = code_c.hom(groups[b], columns_of(b, g_table))
                    yield {"f": f.to_json_dict(), "g": g.to_json_dict(), "case": failed[keys[i]]}
                    return


@claim("T2.1-counterexample", COMPOSITIONS, VERDICT_COUNTEREXAMPLE)
def check_devg2_incomparable(bound: int):
    """Second components of inner and outer homomorphisms admit strict
    embeddings in both directions, so no fixed comparison holds."""
    first = second = None
    for x in enumerate_groups(bound):
        homs = list(enumerate_homs(x, x))
        for f in homs:
            d2f = devg2(f)
            for g in homs:
                d2g = devg2(g)
                if first is None and d2f != d2g and embeds_in(d2f, d2g):
                    first = {"group": list(x.factors), "f": f.to_json_dict(), "g": g.to_json_dict()}
                if second is None and d2f != d2g and embeds_in(d2g, d2f):
                    second = {"group": list(x.factors), "f": f.to_json_dict(), "g": g.to_json_dict()}
                if first and second:
                    yield {"devg2_f_strictly_below_g": first, "devg2_g_strictly_below_f": second}
                else:
                    yield None


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
def check_tilde_empty(bound: int):
    """The subset extension sends exactly the empty set to the empty set."""
    for f in mappings(bound):
        tilde = direct_image_map(f).table
        # One count per mapping: every subset passes when only the empty set, at 0, goes to 0.
        if tilde[0] == 0 and tilde.count(0) == 1:
            yield len(tilde)
            continue
        a = tilde.index(0, 1) if tilde[0] == 0 else 0  # the first subset that fails
        yield a
        yield _pair_witness(f, subset=list(elements(a)))
        return


@claim("L3.1", POWERSETS)
def check_tilde_lemma(f: Mapping):
    """A mapping and its subset extension are injective, surjective,
    bijective together."""
    tilde = direct_image_map(f)
    inj, surj = _inj_direct(f), _surj_direct(f)
    ok = (
        inj == tilde.is_injective()
        and surj == tilde.is_surjective()
        and (inj and surj) == tilde.is_bijective()
    )
    return None if ok else _pair_witness(f)


@claim("L3.2", POWERSETS)
def check_preimage_lemma(f: Mapping):
    """The preimage map is surjective iff the mapping is injective, injective iff it
    is surjective, and its restriction to subsets of the image is always injective."""
    pre = preimage_map(f)
    restricted = restrict_preimage_to_image(f)
    inj, surj = _inj_direct(f), _surj_direct(f)
    ok = (
        pre.is_surjective() == inj
        and restricted.is_injective()
        and pre.is_injective() == surj
        and pre.is_bijective() == (inj and surj)
    )
    return None if ok else _pair_witness(f)


@claim("3.29-3.30", POWERSETS)
def check_galois_identities(f: Mapping):
    """Every subset sits inside the preimage of its image, with
    equality for all subsets exactly when the mapping is injective;
    taking images retracts preimages on subsets of the image."""
    tilde = direct_image_map(f).table
    pre = preimage_map(f).table
    subsets = _image_subsets(image(f))
    # back[a] is the preimage of the image of a.
    back = [pre[t] for t in tilde]
    expand_ok = [a | b for a, b in enumerate(back)] == back
    equal_all = back == list(range(1 << f.dom.size))
    collapse_ok = [tilde[pre[v]] for v in subsets] == subsets
    ok = expand_ok and collapse_ok and (equal_all == _inj_direct(f))
    return None if ok else _pair_witness(f)


@claim("L3.3a", POWERSETS)
def check_kappa_lemma(bound: int):
    """Subsets of the image enumerate the kernel classes of the preimage
    map bijectively, and that kernel is discrete exactly for surjective
    mappings, where the enumeration is the singleton identification."""
    # Discrete partitions of each P(Y) and their singleton identifications.
    bottoms = [discrete(FiniteSet(1 << n)) for n in range(bound + 1)]
    singletons = [iota(p.base) for p in bottoms]
    for f in mappings(bound):
        pre = preimage_map(f)
        ka = kappa(pre)
        bijection = ka.is_bijective()
        ny = f.cod.size
        discrete_on_py = kernel_partition(pre) == bottoms[ny]
        surj = _surj_direct(f)
        ok = bijection and discrete_on_py == surj and (not surj or ka == singletons[ny])
        yield None if ok else _pair_witness(f)


@claim("L3.3b", POWERSETS)
def check_preimage_deviation_lemma(bound: int):
    """The deviation of the preimage map characterizes injectivity,
    surjectivity, and bijectivity of the original mapping."""
    bottoms = [discrete(FiniteSet(1 << n)) for n in range(bound + 1)]
    for f in mappings(bound):
        pre = preimage_map(f)
        dev = deviation(pre)
        ka = kappa(pre)
        injective_form = dev.missed == 0 and ka.is_bijective()
        surjective_form = dev.part == bottoms[f.cod.size]
        bijective_form = surjective_form and dev.missed == 0
        inj, surj = _inj_direct(f), _surj_direct(f)
        ok = (
            injective_form == inj
            and surjective_form == surj
            and bijective_form == (inj and surj)
        )
        yield None if ok else _pair_witness(f)


def _tilde_missed_expected(f: Mapping) -> int:
    # Bitmask over P(cod): subsets not contained in the image.
    img = image(f)
    return sum(1 << b for b in range(1 << f.cod.size) if b & ~img)


def _missed_mask(g: Mapping) -> int:
    hit = 0
    for v in g.table:
        hit |= 1 << v
    return ~hit & ((1 << g.cod.size) - 1)


@claim("T3.1", EXTENSIONS)
def check_theorem_injective(f: Mapping):
    """Six characterizations of injectivity coincide: the mapping, its
    subset extension, preimage surjectivity, and the three deviation
    shapes (with the extension's missed set in computed form)."""
    tilde = direct_image_map(f)
    pre = preimage_map(f)
    items = (
        _inj_direct(f),
        tilde.is_injective(),
        pre.is_surjective(),
        kernel_partition(f) == discrete(f.dom),
        kernel_partition(tilde) == discrete(tilde.dom)
        and _missed_mask(tilde) == _tilde_missed_expected(f),
        deviation(pre).missed == 0,
    )
    return None if len(set(items)) == 1 else _pair_witness(f, items=list(items))


@claim("T3.2", EXTENSIONS)
def check_theorem_surjective(f: Mapping):
    """Six characterizations of surjectivity coincide."""
    tilde = direct_image_map(f)
    pre = preimage_map(f)
    items = (
        _surj_direct(f),
        tilde.is_surjective(),
        pre.is_injective(),
        image(f) == (1 << f.cod.size) - 1,
        _missed_mask(tilde) == 0,
        kernel_partition(pre) == discrete(pre.dom),
    )
    return None if len(set(items)) == 1 else _pair_witness(f, items=list(items))


@claim("T3.3", EXTENSIONS)
def check_theorem_bijective(f: Mapping):
    """Six characterizations of bijectivity coincide."""
    tilde = direct_image_map(f)
    pre = preimage_map(f)
    items = (
        _inj_direct(f) and _surj_direct(f),
        tilde.is_bijective(),
        pre.is_bijective(),
        kernel_partition(f) == discrete(f.dom) and image(f) == (1 << f.cod.size) - 1,
        kernel_partition(tilde) == discrete(tilde.dom) and _missed_mask(tilde) == 0,
        kernel_partition(pre) == discrete(pre.dom) and _missed_mask(pre) == 0,
    )
    return None if len(set(items)) == 1 else _pair_witness(f, items=list(items))


@claim("3.44-literal", EXTENSIONS, VERDICT_REFUTED)
def check_tilde_deviation_literal(f: Mapping):
    """Missed subsets of the extension of an injective mapping form the
    powerset of the complement of the image (literal reading, empty set
    aside); refuted, since subsets straddling image and complement are
    missed too.

    The empty set is never missed, so the claimed family is the nonempty
    subsets of the complement; it falls short as soon as both the image and
    its complement are nonempty.
    """
    tilde = direct_image_map(f)
    ny = f.cod.size
    comp = image(f) ^ ((1 << ny) - 1)
    claimed = sum(1 << b for b in range(1, 1 << ny) if b & ~comp == 0)
    missed = _missed_mask(tilde)
    literal_holds = kernel_partition(tilde) == discrete(tilde.dom) and missed == claimed
    if literal_holds == _inj_direct(f):
        return None
    return _pair_witness(
        f,
        missed_computed=_subsets(f.cod, missed),
        missed_claimed=_subsets(f.cod, claimed),
    )


@claim("3.44-computed", EXTENSIONS)
def check_tilde_deviation_computed(bound: int):
    """For injective mappings the extension misses exactly the subsets
    not contained in the image."""
    for f in mappings(bound):
        if _inj_direct(f):
            ok = _missed_mask(direct_image_map(f)) == _tilde_missed_expected(f)
            yield None if ok else _pair_witness(f)


@claim("3.58-3.61", POWERSETS)
def check_composition_identities(f: Mapping):
    """Preimage after extension is the identity for injective mappings, extension after
    restricted preimage is the inclusion of image subsets, extension after preimage is
    the identity for surjective mappings, and the restricted preimage is injective."""
    tilde = direct_image_map(f).table
    pre = preimage_map(f).table
    restricted = restrict_preimage_to_image(f)
    ok = (
        restricted.is_injective()
        and (not _inj_direct(f) or [pre[t] for t in tilde] == list(range(1 << f.dom.size)))
        # The restricted preimage is indexed by subsets of the image as
        # _image_subsets lists them, so extension after it is the inclusion.
        and [tilde[v] for v in restricted.table] == _image_subsets(image(f))
        and (not _surj_direct(f) or [tilde[v] for v in pre] == list(range(1 << f.cod.size)))
    )
    return None if ok else _pair_witness(f)


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


# Valid morphisms kept per pool space pair; the pool's triple and quadruple
# products of them stay small.
_MORPHISMS_PER_PAIR = 6


def _valid_morphisms(src: ChuSpace, dst: ChuSpace) -> list[ChuMorphism]:
    found = []
    for fwd in enumerate_mappings(src.points, dst.points):
        for bwd in enumerate_mappings(dst.states, src.states):
            m = ChuMorphism(fwd, bwd)
            if morphism_is_valid(m, src, dst):
                found.append(m)
                if len(found) >= _MORPHISMS_PER_PAIR:
                    return found
    return found


@claim("chu-category-laws", EXTENSIONS)
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


@claim("E-functoriality", EXTENSIONS)
def check_embedding_functorial(bound: int):
    """Embedding a composite equals composing the embeddings."""
    for nx, ny, nz in size_triples(bound):
        y = FiniteSet(ny)
        gs = [(g, embed(g)) for g in enumerate_mappings(y, FiniteSet(nz))]
        for f in enumerate_mappings(FiniteSet(nx), y):
            ef = embed(f)
            for g, eg in gs:
                ok = embed(f.then(g)) == compose(ef, eg)
                yield None if ok else _composite_witness(f, g)


@claim("E-faithfulness", EXTENSIONS)
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
def check_embedding_full(f: Mapping):
    """Between evaluation spaces every valid morphism has the forced
    backward component and hence is an embedded mapping."""
    # forced_backward solves adjointness for each target state; a unique
    # solution everywhere means f has exactly one valid backward map.
    backward = forced_backward(f)
    ok = backward is not None and ChuMorphism(f, backward) == embed(f)
    return None if ok else _pair_witness(f)


@claim("3.11-3.14", POWERSETS)
def check_evaluation_deviation(bound: int):
    """The evaluation matrix misses nothing and its kernel has exactly
    the member and non-member blocks, each of half the pairs."""
    for n in range(2, bound + 1):
        dev = ex_deviation(FiniteSet(n))
        states = 1 << n
        in_mask = sum(1 << (xv * states + a) for xv in range(n) for a in range(states) if a >> xv & 1)
        out_mask = ((1 << (n * states)) - 1) ^ in_mask
        expected_blocks = (out_mask, in_mask)
        # Blocks equal to these two masks make the kernel relation the
        # two-case membership rule, so no pairwise comparison can add to it.
        ok = (
            dev.missed == 0
            and dev.part.blocks == expected_blocks
            and all(blk.bit_count() == n * states // 2 for blk in dev.part.blocks)
        )
        yield None if ok else {"size": n}


@claim("3.5-composition-order", TRIPLES, VERDICT_REFUTED)
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
