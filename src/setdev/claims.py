"""The claim registry: every law of the deviation calculus, made executable.

Each claim is a generator decorated with ``@claim``. It sweeps its slice of
the universe in a fixed order and yields one item per instance: None when
the instance passes, or the witness. The driver in ``verifier`` counts the
items, stops at the first witness and turns the claim's kind into a
verdict, so witnesses are minimal for the enumeration order. Direct
definitional tests used as the second route of a cross-check are written
out literally here rather than reusing library shortcuts.
"""

from __future__ import annotations

import random
from itertools import product

from .abgroup import (
    devg1,
    devg1_oracle,
    devg2,
    devg2_oracle,
    element_table,
    embeds_in,
    embeds_in_oracle,
    enumerate_groups,
    enumerate_homs,
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
    FiniteSet,
    Mapping,
    SubsetOf,
    all_partitions,
    canonical_factorization,
    classify,
    discrete,
    deviation,
    image,
    indiscrete,
    kernel_partition,
    partition_leq,
)
from .powerset import direct_image_map, kappa, preimage_map, restrict_preimage_to_image
from .verifier import (
    VERDICT_COUNTEREXAMPLE,
    VERDICT_REFUTED,
    VERDICT_SKIPPED,
    Universe,
    claim,
    enumerate_mappings,
    mappings,
    size_pairs,
    size_triples,
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
        if not any(v == y for v in f.table):
            return False
    return True


def _const_direct(f: Mapping) -> bool:
    n = len(f.table)
    for i in range(n):
        for j in range(n):
            if f.table[i] != f.table[j]:
                return False
    return True


def _pair_witness(nx: int, ny: int, f: Mapping, **extra) -> dict:
    return {"x_size": nx, "y_size": ny, "f": f.to_json_dict(), **extra}


def _subsets(y: FiniteSet, family: int) -> list[list[int]]:
    """The subsets of y whose bits are set in family, a bitmask over P(y)."""
    return sorted(SubsetOf(y, b).to_list() for b in range(1 << y.size) if family >> b & 1)


def _composite_witness(sizes: list[int], f: Mapping, g: Mapping) -> dict:
    return {"sizes": sizes, "f": f.to_json_dict(), "g": g.to_json_dict()}


# --- mappings, factorization, deviation order ------------------------------


@claim("0.3", "every mapping factors as surjection, bijection, injection, recomposing to itself")
def check_factorization(u: Universe):
    for nx, ny, f in mappings(u.max_set_size):
        fact = canonical_factorization(f)
        ok = (
            fact.proj.is_surjective()
            and fact.mid.is_bijective()
            and fact.incl.is_injective()
            and fact.recompose().table == f.table
        )
        yield None if ok else _pair_witness(nx, ny, f)


@claim("0.8-0.10", "classification flags read off the deviation agree with the direct definitions")
def check_classification(u: Universe):
    for nx, ny, f in mappings(u.max_set_size):
        c = classify(f)
        ok = (
            c.injective == _inj_direct(f)
            and c.surjective == _surj_direct(f)
            and c.bijective == (_inj_direct(f) and _surj_direct(f))
            and c.constant == _const_direct(f)
        )
        yield None if ok else _pair_witness(nx, ny, f, flags=list(c.flags()))


@claim(
    "1.3",
    "kernel partitions sit between discrete and single-block, with equality "
    "exactly for injective and constant mappings",
)
def check_kernel_bounds(u: Universe):
    for nx, ny in size_pairs(u.max_set_size):
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
            yield None if ok else _pair_witness(nx, ny, f, kernel=part.to_lists())


@claim(
    "partition-order",
    "refinement is reflexive, antisymmetric on canonical forms, and transitive",
)
def check_partition_order(u: Universe):
    for n in range(u.max_set_size + 1):
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


@claim(
    "L1.1",
    "a mapping is bijective iff its deviation is (discrete, empty) and lies "
    "below the deviation of every mapping with the same signature",
)
def check_least_deviation(u: Universe):
    for nx, ny in size_pairs(u.max_set_size):
        x = FiniteSet(nx)
        maps = list(enumerate_mappings(x, FiniteSet(ny)))
        parts = [kernel_partition(f) for f in maps]
        imgs = [image(f).bits for f in maps]
        distinct_parts = set(parts)
        distinct_imgs = set(imgs)
        bottom = discrete(x)
        full = (1 << ny) - 1
        for f, part, img in zip(maps, parts, imgs):
            bij = _inj_direct(f) and _surj_direct(f)
            least = (
                part == bottom
                and img == full
                and all(partition_leq(part, p) for p in distinct_parts)
                and all(other & ~img == 0 for other in distinct_imgs)
            )
            yield None if bij == least else _pair_witness(nx, ny, f)


@claim(
    "T1.1",
    "the kernel partition of f refines the kernel partition of any composite g after f",
)
def check_dev1_monotone(u: Universe):
    for nx, ny, nz in size_triples(u.max_triple_size):
        y = FiniteSet(ny)
        fs = list(enumerate_mappings(FiniteSet(nx), y))
        parts_f = [kernel_partition(f) for f in fs]
        part_cache: dict[tuple[int, ...], object] = {}
        for g in enumerate_mappings(y, FiniteSet(nz)):
            for f, part_f in zip(fs, parts_f):
                h = f.then(g)
                if h.table not in part_cache:
                    part_cache[h.table] = kernel_partition(h)
                ok = partition_leq(part_f, part_cache[h.table])
                yield None if ok else _composite_witness([nx, ny, nz], f, g)


@claim(
    "1.12",
    "the missed set of the outer mapping is contained in the missed set of the composite",
)
def check_dev2_outer(u: Universe):
    for nx, ny, nz in size_triples(u.max_triple_size):
        y = FiniteSet(ny)
        fs = list(enumerate_mappings(FiniteSet(nx), y))
        for g in enumerate_mappings(y, FiniteSet(nz)):
            img_g = image(g).bits
            for f in fs:
                ok = image(f.then(g)).bits & ~img_g == 0
                yield None if ok else _composite_witness([nx, ny, nz], f, g)


@claim(
    "T1.2-counterexample",
    "missed sets of inner and outer mappings admit strict inclusions in both "
    "directions, so no fixed comparison holds",
    kind="existential",
    expected=VERDICT_COUNTEREXAMPLE,
)
def check_dev2_incomparable(u: Universe):
    first = second = None
    for n in range(u.max_triple_size + 1):
        maps = list(enumerate_mappings(FiniteSet(n), FiniteSet(n)))
        devs = [image(f).complement().bits for f in maps]
        for (f, df), (g, dg) in product(zip(maps, devs), repeat=2):
            if first is None and df & ~dg == 0 and df != dg:
                first = {"size": n, "f": f.to_json_dict(), "g": g.to_json_dict()}
            if second is None and dg & ~df == 0 and df != dg:
                second = {"size": n, "f": f.to_json_dict(), "g": g.to_json_dict()}
            if first and second:
                yield {"dev2_f_strictly_below_g": first, "dev2_g_strictly_below_f": second}
            else:
                yield None


@claim(
    "rho-not-functor",
    "the induced-bijection assignment has no fixed object part: its domain "
    "and codomain vary with the mapping",
    kind="existential",
    expected=VERDICT_COUNTEREXAMPLE,
)
def check_rho_not_functor(u: Universe):
    for nx, ny in size_pairs(u.max_set_size):
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
                    "image_f": img_f.to_list(),
                    "image_g": img_g.to_list(),
                }


# --- group deviations -------------------------------------------------------


@claim(
    "devg-oracle",
    "lattice/normal-form quotients equal element-table coset quotients for "
    "both deviation components of every homomorphism",
)
def check_devg_oracle(u: Universe):
    bound = min(u.max_group_order, 16)
    groups = enumerate_groups(bound)
    for a, b in product(groups, repeat=2):
        for f in enumerate_homs(a, b, max_order=bound):
            if devg1(f) == devg1_oracle(f) and devg2(f) == devg2_oracle(f):
                yield None
                continue
            yield {
                "hom": f.to_json_dict(),
                "devg1": list(devg1(f).factors),
                "devg1_oracle": list(devg1_oracle(f).factors),
                "devg2": list(devg2(f).factors),
                "devg2_oracle": list(devg2_oracle(f).factors),
            }


@claim(
    "L2.1",
    "a homomorphism is an isomorphism iff its group deviation is (domain, trivial) "
    "and lies below every other; surjective iff the second component is trivial; "
    "injective iff the first is the whole domain",
)
def check_group_lemma(u: Universe):
    bound = min(u.max_group_order, 16)
    groups = enumerate_groups(bound)
    for a in groups:
        ta = element_table(a)
        nonzero = [e for e in ta.elements if e != ta.zero()]
        for b in groups:
            homs = list(enumerate_homs(a, b, max_order=bound))
            d1s = [devg1(f) for f in homs]
            d2s = [devg2(f) for f in homs]
            distinct1 = set(d1s)
            distinct2 = set(d2s)
            zero_b = (0,) * len(b.factors)
            for f, d1, d2 in zip(homs, d1s, d2s):
                inj = all(f.apply(e) != zero_b for e in nonzero)
                surj = len({f.apply(e) for e in ta.elements}) == b.order()
                if surj != d2.is_trivial():
                    yield {"hom": f.to_json_dict(), "case": "surjective"}
                elif inj != (d1 == a):
                    yield {"hom": f.to_json_dict(), "case": "injective"}
                elif (inj and surj) != (
                    d1 == a
                    and d2.is_trivial()
                    and all(embeds_in(other, d1) for other in distinct1)
                    and all(embeds_in(d2, other) for other in distinct2)
                ):
                    yield {"hom": f.to_json_dict(), "case": "isomorphism"}
                else:
                    yield None


@claim(
    "T2.1",
    "under composition the first deviation component of the composite embeds "
    "in that of the inner map, and the second component of the outer map "
    "embeds in that of the composite",
)
def check_group_composition(u: Universe):
    bound = min(u.max_group_order, 8)
    groups = enumerate_groups(bound)
    for a, b in product(groups, repeat=2):
        fs = list(enumerate_homs(a, b, max_order=bound))
        fdevs = [devg1(f) for f in fs]
        for c in groups:
            for g in enumerate_homs(b, c, max_order=bound):
                d2g = devg2(g)
                for f, d1f in zip(fs, fdevs):
                    h = f.then(g)
                    if not embeds_in(devg1(h), d1f):
                        yield {"f": f.to_json_dict(), "g": g.to_json_dict(), "case": "first"}
                    elif not embeds_in(d2g, devg2(h)):
                        yield {"f": f.to_json_dict(), "g": g.to_json_dict(), "case": "second"}
                    else:
                        yield None


@claim(
    "T2.1-counterexample",
    "second components of inner and outer homomorphisms admit strict "
    "embeddings in both directions, so no fixed comparison holds",
    kind="existential",
    expected=VERDICT_COUNTEREXAMPLE,
)
def check_devg2_incomparable(u: Universe):
    bound = min(u.max_group_order, 8)
    first = second = None
    for x in enumerate_groups(bound):
        homs = list(enumerate_homs(x, x, max_order=bound))
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


@claim(
    "embeds-oracle",
    "the conjugate-partition embedding criterion agrees with an exhaustive "
    "injective-homomorphism search",
)
def check_embeds_oracle(u: Universe):
    groups = enumerate_groups(min(u.max_group_order, 64))
    for a, b in product(groups, repeat=2):
        fast, oracle = embeds_in(a, b), embeds_in_oracle(a, b)
        if fast == oracle:
            yield None
        else:
            yield {"a": list(a.factors), "b": list(b.factors), "fast": fast, "oracle": oracle}


# --- powerset maps ----------------------------------------------------------


@claim("3.18", "the subset extension sends exactly the empty set to the empty set")
def check_tilde_empty(u: Universe):
    for nx, ny, f in mappings(u.max_powerset_base):
        for a, fa in enumerate(direct_image_map(f).table):
            ok = (fa == 0) == (a == 0)
            yield None if ok else _pair_witness(nx, ny, f, subset=SubsetOf(f.dom, a).to_list())


@claim("L3.1", "a mapping and its subset extension are injective, surjective, bijective together")
def check_tilde_lemma(u: Universe):
    for nx, ny, f in mappings(u.max_powerset_base):
        tilde = direct_image_map(f)
        ok = (
            (_inj_direct(f) == tilde.is_injective())
            and (_surj_direct(f) == tilde.is_surjective())
            and ((_inj_direct(f) and _surj_direct(f)) == tilde.is_bijective())
        )
        yield None if ok else _pair_witness(nx, ny, f)


@claim(
    "L3.2",
    "the preimage map is surjective iff the mapping is injective, injective "
    "iff it is surjective, and its restriction to subsets of the image is "
    "always injective",
)
def check_preimage_lemma(u: Universe):
    for nx, ny, f in mappings(u.max_powerset_base):
        pre = preimage_map(f)
        restricted = restrict_preimage_to_image(f)
        ok = (
            (pre.is_surjective() == _inj_direct(f))
            and restricted.is_injective()
            and (pre.is_injective() == _surj_direct(f))
            and (pre.is_bijective() == (_inj_direct(f) and _surj_direct(f)))
        )
        yield None if ok else _pair_witness(nx, ny, f)


@claim(
    "3.29-3.30",
    "every subset sits inside the preimage of its image, with equality for "
    "all subsets exactly when the mapping is injective; taking images "
    "retracts preimages on subsets of the image",
)
def check_galois_identities(u: Universe):
    for nx, ny, f in mappings(u.max_powerset_base):
        tilde = direct_image_map(f)
        pre = preimage_map(f)
        img = image(f).bits
        expand_ok = all(a & ~pre.table[tilde.table[a]] == 0 for a in range(1 << nx))
        equal_all = all(pre.table[tilde.table[a]] == a for a in range(1 << nx))
        collapse_ok = all(
            tilde.table[pre.table[v]] == v for v in range(1 << ny) if v & ~img == 0
        )
        ok = expand_ok and collapse_ok and (equal_all == _inj_direct(f))
        yield None if ok else _pair_witness(nx, ny, f)


@claim(
    "L3.3a",
    "subsets of the image enumerate the kernel classes of the preimage map "
    "bijectively, and that kernel is discrete exactly for surjective mappings",
)
def check_kappa_lemma(u: Universe):
    for nx, ny, f in mappings(u.max_powerset_base):
        pre = preimage_map(f)
        ka = kappa(f)
        bijection = ka.is_injective() and ka.is_surjective()
        discrete_on_py = kernel_partition(pre) == discrete(pre.dom)
        ok = bijection and discrete_on_py == _surj_direct(f)
        yield None if ok else _pair_witness(nx, ny, f)


@claim(
    "L3.3b",
    "the deviation of the preimage map characterizes injectivity, "
    "surjectivity, and bijectivity of the original mapping",
)
def check_preimage_deviation_lemma(u: Universe):
    for nx, ny, f in mappings(u.max_powerset_base):
        pre = preimage_map(f)
        dev = deviation(pre)
        ka = kappa(f)
        kappa_bijection = ka.is_injective() and ka.is_surjective()
        injective_form = dev.missed.bits == 0 and kappa_bijection
        surjective_form = dev.part == discrete(pre.dom)
        bijective_form = surjective_form and dev.missed.bits == 0
        ok = (
            injective_form == _inj_direct(f)
            and surjective_form == _surj_direct(f)
            and bijective_form == (_inj_direct(f) and _surj_direct(f))
        )
        yield None if ok else _pair_witness(nx, ny, f)


def _tilde_missed_expected(f: Mapping) -> int:
    # Bitmask over P(cod): subsets not contained in the image.
    img = image(f).bits
    return sum(1 << b for b in range(1 << f.cod.size) if b & ~img)


def _missed_mask(g: Mapping) -> int:
    hit = 0
    for v in g.table:
        hit |= 1 << v
    return ~hit & ((1 << g.cod.size) - 1)


@claim(
    "T3.1",
    "six characterizations of injectivity coincide: the mapping, its subset "
    "extension, preimage surjectivity, and the three deviation shapes "
    "(with the extension's missed set in computed form)",
)
def check_theorem_injective(u: Universe):
    for nx, ny, f in mappings(min(u.max_powerset_base, 3)):
        tilde = direct_image_map(f)
        pre = preimage_map(f)
        items = (
            _inj_direct(f),
            tilde.is_injective(),
            pre.is_surjective(),
            kernel_partition(f) == discrete(f.dom),
            kernel_partition(tilde) == discrete(tilde.dom)
            and _missed_mask(tilde) == _tilde_missed_expected(f),
            deviation(pre).missed.bits == 0,
        )
        yield None if len(set(items)) == 1 else _pair_witness(nx, ny, f, items=list(items))


@claim("T3.2", "six characterizations of surjectivity coincide")
def check_theorem_surjective(u: Universe):
    for nx, ny, f in mappings(min(u.max_powerset_base, 3)):
        tilde = direct_image_map(f)
        pre = preimage_map(f)
        items = (
            _surj_direct(f),
            tilde.is_surjective(),
            pre.is_injective(),
            image(f).complement().bits == 0,
            _missed_mask(tilde) == 0,
            kernel_partition(pre) == discrete(pre.dom),
        )
        yield None if len(set(items)) == 1 else _pair_witness(nx, ny, f, items=list(items))


@claim("T3.3", "six characterizations of bijectivity coincide")
def check_theorem_bijective(u: Universe):
    for nx, ny, f in mappings(min(u.max_powerset_base, 3)):
        tilde = direct_image_map(f)
        pre = preimage_map(f)
        items = (
            _inj_direct(f) and _surj_direct(f),
            tilde.is_bijective(),
            pre.is_bijective(),
            kernel_partition(f) == discrete(f.dom) and image(f).complement().bits == 0,
            kernel_partition(tilde) == discrete(tilde.dom) and _missed_mask(tilde) == 0,
            kernel_partition(pre) == discrete(pre.dom) and _missed_mask(pre) == 0,
        )
        yield None if len(set(items)) == 1 else _pair_witness(nx, ny, f, items=list(items))


@claim(
    "3.44-literal",
    "missed subsets of the extension of an injective mapping form the "
    "powerset of the complement of the image (literal reading, empty set "
    "aside); refuted, since subsets straddling image and complement are missed too",
    kind="report-only",
    expected=VERDICT_REFUTED,
)
def check_tilde_deviation_literal(u: Universe):
    """Literal missed-set shape for the subset extension of an injective map.

    The claimed missed set is the family of nonempty subsets drawn from the
    complement of the image (the empty set can never be missed). Computed and
    claimed families disagree as soon as the complement and the image are
    both nonempty, since any subset straddling the two is missed but not
    claimed.
    """
    for nx, ny, f in mappings(min(u.max_powerset_base, 3)):
        tilde = direct_image_map(f)
        comp = image(f).complement().bits
        claimed = sum(1 << b for b in range(1, 1 << ny) if b & ~comp == 0)
        missed = _missed_mask(tilde)
        literal_holds = kernel_partition(tilde) == discrete(tilde.dom) and missed == claimed
        if literal_holds == _inj_direct(f):
            yield None
            continue
        yield _pair_witness(
            nx,
            ny,
            f,
            missed_computed=_subsets(f.cod, missed),
            missed_claimed=_subsets(f.cod, claimed),
        )


@claim(
    "3.44-computed",
    "for injective mappings the extension misses exactly the subsets not "
    "contained in the image",
)
def check_tilde_deviation_computed(u: Universe):
    for nx, ny, f in mappings(min(u.max_powerset_base, 3)):
        if _inj_direct(f):
            ok = _missed_mask(direct_image_map(f)) == _tilde_missed_expected(f)
            yield None if ok else _pair_witness(nx, ny, f)


def _composition_identities_hold(f: Mapping) -> bool:
    tilde = direct_image_map(f)
    pre = preimage_map(f)
    restricted = restrict_preimage_to_image(f)
    if not restricted.is_injective():
        return False
    if _inj_direct(f) and any(pre.table[tilde.table[a]] != a for a in range(1 << f.dom.size)):
        return False
    img = image(f).elements()
    for v in range(1 << len(img)):
        ybits = 0
        for j, yy in enumerate(img):
            if v >> j & 1:
                ybits |= 1 << yy
        if tilde.table[restricted.table[v]] != ybits:
            return False
    return not _surj_direct(f) or all(
        tilde.table[pre.table[v]] == v for v in range(1 << f.cod.size)
    )


@claim(
    "3.58-3.61",
    "preimage after extension is the identity for injective mappings, "
    "extension after restricted preimage is the inclusion of image subsets, "
    "extension after preimage is the identity for surjective mappings, and "
    "the restricted preimage is injective",
)
def check_composition_identities(u: Universe):
    for nx, ny, f in mappings(u.max_powerset_base):
        yield None if _composition_identities_hold(f) else _pair_witness(nx, ny, f)


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


def _valid_morphisms(src: ChuSpace, dst: ChuSpace, limit: int) -> list[ChuMorphism]:
    found = []
    for fwd in enumerate_mappings(src.points, dst.points):
        for bwd in enumerate_mappings(dst.states, src.states):
            m = ChuMorphism(fwd, bwd)
            if morphism_is_valid(m, src, dst):
                found.append(m)
                if len(found) >= limit:
                    return found
    return found


@claim(
    "chu-category-laws",
    "identities are valid and neutral, composites of valid morphisms are "
    "valid, and composition is associative",
)
def check_chu_category_laws(u: Universe):
    bound = min(u.max_powerset_base, 3)
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
    # deterministic pool (at most six morphisms per space pair).
    indices = range(len(pool))
    valid = {
        (i, j): _valid_morphisms(pool[i], pool[j], limit=6)
        for i, j in product(indices, repeat=2)
    }
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


@claim("E-functoriality", "embedding a composite equals composing the embeddings")
def check_embedding_functorial(u: Universe):
    for nx, ny, nz in size_triples(min(u.max_powerset_base, 3)):
        y = FiniteSet(ny)
        for f in enumerate_mappings(FiniteSet(nx), y):
            ef = embed(f)
            for g in enumerate_mappings(y, FiniteSet(nz)):
                ok = embed(f.then(g)) == compose(ef, embed(g))
                yield None if ok else _composite_witness([nx, ny, nz], f, g)


@claim("E-faithfulness", "distinct mappings embed to distinct morphisms")
def check_embedding_faithful(u: Universe):
    # Equal morphisms have equal carriers, so one table serves every signature.
    seen: dict[ChuMorphism, Mapping] = {}
    for nx, ny, f in mappings(min(u.max_powerset_base, 3)):
        m = embed(f)
        if m in seen:
            yield {"x_size": nx, "y_size": ny, "f": seen[m].to_json_dict(), "g": f.to_json_dict()}
        else:
            seen[m] = f
            yield None


@claim(
    "E-fullness",
    "between evaluation spaces every valid morphism has the forced backward "
    "component and hence is an embedded mapping",
)
def check_embedding_full(u: Universe):
    for nx, ny in size_pairs(min(u.max_powerset_base, 3)):
        x, y = FiniteSet(nx), FiniteSet(ny)
        ex, ey = e_space(x), e_space(y)
        # A state is recoverable from its column, so validity pins the
        # backward image of every state pointwise.
        columns = {tuple(ex.matrix[p][a] for p in range(nx)) for a in range(ex.states.size)}
        if len(columns) != ex.states.size:
            yield {"x_size": nx, "case": "states-not-separated"}
        for f in enumerate_mappings(x, y):
            m = ChuMorphism(f, forced_backward(f))
            ok = morphism_is_valid(m, ex, ey) and m == embed(f)
            yield None if ok else _pair_witness(nx, ny, f)


@claim(
    "3.11-3.14",
    "the evaluation matrix misses nothing and its kernel has exactly the "
    "member and non-member blocks, each of half the pairs",
)
def check_evaluation_deviation(u: Universe):
    for n in range(2, u.max_powerset_base + 1):
        dev = ex_deviation(FiniteSet(n))
        states = 1 << n
        flat = FiniteSet(n * states)
        in_mask = sum(1 << (xv * states + a) for xv in range(n) for a in range(states) if a >> xv & 1)
        out_mask = ((1 << (n * states)) - 1) ^ in_mask
        expected_blocks = (SubsetOf(flat, out_mask), SubsetOf(flat, in_mask))
        ok = (
            dev.missed.bits == 0
            and dev.part.blocks == expected_blocks
            and all(len(blk) == n * states // 2 for blk in dev.part.blocks)
        )
        if not ok:
            yield {"size": n}
            continue
        # The kernel relation is the two-case membership rule, pairwise.
        for idx1, idx2 in product(range(n * states), repeat=2):
            same_rule = (in_mask >> idx1 & 1) == (in_mask >> idx2 & 1)
            same_block = dev.part.block_index(idx1) == dev.part.block_index(idx2)
            if same_rule != same_block:
                yield {"size": n, "pair": [idx1, idx2]}
                break
        else:
            yield None


@claim(
    "3.5-composition-order",
    "the printed composition order for forward parts only typechecks when "
    "the end carriers coincide; composition must chain diagrammatically",
    kind="report-only",
    expected=VERDICT_REFUTED,
)
def check_composition_reading(u: Universe):
    """The forward parts of a composite must chain source to target.

    Reading the composition rule with the outer forward applied second only
    typechecks when the outer domain equals the inner codomain; the first
    composable pair with distinct end carriers is a witness that the reading
    as printed cannot be meant applicatively.
    """
    reason = "outer forward expects the first carrier, inner forward lands in the third"
    for nx, ny, nz in size_triples(u.max_triple_size):
        yield None if nx == nz else {"sizes": [nx, ny, nz], "reason": reason}
    # Only reached when every end carrier coincides (max_triple_size 0):
    # nothing could refute the reading, and nothing was shown to verify it.
    return VERDICT_SKIPPED
