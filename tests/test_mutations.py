"""Planted faults: a claim refutes when one library name it calls lies.

Each row replaces a name in ``setdev.claims``' namespace by a version that
gives a wrong answer for one argument tuple and the honest answer for every
other, and pins the witness and instance count at which the claim refutes.
"""

import pytest

from setdev import claims
from setdev.abgroup import TRIVIAL_GROUP, FinAbGroup, GroupDeviation, GroupHom, devg
from setdev.chu import ChuMorphism, embed, ex_deviation
from setdev.finset import (
    Classification,
    Deviation,
    FiniteSet,
    Mapping,
    Partition,
    canonical_factorization,
    deviation,
    discrete,
    indiscrete,
)
from setdev.powerset import preimage_map
from setdev.verifier import VERDICT_REFUTED, Universe, check_claim, enumerate_mappings, size_triples


def _m(nx, ny, table):
    return Mapping(FiniteSet(nx), FiniteSet(ny), tuple(table))


def _pair(f, **extra):
    return {"x_size": f.dom.size, "y_size": f.cod.size, "f": f.to_json_dict(), **extra}


def _at(sizes, f, g):
    nx, ny, nz = sizes
    return {
        "sizes": sizes,
        "f": {"dom": nx, "cod": ny, "table": f},
        "g": {"dom": ny, "cod": nz, "table": g},
    }


# (0, 0, 1) : 3 -> 2 glues 0 and 1.
_GLUING = _m(3, 2, (0, 0, 1))
# (1) : 1 -> 2, an injective mapping that misses 0, and its preimage map.
_MISSES_0 = _m(1, 2, (1,))
_PRE = preimage_map(_MISSES_0)
_IDENTITY_1 = Mapping.identity(FiniteSet(1))
_IDENTITY_2 = Mapping.identity(FiniteSet(2))
_PRE_IDENTITY_2 = preimage_map(_IDENTITY_2)
_CONSTANT_2_1 = _m(2, 1, (0, 0))
_CONSTANT_2_2 = _m(2, 2, (0, 0))
_TWO, _THREE = FiniteSet(2), FiniteSet(3)
# {0, 1}{2}: the kernel of (0, 0, 1).
_GLUED = Partition(_THREE, (0b011, 0b100))
# (0, 0, 1) on three elements, first composed at (3, 2, 3) from f = (0, 0, 1)
# and g = (0, 1). Both f and g were composed before it in that signature,
# each time to a constant map, so a memo keyed by f alone or by g alone
# never asks for its kernel or image.
_COMPOSITE = _m(3, 3, (0, 0, 1))
# The zero hom from the trivial group into Z/2, whose matrix has one empty row.
_ZERO_INTO_Z2 = GroupHom(TRIVIAL_GROUP, FinAbGroup((2,)), ((),))
# The identity on Z/2, whose table over the element codes is b"\x00\x01".
_IDENTITY_Z2 = GroupHom(FinAbGroup((2,)), FinAbGroup((2,)), ((1,),))
_POWERSET_2 = Universe(max_powerset_base=2)
_TRIPLES_3 = Universe(max_triple_size=3)

ROWS = {
    # The factorization of (0, 1, 1) handed out for (0, 0, 1): it recomposes wrongly.
    "0.3-factorization": (
        "0.3", "canonical_factorization", (_GLUING,), canonical_factorization(_m(3, 2, (0, 1, 1))),
        Universe(max_set_size=3), _pair(_GLUING), 27,
    ),
    # A gluing mapping's deviation read with a discrete kernel.
    "1.3-deviation": (
        "1.3", "deviation", (_GLUING,), Deviation(discrete(_THREE), _TWO, 0),
        Universe(max_set_size=3), _pair(_GLUING, kernel=[[0], [1], [2]]), 27,
    ),
    # The surjective (0, 0, 1) classified as not surjective.
    "0.8-0.10-classify": (
        "0.8-0.10", "classify", (deviation(_GLUING),), Classification(False, False, False, False),
        Universe(max_set_size=3), _pair(_GLUING, flags=[]), 27,
    ),
    # The least deviation on 2 -> 2 not below that of the constant (0, 0).
    "L1.1-leq": (
        "L1.1", "deviation_leq",
        (Deviation(discrete(_TWO), _TWO, 0), Deviation(indiscrete(_TWO), _TWO, 0b10)), False,
        Universe(max_set_size=2), _pair(_CONSTANT_2_2), 8,
    ),
    # The least deviation on 2 -> 1, a signature without a bijection, not
    # below that of the constant (0, 0).
    "L1.1-leq-no-bijection": (
        "L1.1", "deviation_leq",
        (Deviation(discrete(_TWO), FiniteSet(1), 0), deviation(_CONSTANT_2_1)), False,
        Universe(max_set_size=2), _pair(_CONSTANT_2_1), 7,
    ),
    # The constant (0, 0) on 2 -> 2 reported with the least deviation, which
    # then no longer marks the bijections alone.
    "L1.1-deviation": (
        "L1.1", "deviation", (_CONSTANT_2_2,), Deviation(discrete(_TWO), _TWO, 0),
        Universe(max_set_size=2), _pair(_CONSTANT_2_2), 8,
    ),
    # The least group deviation on trivial -> Z/2 not below that of the zero hom.
    "L2.1-leq": (
        "L2.1", "devg_leq", (GroupDeviation(TRIVIAL_GROUP, TRIVIAL_GROUP), devg(_ZERO_INTO_Z2)), False,
        Universe(max_group_order=2), {"hom": _ZERO_INTO_Z2.to_json_dict(), "case": "least"}, 2,
    ),
    # The identity on Z/2 read as reaching 0 alone: no longer surjective.
    "L2.1-surjective": (
        "L2.1", "image_mask", (b"\x00\x01",), 1,
        Universe(max_group_order=2), {"hom": _IDENTITY_Z2.to_json_dict(), "case": "surjective"}, 5,
    ),
    # The identity on Z/2 read as killing 1: no longer injective.
    "L2.1-injective": (
        "L2.1", "kernel_mask", (b"\x00\x01",), 3,
        Universe(max_group_order=2), {"hom": _IDENTITY_Z2.to_json_dict(), "case": "injective"}, 5,
    ),
    # {0, 1} <= {0}{1} affirmed, so refinement is not antisymmetric.
    "partition-order-leq": (
        "partition-order", "partition_leq", (indiscrete(FiniteSet(2)), discrete(FiniteSet(2))), True,
        Universe(max_set_size=3), {"size": 2, "p": [[0, 1]], "q": [[0], [1]]}, 5,
    ),
    # {0}{1}{2} <= {0, 1, 2} denied, though {0}{1}{2} <= {0, 1}{2} <= {0, 1, 2}.
    "partition-order-transitive": (
        "partition-order", "partition_leq", (discrete(_THREE), indiscrete(_THREE)), False,
        Universe(max_set_size=3), {"size": 3, "p": [[0], [1], [2]], "q": [[0, 1], [2]], "r": [[0, 1, 2]]}, 10,
    ),
    # The composite's kernel read as discrete, below the kernel of f.
    "T1.1-kernel": (
        "T1.1", "kernel_partition", (_COMPOSITE,), discrete(_THREE),
        _TRIPLES_3, _at([3, 2, 3], [0, 0, 1], [0, 1]), 671,
    ),
    # {0, 1}{2} <= {0, 1}{2} denied. f = (0, 0, 1) met only constant
    # composites before, so a row read by f's kernel alone misses it.
    "T1.1-leq-row": (
        "T1.1", "partition_leq", (_GLUED, _GLUED), False,
        _TRIPLES_3, _at([3, 2, 2], [0, 0, 1], [0, 1]), 369,
    ),
    # {0, 1}{2} <= {0, 1, 2} denied. The constant f met the single block
    # first, so a column read by the composite's kernel alone misses it.
    "T1.1-leq-column": (
        "T1.1", "partition_leq", (_GLUED, indiscrete(_THREE)), False,
        _TRIPLES_3, _at([3, 2, 1], [0, 0, 1], [0, 0]), 161,
    ),
    # The composite's image read as everything, outside the image of g.
    "1.12-image": (
        "1.12", "image", (_COMPOSITE,), 0b111,
        _TRIPLES_3, _at([3, 2, 3], [0, 0, 1], [0, 1]), 671,
    ),
    # The extension of (1) sends the nonempty {0} to the empty set.
    "3.18-tilde": (
        "3.18", "direct_image_map", (_MISSES_0,), _m(2, 4, (0, 0)),
        _POWERSET_2, _pair(_MISSES_0, subset=[0]), 9,
    ),
    # The extension of the identity glues {0} and {1}: no longer injective.
    "L3.1-tilde": (
        "L3.1", "direct_image_map", (_IDENTITY_2,), _m(4, 4, (0, 1, 1, 3)),
        _POWERSET_2, _pair(_IDENTITY_2), 9,
    ),
    # The restricted preimage of (1) glues both subsets of its image.
    "L3.2-restricted": (
        "L3.2", "restrict_preimage_to_image", (_MISSES_0,), _m(2, 2, (0, 0)),
        _POWERSET_2, _pair(_MISSES_0), 6,
    ),
    # The restricted preimage of the identity swaps {0} and {1}: still
    # injective, but extension after it is no longer the inclusion.
    "3.58-3.61-restricted": (
        "3.58-3.61", "restrict_preimage_to_image", (_IDENTITY_2,), _m(4, 4, (0, 2, 1, 3)),
        _POWERSET_2, _pair(_IDENTITY_2), 9,
    ),
    # The preimage of the identity sends {0, 1} to {1}, which misses 0.
    "3.29-3.30-pre": (
        "3.29-3.30", "preimage_map", (_IDENTITY_2,), _m(4, 4, (0, 1, 2, 2)),
        _POWERSET_2, _pair(_IDENTITY_2), 9,
    ),
    # kappa read as constant, so it is no bijection.
    "L3.3a-kappa": (
        "L3.3a", "kappa", (_PRE,), _m(2, 2, (0, 0)), _POWERSET_2, _pair(_MISSES_0), 6,
    ),
    # The preimage map of (1), which misses 0, reported with a discrete
    # kernel: L3.3a reads that kernel off the deviation, so it takes (1) for surjective.
    "L3.3a-deviation": (
        "L3.3a", "deviation", (_PRE,), Deviation(discrete(FiniteSet(4)), _TWO, 0),
        _POWERSET_2, _pair(_MISSES_0), 6,
    ),
    # The same lie makes the injective mapping fail the injective form.
    "L3.3b-kappa": (
        "L3.3b", "kappa", (_PRE,), _m(2, 2, (0, 0)), _POWERSET_2, _pair(_MISSES_0), 6,
    ),
    # The preimage map of the identity reported as missing {0, 1}.
    "L3.3b-deviation": (
        "L3.3b", "deviation", (_PRE_IDENTITY_2,),
        Deviation(deviation(_PRE_IDENTITY_2).part, FiniteSet(4), 0b1000),
        _POWERSET_2, _pair(_IDENTITY_2), 9,
    ),
    # The identity on two elements reported as missing 1.
    "T3.2-image": (
        "T3.2", "image", (_IDENTITY_2,), 0b01,
        _POWERSET_2, _pair(_IDENTITY_2, items=[True, True, True, False, True, True]), 9,
    ),
    # The preimage map of the injective (1) reported as missing the subset {0}.
    "T3.1-deviation": (
        "T3.1", "deviation", (_PRE,), Deviation(deviation(_PRE).part, _TWO, 0b10),
        _POWERSET_2, _pair(_MISSES_0, items=[True, True, True, True, True, False]), 6,
    ),
    # The preimage of the identity sends {0, 1} to {1}: no longer a bijection.
    "T3.3-pre": (
        "T3.3", "preimage_map", (_IDENTITY_2,), _m(4, 4, (0, 1, 2, 2)),
        _POWERSET_2, _pair(_IDENTITY_2, items=[True, True, False, True, True, False]), 9,
    ),
    # The identity on one element reported as missing 0: the literal reading
    # then claims {0} as missed, which the extension reaches.
    "3.44-literal-image": (
        "3.44-literal", "image", (_IDENTITY_1,), 0,
        _POWERSET_2, _pair(_IDENTITY_1, missed_computed=[], missed_claimed=[[0]]), 4,
    ),
    # The constant 2 -> 1 embeds with a backward map that forgets every
    # subset; first met as the outer map g.
    "E-functoriality-embed": (
        "E-functoriality", "embed", (_CONSTANT_2_1,), ChuMorphism(_CONSTANT_2_1, _m(2, 4, (0, 0))),
        _POWERSET_2, _at([1, 2, 1], [0], [0, 0]), 15,
    ),
    # (1) : 1 -> 2 embeds as (0) does, so the embedding is not faithful.
    "E-faithfulness-embed": (
        "E-faithfulness", "embed", (_MISSES_0,), embed(_m(1, 2, (0,))),
        Universe(max_powerset_base=3), {**_pair(_m(1, 2, (0,))), "g": _MISSES_0.to_json_dict()}, 7,
    ),
    # The identity on one point composed with itself read with a backward
    # map that forgets every subset: the first embedded chain breaks.
    "chu-category-laws-compose": (
        "chu-category-laws", "compose", (embed(_IDENTITY_1), embed(_IDENTITY_1)),
        ChuMorphism(_IDENTITY_1, _m(2, 2, (0, 0))),
        _POWERSET_2,
        {"case": "embedded-chain", "sizes": [1, 1, 1, 1], **dict.fromkeys("fgh", _IDENTITY_1.to_json_dict())},
        57,
    ),
    # The evaluation matrix over three points reported as missing a letter.
    "3.11-3.14-ex-deviation": (
        "3.11-3.14", "ex_deviation", (_THREE,), Deviation(ex_deviation(_THREE).part, _TWO, 0b01),
        Universe(max_powerset_base=3), {"size": 3}, 2,
    ),
}


def _lie(monkeypatch, name, lied_about, answer):
    honest = getattr(claims, name)
    monkeypatch.setattr(claims, name, lambda *args: answer if args == lied_about else honest(*args))


@pytest.mark.parametrize(
    "claim_id, name, lied_about, answer, universe, witness, instances", list(ROWS.values()), ids=list(ROWS)
)
def test_claim_refutes_a_lie_about_one_argument(
    monkeypatch, claim_id, name, lied_about, answer, universe, witness, instances
):
    _lie(monkeypatch, name, lied_about, answer)
    report = check_claim(claim_id, universe)
    assert report.verdict == VERDICT_REFUTED
    assert (report.witness, report.instances) == (witness, instances)


def _triple_reference(universe, claim_id):
    """T1.1 or 1.12 as the plain loop over every f.then(g): (first witness, instances)."""
    instances = 0
    for nx, ny, nz in size_triples(universe.max_triple_size):
        y = FiniteSet(ny)
        for g in enumerate_mappings(y, FiniteSet(nz)):
            for f in enumerate_mappings(FiniteSet(nx), y):
                instances += 1
                h = f.then(g)
                if claim_id == "T1.1":
                    ok = claims.partition_leq(claims.kernel_partition(f), claims.kernel_partition(h))
                else:
                    ok = claims.image(h) & ~claims.image(g) == 0
                if not ok:
                    return {"sizes": [nx, ny, nz], "f": f.to_json_dict(), "g": g.to_json_dict()}, instances
    return None, instances


@pytest.mark.parametrize("row", [key for key, row in ROWS.items() if row[0] in ("T1.1", "1.12")])
def test_composite_rows_are_where_the_plain_loop_refutes(monkeypatch, row):
    # T1.1 and 1.12 memoise per distinct composite table and per pair of
    # kernels; their pinned witnesses are those of the loop without memos.
    claim_id, name, lied_about, answer, universe, witness, instances = ROWS[row]
    _lie(monkeypatch, name, lied_about, answer)
    assert _triple_reference(universe, claim_id) == (witness, instances)
