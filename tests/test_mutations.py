"""Planted faults: a claim refutes when one library name it calls lies.

Each row replaces a name in ``setdev.claims``' namespace by a version that
gives a wrong answer for one argument tuple and the honest answer for every
other, and pins the witness and instance count at which the claim refutes.
"""

import pytest

from setdev import claims
from setdev.finset import FiniteSet, Mapping, discrete, indiscrete
from setdev.powerset import preimage_map
from setdev.verifier import VERDICT_REFUTED, Universe, check_claim

# (0, 0, 1) : 3 -> 2 glues 0 and 1.
_GLUING = Mapping(FiniteSet(3), FiniteSet(2), (0, 0, 1))
# The preimage map of (1) : 1 -> 2, an injective mapping that misses 0.
_PRE = preimage_map(Mapping(FiniteSet(1), FiniteSet(2), (1,)))
_MAPPING_1_2 = {"x_size": 1, "y_size": 2, "f": {"dom": 1, "cod": 2, "table": [1]}}


@pytest.mark.parametrize(
    "claim_id, name, lied_about, answer, universe, witness, instances",
    [
        # A gluing mapping's kernel read as discrete.
        (
            "1.3",
            "kernel_partition",
            (_GLUING,),
            discrete(FiniteSet(3)),
            Universe(max_set_size=3),
            {"x_size": 3, "y_size": 2, "f": _GLUING.to_json_dict(), "kernel": [[0], [1], [2]]},
            27,
        ),
        # {0, 1} <= {0}{1} affirmed, so refinement is not antisymmetric.
        (
            "partition-order",
            "partition_leq",
            (indiscrete(FiniteSet(2)), discrete(FiniteSet(2))),
            True,
            Universe(max_set_size=3),
            {"size": 2, "p": [[0, 1]], "q": [[0], [1]]},
            5,
        ),
        # kappa read as constant, so it is no bijection.
        ("L3.3a", "kappa", (_PRE,), Mapping(FiniteSet(2), FiniteSet(2), (0, 0)), Universe(max_powerset_base=2), _MAPPING_1_2, 6),
        # The same lie makes the injective mapping fail the injective form.
        ("L3.3b", "kappa", (_PRE,), Mapping(FiniteSet(2), FiniteSet(2), (0, 0)), Universe(max_powerset_base=2), _MAPPING_1_2, 6),
    ],
    ids=["1.3-kernel", "partition-order-leq", "L3.3a-kappa", "L3.3b-kappa"],
)
def test_claim_refutes_a_lie_about_one_argument(
    monkeypatch, claim_id, name, lied_about, answer, universe, witness, instances
):
    honest = getattr(claims, name)
    monkeypatch.setattr(claims, name, lambda *args: answer if args == lied_about else honest(*args))
    report = check_claim(claim_id, universe)
    assert report.verdict == VERDICT_REFUTED
    assert (report.witness, report.instances) == (witness, instances)
