import hashlib
import json

import pytest

from setdev.finset import FiniteSet
from setdev.verifier import (
    Universe,
    VERDICT_COUNTEREXAMPLE,
    VERDICT_REFUTED,
    VERDICT_SKIPPED,
    VERDICT_VERIFIED,
    check_all,
    check_claim,
    enumerate_mappings,
    machine_records,
    registry,
    text_report,
)

REGISTRY = registry()

SMALL = Universe(max_set_size=2, max_triple_size=2, max_group_order=4, max_powerset_base=2)
ZERO = Universe(max_set_size=0, max_triple_size=0, max_group_order=0, max_powerset_base=0)

EXPECTED_BY_KIND = {
    "universal": VERDICT_VERIFIED,
    "existential": VERDICT_COUNTEREXAMPLE,
    "report-only": VERDICT_REFUTED,
}


def test_enumerate_mappings_counts():
    assert sum(1 for _ in enumerate_mappings(FiniteSet(3), FiniteSet(3))) == 27
    assert sum(1 for _ in enumerate_mappings(FiniteSet(0), FiniteSet(5))) == 1
    assert sum(1 for _ in enumerate_mappings(FiniteSet(4), FiniteSet(4))) == 256
    assert sum(1 for _ in enumerate_mappings(FiniteSet(2), FiniteSet(0))) == 0
    tables = [f.table for f in enumerate_mappings(FiniteSet(2), FiniteSet(2))]
    assert tables == sorted(tables)


def test_enumerate_mappings_bound():
    with pytest.raises(ValueError):
        next(enumerate_mappings(FiniteSet(5), FiniteSet(2), limit=4))


def test_universe_validation():
    with pytest.raises(ValueError):
        Universe(max_set_size=-1)
    with pytest.raises(ValueError):
        Universe(max_powerset_base=13)


def test_registry_ids_unique_and_expected_verdicts_populated():
    assert len(REGISTRY) == len({c.id for c in REGISTRY.values()})
    for claim in REGISTRY.values():
        assert claim.kind in EXPECTED_BY_KIND
        assert claim.expected == EXPECTED_BY_KIND[claim.kind], claim.id
        assert claim.law


def test_unknown_claim_raises():
    with pytest.raises(KeyError):
        check_claim("NOPE", SMALL)


def test_dev2_incomparability_minimal_witness():
    witness = check_claim("T1.2-counterexample", Universe(max_triple_size=3)).witness
    assert witness is not None
    below = witness["dev2_f_strictly_below_g"]
    above = witness["dev2_g_strictly_below_f"]
    assert below["size"] == 2 and above["size"] == 2
    assert below["f"]["table"] == [0, 1] and below["g"]["table"] == [0, 0]
    assert above["f"]["table"] == [0, 0] and above["g"]["table"] == [0, 1]


def test_dev2_incomparability_needs_size_two():
    assert check_claim("T1.2-counterexample", Universe(max_triple_size=1)).witness is None


def test_rho_witness_minimal():
    witness = check_claim("rho-not-functor", Universe(max_set_size=3)).witness
    assert witness == {
        "x_size": 1,
        "y_size": 2,
        "f": {"dom": 1, "cod": 2, "table": [0]},
        "g": {"dom": 1, "cod": 2, "table": [1]},
        "kernel_f": [[0]],
        "kernel_g": [[0]],
        "image_f": [0],
        "image_g": [1],
    }


def test_literal_extension_claim_refuted_with_minimal_witness():
    report = check_claim("3.44-literal", Universe(max_powerset_base=3))
    assert report.verdict == VERDICT_REFUTED
    assert report.ok()  # refutation is the expected verdict
    assert report.witness["x_size"] == 1 and report.witness["y_size"] == 2
    assert report.witness["f"]["table"] == [0]
    assert report.witness["missed_computed"] == [[0, 1], [1]]
    assert report.witness["missed_claimed"] == [[1]]


def test_degenerate_universe_skips_or_verifies():
    for report in check_all(ZERO):
        assert report.verdict in (VERDICT_VERIFIED, VERDICT_SKIPPED)


def test_small_universe_composition_claims_still_verify():
    tiny = Universe(max_set_size=1, max_triple_size=1, max_group_order=2, max_powerset_base=1)
    assert check_claim("T1.1", tiny).verdict == VERDICT_VERIFIED
    assert check_claim("1.12", tiny).verdict == VERDICT_VERIFIED
    assert check_claim("T1.2-counterexample", tiny).verdict == VERDICT_SKIPPED


def test_monotone_universes():
    for claim_id in ("T1.1", "L3.1", "L2.1"):
        small = check_claim(claim_id, SMALL)
        bigger = check_claim(
            claim_id,
            Universe(max_set_size=3, max_triple_size=3, max_group_order=6, max_powerset_base=3),
        )
        assert small.verdict == VERDICT_VERIFIED
        assert bigger.verdict == VERDICT_VERIFIED
        assert bigger.instances >= small.instances


@pytest.mark.parametrize(
    "universe, digest",
    [
        (SMALL, "fcd235ea0728b91e596e1658624265f78dea9833bde0782b86065bb1e870444b"),
        # Everything skips or verifies here; 3.5-composition-order sweeps its one
        # size triple without a witness and reports skipped.
        (ZERO, "8d370162fd9e4e2bcd0d460780023a4a20b0955f6e9d741599a2ec37b9f56b27"),
    ],
    ids=["small", "zero"],
)
def test_machine_records_golden(universe, digest):
    # Pins every verdict, witness and instance count, byte for byte.
    text = machine_records(check_all(universe))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_reports_are_deterministic():
    first = machine_records(check_all(SMALL))
    second = machine_records(check_all(SMALL))
    assert first == second


def test_machine_records_schema():
    reports = [check_claim("T1.1", SMALL)]
    lines = machine_records(reports).strip().split("\n")
    claim_rec = json.loads(lines[0])
    summary = json.loads(lines[-1])
    assert claim_rec["schema"] == 1 and claim_rec["type"] == "claim"
    assert set(claim_rec) == {"schema", "type", "id", "verdict", "expected", "witness", "instances"}
    assert summary["type"] == "summary" and summary["all_expected"] is True
    timed = machine_records(reports, include_millis=True).strip().split("\n")
    assert "millis" in json.loads(timed[0])


def test_text_report_mentions_every_claim():
    reports = check_all(SMALL)
    text = text_report(reports)
    for r in reports:
        assert r.claim_id in text
