"""Acceptance suite: one test per criterion, printing one pass/fail line each.

Criteria are exhaustive at desk scale; the universe bounds and time budgets
used here are the contract for the whole package.
"""

import time

from setdev.chu import ex_deviation
from setdev.cli import main
from setdev.finset import FiniteSet
from setdev.verifier import (
    Universe,
    VERDICT_COUNTEREXAMPLE,
    VERDICT_REFUTED,
    VERDICT_VERIFIED,
    check_all,
    check_claim,
)


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" {detail}" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_factorization_exhaustive():
    start = time.perf_counter()
    report = check_claim("0.3", Universe(max_set_size=4))
    elapsed = time.perf_counter() - start
    _report(
        "factorization: surjection-bijection-injection recomposes, |X|,|Y| <= 4",
        report.verdict == VERDICT_VERIFIED and elapsed < 1.0,
        f"({report.instances} mappings, {elapsed:.2f}s)",
    )


def test_deviation_order_laws():
    start = time.perf_counter()
    least = check_claim("L1.1", Universe(max_set_size=4))
    mono = check_claim("T1.1", Universe(max_triple_size=3))
    outer = check_claim("1.12", Universe(max_triple_size=3))
    elapsed = time.perf_counter() - start
    _report(
        "least-deviation law at |X|,|Y| <= 4 and composition laws over triples <= 3",
        all(r.verdict == VERDICT_VERIFIED for r in (least, mono, outer)) and elapsed < 30.0,
        f"({least.instances}+{mono.instances}+{outer.instances} instances, {elapsed:.2f}s)",
    )


def test_missed_set_incomparability_witnessed_minimally():
    report = check_claim("T1.2-counterexample", Universe(max_triple_size=3))
    witness = report.witness or {}
    below = witness.get("dev2_f_strictly_below_g", {})
    above = witness.get("dev2_g_strictly_below_f", {})
    ok = (
        report.verdict == VERDICT_COUNTEREXAMPLE
        and below.get("size") == 2
        and above.get("size") == 2
        and below.get("f", {}).get("table") == [0, 1]
        and below.get("g", {}).get("table") == [0, 0]
        and above.get("f", {}).get("table") == [0, 0]
        and above.get("g", {}).get("table") == [0, 1]
    )
    _report("both strict missed-set patterns witnessed minimally at size 2", ok)


def test_group_deviations_and_composition():
    start = time.perf_counter()
    oracle = check_claim("devg-oracle", Universe(max_group_order=16))
    lemma = check_claim("L2.1", Universe(max_group_order=8))
    theorem = check_claim("T2.1", Universe(max_group_order=8))
    patterns = check_claim("T2.1-counterexample", Universe(max_group_order=8))
    elapsed = time.perf_counter() - start
    ok = (
        oracle.verdict == VERDICT_VERIFIED
        and lemma.verdict == VERDICT_VERIFIED
        and theorem.verdict == VERDICT_VERIFIED
        and patterns.verdict == VERDICT_COUNTEREXAMPLE
        and elapsed < 60.0
    )
    _report(
        "group deviations: normal-form route equals element-table route at order <= 16; "
        "lemma and composition laws at order <= 8; both strict patterns witnessed",
        ok,
        f"({oracle.instances} homs cross-checked, {theorem.instances} pairs, {elapsed:.1f}s)",
    )


def test_embeddability_fast_path_equals_oracle():
    report = check_claim("embeds-oracle", Universe(max_group_order=64))
    _report(
        "conjugate-partition criterion equals injective-hom search for orders <= 64",
        report.verdict == VERDICT_VERIFIED,
        f"({report.instances} group pairs)",
    )


def test_powerset_lemmas_and_theorems():
    lemma_universe = Universe(max_powerset_base=4)
    lemma_ids = ("3.18", "L3.1", "L3.2", "3.29-3.30", "L3.3a", "L3.3b", "3.58-3.61")
    theorem_ids = ("T3.1", "T3.2", "T3.3")
    reports = [check_claim(cid, lemma_universe) for cid in lemma_ids + theorem_ids]
    ok = all(r.verdict == VERDICT_VERIFIED for r in reports)
    _report(
        "powerset lemmas and identities at |X|,|Y| <= 4; equivalence theorems item-wise at <= 3",
        ok,
        f"({sum(r.instances for r in reports)} instances)",
    )


def test_literal_extension_deviation_shape():
    literal = check_claim("3.44-literal", Universe(max_powerset_base=3))
    computed = check_claim("3.44-computed", Universe(max_powerset_base=3))
    witness = literal.witness or {}
    ok = (
        literal.verdict == VERDICT_REFUTED
        and literal.ok()
        and witness.get("x_size") == 1
        and witness.get("y_size") == 2
        and computed.verdict == VERDICT_VERIFIED
    )
    _report(
        "literal extension-deviation shape refuted with minimal witness |X|=1,|Y|=2; "
        "computed form verified at <= 3",
        ok,
    )


def test_chu_embedding_and_evaluation():
    universe = Universe(max_powerset_base=4)
    ids = ("chu-category-laws", "E-functoriality", "E-faithfulness", "E-fullness", "3.11-3.14")
    reports = [check_claim(cid, universe) for cid in ids]
    sizes_ok = True
    for n in (2, 3, 4):
        dev = ex_deviation(FiniteSet(n))
        expected = n * (1 << (n - 1))
        sizes_ok = sizes_ok and [b.bit_count() for b in dev.part.blocks] == [expected, expected]
        sizes_ok = sizes_ok and dev.missed == 0
    _report(
        "category laws, functoriality, faithfulness, fullness at <= 3; "
        "evaluation deviation blocks of size n*2^(n-1) at 2 <= n <= 4",
        all(r.verdict == VERDICT_VERIFIED for r in reports) and sizes_ok,
    )


def test_full_registry_produces_expected_verdicts():
    reports = check_all(Universe())
    bad = [r.claim_id for r in reports if not r.ok()]
    _report(
        "every registered claim produces its expected verdict on the default universe",
        not bad,
        f"({len(reports)} claims{'; unexpected: ' + ', '.join(bad) if bad else ''})",
    )


def test_verify_runs_are_byte_identical(capsys):
    code_one = main(["--format", "machine", "verify"])
    first = capsys.readouterr().out
    code_two = main(["--format", "machine", "verify"])
    second = capsys.readouterr().out
    with capsys.disabled():
        _report(
            "two consecutive verify runs emit byte-identical machine reports",
            code_one == 0 and code_two == 0 and first == second and first != "",
        )
