"""Claim engine: bounded universes, one sweep driver, deterministic reports.

Every structural law of the deviation calculus is registered with ``@claim``
under a stable id, with a body and the verdict it is expected to produce.
A body is a generator over a bounded universe. It yields one item per
instance it checks: None when the instance passes, or a witness dict.

``check_claim`` is the one driver. It counts the items (the one carrying
the witness included), stops at the first witness, and derives the verdict
from the claim's kind: a universal or report-only claim is refuted-as-stated
with a witness and verified without one; an existential claim is
counterexample-found-as-required with a witness and skipped without one.
Enumeration order is fixed (sizes by total, then lexicographic), so for a
fixed universe two runs produce identical reports and reported witnesses
are minimal for their claim.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Generator, Iterator

from .finset import FiniteSet, Mapping
from .powerset import MAX_BASE

VERDICT_VERIFIED = "verified"
VERDICT_COUNTEREXAMPLE = "counterexample-found-as-required"
VERDICT_REFUTED = "refuted-as-stated"
VERDICT_SKIPPED = "skipped"

VERDICTS = (VERDICT_VERIFIED, VERDICT_COUNTEREXAMPLE, VERDICT_REFUTED, VERDICT_SKIPPED)

MACHINE_SCHEMA = 1


@dataclass(frozen=True)
class Universe:
    """Bounds for the exhaustive sweeps."""

    max_set_size: int = 4
    max_triple_size: int = 3
    max_group_order: int = 12
    max_powerset_base: int = 4

    def __post_init__(self) -> None:
        for name in ("max_set_size", "max_triple_size", "max_group_order", "max_powerset_base"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.max_powerset_base > MAX_BASE:
            raise ValueError(f"max_powerset_base is capped at {MAX_BASE}")


# kind -> (verdict when the body yields a witness, verdict when it yields none)
VERDICTS_BY_KIND = {
    "universal": (VERDICT_REFUTED, VERDICT_VERIFIED),
    "existential": (VERDICT_COUNTEREXAMPLE, VERDICT_SKIPPED),
    "report-only": (VERDICT_REFUTED, VERDICT_VERIFIED),
}

# One item per instance checked: None when it passes, else the witness.
ClaimBody = Callable[[Universe], Generator[object, None, "str | None"]]


@dataclass(frozen=True)
class Claim:
    """One law bound to the body that sweeps it and its expected verdict."""

    id: str
    law: str
    kind: str  # "universal" | "existential" | "report-only"
    expected: str
    body: ClaimBody = field(compare=False, repr=False)


@dataclass(frozen=True)
class Report:
    claim_id: str
    verdict: str
    expected: str
    witness: object
    instances: int
    elapsed_ms: float

    def ok(self) -> bool:
        return self.verdict == self.expected


REGISTRY: dict[str, Claim] = {}


def claim(
    claim_id: str, law: str, kind: str = "universal", expected: str = VERDICT_VERIFIED
) -> Callable[[ClaimBody], ClaimBody]:
    """Register the decorated generator as the body of claim ``claim_id``."""
    if kind not in VERDICTS_BY_KIND:
        raise ValueError(f"unknown claim kind {kind}")

    def register(body: ClaimBody) -> ClaimBody:
        if claim_id in REGISTRY:
            raise AssertionError(f"duplicate claim id {claim_id}")
        REGISTRY[claim_id] = Claim(claim_id, law, kind, expected, body)
        return body

    return register


def enumerate_mappings(dom: FiniteSet, cod: FiniteSet) -> Iterator[Mapping]:
    """All mappings dom -> cod, lexicographic by table."""
    for table in product(range(cod.size), repeat=dom.size):
        yield Mapping(dom, cod, table)


def size_pairs(max_size: int) -> Iterator[tuple[int, int]]:
    """Signature sizes ordered by total, then first component."""
    for total in range(2 * max_size + 1):
        for nx in range(max_size + 1):
            ny = total - nx
            if 0 <= ny <= max_size:
                yield nx, ny


def size_triples(max_size: int) -> Iterator[tuple[int, int, int]]:
    for total in range(3 * max_size + 1):
        for nx in range(max_size + 1):
            for ny in range(max_size + 1):
                nz = total - nx - ny
                if 0 <= nz <= max_size:
                    yield nx, ny, nz


def mappings(bound: int) -> Iterator[tuple[int, int, Mapping]]:
    """(nx, ny, f) for every mapping between carriers of size at most bound,
    signatures in size_pairs order, tables lexicographic within each."""
    for nx, ny in size_pairs(bound):
        for f in enumerate_mappings(FiniteSet(nx), FiniteSet(ny)):
            yield nx, ny, f


def registry() -> dict[str, Claim]:
    from . import claims  # noqa: F401  (importing it registers every claim)

    return REGISTRY


def check_claim(claim: Claim | str, universe: Universe) -> Report:
    """Run one claim's sweep: count its items and stop at the first witness."""
    if isinstance(claim, str):
        reg = registry()
        if claim not in reg:
            raise KeyError(f"unknown claim id: {claim}")
        claim = reg[claim]
    found, exhausted = VERDICTS_BY_KIND[claim.kind]
    start = time.perf_counter()
    sweep = claim.body(universe)
    instances = 0
    try:
        while (witness := next(sweep)) is None:
            instances += 1
        instances += 1
        verdict = found
        sweep.close()
    except StopIteration as end:
        # A body may return a verdict to replace the kind's default for a
        # sweep that found no witness.
        witness = None
        verdict = end.value or exhausted
    elapsed = (time.perf_counter() - start) * 1000.0
    if verdict not in VERDICTS:
        raise AssertionError(f"claim {claim.id} produced unknown verdict {verdict}")
    if verdict in (VERDICT_REFUTED, VERDICT_COUNTEREXAMPLE) and witness is None:
        raise AssertionError(f"claim {claim.id} reported {verdict} without a witness")
    return Report(claim.id, verdict, claim.expected, witness, instances, elapsed)


def check_all(universe: Universe) -> tuple[Report, ...]:
    return tuple(check_claim(c, universe) for c in registry().values())


def machine_records(reports: tuple[Report, ...] | list[Report], include_millis: bool = False) -> str:
    """Line-delimited JSON, one record per claim plus a summary record.

    Timings are left out unless asked for, so that identical runs serialize
    to identical bytes.
    """
    lines = []
    for r in reports:
        record: dict = {
            "schema": MACHINE_SCHEMA,
            "type": "claim",
            "id": r.claim_id,
            "verdict": r.verdict,
            "expected": r.expected,
            "witness": r.witness,
            "instances": r.instances,
        }
        if include_millis:
            record["millis"] = round(r.elapsed_ms, 3)
        lines.append(json.dumps(record, sort_keys=True))
    counts: dict[str, int] = {}
    for r in reports:
        counts[r.verdict] = counts.get(r.verdict, 0) + 1
    summary = {
        "schema": MACHINE_SCHEMA,
        "type": "summary",
        "claims": len(reports),
        "counts": counts,
        "all_expected": all(r.ok() for r in reports),
    }
    lines.append(json.dumps(summary, sort_keys=True))
    return "\n".join(lines) + "\n"


def text_report(reports: tuple[Report, ...] | list[Report], show_millis: bool = True) -> str:
    lines = []
    width = max((len(r.claim_id) for r in reports), default=0)
    for r in reports:
        mark = "ok " if r.ok() else "MISMATCH"
        timing = f"  {r.elapsed_ms:9.1f} ms" if show_millis else ""
        lines.append(
            f"{r.claim_id:<{width}}  {r.verdict:<33} [{mark}] {r.instances:>9} instances{timing}"
        )
        if r.witness is not None and (not r.ok() or r.verdict != VERDICT_VERIFIED):
            lines.append(f"{'':<{width}}    witness: {json.dumps(r.witness, sort_keys=True)}")
    good = sum(1 for r in reports if r.ok())
    lines.append(f"{good}/{len(reports)} claims produced their expected verdicts")
    return "\n".join(lines) + "\n"
