"""Claim engine: bounded universes, one sweep driver, deterministic reports.

Every structural law of the deviation calculus is registered with ``@claim``
under a stable id, with the domain it sweeps and the verdict it is expected
to produce, on a check whose docstring states the law. A domain names the
``Universe`` field bounding the sweep, an optional cap below it and, for
predicates, the enumeration of its elements. ``check_claim`` resolves the
bound once and runs the sweep: a predicate over each element (None when it
passes, else a witness), or a generator over the bound that yields one such
item per instance and may return a verdict to replace the default for a
sweep without a witness.

``check_claim`` counts the items (the one carrying the witness included)
and stops at the first witness. A sweep may also yield a non-negative
``int``, read as that many passing instances at once; the test is
``type(item) is int``, so a bool is a witness like any other. A claim
expecting a counterexample reports counterexample-found-as-required with a
witness and skipped without one; any other reports refuted-as-stated or
verified. Enumeration order is fixed (sizes by total, then lexicographic),
so for a fixed universe two runs produce identical reports and reported
witnesses are minimal for their claim.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from itertools import product
from inspect import isgeneratorfunction
from typing import Callable, Iterable, Iterator

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


@dataclass(frozen=True)
class Domain:
    """What a claim sweeps: the Universe field bounding it, lowered to cap
    when one is given, and the elements a predicate is run on, if any."""

    bounded_by: str
    cap: int | None = None
    elements: Callable[[int], Iterable] | None = None

    def bound(self, universe: Universe) -> int:
        n = getattr(universe, self.bounded_by)
        return n if self.cap is None else min(n, self.cap)


@dataclass(frozen=True)
class Claim:
    """One law: the check stating it, the domain it sweeps and its expected verdict."""

    id: str
    domain: Domain
    expected: str
    # A predicate over one element, or a generator over the resolved bound.
    check: Callable = field(compare=False, repr=False)

    def sweep(self, n: int) -> Iterator[object]:
        """None per instance that passes, or an int counting that many,
        until the witness of the first that fails."""
        check = self.check
        return check(n) if isgeneratorfunction(check) else (check(x) for x in self.domain.elements(n))


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


def claim(claim_id: str, domain: Domain, expected: str = VERDICT_VERIFIED) -> Callable:
    """Register the decorated predicate or generator as the check of claim ``claim_id``."""
    if expected not in VERDICTS:
        raise ValueError(f"unknown expected verdict {expected}")

    def register(check: Callable) -> Callable:
        if claim_id in REGISTRY:
            raise AssertionError(f"duplicate claim id {claim_id}")
        REGISTRY[claim_id] = Claim(claim_id, domain, expected, check)
        return check

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


def mappings(bound: int) -> Iterator[Mapping]:
    """Every mapping between carriers of size at most bound, signatures in
    size_pairs order, tables lexicographic within each."""
    for nx, ny in size_pairs(bound):
        yield from enumerate_mappings(FiniteSet(nx), FiniteSet(ny))


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
    if claim.expected == VERDICT_COUNTEREXAMPLE:
        found, exhausted = VERDICT_COUNTEREXAMPLE, VERDICT_SKIPPED
    else:
        found, exhausted = VERDICT_REFUTED, VERDICT_VERIFIED
    start = time.perf_counter()
    sweep = claim.sweep(claim.domain.bound(universe))
    instances = 0
    try:
        while True:
            while (witness := next(sweep)) is None:
                instances += 1
            if type(witness) is not int:
                break
            if witness < 0:
                raise AssertionError(f"claim {claim.id} yielded a negative count {witness}")
            instances += witness
        instances += 1
        verdict = found
        sweep.close()
    except StopIteration as end:
        # A generator may return a verdict to replace the default of a
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
