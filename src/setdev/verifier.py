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
and stops at the first witness. A generator may also yield a non-negative
``int``, read as that many passing instances at once; the test is
``type(item) is int``, so a bool is a witness like any other. A claim
expecting a counterexample reports counterexample-found-as-required with a
witness and skipped without one; any other reports refuted-as-stated or
verified. Enumeration order is fixed (sizes by total, then lexicographic),
so for a fixed universe two runs produce identical reports and reported
witnesses are minimal for their claim.

Inside ``together(claims, universe)``, as ``check_all`` and ``verify`` run
it, the predicate claims with one domain and one resolved bound form a
group: the first ``check_claim`` of a group enumerates the domain once and
hands each element to every claim of the group without a witness yet, in
selection order, and the later calls return the reports it stored. So the
facts an element carries (``claims.MappingFacts`` on the powerset domains)
are computed once for all the claims reading them and dropped with it. A
predicate's time is that of its own calls, facts it was first to read
included.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import product
from inspect import isgeneratorfunction
from typing import Callable, Iterable, Iterator

from .finset import FiniteSet, Mapping, _mapping
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
    # Every table is in range by construction, so none is re-checked.
    for table in product(range(cod.size), repeat=dom.size):
        yield _mapping(dom, cod, table)


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


# Inside together(): (claim id, universe) -> the group of predicate claims
# to sweep it with, then its report or error once the group is swept. The
# CLI and the benchmark call check_claim(claim, universe) per claim.
_planned: dict = {}


@contextmanager
def together(claims: Iterable[Claim], universe: Universe) -> Iterator[None]:
    """Within the block, check_claim sweeps the predicate claims among these
    with one domain and resolved bound once, as a group."""
    groups: dict = {}
    for c in claims:
        if not isgeneratorfunction(c.check):
            _planned[c.id, universe] = group = groups.setdefault((c.domain, c.domain.bound(universe)), [])
            group.append(c)
    try:
        yield
    finally:
        _planned.clear()


def check_claim(claim: Claim | str, universe: Universe) -> Report:
    """Run one claim's sweep: count its items and stop at the first witness.

    Inside together(), the first call for a claim of a group sweeps the
    group, and each later call returns what the sweep found for its claim.
    """
    if isinstance(claim, str):
        reg = registry()
        if claim not in reg:
            raise KeyError(f"unknown claim id: {claim}")
        claim = reg[claim]
    n = claim.domain.bound(universe)
    found = _planned.pop((claim.id, universe), [claim])
    if isgeneratorfunction(claim.check):
        return _run_generator(claim, n)
    if isinstance(found, list):
        _run_predicates(found, n, universe)
        found = _planned.pop((claim.id, universe))
    if isinstance(found, Exception):
        raise found
    return found


def _run_generator(claim: Claim, n: int) -> Report:
    start = time.perf_counter()
    sweep = claim.check(n)
    instances, verdict = 0, None
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
        sweep.close()
    except StopIteration as end:
        # A generator may return a verdict to replace the default of a
        # sweep that found no witness.
        witness, verdict = None, end.value
    return _report(claim, witness, instances, time.perf_counter() - start, verdict)


def _run_predicates(claims: list[Claim], n: int, universe: Universe) -> None:
    """Hand each element of the claims' domain to every claim without a
    witness or an error yet, in order, and plan each claim's report or error."""
    clock = time.perf_counter
    # Per claim: its check, instances, seconds and witness or error.
    active = [[c.check, 0, 0.0, None] for c in claims]
    runs = list(active)
    for x in claims[0].domain.elements(n):
        for run in active:
            start = clock()
            try:
                run[3] = run[0](x)
            except Exception as error:
                # Raised by the claim's own check_claim call, as when it runs
                # alone; the other claims sweep on.
                run[3] = error
            run[2] += clock() - start
            run[1] += 1
        active = [run for run in active if run[3] is None]
        if not active:
            break
    for c, (_, instances, seconds, found) in zip(claims, runs):
        _planned[c.id, universe] = found if isinstance(found, Exception) else _report(c, found, instances, seconds)


def _report(claim: Claim, witness: object, instances: int, seconds: float, verdict: str | None = None) -> Report:
    if claim.expected == VERDICT_COUNTEREXAMPLE:
        found, exhausted = VERDICT_COUNTEREXAMPLE, VERDICT_SKIPPED
    else:
        found, exhausted = VERDICT_REFUTED, VERDICT_VERIFIED
    verdict = found if witness is not None else verdict or exhausted
    if verdict not in VERDICTS:
        raise AssertionError(f"claim {claim.id} produced unknown verdict {verdict}")
    if verdict in (VERDICT_REFUTED, VERDICT_COUNTEREXAMPLE) and witness is None:
        raise AssertionError(f"claim {claim.id} reported {verdict} without a witness")
    return Report(claim.id, verdict, claim.expected, witness, instances, seconds * 1000.0)


def check_all(universe: Universe) -> tuple[Report, ...]:
    claims = tuple(registry().values())
    with together(claims, universe):
        return tuple(check_claim(c, universe) for c in claims)


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
