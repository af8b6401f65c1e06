"""Claim engine: bounded universes, one sweep driver, deterministic reports.

Every structural law of the deviation calculus is registered with ``@claim``
under a stable id, with the domain it sweeps and the verdict it is expected
to produce, on a check whose docstring states the law. A domain names the
``Universe`` field bounding the sweep, an optional cap below it and the
enumeration of its elements, if any. ``check_claim`` resolves the bound once
and calls the check with each element in order, or once with the bound when
the domain has no elements. Each call returns one item or a generator of
items. ``None`` is one passing instance and a non-negative ``int`` that many
(the test is ``type(item) is int``, so a bool is a witness like any other).
Anything else is the witness: it counts as one instance and ends the claim.
The value the last generator returns, if not None, replaces the default
verdict of a sweep without a witness.

A claim expecting a counterexample reports counterexample-found-as-required
with a witness and skipped without one; any other reports refuted-as-stated
or verified. Enumeration order is fixed (sizes by total, then
lexicographic), so for a fixed universe two runs produce identical reports
and reported witnesses are minimal for their claim.

Inside ``together(claims, universe)``, as ``check_all`` and ``verify`` run
it, the claims with one domain and one resolved bound form a group: the
first ``check_claim`` of a group enumerates the domain once and hands each
element to every claim of the group without a witness yet, in selection
order, and the later calls return the reports it stored. So the facts an
element carries (``claims.MappingFacts`` on the mapping domains) are
computed once for all the claims reading them and dropped with it. A
claim's time is that of its own calls, facts it was first to read included.
Domains over the same elements with different bounds, such as the
mappings of ``claims.SETS`` and ``claims.POWERSETS``, stay apart: one pass
handing each mapping to every claim of both measured no faster than two.
"""

from __future__ import annotations

import json
import time
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from itertools import product
from types import GeneratorType

from .finset import FiniteSet, Mapping, _is_int, _mapping
from .powerset import MAX_BASE

VERDICT_VERIFIED = "verified"
VERDICT_COUNTEREXAMPLE = "counterexample-found-as-required"
VERDICT_REFUTED = "refuted-as-stated"
VERDICT_SKIPPED = "skipped"

VERDICTS = (VERDICT_VERIFIED, VERDICT_COUNTEREXAMPLE, VERDICT_REFUTED, VERDICT_SKIPPED)

MACHINE_SCHEMA = 1
MAX_TRIPLE_SIZE = 5  # T1.1 tags inner mappings by kernel in a byte: Bell(5) = 52 fit, Bell(6) = 203 not


class Universe(namedtuple("Universe", "max_set_size max_triple_size max_group_order max_powerset_base")):
    """Bounds for the exhaustive sweeps, checked once in ``__new__``."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(
        cls, max_set_size: int = 4, max_triple_size: int = 3, max_group_order: int = 12, max_powerset_base: int = 4
    ) -> Universe:
        universe = tuple.__new__(cls, (max_set_size, max_triple_size, max_group_order, max_powerset_base))
        for name, bound in zip(cls._fields, universe):
            if not _is_int(bound):
                raise ValueError(f"{name} must be an int, got {bound!r}")
            if bound < 0:
                raise ValueError(f"{name} must be non-negative")
        for name, cap in (("max_triple_size", MAX_TRIPLE_SIZE), ("max_powerset_base", MAX_BASE)):
            if getattr(universe, name) > cap:
                raise ValueError(f"{name} is capped at {cap}")
        return universe


class Domain(namedtuple("Domain", "bounded_by cap elements", defaults=(None, None))):
    """What a claim sweeps: the Universe field bounding it, lowered to cap
    when one is given, and the elements its check is called with, if any."""

    __slots__ = ()

    def bound(self, universe: Universe) -> int:
        n = getattr(universe, self.bounded_by)
        return n if self.cap is None else min(n, self.cap)


class Claim(namedtuple("Claim", "id domain expected check")):
    """One law: the check stating it, the domain it sweeps and its expected
    verdict. Equality, hash and repr leave the check out."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(other) is Claim and self[:3] == other[:3]

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:3])

    def __repr__(self) -> str:
        return f"Claim(id={self.id!r}, domain={self.domain!r}, expected={self.expected!r})"


class Report(namedtuple("Report", "claim_id verdict expected witness instances elapsed_ms")):
    __slots__ = ()

    def ok(self) -> bool:
        return self.verdict == self.expected


REGISTRY: dict[str, Claim] = {}


def claim(claim_id: str, domain: Domain, expected: str = VERDICT_VERIFIED) -> Callable:
    """Register the decorated function as the check of claim ``claim_id``."""
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


# Inside together(): (claim id, universe) -> the group of claims to sweep it
# with, then its report or error once the group is swept. The
# CLI and the benchmark call check_claim(claim, universe) per claim.
_planned: dict = {}


@contextmanager
def together(claims: Iterable[Claim], universe: Universe) -> Iterator[None]:
    """Within the block, check_claim sweeps the claims among these with one
    domain and resolved bound once, as a group."""
    groups: dict = {}
    for c in claims:
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
    found = _planned.pop((claim.id, universe), [claim])
    if isinstance(found, list):
        _sweep(found, claim.domain.bound(universe), universe)
        found = _planned.pop((claim.id, universe))
    if isinstance(found, Exception):
        raise found
    return found


def _sweep(claims: list[Claim], n: int, universe: Universe) -> None:
    """Hand each element of the claims' domain to every claim without a
    witness or an error yet, in order, and plan each claim's report or error."""
    clock = time.perf_counter
    # Per claim: the claim, instances, seconds, witness or error, returned verdict.
    active = [[c, 0, 0.0, None, None] for c in claims]
    runs = list(active)
    domain = claims[0].domain
    for x in domain.elements(n) if domain.elements else (n,):
        for run in active:
            start = clock()
            try:
                item = run[0].check(x)
                if item is None:
                    run[1] += 1
                else:
                    _count(run, item if type(item) is GeneratorType else iter((item,)))
            except Exception as error:
                # Raised by the claim's own check_claim call, as when it runs
                # alone; the other claims sweep on.
                run[3] = error
            run[2] += clock() - start
        active = [run for run in active if run[3] is None]
        if not active:
            break
    for c, (_, instances, seconds, found, verdict) in zip(claims, runs):
        _planned[c.id, universe] = found if isinstance(found, Exception) else _report(c, found, instances, seconds, verdict)


def _count(run: list, items: Iterator) -> None:
    """Count items into run up to the witness, and keep a generator's return value."""
    try:
        while run[3] is None:
            item = next(items)
            if type(item) is not int:
                run[1] += 1
                run[3] = item  # None passes, anything else is the witness
            elif item < 0:
                raise AssertionError(f"claim {run[0].id} gave a negative count {item}")
            else:
                run[1] += item
    except StopIteration as end:
        run[4] = end.value


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
