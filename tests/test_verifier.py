import ast
import gc
import hashlib
import importlib
import json
import random
import subprocess
import sys
from itertools import product
from math import gcd, prod
from pathlib import Path
from types import FunctionType, GeneratorType

import pytest
from hypothesis import given, settings, strategies as st

import setdev
from setdev import abgroup, claims, cli, finset, verifier
from setdev.abgroup import FinAbGroup, GroupHom, enumerate_groups, enumerate_homs
from setdev.finset import FiniteSet, Mapping
from setdev.verifier import (
    Universe,
    VERDICT_COUNTEREXAMPLE,
    VERDICT_REFUTED,
    VERDICT_SKIPPED,
    VERDICT_VERIFIED,
    check_all,
    check_claim,
    claim,
    enumerate_mappings,
    machine_records,
    registry,
    size_triples,
    text_report,
)
from test_mutations import ROWS as MUTATION_ROWS, _lie

REGISTRY = registry()

SMALL = Universe(max_set_size=2, max_triple_size=2, max_group_order=4, max_powerset_base=2)
ZERO = Universe(max_set_size=0, max_triple_size=0, max_group_order=0, max_powerset_base=0)
# The universe of the benchmark's maps-sweep workload.
_MAPS_SWEEP = Universe(max_set_size=5, max_triple_size=4, max_powerset_base=5)
_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.json"
_WORKLOAD_CLAIMS = {
    name: workload["claims"]
    for name, workload in json.loads(_WORKLOADS.read_text(encoding="utf-8"))["workloads"].items()
}
_MAPS_SWEEP_CLAIMS = _WORKLOAD_CLAIMS["maps-sweep"]


def test_enumerate_mappings_counts():
    assert sum(1 for _ in enumerate_mappings(FiniteSet(3), FiniteSet(3))) == 27
    assert sum(1 for _ in enumerate_mappings(FiniteSet(0), FiniteSet(5))) == 1
    assert sum(1 for _ in enumerate_mappings(FiniteSet(4), FiniteSet(4))) == 256
    assert sum(1 for _ in enumerate_mappings(FiniteSet(2), FiniteSet(0))) == 0
    tables = [f.table for f in enumerate_mappings(FiniteSet(2), FiniteSet(2))]
    assert tables == sorted(tables)


def test_universe_validation():
    with pytest.raises(ValueError):
        Universe(max_set_size=-1)
    with pytest.raises(ValueError):
        Universe(max_powerset_base=13)
    # T1.1 tags kernels in a byte: Bell(5) = 52 fit, Bell(6) = 203 do not.
    assert Universe(max_triple_size=5).max_triple_size == verifier.MAX_TRIPLE_SIZE == 5
    with pytest.raises(ValueError, match="max_triple_size is capped at 5"):
        Universe(max_triple_size=6)
    # A bound is exactly an int, the rule for mapping and hom literals; else
    # 2.0 would fail only inside a claim, and True would pass as a bound of 1.
    wrong_types = [("max_set_size", 2.0), ("max_powerset_base", True), ("max_group_order", "12"), ("max_triple_size", None)]
    for name, bound in wrong_types:
        with pytest.raises(ValueError, match=f"^{name} must be an int"):
            Universe(**{name: bound})


def test_import_loads_neither_dataclasses_nor_typing():
    # python -S: site preloads nothing, so every module listed was imported by setdev.
    src = str(Path(setdev.__file__).resolve().parents[1])
    script = (
        f"import sys; sys.path.insert(0, {src!r}); import setdev.cli; from setdev import verifier; verifier.registry(); "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    run = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


def test_registry_ids_unique_and_expected_verdicts_populated():
    assert len(REGISTRY) == len({c.id for c in REGISTRY.values()})
    for c in REGISTRY.values():
        assert c.expected in (VERDICT_VERIFIED, VERDICT_COUNTEREXAMPLE, VERDICT_REFUTED), c.id
        assert c.check.__doc__, c.id  # the law
    # A claim is existential exactly when it expects a counterexample: it
    # reports skipped, not verified, when its sweep finds no witness.
    existential = {c.id for c in REGISTRY.values() if c.expected == VERDICT_COUNTEREXAMPLE}
    assert existential == {"T1.2-counterexample", "rho-not-functor", "T2.1-counterexample"}
    for report in check_all(ZERO):
        if report.claim_id in existential:
            assert report.verdict == VERDICT_SKIPPED


def test_claim_refuses_an_unknown_expected_verdict():
    with pytest.raises(ValueError, match="unknown expected verdict"):
        claim("x", claims.SETS, expected="existential")
    assert "x" not in REGISTRY


def test_claim_refuses_a_duplicate_id():
    before = dict(REGISTRY)
    with pytest.raises(AssertionError, match="duplicate claim id 0.3"):
        claim("0.3", claims.SETS)(lambda m: None)
    assert REGISTRY == before and REGISTRY["0.3"].check is claims.check_factorization


# A domain without elements: its check is called once, with the bound.
_BOUND_ONLY = verifier.Domain("max_set_size")
# Signatures (nx, ny) up to max_set_size: 9 of them at SMALL.
_PAIRS = verifier.Domain("max_set_size", elements=verifier.size_pairs)


def _yielding(*items):
    """An unregistered claim whose sweep yields items."""

    def sweep(bound):
        yield from items

    return verifier.Claim("counted", _BOUND_ONLY, VERDICT_VERIFIED, sweep)


def _returning(domain, result):
    """An unregistered claim whose check returns result(element)."""
    return verifier.Claim("returned", domain, VERDICT_VERIFIED, result)


def test_count_items_add_that_many_instances():
    witness = {"case": "third"}
    assert _outcome(_yielding(3, None, witness), SMALL) == (VERDICT_REFUTED, witness, 5)
    assert _outcome(_yielding(2, 0), SMALL) == (VERDICT_VERIFIED, None, 2)
    # A plain check's count is that many passes too, once per element.
    assert _outcome(_returning(_BOUND_ONLY, lambda bound: 7), SMALL) == (VERDICT_VERIFIED, None, 7)
    assert _outcome(_returning(_PAIRS, lambda sizes: 2), SMALL) == (VERDICT_VERIFIED, None, 18)


def test_generator_items_add_up_across_elements():
    def sweep(sizes):
        yield 2
        yield None
        if sizes == (1, 1):
            # The fifth signature, after four that count 2 + 1 + 5 each.
            yield 1
            yield {"at": list(sizes)}
        yield 5

    witness = {"at": [1, 1]}
    lying = verifier.Claim("summed", _PAIRS, VERDICT_VERIFIED, sweep)
    assert _outcome(lying, SMALL) == (VERDICT_REFUTED, witness, 4 * 8 + 2 + 1 + 1 + 1)
    honest = verifier.Claim("summed", _PAIRS, VERDICT_VERIFIED, lambda sizes: (item for item in (2, None)))
    assert _outcome(honest, SMALL) == (VERDICT_VERIFIED, None, 9 * 3)


def test_negative_count_is_refused():
    # Yielded or returned, at the first element or a later one.
    for negative in (
        _yielding(1, -1),
        _returning(_BOUND_ONLY, lambda bound: -1),
        _returning(_PAIRS, lambda sizes: -sizes[0]),
    ):
        with pytest.raises(AssertionError, match="negative count"):
            check_claim(negative, SMALL)


def test_bool_item_is_a_witness_not_a_count():
    report = check_claim(_yielding(None, True), SMALL)
    assert (report.verdict, report.witness, report.instances) == (VERDICT_REFUTED, True, 2)


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


def test_rho_passes_a_mapping_whose_deviation_matches_the_first_of_its_signature(monkeypatch):
    # (1) : 1 -> 2 reported with the deviation of the constant (0) is one
    # passing instance; the next signature with two mappings, (1, 3), then
    # holds the witness.
    one, two, three = FiniteSet(1), FiniteSet(2), FiniteSet(3)
    _lie(monkeypatch, "deviation", (Mapping(one, two, (1,)),), finset.deviation(Mapping(one, two, (0,))))
    report = check_claim("rho-not-functor", Universe(max_set_size=3))
    assert (report.verdict, report.instances) == (VERDICT_COUNTEREXAMPLE, 2)
    assert report.witness == {
        "x_size": 1,
        "y_size": 3,
        "f": Mapping(one, three, (0,)).to_json_dict(),
        "g": Mapping(one, three, (1,)).to_json_dict(),
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
    "universe, claim_ids, digest",
    [
        (SMALL, None, "fcd235ea0728b91e596e1658624265f78dea9833bde0782b86065bb1e870444b"),
        # Everything skips or verifies here; 3.5-composition-order sweeps its one
        # size triple without a witness and reports skipped.
        (ZERO, None, "8d370162fd9e4e2bcd0d460780023a4a20b0955f6e9d741599a2ec37b9f56b27"),
        # The default universe and the benchmark's maps-sweep claims, whose
        # digests perfbench/README.md lists.
        (Universe(), None, "f1bbc3d2f2aa66cb0a33e7a2e3e71827834794a07e6a2362063095bbb10eb9ed"),
        (_MAPS_SWEEP, _MAPS_SWEEP_CLAIMS, "1429b6ebbb5070cd27636513c72b541ec20b22ab31d4239c3ab1ae69304fd41c"),
        (
            Universe(max_group_order=15),
            _WORKLOAD_CLAIMS["group-crosscheck"],
            "e773e1a728b7c2875ec5c5281312a27d5023abf909735956637192219080ad6e",
        ),
    ],
    ids=["small", "zero", "default", "maps-sweep", "group-crosscheck"],
)
def test_machine_records_golden(universe, claim_ids, digest):
    # Pins every verdict, witness and instance count, byte for byte.
    ids = claim_ids or list(REGISTRY)
    text = machine_records([check_claim(c, universe) for c in ids])
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


# The rows test_machine_records_golden pins, read off its parametrize mark.
(_GOLDEN,) = test_machine_records_golden.pytestmark


@pytest.mark.parametrize(_GOLDEN.args[0], _GOLDEN.args[1], ids=_GOLDEN.kwargs["ids"])
def test_shared_sweeps_print_the_claim_by_claim_bytes(capsys, universe, claim_ids, digest):
    # verify sweeps each group of predicate claims once; the golden test
    # checks the claims one check_claim at a time.
    flags = {
        "--max-size": universe.max_set_size,
        "--max-triple-size": universe.max_triple_size,
        "--max-group-order": universe.max_group_order,
        "--max-powerset-base": universe.max_powerset_base,
    }
    argv = ["--format", "machine", "verify", *(str(v) for pair in flags.items() for v in pair)]
    cli.main(argv + (["--claims", ",".join(claim_ids)] if claim_ids else []))
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest


def _key(element):
    """An element as it compares: a MappingFacts by its mapping."""
    return element.f if isinstance(element, claims.MappingFacts) else element


def test_every_check_receives_its_domain_in_order():
    # The contract: a check is called with each element of its domain in
    # enumeration order until its witness, or once with the bound when the
    # domain has no elements.
    for c in REGISTRY.values():
        received = []

        def check(x, check=c.check):
            received.append(x)
            return check(x)

        report = check_claim(verifier.Claim(c.id, c.domain, c.expected, check), SMALL)
        n = c.domain.bound(SMALL)
        expected = [_key(x) for x in c.domain.elements(n)] if c.domain.elements else [n]
        keys = [_key(x) for x in received]
        if report.witness is None:
            assert keys == expected, c.id
        else:
            assert keys == expected[: len(keys)], c.id
            # The last element handed over is the one whose items hold the witness.
            items = c.check(received[-1])
            assert report.witness in (list(items) if type(items) is GeneratorType else [items]), c.id


def test_shared_sweep_builds_each_fact_once_per_mapping(monkeypatch):
    maps = ["preimage_map", "direct_image_map", "kappa", "restrict_preimage_to_image"]
    facts = ["kernel_partition", "_inj_direct", "_surj_direct", "_const_direct"]
    calls = dict.fromkeys(maps + facts + ["deviation", "_image_subsets"], 0)

    def counting(name, honest):
        def count(*args):
            calls[name] += 1
            return honest(*args)

        return count

    # Every kernel the library builds, asked for by a claim or inside
    # deviation, goes through the one finset.kernel_partition counted here.
    kernels = counting("finset.kernel_partition", finset.kernel_partition)
    monkeypatch.setattr(finset, "kernel_partition", kernels)
    calls["finset.kernel_partition"] = 0
    for name in maps + facts + ["deviation", "_image_subsets"]:
        honest = kernels if name == "kernel_partition" else getattr(claims, name)
        monkeypatch.setattr(claims, name, counting(name, honest))
    universe = Universe(max_set_size=4, max_powerset_base=4)
    # Each fact a claim of the domain reads is built once per mapping: 499
    # mappings between carriers of size at most 4, 60 at the extension cap 3.
    # The kernels of the mapping and of its preimage map are read off their
    # deviations, so claims ask kernel_partition for the extension's alone.
    for domain, ids, built in [
        (
            claims.SETS,
            ["0.3", "0.8-0.10", "1.3", "L1.1", "rho-not-functor"],
            {**dict.fromkeys(facts, 1), "deviation": 1, "kernel_partition": 0, "finset.kernel_partition": 1},
        ),
        (
            claims.POWERSETS,
            ["3.18", "L3.1", "L3.2", "3.29-3.30", "L3.3a", "L3.3b", "3.58-3.61"],
            {
                **dict.fromkeys(maps, 1),
                "deviation": 1,
                "_image_subsets": 1,
                "kernel_partition": 0,
                "finset.kernel_partition": 1,
            },
        ),
        (
            claims.EXTENSIONS,
            ["T3.1", "T3.2", "T3.3", "3.44-literal", "3.44-computed", "E-fullness"],
            {
                **dict.fromkeys(maps, 0),
                "preimage_map": 1,
                "direct_image_map": 1,
                "deviation": 2,
                "kernel_partition": 1,
                "finset.kernel_partition": 3,
            },
        ),
    ]:
        selected = [c for c in REGISTRY.values() if c.domain is domain]
        assert [c.id for c in selected] == ids
        calls.update(dict.fromkeys(calls, 0))
        with verifier.together(selected, universe):
            reports = [check_claim(c, universe) for c in selected]
        assert [r.ok() for r in reports] == [True] * len(ids)
        count = _mapping_count(domain.bound(universe))
        assert {name: calls[name] for name in built} == {name: k * count for name, k in built.items()}


def test_shared_sweep_hands_each_claim_its_own_elements_and_stops_it_at_its_witness():
    seen = {"a": [], "b": []}

    def predicate(name, fails_at):
        def check(m):
            seen[name].append(m.f.table)
            return {"at": list(m.f.table)} if len(seen[name]) == fails_at else None

        return check

    a = verifier.Claim("a", claims.SETS, VERDICT_VERIFIED, predicate("a", 3))
    b = verifier.Claim("b", claims.SETS, VERDICT_VERIFIED, predicate("b", 0))
    with verifier.together([a, b], SMALL):
        first, second = check_claim(a, SMALL), check_claim(b, SMALL)
    assert len(seen["a"]) == 3 and first.instances == 3 and first.verdict == VERDICT_REFUTED
    assert seen["b"][:3] == seen["a"] and second.instances == _mapping_count(2) == len(seen["b"])
    assert second.verdict == VERDICT_VERIFIED and second.elapsed_ms > 0


def _sharing(claim_id):
    """The other claims declared on the domain of claim_id, in registry order."""
    domain = REGISTRY[claim_id].domain
    return [c for c in REGISTRY.values() if c.domain == domain and c.id != claim_id]


@pytest.mark.parametrize("row", [key for key, row in MUTATION_ROWS.items() if _sharing(row[0])])
def test_shared_sweep_refutes_the_same_lie(monkeypatch, row):
    # A planted-fault row of test_mutations.py with its claim swept together
    # with every other claim of its domain: it reports the pinned witness and
    # count, and each other claim reports what it reports alone.
    claim_id, name, lied_about, answer, universe, witness, instances = MUTATION_ROWS[row]
    _lie(monkeypatch, name, lied_about, answer)
    selected = [REGISTRY[claim_id]] + _sharing(claim_id)
    with verifier.together(selected, universe):
        shared = [_outcome(c, universe) for c in selected]
    assert shared[0] == (VERDICT_REFUTED, witness, instances)
    # Some lies reach another claim as input it refuses: the lied preimage
    # map of 3.29-3.30-pre is no preimage map to kappa, so L3.3a raises.
    assert shared[1:] == [_outcome(c, universe) for c in selected[1:]]


def _outcome(claim, universe):
    try:
        report = check_claim(claim, universe)
    except ValueError as error:
        return repr(error)
    return report.verdict, report.witness, report.instances


def test_mappings_of_a_smaller_bound_are_a_filtered_prefix_order():
    # Sweeping one domain at two bounds at once needs mappings(b) to be
    # mappings(b2) kept to carriers of size at most b, in the same order.
    signed = {b: [(f.dom.size, f.cod.size, f.table) for f in verifier.mappings(b)] for b in range(6)}
    for b, b2 in product(range(6), repeat=2):
        if b < b2:
            assert signed[b] == [s for s in signed[b2] if s[0] <= b and s[1] <= b], (b, b2)


def _partitions(k):
    """The number of partitions of the integer k."""
    ways = [1] + [0] * k
    for part in range(1, k + 1):
        for total in range(part, k + 1):
            ways[total] += ways[total - part]
    return ways[k]


def _group_count(max_order):
    """Abelian groups of order at most max_order: the product of p(e) over
    the prime exponents e of each order."""
    count = 0
    for order in range(1, max_order + 1):
        n, prime, groups = order, 2, 1
        while n > 1:
            exponent = 0
            while n % prime == 0:
                n //= prime
                exponent += 1
            groups *= _partitions(exponent)
            prime += 1
        count += groups
    return count


def _mapping_count(n):
    return sum(ny**nx for nx in range(n + 1) for ny in range(n + 1))


def _composable_count(n):
    return sum(ny**nx * nz**ny for nx, ny, nz in product(range(n + 1), repeat=3))


def _hom_count(max_order):
    """|Hom(A, B)| is the product of gcd(a, b) over the invariant factors."""
    groups = enumerate_groups(max_order)
    return sum(prod(gcd(a, b) for a in x.factors for b in y.factors) for x, y in product(groups, repeat=2))


def test_enumerators_match_closed_forms():
    assert [_mapping_count(n) for n in (3, 4, 5)] == [60, 499, 5705]
    assert [_composable_count(n) for n in (3, 4)] == [1678, 133799]
    assert [_group_count(n) for n in (4, 8, 12, 15, 16)] == [5, 11, 17, 20, 25]
    assert [_hom_count(n) for n in (4, 8, 12, 15, 16)] == [60, 1128, 1921, 2179, 91949]
    for n in (3, 4, 5):
        for domain in (claims.SETS, claims.POWERSETS, claims.EXTENSIONS):
            assert sum(1 for _ in domain.elements(n)) == _mapping_count(n)
    for n in (3, 4):
        sizes = list(size_triples(n))
        assert len(sizes) == (n + 1) ** 3
        count = 0
        for nx, ny, nz in sizes:
            x, y, z = FiniteSet(nx), FiniteSet(ny), FiniteSet(nz)
            count += sum(1 for _ in enumerate_mappings(x, y)) * sum(1 for _ in enumerate_mappings(y, z))
        assert count == _composable_count(n)
    for n in (4, 8, 12, 15, 16):
        assert len(enumerate_groups(n)) == _group_count(n)
        assert sum(1 for _ in claims.HOMS.elements(n)) == _hom_count(n)
        assert sum(1 for _ in claims.ORACLE_GROUPS.elements(n)) == _group_count(n) ** 2


# Closed-form size of each domain a predicate claim is declared on, by bound.
_DOMAIN_SIZES = {
    claims.SETS: _mapping_count,
    claims.POWERSETS: _mapping_count,
    claims.EXTENSIONS: _mapping_count,
    claims.POWERSET_BASES: lambda n: max(n - 1, 0),
    claims.HOMS: _hom_count,
    claims.ORACLE_GROUPS: lambda n: _group_count(n) ** 2,
}


def _returns_a_sweep(c, universe):
    # As the engine tells them apart: by the type of what the check returns
    # for the first element of its domain (or the bound, on one without).
    n = c.domain.bound(universe)
    first = next(iter(c.domain.elements(n))) if c.domain.elements else n
    return type(c.check(first)) is GeneratorType


@pytest.mark.parametrize("universe", [SMALL, Universe()], ids=["small", "default"])
def test_predicate_claims_check_their_whole_domain(universe):
    # One instance per element of the declared domain, at the bound
    # check_claim resolves from the universe and the domain's cap.
    predicates = [c for c in REGISTRY.values() if not _returns_a_sweep(c, universe)]
    required = {"0.3", "L1.1", "L3.1", "T3.1", "3.44-literal", "E-fullness", "devg-oracle", "L2.1", "embeds-oracle"}
    assert required <= {c.id for c in predicates}
    for c in predicates:
        report = check_claim(c, universe)
        if report.verdict == VERDICT_VERIFIED:
            assert report.instances == _DOMAIN_SIZES[c.domain](c.domain.bound(universe)), c.id


def test_evaluation_deviation_reaches_the_powerset_cap():
    # One instance per base size 2..12; the kernel check is linear in the
    # n * 2**n evaluation pairs, so the cap itself stays cheap.
    report = check_claim("3.11-3.14", Universe(max_powerset_base=12))
    assert report.verdict == VERDICT_VERIFIED
    assert report.instances == 11


def test_benchmark_tracer_names_resolve():
    # The benchmark tracer patches these names by attribute path; a missing
    # one breaks a traced run with AttributeError. Its source is executed,
    # not imported, so nothing is written next to it.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    tracer: dict = {"__name__": "perfbench_tracer"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), tracer)
    hooks = [
        (layer, attr)
        for table in (tracer["TIMED"], tracer["YIELDED"])
        for layer, attrs in table.items()
        for attr in attrs
    ]
    hooks += [(layer, attr) for layer, names in tracer["COUNTED"].items() for attr in names.values()]
    hooks += [("abgroup", name + ".cache_info") for name in tracer["CACHED"]]
    for layer, attr in hooks:
        holder, name = tracer["_resolve"](importlib.import_module(f"setdev.{layer}"), attr)
        assert hasattr(holder, name), f"setdev.{layer}.{attr}"


def test_every_public_name_is_used_by_the_package():
    # A public name that no setdev module uses outside its import lists is
    # API that no claim or command needs. check_all is the one-call entry
    # point the package offers its users.
    names, attrs = set(), set()
    for path in Path(setdev.__file__).resolve().parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
    assert sorted(set(setdev.__all__) - names - attrs) == ["check_all"]
    # The same holds for every public method and property of an exported
    # class, which only an attribute read can reach.
    unused = [
        f"{name}.{attr}"
        for name in setdev.__all__
        if isinstance(cls := getattr(setdev, name), type)
        for attr, value in vars(cls).items()
        if not attr.startswith("_")
        and isinstance(value, (FunctionType, classmethod, staticmethod, property))
        and attr not in attrs
    ]
    assert unused == []


@pytest.mark.parametrize(
    "order, claim_id, universe, witness, instances",
    [
        (
            "devg_leq",
            "L2.1",
            Universe(max_group_order=4),
            {"hom": {"dom": [], "cod": [2], "matrix": [[]]}, "case": "least"},
            2,
        ),
    ],
    ids=["L2.1"],
)
def test_least_deviation_claims_consult_the_order(monkeypatch, order, claim_id, universe, witness, instances):
    # An order relating each deviation only to itself: the least deviation
    # no longer lies below a deviation other than itself, first at the zero
    # hom trivial -> Z/2. L1.1's rows are in tests/test_mutations.py.
    monkeypatch.setattr(claims, order, lambda d, e: d == e)
    report = check_claim(claim_id, universe)
    assert report.verdict == VERDICT_REFUTED
    assert (report.witness, report.instances) == (witness, instances)


def _composition_reference(universe):
    """T2.1 as the plain loop over every composite: (first witness, instances)."""
    groups = enumerate_groups(min(universe.max_group_order, claims.MAX_COMPOSITION_ORDER))
    instances = 0
    for a, b in product(groups, repeat=2):
        fs = list(enumerate_homs(a, b))
        for c in groups:
            for g in enumerate_homs(b, c):
                for f in fs:
                    instances += 1
                    h = f.then(g)
                    if not claims.embeds_in(claims.devg1(h), claims.devg1(f)):
                        return {"f": f.to_json_dict(), "g": g.to_json_dict(), "case": "first"}, instances
                    if not claims.embeds_in(claims.devg2(g), claims.devg2(h)):
                        return {"f": f.to_json_dict(), "g": g.to_json_dict(), "case": "second"}, instances
    return None, instances


_CUBE, _Z2, _Z4 = FinAbGroup((2, 2, 2)), FinAbGroup((2,)), FinAbGroup((4,))
# The lie is told about one composite, which is also an inner and an outer
# map in its own right. Composites sharing some of its columns come before
# it, so a lookup keyed by fewer than all columns misses it.
_SQUARE = GroupHom(FinAbGroup((2, 2)), FinAbGroup((2, 2)), ((1, 1), (1, 1)))
# Out of Z/2 + Z/2 + Z/2, whose homs are packed into 4-byte keys: the sum of
# the coordinates, composed first from a map into Z/2 + Z/2, and twice it,
# into Z/4, composed first from a map into Z/2.
_SUM, _TWICE_SUM = GroupHom(_CUBE, _Z2, ((1, 1, 1),)), GroupHom(_CUBE, _Z4, ((2, 2, 2),))
# Out of Z/2, whose homs are packed into 2-byte keys.
_TWICE = GroupHom(_Z2, _Z4, ((2,),))


@pytest.mark.parametrize(
    "order, target, name, lie",
    # Z/4 and the trivial group are swept groups; Z/16 and Z/9 are above
    # every group the sweep indexes.
    [
        (4, _SQUARE, "devg1", _Z4),
        (4, _SQUARE, "devg1", FinAbGroup((16,))),
        (4, _SQUARE, "devg2", FinAbGroup(())),
        (4, _SQUARE, "devg2", FinAbGroup((16,))),
        (8, _SUM, "devg1", FinAbGroup((16,))),
        (8, _TWICE_SUM, "devg2", FinAbGroup(())),
        (8, _TWICE, "devg1", _Z4),
        (8, _TWICE, "devg1", FinAbGroup((9,))),
        (8, _TWICE, "devg2", FinAbGroup(())),
    ],
    ids=[
        "devg1-Z4", "devg1-Z16", "devg2-0", "devg2-Z16",
        "cube-devg1-Z16", "cube-devg2-0",
        "cyclic-devg1-Z4", "cyclic-devg1-Z9", "cyclic-devg2-0",
    ],
)
def test_group_composition_refutes_a_wrong_deviation(monkeypatch, order, target, name, lie):
    honest = getattr(claims, name)
    monkeypatch.setattr(claims, name, lambda f: lie if f == target else honest(f))
    universe = Universe(max_group_order=order)
    witness, instances = _composition_reference(universe)
    report = check_claim("T2.1", universe)
    assert witness is not None
    assert report.verdict == VERDICT_REFUTED
    assert (report.witness, report.instances) == (witness, instances)


def test_group_composition_checks_the_images_against_then(monkeypatch):
    # Each distinct composite is built once by GroupHom.then, and the sweep
    # stops if its columns differ from the generator images read off g.
    z2 = FinAbGroup((2,))
    identity, zero = GroupHom(z2, z2, ((1,),)), GroupHom(z2, z2, ((0,),))
    honest = GroupHom.then
    monkeypatch.setattr(GroupHom, "then", lambda f, g: zero if honest(f, g) == identity else honest(f, g))
    with pytest.raises(AssertionError, match="composite disagrees with its generator images"):
        check_claim("T2.1", Universe(max_group_order=4))


def test_group_composition_enumerates_each_pair_of_groups_once(monkeypatch):
    # Each hom is enumerated once, for both its inner and its outer role; an
    # outer map is rebuilt from its table rather than enumerated again for
    # every inner group.
    calls = []
    honest = claims.enumerate_homs
    monkeypatch.setattr(claims, "enumerate_homs", lambda a, b: calls.append((a, b)) or honest(a, b))
    assert check_claim("T2.1", Universe(max_group_order=8)).verdict == VERDICT_VERIFIED
    assert calls == list(product(enumerate_groups(8), repeat=2))


def test_group_composition_builds_each_distinct_composite_once(monkeypatch):
    # One GroupHom.then per composite a -> c with distinct generator images,
    # however many pairs share it.
    calls = []
    honest = GroupHom.then
    monkeypatch.setattr(GroupHom, "then", lambda f, g: calls.append(1) or honest(f, g))
    report = check_claim("T2.1", Universe())
    assert (report.verdict, report.instances) == (VERDICT_VERIFIED, 495728)
    assert len(calls) == 1128


def test_group_composition_refuses_what_a_key_byte_cannot_hold(monkeypatch):
    # Element codes and devg1 tags share each byte of a key, codes below 128
    # and tags from 128 up, so either one running past its half is an error.
    with pytest.raises(ValueError, match="codes must fit below 128"):
        next(claims.check_group_composition(129))
    fresh = iter(range(1000, 2000))
    monkeypatch.setattr(claims, "devg1", lambda f: FinAbGroup((next(fresh),)))
    with pytest.raises(ValueError, match="first deviations"):
        check_claim("T2.1", Universe(max_group_order=8))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(0, 7), m=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_pair_sweep_is_the_plain_loop_judging_each_key_once(data, n, m, seed):
    # Inner maps of n codes below m, one word each (widths 1, 2, 4 and 8),
    # outer tables into a few codes and 127, and a verdict drawn at random
    # per passed set and key. The sweep must count and stop where the loop
    # over every pair does, and judge a key at most once per passed set.
    codes = data.draw(st.lists(st.lists(st.integers(0, m - 1), min_size=n, max_size=n), max_size=6))
    tags = data.draw(st.lists(st.integers(0, 127), min_size=len(codes), max_size=len(codes)))
    outer = st.lists(st.sampled_from([0, 1, 2, 127]), min_size=m, max_size=m)
    rows = data.draw(st.lists(st.tuples(outer, st.integers(0, 2)), max_size=8))
    words, width = claims._words([bytes(c) for c in codes], tags, n)
    assert width == 1 << n.bit_length() and len(words) == width * len(codes)
    rng = random.Random(seed)
    verdicts, judged = {}, set()

    def word_of(table, i):
        return bytes(table[c] for c in codes[i]) + b"\x80" * (width - 1 - n) + bytes((128 + tags[i],))

    def fails(shared, word):
        return verdicts.setdefault((shared, word), rng.random() < 0.1 and f"fails {word.hex()}")

    def judge(context, i, word):
        r, shared = context
        assert word == word_of(rows[r][0], i)
        assert (shared, word) not in judged
        judged.add((shared, word))
        return fails(shared, word)

    expected, count = None, 0
    for r, (table, shared) in enumerate(rows):
        for i in range(len(codes)):
            failure = fails(shared, word_of(table, i))
            if failure and expected is None:
                expected = [count, (r, i, failure)]
            count += expected is None
    passed = [set(), set(), set()]
    swept = list(
        claims._pair_sweep(
            words,
            width,
            (((r, shared), bytes(table), passed[shared]) for r, (table, shared) in enumerate(rows)),
            judge,
            lambda context, i, failure: (context[0], i, failure),
        )
    )
    assert swept == (expected or [count])


_THREE = FiniteSet(3)
# (0, 0, 1) on three elements, first composed at (3, 2, 3) from f = (0, 0, 1)
# and g = (0, 1).
_COMPOSITE = Mapping(_THREE, _THREE, (0, 0, 1))


@pytest.mark.parametrize("claim_id", ["T1.1", "1.12"])
def test_composite_claims_check_the_lookup_against_then(monkeypatch, claim_id):
    # Each distinct composite table is built once by Mapping.then, and the
    # sweep stops if the two disagree.
    honest = Mapping.then
    wrong = Mapping(_THREE, _THREE, (0, 1, 1))
    monkeypatch.setattr(Mapping, "then", lambda f, g: wrong if honest(f, g) == _COMPOSITE else honest(f, g))
    with pytest.raises(AssertionError, match="composite disagrees with its table lookup"):
        check_claim(claim_id, Universe(max_triple_size=3))



@pytest.mark.parametrize("claim_id", ["T1.1", "1.12", "0.3", "E-functoriality"])
def test_mapping_sweeps_leave_no_blocks_behind(claim_id):
    # A tuple grown from an iterator of unknown length is resized, and once
    # freed it stays in CPython's free list for its length, so a sweep that
    # builds tables that way leaves thousands of blocks allocated. A full
    # collection empties the free lists, so one runs only before the sweep.
    gc.collect()
    before = sys.getallocatedblocks()
    check_claim(claim_id, _MAPS_SWEEP)
    assert sys.getallocatedblocks() - before < 1000


def test_group_sweep_leaves_no_blocks_behind():
    # The first run fills the memo caches, so the second one measures only
    # what the sweep itself leaves, such as matrix tuples grown by resizing.
    universe = Universe(max_group_order=15)
    check_claim("devg-oracle", universe)
    gc.collect()
    before = sys.getallocatedblocks()
    check_claim("devg-oracle", universe)
    assert sys.getallocatedblocks() - before < 1000


# Z/2 + Z/2 -> Z/4, (x, y) -> 2x: 47th of the 110 homs between groups of
# order at most 4. Both deviation components of it are Z/2.
_LIED_ABOUT = GroupHom(FinAbGroup((2, 2)), FinAbGroup((4,)), ((2, 0),))


@pytest.mark.parametrize("name", ["devg1", "devg2", "devg1_oracle", "devg2_oracle"])
def test_group_crosscheck_refutes_when_one_route_lies(monkeypatch, name):
    # Each of the four functions is checked against its counterpart on the
    # other route, so a lie told by any one of them alone is caught.
    honest = getattr(claims, name)
    monkeypatch.setattr(claims, name, lambda f: FinAbGroup((4,)) if f == _LIED_ABOUT else honest(f))
    report = check_claim("devg-oracle", Universe(max_group_order=4))
    components = {"devg1": [2], "devg1_oracle": [2], "devg2": [2], "devg2_oracle": [2], name: [4]}
    assert report.verdict == VERDICT_REFUTED
    assert report.instances == 47
    assert report.witness == {"hom": _LIED_ABOUT.to_json_dict(), **components}


@pytest.mark.parametrize("name", ["embeds_in", "embeds_in_oracle"])
def test_embedding_crosscheck_refutes_when_one_route_lies(monkeypatch, name):
    # Z/2 embeds in Z/4: pair 10 of the 25 at order at most 4.
    z2, z4 = FinAbGroup((2,)), FinAbGroup((4,))
    honest = getattr(claims, name)
    monkeypatch.setattr(claims, name, lambda a, b: False if (a, b) == (z2, z4) else honest(a, b))
    report = check_claim("embeds-oracle", Universe(max_group_order=4))
    answers = {"fast": True, "oracle": True, {"embeds_in": "fast", "embeds_in_oracle": "oracle"}[name]: False}
    assert report.verdict == VERDICT_REFUTED
    assert report.instances == 10
    assert report.witness == {"a": [2], "b": [4], **answers}


def _homs_up_to(order):
    groups = enumerate_groups(order)
    return [f for a, b in product(groups, repeat=2) for f in enumerate_homs(a, b)]


def test_group_crosscheck_tabulates_each_hom_once(monkeypatch):
    # devg-oracle and L2.1 share the HOMS sweep, which enumerates each hom
    # once for both. Both element-route functions and L2.1 read f's table;
    # the codomain keeps the last one, so each hom is tabulated once.
    yielded, tabulated = [], []
    honest_homs, honest_columns = claims.enumerate_homs, abgroup.CodedGroup.columns

    def counting_homs(a, b):
        for f in honest_homs(a, b):
            yielded.append(f)
            yield f

    monkeypatch.setattr(claims, "enumerate_homs", counting_homs)
    monkeypatch.setattr(
        abgroup.CodedGroup, "columns", lambda code, f: tabulated.append(f) or honest_columns(code, f)
    )
    abgroup.element_table.cache_clear()
    universe = Universe(max_group_order=8)
    selected = [REGISTRY["devg-oracle"], REGISTRY["L2.1"]]
    with verifier.together(selected, universe):
        reports = [check_claim(c, universe) for c in selected]
    assert [(r.verdict, r.instances) for r in reports] == [(VERDICT_VERIFIED, 1128)] * 2
    assert yielded == tabulated == _homs_up_to(8)


def test_normal_form_route_reads_no_element_tables(monkeypatch):
    homs = _homs_up_to(8)
    expected = [(abgroup.devg1_oracle(f), abgroup.devg2_oracle(f)) for f in homs]

    def no_tables(group):
        raise AssertionError("the normal-form route read an element table")

    monkeypatch.setattr(abgroup, "element_table", no_tables)
    with pytest.raises(AssertionError):
        abgroup.devg1_oracle(homs[-1])
    # The uncached functions over emptied image memos, so that no earlier result is reused.
    abgroup._image.cache_clear()
    abgroup._cokernel.cache_clear()
    assert [(abgroup.devg1.__wrapped__(f), abgroup.devg2.__wrapped__(f)) for f in homs] == expected


def test_element_route_runs_no_normal_form(monkeypatch):
    homs = _homs_up_to(8)
    expected = [(abgroup.devg1(f), abgroup.devg2(f)) for f in homs]
    groups = enumerate_groups(16)
    embeddings = [[abgroup.embeds_in(a, b) for b in groups] for a in groups]

    def no_normal_form(mat, p, e):
        raise AssertionError("the element route ran a normal form")

    monkeypatch.setattr(abgroup, "smith_normal_form", no_normal_form)
    # Emptied image memos, so that the normal-form route really runs.
    abgroup._image.cache_clear()
    abgroup._cokernel.cache_clear()
    with pytest.raises(AssertionError):
        abgroup.devg2.__wrapped__(homs[-1])
    # Fresh coded groups, so that no memoised quotient is reused.
    abgroup.element_table.cache_clear()
    assert [(abgroup.devg1_oracle(f), abgroup.devg2_oracle(f)) for f in homs] == expected
    oracle = abgroup.embeds_in_oracle.__wrapped__
    assert [[oracle(a, b) for b in groups] for a in groups] == embeddings


def test_normal_forms_are_kept_once_per_image():
    # devg1 and devg2 read a hom's image alone: the memos hold one entry per
    # (codomain, gcd of the orders, column set) and per (codomain, column
    # set), and none per hom.
    abgroup._image.cache_clear()
    abgroup._cokernel.cache_clear()
    assert check_claim("devg-oracle", Universe(max_group_order=15)).verdict == VERDICT_VERIFIED
    homs = _homs_up_to(15)
    columns = [frozenset(zip(*f.matrix)) for f in homs]
    images = {(f.cod, gcd(f.dom.order(), f.cod.order()), c) for f, c in zip(homs, columns)}
    cokernels = {(f.cod, c) for f, c in zip(homs, columns)}
    assert (len(homs), len(images), len(cokernels)) == (2179, 622, 425)
    assert abgroup._image.cache_info().currsize == abgroup._image.cache_info().misses == len(images)
    assert abgroup._cokernel.cache_info().currsize == abgroup._cokernel.cache_info().misses == len(cokernels)
    assert abgroup.devg1.cache_info().currsize == abgroup.devg2.cache_info().currsize == 0
    # Z/2 -> Z/2 and Z/6 -> Z/2, each sending the generator to 1: one entry each.
    z2 = FinAbGroup((2,))
    abgroup._image.cache_clear()
    abgroup._cokernel.cache_clear()
    for f in (GroupHom(z2, z2, ((1,),)), GroupHom(FinAbGroup((6,)), z2, ((1,),))):
        deviation = (abgroup.devg1(f), abgroup.devg2(f))
        assert deviation == (abgroup.devg1_oracle(f), abgroup.devg2_oracle(f)) == (z2, FinAbGroup(())), f
    for memo in (abgroup._image, abgroup._cokernel):
        info = memo.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


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
