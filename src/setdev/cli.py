"""Command-line surface: verify the law registry, inspect single constructions.

Exit codes: 0 all verdicts as expected (or inspection succeeded), 1 verdict
mismatch, 2 usage or parse error. Machine output is UTF-8 line-delimited
JSON with a schema field.
"""

from __future__ import annotations

import argparse
import json
import sys

from .abgroup import GroupHom, devg
from .chu import e_space, embed, ex_deviation, morphism_is_valid
from .finset import Mapping, canonical_factorization, classify, deviation, elements, kernel_partition
from .powerset import MAX_BASE
from .verifier import MACHINE_SCHEMA, Universe, check_claim, machine_records, registry, text_report, together

USAGE_ERROR = 2
# Largest domain or codomain of a mapping literal, since output grows with
# them: the largest carrier the library tabulates, a powerset over MAX_BASE.
MAX_CARRIER = 1 << MAX_BASE


class CliError(Exception):
    pass


def _parse_json(literal: str) -> object:
    try:
        return json.loads(literal)
    except json.JSONDecodeError as exc:
        raise CliError(f"parse error at position {exc.pos}: {exc.msg}") from exc
    except RecursionError as exc:
        raise CliError("parse error: literal nests too deeply") from exc


def _parse_mapping(literal: str) -> Mapping:
    data = _parse_json(literal)
    try:
        f = Mapping.from_json_dict(data)
    except (ValueError, TypeError, KeyError) as exc:
        raise CliError(f"invalid mapping literal: {exc}") from exc
    if f.dom.size > MAX_CARRIER or f.cod.size > MAX_CARRIER:
        raise CliError(f"mapping carriers are capped at {MAX_CARRIER} elements")
    return f


def _parse_hom(literal: str) -> GroupHom:
    data = _parse_json(literal)
    try:
        return GroupHom.from_json_dict(data)
    except (ValueError, TypeError, KeyError) as exc:
        raise CliError(f"invalid hom literal: {exc}") from exc


def _universe_from_args(args: argparse.Namespace) -> Universe:
    try:
        return Universe(
            max_set_size=args.max_size,
            max_triple_size=args.max_triple_size,
            max_group_order=args.max_group_order,
            max_powerset_base=args.max_powerset_base,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit_record(args: argparse.Namespace, record: dict, lines: list[str]) -> int:
    """Write record, stamped with the schema, as one JSON line in machine
    format, and the text lines otherwise; an inspection's exit code."""
    if args.format == "machine":
        _emit(json.dumps({"schema": MACHINE_SCHEMA, **record}, sort_keys=True) + "\n", args.output)
    else:
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def _add_universe_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-size", type=int, default=4, help="carrier size bound")
    parser.add_argument("--max-triple-size", type=int, default=3, help="composition carrier bound")
    parser.add_argument("--max-group-order", type=int, default=12, help="group order bound")
    parser.add_argument("--max-powerset-base", type=int, default=4, help="powerset base bound")


def cmd_verify(args: argparse.Namespace) -> int:
    universe = _universe_from_args(args)
    reg = registry()
    if args.claims is not None:
        ids = [c.strip() for c in args.claims.split(",")]
        if not all(ids):
            raise CliError("--claims needs comma-separated claim ids, none of them blank")
        unknown = [c for c in ids if c not in reg]
        if unknown:
            raise CliError(f"unknown claim ids: {', '.join(unknown)}")
        repeated = list(dict.fromkeys(c for c in ids if ids.count(c) > 1))
        if repeated:
            raise CliError(f"repeated claim ids: {', '.join(repeated)}")
        selected = [reg[c] for c in ids]
    else:
        selected = list(reg.values())
    _emit("", args.output)  # an unwritable path is refused before the sweep
    with together(selected, universe):
        reports = [check_claim(c, universe) for c in selected]
    if args.format == "machine":
        _emit(machine_records(reports, include_millis=args.timings), args.output)
    else:
        _emit(text_report(reports, show_millis=args.timings), args.output)
    return 0 if all(r.ok() for r in reports) else 1


def _dot_deviation(f: Mapping) -> str:
    dev = deviation(f)
    lines = ["digraph deviation {", "  rankdir=LR;"]
    for i, blk in enumerate(dev.part.to_lists()):
        lines.append(f"  subgraph cluster_block{i} {{")
        lines.append(f'    label="block {i}";')
        for x in blk:
            lines.append(f'    x{x} [label="{x}"];')
        lines.append("  }")
    for y in range(f.cod.size):
        style = " style=dashed" if dev.missed >> y & 1 else ""
        lines.append(f'  y{y} [label="{y}" shape=box{style}];')
    for x, y in enumerate(f.table):
        lines.append(f"  x{x} -> y{y};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_dev(args: argparse.Namespace) -> int:
    f = _parse_mapping(args.mapping)
    if args.dot:
        _emit(_dot_deviation(f), args.output)
        return 0
    dev = deviation(f)
    flags = classify(dev).flags()
    fact = canonical_factorization(f)
    record = {
        "type": "dev",
        "mapping": f.to_json_dict(),
        "partition": dev.part.to_lists(),
        "missed": list(elements(dev.missed)),
        "flags": list(flags),
        "factorization": {
            "proj": list(fact.proj.table),
            "mid": list(fact.mid.table),
            "incl": list(fact.incl.table),
        },
    }
    out = [
        f"mapping: {json.dumps(f.to_json_dict())}",
        f"kernel partition: {dev.part.to_lists()}",
        f"missed: {list(elements(dev.missed))}",
        f"flags: {', '.join(flags) if flags else '(none)'}",
        f"factorization: proj {list(fact.proj.table)} onto {fact.proj.cod.size} blocks; "
        f"mid {list(fact.mid.table)}; incl {list(fact.incl.table)} into {f.cod.size}",
    ]
    return _emit_record(args, record, out)


def cmd_factor(args: argparse.Namespace) -> int:
    f = _parse_mapping(args.mapping)
    fact = canonical_factorization(f)
    record = {
        "type": "factorization",
        "mapping": f.to_json_dict(),
        "proj": fact.proj.to_json_dict(),
        "mid": fact.mid.to_json_dict(),
        "incl": fact.incl.to_json_dict(),
    }
    blocks = ("{" + ",".join(map(str, blk)) + "}" for blk in kernel_partition(f).to_lists())
    out = [
        f"mapping: {json.dumps(f.to_json_dict())}",
        f"proj (surjection): {json.dumps(fact.proj.to_json_dict())}",
        f"mid  (bijection) : {json.dumps(fact.mid.to_json_dict())}",
        f"incl (injection) : {json.dumps(fact.incl.to_json_dict())}",
        f"blocks: {', '.join(blocks)}",
    ]
    return _emit_record(args, record, out)


def cmd_group(args: argparse.Namespace) -> int:
    f = _parse_hom(args.hom)
    try:
        d = devg(f)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    iso_shape = d.first == f.dom and d.second.is_trivial()
    flags = []
    if d.first == f.dom:
        flags.append("injective")
    if d.second.is_trivial():
        flags.append("surjective")
    if iso_shape:
        flags.append("isomorphism")
    record = {
        "type": "group-deviation",
        "hom": f.to_json_dict(),
        "devg1": list(d.first.factors),
        "devg2": list(d.second.factors),
        "flags": flags,
    }
    out = [
        f"hom: {json.dumps(f.to_json_dict())}",
        f"devg1 (domain / kernel): {list(d.first.factors)}",
        f"devg2 (codomain / image): {list(d.second.factors)}",
        f"flags: {', '.join(flags) if flags else '(none)'}",
    ]
    return _emit_record(args, record, out)


def cmd_chu(args: argparse.Namespace) -> int:
    f = _parse_mapping(args.mapping)
    if f.dom.size > 8 or f.cod.size > 8:
        raise CliError("evaluation spaces are printable up to carrier size 8")
    ex, ey = e_space(f.dom), e_space(f.cod)
    m = embed(f)
    valid = morphism_is_valid(m, ex, ey)
    record = {
        "type": "chu-embedding",
        "mapping": f.to_json_dict(),
        "source": ex.to_json_dict(),
        "target_states": ey.states.size,
        "morphism": m.to_json_dict(),
        "valid": valid,
    }
    if f.dom.size >= 2:
        dev = ex_deviation(f.dom)
        record["evaluation_deviation"] = {
            "block_sizes": [b.bit_count() for b in dev.part.blocks],
            "missed": list(elements(dev.missed)),
        }
    out = [
        f"mapping: {json.dumps(f.to_json_dict())}",
        f"evaluation space: {f.dom.size} points x {ex.states.size} states",
        f"forward: {list(m.forward.table)}",
        f"backward: {list(m.backward.table)}",
        f"adjointness holds: {valid}",
    ]
    if "evaluation_deviation" in record:
        out.append(
            f"evaluation deviation: blocks {record['evaluation_deviation']['block_sizes']}, "
            f"missed {record['evaluation_deviation']['missed']}"
        )
    return _emit_record(args, record, out)


def cmd_counterexamples(args: argparse.Namespace) -> int:
    universe = _universe_from_args(args)
    dev2, rho, devg2 = (
        check_claim(claim_id, universe).witness
        for claim_id in ("T1.2-counterexample", "rho-not-functor", "T2.1-counterexample")
    )
    record = {
        "type": "counterexamples",
        "dev2_incomparability": dev2,
        "rho_not_functor": rho,
        "devg2_incomparability": devg2,
    }
    out = [
        f"missed-set incomparability: {json.dumps(dev2, sort_keys=True)}",
        f"induced-bijection signature drift: {json.dumps(rho, sort_keys=True)}",
        f"group second-component incomparability: {json.dumps(devg2, sort_keys=True)}",
    ]
    return _emit_record(args, record, out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setdev",
        description="inspect deviations from bijectivity and verify the law registry",
    )
    parser.add_argument("--format", choices=("text", "machine"), default="text")
    parser.add_argument("--output", default=None, help="write output to a file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run registered claims over a bounded universe")
    p_verify.add_argument("--claims", default=None, help="comma-separated claim ids")
    p_verify.add_argument("--timings", action="store_true", help="include per-claim timings")
    _add_universe_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_dev = sub.add_parser("dev", help="deviation, flags, and factorization of a mapping")
    p_dev.add_argument("mapping", help='mapping literal, e.g. {"dom":3,"cod":2,"table":[0,0,1]}')
    p_dev.add_argument("--dot", action="store_true", help="emit a DOT partition diagram")
    p_dev.set_defaults(func=cmd_dev)

    p_factor = sub.add_parser("factor", help="surjection-bijection-injection factorization")
    p_factor.add_argument("mapping")
    p_factor.set_defaults(func=cmd_factor)

    p_group = sub.add_parser("group", help="group deviation of a homomorphism literal")
    p_group.add_argument("hom", help='hom literal, e.g. {"dom":[4],"cod":[4],"matrix":[[2]]}')
    p_group.set_defaults(func=cmd_group)

    p_chu = sub.add_parser("chu", help="embed a mapping between evaluation spaces")
    p_chu.add_argument("mapping")
    p_chu.set_defaults(func=cmd_chu)

    p_cx = sub.add_parser("counterexamples", help="print the standard incomparability witnesses")
    _add_universe_flags(p_cx)
    p_cx.set_defaults(func=cmd_counterexamples)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
