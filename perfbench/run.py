"""Benchmark of setdev: cold-process `setdev verify` workloads.

Usage (from the root of the repository):

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Each sample is a fresh interpreter (perfbench/child.py) that imports setdev
from ./src, builds the claim registry, checks that the abgroup memo caches
are empty and drives ``setdev.cli.main`` with the workload's argv. Children
run one at a time, closed loop, until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics: ``verdict_p90_s``, the 90th
percentile over the run's samples of the seconds from the first claim
starting to the last verdict; ``setup_s``, the median seconds to import
setdev and build the registry; and ``peak_rss_mb``, the median peak RSS.
``--trace 1`` alternates untraced and traced children and reports the
per-layer metrics.

Every child's machine records are checked against the verdicts pinned in
perfbench/workloads.json, and the digest of the records with ``millis``
stripped must agree across all children, traced or not. The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 1 when the run is not correct. Without
``--workload`` every workload runs in turn. The workloads' inputs are
exhaustive enumerations fixed by their universe bounds, so ``--seed`` is
recorded but selects nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import CACHED, COUNTED, TIMED, YIELDED

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = BENCH_DIR / "child.py"
SPEC = json.loads((BENCH_DIR / "workloads.json").read_text(encoding="utf-8"))
EXPECTED = SPEC["expected_verdicts"]
WORKLOADS = SPEC["workloads"]

# Set-up is timed in bursts of setup-only children, spread over the run so
# that the median does not rest on the machine's speed at one moment.
SETUP_BURST = 3
SETUP_BURST_GAP_S = 2.0
# One workload's run must end well inside 180 s, whatever --seconds says.
RUN_DEADLINE_S = 165.0


class ChildError(Exception):
    pass


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for layer, paths in TIMED.items():
        for path in paths:
            units[f"{layer}.{path}.calls"] = "count"
            units[f"{layer}.{path}.self_s"] = "s"
    for layer, names in COUNTED.items():
        for key in names:
            units[f"{layer}.{key}.calls"] = "count"
    for layer, paths in YIELDED.items():
        for path in paths:
            units[f"{layer}.{path}.yielded"] = "count"
    for name in CACHED:
        units[f"abgroup.{name}.hit_ratio"] = "ratio"
        units[f"abgroup.{name}.currsize"] = "count"
    units["claims.self_s"] = "s"
    for claim_id in EXPECTED:
        units[f"claim.{claim_id}.s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


END_TO_END_UNITS = {"verdict_p90_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def p90(values: list[float]) -> float:
    """90th percentile, interpolated between samples; near the max for few."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run_child(mode: str, argv: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildError(f"no time left for a {mode} child")
    config = json.dumps({"src": str(SRC), "mode": mode, "argv": argv})
    # A fixed string hash seed gives every child the same set iteration order.
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), config],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{mode} child did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise ChildError(f"{mode} child exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_records(name: str, child: dict) -> tuple[int, int, list[str]]:
    """Claims attempted and failed in one child, and any other problems."""
    claims = {r["id"]: r for r in child["records"] if r.get("type") == "claim"}
    pinned = WORKLOADS[name]["claims"]
    ids = list(pinned) + [i for i in claims if i not in pinned]
    failed = 0
    for claim_id in ids:
        record = claims.get(claim_id)
        if (
            record is None
            or record["verdict"] != record["expected"]
            or record["verdict"] != EXPECTED.get(claim_id, record["expected"])
        ):
            failed += 1
    problems = []
    summary = child["records"][-1] if child["records"] else {}
    if summary.get("type") != "summary" or not summary.get("all_expected"):
        problems.append("summary record missing or not all_expected")
    if child["exit_code"] != 0:
        problems.append(f"setdev exited with {child['exit_code']}")
    return len(ids), failed, problems


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "commit": _git_commit(),
    }


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Per-layer figures, each the median over the run's children."""
    per_child: list[dict[str, float]] = []
    for child in traced:
        layers = child["layers"]
        totals: dict[str, list] = {}
        for funcs in layers["by_claim"].values():
            for key, (calls, _total, self_s) in funcs.items():
                acc = totals.setdefault(key, [0, 0.0])
                acc[0] += calls
                acc[1] += self_s
        values: dict[str, float] = {}
        for layer, paths in TIMED.items():
            for path in paths:
                calls, self_s = totals.get(f"{layer}.{path}", (0, 0.0))
                values[f"{layer}.{path}.calls"] = calls
                values[f"{layer}.{path}.self_s"] = self_s
        for layer, names in COUNTED.items():
            for key in names:
                values[f"{layer}.{key}.calls"] = totals.get(f"{layer}.{key}", (0, 0.0))[0]
        for layer, paths in YIELDED.items():
            for path in paths:
                values[f"{layer}.{path}.yielded"] = totals.get(f"{layer}.{path}", (0, 0.0))[0]
        for name in CACHED:
            info = layers["caches"][name]
            lookups = info["hits"] + info["misses"]
            values[f"abgroup.{name}.hit_ratio"] = info["hits"] / lookups if lookups else 0.0
            values[f"abgroup.{name}.currsize"] = info["currsize"]
        values["claims.self_s"] = layers["claims_self_s"]
        per_child.append(values)
    metrics = {key: statistics.median([v[key] for v in per_child]) for key in per_child[0]}
    for claim_id in EXPECTED:
        seconds = [
            r["millis"] / 1000.0
            for child in untraced
            for r in child["records"]
            if r.get("type") == "claim" and r["id"] == claim_id
        ]
        metrics[f"claim.{claim_id}.s"] = statistics.median(seconds) if seconds else 0.0
    traced_s = statistics.median([c["verdict_s"] for c in traced])
    metrics["trace.overhead_s"] = traced_s - statistics.median([c["verdict_s"] for c in untraced])
    return metrics


def top_self_times(traced: list[dict], limit: int = 12) -> list[tuple[str, str, int, float]]:
    """The (claim, function) pairs with the most self time, first traced child."""
    rows = [
        (claim, key, calls, self_s)
        for claim, funcs in traced[0]["layers"]["by_claim"].items()
        for key, (calls, _total, self_s) in funcs.items()
        if self_s > 0
    ]
    return sorted(rows, key=lambda row: -row[3])[:limit]


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> tuple[dict | None, dict]:
    """Run one workload; return its result object (None if nothing was
    measured) and the details printed above it."""
    workload = WORKLOADS[name]
    argv = list(workload["argv"]) + ["--timings"]
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    env = environment()
    attempted = failed = 0
    problems: list[str] = []
    untraced: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []

    def record(child: dict) -> None:
        nonlocal attempted, failed
        a, f, p = check_records(name, child)
        attempted += a
        failed += f
        problems.extend(p)

    try:
        run_child("setup", [], deadline)  # writes bytecode caches; not timed
        loop_start = last_burst = time.monotonic()
        while True:
            before = time.monotonic()
            if not trace and (not setups or before - last_burst >= SETUP_BURST_GAP_S):
                setups.extend(run_child("setup", [], deadline)["setup_s"] for _ in range(SETUP_BURST))
                last_burst = time.monotonic()
            child = run_child("run", argv, deadline)
            untraced.append(child)
            record(child)
            if trace:
                child = run_child("trace", argv, deadline)
                traced.append(child)
                record(child)
            now = time.monotonic()
            if now - loop_start >= seconds or now + (now - before) > deadline:
                break
    except ChildError as exc:
        problems.append(str(exc))
        attempted += len(workload["claims"])
        failed += len(workload["claims"])

    env["loadavg_end"] = list(os.getloadavg())
    samples = untraced + traced
    digests = sorted({c["digest"] for c in samples})
    if len(digests) > 1:
        problems.append(f"record digests differ between children: {digests}")
    details = {
        "workload": name,
        "argv": ["setdev"] + list(workload["argv"]),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "wall_s": time.monotonic() - started,
        "digests": digests,
        "problems": problems,
        "env": env,
        "untraced": untraced,
        "traced": traced,
        "setups": setups + [c["setup_s"] for c in untraced],
    }
    if not untraced or (trace and not traced):
        return None, details
    if trace:
        values = layer_metrics(traced, untraced)
        units = layer_metric_units()
    else:
        values = {
            "verdict_p90_s": p90([c["verdict_s"] for c in untraced]),
            "setup_s": statistics.median(details["setups"]),
            "peak_rss_mb": statistics.median([c["peak_rss_mb"] for c in untraced]),
        }
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }
    return result, details


def print_details(result: dict | None, details: dict) -> None:
    print(
        f"workload {details['workload']}  seed {details['seed']}  trace {details['trace']}  "
        f"seconds {details['seconds']}  wall {details['wall_s']:.1f} s"
    )
    print(f"  argv: {' '.join(details['argv'])}")
    untraced, traced = details["untraced"], details["traced"]
    if not details["trace"]:
        series = {
            "verdict_s": ([c["verdict_s"] for c in untraced], "s"),
            "setup_s": (details["setups"], "s"),
            "peak_rss_mb": ([c["peak_rss_mb"] for c in untraced], "MiB"),
        }
        for key, (values, unit) in series.items():
            if values:
                print(
                    f"  {key:<12} median {statistics.median(values):.4f} {unit}  "
                    f"p90 {p90(values):.4f} {unit}  max {max(values):.4f} {unit}  n={len(values)}"
                )
    elif result is not None:
        for key, metric in result["metrics"].items():
            if metric["value"]:
                print(f"  {key:<48} {metric['value']:.6g} {metric['unit']}")
        print("  top self time by (claim, function), first traced child:")
        for claim, key, calls, self_s in top_self_times(traced):
            print(f"    {claim:<22} {key:<34} {calls:>10} calls {self_s:9.4f} s")
    if result is not None:
        share = result["failed"] / result["attempted"] if result["attempted"] else 0.0
        print(f"  claims_failed {result['failed']}/{result['attempted']} = {share:g}")
    for digest in details["digests"]:
        print(f"  digest sha256:{digest}  ({len(untraced) + len(traced)} children)")
    for problem in details["problems"]:
        print(f"  PROBLEM: {problem}")
    print(f"  env: {json.dumps(details['env'], sort_keys=True)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "setdev" / "__init__.py").is_file():
        print(f"error: no setdev package under {SRC}", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(WORKLOADS)
    status = 0
    for name in names:
        result, details = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_details(result, details)
        if result is None:
            print(f"error: workload {name} produced no complete sample", file=sys.stderr)
            return 1
        print(json.dumps(result), flush=True)
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
