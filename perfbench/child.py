"""One cold setdev interpreter: set up, run one workload, report as JSON.

Usage: python3 perfbench/child.py '<config json>'

The config holds ``src`` (the directory holding the setdev package),
``mode`` (``setup``, ``run`` or ``trace``) and ``argv`` (the setdev command
line). The child prints one JSON object on stdout; setdev's own output is
captured, never printed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

from tracer import CACHED, Tracer


def _records(text: str) -> tuple[list[dict], str]:
    """Machine records with their millis, and the digest of the records
    with millis stripped (the bytes ``verify`` prints without --timings)."""
    records = [json.loads(line) for line in text.splitlines()]
    stripped = []
    for record in records:
        plain = {key: value for key, value in record.items() if key != "millis"}
        stripped.append(json.dumps(plain, sort_keys=True))
    digest = hashlib.sha256(("\n".join(stripped) + "\n").encode("utf-8")).hexdigest()
    return records, digest


def main() -> int:
    config = json.loads(sys.argv[1])
    start = time.perf_counter()
    sys.path.insert(0, config["src"])
    import setdev.cli
    from setdev import abgroup, verifier

    verifier.registry()
    setup_s = time.perf_counter() - start

    package_dir = os.path.dirname(os.path.abspath(setdev.cli.__file__))
    if package_dir != os.path.join(os.path.abspath(config["src"]), "setdev"):
        raise SystemExit(f"imported setdev from {package_dir}, not from {config['src']}")
    result: dict = {"setup_s": setup_s}
    if config["mode"] == "setup":
        print(json.dumps(result))
        return 0

    warm = {name: getattr(abgroup, name).cache_info().currsize for name in CACHED}
    if any(warm.values()):
        raise SystemExit(f"memo caches are not empty before the first claim: {warm}")

    tracer = Tracer(layers=config["mode"] == "trace")
    out = io.StringIO()
    tracer.install()
    try:
        with contextlib.redirect_stdout(out):
            exit_code = setdev.cli.main(config["argv"])
    finally:
        broken = tracer.restore()
    if broken:
        raise SystemExit(f"patched attributes not restored: {broken}")

    records, digest = _records(out.getvalue())
    result.update(
        {
            "exit_code": exit_code,
            "verdict_s": tracer.verdict_s(),
            "digest": digest,
            "records": records,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    )
    if tracer.layers:
        result["layers"] = tracer.layer_stats()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
