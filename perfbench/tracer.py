"""Per-layer tracing of setdev from outside the package.

The tracer replaces public functions of the setdev modules with wrappers
that count calls and time them. Every binding of a function inside the
setdev package is replaced: the defining module's attribute (so calls
inside that module are seen) and each name another setdev module imported
(``setdev.claims``, ``setdev.cli`` and the package itself). Methods are
replaced on their class.

Figures are aggregated per (claim, function) as call count, total time and
self time, never per call: ``T2.1`` alone makes millions of calls. Self
time is total time minus the time of traced calls nested inside.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# layer -> functions timed as calls, total and self time.
TIMED = {
    "finset": ("kernel_partition", "image", "Mapping.then", "partition_leq"),
    "powerset": ("direct_image_map", "preimage_map", "restrict_preimage_to_image", "kappa"),
    "abgroup": (
        "smith_normal_form",
        "devg1",
        "devg2",
        "devg1_oracle",
        "devg2_oracle",
        "embeds_in_oracle",
        "GroupHom.then",
        "embeds_in",
    ),
    "chu": ("embed", "compose", "morphism_is_valid", "forced_backward"),
}
# layer -> {reported name: attribute}, counted only. Constructing a
# dataclass runs its __post_init__ validation once.
COUNTED = {
    "finset": {"Mapping.new": "Mapping.__post_init__"},
    "abgroup": {"GroupHom.new": "GroupHom.__post_init__", "element_table": "element_table"},
}
# layer -> generator functions whose yielded items are counted.
YIELDED = {"abgroup": ("enumerate_homs",), "verifier": ("enumerate_mappings",)}
# The process-global memo caches in abgroup.
CACHED = ("devg1", "devg2", "embeds_in", "embeds_in_oracle")

OUTSIDE_CLAIMS = "(none)"


def _resolve(module, path: str):
    holder = module
    *owners, name = path.split(".")
    for owner in owners:
        holder = getattr(holder, owner)
    return holder, name


class Tracer:
    """Patches setdev for one run and restores it afterwards.

    With ``layers=False`` only ``check_claim`` is wrapped, to time the span
    from the first claim starting to the last verdict. With ``layers=True``
    the functions in TIMED, COUNTED and YIELDED are wrapped as well.
    """

    def __init__(self, layers: bool) -> None:
        self.layers = layers
        self.first_start: float | None = None
        self.last_end: float | None = None
        # claim id -> function key -> [calls, total_s, self_s]
        self.by_claim: dict[str, dict[str, list]] = {}
        self.claims_self_s = 0.0
        self._current = self._claim_stats(OUTSIDE_CLAIMS)
        # Time of traced calls nested in the open frame, one entry per frame.
        self._nested = [0.0]
        self._patched: list[tuple[object, str, object]] = []

    def _claim_stats(self, claim_id: str) -> dict[str, list]:
        return self.by_claim.setdefault(claim_id, defaultdict(lambda: [0, 0.0, 0.0]))

    # --- wrappers -----------------------------------------------------------

    def _wrap_check_claim(self, fn):
        tracer = self
        clock = time.perf_counter

        def check_claim(claim, universe):
            claim_id = claim if isinstance(claim, str) else claim.id
            outer, outer_nested = tracer._current, tracer._nested
            tracer._current, tracer._nested = tracer._claim_stats(claim_id), [0.0]
            start = clock()
            if tracer.first_start is None:
                tracer.first_start = start
            try:
                return fn(claim, universe)
            finally:
                end = clock()
                tracer.last_end = end
                tracer.claims_self_s += (end - start) - tracer._nested[0]
                tracer._current, tracer._nested = outer, outer_nested

        return check_claim

    def _wrap_timed(self, key: str, fn):
        tracer = self
        clock = time.perf_counter

        def timed(*args, **kwargs):
            nested = tracer._nested
            nested.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = nested.pop()
                nested[-1] += elapsed
                stats = tracer._current[key]
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - inner

        return timed

    def _wrap_counted(self, key: str, fn):
        tracer = self

        def counted(*args, **kwargs):
            tracer._current[key][0] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap_yielded(self, key: str, fn):
        tracer = self

        def yielded(*args, **kwargs):
            for item in fn(*args, **kwargs):
                tracer._current[key][0] += 1
                yield item

        return yielded

    # --- patching -----------------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        """Bind ``wrapper`` wherever a setdev module binds ``original``."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "setdev" or name.startswith("setdev.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _patch(self, module, path: str, make_wrapper, key: str) -> None:
        holder, name = _resolve(module, path)
        original = getattr(holder, name)
        wrapper = make_wrapper(key, original)
        if isinstance(holder, type):
            self._patched.append((holder, name, original))
            setattr(holder, name, wrapper)
        else:
            self._replace_everywhere(original, wrapper)

    def install(self) -> None:
        from setdev import verifier

        self._replace_everywhere(
            verifier.check_claim, self._wrap_check_claim(verifier.check_claim)
        )
        if not self.layers:
            return
        modules = {
            name: sys.modules[f"setdev.{name}"]
            for name in ("finset", "powerset", "abgroup", "chu", "verifier")
        }
        for layer, paths in TIMED.items():
            for path in paths:
                self._patch(modules[layer], path, self._wrap_timed, f"{layer}.{path}")
        for layer, names in COUNTED.items():
            for key, path in names.items():
                self._patch(modules[layer], path, self._wrap_counted, f"{layer}.{key}")
        for layer, paths in YIELDED.items():
            for path in paths:
                self._patch(modules[layer], path, self._wrap_yielded, f"{layer}.{path}")

    def restore(self) -> list[str]:
        """Undo every patch; return the bindings that did not come back."""
        for holder, name, original in reversed(self._patched):
            setattr(holder, name, original)
        broken = [
            f"{getattr(holder, '__name__', holder)}.{name}"
            for holder, name, original in self._patched
            if getattr(holder, name) is not original
        ]
        self._patched.clear()
        return broken

    # --- results ------------------------------------------------------------

    def verdict_s(self) -> float | None:
        if self.first_start is None or self.last_end is None:
            return None
        return self.last_end - self.first_start

    def layer_stats(self) -> dict:
        """Per (claim, function) figures, claims' own time and cache state."""
        from setdev import abgroup

        caches = {}
        for name in CACHED:
            info = getattr(abgroup, name).cache_info()
            caches[name] = {"hits": info.hits, "misses": info.misses, "currsize": info.currsize}
        return {
            "by_claim": {
                claim: {key: list(stats) for key, stats in funcs.items()}
                for claim, funcs in self.by_claim.items()
                if funcs
            },
            "claims_self_s": self.claims_self_s,
            "caches": caches,
        }
