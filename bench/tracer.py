"""Layer spans and exact counters for one graphfactor operation.

The tracer wraps each layer's public functions where other modules reach
them (a module attribute such as ``census.screen`` or a method on a class),
so no program file is edited.  Spans are kept in memory as
``(span_id, name, start_ns, end_ns, parent_id)`` and written out once, at
the end.  ``Tracer.install`` returns with every wrapper in place and
``Tracer.restore`` puts every original back.
"""
from __future__ import annotations

import functools
import json
import os
import time

ROOT = "bench.op"

# Canonical-labelling spans are named after the layer that asked for them,
# found as the innermost open span when the call starts.
CANONICAL = "graphs.canonical"
CANONICAL_CALLERS = {
    "census.enumerate": "enumerate",
    "conditions.screen": "screen",
    "search.factor_search": "search",
    "search.dedup_pairs": "dedup",
    "census.verify_catalog": "verify",
    "conditions.validate": "validate",
}
CALLERS = tuple(CANONICAL_CALLERS.values())

PRUNE_RULES = ("P1", "P2", "P3", "P4")
SCREEN_RULES = ("R1", "R2", "R3", "R4")

# Layers reported by inclusive time (".s") and by self time (".self_s").
INCLUSIVE = (
    "census.enumerate",
    "search.factor_search",
    "search.dedup_pairs",
    "spectral.lambda_max",
    "conditions.validate",
    "factorization.to_factorization",
    "census.write_catalog",
    "census.read_catalog",
)
SELF = (
    "conditions.screen",
    "census.run_census",
    "census.verify_catalog",
    "search.is_factorizable",
)
CALLED = (
    "search.factor_search",
    "spectral.lambda_max",
    "conditions.screen",
    "search.is_factorizable",
)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, str, int, int, int]] = []
        self.counters: dict[str, int] = {}
        self._stack: list[tuple[int, str]] = []
        self._next_id = 1
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> tuple[int, str, int, int]:
        parent = self._stack[-1][0] if self._stack else 0
        sid = self._next_id
        self._next_id += 1
        self._stack.append((sid, name))
        return sid, name, parent, time.perf_counter_ns()

    def close(self, token: tuple[int, str, int, int]) -> int:
        end = time.perf_counter_ns()
        sid, name, parent, start = token
        self._stack.pop()
        self.spans.append((sid, name, start, end, parent))
        return end - start

    def current(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    def count(self, name: str, by: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + by

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner, attr: str, name, after=None) -> None:
        """Replace ``owner.attr`` by a spanned call.  ``name`` is a layer name
        or a function of the tracer giving one; ``after(args, result, ns)``
        records counters once the call returns."""
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            token = tracer.open(name if isinstance(name, str) else name(tracer))
            try:
                result = original(*args, **kwargs)
            finally:
                ns = tracer.close(token)
            if after is not None:
                after(args, result, ns)
            return result

        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        from graphfactor import census, conditions, factorization, search, spectral

        def canonical(tracer: Tracer) -> str:
            return f"{CANONICAL}.{CANONICAL_CALLERS.get(tracer.current(), 'other')}"

        def screened(args, report, ns) -> None:
            for rule in report.rules:
                if rule.status == "ruled_out":
                    self.count(f"conditions.screen.ruled_out.{rule.rule_id}")

        def searched(args, result, ns) -> None:
            found, stats = result
            self.count("search.nodes", stats.nodes_expanded)
            self.count("search.witnesses", stats.witnesses_found)
            for rule in PRUNE_RULES:
                self.count(f"search.prunes.{rule}", stats.prunes_by_rule.get(rule, 0))
            if not found:
                self.count("search.no_ns", ns)

        def validated(args, result, ns) -> None:
            self.count("conditions.validate.witnesses")

        def enumerated(args, classes, ns) -> None:
            self.count("census.enumerate.classes", len(classes))

        def catalog_written(args, result, ns) -> None:
            self.count("census.catalog_bytes", os.path.getsize(args[1]))

        def catalog_read(args, result, ns) -> None:
            self.count("census.catalog_bytes", os.path.getsize(args[0]))

        for owner in (census, conditions, search):
            self.wrap(owner, "canonical_key", canonical)
        self.wrap(search, "canonical_form", canonical)
        for owner in (census, conditions, spectral):
            self.wrap(owner, "lambda_max", "spectral.lambda_max")
        for owner in (census, search):
            self.wrap(owner, "screen", "conditions.screen", screened)
            self.wrap(owner, "factor_search", "search.factor_search", searched)
        self.wrap(search, "is_factorizable", "search.is_factorizable")
        self.wrap(census, "enumerate_graphs", "census.enumerate", enumerated)
        self.wrap(census, "run_census", "census.run_census")
        self.wrap(census, "verify_catalog", "census.verify_catalog")
        self.wrap(census, "write_catalog", "census.write_catalog", catalog_written)
        self.wrap(census, "read_catalog", "census.read_catalog", catalog_read)
        self.wrap(census, "dedup_pairs", "search.dedup_pairs")
        self.wrap(census, "validate_factorization", "conditions.validate", validated)
        self.wrap(census, "check_assertions", "conditions.validate", validated)
        self.wrap(census, "exploratory_observations", "conditions.validate")
        self.wrap(
            factorization.StoredWitness, "to_factorization", "factorization.to_factorization"
        )

    # -- output ------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "id": sid, "name": name,
                    "start_ns": start, "end_ns": end, "parent": parent,
                }, separators=(",", ":")))
                fh.write("\n")

    def summary(self) -> dict:
        """Per-layer counts (exact) and times (seconds) of the closed spans."""
        inclusive: dict[str, int] = {}
        child_ns: dict[int, int] = {}
        calls: dict[str, int] = {}
        durations: dict[int, tuple[str, int]] = {}
        for sid, name, start, end, parent in self.spans:
            ns = end - start
            durations[sid] = (name, ns)
            inclusive[name] = inclusive.get(name, 0) + ns
            calls[name] = calls.get(name, 0) + 1
            child_ns[parent] = child_ns.get(parent, 0) + ns
        self_ns: dict[str, int] = {}
        for sid, (name, ns) in durations.items():
            self_ns[name] = self_ns.get(name, 0) + ns - child_ns.get(sid, 0)

        def s(ns: int) -> float:
            return ns / 1e9

        out: dict[str, float | int] = {}
        total_calls = total_ns = 0
        for caller in CALLERS:
            name = f"{CANONICAL}.{caller}"
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.s"] = s(inclusive.get(name, 0))
            total_calls += calls.get(name, 0)
            total_ns += inclusive.get(name, 0)
        other = f"{CANONICAL}.other"
        out[f"{CANONICAL}.calls"] = total_calls + calls.get(other, 0)
        out[f"{CANONICAL}.s"] = s(total_ns + inclusive.get(other, 0))
        for name in CALLED:
            out[f"{name}.calls"] = calls.get(name, 0)
        for name in INCLUSIVE:
            out[f"{name}.s"] = s(inclusive.get(name, 0))
        for name in SELF:
            out[f"{name}.self_s"] = s(self_ns.get(name, 0))

        enum_calls = calls.get(f"{CANONICAL}.enumerate", 0)
        out["census.enumerate.classes_per_canonical_call"] = (
            self.counters.get("census.enumerate.classes", 0) / enum_calls if enum_calls else 0.0
        )
        search_self = self_ns.get("search.factor_search", 0)
        search_ns = inclusive.get("search.factor_search", 0)
        nodes = self.counters.get("search.nodes", 0)
        out["search.nodes"] = nodes
        out["search.nodes_per_s"] = nodes / s(search_self) if search_self else 0.0
        for rule in PRUNE_RULES:
            out[f"search.prunes.{rule}"] = self.counters.get(f"search.prunes.{rule}", 0)
        out["search.witnesses"] = self.counters.get("search.witnesses", 0)
        out["search.no_share"] = (
            self.counters.get("search.no_ns", 0) / search_ns if search_ns else 0.0
        )
        for rule in SCREEN_RULES:
            key = f"conditions.screen.ruled_out.{rule}"
            out[key] = self.counters.get(key, 0)
        out["conditions.validate.witnesses"] = self.counters.get(
            "conditions.validate.witnesses", 0
        )
        out["census.catalog_bytes"] = self.counters.get("census.catalog_bytes", 0)

        root_ns = inclusive.get(ROOT, 0)
        out["trace.wall_s"] = s(root_ns)
        out["trace.harness_self_s"] = s(self_ns.get(ROOT, 0))
        out["trace.layer_share"] = 1.0 - self_ns.get(ROOT, 0) / root_ns if root_ns else 0.0
        return out
