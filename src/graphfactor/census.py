"""Census over isomorphism classes: enumerate, screen, search, validate,
persist as JSON Lines, and re-verify a stored catalog from scratch.

Records are keyed and ordered by canonical key, so serial and parallel
runs produce byte-identical catalogs.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from .conditions import (
    ASSERTION_IDS,
    ASSERTION_REFS,
    RULE_IDS,
    ConditionReport,
    ViolationList,
    check_assertions,
    exploratory_observations,
    screen,
    validate_factorization,  # noqa: F401  unused here; bench/tracer.py wraps it
)
from .errors import (
    CatalogSchemaError,
    Graph6Error,
    ParameterError,
    PreconditionError,
    TheoremViolationError,
    UnsupportedSizeError,
)
from .factorization import StoredWitness
from .graphs import (
    CANONICAL_ORDER_CAP,
    Graph,
    _pair_order,
    canonical_key,
    decode_graph6,
    encode_graph6,
    graph_from_canonical_key,
    graph_from_key,
    is_bipartite,
    is_connected,
    is_regular,
)
from .search import DEFAULT_NODE_LIMIT, SearchConfig, dedup_pairs, is_factorizable
# Not called here since the census decides through is_factorizable; the
# benchmark tracer (bench/tracer.py) still wraps census.factor_search.
from .search import factor_search  # noqa: F401
from .spectral import DEFAULT_TOL, check_tolerance, lambda_max

# Class representatives per order, as enumerate_graphs returned them.
_CLASS_CACHE: dict[int, tuple[Graph, ...]] = {}

PRODUCT_ASSERTION = "W0"
PRODUCT_REF = "witness product identity B*C = A, entrywise exact"


@dataclass(frozen=True)
class CensusRecord:
    n: int
    graph6: str
    canonical_key: str
    edge_count: int
    connected: bool
    bipartite: bool
    regular: bool
    screen: ConditionReport
    verdict: str
    factor_pairs: tuple[tuple[str, str], ...]
    lambda_max: float
    violations: ViolationList
    component_iso_evidence: bool | None
    witnesses: tuple[StoredWitness, ...]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "graph6": self.graph6,
            "canonical_key": self.canonical_key,
            "edge_count": self.edge_count,
            "connected": self.connected,
            "bipartite": self.bipartite,
            "regular": self.regular,
            "screen": self.screen.to_json(),
            "verdict": self.verdict,
            "factor_pairs": [
                {"h_graph6": h, "k_graph6": k} for h, k in self.factor_pairs
            ],
            "lambda_max": self.lambda_max,
            "violations": self.violations.to_json(),
            "component_iso_evidence": self.component_iso_evidence,
            "witnesses": [w.to_json() for w in self.witnesses],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CensusRecord":
        required = {
            "n": int,
            "graph6": str,
            "canonical_key": str,
            "edge_count": int,
            "connected": bool,
            "bipartite": bool,
            "regular": bool,
            "screen": dict,
            "verdict": str,
            "factor_pairs": list,
            "lambda_max": (int, float),
            "violations": dict,
            "witnesses": list,
        }
        for name, kind in required.items():
            if name not in obj:
                raise ParameterError(f"missing field {name!r}")
            if not isinstance(obj[name], kind) or (
                kind is int and isinstance(obj[name], bool)
            ):
                raise ParameterError(f"field {name!r} has the wrong type")
        if "component_iso_evidence" not in obj:
            raise ParameterError("missing field 'component_iso_evidence'")
        iso = obj["component_iso_evidence"]
        if iso is not None and not isinstance(iso, bool):
            raise ParameterError("field 'component_iso_evidence' must be bool or null")
        if obj["verdict"] not in ("yes", "no", "unknown"):
            raise ParameterError(f"invalid verdict {obj['verdict']!r}")
        pairs = []
        for p in obj["factor_pairs"]:
            if not isinstance(p, dict) or set(p) != {"h_graph6", "k_graph6"}:
                raise ParameterError("factor_pairs entries need h_graph6 and k_graph6")
            pairs.append((str(p["h_graph6"]), str(p["k_graph6"])))
        return cls(
            n=obj["n"],
            graph6=obj["graph6"],
            canonical_key=obj["canonical_key"],
            edge_count=obj["edge_count"],
            connected=obj["connected"],
            bipartite=obj["bipartite"],
            regular=obj["regular"],
            screen=ConditionReport.from_json(obj["screen"]),
            verdict=obj["verdict"],
            factor_pairs=tuple(pairs),
            lambda_max=float(obj["lambda_max"]),
            violations=ViolationList.from_json(obj["violations"]),
            component_iso_evidence=iso,
            witnesses=tuple(StoredWitness.from_json(w) for w in obj["witnesses"]),
        )


def _burnside_class_count(n: int) -> int:
    """Number of isomorphism classes of order-n graphs, via the orbit count
    over the pair action of the symmetric group, summed by cycle type: a
    permutation of cycle type lambda has n!/z_lambda conjugates and fixes
    2^c(lambda) graphs, where c(lambda) = sum floor(l_i/2) + sum_{i<j}
    gcd(l_i, l_j) counts its cycles on vertex pairs.  Independent of the
    orderly generation it double-checks."""
    from math import factorial, gcd

    total = 0
    for parts in _partitions(n, n):
        z = 1
        for size in set(parts):
            m = parts.count(size)
            z *= size**m * factorial(m)
        cycles = sum(size // 2 for size in parts) + sum(
            gcd(a, b) for i, a in enumerate(parts) for b in parts[i + 1:]
        )
        total += (factorial(n) // z) << cycles
    if total % factorial(n):
        raise TheoremViolationError(f"orbit count at order {n} is not an integer")
    return total // factorial(n)


def _partitions(n: int, largest: int):
    """Integer partitions of n into parts of at most largest, non-increasing."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def enumerate_graphs(n: int) -> tuple[Graph, ...]:
    """All isomorphism classes at order n, 1 <= n <= CANONICAL_ORDER_CAP,
    as canonical representatives ordered by canonical key, by orderly
    generation on the catalog key (Read, "Every one of a kind", 1978),
    top-down from K_n.

    The children of a canonical key s are s with one 1 after its last 0
    cleared; a child is kept iff it is canonical.  Setting the last 0 of a
    canonical key to 1 gives a canonical key, so every class is reached
    exactly once, from that unique parent, and nothing is deduplicated.  A
    kept child realizes its key with the identity placement, so its
    memoised labelling is already its canonical one and it is not labelled
    again.  The class count is rechecked by the cycle-type orbit count
    before the result is accepted."""
    if not 1 <= n <= CANONICAL_ORDER_CAP:
        raise ParameterError(f"order must lie in 1..{CANONICAL_ORDER_CAP}")
    cached = _CLASS_CACHE.get(n)
    if cached is not None:
        return cached
    pairs = _pair_order(n)
    top_key = "1" * len(pairs)
    found = [(top_key, graph_from_canonical_key(n, top_key))]
    stack = list(found)
    while stack:
        key, parent = stack.pop()
        for t in range(key.rfind("0") + 1, len(pairs)):
            i, j = pairs[t]
            rows = list(parent.rows)
            rows[i] &= ~(1 << j)
            rows[j] &= ~(1 << i)
            child = Graph(n, tuple(rows))
            child_key = key[:t] + "0" + key[t + 1:]
            if canonical_key(child) == child_key:
                found.append((child_key, child))
                stack.append((child_key, child))
    if len(found) != _burnside_class_count(n):
        raise TheoremViolationError(
            f"class count mismatch at order {n}: generated {len(found)}"
        )
    found.sort(key=lambda pair: pair[0])
    result = tuple(g for _, g in found)
    _CLASS_CACHE[n] = result
    return result


def factor_pairs(n: int, witnesses) -> tuple[tuple[str, str], ...]:
    """Unordered factor pairs of a witness list as graph6 of the canonical
    representatives, sorted by canonical key."""
    return tuple(
        (encode_graph6(graph_from_key(n, hk)), encode_graph6(graph_from_key(n, kk)))
        for hk, kk in sorted(dedup_pairs(witnesses))
    )


def _describe(g: Graph, verdict: str, report: ConditionReport, witnesses, tol: float):
    """The record of class graph g, derived from g, its screening report and
    its witnesses, plus each witness's assertion outcomes and observations.
    The census writes the record; verify rebuilds it and diffs the two."""
    n = g.order
    checks = tuple(
        (check_assertions(f, tol), exploratory_observations(f, tol)) for f in witnesses
    )
    isos = [obs.component_iso for _, obs in checks if obs.component_iso is not None]
    record = CensusRecord(
        n=n,
        graph6=encode_graph6(graph_from_key(n, report.graph_key)),
        canonical_key=report.graph_key,
        edge_count=g.edge_count,
        connected=is_connected(g),
        bipartite=is_bipartite(g),
        regular=is_regular(g),
        screen=report,
        verdict=verdict,
        factor_pairs=factor_pairs(n, witnesses),
        lambda_max=lambda_max(g, tol),
        violations=ViolationList(tuple(
            o.violation for outcomes, _ in checks for o in outcomes if o.violation is not None
        )),
        component_iso_evidence=all(isos) if isos else None,
        witnesses=tuple(StoredWitness.from_factorization(f) for f in witnesses),
    )
    return record, checks


def _build_record(args: tuple) -> CensusRecord:
    g, cfg, tol = args
    decision = is_factorizable(g, cfg)
    return _describe(g, decision.verdict, decision.report, decision.witnesses, tol)[0]


def run_census(
    n: int,
    *,
    node_limit: int = DEFAULT_NODE_LIMIT,
    tol: float = DEFAULT_TOL,
    jobs: int = 1,
    keep_going: bool = False,
    progress=None,
) -> list[CensusRecord]:
    """One record per isomorphism class at order n (1..CANONICAL_ORDER_CAP),
    in canonical-key order; a class whose all-witness search spends
    node_limit nodes unfinished is "unknown".  The classes are described by
    min(jobs, cores, classes) worker processes, in this process if that
    is 1.

    A nonempty ViolationList aborts the run (it indicates an implementation
    bug) unless keep_going is set.
    """
    check_tolerance(tol)
    cfg = SearchConfig(mode="all", node_limit=node_limit)
    classes = enumerate_graphs(n)
    args = [(g, cfg, tol) for g in classes]
    # The pool forks all its workers at the first submit, so never ask for
    # more than there are cores or classes.
    workers = min(jobs, os.cpu_count() or 1, len(args))
    if workers > 1:
        # Imported here: it loads multiprocessing, which serial runs never use.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            iterator = pool.map(_build_record, args, chunksize=8)
            records = _collect(iterator, len(args), keep_going, progress)
    else:
        records = _collect(map(_build_record, args), len(args), keep_going, progress)
    return records


def _collect(iterator, total: int, keep_going: bool, progress) -> list[CensusRecord]:
    records = []
    for i, rec in enumerate(iterator):
        if not rec.violations.empty and not keep_going:
            raise TheoremViolationError(
                "assertion violated; offending record:\n"
                + json.dumps(rec.to_json(), indent=2)
            )
        records.append(rec)
        if progress is not None:
            progress(i + 1, total)
    return records


def write_catalog(records, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_json(), separators=(",", ":")))
            fh.write("\n")


def read_catalog(path) -> list[CensusRecord]:
    records = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CatalogSchemaError(f"line {lineno}: not UTF-8: {exc}") from None
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CatalogSchemaError(f"line {lineno}: invalid JSON: {exc}") from None
            try:
                records.append(CensusRecord.from_json(obj))
            except (ParameterError, KeyError, TypeError) as exc:
                raise CatalogSchemaError(f"line {lineno}: {exc}") from None
    return records


# ---------------------------------------------------------------------------
# catalog verification
# ---------------------------------------------------------------------------

@dataclass
class AssertionTally:
    instances_checked: int = 0
    violations: int = 0


@dataclass
class TheoremReport:
    records_checked: int = 0
    witnesses_checked: int = 0
    assertions: dict[str, AssertionTally] = field(default_factory=dict)
    rules: dict[str, AssertionTally] = field(default_factory=dict)
    exploratory: dict[str, dict[str, int]] = field(default_factory=dict)
    integrity: list[str] = field(default_factory=list)

    @property
    def total_violations(self) -> int:
        return (
            sum(t.violations for t in self.assertions.values())
            + sum(t.violations for t in self.rules.values())
            + len(self.integrity)
        )

    def to_json(self) -> dict:
        return {
            "records_checked": self.records_checked,
            "witnesses_checked": self.witnesses_checked,
            "assertions": {
                aid: {"instances_checked": t.instances_checked, "violations": t.violations}
                for aid, t in self.assertions.items()
            },
            "rules": {
                rid: {"instances_checked": t.instances_checked, "violations": t.violations}
                for rid, t in self.rules.items()
            },
            "exploratory": self.exploratory,
            "integrity": list(self.integrity),
            "total_violations": self.total_violations,
        }

    def format_text(self) -> str:
        lines = [
            f"records checked:   {self.records_checked}",
            f"witnesses checked: {self.witnesses_checked}",
            "",
            "assertions (id: instances checked / violations):",
        ]
        refs = dict(ASSERTION_REFS)
        refs[PRODUCT_ASSERTION] = PRODUCT_REF
        for aid, tally in self.assertions.items():
            fired = "fired" if tally.instances_checked else "never fired"
            lines.append(
                f"  {aid:>3}: {tally.instances_checked:6d} / {tally.violations:d}"
                f"  ({fired}) {refs.get(aid, '')}"
            )
        lines.append("")
        lines.append("screening rules (id: instances / soundness violations):")
        for rid, tally in self.rules.items():
            lines.append(f"  {rid:>3}: {tally.instances_checked:6d} / {tally.violations:d}")
        lines.append("")
        lines.append("exploratory evidence (logged, never asserted):")
        for name, stats in self.exploratory.items():
            pretty = ", ".join(f"{k}={v}" for k, v in stats.items())
            lines.append(f"  {name}: {pretty}")
        if self.integrity:
            lines.append("")
            lines.append("integrity problems:")
            lines.extend(f"  {msg}" for msg in self.integrity)
        lines.append("")
        lines.append(f"total violations: {self.total_violations}")
        return "\n".join(lines)


def verify_catalog(records, tol: float = DEFAULT_TOL) -> TheoremReport:
    """Rebuild every record from its graph and valid witnesses as the census
    does and report each field that differs; stored verdicts are only
    checked against screening and witnesses, never trusted."""
    check_tolerance(tol)
    report = TheoremReport()
    report.assertions = {PRODUCT_ASSERTION: AssertionTally()}
    for aid in ASSERTION_IDS:
        report.assertions[aid] = AssertionTally()
    report.rules = {rid: AssertionTally() for rid in RULE_IDS}
    report.exploratory = {
        "stronger_edge_bound": {"instances": 0, "failures": 0},
        "unguarded_product_bound": {"instances": 0, "failures": 0},
        "component_isomorphism": {"instances": 0, "isomorphic": 0, "non_isomorphic": 0},
    }
    product = report.assertions[PRODUCT_ASSERTION]
    classes: set[tuple[int, str]] = set()
    for rec in records:
        report.records_checked += 1
        where = f"record {rec.graph6!r}"
        try:
            g = decode_graph6(rec.graph6)
        except (Graph6Error, UnsupportedSizeError) as exc:
            report.integrity.append(f"{where}: graph6 does not decode to a class: {exc}")
            continue
        # The class is the fresh report's key, which the rebuilt record
        # stores too, so each record's graph is labelled once.
        fresh = screen(g)
        if fresh.graph_key is None:
            report.integrity.append(
                f"{where}: graph6 does not decode to a class: "
                f"canonical forms are capped at order {CANONICAL_ORDER_CAP}"
            )
            continue
        cls = (g.order, fresh.graph_key)
        if cls in classes:
            report.integrity.append(f"{where}: class listed more than once")
        classes.add(cls)
        for rule in fresh.rules:
            tally = report.rules[rule.rule_id]
            tally.instances_checked += 1
            if rule.status == "ruled_out" and (
                rec.verdict != "no" or rec.witnesses or rec.factor_pairs
            ):
                tally.violations += 1
        if rec.verdict == "yes" and not (rec.factor_pairs and rec.witnesses):
            report.integrity.append(f"{where}: verdict yes without stored witnesses")
        if rec.verdict != "yes" and (rec.factor_pairs or rec.witnesses):
            report.integrity.append(f"{where}: verdict {rec.verdict} with stored witnesses")
        if fresh.overall == "ruled_out" and rec.verdict != "no":
            report.integrity.append(f"{where}: ruled_out class without verdict no")
        valid = []
        for idx, w in enumerate(rec.witnesses):
            report.witnesses_checked += 1
            product.instances_checked += 1
            try:
                f = w.to_factorization()
            except (PreconditionError, ParameterError) as exc:
                product.violations += 1
                report.integrity.append(f"{where}: witness {idx}: {exc}")
                continue
            if f.g != g:
                product.violations += 1
                report.integrity.append(f"{where}: witness {idx} targets a different graph")
                continue
            valid.append(f)
        rebuilt, checks = _describe(g, rec.verdict, fresh, valid, tol)
        stored = rec.to_json()
        for name, value in rebuilt.to_json().items():
            if name == "lambda_max":
                # Scaled by the rebuilt value and negated, so NaN and inf differ.
                differs = not abs(value - rec.lambda_max) <= tol * max(1.0, abs(value))
            else:
                differs = value != stored[name]
            if differs:
                report.integrity.append(f"{where}: stored {name} mismatch")
        for outcomes, obs in checks:
            for outcome in outcomes:
                if outcome.applied:
                    tally = report.assertions[outcome.assertion_id]
                    tally.instances_checked += 1
                    if outcome.violation is not None:
                        tally.violations += 1
            if obs.stronger_edge_bound_applied:
                report.exploratory["stronger_edge_bound"]["instances"] += 1
                if not obs.stronger_edge_bound_holds:
                    report.exploratory["stronger_edge_bound"]["failures"] += 1
            if obs.unguarded_product_bound_applied:
                report.exploratory["unguarded_product_bound"]["instances"] += 1
                if not obs.unguarded_product_bound_holds:
                    report.exploratory["unguarded_product_bound"]["failures"] += 1
            if obs.component_iso_applied and obs.component_iso is not None:
                report.exploratory["component_isomorphism"]["instances"] += 1
                bucket = "isomorphic" if obs.component_iso else "non_isomorphic"
                report.exploratory["component_isomorphism"][bucket] += 1
    return report
