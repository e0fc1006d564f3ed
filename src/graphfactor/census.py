"""Census over isomorphism classes: enumerate, screen, search, validate,
persist as JSON Lines, and re-verify a stored catalog from scratch.

Records are keyed and ordered by canonical key, so serial and parallel
runs produce byte-identical catalogs.
"""
from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
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
    validate_factorization,
)
from .errors import (
    CatalogSchemaError,
    ParameterError,
    PreconditionError,
    TheoremViolationError,
)
from .exact import adjacency
from .factorization import Factorization, StoredWitness
from .graphs import (
    Graph,
    canonical_key,
    decode_graph6,
    edgeless,
    encode_graph6,
    graph_bits,
    graph_from_key,
    is_bipartite,
    is_connected,
    is_regular,
)
from .search import SearchConfig, dedup_pairs, is_factorizable
# Not called here since the census decides through is_factorizable; the
# benchmark tracer (bench/tracer.py) still wraps census.factor_search.
from .search import factor_search  # noqa: F401
from .spectral import DEFAULT_TOL, lambda_max

CENSUS_ORDER_CAP = 7
LARGE_ORDER_CAP = 8

# Known class counts per order, re-derived at runtime by Burnside recount.
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


def _pair_cycles(images: tuple[int, ...]) -> int:
    n = len(images)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    index = {p: t for t, p in enumerate(pairs)}
    seen = [False] * len(pairs)
    cycles = 0
    for t, (i, j) in enumerate(pairs):
        if seen[t]:
            continue
        cycles += 1
        a, b = i, j
        while True:
            a2, b2 = images[a], images[b]
            if a2 > b2:
                a2, b2 = b2, a2
            t2 = index[(a2, b2)]
            if seen[t2]:
                break
            seen[t2] = True
            a, b = a2, b2
    return cycles


def _burnside_class_count(n: int) -> int:
    """Number of isomorphism classes of order-n graphs, via the orbit-count
    over the pair action of the symmetric group.  Independent of the
    augmentation enumeration it double-checks."""
    from itertools import permutations
    from math import factorial

    total = 0
    for images in permutations(range(n)):
        total += 1 << _pair_cycles(images)
    assert total % factorial(n) == 0
    return total // factorial(n)


def enumerate_graphs(n: int, allow_large: bool = False) -> tuple[Graph, ...]:
    """All isomorphism classes at order n as canonical representatives,
    ordered by canonical key.  The class count is recounted via the orbit
    formula before the result is accepted."""
    cap = LARGE_ORDER_CAP if allow_large else CENSUS_ORDER_CAP
    if not 1 <= n <= cap:
        raise ParameterError(f"order must lie in 1..{cap}")
    cached = _CLASS_CACHE.get(n)
    if cached is not None:
        return cached
    keys: dict[str, Graph] = {}
    base = edgeless(n)
    keys[graph_bits(base)] = base
    level = [base]
    memo: dict[tuple[int, ...], str] = {}
    while level:
        nxt: dict[str, Graph] = {}
        for g in level:
            for u in range(n):
                for v in range(u + 1, n):
                    if g.has_edge(u, v):
                        continue
                    rows = list(g.rows)
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
                    mask = tuple(rows)
                    key = memo.get(mask)
                    if key is None:
                        key = canonical_key(Graph(n, mask))
                        memo[mask] = key
                    if key not in keys and key not in nxt:
                        nxt[key] = graph_from_key(n, key)
        keys.update(nxt)
        level = list(nxt.values())
    if len(keys) != _burnside_class_count(n):
        raise AssertionError(
            f"class ladder mismatch at order {n}: enumerated {len(keys)}"
        )
    result = tuple(keys[k] for k in sorted(keys))
    _CLASS_CACHE[n] = result
    return result


def factor_pairs(n: int, witnesses) -> tuple[tuple[str, str], ...]:
    """Unordered factor pairs of a witness list as graph6 of the canonical
    representatives, sorted by canonical key."""
    return tuple(
        (encode_graph6(graph_from_key(n, hk)), encode_graph6(graph_from_key(n, kk)))
        for hk, kk in sorted(dedup_pairs(witnesses))
    )


def _build_record(args: tuple) -> CensusRecord:
    n, key, cfg, tol = args
    g = graph_from_key(n, key)
    decision = is_factorizable(g, cfg)
    witnesses = decision.witnesses
    violation_items = []
    iso_evidence: bool | None = None
    for f in witnesses:
        vl = validate_factorization(f, tol)
        violation_items.extend(vl.items)
        obs = exploratory_observations(f, tol)
        if obs.component_iso_applied and obs.component_iso is not None:
            iso_evidence = obs.component_iso if iso_evidence is None else (
                iso_evidence and obs.component_iso
            )
    return CensusRecord(
        n=n,
        graph6=encode_graph6(g),
        canonical_key=key,
        edge_count=g.edge_count,
        connected=is_connected(g),
        bipartite=is_bipartite(g),
        regular=is_regular(g),
        screen=decision.report,
        verdict=decision.verdict,
        factor_pairs=factor_pairs(n, witnesses),
        lambda_max=lambda_max(g, tol),
        violations=ViolationList(tuple(violation_items)),
        component_iso_evidence=iso_evidence,
        witnesses=tuple(StoredWitness.from_factorization(f) for f in witnesses),
    )


def run_census(
    n: int,
    cfg: SearchConfig | None = None,
    *,
    tol: float = DEFAULT_TOL,
    jobs: int = 1,
    keep_going: bool = False,
    allow_large: bool = False,
    progress=None,
) -> list[CensusRecord]:
    """One record per isomorphism class at order n, in canonical-key order.

    A nonempty ViolationList aborts the run (it indicates an implementation
    bug) unless keep_going is set.
    """
    if cfg is None:
        cfg = SearchConfig(mode="all", order_cap=max(CENSUS_ORDER_CAP, n))
    if n > cfg.order_cap:
        raise ParameterError(f"order {n} exceeds the search order cap {cfg.order_cap}")
    classes = enumerate_graphs(n, allow_large=allow_large)
    args = [(n, graph_bits(g), cfg, tol) for g in classes]
    records: list[CensusRecord] = []
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
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
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
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
    """Recompute every assertion over every stored witness from scratch;
    stored verdicts are only compared, never trusted."""
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
    for rec in records:
        report.records_checked += 1
        where = f"record {rec.graph6!r}"
        try:
            g = decode_graph6(rec.graph6)
        except Exception as exc:
            report.integrity.append(f"{where}: graph6 does not decode: {exc}")
            continue
        if graph_bits(g) != rec.canonical_key or canonical_key(g) != rec.canonical_key:
            report.integrity.append(f"{where}: stored canonical_key mismatch")
        if g.edge_count != rec.edge_count:
            report.integrity.append(f"{where}: stored edge_count mismatch")
        if is_connected(g) != rec.connected:
            report.integrity.append(f"{where}: stored connected flag mismatch")
        if is_bipartite(g) != rec.bipartite:
            report.integrity.append(f"{where}: stored bipartite flag mismatch")
        if is_regular(g) != rec.regular:
            report.integrity.append(f"{where}: stored regular flag mismatch")
        if abs(lambda_max(g, tol) - rec.lambda_max) > tol * max(1.0, abs(rec.lambda_max)):
            report.integrity.append(f"{where}: stored lambda_max drifted")
        fresh = screen(g)
        if fresh.to_json() != rec.screen.to_json():
            report.integrity.append(f"{where}: stored screening report mismatch")
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
        adjacency_target = adjacency(g)
        valid: list[Factorization] = []
        for idx, w in enumerate(rec.witnesses):
            report.witnesses_checked += 1
            product = report.assertions[PRODUCT_ASSERTION]
            product.instances_checked += 1
            if w.a != adjacency_target:
                product.violations += 1
                report.integrity.append(
                    f"{where}: witness {idx} targets a different matrix A"
                )
                continue
            try:
                f = w.to_factorization()
            except (PreconditionError, ParameterError) as exc:
                product.violations += 1
                report.integrity.append(f"{where}: witness {idx}: {exc}")
                continue
            valid.append(f)
            for outcome in check_assertions(f, tol):
                if outcome.applied:
                    tally = report.assertions[outcome.assertion_id]
                    tally.instances_checked += 1
                    if outcome.violation is not None:
                        tally.violations += 1
            obs = exploratory_observations(f, tol)
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
        if factor_pairs(rec.n, valid) != rec.factor_pairs:
            report.integrity.append(f"{where}: stored factor_pairs mismatch")
    return report
