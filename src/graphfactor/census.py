"""Census over isomorphism classes: enumerate, screen, search, validate,
persist as JSON Lines, and re-verify a stored catalog from scratch.

Records are keyed and ordered by canonical key, so serial and parallel
runs produce byte-identical catalogs.
"""
from __future__ import annotations

import contextlib
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
    reject_unknown_fields,
)
from .factorization import StoredWitness
from .graphs import (
    CANONICAL_ORDER_CAP,
    Graph,
    _pair_order,
    automorphism_generators,
    canonical_key,
    complete,
    decode_graph6,
    graph6_from_key,
    is_bipartite,
    is_connected,
    is_regular,
)
from .search import DEFAULT_NODE_LIMIT, SearchConfig, dedup_pairs, is_factorizable
# Not called here since the census decides through is_factorizable; the
# benchmark tracer (bench/tracer.py) still wraps census.factor_search.
from .search import factor_search  # noqa: F401
from .spectral import DEFAULT_TOL, lambda_max

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
            # A JSON true or false is a Python bool, and so an int.
            if not isinstance(obj[name], kind) or (
                kind is not bool and isinstance(obj[name], bool)
            ):
                raise ParameterError(f"field {name!r} has the wrong type")
        if "component_iso_evidence" not in obj:
            raise ParameterError("missing field 'component_iso_evidence'")
        reject_unknown_fields(obj, (*required, "component_iso_evidence"), "record")
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
    again.

    A parent's automorphisms reject most non-canonical children without a
    labelling (McKay, "Isomorph-free exhaustive generation", 1998).  The
    generators its labelling found split its edge positions into orbits,
    and a child that clears position t is skipped when an earlier position
    u < t shares t's orbit: an automorphism of the parent then carries the
    child onto the parent with u cleared, whose bit-string is smaller, so
    the child's own string is not its key.  Every other child is labelled
    and kept iff canonical.  K_n is labelled like any child; its twins give
    the whole symmetric group.  The class count is rechecked by the
    cycle-type orbit count before the result is accepted."""
    if not 1 <= n <= CANONICAL_ORDER_CAP:
        raise ParameterError(f"order must lie in 1..{CANONICAL_ORDER_CAP}")
    cached = _CLASS_CACHE.get(n)
    if cached is not None:
        return cached
    pairs = _pair_order(n)
    width = len(pairs)
    # position[i * n + j]: the key position of the pair {i, j}.
    position = [0] * (n * n)
    for t, (i, j) in enumerate(pairs):
        position[i * n + j] = position[j * n + i] = t
    top = complete(n)
    found = [(canonical_key(top), top)]
    stack = list(found)
    while stack:
        key, parent = stack.pop()
        first = key.rfind("0") + 1
        if first == width:
            continue
        # Union-find over the parent's edge positions; each orbit's root is
        # its least position, so a child position is tested iff it is a root.
        low = list(range(width))
        generators = automorphism_generators(parent)
        if generators:
            edges = [t for t in range(width) if key[t] == "1"]
            for images in generators:
                for t in edges:
                    i, j = pairs[t]
                    u = position[images[i] * n + images[j]]
                    if u != t:
                        while low[u] != u:
                            u = low[u]
                        r = t
                        while low[r] != r:
                            r = low[r]
                        if u < r:
                            low[r] = u
                        elif r < u:
                            low[u] = r
        for t in range(first, width):
            if low[t] != t:
                continue
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
        (graph6_from_key(n, hk), graph6_from_key(n, kk))
        for hk, kk in sorted(dedup_pairs(witnesses))
    )


def _describe(g: Graph, verdict: str, report: ConditionReport, witnesses):
    """The record of class graph g, derived from g, its screening report and
    its witnesses, plus each witness's assertion outcomes and observations.
    The census writes the record; verify rebuilds it and diffs the two."""
    n = g.order
    checks = tuple((check_assertions(f), exploratory_observations(f)) for f in witnesses)
    isos = [obs["component_isomorphism"] for _, obs in checks]
    record = CensusRecord(
        n=n,
        graph6=graph6_from_key(n, report.graph_key),
        canonical_key=report.graph_key,
        edge_count=g.edge_count,
        connected=is_connected(g),
        bipartite=is_bipartite(g),
        regular=is_regular(g),
        screen=report,
        verdict=verdict,
        factor_pairs=factor_pairs(n, witnesses),
        lambda_max=lambda_max(g),
        violations=ViolationList(tuple(
            o.violation for outcomes, _ in checks for o in outcomes if o.violation is not None
        )),
        component_iso_evidence=(
            not any(c["non_isomorphic"] for c in isos)
            if any(c["instances"] for c in isos) else None
        ),
        witnesses=tuple(StoredWitness.from_factorization(f) for f in witnesses),
    )
    return record, checks


def _build_record(args: tuple) -> CensusRecord:
    g, cfg = args
    decision = is_factorizable(g, cfg)
    return _describe(g, decision.verdict, decision.report, decision.witnesses)[0]


# Classes per census worker, the 128 items a worker verify asks for
# (VERIFY_CHUNK_LINES * VERIFY_CHUNKS_PER_WORKER lines).  A pool costs about
# 30 ms to start, so a census of order 6 or less (at most 156 classes) runs
# faster in one process.
CENSUS_CLASSES_PER_WORKER = 128


def run_census(
    n: int,
    *,
    node_limit: int = DEFAULT_NODE_LIMIT,
    jobs: int = 1,
    keep_going: bool = False,
    progress=None,
) -> list[CensusRecord]:
    """One record per isomorphism class at order n (1..CANONICAL_ORDER_CAP),
    in canonical-key order; a class whose all-witness search spends
    node_limit nodes unfinished is "unknown".  The classes are described by
    min(jobs, cores, classes // CENSUS_CLASSES_PER_WORKER) worker
    processes, in this process if that is 1.

    A nonempty ViolationList aborts the run (it indicates an implementation
    bug) unless keep_going is set.
    """
    cfg = SearchConfig(mode="all", node_limit=node_limit)
    args = [(g, cfg) for g in enumerate_graphs(n)]
    return _pool_map(
        _build_record, args, jobs,
        lambda records: _collect(records, len(args), keep_going, progress),
        chunksize=8, per_worker=CENSUS_CLASSES_PER_WORKER,
    )


def _pool_map(fn, items: list, jobs: int, consume, chunksize: int = 1, per_worker: int = 1):
    """consume(fn over items, in order), with fn run by min(jobs, cores,
    items // per_worker) worker processes, or by the builtin map in this
    process when that is 1.  The pool forks its workers at the first
    submit, so it never asks for more than there are cores or items."""
    workers = min(jobs, os.cpu_count() or 1, len(items) // per_worker)
    if workers <= 1:
        return consume(map(fn, items))
    # Imported here: it loads multiprocessing, which serial runs never use.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        try:
            return consume(pool.map(fn, items, chunksize=chunksize))
        except BaseException:
            # Items not yet started would only delay the error.
            pool.shutdown(cancel_futures=True)
            raise


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


_CATALOG_ENCODER = json.JSONEncoder(separators=(",", ":"))


def write_catalog(records, path) -> None:
    """Write one compact JSON line per record to path.

    The lines go to a temporary file beside the target, which replaces it
    only after the last line, so an error or an interrupt mid-write leaves
    the previous catalog whole; the temporary file is removed on any error.
    A path that exists but is not a regular file (a pipe, a terminal or
    /dev/null) cannot be replaced and is written in place."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as fh:
            _write_lines(fh, records)
        return
    target = os.path.realpath(path)
    tmp = f"{target}.{os.getpid()}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            _write_lines(fh, records)
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _write_lines(fh, records) -> None:
    encode = _CATALOG_ENCODER.encode
    for rec in records:
        fh.write(encode(rec.to_json()))
        fh.write("\n")


def read_catalog(path) -> list[CensusRecord]:
    with open(path, "rb") as fh:
        return _parse_lines(fh, 1)


def _parse_lines(lines, first_lineno: int) -> list[CensusRecord]:
    """The records of raw catalog lines, the first of them line
    first_lineno of the catalog; blank lines are skipped."""
    records = []
    for lineno, raw in enumerate(lines, start=first_lineno):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CatalogSchemaError(f"line {lineno}: not UTF-8: {exc}") from None
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except ValueError as exc:
            # A JSONDecodeError, or an integer literal past the digit limit.
            raise CatalogSchemaError(f"line {lineno}: invalid JSON: {exc}") from None
        except RecursionError:
            raise CatalogSchemaError(f"line {lineno}: JSON nested too deeply") from None
        try:
            records.append(CensusRecord.from_json(obj))
        except (ParameterError, KeyError, TypeError, OverflowError) as exc:
            raise CatalogSchemaError(f"line {lineno}: {exc}") from None
    return records


# ---------------------------------------------------------------------------
# catalog verification
# ---------------------------------------------------------------------------

def _counts(ids, *names: str) -> dict[str, dict[str, int]]:
    """A zero count of each name for each id, in the report's JSON order."""
    return {key: dict.fromkeys(names, 0) for key in ids}


def _add_counts(total: dict[str, dict[str, int]], more: dict[str, dict[str, int]]) -> None:
    """Add each count of more to the count of the same id and name in total."""
    for key, counts in more.items():
        mine = total[key]
        for name, value in counts.items():
            mine[name] += value


@dataclass
class TheoremReport:
    """The counts of a verified catalog, or of a run of its records, each
    section in the shape of its JSON.

    checked holds one (where, class, messages) entry per record in catalog
    order: the class is None when the record's graph6 does not decode to
    one.  Reports of consecutive runs of records add up with absorb."""

    witnesses_checked: int = 0
    assertions: dict[str, dict[str, int]] = field(default_factory=lambda: _counts(
        (PRODUCT_ASSERTION, *ASSERTION_IDS), "instances_checked", "violations"
    ))
    rules: dict[str, dict[str, int]] = field(default_factory=lambda: _counts(
        RULE_IDS, "instances_checked", "ruled_out", "violations"
    ))
    exploratory: dict[str, dict[str, int]] = field(default_factory=lambda: {
        **_counts(("stronger_edge_bound", "unguarded_product_bound"), "instances", "failures"),
        **_counts(("component_isomorphism",), "instances", "isomorphic", "non_isomorphic"),
    })
    checked: list[tuple[str, tuple[int, str] | None, list[str]]] = field(
        default_factory=list
    )

    @property
    def records_checked(self) -> int:
        return len(self.checked)

    @property
    def integrity(self) -> list[str]:
        """Every record's integrity messages in catalog order; a record whose
        class an earlier record already has is flagged first."""
        seen: set[tuple[int, str]] = set()
        messages = []
        for where, cls, own in self.checked:
            if cls in seen:
                messages.append(f"{where}: class listed more than once")
            if cls is not None:
                seen.add(cls)
            messages.extend(own)
        return messages

    def absorb(self, later: "TheoremReport") -> None:
        """Add the report of the records that follow this report's."""
        self.witnesses_checked += later.witnesses_checked
        _add_counts(self.assertions, later.assertions)
        _add_counts(self.rules, later.rules)
        _add_counts(self.exploratory, later.exploratory)
        self.checked.extend(later.checked)

    @property
    def total_violations(self) -> int:
        return (
            sum(c["violations"] for c in self.assertions.values())
            + sum(c["violations"] for c in self.rules.values())
            + len(self.integrity)
        )

    def to_json(self) -> dict:
        return {
            "records_checked": self.records_checked,
            "witnesses_checked": self.witnesses_checked,
            "assertions": self.assertions,
            "rules": self.rules,
            "exploratory": self.exploratory,
            "integrity": self.integrity,
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
        for aid, counts in self.assertions.items():
            fired = "fired" if counts["instances_checked"] else "never fired"
            lines.append(
                f"  {aid:>3}: {counts['instances_checked']:6d} / {counts['violations']:d}"
                f"  ({fired}) {refs.get(aid, '')}"
            )
        lines.append("")
        lines.append("screening rules (id: instances / ruled out / soundness violations):")
        for rid, counts in self.rules.items():
            lines.append(
                f"  {rid:>3}: {counts['instances_checked']:6d} / {counts['ruled_out']:6d}"
                f" / {counts['violations']:d}"
            )
        lines.append("")
        lines.append("exploratory evidence (logged, never asserted):")
        for name, stats in self.exploratory.items():
            pretty = ", ".join(f"{k}={v}" for k, v in stats.items())
            lines.append(f"  {name}: {pretty}")
        integrity = self.integrity
        if integrity:
            lines.append("")
            lines.append("integrity problems:")
            lines.extend(f"  {msg}" for msg in integrity)
        lines.append("")
        lines.append(f"total violations: {self.total_violations}")
        return "\n".join(lines)


# Catalog lines per verify work item, and work items per verify worker.
# On a 2-vCPU host with Python 3.11, starting a pool costs about 30 ms in a
# fresh interpreter (the imports and the forks) and verifying one record
# about 0.3 ms, so two workers break even at about 220 lines: a catalog of
# order 6 or less (at most 156 lines) is verified faster in one process.
VERIFY_CHUNK_LINES = 32
VERIFY_CHUNKS_PER_WORKER = 4


def verify_catalog(records) -> TheoremReport:
    """Rebuild every record from its graph and valid witnesses as the census
    does and report each field that differs; stored verdicts are only
    checked against screening and witnesses, never trusted."""
    report = TheoremReport()
    for rec in records:
        _check_record(rec, report)
    return report


def verify_lines(lines, jobs: int = 1) -> TheoremReport:
    """verify_catalog of the catalog whose raw lines (bytes, as read from
    the file) are given, with the same report.  Runs of VERIFY_CHUNK_LINES
    lines are parsed, as read_catalog parses them, and verified by
    min(jobs, cores, runs // VERIFY_CHUNKS_PER_WORKER) worker processes,
    and their reports are added up in catalog order.  The catalog's first
    schema error is raised."""
    chunks = [
        (lines[i:i + VERIFY_CHUNK_LINES], i + 1)
        for i in range(0, len(lines), VERIFY_CHUNK_LINES)
    ]
    return _pool_map(
        _verify_chunk, chunks, jobs, _sum_reports, per_worker=VERIFY_CHUNKS_PER_WORKER
    )


def _verify_chunk(args: tuple) -> TheoremReport:
    lines, first_lineno = args
    return verify_catalog(_parse_lines(lines, first_lineno))


def _sum_reports(reports) -> TheoremReport:
    total = TheoremReport()
    for report in reports:
        total.absorb(report)
    return total


def _check_record(rec: CensusRecord, report: TheoremReport) -> None:
    """Verify one record: add its entry and its counts to report."""
    where = f"record {rec.graph6!r}"
    undecodable = f"{where}: graph6 does not decode to a class"
    try:
        g = decode_graph6(rec.graph6)
    except (Graph6Error, UnsupportedSizeError) as exc:
        report.checked.append((where, None, [f"{undecodable}: {exc}"]))
        return
    # The class is the fresh report's key, which the rebuilt record stores
    # too, so each record's graph is labelled once.
    fresh = screen(g)
    if fresh.graph_key is None:
        report.checked.append((where, None, [
            f"{undecodable}: canonical forms are capped at order {CANONICAL_ORDER_CAP}"
        ]))
        return
    messages: list[str] = []
    report.checked.append((where, (g.order, fresh.graph_key), messages))
    for rule in fresh.rules:
        counts = report.rules[rule.rule_id]
        counts["instances_checked"] += 1
        if rule.status == "ruled_out":
            counts["ruled_out"] += 1
            if rec.verdict != "no" or rec.witnesses or rec.factor_pairs:
                counts["violations"] += 1
    if rec.verdict == "yes" and not (rec.factor_pairs and rec.witnesses):
        messages.append(f"{where}: verdict yes without stored witnesses")
    if rec.verdict != "yes" and (rec.factor_pairs or rec.witnesses):
        messages.append(f"{where}: verdict {rec.verdict} with stored witnesses")
    if fresh.overall == "ruled_out" and rec.verdict != "no":
        messages.append(f"{where}: ruled_out class without verdict no")
    product = report.assertions[PRODUCT_ASSERTION]
    valid = []
    for idx, w in enumerate(rec.witnesses):
        report.witnesses_checked += 1
        product["instances_checked"] += 1
        try:
            f = w.to_factorization()
        except (PreconditionError, ParameterError) as exc:
            product["violations"] += 1
            messages.append(f"{where}: witness {idx}: {exc}")
            continue
        if f.g != g:
            product["violations"] += 1
            messages.append(f"{where}: witness {idx} targets a different graph")
            continue
        valid.append(f)
    rebuilt, checks = _describe(g, rec.verdict, fresh, valid)
    stored = rec.to_json()
    for name, value in rebuilt.to_json().items():
        if name == "lambda_max":
            # Scaled by the rebuilt value and negated, so NaN and inf differ.
            differs = not abs(value - rec.lambda_max) <= DEFAULT_TOL * max(1.0, abs(value))
        else:
            differs = value != stored[name]
        if differs:
            messages.append(f"{where}: stored {name} mismatch")
    for outcomes, observed in checks:
        for outcome in outcomes:
            if outcome.applied:
                counts = report.assertions[outcome.assertion_id]
                counts["instances_checked"] += 1
                if outcome.violation is not None:
                    counts["violations"] += 1
        _add_counts(report.exploratory, observed)
