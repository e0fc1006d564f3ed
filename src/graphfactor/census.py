"""Census over isomorphism classes: enumerate, screen, search, validate,
persist as JSON Lines, and re-verify a stored catalog from scratch.

Records are keyed and ordered by canonical key, so serial and parallel
runs produce byte-identical catalogs.
"""
from __future__ import annotations

import contextlib
import json
import os
from typing import NamedTuple

from .conditions import (
    ASSERTION_IDS,
    ASSERTION_REFS,
    RULE_IDS,
    ConditionReport,
    RuleResult,
    Violation,
    check_assertions,
    exploratory_observations,
    overall_status,
    screen,
    validate_factorization,  # noqa: F401  unused here; bench/tracer.py wraps it
)
from .errors import (
    CatalogSchemaError,
    Graph6Error,
    ParameterError,
    PoolError,
    PreconditionError,
    TheoremViolationError,
    UnsupportedSizeError,
    check_fields,
)
from .factorization import Factorization, StoredWitness
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
from .search import SearchConfig, dedup_pairs, is_factorizable
# Not called here since the census decides through is_factorizable; the
# benchmark tracer (bench/tracer.py) still wraps census.factor_search.
from .search import factor_search  # noqa: F401
from .spectral import lambda_max, lambda_max_certified

# Class representatives per order, as enumerate_graphs returned them.
_CLASS_CACHE: dict[int, tuple[Graph, ...]] = {}

PRODUCT_ASSERTION = "W0"
PRODUCT_REF = "witness product identity B*C = A, entrywise exact"


class CensusRecord(NamedTuple):
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
    # None only in a record verify rebuilds, when the stored value fails
    # its certificate.
    lambda_max: float | None
    violations: tuple[Violation, ...]
    component_iso_evidence: bool | None
    witnesses: tuple[Factorization, ...]

    def to_json(self) -> dict:
        obj = self._asdict()
        obj["screen"] = self.screen.to_json(self.canonical_key)
        obj["factor_pairs"] = [{"h_graph6": h, "k_graph6": k} for h, k in self.factor_pairs]
        obj["violations"] = {"items": [v._asdict() for v in self.violations]}
        obj["witnesses"] = [w.to_json() for w in self.witnesses]
        return obj


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
            # The parent with one symmetric pair cleared: a valid graph, so
            # its rows are not checked again.
            child = Graph._make((n, tuple(rows)))
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


def _describe(
    g: Graph, key: str, verdict: str, report: ConditionReport, witnesses,
    lam: float | None,
):
    """The record of class graph g, derived from g, its canonical key, its
    screening report and its witnesses, plus each witness's assertion
    outcomes and observations.  The record's lambda_max is lam, which the
    caller works out: the census writes the record with Jacobi's value, and
    verify rebuilds it with the stored value if that is certified, None if
    not, and diffs the two."""
    n = g.order
    outcomes = [check_assertions(f) for f in witnesses]
    checks = [(o, exploratory_observations(f, o)) for f, o in zip(witnesses, outcomes)]
    isos = [obs["component_isomorphism"] for _, obs in checks]
    record = CensusRecord(
        n=n,
        graph6=graph6_from_key(n, key),
        canonical_key=key,
        edge_count=g.edge_count,
        connected=is_connected(g),
        bipartite=is_bipartite(g),
        regular=is_regular(g),
        screen=report,
        verdict=verdict,
        factor_pairs=factor_pairs(n, witnesses),
        lambda_max=lam,
        violations=tuple(
            o.violation for found in outcomes for o in found if o.violation is not None
        ),
        component_iso_evidence=(
            not any(c["non_isomorphic"] for c in isos)
            if any(c["instances"] for c in isos) else None
        ),
        witnesses=tuple(witnesses),
    )
    return record, checks


# The one search a census runs: every witness, at the default node limit.
_CENSUS_SEARCH = SearchConfig(mode="all")


def _build_record(g: Graph) -> CensusRecord:
    decision = is_factorizable(g, _CENSUS_SEARCH)
    return _describe(
        g, canonical_key(g), decision.verdict, decision.report, decision.witnesses,
        lambda_max(g),
    )[0]


def _build_records(run: tuple[Graph, ...]) -> list[CensusRecord]:
    return [_build_record(g) for g in run]


# The one unit of pool work is a run of RUN_RECORDS records, census classes
# or catalog lines, and a pool gets one worker per RUNS_PER_WORKER runs.
# On a 2-vCPU host with Python 3.11, a pool of two costs 8-11 ms in a
# fresh interpreter (importing pickle and signal, one fork and its pipe,
# the kill and the reap) and building or verifying one record about
# 0.3 ms, so two workers should break even at about 70 records.  Yet a
# census or a verify of order 6 (156 records) at one worker per run read
# no faster at --jobs 2 than at 1, so order 6 or less runs in one process.
RUN_RECORDS = 32
RUNS_PER_WORKER = 4


def run_census(n: int, *, jobs: int = 1, progress=None) -> list[CensusRecord]:
    """One record per isomorphism class at order n (1..CANONICAL_ORDER_CAP),
    in canonical-key order, each from an all-witness search at the default
    node limit; progress, if given, is called with (done, total) after each
    record.  Runs of RUN_RECORDS classes are described by _pool_map's
    workers, and their records kept in order.

    A record with violations is returned like any other: its violations
    field holds them, and the CLI exits 1 after writing the catalog.
    """
    classes = enumerate_graphs(n)
    runs = [classes[i:i + RUN_RECORDS] for i in range(0, len(classes), RUN_RECORDS)]

    def consume(built) -> list[CensusRecord]:
        done = []
        for records in built:
            for rec in records:
                done.append(rec)
                if progress is not None:
                    progress(len(done), len(classes))
        return done

    return _pool_map(_build_records, runs, jobs, consume)


def _pool_map(fn, runs: list, jobs: int, consume):
    """consume(fn over runs, in order), with fn run by min(jobs, cores,
    runs // RUNS_PER_WORKER) workers, or by the builtin map in this process
    when that is 1 or os.fork does not exist.  This process is worker 0
    and forks the others; worker w runs fn on runs w, w + workers, ...
    A fork inherits fn and runs, so nothing is pickled on the way in; it
    pickles each result, or its first error, down its own pipe.  consume
    meets the runs in order, so the error raised is the first in catalog
    order, and every fork is killed and reaped before this returns or
    raises."""
    workers = min(jobs, os.cpu_count() or 1, len(runs) // RUNS_PER_WORKER)
    if workers <= 1 or not hasattr(os, "fork"):
        return consume(map(fn, runs))
    # Imported here, as pickle is in _serve and _gather: serial runs need neither.
    import signal

    pids, pipes = [], []
    try:
        for w in range(1, workers):
            rfd, wfd = os.pipe()
            pipes.append(open(rfd, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    try:
                        # Without a read end of its own, a fork whose
                        # parent died meets a broken pipe, not a full one.
                        for pipe in pipes:
                            pipe.close()
                        _serve(fn, runs, w, workers, wfd)
                    finally:
                        os._exit(0)
            finally:
                os.close(wfd)
            pids.append(pid)
        return consume(_gather(fn, runs, workers, pipes))
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()


def _serve(fn, runs: list, w: int, workers: int, fd: int) -> None:
    """Worker w's part of _pool_map, in a fork: fn on each of its runs,
    each result or the first error written to fd as one pickle."""
    import pickle

    with open(fd, "wb") as out:
        for i in range(w, len(runs), workers):
            try:
                result = True, fn(runs[i])
            except Exception as exc:  # raised again by the parent
                result = False, exc
            try:
                data = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                result = False, PoolError(f"run {i}: cannot send {result[1]!r:.200}: {exc}")
                data = pickle.dumps(result)
            out.write(data)
            out.flush()
            if not result[0]:
                return


def _gather(fn, runs: list, workers: int, pipes: list):
    """fn over runs, in order: worker 0's runs computed here, the others
    read from their worker's pipe."""
    import pickle

    for i, run in enumerate(runs):
        w = i % workers
        if w == 0:
            yield fn(run)
            continue
        try:
            ok, value = pickle.load(pipes[w - 1])
        except Exception as exc:
            raise PoolError(f"worker {w} ended without the result of run {i}") from exc
        if not ok:
            raise value
        yield value


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
    while True:
        # A random name, so that a temporary file a killed run left behind
        # is never in the way; a name already taken draws again.
        tmp = f"{target}.{os.urandom(8).hex()}.tmp"
        try:
            fh = open(tmp, "x", encoding="utf-8")
            break
        except FileExistsError:
            pass
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


def read_catalog(path) -> list[dict]:
    """The catalog's records as the JSON objects of its lines, each checked
    against the census record schema."""
    with open(path, "rb") as fh:
        return _parse_lines(fh, 1)


def _parse_lines(lines, first_lineno: int) -> list[dict]:
    """The JSON objects of raw catalog lines, the first of them line
    first_lineno of the catalog, each checked by _check_schema; blank
    lines are skipped."""
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
            _check_schema(obj)
        except (ParameterError, TypeError, OverflowError) as exc:
            raise CatalogSchemaError(f"line {lineno}: {exc}") from None
        records.append(obj)
    return records


# The JSON types of the record's fields that the schema checks by type.
_RECORD_TYPES = {
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


def _check_schema(obj) -> None:
    """Raise ParameterError, TypeError or OverflowError unless the parsed
    line obj has the census record schema: each object has its fields and
    no other, each typed field its type, and each witness its shape.  The
    values are verify's to check against the rebuilt record."""
    check_fields(obj, CensusRecord._fields, "record")
    for name, kind in _RECORD_TYPES.items():
        # A JSON true or false is a Python bool, and so an int.
        if not isinstance(obj[name], kind) or (
            kind is not bool and isinstance(obj[name], bool)
        ):
            raise ParameterError(f"field {name!r} has the wrong type")
    float(obj["lambda_max"])  # OverflowError past a float's range
    iso = obj["component_iso_evidence"]
    if iso is not None and not isinstance(iso, bool):
        raise ParameterError("field 'component_iso_evidence' must be bool or null")
    if obj["verdict"] not in ("yes", "no", "unknown"):
        raise ParameterError(f"invalid verdict {obj['verdict']!r}")
    for p in obj["factor_pairs"]:
        if not isinstance(p, dict) or set(p) != {"h_graph6", "k_graph6"}:
            raise ParameterError("factor_pairs entries need h_graph6 and k_graph6")
    screened = obj["screen"]
    check_fields(screened, ("graph_key", "overall", "trivial", "rules"), "screen")
    if not isinstance(screened["trivial"], bool):
        raise ParameterError("screen field 'trivial' must be a boolean")
    if not isinstance(screened["rules"], list):
        raise ParameterError("screen field 'rules' must be a list")
    for rule in screened["rules"]:
        check_fields(rule, RuleResult._fields, "screen rule")
    overall = overall_status(rule["status"] for rule in screened["rules"])
    if screened["overall"] != overall:
        raise ParameterError(
            f"screen field 'overall' is {screened['overall']!r} but its rules give {overall!r}"
        )
    check_fields(obj["violations"], ("items",), "violations")
    items = obj["violations"]["items"]
    if not isinstance(items, list):
        raise ParameterError("violations field 'items' must be a list")
    for v in items:
        check_fields(v, Violation._fields, "violation")
    for w in obj["witnesses"]:
        StoredWitness.from_json(w)


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


class TheoremReport:
    """The counts of a verified catalog, or of a run of its records, each
    section in the shape of its JSON.

    checked holds one (where, class, messages) entry per record in catalog
    order: the class is None when the record's graph6 does not decode to
    one.  Reports of consecutive runs of records add up with absorb."""

    def __init__(self) -> None:
        self.witnesses_checked = 0
        self.assertions = _counts(
            (PRODUCT_ASSERTION, *ASSERTION_IDS), "instances_checked", "violations"
        )
        self.rules = _counts(RULE_IDS, "instances_checked", "ruled_out", "violations")
        self.exploratory = {
            **_counts(("stronger_edge_bound", "unguarded_product_bound"), "instances", "failures"),
            **_counts(("component_isomorphism",), "instances", "isomorphic", "non_isomorphic"),
        }
        self.checked: list[tuple[str, tuple[int, str] | None, list[str]]] = []

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


def verify_catalog(records) -> TheoremReport:
    """Rebuild every record, a catalog line's JSON object as read_catalog
    returns it, from its graph and valid witnesses as the census does and
    report each field that differs; stored verdicts are only checked
    against screening and witnesses, never trusted."""
    report = TheoremReport()
    for rec in records:
        _check_record(rec, report)
    return report


def verify_lines(lines, jobs: int = 1) -> TheoremReport:
    """verify_catalog of the catalog whose raw lines (bytes, as read from
    the file) are given, with the same report.  Runs of RUN_RECORDS lines
    are parsed, as read_catalog parses them, and verified by _pool_map's
    workers, and their reports are added up in catalog order.  The
    catalog's first schema error is raised."""
    runs = [(lines[i:i + RUN_RECORDS], i + 1) for i in range(0, len(lines), RUN_RECORDS)]
    return _pool_map(_verify_run, runs, jobs, _sum_reports)


def _verify_run(run: tuple) -> TheoremReport:
    lines, first_lineno = run
    return verify_catalog(_parse_lines(lines, first_lineno))


def _sum_reports(reports) -> TheoremReport:
    total = TheoremReport()
    for report in reports:
        total.absorb(report)
    return total


def _check_record(rec: dict, report: TheoremReport) -> None:
    """Verify one record: add its entry and its counts to report.  Every
    field of the rebuilt record is compared with the stored one by
    equality; the stored lambda_max is rebuilt as itself when
    spectral.lambda_max_certified proves it to be the graph's largest
    eigenvalue, to within DEFAULT_TOL * max(1, |stored|), and as None
    otherwise, so no Jacobi sweep runs for it."""
    where = f"record {rec['graph6']!r}"
    undecodable = f"{where}: graph6 does not decode to a class"
    try:
        g = decode_graph6(rec["graph6"])
    except (Graph6Error, UnsupportedSizeError) as exc:
        report.checked.append((where, None, [f"{undecodable}: {exc}"]))
        return
    if g.order > CANONICAL_ORDER_CAP:
        report.checked.append((where, None, [
            f"{undecodable}: canonical forms are capped at order {CANONICAL_ORDER_CAP}"
        ]))
        return
    # The class's key is also the one the rebuilt record stores, so each
    # record's graph is labelled once.
    key = canonical_key(g)
    fresh = screen(g)
    messages: list[str] = []
    report.checked.append((where, (g.order, key), messages))
    verdict, witnesses = rec["verdict"], rec["witnesses"]
    for rule in fresh.rules:
        counts = report.rules[rule.rule_id]
        counts["instances_checked"] += 1
        if rule.status == "ruled_out":
            counts["ruled_out"] += 1
            if verdict != "no" or witnesses or rec["factor_pairs"]:
                counts["violations"] += 1
    if verdict == "yes" and not (rec["factor_pairs"] and witnesses):
        messages.append(f"{where}: verdict yes without stored witnesses")
    if verdict != "yes" and (rec["factor_pairs"] or witnesses):
        messages.append(f"{where}: verdict {verdict} with stored witnesses")
    if fresh.overall == "ruled_out" and verdict != "no":
        messages.append(f"{where}: ruled_out class without verdict no")
    product = report.assertions[PRODUCT_ASSERTION]
    valid = []
    for idx, w in enumerate(witnesses):
        report.witnesses_checked += 1
        product["instances_checked"] += 1
        try:
            f = StoredWitness.from_json(w).to_factorization()
        except (PreconditionError, ParameterError) as exc:
            product["violations"] += 1
            messages.append(f"{where}: witness {idx}: {exc}")
            continue
        if f.g != g:
            product["violations"] += 1
            messages.append(f"{where}: witness {idx} targets a different graph")
            continue
        valid.append(f)
    lam = rec["lambda_max"]
    rebuilt, checks = _describe(
        g, key, verdict, fresh, valid, lam if lambda_max_certified(g, lam) else None
    )
    for name, value in rebuilt.to_json().items():
        if value != rec[name]:
            messages.append(f"{where}: stored {name} mismatch")
    for outcomes, observed in checks:
        for outcome in outcomes:
            if outcome.applied:
                counts = report.assertions[outcome.assertion_id]
                counts["instances_checked"] += 1
                if outcome.violation is not None:
                    counts["violations"] += 1
        _add_counts(report.exploratory, observed)
