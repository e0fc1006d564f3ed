"""One benchmark operation in a fresh interpreter.

    python3 bench/worker.py RESULT.json probe
    python3 bench/worker.py RESULT.json reference SECONDS
    python3 bench/worker.py RESULT.json cli ARG... [--spans FILE]
    python3 bench/worker.py RESULT.json decide GRAPHS [--spans FILE]

``probe`` imports the package and exits.  ``reference`` times a fixed
pure-Python loop, which shares no code with the package, for SECONDS.
``cli`` runs
``graphfactor.cli.main(ARG...)``.  ``decide`` reads order-8 graphs (one
28-bit upper-triangle mask per line) and decides each with
``is_factorizable`` in first-witness mode.  With ``--spans`` the layers are traced and the
spans written to FILE.  The result (exit code, peak RSS, timings, verdicts
and the per-layer summary) is written as JSON to RESULT.json.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
sys.path.insert(0, BENCH)
sys.path.insert(0, SRC)

import graphfactor  # noqa: E402
from tracer import ROOT, Tracer  # noqa: E402

if not os.path.abspath(graphfactor.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"graphfactor imported from {graphfactor.__file__}, not {SRC}")

ORDER = 8
PAIRS = [(i, j) for i in range(ORDER) for j in range(i + 1, ORDER)]


def graph_of(mask: int):
    from graphfactor.graphs import Graph

    rows = [0] * ORDER
    for t, (i, j) in enumerate(PAIRS):
        if mask >> t & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return Graph(ORDER, tuple(rows))


def witness_ok(g, f) -> bool:
    """B*C = A by plain integer arithmetic, B and C symmetric 0/1 with zero
    diagonal, and A a relabelling of the input graph g."""
    from graphfactor.graphs import Graph, canonical_key

    a, b, c = f.a.entries, f.b.entries, f.c.entries
    n = len(a)
    if len(b) != n or len(c) != n or n != g.order:
        return False
    for m in (a, b, c):
        for i in range(n):
            if m[i][i] != 0 or any(m[i][j] != m[j][i] or m[i][j] not in (0, 1) for j in range(n)):
                return False
    for i in range(n):
        for j in range(n):
            if sum(b[i][t] * c[t][j] for t in range(n)) != a[i][j]:
                return False
    rows = tuple(sum(a[i][j] << j for j in range(n)) for i in range(n))
    return canonical_key(Graph(n, rows)) == canonical_key(g)


def reference_block() -> int:
    """The reference loop: integer, bit and dict work like the package's."""
    total = 0
    seen: dict[int, int] = {}
    for i in range(20000):
        x = (i * 2654435761) & 0xFFFFFF
        total += (x & (x >> 3)).bit_count()
        seen[x & 127] = i
    return total


def run_reference(seconds: float) -> dict:
    clock = time.perf_counter
    start = clock()
    blocks = 0
    while clock() - start < seconds:
        reference_block()
        blocks += 1
    return {"block_s": (clock() - start) / blocks}


def run_decide(path: str, tracer: Tracer | None) -> dict:
    from graphfactor import search

    with open(path, encoding="utf-8") as fh:
        graphs = [graph_of(int(line)) for line in fh if line.strip()]
    cfg = search.SearchConfig(order_cap=ORDER)
    verdicts = []
    latencies_ms = []
    yes = []
    clock = time.perf_counter
    start = clock()
    token = tracer.open(ROOT) if tracer else None
    for g in graphs:
        t0 = clock()
        try:
            decision = search.is_factorizable(g, cfg)
        except Exception:  # noqa: BLE001 - any exception is a failed operation
            latencies_ms.append((clock() - t0) * 1e3)
            verdicts.append("e")
            continue
        latencies_ms.append((clock() - t0) * 1e3)
        verdicts.append(decision.verdict[0])
        if decision.verdict == "yes":
            yes.append((g, decision.witness))
    if tracer:
        tracer.close(token)
    wall = clock() - start
    return {
        "wall_s": wall,
        "verdicts": "".join(verdicts),
        "bad_witnesses": sum(1 for g, f in yes if f is None or not witness_ok(g, f)),
        "latencies_ms": latencies_ms,
    }


def main(argv: list[str]) -> int:
    result_path, mode, *rest = argv
    spans_path = None
    if "--spans" in rest:
        i = rest.index("--spans")
        spans_path = rest[i + 1]
        del rest[i:i + 2]
    tracer = None
    if spans_path:
        tracer = Tracer(os.path.basename(spans_path))
        tracer.install()
    result: dict = {"mode": mode}
    try:
        if mode == "probe":
            import graphfactor.cli  # noqa: F401
            result["exit"] = 0
        elif mode == "reference":
            result.update(run_reference(float(rest[0])))
            result["exit"] = 0
        elif mode == "cli":
            from graphfactor import cli

            token = tracer.open(ROOT) if tracer else None
            try:
                result["exit"] = cli.main(rest)
            finally:
                if tracer:
                    tracer.close(token)
        elif mode == "decide":
            result.update(run_decide(rest[0], tracer))
            result["exit"] = 0
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    finally:
        if tracer:
            tracer.restore()
    if tracer:
        tracer.write_spans(spans_path)
        result["layers"] = tracer.summary()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
