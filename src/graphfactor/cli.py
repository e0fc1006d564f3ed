"""Command-line interface.

Subcommands: factor, check, spectral, construct, census, verify.
Exit status: 0 success, 1 violation or verification failure, or a census
or verify worker that ended without its result, 2 usage error, 141
standard output closed by its reader (the shell's status for SIGPIPE).
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import census as census_mod
from .conditions import screen, validate_factorization
from .errors import (
    CatalogSchemaError,
    Graph6Error,
    GraphFactorError,
    ParameterError,
    PoolError,
    PreconditionError,
    TheoremViolationError,
    UnsupportedSizeError,
)
from .graphs import (
    CANONICAL_ORDER_CAP, GRAPH6_ORDER_CAP, Graph, canonical_key, decode_edge_list, decode_graph6,
    encode_graph6, is_bipartite, is_connected,
)
from .search import (
    DEFAULT_NODE_LIMIT, SearchConfig, cycle_product, disconnected_counterexample, doubled_graph,
    is_factorizable,
)
from .spectral import eigen_sym, lambda_max, perron, spectrum_is_symmetric

_USAGE_ERRORS = (ParameterError, Graph6Error, UnsupportedSizeError, PreconditionError)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _load_graph(args: argparse.Namespace) -> Graph:
    if getattr(args, "graph6", None) is not None:
        try:
            return decode_graph6(args.graph6)
        except GraphFactorError as exc:
            raise ParameterError(f"--graph6: {exc}") from None
    if getattr(args, "edges", None) is not None:
        try:
            with open(args.edges, "r", encoding="utf-8") as fh:
                return decode_edge_list(fh.read())
        except (OSError, UnicodeDecodeError, GraphFactorError) as exc:
            raise ParameterError(f"--edges: {exc}") from None
    raise ParameterError("provide a graph via --graph6 or --edges")


def _graph_key(g: Graph) -> str | None:
    """g's canonical key, or None above the canonical cap."""
    return canonical_key(g) if g.order <= CANONICAL_ORDER_CAP else None


def _add_graph_input(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph6", help="graph6 record")
    src.add_argument("--edges", help="path to an edge-list file (one 'u v' per line)")


def _add_jobs(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--jobs", type=int, default=os.cpu_count() or 1,
        help="worker processes (default: the core count); the work goes to them in "
             f"runs of {census_mod.RUN_RECORDS} records (classes or catalog lines), "
             f"at most one worker per {census_mod.RUNS_PER_WORKER} runs, and the output "
             "is byte-identical at any count",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphfactor",
        description="Matrix-product factorizations of graphs: search, screening, census.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_factor = sub.add_parser("factor", help="decide factorizability and list witnesses")
    _add_graph_input(p_factor)
    p_factor.add_argument("--all", action="store_true", help="enumerate every witness")
    p_factor.add_argument("--node-limit", type=int, default=DEFAULT_NODE_LIMIT)
    p_factor.add_argument("--json", action="store_true")

    p_check = sub.add_parser("check", help="screen against the necessary conditions")
    _add_graph_input(p_check)
    p_check.add_argument("--json", action="store_true")

    p_spec = sub.add_parser("spectral", help="spectrum, largest eigenvalue, Perron data")
    _add_graph_input(p_spec)
    p_spec.add_argument("--json", action="store_true")

    p_con = sub.add_parser("construct", help="build an explicit witness family member")
    p_con.add_argument(
        "--kind", required=True, choices=("cycle", "double", "counterexample")
    )
    p_con.add_argument("--n", type=int, help="size parameter for cycle/counterexample")
    con_src = p_con.add_mutually_exclusive_group()
    con_src.add_argument("--graph6", help="input graph for --kind double")
    con_src.add_argument("--edges", help="edge-list input for --kind double")
    p_con.add_argument("--json", action="store_true")

    p_census = sub.add_parser(
        "census", help="run the isomorphism-class census",
        description="Search every isomorphism class of the order for all its witnesses "
                    "and write one catalog record per class. Exits 1 after writing the "
                    "catalog if a record has assertion violations.",
    )
    p_census.add_argument("--order", type=int, required=True, help="graph order, 1 to 8")
    p_census.add_argument("--out", required=True, help="catalog output path (JSON lines)")
    _add_jobs(p_census)

    p_verify = sub.add_parser("verify", help="re-verify a stored catalog from scratch")
    p_verify.add_argument("--catalog", required=True)
    _add_jobs(p_verify)
    p_verify.add_argument("--json", action="store_true")

    return parser


def _cmd_factor(args) -> int:
    if args.node_limit < 1:
        raise ParameterError("--node-limit must be at least 1")
    g = _load_graph(args)
    cfg = SearchConfig(mode="all" if args.all else "first", node_limit=args.node_limit)
    decision = is_factorizable(g, cfg)
    report, stats, witnesses = decision.report, decision.stats, decision.witnesses
    pair_g6 = census_mod.factor_pairs(g.order, witnesses)
    if args.json:
        payload = {
            "graph6": encode_graph6(g),
            "verdict": decision.verdict,
            "screen": report.to_json(_graph_key(g)),
            "factor_pairs": [{"h_graph6": h, "k_graph6": k} for h, k in pair_g6],
            "witnesses": [f.to_json() for f in witnesses],
            "stats": None if stats is None else vars(stats),
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"graph: {encode_graph6(g)} (order {g.order}, {g.edge_count} edges)")
    print(f"verdict: {decision.verdict}")
    if report.overall == "ruled_out":
        for rule in report.rules:
            if rule.status == "ruled_out":
                print(f"  ruled out by {rule.rule_id}: {rule.detail}")
    if witnesses:
        print(f"witnesses: {len(witnesses)}")
        for h, k in pair_g6:
            print(f"  factor pair: {h} * {k}")
    if stats is not None:
        print(
            f"search: nodes={stats.nodes_expanded} exhausted={stats.exhausted} "
            f"prunes={stats.prunes_by_rule}"
        )
    return 0


def _cmd_check(args) -> int:
    g = _load_graph(args)
    report = screen(g)
    if args.json:
        print(json.dumps(report.to_json(_graph_key(g)), indent=2))
        return 0
    print(f"graph: {encode_graph6(g)} (order {g.order}, {g.edge_count} edges)")
    print(f"overall: {report.overall}" + (" (trivially factorizable)" if report.trivial else ""))
    for rule in report.rules:
        print(f"  {rule.rule_id} [{rule.status}] {rule.detail}")
    return 0


def _cmd_spectral(args) -> int:
    g = _load_graph(args)
    spectrum = eigen_sym(g)
    connected = is_connected(g)
    pair = perron(g) if connected else None
    if args.json:
        payload = {
            "graph6": encode_graph6(g),
            "spectrum": list(spectrum),
            "lambda_max": spectrum[0],
            "spectrum_symmetric": spectrum_is_symmetric(spectrum),
            "bipartite": is_bipartite(g),
            "connected": connected,
            "perron": None if pair is None else {"value": pair[0], "vector": list(pair[1])},
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"graph: {encode_graph6(g)} (order {g.order}, {g.edge_count} edges)")
    print("spectrum: " + " ".join(_fmt(v) for v in spectrum))
    print(f"lambda_max: {_fmt(spectrum[0])}")
    print(f"bipartite: {is_bipartite(g)}")
    print(f"connected: {connected}")
    if pair is not None:
        value, vector = pair
        print(f"perron value: {_fmt(value)}")
        print("perron vector: " + " ".join(_fmt(x) for x in vector))
    else:
        print("perron: not defined (graph disconnected)")
    return 0


def _cmd_construct(args) -> int:
    # Refuse a flag the kind never reads, and a product that graph6 cannot
    # print, before building anything.
    ignored = ("--n",) if args.kind == "double" else ("--graph6", "--edges")
    for flag in ignored:
        if getattr(args, flag[2:]) is not None:
            raise ParameterError(f"--kind {args.kind} does not read {flag}")
    if args.kind == "double":
        if args.graph6 is None and args.edges is None:
            raise ParameterError("--kind double needs --graph6 or --edges")
        g = _load_graph(args)
        order, what = 2 * g.order, "--kind double"
    elif args.n is None:
        raise ParameterError(f"--kind {args.kind} needs --n")
    else:
        order, what = (2 if args.kind == "cycle" else 4) * args.n, f"--n {args.n}"
    if order > GRAPH6_ORDER_CAP:
        raise ParameterError(
            f"{what}: product order {order} exceeds the graph6 cap {GRAPH6_ORDER_CAP}"
        )
    if args.kind == "cycle":
        f = cycle_product(args.n)
    elif args.kind == "counterexample":
        f = disconnected_counterexample(args.n)
    else:
        f = doubled_graph(g)
    violations = validate_factorization(f)
    lam_g = lambda_max(f.g)
    lam_h = lambda_max(f.h)
    lam_k = lambda_max(f.k)
    if args.json:
        payload = {
            "kind": args.kind,
            "witness": f.to_json(),
            "g_graph6": encode_graph6(f.g),
            "lambda_max_g": lam_g,
            "lambda_max_h": lam_h,
            "lambda_max_k": lam_k,
            "lambda_product": lam_h * lam_k,
            "violations": {"items": [v._asdict() for v in violations]},
        }
        print(json.dumps(payload, indent=2))
        return 1 if violations else 0
    print(f"G = {encode_graph6(f.g)} (order {f.g.order}, {f.g.edge_count} edges)")
    print(f"H = {encode_graph6(f.h)}, K = {encode_graph6(f.k)}")
    print("A =")
    print(f.a.format_rows())
    print("B =")
    print(f.b.format_rows())
    print("C =")
    print(f.c.format_rows())
    print(
        f"lambda_max(G) = {_fmt(lam_g)} vs "
        f"lambda_max(H)*lambda_max(K) = {_fmt(lam_h)}*{_fmt(lam_k)} = {_fmt(lam_h * lam_k)}"
    )
    print(f"validation: {'VIOLATIONS' if violations else 'ok'}")
    return 1 if violations else 0


def _check_jobs(args) -> None:
    if args.jobs < 1:
        raise ParameterError("--jobs must be at least 1")


def _cmd_census(args) -> int:
    _check_jobs(args)
    if not 1 <= args.order <= CANONICAL_ORDER_CAP:
        raise ParameterError(f"--order must lie in 1..{CANONICAL_ORDER_CAP}")
    # Made absolute, an empty path would name the current directory, and
    # one ending in a separator the directory it names.
    if not args.out or args.out[-1] in (os.sep, os.altsep):
        raise ParameterError(f"--out: not a file path: {args.out!r}")
    out_dir = os.path.dirname(os.path.abspath(args.out))
    if not os.path.isdir(out_dir):
        raise ParameterError(f"--out: no such directory: {out_dir!r}")
    if os.path.isdir(args.out):
        raise ParameterError(f"--out: is a directory: {args.out!r}")

    def progress(done: int, total: int) -> None:
        if done % 200 == 0 or done == total:
            print(f"  {done}/{total} classes", file=sys.stderr)

    records = census_mod.run_census(args.order, jobs=args.jobs, progress=progress)
    try:
        census_mod.write_catalog(records, args.out)
    except OSError as exc:
        raise ParameterError(f"--out: {exc}") from None
    verdicts = {"yes": 0, "no": 0, "unknown": 0}
    for rec in records:
        verdicts[rec.verdict] += 1
    bad = sum(1 for rec in records if rec.violations)
    print(f"catalog written: {args.out}")
    print(
        f"classes: {len(records)}  yes: {verdicts['yes']}  no: {verdicts['no']}  "
        f"unknown: {verdicts['unknown']}  records with violations: {bad}"
    )
    return 1 if bad else 0


def _cmd_verify(args) -> int:
    _check_jobs(args)
    try:
        with open(args.catalog, "rb") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ParameterError(f"--catalog: {exc}") from None
    report = census_mod.verify_lines(lines, jobs=args.jobs)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.format_text())
    return 1 if report.total_violations else 0


_COMMANDS = {
    "factor": _cmd_factor,
    "check": _cmd_check,
    "spectral": _cmd_spectral,
    "construct": _cmd_construct,
    "census": _cmd_census,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = _COMMANDS[args.command](args)
        # Flushed here, so that a reader that closed early is met below
        # and not at interpreter exit.
        sys.stdout.flush()
        return status
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CatalogSchemaError, TheoremViolationError, PoolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The output still buffered is flushed at exit; devnull takes it
        # (the recipe of the signal module's documentation).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
