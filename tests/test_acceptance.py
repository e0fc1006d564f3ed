"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and the
order-6 verification log.
"""
import hashlib
import os
import time

import pytest

from graphfactor.census import (
    enumerate_graphs,
    run_census,
    verify_catalog,
    write_catalog,
)
from graphfactor.conditions import screen, validate_factorization
from graphfactor.factorization import IntMatrix
from graphfactor.graphs import (
    canonical_key,
    complete,
    cycle,
    decode_graph6,
    disjoint_union,
    graph_bits,
    is_connected,
    matching,
)
from graphfactor.search import (
    SearchConfig,
    dedup_pairs,
    disconnected_counterexample,
    factor_search,
)
from graphfactor.spectral import lambda_max
from oracles import AcyclicClass, classify_acyclic, factorization_from_matrices, multiply
from triples import (
    C4_PLUS_EDGES_8,
    EDGES_PLUS_C4_8,
    MATCHING_6,
    SIX_CYCLE_PRODUCT,
    TRIANGLES_6,
    TWO_C4_PRODUCT,
)

JOBS = min(8, os.cpu_count() or 1)


@pytest.fixture(scope="module")
def catalog_1_to_6(order6_records):
    records = []
    for n in range(1, 6):
        records.extend(run_census(n))
    records.extend(order6_records)
    return records


def _report(num: int, name: str, ok: bool, elapsed: float, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({elapsed:.2f}s){extra}")
    assert ok, f"acceptance criterion {num} failed{extra}"


def test_criterion_01_figure_exact_products():
    t0 = time.perf_counter()
    ok = True
    six = factorization_from_matrices(
        IntMatrix(SIX_CYCLE_PRODUCT), IntMatrix(TRIANGLES_6), IntMatrix(MATCHING_6)
    )
    ok &= multiply(six.b, six.c) == six.a
    ok &= validate_factorization(six) == ()
    eight = factorization_from_matrices(
        IntMatrix(TWO_C4_PRODUCT), IntMatrix(C4_PLUS_EDGES_8), IntMatrix(EDGES_PLUS_C4_8)
    )
    ok &= multiply(eight.b, eight.c) == eight.a
    ok &= validate_factorization(eight) == ()
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _report(1, "figure-exact products", ok, elapsed)


def test_criterion_02_c6_factorization_recovered():
    t0 = time.perf_counter()
    witnesses, stats = factor_search(cycle(6), SearchConfig(mode="all"))
    pairs = dedup_pairs(witnesses)
    expected = tuple(
        sorted(
            (
                canonical_key(disjoint_union(complete(3), complete(3))),
                canonical_key(matching(3)),
            )
        )
    )
    elapsed = time.perf_counter() - t0
    ok = bool(witnesses) and stats.exhausted and expected in pairs and elapsed < 5.0
    _report(2, "C6 factorization recovered", ok, elapsed)


def test_criterion_03_oracle_equivalence_order_5(naive_witnesses):
    t0 = time.perf_counter()
    cfg = SearchConfig(mode="all")
    checked = 0
    ok = True
    for g, witnesses in naive_witnesses:
        naive = sorted((f.b.entries, f.c.entries) for f in witnesses)
        found, stats = factor_search(g, cfg)
        pruned = sorted((f.b.entries, f.c.entries) for f in found)
        if not stats.exhausted or naive != pruned:
            ok = False
        checked += 1
    elapsed = time.perf_counter() - t0
    ok &= checked == 52 and elapsed < 600.0
    _report(3, "oracle equivalence over 52 classes", ok, elapsed, f" [{checked} classes]")


def test_criterion_04_tree_theorem_at_desk_scale():
    t0 = time.perf_counter()
    trees = 0
    ok = True
    for n in range(2, 8):
        for g in enumerate_graphs(n):
            if classify_acyclic(g) != (AcyclicClass.TREE, 1):
                continue
            trees += 1
            witnesses, stats = factor_search(g, SearchConfig(mode="all"))
            if witnesses or not stats.exhausted:
                ok = False
            statuses = {r.rule_id: r.status for r in screen(g).rules}
            if statuses["R3"] != "ruled_out":
                ok = False
            if n % 2 == 0 and statuses["R1"] != "ruled_out":
                ok = False
            if n % 2 == 1 and statuses["R2"] != "ruled_out":
                ok = False
    elapsed = time.perf_counter() - t0
    ok &= trees == 24 and elapsed < 600.0
    _report(4, "tree theorem at desk scale", ok, elapsed, f" [{trees} trees]")


def test_criterion_05_lambda_max_multiplicative(catalog_1_to_6):
    t0 = time.perf_counter()
    checked = 0
    violations = 0
    for rec in catalog_1_to_6:
        if not rec.connected:
            continue
        g = decode_graph6(rec.graph6)
        for f in rec.witnesses:
            checked += 1
            lhs = lambda_max(f.g)
            rhs = lambda_max(f.h) * lambda_max(f.k)
            if abs(lhs - rhs) > 1e-9 * max(1.0, lhs):
                violations += 1
        assert is_connected(g)
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and checked > 0
    _report(
        5,
        "lambda_max multiplicativity over connected census factorizations",
        ok,
        elapsed,
        f" [{checked} checked, {violations} violations]",
    )


def test_criterion_06_counterexample_reproduction():
    t0 = time.perf_counter()
    f = disconnected_counterexample(3)
    lhs = lambda_max(f.g)
    rhs = lambda_max(f.h) * lambda_max(f.k)
    elapsed = time.perf_counter() - t0
    ok = abs(lhs - 2.0) <= 1e-9 and abs(rhs - 4.0) <= 1e-9
    _report(6, "disconnected counterexample (2 vs 4)", ok, elapsed)


def test_criterion_09_theorem_suite_over_census(catalog_1_to_6):
    t0 = time.perf_counter()
    report = verify_catalog([rec.to_json() for rec in catalog_1_to_6])
    elapsed = time.perf_counter() - t0
    core = [f"V{i}" for i in range(1, 14)]
    zero_violations = all(report.assertions[aid]["violations"] == 0 for aid in core)
    ok = zero_violations and report.total_violations == 0
    print()
    print("=== order <= 6 theorem verification log ===")
    print(report.format_text())
    fired = [aid for aid in core if report.assertions[aid]["instances_checked"]]
    _report(9, "theorem suite over the order<=6 census", ok, elapsed, f" [fired: {', '.join(fired)}]")


def test_criterion_10_determinism_order_6(tmp_path):
    t0 = time.perf_counter()
    a = tmp_path / "run_a.jsonl"
    b = tmp_path / "run_b.jsonl"
    write_catalog(run_census(6, jobs=JOBS), a)
    write_catalog(run_census(6, jobs=JOBS), b)
    elapsed = time.perf_counter() - t0
    ok = a.read_bytes() == b.read_bytes()
    _report(10, "byte-identical order-6 census runs", ok, elapsed)


@pytest.fixture(scope="module")
def order7_census():
    t0 = time.perf_counter()
    records = run_census(7, jobs=JOBS)
    return records, time.perf_counter() - t0


def test_criterion_11_performance_envelope(tmp_path, order7_census):
    records7, elapsed7 = order7_census
    t0 = time.perf_counter()
    records6 = run_census(6, jobs=JOBS)
    elapsed6 = time.perf_counter() - t0
    write_catalog(records6, tmp_path / "n6.jsonl")
    write_catalog(records7, tmp_path / "n7.jsonl")
    ok = (
        len(records6) == 156
        and elapsed6 < 300.0
        and len(records7) == 1044
        and elapsed7 < 7200.0
        and not any(r.violations for r in records7)
    )
    _report(
        11,
        "performance envelope",
        ok,
        elapsed6 + elapsed7,
        f" [order 6: {elapsed6:.1f}s, order 7: {elapsed7:.1f}s]",
    )


# Catalogs store every witness, so an unchanged order-7 catalog means the
# symmetry-broken search finds the same witness set, in the same order, for
# every order-7 class.
ORDER_7_CATALOG_SHA256 = "cffd7b03db12b5713570e60b090dec507285d28c66dc3a1d232bd59067bfcc4e"


def test_order_7_catalog_bytes_match_pinned_digest(tmp_path, order7_census):
    records7, _ = order7_census
    path = tmp_path / "n7.jsonl"
    write_catalog(records7, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == ORDER_7_CATALOG_SHA256


def test_order_7_census_invariants(order7_census):
    # Census-level facts through order 7: trees and odd-component forests
    # without isolated vertices never factor, and the whole catalog passes
    # from-scratch verification.
    records7, _ = order7_census
    by_key = {rec.canonical_key: rec for rec in records7}
    trees = forests = 0
    for g in enumerate_graphs(7):
        kind, ncomp = classify_acyclic(g)
        rec = by_key[graph_bits(g)]
        if kind is AcyclicClass.TREE:
            trees += 1
            assert rec.verdict == "no"
        if (
            kind in (AcyclicClass.TREE, AcyclicClass.FOREST_MULTI)
            and all(row != 0 for row in g.rows)
            and ncomp % 2 == 1
        ):
            forests += 1
            assert rec.verdict == "no"
    assert trees == 11
    assert forests >= trees
    report = verify_catalog([rec.to_json() for rec in records7])
    assert report.total_violations == 0
