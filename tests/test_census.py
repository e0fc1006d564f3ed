import hashlib
import json
import os
import pickle
import threading
from collections import Counter, defaultdict
from math import factorial
from pathlib import Path

import networkx as nx
import pytest

from graphfactor.census import (
    enumerate_graphs,
    read_catalog,
    run_census,
    verify_catalog,
    write_catalog,
)
from graphfactor.conditions import Violation, check_assertions
from graphfactor.errors import (
    CatalogSchemaError, ParameterError, PoolError, TheoremViolationError,
)
from graphfactor.graphs import (
    Graph,
    _canonical_order,
    canonical_form,
    canonical_key,
    complete,
    cycle,
    disjoint_union,
    edgeless,
    encode_graph6,
    graph_bits,
    has_isolated_vertex,
    matching,
)
from graphfactor.factorization import Factorization, StoredWitness, adjacency
from graphfactor.search import SearchConfig, is_factorizable
from oracles import AcyclicClass, brute_class_reps, classify_acyclic, edges, ladder_class_keys


CLASS_LADDER = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


def test_enumerate_counts_match_ladder():
    for n, count in CLASS_LADDER.items():
        assert len(enumerate_graphs(n)) == count


def test_enumerate_counts_match_brute_force():
    for n in (3, 4, 5):
        assert len(enumerate_graphs(n)) == len(brute_class_reps(n))


def test_enumerate_matches_networkx_atlas():
    # Read & Wilson's atlas lists each graph of order <= 7 exactly once, and
    # VF2 decides isomorphism without canonical_key.
    def invariants(h):
        return h.number_of_nodes(), h.number_of_edges(), tuple(sorted(d for _, d in h.degree()))

    buckets = defaultdict(list)
    for n in CLASS_LADDER:
        for g in enumerate_graphs(n):
            h = nx.from_graph6_bytes(encode_graph6(g).encode("ascii"))
            buckets[invariants(h)].append(h)
    atlas = [a for a in nx.graph_atlas_g() if a.number_of_nodes() > 0]
    assert len(atlas) == sum(CLASS_LADDER.values()) == 1252
    matched = set()
    for a in atlas:
        bucket = invariants(a)
        hits = [i for i, h in enumerate(buckets[bucket]) if nx.is_isomorphic(a, h)]
        assert len(hits) == 1, nx.to_graph6_bytes(a, header=False)
        matched.add((bucket, hits[0]))
    # No two atlas graphs share a class, so every class was matched.
    assert len(matched) == len(atlas)


def test_burnside_count_matches_oeis_a000088():
    from graphfactor import census as census_mod

    counts = [census_mod._burnside_class_count(n) for n in range(1, 11)]
    assert counts == [1, 2, 4, 11, 34, 156, 1044, 12346, 274668, 12005168]


def test_enumerate_matches_ladder_reference():
    for n in CLASS_LADDER:
        assert [graph_bits(g) for g in enumerate_graphs(n)] == ladder_class_keys(n)


def test_enumerate_order_8_keys_pinned():
    # The edge ladder's order-8 key list; the ladder itself takes about 25 s.
    keys = "\n".join(graph_bits(g) for g in enumerate_graphs(8))
    assert hashlib.sha256(keys.encode("ascii")).hexdigest() == (
        "c9940658f3c7c698cf9a0ab68574c957fb092f57c1e967cece875644bb56424d"
    )


def test_enumerate_labelled_count_identity():
    # Each class of order n stands for n!/|Aut(G)| labelled graphs, and together
    # they are all 2^(n(n-1)/2) of them.  |Aut(G)| comes from VF2, not from
    # the canonical labelling, so a class made twice or missed shows here
    # even when the class count is right.
    from networkx.algorithms.isomorphism import GraphMatcher

    for n in CLASS_LADDER:
        labelled = 0
        for g in enumerate_graphs(n):
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(edges(g))
            automorphisms = sum(1 for _ in GraphMatcher(h, h).isomorphisms_iter())
            assert factorial(n) % automorphisms == 0
            labelled += factorial(n) // automorphisms
        assert labelled == 2 ** (n * (n - 1) // 2), n


def test_enumerate_order_7_canonical_key_calls_pinned(monkeypatch):
    # One labelling for K_n and one per child of orderly generation that the
    # parent's automorphisms do not reject; all 2,377 children were labelled
    # before the orbit rule, and the edge ladder made 9,157.
    from graphfactor import census as census_mod

    real_key = census_mod.canonical_key
    calls = []

    def key(g):
        calls.append(g)
        return real_key(g)

    monkeypatch.delitem(census_mod._CLASS_CACHE, 7, raising=False)
    monkeypatch.setattr(census_mod, "canonical_key", key)
    assert len(enumerate_graphs(7)) == 1044
    assert len(calls) == 1282


def test_orbit_rule_skips_only_non_canonical_children(monkeypatch):
    # Every child of every class is rebuilt here as the unpruned generation
    # made it; each one enumeration did not label must fail the canonicity
    # test, and the canonical children are exactly the classes.
    from graphfactor import census as census_mod

    real_key = census_mod.canonical_key
    for n in CLASS_LADDER:
        labelled = Counter()

        def key(g):
            labelled[g.rows] += 1
            return real_key(g)

        monkeypatch.delitem(census_mod._CLASS_CACHE, n, raising=False)
        monkeypatch.setattr(census_mod, "canonical_key", key)
        classes = enumerate_graphs(n)
        monkeypatch.setattr(census_mod, "canonical_key", real_key)
        pairs = [(i, j) for j in range(1, n) for i in range(j)]
        children = Counter()
        for g in classes:
            bits = graph_bits(g)
            for t in range(bits.rfind("0") + 1, len(pairs)):
                i, j = pairs[t]
                rows = list(g.rows)
                rows[i] &= ~(1 << j)
                rows[j] &= ~(1 << i)
                children[tuple(rows)] += 1
        assert labelled - children == Counter({complete(n).rows: 1})
        skipped = children - labelled
        assert bool(skipped) == (n >= 3), n
        canonical = {graph_bits(complete(n))}
        for rows in children:
            child = Graph(n, rows)
            if canonical_key(child) == graph_bits(child):
                assert rows not in skipped, child
                canonical.add(graph_bits(child))
        assert sorted(canonical) == [graph_bits(g) for g in classes], n


def test_children_built_without_the_row_check_are_valid_graphs(monkeypatch):
    # Orderly generation builds each child it labels, kept or rejected,
    # through Graph._make; validation must accept every one of them as is.
    from graphfactor import census as census_mod

    real_make = Graph._make
    made = []

    def make(fields):
        g = real_make(fields)
        made.append(g)
        return g

    monkeypatch.setattr(census_mod, "_CLASS_CACHE", {})
    monkeypatch.setattr(Graph, "_make", make)
    for n in CLASS_LADDER:
        made.clear()
        classes = enumerate_graphs(n)
        for g in made:
            assert type(g) is Graph and Graph(g.order, g.rows) == g, (n, g.rows)
        assert set(classes) - set(made) == {complete(n)}
        if n == 7:
            assert len(made) == 1281


def test_enumerate_ordered_by_canonical_key():
    for n in (4, 5):
        keys = [graph_bits(g) for g in enumerate_graphs(n)]
        assert keys == sorted(keys)
        # A fresh Graph, so the key is computed rather than read from the
        # labelling the enumeration stored on its representatives.
        assert all(
            _canonical_order(Graph(g.order, g.rows))[:2] == (graph_bits(g), tuple(range(n)))
            for g in enumerate_graphs(n)
        )


def test_enumerate_representatives_are_canonical():
    for g in enumerate_graphs(5):
        assert adjacency(canonical_form(Graph(g.order, g.rows))) == adjacency(g)


def test_run_census_labels_no_class_graph(monkeypatch):
    from graphfactor import graphs as graphs_mod

    classes = enumerate_graphs(5)
    real_order = graphs_mod._canonical_order
    labelled = []

    def order(g):
        labelled.append(g)
        return real_order(g)

    monkeypatch.setattr(graphs_mod, "_canonical_order", order)
    records = run_census(5)
    witnesses = [f for rec in records for f in rec.witnesses]
    factors = {f.h.rows for f in witnesses} | {f.k.rows for f in witnesses}
    assert labelled, "the witness factors are labelled"
    assert all(g.rows in factors for g in labelled)
    assert not {id(g) for g in classes} & {id(g) for g in labelled}


def test_census_builds_one_assertion_context_per_witness(monkeypatch):
    from graphfactor import conditions

    built = []

    class Counted(conditions._Context):
        def __init__(self, f):
            built.append(f)
            super().__init__(f)

    monkeypatch.setattr(conditions, "_Context", Counted)
    records = run_census(6)
    witnesses = sum(len(rec.witnesses) for rec in records)
    assert witnesses > 0
    assert len(built) == witnesses


def test_enumerate_class_count_mismatch_raises_package_error(monkeypatch):
    from graphfactor import census as census_mod

    monkeypatch.delitem(census_mod._CLASS_CACHE, 4, raising=False)
    monkeypatch.setattr(census_mod, "_burnside_class_count", lambda n: 12)
    with pytest.raises(TheoremViolationError, match="order 4"):
        enumerate_graphs(4)
    assert 4 not in census_mod._CLASS_CACHE


def test_enumerate_range_errors():
    with pytest.raises(ParameterError):
        enumerate_graphs(0)
    with pytest.raises(ParameterError):
        enumerate_graphs(9)


def test_census_order_3_single_trivial_class():
    records = run_census(3)
    assert len(records) == 4
    yes = [r for r in records if r.verdict == "yes"]
    assert len(yes) == 1
    assert yes[0].graph6 == encode_graph6(edgeless(3))
    assert yes[0].screen.trivial
    assert yes[0].factor_pairs  # the zero-times-zero pair
    ruled = {r.graph6: r for r in records if r.verdict == "no"}
    assert len(ruled) == 3


def test_census_order_6_c6_factor_pair(order6_records):
    key = canonical_key(cycle(6))
    rec = next(r for r in order6_records if r.canonical_key == key)
    assert rec.verdict == "yes"
    two_triangles = encode_graph6(
        next(
            g
            for g in enumerate_graphs(6)
            if canonical_key(g) == canonical_key(disjoint_union(complete(3), complete(3)))
        )
    )
    three_matching = encode_graph6(
        next(
            g
            for g in enumerate_graphs(6)
            if canonical_key(g) == canonical_key(matching(3))
        )
    )
    assert tuple(sorted((two_triangles, three_matching))) in {
        tuple(sorted(p)) for p in rec.factor_pairs
    }


def test_census_yes_records_have_even_edges(order6_records):
    for rec in order6_records:
        if rec.verdict == "yes":
            assert rec.edge_count % 2 == 0
            assert rec.factor_pairs


def test_census_trees_and_odd_forests_are_no(order6_records):
    for rec in order6_records:
        g = next(
            x for x in enumerate_graphs(rec.n) if canonical_key(x) == rec.canonical_key
        )
        kind, ncomp = classify_acyclic(g)
        if kind is AcyclicClass.TREE and g.order >= 2:
            assert rec.verdict == "no"
        if (
            kind in (AcyclicClass.TREE, AcyclicClass.FOREST_MULTI)
            and not has_isolated_vertex(g)
            and ncomp % 2 == 1
        ):
            assert rec.verdict == "no"


def test_census_screen_soundness(order6_records):
    for rec in order6_records:
        if rec.screen.overall == "ruled_out":
            assert rec.verdict == "no"
            assert not rec.witnesses and not rec.factor_pairs


def test_census_all_violationlists_empty(order6_records):
    assert not any(r.violations for r in order6_records)


def test_catalog_roundtrip(tmp_path):
    records = run_census(5)
    path = tmp_path / "n5.jsonl"
    write_catalog(records, path)
    assert read_catalog(path) == [rec.to_json() for rec in records]


def test_catalog_empty_roundtrip(tmp_path):
    path = tmp_path / "empty.jsonl"
    write_catalog([], path)
    assert path.read_text() == ""
    assert read_catalog(path) == []


def test_catalog_write_error_keeps_the_previous_catalog(tmp_path):
    records = run_census(4)
    path = tmp_path / "n4.jsonl"
    write_catalog(records, path)
    before = path.read_bytes()

    def failing():
        yield from records[:2]
        raise OSError(28, "No space left on device")

    with pytest.raises(OSError, match="No space left"):
        write_catalog(failing(), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["n4.jsonl"]
    write_catalog(records[:1], path)
    assert read_catalog(path) == [records[0].to_json()]
    assert [p.name for p in tmp_path.iterdir()] == ["n4.jsonl"]


def test_catalog_write_passes_a_stale_temporary_file_by(tmp_path):
    # A run killed mid-write leaves its temporary file behind, and a later
    # process may get the same pid.
    records = run_census(3)
    path = tmp_path / "n3.jsonl"
    stale = Path(f"{os.path.realpath(path)}.{os.getpid()}.tmp")
    stale.write_text("stale")
    write_catalog(records, path)
    assert read_catalog(path) == [rec.to_json() for rec in records]
    assert stale.read_text() == "stale"
    assert sorted(p.name for p in stale.parent.iterdir()) == ["n3.jsonl", stale.name]
    umask = os.umask(0)
    os.umask(umask)
    assert path.stat().st_mode & 0o777 == 0o666 & ~umask


def test_catalog_written_in_place_when_not_a_regular_file(tmp_path):
    # A pipe cannot be replaced by a rename, so it receives the lines.
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    records = run_census(3)
    done = []
    reader = threading.Thread(target=lambda: done.append(read_catalog(fifo)), daemon=True)
    reader.start()
    write_catalog(records, fifo)
    reader.join(10)
    assert done == [[rec.to_json() for rec in records]]
    assert fifo.is_fifo()


def test_catalog_schema_error_names_line_and_field(tmp_path):
    records = run_census(3)
    path = tmp_path / "n3.jsonl"
    write_catalog(records, path)
    lines = path.read_text().splitlines()
    broken = json.loads(lines[2])
    del broken["verdict"]
    lines[2] = json.dumps(broken)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CatalogSchemaError) as exc:
        read_catalog(path)
    assert "line 3" in str(exc.value)
    assert "verdict" in str(exc.value)


def test_catalog_invalid_json_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("{not json}\n")
    with pytest.raises(CatalogSchemaError) as exc:
        read_catalog(path)
    assert "line 1" in str(exc.value)


def test_census_determinism_bytes(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    write_catalog(run_census(5), a)
    write_catalog(run_census(5), b)
    assert a.read_bytes() == b.read_bytes()


def test_census_parallel_matches_serial(tmp_path, pool_of_two):
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "parallel.jsonl"
    write_catalog(run_census(5, jobs=1), serial)
    write_catalog(run_census(5, jobs=2), parallel)
    assert pool_of_two == [2]
    assert serial.read_bytes() == parallel.read_bytes()


def test_a_parallel_census_pickles_nothing_in_the_parent(monkeypatch, pool_of_two):
    # A fork inherits its runs of class graphs; only the forks pickle,
    # and what they record stays in their own memory.
    pickled = []

    def spy(real):
        def pickling(*args, **kwargs):
            pickled.append(real.__name__)
            return real(*args, **kwargs)
        return pickling

    for name in ("dump", "dumps"):
        monkeypatch.setattr(pickle, name, spy(getattr(pickle, name)))
    monkeypatch.setattr(Graph, "__getstate__", spy(Graph.__getstate__))
    records = run_census(7, jobs=2)
    assert pickled == []
    assert pool_of_two == [2]
    assert records == list(run_census(7))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("failing, first", [((1, 2), 1), ((2, 3), 2)])
def test_pool_raises_the_first_error_in_catalog_order(pool_of_two, failing, first):
    # Of two workers, the parent runs the even runs and its fork the odd.
    from graphfactor.census import _pool_map

    def fn(run):
        if run in failing:
            raise ValueError(f"run {run}")
        return run

    with pytest.raises(ValueError, match=f"^run {first}$"):
        _pool_map(fn, list(range(8)), 2, list)
    assert pool_of_two == [2]
    assert_no_child_left()


def test_pool_names_a_worker_that_dies_without_a_result(pool_of_two):
    import signal

    from graphfactor.census import _pool_map

    def fn(run):
        if run == 3:
            os._exit(7)
        return run

    def hung(signum, frame):
        raise TimeoutError("the pool waits for a dead worker")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(20)
    try:
        with pytest.raises(PoolError, match="^worker 1 ended without the result of run 3$"):
            _pool_map(fn, list(range(8)), 2, list)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert pool_of_two == [2]
    assert_no_child_left()


def test_pool_names_an_error_a_worker_cannot_pickle(pool_of_two):
    from graphfactor.census import _pool_map

    def fn(run):
        if run == 5:
            raise ValueError(lambda: run)
        return run

    with pytest.raises(PoolError, match="^run 5: cannot send ValueError"):
        _pool_map(fn, list(range(8)), 2, list)
    assert pool_of_two == [2]
    assert_no_child_left()


def census_pool_sizes(monkeypatch, pool_sizes, n, jobs, cores):
    """The pool sizes run_census(n, jobs=jobs) runs on that many cores;
    its records must equal those of a serial run."""
    from graphfactor import census as census_mod

    monkeypatch.setattr(census_mod.os, "cpu_count", lambda: cores)
    records = run_census(n, jobs=jobs)
    assert [r.to_json() for r in records] == [r.to_json() for r in run_census(n)]
    return pool_sizes


@pytest.mark.parametrize(
    "n, jobs, cores, workers",
    [
        (5, 5000, 2, 2),  # capped at the cores
        (3, 5000, 64, 4),  # capped at the 4 classes of order 3
        (5, 3, 64, 3),  # as asked
        (5, 5000, 1, None),  # one core: serial, no pool
        (5, 5000, None, None),  # unknown core count counts as one
        (1, 5000, 64, None),  # one class
    ],
)
def test_run_census_caps_the_worker_count(monkeypatch, pool_sizes, n, jobs, cores, workers):
    # With one class a worker, as runs of one class and one run a worker
    # give it; the minimum of RUN_RECORDS * RUNS_PER_WORKER is tested below.
    from graphfactor import census as census_mod

    monkeypatch.setattr(census_mod, "RUN_RECORDS", 1)
    monkeypatch.setattr(census_mod, "RUNS_PER_WORKER", 1)
    sizes = census_pool_sizes(monkeypatch, pool_sizes, n, jobs, cores)
    assert sizes == ([] if workers is None else [workers])


@pytest.mark.parametrize(
    "n, jobs, cores, workers",
    [
        (7, 2, 2, 2),  # 1,044 classes: both cores
        (7, 5000, 64, 8),  # capped at 1,044 // 128 workers
        (6, 5000, 64, None),  # 156 classes: one process runs them faster
    ],
)
def test_run_census_gives_each_worker_128_classes(
    monkeypatch, pool_sizes, n, jobs, cores, workers
):
    sizes = census_pool_sizes(monkeypatch, pool_sizes, n, jobs, cores)
    assert sizes == ([] if workers is None else [workers])


@pytest.mark.parametrize(
    "copies, jobs, cores, workers",
    [
        (2, 5000, 2, 2),  # 312 lines: capped at the cores
        (2, 5000, 64, 2),  # capped at 10 runs of lines, 4 runs a worker
        (2, 3, 1, None),  # one core: serial, no pool
        (1, 5000, 64, None),  # 156 lines: one process verifies them faster
        (0, 5000, 64, None),  # one record
    ],
)
def test_verify_caps_the_worker_count(
    monkeypatch, tmp_path, capsys, pool_sizes, order6_records, copies, jobs, cores, workers
):
    from graphfactor import census as census_mod
    from graphfactor.cli import main

    records = list(order6_records) * copies or list(order6_records[:1])
    path = tmp_path / "catalog.jsonl"
    write_catalog(records, path)
    monkeypatch.setattr(census_mod.os, "cpu_count", lambda: cores)
    main(["verify", "--catalog", str(path), "--json", "--jobs", str(jobs)])
    assert pool_sizes == ([] if workers is None else [workers])
    assert json.loads(capsys.readouterr().out) == verify_catalog(
        [rec.to_json() for rec in records]
    ).to_json()


def test_verify_full_order_6_clean(order6_records):
    report = verify_catalog([rec.to_json() for rec in order6_records])
    assert report.total_violations == 0
    assert report.records_checked == len(order6_records)
    # soundness tallies cover every record for every rule
    for tally in report.rules.values():
        assert tally["instances_checked"] == len(order6_records)


def test_verify_c6_only_catalog(order6_records):
    key = canonical_key(cycle(6))
    rec = next(r for r in order6_records if r.canonical_key == key)
    report = verify_catalog([rec.to_json()])
    assert report.total_violations == 0
    fired = {aid for aid, c in report.assertions.items() if c["instances_checked"]}
    assert {"W0", "V1", "V2", "V3", "V5", "V6", "V7", "V8", "V13", "S1"} <= fired
    for aid in ("V4", "V9", "V10", "V11", "V12"):
        assert report.assertions[aid]["instances_checked"] == 0


def test_verify_reports_corrupted_witness(order6_records, tmp_path):
    key = canonical_key(cycle(6))
    rec = next(r for r in order6_records if r.canonical_key == key)
    obj = rec.to_json()
    row = list(obj["witnesses"][0]["b"][0])
    row[1] = "1" if row[1] == "0" else "0"
    obj["witnesses"][0]["b"][0] = "".join(row)
    path = tmp_path / "corrupt.jsonl"
    path.write_text(json.dumps(obj) + "\n")
    report = verify_catalog(read_catalog(path))
    assert report.assertions["W0"]["violations"] >= 1
    assert report.total_violations >= 1


def _forge(rec, edit):
    obj = rec.to_json()
    edit(obj)
    return obj


def _flip(matrix, *cells):
    """An edit that flips the given entries of one matrix of a record's
    first witness."""
    def edit(obj):
        rows = [list(row) for row in obj["witnesses"][0][matrix]]
        for i, j in cells:
            rows[i][j] = "1" if rows[i][j] == "0" else "0"
        obj["witnesses"][0][matrix] = ["".join(row) for row in rows]
    return edit


# (edit of the C6 record, verify's message for its first witness; a witness
# of another graph is test_verify_rejects_witness_of_another_graph)
BROKEN_WITNESSES = {
    "asymmetric B": (_flip("b", (0, 1)), "factorization matrices must be adjacency matrices"),
    "loop in C": (_flip("c", (2, 2)), "factorization matrices must be adjacency matrices"),
    # B keeps its perfect matching and gains the edge {0, 2}.
    "failed product": (_flip("b", (0, 2), (2, 0)), "product identity fails: B*C != A"),
}


@pytest.mark.parametrize("name", sorted(BROKEN_WITNESSES))
def test_verify_names_a_broken_witness(order6_records, name):
    edit, message = BROKEN_WITNESSES[name]
    c6 = next(r for r in order6_records if r.canonical_key == canonical_key(cycle(6)))
    report = verify_catalog([_forge(c6, edit)])
    assert report.integrity == [
        f"record 'EBj?': witness 0: {message}",
        "record 'EBj?': stored witnesses mismatch",
    ]
    assert report.assertions["W0"]["violations"] == 1
    assert report.total_violations == 3


# (the C6 record's first witness -> the witness stored instead, the schema
# error it raises)
MALFORMED_WITNESSES = {
    "non-bit character": (
        lambda w: {**w, "b": ["0002" + w["b"][0][4:], *w["b"][1:]]},
        "b: row 0 is not a length-6 bit-string",
    ),
    "ragged row": (
        lambda w: {**w, "c": [*w["c"][:2], w["c"][2][:-1], *w["c"][3:]]},
        "c: row 2 is not a length-6 bit-string",
    ),
    "empty matrix": (lambda w: {**w, "a": []}, "matrix order must be at least 1"),
    "two orders": (
        lambda w: {**w, "c": [row[:5] for row in w["c"][:5]]},
        "witness matrices must share one order",
    ),
    "non-boolean trivial": (
        lambda w: {**w, "trivial": 0}, "witness field 'trivial' must be a boolean"
    ),
    # Each of "a", "b" and "c" is a substring of it.
    "a string": (lambda w: "abc", "witness is not a JSON object"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_WITNESSES))
def test_catalog_schema_error_names_a_malformed_witness(order6_records, tmp_path, name):
    edit, message = MALFORMED_WITNESSES[name]
    c6 = next(r for r in order6_records if r.canonical_key == canonical_key(cycle(6)))
    obj = c6.to_json()
    obj["witnesses"][0] = edit(obj["witnesses"][0])
    path = tmp_path / "malformed.jsonl"
    path.write_text(json.dumps(order6_records[0].to_json()) + "\n" + json.dumps(obj) + "\n")
    with pytest.raises(CatalogSchemaError) as exc:
        read_catalog(path)
    assert str(exc.value) == f"line 2: {message}"


def _matrix_rows(m):
    """The bit rows of an IntMatrix view, character j of row i its entry (i, j)."""
    return ["".join(str(x) for x in row) for row in m.entries]


def test_stored_witness_round_trips_every_witness_to_order_7():
    # Each witness is written as the bit rows of its public IntMatrix views,
    # and reads back to the same triple of graphs.
    count = 0
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            for f in is_factorizable(g, SearchConfig(mode="all")).witnesses:
                j = f.to_json()
                assert j == {
                    "a": _matrix_rows(f.a),
                    "b": _matrix_rows(f.b),
                    "c": _matrix_rows(f.c),
                    "h_graph6": encode_graph6(f.h),
                    "k_graph6": encode_graph6(f.k),
                    "trivial": f.trivial,
                }
                assert StoredWitness.from_json(json.loads(json.dumps(j))).to_factorization() == f
                count += 1
    assert count == 217


@pytest.mark.parametrize("trivial", [True, False])
def test_witness_writer_keys_follow_the_reader_fields(trivial):
    g = edgeless(4) if trivial else cycle(6)
    f = is_factorizable(g, SearchConfig()).witness
    assert f.trivial == trivial
    assert tuple(f.to_json()) == StoredWitness._fields


FORGED_VIOLATION = {
    "assertion_id": "V1", "expected": "x", "observed": "y", "paper_ref": "invented"
}

# (edit of the C6 record, the field verify must report)
FORGERIES = {
    "h_graph6": (lambda obj: obj["witnesses"][0].update(h_graph6="E???"), "witnesses"),
    "k_graph6": (lambda obj: obj["witnesses"][0].update(k_graph6="E???"), "witnesses"),
    "trivial": (lambda obj: obj["witnesses"][0].update(trivial=True), "witnesses"),
    "violations": (lambda obj: obj["violations"]["items"].append(FORGED_VIOLATION), "violations"),
    "component_iso_evidence": (
        lambda obj: obj.update(component_iso_evidence=not obj["component_iso_evidence"]),
        "component_iso_evidence",
    ),
    "n": (lambda obj: obj.update(n=5), "n"),
    # JSON catalogs may hold NaN and +-Infinity; ordered comparisons pass them.
    **{
        f"lambda_max={text}": (
            lambda obj, text=text: obj.update(lambda_max=json.loads(text)), "lambda_max"
        )
        for text in ("NaN", "Infinity", "-Infinity", "99.0", "1e300", "-1e300", "5e-324")
    },
}


@pytest.mark.parametrize("name", sorted(FORGERIES))
def test_verify_reports_forged_record(order6_records, name):
    edit, field_name = FORGERIES[name]
    c6 = next(r for r in order6_records if r.canonical_key == canonical_key(cycle(6)))
    report = verify_catalog([_forge(c6, edit)])
    assert report.integrity == [f"record 'EBj?': stored {field_name} mismatch"]
    assert report.total_violations == 1


# (edit of the C6 record, the field verify must report): each stores a
# value of the wrong type, or of the wrong class, where the schema does not
# look.
WRONG_TYPED = {
    "screen graph_key": (
        lambda obj, other: obj["screen"].update(graph_key=other["canonical_key"]), "screen"
    ),
    "factor pair h_graph6": (
        lambda obj, other: obj["factor_pairs"][0].update(h_graph6=5), "factor_pairs"
    ),
    "witness h_graph6": (lambda obj, other: obj["witnesses"][0].update(h_graph6=5), "witnesses"),
    "rule_id": (lambda obj, other: obj["screen"]["rules"][0].update(rule_id=1), "screen"),
}


@pytest.mark.parametrize("name", sorted(WRONG_TYPED))
def test_verify_reports_wrong_typed_field_of_a_forged_catalog(order6_records, tmp_path, name):
    edit, field_name = WRONG_TYPED[name]
    c6 = next(r for r in order6_records if r.canonical_key == canonical_key(cycle(6)))
    obj = c6.to_json()
    edit(obj, order6_records[0].to_json())
    path = tmp_path / "forged.jsonl"
    path.write_text(json.dumps(obj) + "\n")
    report = verify_catalog(read_catalog(path))
    assert report.integrity == [f"record 'EBj?': stored {field_name} mismatch"]
    assert report.total_violations == 1


def test_verify_reports_forged_order_without_witnesses(order6_records):
    rec = next(r for r in order6_records if not r.witnesses)
    report = verify_catalog([_forge(rec, lambda obj: obj.update(n=7))])
    assert report.integrity == [f"record {rec.graph6!r}: stored n mismatch"]


def test_verify_rejects_witness_of_another_graph(order6_records):
    c6 = next(r for r in order6_records if r.canonical_key == canonical_key(cycle(6)))
    other = next(r for r in order6_records if r.witnesses and r is not c6)

    def swap(obj):
        obj["witnesses"][0] = other.witnesses[0].to_json()

    report = verify_catalog([_forge(c6, swap)])
    assert report.assertions["W0"]["violations"] == 1
    assert report.integrity == [
        "record 'EBj?': witness 0 targets a different graph",
        "record 'EBj?': stored witnesses mismatch",
    ]


def test_verify_reports_duplicated_class(order6_records):
    # Any record order verifies clean, so catalogs of several orders may be
    # concatenated; a class listed twice does not.
    records = [rec.to_json() for rec in reversed(order6_records)]
    assert verify_catalog(records).total_violations == 0
    report = verify_catalog(records + [order6_records[40].to_json()])
    assert report.integrity == [
        f"record {order6_records[40].graph6!r}: class listed more than once"
    ]


def test_verify_reports_a_record_above_the_canonical_cap(order6_records):
    rec = order6_records[0]
    big = encode_graph6(cycle(9))
    report = verify_catalog([_forge(rec, lambda obj: obj.update(graph6=big)), rec.to_json()])
    assert report.records_checked == 2
    assert report.integrity == [
        f"record {big!r}: graph6 does not decode to a class: "
        "canonical forms are capped at order 8"
    ]


def test_verify_reports_a_flipped_verdict(order6_records):
    # A crafted record with a bad verdict shows up as integrity evidence.
    rec = order6_records[0]
    tampered = _forge(rec, lambda obj: obj.update(verdict="yes" if rec.verdict == "no" else "no"))
    report = verify_catalog([tampered])
    assert report.total_violations >= 1


def test_run_census_order_cap_respected():
    with pytest.raises(ParameterError):
        run_census(9)


def test_read_catalog_returns_each_record_as_its_json(order6_records, tmp_path):
    path = tmp_path / "n6.jsonl"
    write_catalog(order6_records, path)
    assert read_catalog(path) == [rec.to_json() for rec in order6_records]


# sha256 of write_catalog(run_census(n)); any change to a catalog byte is a
# change to the catalog format or to a verdict, witness or assertion.
CATALOG_SHA256 = {
    1: "6d6c94b76c82c7c1e2c53c2266edac0a9eb472ed1c1d8b7c95d3d19f1c2d7527",
    2: "3a348e31e602363f6dd4de5d7a34310647f37d707f02a6816bf543dc6b833db1",
    3: "b45962f565395ceb726c76ecd15c3bc1c8a3a3f2c8dbe0e06f9aaf4bd06247c7",
    4: "2f93a425889922e1605fa8ca52d33e5ec47ee1a75b3febb23c54f430113209e4",
    5: "16a5e620f3092b5a63191d83fe0b4b7671b85ccf58fc21355584030d88cff1a3",
    6: "72f654d4305624e816920db4e1da0e7d8095f680d1ba8c9389215be335b077bf",
}


def test_catalog_bytes_match_pinned_digests(order6_records, tmp_path):
    for n, digest in CATALOG_SHA256.items():
        path = tmp_path / f"n{n}.jsonl"
        write_catalog(order6_records if n == 6 else run_census(n), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, n


ORDER_8_CATALOG_SHA256 = "fab2db233e1be96c05205590bc6600f58601cf4d7c478f285b84bdf5f7f70e73"


def test_order_8_catalog_bytes_match_pinned_digest(tmp_path):
    # The classes are cached per process, so this shares its enumeration
    # with test_enumerate_order_8_keys_pinned; two workers describe them.
    path = tmp_path / "n8.jsonl"
    write_catalog(run_census(8, jobs=2), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == ORDER_8_CATALOG_SHA256


def test_verify_catalog_labels_each_record_graph_once(order6_records, monkeypatch):
    from graphfactor import census as census_mod
    from graphfactor import graphs as graphs_mod

    decoded = []
    labelled = Counter()
    kept = []  # keeps every labelled graph alive, so no id() is reused
    real_decode = census_mod.decode_graph6
    real_order = graphs_mod._canonical_order

    def decode(text):
        g = real_decode(text)
        decoded.append(g)
        return g

    def order(g):
        kept.append(g)
        labelled[id(g)] += 1
        return real_order(g)

    monkeypatch.setattr(census_mod, "decode_graph6", decode)
    monkeypatch.setattr(graphs_mod, "_canonical_order", order)
    assert verify_catalog([rec.to_json() for rec in order6_records]).total_violations == 0
    assert len(decoded) == len(order6_records)
    assert [labelled[id(g)] for g in decoded] == [1] * len(decoded)


IMMUTABLE_TYPES = (
    "Graph", "RuleResult", "ConditionReport", "Violation", "AssertionOutcome", "IntMatrix",
    "Factorization", "StoredWitness", "CensusRecord", "SearchConfig", "FactorDecision",
)


@pytest.mark.parametrize("name", IMMUTABLE_TYPES)
def test_value_types_refuse_field_assignment(order6_records, name):
    decision = is_factorizable(cycle(6), SearchConfig(mode="all"))
    f = decision.witness
    values = {
        "Graph": f.g,
        "RuleResult": decision.report.rules[0],
        "ConditionReport": decision.report,
        "Violation": Violation("V1", "expected", "observed", "ref"),
        "AssertionOutcome": check_assertions(f)[0],
        "IntMatrix": f.a,
        "Factorization": f,
        "StoredWitness": StoredWitness.from_json(f.to_json()),
        "CensusRecord": order6_records[0],
        "SearchConfig": SearchConfig(),
        "FactorDecision": decision,
    }
    value = values[name]
    assert type(value).__name__ == name
    for field in type(value)._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))


def test_graph_and_census_record_hash_compare_and_pickle_by_value(order6_records):
    g = cycle(6)
    key = canonical_key(g)  # memoised on g
    record = next(r for r in order6_records if r.witnesses and r.edge_count)
    for value, other in ((g, cycle(5)), (record, order6_records[0])):
        copy = pickle.loads(pickle.dumps(value))
        assert type(copy) is type(value)
        assert copy == value and hash(copy) == hash(value) and copy != other
        assert {value: "found"}[copy] == "found"
    assert Graph(g.order, g.rows) == g and hash(Graph(g.order, g.rows)) == hash(g)
    # A copy carries no memoised labelling, and labels to the same key.
    copy = pickle.loads(pickle.dumps(g))
    assert not vars(copy) and canonical_key(copy) == key


def test_unpickling_checks_every_graph_and_witness(monkeypatch, order6_records):
    # A pickle is input from outside the program: loading it runs each
    # graph's row check and each witness's product check.
    with pytest.raises(ParameterError, match=r"^adjacency not symmetric at \(0, 1\)$"):
        pickle.loads(pickle.dumps(Graph._make((2, (2, 0)))))
    classes = enumerate_graphs(6)
    witnesses = [f for rec in order6_records for f in rec.witnesses]
    data = pickle.dumps((classes, witnesses))
    # pickle stores each object once, however often it is referenced.
    graphs = {id(g): g for g in classes} | {id(g): g for f in witnesses for g in f}
    built = []
    for kind in (Graph, Factorization):
        def counted(cls, *fields, new=kind.__new__):
            built.append(cls)
            return new(cls, *fields)

        monkeypatch.setattr(kind, "__new__", counted)
    Graph(1, (0,))
    assert built == [Graph]  # the count sees a direct build
    built.clear()
    assert pickle.loads(data) == (classes, witnesses)
    assert built.count(Factorization) == len(witnesses) and witnesses
    assert built.count(Graph) == len(graphs)
