import hashlib
import random

import pytest

from graphfactor.census import enumerate_graphs
from graphfactor.conditions import screen, validate_factorization
from graphfactor.errors import (
    ParameterError,
    PreconditionError,
    UnsupportedSizeError,
)
from graphfactor.graphs import (
    Graph,
    canonical_form,
    canonical_key,
    complete,
    cycle,
    decode_graph6,
    disjoint_union,
    edgeless,
    graph_bits,
    is_connected,
    matching,
)
from graphfactor.factorization import IntMatrix, adjacency
from graphfactor.search import (
    PRUNE_RULES,
    SearchConfig,
    _degree_pairs,
    _Engine,
    _pair_tables,
    _root_rows,
    _v1_pairs,
    cycle_product,
    dedup_pairs,
    disconnected_counterexample,
    doubled_graph,
    factor_search,
    is_factorizable,
)
from graphfactor.spectral import lambda_max
from oracles import (
    AcyclicClass,
    _degree_range_ok,
    _pairs_in_ranges,
    all_labeled_graphs,
    bound_violations,
    classify_acyclic,
    commute,
    degree_pairs_reference,
    factor_naive,
    multiply,
    path,
    permute,
    search_reference,
)
from triples import MATCHING_6, SIX_CYCLE_PRODUCT, TRIANGLES_6


def witness_key(f):
    return (f.b.entries, f.c.entries)


def random_graph(rng: random.Random, n: int) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# naive oracle
# ---------------------------------------------------------------------------

def test_naive_edgeless_2():
    ws = factor_naive(edgeless(2))
    zero = ((0, 0), (0, 0))
    k2 = ((0, 1), (1, 0))
    assert [witness_key(f) for f in ws] == [(zero, zero), (zero, k2), (k2, zero)]
    assert [f.trivial for f in ws] == [True, True, True]


def test_naive_path3_empty():
    assert factor_naive(path(3)) == []


def test_naive_k2_empty():
    assert factor_naive(path(2)) == []


def test_naive_order_cap():
    with pytest.raises(UnsupportedSizeError):
        factor_naive(edgeless(6))


# ---------------------------------------------------------------------------
# pruned search
# ---------------------------------------------------------------------------

def test_search_c6_finds_triangles_matching_pair():
    ws, stats = factor_search(cycle(6), SearchConfig(mode="all"))
    assert ws and stats.exhausted
    pairs = dedup_pairs(ws)
    expected = tuple(
        sorted(
            (
                canonical_key(disjoint_union(complete(3), complete(3))),
                canonical_key(matching(3)),
            )
        )
    )
    assert expected in pairs


def test_search_matches_naive_on_all_labeled_graphs_up_to_4():
    for n in range(1, 5):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for mask in range(1 << len(pairs)):
            g = Graph.from_edges(
                n, [pairs[t] for t in range(len(pairs)) if mask >> t & 1]
            )
            naive = sorted(map(witness_key, factor_naive(g)))
            found, stats = factor_search(g, SearchConfig(mode="all"))
            assert stats.exhausted
            assert sorted(map(witness_key, found)) == naive


def test_search_trees_exhaust_empty():
    for n in range(2, 8):
        for g in enumerate_graphs(n):
            if classify_acyclic(g) != (AcyclicClass.TREE, 1):
                continue
            ws, stats = factor_search(g, SearchConfig(mode="all"))
            assert ws == [] and stats.exhausted


def test_search_mode_first_stops_early():
    ws, stats = factor_search(cycle(6), SearchConfig(mode="first"))
    assert len(ws) == 1
    assert not stats.exhausted


def test_search_node_limit_partial():
    ws, stats = factor_search(cycle(6), SearchConfig(mode="all", node_limit=10))
    assert not stats.exhausted
    assert stats.nodes_expanded <= 11


def test_search_order_cap():
    with pytest.raises(UnsupportedSizeError):
        factor_search(edgeless(8), SearchConfig(order_cap=7))
    ws, stats = factor_search(edgeless(8), SearchConfig(order_cap=8, node_limit=10))
    assert not stats.exhausted


def test_search_config_validation():
    with pytest.raises(ParameterError):
        SearchConfig(mode="some")
    with pytest.raises(ParameterError):
        SearchConfig(node_limit=0)
    # The search's bit tables stop at CANONICAL_ORDER_CAP vertices.
    for order_cap in (-1, 0, 9, 10):
        with pytest.raises(ParameterError):
            SearchConfig(order_cap=order_cap)


def test_pruning_safety_200_random_graphs(naive_witnesses):
    # Randomly labelled graphs of order <= 5: the pruned search keeps every
    # witness of the naive enumeration (both work on the canonical form).
    naive = {canonical_key(g): sorted(map(witness_key, ws)) for g, ws in naive_witnesses}
    rng = random.Random(1234)
    cfg = SearchConfig(mode="all")
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 5))
        found, stats = factor_search(g, cfg)
        assert stats.exhausted
        assert sorted(map(witness_key, found)) == naive[canonical_key(g)], g.rows


def test_every_witness_is_sound():
    rng = random.Random(99)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 6))
        found, _ = factor_search(g, SearchConfig(mode="all"))
        a = adjacency(canonical_form(g))
        for f in found:
            assert multiply(f.b, f.c) == a
            assert commute(f.b, f.c)
            assert commute(f.a, f.b) and commute(f.a, f.c)


def searched_classes(orders):
    """The classes of the given orders that is_factorizable searches."""
    out = []
    for n in orders:
        for g in enumerate_graphs(n):
            report = screen(g)
            if report.overall != "ruled_out" and not report.trivial:
                out.append(g)
    return out


def test_mirror_rule_keeps_witness_sets_and_first_witness():
    # BC = A = CB, so the all-mode list is closed under swapping the two
    # factors even though the search only visits one of each mirror pair,
    # and the first-mode witness is the first of the full list.
    all_cfg, first_cfg = SearchConfig(mode="all"), SearchConfig(mode="first")
    classes = searched_classes(range(1, 7))
    assert len(classes) == 94
    for g in classes:
        found, stats = factor_search(g, all_cfg)
        assert stats.exhausted and stats.witnesses_found == len(found)
        keys = [(f.h.rows, f.k.rows) for f in found]
        assert sorted(keys) == sorted((k, h) for h, k in keys), g.rows
        first, _ = factor_search(g, first_cfg)
        assert [(f.h.rows, f.k.rows) for f in first] == keys[:1], g.rows


def summed_counters(classes):
    """All-mode search counters summed over the classes: (nodes, P1, P2,
    P3 prunes), witnesses, and the classes with a witness."""
    cfg = SearchConfig(mode="all")
    nodes, witnesses, yes = 0, 0, 0
    prunes = dict.fromkeys(PRUNE_RULES, 0)
    for g in classes:
        found, stats = factor_search(g, cfg)
        nodes += stats.nodes_expanded
        witnesses += stats.witnesses_found
        yes += bool(found)
        for rule in PRUNE_RULES:
            prunes[rule] += stats.prunes_by_rule[rule]
    return (nodes, prunes["P1"], prunes["P2"], prunes["P3"]), witnesses, yes


# The pins below fix which rule every prune is attributed to, as well as
# the size of the tree; search_trace (further down) checks the same counters
# per graph against the whole-row reference.
def test_order_6_search_counters_are_pinned():
    counters, witnesses, _ = summed_counters(searched_classes([6]))
    assert counters == (2_211, 744, 137, 188)
    assert witnesses == 58


def test_order_7_search_counters_are_pinned():
    # 485 order-7 classes reach search, and 460 of them are refuted at the
    # root, one node and one P3 prune each.
    classes = searched_classes([7])
    assert len(classes) == 485
    counters, witnesses, _ = summed_counters(classes)
    assert counters == (9_597, 3_122, 606, 1_061)
    assert witnesses == 132


def test_order_8_search_counters_are_pinned():
    # 6,177 of the 12,346 order-8 classes reach search, and 5,942 of those
    # are refuted at the root.  The classes are cached per process, so this
    # shares its enumeration with test_enumerate_order_8_keys_pinned.
    classes = searched_classes([8])
    assert len(classes) == 6_177
    counters, witnesses, yes = summed_counters(classes)
    assert counters == (177_614, 64_735, 8_655, 17_149)
    assert (witnesses, yes) == (1_656, 80)


def test_first_witness_of_the_decision_is_pinned():
    # The witness `graphfactor factor` prints is the first one the search
    # finds, so a pruning change must leave it where it was, not only keep
    # the witness sets and verdicts.  The seeded graphs are defined below.
    graphs = [g for n in range(1, 8) for g in enumerate_graphs(n)] + seeded_order_8_graphs()
    digest = hashlib.sha256()
    for g in graphs:
        decision = is_factorizable(g, SearchConfig(mode="first"))
        f = decision.witness
        digest.update(f"{decision.verdict} {(f.h.rows, f.k.rows) if f else ()}\n".encode())
    assert digest.hexdigest() == (
        "e2b5f95fcc4e2cce985f72e71aad4a7c5ec25d3330a06bd926a7a56dc104ffbf"
    )


# ---------------------------------------------------------------------------
# the incremental consistency test against the whole-row reference engine
# ---------------------------------------------------------------------------

def search_trace(result):
    """Witness rows in order, nodes, prunes per rule and exhaustion."""
    found, stats = result
    return (
        [(f.h.rows, f.k.rows) for f in found],
        stats.nodes_expanded,
        dict(stats.prunes_by_rule),
        stats.exhausted,
        stats.witnesses_found,
    )


def assert_matches_reference(g, cfg):
    got = search_trace(factor_search(g, cfg))
    want = search_trace(search_reference(g, cfg))
    assert got == want, (g.order, g.rows, cfg)


def test_incremental_search_matches_reference_on_orders_1_and_2():
    for n in (1, 2):
        for g in all_labeled_graphs(n):
            for mode in ("all", "first"):
                assert_matches_reference(g, SearchConfig(mode=mode))


def test_incremental_search_matches_reference_on_orders_3_to_7():
    for g in searched_classes(range(3, 8)):
        for mode in ("all", "first"):
            assert_matches_reference(g, SearchConfig(mode=mode))


def seeded_order_8_graphs():
    """100 seeded G(8, p) graphs for each p of 0.3, 0.5 and 0.7."""
    rng = random.Random(2024)
    return [
        Graph.from_edges(
            8, [(i, j) for i in range(8) for j in range(i + 1, 8) if rng.random() < p]
        )
        for p in (0.3, 0.5, 0.7)
        for _ in range(100)
    ]


def test_incremental_search_matches_reference_on_random_order_8():
    for g in seeded_order_8_graphs():
        report = screen(g)
        if report.overall == "ruled_out" or report.trivial:
            # Unscreened sparse graphs can take the search very long.
            continue
        for mode in ("all", "first"):
            assert_matches_reference(g, SearchConfig(mode=mode))


def test_incremental_search_trips_the_node_limit_where_the_reference_does():
    # FF~~w is the order-7 class with the most search nodes (a "no"), and
    # F@Kxw the "yes" class with the most (36 witnesses).
    for g in (cycle(6), decode_graph6("FF~~w"), decode_graph6("F@Kxw")):
        for limit in (1, 5, 37, 500):
            for mode in ("all", "first"):
                assert_matches_reference(g, SearchConfig(mode=mode, node_limit=limit))


def test_search_finds_the_witnesses_of_the_unfiltered_reference():
    # The reference above starts from the same filtered root; without the
    # filter it checks that the filter loses no witness and none moves.
    for g in searched_classes(range(3, 8)):
        for mode in ("all", "first"):
            cfg = SearchConfig(mode=mode)
            got, _ = factor_search(g, cfg)
            want, _ = search_reference(g, cfg, root_filter=False)
            assert [(f.h.rows, f.k.rows) for f in got] == [
                (f.h.rows, f.k.rows) for f in want
            ], (g.rows, mode)


# ---------------------------------------------------------------------------
# the degree-pair root filter
# ---------------------------------------------------------------------------

def assert_filter_keeps_witnesses(g, witnesses):
    """g is the canonical form the witnesses factor.  If the filter refutes
    g there are none; otherwise each vertex keeps its (deg_H, deg_K) and
    every H and K edge lies in the root rows."""
    pairs = _degree_pairs(g)
    if pairs is None:
        assert witnesses == [], g.rows
        return
    possb, possc = _root_rows(pairs)
    for f in witnesses:
        assert f.g.rows == g.rows
        for i in range(g.order):
            assert (f.h.rows[i].bit_count(), f.k.rows[i].bit_count()) in pairs[i], (g.rows, i)
            assert not f.h.rows[i] & ~possb[i] and not f.k.rows[i] & ~possc[i], (g.rows, i)


def test_degree_pairs_match_the_reference():
    # The count drops run once per degree sequence; the pairs must be those
    # of the per-graph filter, the same lists in the same order.
    graphs = [g for n in range(1, 7) for g in all_labeled_graphs(n)]
    graphs += [g for n in (7, 8) for g in enumerate_graphs(n)]
    graphs += seeded_order_8_graphs()
    for g in graphs:
        assert _degree_pairs(g) == degree_pairs_reference(g), g.rows


def test_pair_predicate_is_the_degree_product_test_on_v1_pairs():
    # Given only the V1 pairs of d, P3 on the pairs decides as the plain
    # degree-product test, on either side's tables.
    for n in range(1, 9):
        for d, dom in enumerate(_v1_pairs(n)):
            tableb, tablec = _pair_tables([list(dom)])
            for lo in range(n):
                for hi in range(lo, n):
                    for olo in range(n):
                        for ohi in range(olo, n):
                            want = _degree_range_ok(lo, hi, olo, ohi, d)
                            assert bool(_pairs_in_ranges(tableb[0], lo, hi, olo, ohi)) == want
                            assert bool(_pairs_in_ranges(tablec[0], olo, ohi, lo, hi)) == want


def test_root_rows_pair_vertices_by_the_other_sides_degree():
    # By V2, H-neighbours share a K-degree and K-neighbours an H-degree.
    possb, possc = _root_rows([[(1, 2)], [(2, 2), (4, 1)], [(1, 1)], [(4, 1)]])
    assert possb == [0b0010, 0b1101, 0b1010, 0b0110]
    assert possc == [0b0100, 0b1000, 0b0001, 0b0010]


def test_degree_pairs_keep_every_naive_witness(naive_witnesses):
    for n in range(1, 5):
        for g in all_labeled_graphs(n):
            assert_filter_keeps_witnesses(canonical_form(g), factor_naive(g))
    for g, witnesses in naive_witnesses:
        if g.order == 5:
            assert_filter_keeps_witnesses(canonical_form(g), witnesses)


def test_degree_pairs_keep_every_witness_of_orders_6_and_7():
    refuted = 0
    for g in searched_classes([6, 7]):
        witnesses, stats = search_reference(g, SearchConfig(mode="all"), root_filter=False)
        assert stats.exhausted
        assert_filter_keeps_witnesses(canonical_form(g), witnesses)
        refuted += _degree_pairs(g) is None
    assert refuted == 64 + 460


def test_degree_pairs_do_not_depend_on_the_labelling():
    p = (3, 0, 4, 1, 5, 2, 6)
    for g in searched_classes([7]):
        pairs = _degree_pairs(g)
        moved = _degree_pairs(permute(g, p))
        if pairs is None:
            assert moved is None
        else:
            assert [sorted(moved[p[v]]) for v in range(7)] == [sorted(d) for d in pairs]


def test_masked_root_meets_every_bound():
    # So the engine's incremental test, which assumes every bound holds at
    # the parent, is exact from the root on.
    graphs = [canonical_form(g) for g in searched_classes(range(3, 8)) + seeded_order_8_graphs()]
    kept = 0
    for g in graphs:
        pairs = _degree_pairs(g)
        if pairs is None:
            continue
        kept += 1
        engine = _Engine(g, SearchConfig(), pairs)
        state = (g.rows, engine.comm1b, engine.possb, engine.comm1c, engine.possc)
        assert bound_violations(*state) == set(), g.rows
        # Each vertex keeps a root pair within its root degree ranges.
        tableb, _ = _pair_tables(pairs)
        for x in range(g.order):
            top_b, top_c = engine.possb[x].bit_count(), engine.possc[x].bit_count()
            assert _pairs_in_ranges(tableb[x], 0, top_b, 0, top_c), (g.rows, x)
    assert kept == 44 + 17  # of 579 classes and 300 random graphs


def test_refuted_graph_costs_one_node_and_is_never_labelled(monkeypatch):
    import graphfactor.graphs as graphs_mod

    graphs = [
        permute(decode_graph6("F^~~w"), (3, 0, 4, 1, 5, 2, 6)),
        # K4 + 3K1 and P5 + 2K1: order-7 "no" classes that pass screening
        # and the count and neighbour drops; only the grid drop refutes them.
        decode_graph6("F?CWw"),
        decode_graph6("F??XO"),
    ]
    for g in graphs:
        assert _degree_pairs(g) is None, g.rows
    monkeypatch.setattr(graphs_mod, "_canonical_order", lambda graph: pytest.fail("labelled"))
    for g in graphs:
        for mode in ("all", "first"):
            found, stats = factor_search(g, SearchConfig(mode=mode))
            assert found == [] and stats.exhausted
            assert stats.nodes_expanded == 1
            assert stats.prunes_by_rule == {"P1": 0, "P2": 0, "P3": 1}


def assert_grid(f):
    """Around every vertex i of a witness, N_H(i) and N_K(i) are disjoint
    and every vertex of one is adjacent in G to every vertex of the other."""
    h, k, a = f.h.rows, f.k.rows, f.g.rows
    for i in range(f.g.order):
        assert not h[i] & k[i], (a, i)
        for t in range(f.g.order):
            if h[i] >> t & 1:
                assert not k[i] & ~a[t], (a, i, t)


def test_every_witness_has_a_complete_bipartite_graph_around_each_vertex():
    for g in searched_classes(range(3, 8)):
        for f in search_reference(g, SearchConfig(mode="all"), root_filter=False)[0]:
            assert_grid(f)
    witnesses = 0
    for g in searched_classes([8]):
        found, _ = factor_search(g, SearchConfig(mode="all"))
        for f in found:
            assert_grid(f)
        witnesses += len(found)
    assert witnesses == 1_656


def test_decide_8_benchmark_batch_verdicts_are_pinned():
    # The decide-8 batch of the benchmark at its default seed: 2,000
    # G(8, 1/2) graphs, each a 28-bit mask over the vertex pairs in
    # lexicographic order, decided in first-witness mode.
    pairs = [(i, j) for i in range(8) for j in range(i + 1, 8)]
    rng = random.Random(42)
    verdicts = []
    for _ in range(2_000):
        mask = rng.getrandbits(len(pairs))
        g = Graph.from_edges(8, [e for t, e in enumerate(pairs) if mask >> t & 1])
        verdicts.append(is_factorizable(g, SearchConfig(mode="first")).verdict[0])
    assert hashlib.sha256("".join(verdicts).encode()).hexdigest() == (
        "2d9913d30e3a9ab4e499c9054ea4705bd973ad446f99855afac35d1d343b8c5f"
    )


# ---------------------------------------------------------------------------
# dedup and the decision wrapper
# ---------------------------------------------------------------------------

def test_dedup_pairs_edgeless_2():
    pairs = dedup_pairs(factor_naive(edgeless(2)))
    empty2 = canonical_key(edgeless(2))
    k2 = canonical_key(path(2))
    assert pairs == {(empty2, empty2), tuple(sorted((empty2, k2)))}


def test_dedup_pairs_empty():
    assert dedup_pairs([]) == set()


def test_is_factorizable_c6():
    decision = is_factorizable(cycle(6))
    assert decision.verdict == "yes"
    assert decision.witness is not None
    assert decision.stats is not None


def test_is_factorizable_k2_screened():
    decision = is_factorizable(path(2))
    assert decision.verdict == "no"
    assert decision.stats is None  # never searched
    assert decision.report.overall == "ruled_out"


def test_is_factorizable_single_vertex_trivial():
    decision = is_factorizable(edgeless(1))
    assert decision.verdict == "yes"
    assert decision.witness is not None and decision.witness.trivial


def test_is_factorizable_unknown_on_tiny_node_limit():
    decision = is_factorizable(cycle(6), SearchConfig(mode="first", node_limit=5))
    assert decision.verdict == "unknown"


def test_all_mode_node_limit_leaves_searched_classes_unknown():
    # A class the degree pairs refute at the root is "no" after one node;
    # the others run out of nodes.
    cfg = SearchConfig(mode="all", node_limit=1)
    searched = []
    for g in enumerate_graphs(6):
        decision = is_factorizable(g, cfg)
        if decision.report.overall != "ruled_out" and not decision.report.trivial:
            searched.append((g, decision))
    refuted = [_degree_pairs(g) is None for g, _ in searched]
    assert 0 < sum(refuted) < len(searched)
    for (g, decision), no in zip(searched, refuted):
        assert decision.verdict == ("no" if no else "unknown"), g
        assert not decision.witnesses, g


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def test_cycle_product_3_reproduces_worked_triple():
    f = cycle_product(3)
    assert f.a == IntMatrix(SIX_CYCLE_PRODUCT)
    assert {f.b, f.c} == {IntMatrix(TRIANGLES_6), IntMatrix(MATCHING_6)}
    assert validate_factorization(f) == ()


def test_cycle_product_general():
    for n in (3, 5, 7):
        f = cycle_product(n)
        assert is_connected(f.g)
        assert all(d == 2 for d in (row.bit_count() for row in f.g.rows))
        assert f.g.order == 2 * n
    with pytest.raises(ParameterError):
        cycle_product(2)
    with pytest.raises(ParameterError):
        cycle_product(4)  # the double cover of C4 is two 4-cycles


def test_doubled_graph_k3():
    f = doubled_graph(complete(3))
    m = adjacency(complete(3))
    for i in range(3):
        for j in range(3):
            assert f.a.entries[i][j] == m.entries[i][j]
            assert f.a.entries[3 + i][3 + j] == m.entries[i][j]
            assert f.a.entries[i][3 + j] == 0
    assert is_connected(f.h)
    assert canonical_key(f.k) == canonical_key(matching(3))
    assert validate_factorization(f) == ()
    assert abs(lambda_max(f.h) * lambda_max(f.k) - lambda_max(f.g)) <= 1e-9


def test_doubled_graph_rejects_bipartite_or_disconnected():
    with pytest.raises(PreconditionError):
        doubled_graph(cycle(4))
    with pytest.raises(PreconditionError):
        doubled_graph(disjoint_union(complete(3), complete(3)))


def test_disconnected_counterexample_3():
    f = disconnected_counterexample(3)
    assert lambda_max(f.g) == pytest.approx(2.0, abs=1e-9)
    product = lambda_max(f.h) * lambda_max(f.k)
    assert product == pytest.approx(4.0, abs=1e-9)
    assert validate_factorization(f) == ()
    with pytest.raises(ParameterError):
        disconnected_counterexample(2)


def test_construct_dispatch():
    # The CLI's --kind cycle, double and counterexample call these.
    assert cycle_product(3).a == IntMatrix(SIX_CYCLE_PRODUCT)
    assert doubled_graph(complete(3)).g.order == 6
    assert disconnected_counterexample(3).g.order == 12


def test_is_factorizable_labels_the_graph_once(monkeypatch):
    import graphfactor.graphs as graphs_mod

    g = permute(cycle(6), (3, 0, 4, 1, 5, 2))
    assert graph_bits(g) != canonical_key(cycle(6))  # g is not canonical
    real = graphs_mod._canonical_order
    calls = []

    def counted(graph):
        calls.append(graph)
        return real(graph)

    monkeypatch.setattr(graphs_mod, "_canonical_order", counted)
    decision = is_factorizable(g, SearchConfig(mode="all"))
    assert decision.verdict == "yes" and decision.stats is not None
    assert len(calls) == 1 and calls[0] is g
