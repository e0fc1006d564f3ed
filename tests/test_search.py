import random

import pytest

from graphfactor.census import enumerate_graphs
from graphfactor.conditions import screen, validate_factorization
from graphfactor.errors import (
    ParameterError,
    PreconditionError,
    UnsupportedSizeError,
)
from graphfactor.exact import IntMatrix, adjacency, commute, multiply
from graphfactor.graphs import (
    AcyclicClass,
    Graph,
    canonical_key,
    classify_acyclic,
    complete,
    cycle,
    disjoint_union,
    edgeless,
    graph_bits,
    is_connected,
    matching,
    path,
    permute,
    Permutation,
)
from graphfactor.search import (
    PRUNE_RULES,
    SearchConfig,
    construct,
    cycle_product,
    dedup_pairs,
    disconnected_counterexample,
    doubled_graph,
    factor_naive,
    factor_search,
    fix_labeling,
    is_factorizable,
)
from graphfactor.spectral import lambda_max
from triples import MATCHING_6, SIX_CYCLE_PRODUCT, TRIANGLES_6


def witness_key(f):
    return (f.b.entries, f.c.entries)


def random_graph(rng: random.Random, n: int) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# fixed labeling
# ---------------------------------------------------------------------------

def test_fix_labeling_is_relabeling_invariant():
    g = cycle(6)
    p = Permutation((3, 0, 4, 1, 5, 2))
    assert fix_labeling(g) == fix_labeling(permute(g, p))


def test_fix_labeling_k3():
    assert fix_labeling(complete(3)) == adjacency(complete(3))


def test_fix_labeling_matches_six_cycle_product_graph():
    from graphfactor.exact import as_adjacency

    g = as_adjacency(IntMatrix(SIX_CYCLE_PRODUCT))
    assert fix_labeling(g) == fix_labeling(cycle(6))


def test_fix_labeling_order_cap():
    with pytest.raises(UnsupportedSizeError):
        fix_labeling(edgeless(9))


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


def test_search_rejects_unknown_rule():
    with pytest.raises(ParameterError):
        factor_search(cycle(6), disable_rules=frozenset({"P9"}))


def test_search_config_validation():
    with pytest.raises(ParameterError):
        SearchConfig(mode="some")
    with pytest.raises(ParameterError):
        SearchConfig(node_limit=0)


def test_pruning_safety_200_random_graphs():
    rng = random.Random(1234)
    cases = [random_graph(rng, rng.randint(1, 5)) for _ in range(200)]
    cfg = SearchConfig(mode="all")
    for g in cases:
        baseline, base_stats = factor_search(g, cfg)
        base_keys = sorted(map(witness_key, baseline))
        assert base_stats.exhausted
        for rule in PRUNE_RULES:
            found, stats = factor_search(g, cfg, disable_rules=frozenset({rule}))
            assert stats.exhausted
            assert sorted(map(witness_key, found)) == base_keys, (rule, g.rows)


def test_every_witness_is_sound():
    rng = random.Random(99)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 6))
        found, _ = factor_search(g, SearchConfig(mode="all"))
        a = fix_labeling(g)
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


# Search counters summed over the order-6 classes that reach search, in all
# mode.  Each disabled rule moves its prunes to the others, so the rows pin
# which rule every prune is attributed to.
ORDER_6_COUNTERS = {
    frozenset(): (7_978, 2_849, 506, 562),
    frozenset({"P1"}): (1_375_912, 0, 121_466, 536_877),
    frozenset({"P2"}): (14_660, 6_260, 0, 998),
    frozenset({"P3"}): (17_448, 7_081, 1_517, 0),
}


@pytest.mark.parametrize(
    "disabled", list(ORDER_6_COUNTERS), ids=lambda d: "+".join(sorted(d)) or "none"
)
def test_order_6_search_counters_are_pinned(disabled):
    cfg = SearchConfig(mode="all")
    nodes, witnesses = 0, 0
    prunes = dict.fromkeys(PRUNE_RULES, 0)
    for g in searched_classes([6]):
        _, stats = factor_search(g, cfg, disable_rules=disabled)
        nodes += stats.nodes_expanded
        witnesses += stats.witnesses_found
        for rule in PRUNE_RULES:
            prunes[rule] += stats.prunes_by_rule[rule]
    assert (nodes, prunes["P1"], prunes["P2"], prunes["P3"]) == ORDER_6_COUNTERS[disabled]
    assert witnesses == 58


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


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def test_cycle_product_3_reproduces_worked_triple():
    f = cycle_product(3)
    assert f.a == IntMatrix(SIX_CYCLE_PRODUCT)
    assert {f.b, f.c} == {IntMatrix(TRIANGLES_6), IntMatrix(MATCHING_6)}
    assert validate_factorization(f).empty


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
    assert validate_factorization(f).empty
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
    assert validate_factorization(f).empty
    with pytest.raises(ParameterError):
        disconnected_counterexample(2)


def test_construct_dispatch():
    assert construct("cycle_product", n=3).a == IntMatrix(SIX_CYCLE_PRODUCT)
    assert construct("doubled_graph", graph=complete(3)).g.order == 6
    assert construct("disconnected_counterexample", n=3).g.order == 12
    with pytest.raises(ParameterError):
        construct("unknown", n=3)
    with pytest.raises(ParameterError):
        construct("cycle_product")


def test_is_factorizable_labels_the_graph_once(monkeypatch):
    import graphfactor.graphs as graphs_mod

    g = permute(cycle(6), Permutation((3, 0, 4, 1, 5, 2)))
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
