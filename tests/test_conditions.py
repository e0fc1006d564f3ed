import dataclasses
import importlib.util
import pickle
import random
from pathlib import Path

import pytest

from graphfactor import graphs
from graphfactor.census import enumerate_graphs
from graphfactor.conditions import (
    ASSERTION_IDS,
    ASSERTION_REFS,
    RULE_IDS,
    ConditionReport,
    Violation,
    ViolationList,
    _rule_results,
    check_assertions,
    exploratory_observations,
    screen,
    validate_factorization,
)
from graphfactor.errors import PreconditionError
from graphfactor.factorization import Factorization, IntMatrix
from graphfactor.graphs import (
    Graph,
    canonical_key,
    complete,
    cycle,
    degree_sequence,
    disjoint_union,
    edgeless,
    matching,
)
from graphfactor.search import SearchConfig, factor_search, is_factorizable
from oracles import factorization_from_matrices, path, screen_reference, star, tree_from_pruefer
from triples import (
    C4_PLUS_EDGES_8,
    EDGES_PLUS_C4_8,
    MATCHING_6,
    SIX_CYCLE_PRODUCT,
    TRIANGLES_6,
    TWO_C4_PRODUCT,
)


def six_cycle_factorization() -> Factorization:
    return factorization_from_matrices(
        IntMatrix(SIX_CYCLE_PRODUCT), IntMatrix(TRIANGLES_6), IntMatrix(MATCHING_6)
    )


def two_c4_factorization() -> Factorization:
    return factorization_from_matrices(
        IntMatrix(TWO_C4_PRODUCT), IntMatrix(C4_PLUS_EDGES_8), IntMatrix(EDGES_PLUS_C4_8)
    )


# ---------------------------------------------------------------------------
# screening
# ---------------------------------------------------------------------------

def test_screen_k2_ruled_out_by_edge_parity():
    report = screen(path(2))
    assert report.overall == "ruled_out"
    statuses = {r.rule_id: r.status for r in report.rules}
    assert statuses["R1"] == "ruled_out"


def test_screen_trees_on_7_vertices():
    rng = random.Random(1)
    for _ in range(10):
        seq = tuple(rng.randrange(7) for _ in range(5))
        report = screen(tree_from_pruefer(seq))
        statuses = {r.rule_id: r.status for r in report.rules}
        assert statuses["R3"] == "ruled_out"
        assert statuses["R2"] == "ruled_out"  # odd order, no C4, no isolated vertex
        assert report.overall == "ruled_out"


def test_screen_c6_inconclusive():
    report = screen(cycle(6))
    assert report.overall == "inconclusive"
    assert not report.trivial
    assert all(r.status == "pass" for r in report.rules)


def test_screen_edgeless_trivial():
    report = screen(edgeless(4))
    assert report.overall == "inconclusive"
    assert report.trivial


def test_every_rule_appears_once():
    report = screen(cycle(6))
    assert [r.rule_id for r in report.rules] == ["R1", "R2", "R3", "R4"]


def test_screen_soundness_small_orders(naive_witnesses):
    # No ruled-out class may admit a factorization; decided by the naive
    # oracle through order 5 and by exhaustive search at order 6.
    for g, witnesses in naive_witnesses:
        if screen(g).overall != "ruled_out":
            continue
        assert witnesses == []
    for g in enumerate_graphs(6):
        if screen(g).overall != "ruled_out":
            continue
        witnesses, stats = factor_search(g, SearchConfig(mode="all"))
        assert stats.exhausted and witnesses == []


def test_condition_report_json_roundtrip():
    report = screen(cycle(6))
    assert ConditionReport.from_json(report.to_json()) == report


def test_deciding_a_ruled_out_graph_labels_nothing(monkeypatch):
    labelled = []
    original = graphs._canonical_order

    def counted(g):
        labelled.append(g)
        return original(g)

    monkeypatch.setattr(graphs, "_canonical_order", counted)
    g = path(4)  # three edges: R1 rules it out
    decision = is_factorizable(g)
    assert decision.verdict == "no"
    assert decision.report.overall == "ruled_out"
    assert labelled == []
    # Read later, the key is the one an eager screen stored.
    assert decision.report.graph_key == canonical_key(Graph(g.order, g.rows))


def test_condition_report_key_is_lazy_but_compares_as_stored():
    g = cycle(5)
    eager = ConditionReport(canonical_key(Graph(g.order, g.rows)), screen(g).rules, False)
    assert screen(Graph(g.order, g.rows)) == eager
    assert hash(screen(Graph(g.order, g.rows))) == hash(eager)
    assert pickle.loads(pickle.dumps(screen(Graph(g.order, g.rows)))) == eager
    # A pickled report carries the key string, not the graph.
    assert pickle.loads(pickle.dumps(screen(g))).key_source == eager.graph_key
    lazy = screen(Graph(g.order, g.rows))
    assert ConditionReport.from_json(lazy.to_json()) == lazy
    assert lazy.to_json() == eager.to_json()
    with pytest.raises(dataclasses.FrozenInstanceError):
        lazy.rules = ()


def assert_screens_like_reference(graphs):
    for g in graphs:
        got, want = screen(g), screen_reference(g)
        assert (got.rules, got.trivial, got.overall) == (
            want.rules, want.trivial, want.overall
        ), (g.order, g.rows)


def test_screen_matches_reference_on_every_class_to_order_7():
    assert_screens_like_reference(g for n in range(1, 8) for g in enumerate_graphs(n))


def decide_batch() -> list[Graph]:
    """The benchmark's decide-8 batch at its default seed: G(8, 1/2) graphs
    from bench/run.py's decide_inputs, one bit per vertex pair in
    lexicographic order."""
    bench_run = Path(__file__).resolve().parents[1] / "bench" / "run.py"
    spec = importlib.util.spec_from_file_location("bench_run", bench_run)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    pairs = [(i, j) for i in range(8) for j in range(i + 1, 8)]
    return [
        Graph.from_edges(8, [p for t, p in enumerate(pairs) if mask >> t & 1])
        for mask in run.decide_inputs(run.DEFAULT_SEED)
    ]


def test_screen_matches_reference_on_the_decide_batch():
    batch = decide_batch()
    assert len(batch) == 2_000
    assert_screens_like_reference(batch)
    assert sum(screen(g).overall == "ruled_out" for g in batch) == 990


def test_screen_matches_reference_above_the_canonical_cap():
    rng = random.Random(13)
    graphs = [
        Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
        for n in range(9, 13)
        for p in (0.1, 0.2, 0.3, 0.5, 0.8)
        for _ in range(10)
    ]
    assert_screens_like_reference(graphs)
    assert all(screen(g).graph_key is None for g in graphs)


def test_screen_matches_reference_on_sparse_graphs():
    graphs = [
        *(edgeless(n) for n in range(1, 13)),
        *(path(n) for n in range(1, 13)),
        *(star(n) for n in range(1, 13)),
        *(matching(k) for k in range(1, 6)),
        *(disjoint_union(path(k), edgeless(m)) for k in range(2, 7) for m in range(1, 4)),
        *(disjoint_union(star(k), path(2), edgeless(m)) for k in range(3, 6) for m in (1, 2)),
        *(disjoint_union(path(k), path(3)) for k in range(2, 7)),
        disjoint_union(path(2), path(3), path(4)),
        disjoint_union(cycle(3), path(2), edgeless(1)),
    ]
    assert_screens_like_reference(graphs)


def screening_totals(n: int) -> tuple[dict[str, int], int]:
    """Classes of order n each rule rules out, and those some rule does."""
    ruled_out = dict.fromkeys(RULE_IDS, 0)
    classes = 0
    for g in enumerate_graphs(n):
        report = screen(g)
        classes += report.overall == "ruled_out"
        for rule in report.rules:
            ruled_out[rule.rule_id] += rule.status == "ruled_out"
    return ruled_out, classes


def test_screening_totals_are_pinned():
    assert screening_totals(7) == ({"R1": 522, "R2": 73, "R3": 11, "R4": 12}, 558)
    # The order-8 classes are cached per process, shared with the pinned
    # order-8 key and search counter tests.
    assert screening_totals(8) == ({"R1": 6_168, "R2": 0, "R3": 23, "R4": 26}, 6_168)


def _ruled_out_by(rules) -> set[str]:
    return {rule.rule_id for rule in rules if rule.status == "ruled_out"}


def test_r3_and_r4_never_rule_a_graph_out_alone():
    # A forest with c components and no isolated vertex has n - c edges; R3
    # fires for c = 1 and R4 for odd c.  For even n the edge count is then
    # odd (R1), and for odd n the forest has no 4-cycle (R2).
    fired = 0
    for n in range(1, 63):
        for c in range(1, n // 2 + 1):
            ruled_out = _ruled_out_by(_rule_results(n, n - c, False, False, c))
            if ruled_out & {"R3", "R4"}:
                fired += 1
                assert ruled_out & {"R1", "R2"}, (n, c)
    assert fired == sum((n // 2 + 1) // 2 for n in range(1, 63))
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            ruled_out = _ruled_out_by(screen(g).rules)
            assert not ruled_out & {"R3", "R4"} or ruled_out & {"R1", "R2"}, g


# ---------------------------------------------------------------------------
# factorization validation
# ---------------------------------------------------------------------------

def test_six_cycle_triple_validates_clean():
    violations = validate_factorization(six_cycle_factorization())
    assert violations.empty


def test_two_c4_triple_validates_clean():
    violations = validate_factorization(two_c4_factorization())
    assert violations.empty


def test_mutated_witness_fails_product_precondition():
    mutated = [list(row) for row in MATCHING_6]
    mutated[0][1] = 1
    mutated[1][0] = 1
    with pytest.raises(PreconditionError):
        factorization_from_matrices(
            IntMatrix(SIX_CYCLE_PRODUCT),
            IntMatrix(TRIANGLES_6),
            IntMatrix(tuple(tuple(row) for row in mutated)),
        )


def test_six_cycle_assertions_fire_as_expected():
    outcomes = {o.assertion_id: o for o in check_assertions(six_cycle_factorization())}
    fired = {aid for aid, o in outcomes.items() if o.applied}
    assert {"V1", "V2", "V3", "V5", "V6", "V7", "V8", "V13", "S1"} <= fired
    assert "V4" not in fired  # factors are disconnected
    assert "V9" not in fired
    assert all(o.violation is None for o in outcomes.values())


def test_two_c4_assertions_vacuous_connectivity():
    outcomes = {o.assertion_id: o for o in check_assertions(two_c4_factorization())}
    for aid in ("V9", "V10", "V11", "V12", "V13"):
        assert not outcomes[aid].applied
    assert outcomes["V7"].applied  # 2C4 is bipartite
    assert all(o.violation is None for o in outcomes.values())


def test_degree_product_sums_to_twice_edges(naive_witnesses):
    # Summing the degree product identity over vertices reproduces
    # 2|E(G)| = sum deg_H(v) deg_K(v) exactly.
    for _, witnesses in naive_witnesses:
        for f in witnesses:
            dh = degree_sequence(f.h)
            dk = degree_sequence(f.k)
            assert 2 * f.g.edge_count == sum(x * y for x, y in zip(dh, dk))


def test_all_small_witnesses_validate_clean(naive_witnesses):
    for g, witnesses in naive_witnesses:
        for f in witnesses:
            assert validate_factorization(f).empty, (g.order, f.to_json())


def test_assertion_registry_complete():
    outcomes = check_assertions(six_cycle_factorization())
    assert tuple(o.assertion_id for o in outcomes) == ASSERTION_IDS


def test_violation_list_json_roundtrip():
    violations = validate_factorization(six_cycle_factorization())
    assert ViolationList.from_json(violations.to_json()) == violations


def _k5_factorization() -> Factorization:
    """K5 as the product of a 5-cycle and the pentagram: odd order, both
    factors connected."""
    return Factorization(
        graphs.decode_graph6("D~{"), graphs.decode_graph6("DLo"), graphs.decode_graph6("DqK")
    )


def _doubled_triangle() -> Factorization:
    from graphfactor.search import doubled_graph

    return doubled_graph(complete(3))


# Each case makes the predicates that conditions imports lie about one
# witness's graphs (named "g", "h" and "k"), which drives the checks into
# violations no honest witness produces; the violations of the case are
# pinned in order.  "spectral.lambda_max" lies inside the spectral module,
# through which V13 reads it.
_FORCED_VIOLATIONS = {
    "V1": (six_cycle_factorization, {"degree_sequence": {"g": (3, 2, 2, 2, 2, 2)}}, [
        ("V1", "deg_G(0) = deg_H(0)*deg_K(0)", "3 != 2*1"),
    ]),
    "V2-h-components": (six_cycle_factorization, {
        "degree_sequence": {"k": (2, 0, 1, 1, 1, 1), "g": (4, 0, 2, 2, 2, 2)},
    }, [
        ("V2", "constant deg_K on each H-component",
         "component (0, 1, 2) has deg_K values [0, 1, 2]"),
    ]),
    "V2-k-components": (six_cycle_factorization, {
        "degree_sequence": {"h": (3, 2, 2, 1, 2, 2), "g": (3, 2, 2, 1, 2, 2)},
    }, [
        ("V2", "constant deg_H on each K-component", "component (0, 3) has deg_H values [1, 3]"),
    ]),
    "V3": (six_cycle_factorization, {"degree_sequence": {"k": (0,) * 6}}, [
        ("V1", "deg_G(0) = deg_H(0)*deg_K(0)", "2 != 2*0"),
        ("V3", "0 <= |E(G)| <= 0", "|E(G)| = 6"),
    ]),
    "V4": (six_cycle_factorization, {
        "is_connected": {"h": True, "k": True}, "degree_sequence": {"g": (4,) * 6},
    }, [
        ("V1", "deg_G(0) = deg_H(0)*deg_K(0)", "4 != 2*1"),
        ("V3", "3 <= |E(G)| <= 6", "|E(G)| = 12"),
        ("V4", "2|E(G)| <= 18", "2|E(G)| = 24"),
        ("V7", "at most one connected factor", "both H and K connected"),
    ]),
    "V5": (six_cycle_factorization, {"is_regular": {"h": False}}, [
        ("V5", "H and K regular", "H degrees [2], K degrees [1]"),
    ]),
    "V6": (six_cycle_factorization, {"is_regular": {"g": False}}, [
        ("V6", "G regular", "G degrees [2]"),
    ]),
    "V7": (six_cycle_factorization, {"is_connected": {"h": True, "k": True}}, [
        ("V7", "at most one connected factor", "both H and K connected"),
    ]),
    "V8": (six_cycle_factorization, {
        "bipartition_of": {"g": 0b001011},
    }, [
        ("V8", "one factor only across G's parts, the other with no cross edges",
         "neither role assignment fits G's bipartition"),
    ]),
    "V9": (six_cycle_factorization, {"is_connected": {"g": False, "h": True}}, [
        ("V9", "G connected", "G has 1 components"),
        ("V12", "H and K both bipartite", "H bipartite: False, K bipartite: True"),
    ]),
    "V10-cofactor-not-bipartite": (_doubled_triangle, {"bipartition_of": {"k": None}}, [
        ("V10", "regular bipartite cofactor, even order, two non-bipartite components",
         "cofactor not bipartite"),
        ("V12", "H and K both bipartite", "H bipartite: True, K bipartite: False"),
    ]),
    "V10-bipartite-components": (two_c4_factorization, {"is_connected": {"h": True}}, [
        ("V10", "regular bipartite cofactor, even order, two non-bipartite components",
         "cofactor not regular; component (0, 1, 2, 3) bipartite;"
         " component (4, 5, 6, 7) bipartite"),
        ("S1", "componentwise radius equals parent's, no isolated vertices",
         "lambda product 2.0 vs 2.0*2.0; H component (4, 7) radius 1.0 != 2.0;"
         " H component (5, 6) radius 1.0 != 2.0; K component (0, 3) radius 1.0 != 2.0;"
         " K component (1, 2) radius 1.0 != 2.0"),
    ]),
    "V10-odd-order": (_k5_factorization, {
        "is_connected": {"g": False},
        "bipartition_of": {"h": 0b00111},
    }, [
        ("V9", "G connected", "G has 1 components"),
        ("V10", "regular bipartite cofactor, even order, two non-bipartite components",
         "cofactor not bipartite; order 5 odd; G has 1 components"),
        ("V11", "G connected", "G has 1 components"),
        ("V12", "H and K both bipartite", "H bipartite: True, K bipartite: False"),
    ]),
    "V11": (_k5_factorization, {"is_connected": {"g": False}}, [
        ("V9", "G connected", "G has 1 components"),
        ("V11", "G connected", "G has 1 components"),
        ("V12", "H and K both bipartite", "H bipartite: False, K bipartite: False"),
    ]),
    "V12": (_doubled_triangle, {"bipartition_of": {"h": None}}, [
        ("V9", "G connected", "G has 2 components"),
        ("V12", "H and K both bipartite", "H bipartite: False, K bipartite: True"),
    ]),
    "V13": (six_cycle_factorization, {"spectral.lambda_max": {"g": 3.0}}, [
        ("V13", "lambda_max(G) = lambda_max(H) * lambda_max(K)", "3.0 vs 2.0"),
    ]),
    "S1-product": (six_cycle_factorization, {"lambda_max": {"g": 3.0}}, [
        ("S1", "componentwise radius equals parent's, no isolated vertices",
         "lambda product 3.0 vs 2.0*1.0"),
    ]),
    "S1-components": (six_cycle_factorization, {"lambda_max": {"h": 3.0}}, [
        ("S1", "componentwise radius equals parent's, no isolated vertices",
         "lambda product 2.0 vs 3.0*1.0; H component (0, 1, 2) radius 2.0 != 3.0;"
         " H component (3, 4, 5) radius 2.0 != 3.0"),
    ]),
    "S1-isolated": (six_cycle_factorization, {"has_isolated_vertex": {"k": True}}, [
        ("S1", "componentwise radius equals parent's, no isolated vertices",
         "K has an isolated vertex"),
    ]),
}


@pytest.mark.parametrize("case", list(_FORCED_VIOLATIONS))
def test_forced_violation_texts(monkeypatch, case):
    from graphfactor import conditions, spectral

    make, lies, expected = _FORCED_VIOLATIONS[case]
    f = make()
    graph_of = {"g": f.g, "h": f.h, "k": f.k}
    for name, answers in lies.items():
        module = spectral if name.startswith("spectral.") else conditions
        attr = name.rpartition(".")[2]
        truth = getattr(module, attr)

        def lying(x, truth=truth, answers=answers):
            for role, answer in answers.items():
                if x == graph_of[role]:
                    return answer
            return truth(x)

        monkeypatch.setattr(module, attr, lying)
    # The one-slot context memo must not serve, or keep, a context built
    # from other answers.
    conditions._context.cache_clear()
    try:
        found = validate_factorization(f).items
    finally:
        conditions._context.cache_clear()
    assert found == tuple(
        Violation(aid, exp, obs, ASSERTION_REFS[aid]) for aid, exp, obs in expected
    )
    assert case.partition("-")[0] in {v.assertion_id for v in found}


def test_exploratory_observations_on_six_cycle():
    assert exploratory_observations(six_cycle_factorization()) == {
        "stronger_edge_bound": {"instances": 1, "failures": 0},
        "unguarded_product_bound": {"instances": 1, "failures": 0},
        "component_isomorphism": {"instances": 0, "isomorphic": 0, "non_isomorphic": 0},
    }


def test_exploratory_component_isomorphism_fires_on_doubled_graph():
    from graphfactor.search import doubled_graph

    obs = exploratory_observations(doubled_graph(complete(3)))
    assert obs["component_isomorphism"] == {"instances": 1, "isomorphic": 1, "non_isomorphic": 0}
