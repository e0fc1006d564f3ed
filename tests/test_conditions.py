import random

import pytest

from graphfactor.census import enumerate_graphs
from graphfactor.conditions import (
    ASSERTION_IDS,
    ConditionReport,
    ViolationList,
    check_assertions,
    evaluate_rule,
    exploratory_observations,
    screen,
    validate_factorization,
)
from graphfactor.errors import ParameterError, PreconditionError
from graphfactor.exact import IntMatrix
from graphfactor.factorization import Factorization
from graphfactor.graphs import (
    complete,
    cycle,
    degree_sequence,
    edgeless,
    path,
    star,
    tree_from_pruefer,
)
from graphfactor.search import SearchConfig, factor_naive, factor_search
from triples import (
    C4_PLUS_EDGES_8,
    EDGES_PLUS_C4_8,
    MATCHING_6,
    SIX_CYCLE_PRODUCT,
    TRIANGLES_6,
    TWO_C4_PRODUCT,
)


def six_cycle_factorization() -> Factorization:
    return Factorization.from_matrices(
        IntMatrix(SIX_CYCLE_PRODUCT), IntMatrix(TRIANGLES_6), IntMatrix(MATCHING_6)
    )


def two_c4_factorization() -> Factorization:
    return Factorization.from_matrices(
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


def test_evaluate_rule_examples():
    assert evaluate_rule("R1", complete(3)).status == "ruled_out"
    assert evaluate_rule("R3", cycle(6)).status == "pass"
    assert evaluate_rule("R2", star(5)).status == "ruled_out"
    with pytest.raises(ParameterError):
        evaluate_rule("R9", cycle(6))


def test_every_rule_appears_once():
    report = screen(cycle(6))
    assert [r.rule_id for r in report.rules] == ["R1", "R2", "R3", "R4"]


def test_screen_soundness_small_orders():
    # No ruled-out class may admit a factorization; decided by the naive
    # oracle through order 5 and by exhaustive search at order 6.
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            if screen(g).overall != "ruled_out":
                continue
            assert factor_naive(g) == []
    for g in enumerate_graphs(6):
        if screen(g).overall != "ruled_out":
            continue
        witnesses, stats = factor_search(g, SearchConfig(mode="all"))
        assert stats.exhausted and witnesses == []


def test_condition_report_json_roundtrip():
    report = screen(cycle(6))
    assert ConditionReport.from_json(report.to_json()) == report


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
        Factorization.from_matrices(
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


def test_degree_product_sums_to_twice_edges():
    # Summing the degree product identity over vertices reproduces
    # 2|E(G)| = sum deg_H(v) deg_K(v) exactly.
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            for f in factor_naive(g):
                dh = degree_sequence(f.h)
                dk = degree_sequence(f.k)
                assert 2 * f.g.edge_count == sum(x * y for x, y in zip(dh, dk))


def test_all_small_witnesses_validate_clean():
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            for f in factor_naive(g):
                assert validate_factorization(f).empty, (n, f.to_json())


def test_assertion_registry_complete():
    outcomes = check_assertions(six_cycle_factorization())
    assert tuple(o.assertion_id for o in outcomes) == ASSERTION_IDS


def test_violation_list_json_roundtrip():
    violations = validate_factorization(six_cycle_factorization())
    assert ViolationList.from_json(violations.to_json()) == violations


def test_exploratory_observations_on_six_cycle():
    obs = exploratory_observations(six_cycle_factorization())
    assert obs.stronger_edge_bound_applied and obs.stronger_edge_bound_holds
    assert obs.unguarded_product_bound_applied and obs.unguarded_product_bound_holds
    assert not obs.component_iso_applied


def test_exploratory_component_isomorphism_fires_on_doubled_graph():
    from graphfactor.search import doubled_graph

    obs = exploratory_observations(doubled_graph(complete(3)))
    assert obs.component_iso_applied
    assert obs.component_iso is True
