import pickle
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphfactor.census import enumerate_graphs
from graphfactor.errors import Graph6Error, ParameterError, UnsupportedSizeError
from graphfactor.graphs import (
    Graph,
    _canonical_order,
    automorphism_generators,
    bipartition_of,
    canonical_form,
    canonical_key,
    complete,
    components,
    contains_c4,
    cycle,
    decode_edge_list,
    decode_graph6,
    degree_sequence,
    disjoint_union,
    edgeless,
    encode_graph6,
    graph_bits,
    graph6_from_key,
    graph_from_key,
    induced_subgraph,
    matching,
)
from oracles import (
    AcyclicClass,
    all_labeled_graphs,
    brute_class_reps,
    classify_acyclic,
    complete_bipartite,
    edges,
    encode_edge_list,
    g6_encode,
    lexmin_order_reference,
    path,
    permute,
    star,
    tree_from_pruefer,
)


def random_graph(rng: random.Random, n: int) -> Graph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5
    ]
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# representation invariants
# ---------------------------------------------------------------------------

def test_graph_rejects_asymmetry():
    with pytest.raises(ParameterError):
        Graph(2, (0b10, 0b00))


def test_graph_rejects_loops():
    with pytest.raises(ParameterError):
        Graph(2, (0b01, 0b10))


@pytest.mark.parametrize("order, rows, message", [
    (3, (0b0010, 0b1001, 0b0000), "row 1 has bits outside 0..2"),
    # Bits outside the order and loops are reported before any asymmetry.
    (3, (0b100, 0b000, 0b1001), "row 2 has bits outside 0..2"),
    (3, (0b110, 0b011, 0b001), "loop at vertex 1"),
    (4, (0b1010, 0b0001, 0b0010, 0b0000), r"adjacency not symmetric at \(0, 3\)"),
    # Walking the set bits meets the missing mirror of (1, 2) first, but the
    # error names the first asymmetric pair in row-major order, (0, 3).
    (4, (0b0000, 0b0100, 0b0000, 0b0001), r"adjacency not symmetric at \(0, 3\)"),
    (3, (0b000, 0b000, 0b010), r"adjacency not symmetric at \(1, 2\)"),
])
def test_graph_error_messages(order, rows, message):
    with pytest.raises(ParameterError, match=f"^{message}$"):
        Graph(order, rows)


def test_graph_rejects_order_zero():
    with pytest.raises(ParameterError):
        Graph(0, ())


def test_degree_sum_is_twice_edge_count():
    rng = random.Random(7)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 8))
        assert sum(degree_sequence(g)) == 2 * g.edge_count


# ---------------------------------------------------------------------------
# graph6 codec
# ---------------------------------------------------------------------------

def test_decode_known_strings():
    assert decode_graph6("Bw") == complete(3)
    assert edges(decode_graph6("Bg")) == [(0, 1), (1, 2)]
    assert decode_graph6("@") == edgeless(1)


def test_decode_tolerates_header():
    assert decode_graph6(">>graph6<<Bw") == complete(3)


def test_encode_known_strings():
    assert encode_graph6(complete(3)) == "Bw"
    assert encode_graph6(edgeless(1)) == "@"


def test_encode_matches_transcribed_procedure():
    for g in enumerate_graphs(5):
        assert encode_graph6(g) == g6_encode(g.order, edges(g))


def test_codec_agrees_with_networkx():
    for g in enumerate_graphs(6):
        s = encode_graph6(g)
        nxg = nx.from_graph6_bytes(s.encode("ascii"))
        assert set(map(frozenset, nxg.edges())) == set(map(frozenset, edges(g)))
        assert nx.to_graph6_bytes(nxg, header=False).decode("ascii").strip() == s


@pytest.mark.parametrize(
    "text",
    [
        "",            # empty
        "B",           # missing edge bytes
        "Bww",         # extra edge byte
        "B\x1f",       # non-printable byte
        "?",           # order 0
        "~??",         # multi-byte size form
        "B|",          # nonzero padding bits (only 3 of 6 bits belong)
    ],
)
def test_decode_rejects_malformed(text):
    with pytest.raises(Graph6Error) as exc:
        decode_graph6(text)
    assert "byte" in str(exc.value)


def test_graph6_from_key_packs_the_key():
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            key = canonical_key(g)
            want = g6_encode(n, edges(graph_from_key(n, key)))
            assert graph6_from_key(n, key) == want == encode_graph6(g)


@pytest.mark.parametrize("key", ["1010", "10", "1_0", "+10", "10 ", "102"])
def test_graph6_from_key_rejects_what_is_not_a_key(key):
    # int(..., 2) would read "1_0" and "+10"; a key holds only bits.
    with pytest.raises(ParameterError):
        graph6_from_key(3, key)


def test_encode_rejects_large_order():
    with pytest.raises(UnsupportedSizeError):
        encode_graph6(edgeless(63))


def test_roundtrip_full_census_order_7():
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            assert decode_graph6(encode_graph6(g)) == g


@given(st.integers(1, 8), st.integers(0, 2**28 - 1))
@settings(max_examples=200)
def test_roundtrip_random_graphs(n, bits):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [pairs[t] for t in range(len(pairs)) if bits >> t & 1]
    g = Graph.from_edges(n, edges)
    assert decode_graph6(encode_graph6(g)) == g


@given(st.integers(2, 9), st.data())
@settings(max_examples=100)
def test_pruefer_sequences_always_build_trees(n, data):
    seq = tuple(data.draw(st.integers(0, n - 1)) for _ in range(n - 2))
    g = tree_from_pruefer(seq)
    assert g.order == n
    assert classify_acyclic(g) == (AcyclicClass.TREE, 1)


@given(st.integers(1, 7), st.integers(0, 2**21 - 1), st.data())
@settings(max_examples=100)
def test_permute_preserves_degree_multiset(n, bits, data):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    g = Graph.from_edges(n, [pairs[t] for t in range(len(pairs)) if bits >> t & 1])
    images = data.draw(st.permutations(range(n)))
    relabeled = permute(g, images)
    assert sorted(degree_sequence(relabeled)) == sorted(degree_sequence(g))
    assert relabeled.edge_count == g.edge_count


def test_edge_list_roundtrip():
    g = disjoint_union(cycle(5), edgeless(2))
    assert decode_edge_list(encode_edge_list(g)) == g


def test_edge_list_errors():
    with pytest.raises(ParameterError):
        decode_edge_list("0 0\n")
    with pytest.raises(ParameterError):
        decode_edge_list("a b\n")
    with pytest.raises(ParameterError):
        decode_edge_list("")
    with pytest.raises(ParameterError):
        decode_edge_list("1 2 3\n")
    # Every command prints graph6, which stops at order 62.
    assert decode_edge_list("0 61\n").order == 62
    for text in ("0 62\n", "63\n", "0 1\n0 1000000000\n"):
        with pytest.raises(ParameterError, match=r"line \d: order \d+ exceeds the graph6 cap 62"):
            decode_edge_list(text)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_matching_uses_shifted_pairs():
    assert edges(matching(3)) == [(0, 3), (1, 4), (2, 5)]


def test_cycle_degrees():
    assert degree_sequence(cycle(6)) == (2,) * 6


def test_cycle_too_small():
    with pytest.raises(ParameterError):
        cycle(2)


def test_disjoint_union_components():
    g = disjoint_union(complete(3), complete(3))
    assert components(g) == ((0, 1, 2), (3, 4, 5))


def test_star_degrees():
    assert degree_sequence(star(4)) == (3, 1, 1, 1)


def test_complete_bipartite():
    g = complete_bipartite(2, 3)
    assert g.edge_count == 6
    assert bipartition_of(g) == 0b00011  # left side 0, 1


def test_tree_from_pruefer():
    g = tree_from_pruefer((0, 0))
    assert classify_acyclic(g) == (AcyclicClass.TREE, 1)
    assert degree_sequence(g) == (3, 1, 1, 1)
    with pytest.raises(ParameterError):
        tree_from_pruefer((5,))


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

def test_degree_sequences():
    assert degree_sequence(cycle(6)) == (2, 2, 2, 2, 2, 2)
    assert degree_sequence(matching(3)) == (1, 1, 1, 1, 1, 1)


def test_components_examples():
    assert len(components(cycle(6))) == 1
    assert len(components(disjoint_union(complete(3), complete(3)))) == 2
    assert components(edgeless(3)) == ((0,), (1,), (2,))


def test_bipartition_examples():
    assert bipartition_of(cycle(6)) == 0b010101  # left side 0, 2, 4
    assert bipartition_of(complete(3)) is None
    assert bipartition_of(matching(3)) == 0b000111  # left side 0, 1, 2


def test_bipartition_agrees_with_odd_cycle_freeness():
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            has_odd_cycle = not nx.is_bipartite(
                nx.from_graph6_bytes(encode_graph6(g).encode())
            )
            left = bipartition_of(g)
            assert (left is None) == has_odd_cycle
            if left is None:
                continue
            # No edge inside a side, and each component's lowest vertex left.
            right = ((1 << n) - 1) ^ left
            for v in range(n):
                assert not g.rows[v] & (left if left >> v & 1 else right)
            assert all(left >> comp[0] & 1 for comp in components(g))


def test_classify_acyclic_examples():
    assert classify_acyclic(path(5)) == (AcyclicClass.TREE, 1)
    assert classify_acyclic(disjoint_union(path(2), path(3))) == (
        AcyclicClass.FOREST_MULTI,
        2,
    )
    assert classify_acyclic(cycle(6))[0] is AcyclicClass.HAS_CYCLE


def test_contains_c4_examples():
    assert contains_c4(cycle(4))
    assert contains_c4(complete(4))
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 8)
        seq = tuple(rng.randrange(n) for _ in range(n - 2))
        assert not contains_c4(tree_from_pruefer(seq))


def test_induced_subgraph():
    g = cycle(6)
    sub = induced_subgraph(g, (0, 1, 2))
    assert edges(sub) == [(0, 1), (1, 2)]


# ---------------------------------------------------------------------------
# permutations and canonical forms
# ---------------------------------------------------------------------------

def test_permute_identity_and_inverse():
    g = cycle(6)
    assert permute(g, range(6)) == g
    p = (1, 2, 3, 4, 5, 0)
    inverse = (5, 0, 1, 2, 3, 4)
    assert permute(permute(g, p), inverse) == g


def test_permute_preserves_canonical_key():
    g = cycle(6)
    p = (1, 2, 3, 4, 5, 0)
    assert canonical_key(permute(g, p)) == canonical_key(g)


def test_canonical_key_separates_nonisomorphic():
    assert canonical_key(path(3)) != canonical_key(complete(3))


def test_canonical_key_counts_match_brute_force():
    for n in (3, 4):
        reps = brute_class_reps(n)
        keys = {canonical_key(g) for g in all_labeled_graphs(n)}
        assert len(keys) == len(reps)


def test_canonical_key_equates_exactly_isomorphism():
    # same key <=> same brute-force orbit representative, over all of n=4
    from oracles import orbit_min_mask

    by_key: dict[str, set] = {}
    for g in all_labeled_graphs(4):
        by_key.setdefault(canonical_key(g), set()).add(orbit_min_mask(g))
    for orbits in by_key.values():
        assert len(orbits) == 1


def test_canonical_key_permutation_invariant_randomized():
    rng = random.Random(42)
    for n in range(1, 8):
        for _ in range(100):
            g = random_graph(rng, n)
            images = list(range(n))
            rng.shuffle(images)
            assert canonical_key(permute(g, images)) == canonical_key(g)


def test_canonical_form_realizes_key():
    rng = random.Random(11)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 7))
        cf = canonical_form(g)
        assert graph_bits(cf) == canonical_key(g)
        assert canonical_form(cf) == cf


def test_canonical_order_matches_lexmin_reference():
    # Same key and same placement as the plain frontier scan, on graphs rich
    # in twins (small orders, sparse and dense samples, the named families),
    # on every order-7 class and on every order-7 generation child.
    graphs = [g for n in range(1, 6) for g in all_labeled_graphs(n)]
    for g in enumerate_graphs(6):
        for u in range(6):
            for v in range(u + 1, 6):
                if not g.rows[u] >> v & 1:
                    rows = list(g.rows)
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
                    graphs.append(Graph(6, tuple(rows)))
    graphs.extend(Graph(7, g.rows) for g in enumerate_graphs(7))
    # Every orderly-generation child at order 7: each class with one 1
    # after the last 0 of its key cleared.  Most are not canonical, and
    # they are the graphs enumeration labels.
    pairs = [(i, j) for j in range(1, 7) for i in range(j)]
    children = []
    for g in enumerate_graphs(7):
        key = canonical_key(g)
        for t in range(key.rfind("0") + 1, len(pairs)):
            i, j = pairs[t]
            rows = list(g.rows)
            rows[i] &= ~(1 << j)
            rows[j] &= ~(1 << i)
            children.append(Graph(7, tuple(rows)))
    assert len(children) == 2377
    graphs += children
    rng = random.Random(8)
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        for _ in range(40):
            edges = [(i, j) for i in range(8) for j in range(i + 1, 8) if rng.random() < p]
            graphs.append(Graph.from_edges(8, edges))
    graphs += [
        edgeless(8), complete(8), cycle(8), matching(4), complete_bipartite(4, 4),
        star(8),
        Graph(8, tuple(0xFF & ~(3 << (v & ~1)) for v in range(8))),  # K2,2,2,2
    ]
    for g in graphs:
        assert _canonical_order(g) == lexmin_order_reference(g), g


def test_canonical_key_order_cap():
    with pytest.raises(UnsupportedSizeError):
        canonical_key(edgeless(9))


def test_graph_from_key_roundtrip():
    for g in enumerate_graphs(5):
        assert graph_from_key(g.order, graph_bits(g)) == g


def test_graphs_decoded_without_the_row_check_are_valid_graphs():
    # graph_from_key, and decode_graph6 through it, build through Graph._make;
    # validation must accept what they build as is.
    rng = random.Random(2024)
    for n in range(1, 63):
        for _ in range(3):
            density = rng.random()
            key = "".join("1" if rng.random() < density else "0" for _ in range(n * (n - 1) // 2))
            for g in (graph_from_key(n, key), decode_graph6(graph6_from_key(n, key))):
                assert type(g) is Graph and Graph(n, g.rows) == g and graph_bits(g) == key


def test_canonical_labelling_memoised_per_graph_and_pickled(monkeypatch):
    import graphfactor.graphs as graphs_mod

    real = graphs_mod._canonical_order
    calls = []

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(graphs_mod, "_canonical_order", counted)
    g = permute(cycle(6), (3, 0, 4, 1, 5, 2))
    key = canonical_key(g)
    assert graph_bits(canonical_form(g)) == key
    assert len(calls) == 1
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g and canonical_key(copy) == key
    assert len(calls) == 1


# The order-7 class graphs pickled to this many bytes (protocol 4) when each
# memoised labelling carried its final frontier and twin masks along.
ORDER_7_CLASSES_PICKLED_WITH_END_STATE = 140_498


def test_pickled_labelling_keeps_key_and_placement_alone():
    classes = enumerate_graphs(7)
    data = pickle.dumps(classes, protocol=4)
    assert len(data) < ORDER_7_CLASSES_PICKLED_WITH_END_STATE
    for g, copy in zip(classes, pickle.loads(data)):
        assert copy == g
        labelling = vars(copy)["_canonical"]
        assert labelling == g._canonical
        assert not vars(labelling)
        # automorphism_generators labels the copy afresh for the end state.
        assert automorphism_generators(copy) == automorphism_generators(g)


def _is_automorphism(g: Graph, images) -> bool:
    """True iff images (images[v] = sigma(v)) maps g's edges onto its edges."""
    return all(
        sum(1 << images[w] for w in range(g.order) if g.rows[u] >> w & 1) == g.rows[images[u]]
        for u in range(g.order)
    )


def _group_order(generators, n: int) -> int:
    """Order of the permutation group generated by image tuples, by closing
    the identity under composition with every generator."""
    seen = {tuple(range(n))}
    todo = list(seen)
    while todo:
        p = todo.pop()
        for s in generators:
            q = tuple(s[v] for v in p)
            if q not in seen:
                seen.add(q)
                todo.append(q)
    return len(seen)


def _relabelled(rng: random.Random, g: Graph) -> Graph:
    images = list(range(g.order))
    rng.shuffle(images)
    return permute(g, images)


def test_automorphism_generators_generate_aut_to_order_6():
    # Each class, and a relabelled copy whose least placement is not the
    # identity, against a brute force over all n! relabellings.
    from itertools import permutations

    rng = random.Random(6)
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            order = sum(1 for p in permutations(range(n)) if _is_automorphism(g, p))
            for h in (g, _relabelled(rng, g)):
                generators = automorphism_generators(h)
                assert all(_is_automorphism(h, s) for s in generators), h
                assert _group_order(generators, n) == order, h
                assert (order == 1) == (not generators)


@pytest.mark.parametrize("n, size", [(7, 60), (8, 40)])
def test_automorphism_generators_generate_aut_on_sampled_classes(n, size):
    from networkx.algorithms.isomorphism import GraphMatcher

    rng = random.Random(n)
    for g in rng.sample(enumerate_graphs(n), size):
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(edges(g))
        order = sum(1 for _ in GraphMatcher(h, h).isomorphisms_iter())
        for k in (g, _relabelled(rng, g)):
            generators = automorphism_generators(k)
            assert all(_is_automorphism(k, s) for s in generators), k
            assert _group_order(generators, n) == order, k


def test_automorphism_generators_of_complete_and_edgeless_are_twin_swaps():
    # All n vertices are twins, so the labelling ends on one placement and
    # the n - 1 transpositions of consecutive vertices give S_n.
    for g in (complete(8), edgeless(8)):
        assert automorphism_generators(g) == [
            tuple(v + 1 if v == u else u if v == u + 1 else v for v in range(8))
            for u in range(7)
        ]
