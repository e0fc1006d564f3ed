import pytest

from graphfactor.errors import ParameterError
from graphfactor.factorization import IntMatrix, adjacency
from graphfactor.graphs import (
    canonical_key,
    complete,
    cycle,
    edgeless,
    matching,
)
from oracles import (
    as_adjacency,
    commute,
    first_adjacency_violation,
    identity,
    multiply,
    path,
)
from triples import (
    C4_PLUS_EDGES_8,
    EDGES_PLUS_C4_8,
    MATCHING_6,
    SIX_CYCLE_PRODUCT,
    TRIANGLES_6,
    TWO_C4_PRODUCT,
)


def test_adjacency_examples():
    assert adjacency(complete(3)).entries == ((0, 1, 1), (1, 0, 1), (1, 1, 0))
    m = adjacency(matching(3))
    for i in range(3):
        for j in range(3):
            assert m.entries[i][j] == 0
            assert m.entries[3 + i][3 + j] == 0
            assert m.entries[i][3 + j] == (1 if i == j else 0)
    assert adjacency(edgeless(2)).entries == ((0, 0), (0, 0))


def test_multiply_six_cycle_triple_bit_exact():
    b = IntMatrix(TRIANGLES_6)
    c = IntMatrix(MATCHING_6)
    assert multiply(b, c).entries == SIX_CYCLE_PRODUCT


def test_multiply_two_c4_triple_bit_exact():
    b = IntMatrix(C4_PLUS_EDGES_8)
    c = IntMatrix(EDGES_PLUS_C4_8)
    assert multiply(b, c).entries == TWO_C4_PRODUCT


def test_multiply_identity():
    m = adjacency(cycle(5))
    assert multiply(m, identity(5)) == m


def test_multiply_size_mismatch():
    with pytest.raises(ParameterError):
        multiply(identity(2), identity(3))


def test_as_adjacency_examples():
    g = as_adjacency(IntMatrix(SIX_CYCLE_PRODUCT))
    assert g is not None
    assert canonical_key(g) == canonical_key(cycle(6))
    assert as_adjacency(identity(3)) is None
    k3 = adjacency(complete(3))
    assert as_adjacency(multiply(k3, k3)) is None
    assert first_adjacency_violation(multiply(k3, k3)) == (0, 0, "entry 2 is not 0 or 1")


def test_commute_examples():
    b = IntMatrix(TRIANGLES_6)
    c = IntMatrix(MATCHING_6)
    assert commute(b, c)
    assert commute(b, identity(6))
    p3 = adjacency(path(3))
    other = adjacency(complete(3))
    assert commute(p3, other) == (multiply(p3, other) == multiply(other, p3))
    with pytest.raises(ParameterError):
        commute(p3, identity(4))
