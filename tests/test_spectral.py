import math
import random

import pytest

from graphfactor import census, conditions, spectral
from graphfactor.census import enumerate_graphs, run_census
from graphfactor.errors import PreconditionError
from graphfactor.exact import IntMatrix, adjacency, multiply
from graphfactor.graphs import (
    complete,
    cycle,
    disjoint_union,
    is_bipartite,
    is_connected,
    matching,
    path,
)
from graphfactor.spectral import (
    DEFAULT_TOL,
    _jacobi,
    common_eigenbasis,
    eigen_sym,
    lambda_max,
    lambda_max_product_check,
    perron,
    spectrum_is_symmetric,
)
from oracles import exact_eigenvalues, jacobi_reference
from triples import MATCHING_6, SIX_CYCLE_PRODUCT, TRIANGLES_6


def assert_close(got, want, tol=1e-9):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert abs(a - b) <= tol, (got, want)


def test_eigen_known_spectra():
    assert_close(eigen_sym(adjacency(cycle(6))).values, (2, 1, 1, -1, -1, -2))
    assert_close(eigen_sym(adjacency(complete(3))).values, (2, -1, -1))
    assert_close(eigen_sym(adjacency(matching(3))).values, (1, 1, 1, -1, -1, -1))


def test_eigen_requires_symmetric():
    with pytest.raises(PreconditionError):
        eigen_sym(IntMatrix(((0, 1), (0, 0))))


def test_eigen_against_char_poly_roots_order_4():
    for n in range(1, 5):
        for g in enumerate_graphs(n):
            got = eigen_sym(adjacency(g)).values
            want = exact_eigenvalues(adjacency(g).entries)
            assert_close(got, want, tol=1e-8)


def test_spectrum_symmetric_examples():
    assert spectrum_is_symmetric(eigen_sym(adjacency(cycle(6))))
    assert not spectrum_is_symmetric(eigen_sym(adjacency(complete(3))))
    assert spectrum_is_symmetric(eigen_sym(adjacency(path(5))))


def test_spectrum_symmetric_iff_bipartite_order_6():
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            sym = spectrum_is_symmetric(eigen_sym(adjacency(g)))
            assert sym == is_bipartite(g)


def test_perron_regular_graphs():
    data = perron(cycle(6))
    assert abs(data.value - 2.0) <= 1e-9
    for x in data.vector:
        assert abs(x - 1 / math.sqrt(6)) <= 1e-8
    data = perron(complete(3))
    assert abs(data.value - 2.0) <= 1e-9


def test_perron_path3():
    data = perron(path(3))
    assert abs(data.value - math.sqrt(2)) <= 1e-8
    want = (0.5, math.sqrt(2) / 2, 0.5)
    for a, b in zip(data.vector, want):
        assert abs(a - b) <= 1e-8


def test_perron_rejects_disconnected():
    with pytest.raises(PreconditionError):
        perron(disjoint_union(complete(3), complete(3)))


def test_perron_residual_on_connected_census():
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            if not is_connected(g):
                continue
            data = perron(g)
            a = adjacency(g)
            residual = max(
                abs(
                    sum(a.entries[i][j] * data.vector[j] for j in range(n))
                    - data.value * data.vector[i]
                )
                for i in range(n)
            )
            assert residual <= 1e-8
            assert all(x > 0 for x in data.vector)


def test_common_eigenbasis_six_cycle_triple():
    b = IntMatrix(TRIANGLES_6)
    c = IntMatrix(MATCHING_6)
    a = IntMatrix(SIX_CYCLE_PRODUCT)
    basis = common_eigenbasis(a, b, c)
    assert basis is not None
    # conjugation really is diagonal for all three
    n = 6
    for m in (a, b, c):
        for k in range(n):
            for l in range(n):
                if k == l:
                    continue
                entry = sum(
                    basis[k][i] * m.entries[i][j] * basis[l][j]
                    for i in range(n)
                    for j in range(n)
                )
                assert abs(entry) <= 1e-9


def test_common_eigenbasis_identity_and_powers():
    eye = IntMatrix.identity(3)
    assert common_eigenbasis(eye, eye, eye) is not None
    a = adjacency(cycle(6))
    assert common_eigenbasis(a, a, multiply(a, a)) is not None


def test_common_eigenbasis_rejects_noncommuting():
    p3 = adjacency(path(3))
    k3 = adjacency(complete(3))
    with pytest.raises(PreconditionError):
        common_eigenbasis(p3, p3, k3)


def test_common_eigenbasis_deterministic_given_seed():
    a = adjacency(cycle(6))
    b1 = common_eigenbasis(a, a, multiply(a, a), seed=7)
    b2 = common_eigenbasis(a, a, multiply(a, a), seed=7)
    assert b1 == b2


def test_lambda_max_product_check_six_cycle():
    chk = lambda_max_product_check(
        cycle(6), disjoint_union(complete(3), complete(3)), matching(3)
    )
    assert chk.holds
    assert abs(chk.lhs - 2.0) <= 1e-9
    assert abs(chk.rhs - 2.0) <= 1e-9


def test_lambda_max_product_check_disconnected_counterexample():
    g = disjoint_union(cycle(6), cycle(6))
    h = disjoint_union(matching(3), cycle(3), cycle(3))
    k = disjoint_union(cycle(3), cycle(3), matching(3))
    chk = lambda_max_product_check(g, h, k)
    assert not chk.holds
    assert abs(chk.lhs - 2.0) <= 1e-9
    assert abs(chk.rhs - 4.0) <= 1e-9


def test_lambda_max_spectrum_bound():
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            values = eigen_sym(adjacency(g)).values
            assert all(abs(v) <= n - 1 + 1e-9 for v in values)
            assert lambda_max(g) == values[0]


def _float_bits(values, vectors):
    """Diagonal and rotation matrix as float.hex strings: equal iff every bit
    (sign of zero included) is equal."""
    rotation = None if vectors is None else [[x.hex() for x in row] for row in vectors]
    return [x.hex() for x in values], rotation


def test_jacobi_bit_identical_to_reference_on_every_class_to_order_7():
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            entries = adjacency(g).entries
            for want_vectors in (False, True):
                got = _jacobi(entries, DEFAULT_TOL, want_vectors)
                want = jacobi_reference(entries, DEFAULT_TOL, want_vectors)
                assert _float_bits(*got) == _float_bits(*want), (g, want_vectors)


def test_jacobi_bit_identical_to_reference_on_random_float_matrices():
    # The common_eigenbasis path: float entries, exact zeros, rotations kept,
    # and its tighter tolerance.
    rng = random.Random(2024)
    for _ in range(400):
        n = rng.randint(1, 8)
        m = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if rng.random() >= 0.35:
                    m[i][j] = m[j][i] = rng.uniform(-2.0, 2.0)
        got = _jacobi(m, DEFAULT_TOL * 1e-3, True)
        want = jacobi_reference(m, DEFAULT_TOL * 1e-3, True)
        assert _float_bits(*got) == _float_bits(*want), m


def test_census_runs_jacobi_once_per_labelled_graph(monkeypatch):
    spectral._lambda_max.cache_clear()
    runs = []
    kernel = spectral._jacobi

    def counted(mat, tol, want_vectors):
        runs.append(tuple(tuple(row) for row in mat))
        return kernel(mat, tol, want_vectors)

    monkeypatch.setattr(spectral, "_jacobi", counted)
    asked = []
    for module in (census, conditions, spectral):
        original = module.lambda_max

        def recorded(g, original=original):
            asked.append((g.order, g.rows))
            return original(g)

        monkeypatch.setattr(module, "lambda_max", recorded)
    run_census(6)
    # V13 and S1 ask again for the record's graph and for repeated factors.
    assert len(asked) > len(set(asked))
    assert len(runs) == len(set(runs)) == len(set(asked))
