import math
import random

import pytest

from graphfactor import census, conditions, spectral
from graphfactor.census import enumerate_graphs, run_census
from graphfactor.errors import PreconditionError
from graphfactor.factorization import adjacency
from graphfactor.graphs import (
    CANONICAL_ORDER_CAP,
    Graph,
    complete,
    components,
    cycle,
    decode_graph6,
    disjoint_union,
    induced_subgraph,
    is_bipartite,
    is_connected,
    matching,
)
from graphfactor.spectral import (
    DEFAULT_TOL,
    _jacobi_flat,
    eigen_sym,
    lambda_max,
    lambda_max_certified,
    perron,
    spectrum_is_symmetric,
)
from oracles import exact_eigenvalues, jacobi_reference, path


def assert_close(got, want, tol=1e-9):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert abs(a - b) <= tol, (got, want)


def test_eigen_known_spectra():
    assert_close(eigen_sym(cycle(6)), (2, 1, 1, -1, -1, -2))
    assert_close(eigen_sym(complete(3)), (2, -1, -1))
    assert_close(eigen_sym(matching(3)), (1, 1, 1, -1, -1, -1))


def test_eigen_against_char_poly_roots_order_4():
    for n in range(1, 5):
        for g in enumerate_graphs(n):
            got = eigen_sym(g)
            want = exact_eigenvalues(adjacency(g).entries)
            assert_close(got, want, tol=1e-8)


def test_spectrum_symmetric_examples():
    assert spectrum_is_symmetric(eigen_sym(cycle(6)))
    assert not spectrum_is_symmetric(eigen_sym(complete(3)))
    assert spectrum_is_symmetric(eigen_sym(path(5)))


def test_spectrum_symmetric_iff_bipartite_order_6():
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            sym = spectrum_is_symmetric(eigen_sym(g))
            assert sym == is_bipartite(g)


def test_perron_regular_graphs():
    value, vector = perron(cycle(6))
    assert abs(value - 2.0) <= 1e-9
    for x in vector:
        assert abs(x - 1 / math.sqrt(6)) <= 1e-8
    value, _ = perron(complete(3))
    assert abs(value - 2.0) <= 1e-9


def test_perron_path3():
    value, vector = perron(path(3))
    assert abs(value - math.sqrt(2)) <= 1e-8
    want = (0.5, math.sqrt(2) / 2, 0.5)
    for a, b in zip(vector, want):
        assert abs(a - b) <= 1e-8


def test_perron_rejects_disconnected():
    with pytest.raises(PreconditionError):
        perron(disjoint_union(complete(3), complete(3)))


def test_perron_residual_on_connected_census():
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            if not is_connected(g):
                continue
            value, vector = perron(g)
            a = adjacency(g)
            residual = max(
                abs(sum(a.entries[i][j] * vector[j] for j in range(n)) - value * vector[i])
                for i in range(n)
            )
            assert residual <= 1e-8
            assert all(x > 0 for x in vector)


def test_perron_vector_within_default_tol_of_the_jacobi_eigenvector():
    # G?CzEC is the order-8 class whose vector was furthest off when power
    # iteration stopped on the step size alone (4.3e-9), and P20 contracts
    # slowly (4.8e-9).
    graphs = [g for n in range(1, 8) for g in enumerate_graphs(n) if is_connected(g)]
    for g in graphs + [decode_graph6("G?CzEC"), path(20)]:
        values, vectors = jacobi_reference(adjacency(g).entries, 1e-12, True)
        k = max(range(g.order), key=values.__getitem__)
        want = [row[k] for row in vectors]
        if sum(want) < 0:
            want = [-x for x in want]
        _, got = perron(g)
        assert max(abs(a - b) for a, b in zip(got, want)) <= DEFAULT_TOL, g


def test_lambda_max_is_multiplicative_on_the_six_cycle_triple():
    product = lambda_max(disjoint_union(complete(3), complete(3))) * lambda_max(matching(3))
    assert abs(lambda_max(cycle(6)) - 2.0) <= 1e-9
    assert abs(product - 2.0) <= 1e-9


def test_lambda_max_is_not_multiplicative_on_the_disconnected_counterexample():
    g = disjoint_union(cycle(6), cycle(6))
    h = disjoint_union(matching(3), cycle(3), cycle(3))
    k = disjoint_union(cycle(3), cycle(3), matching(3))
    assert abs(lambda_max(g) - 2.0) <= 1e-9
    assert abs(lambda_max(h) * lambda_max(k) - 4.0) <= 1e-9


def test_lambda_max_spectrum_bound():
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            values = eigen_sym(g)
            assert all(abs(v) <= n - 1 + 1e-9 for v in values)
            assert lambda_max(g) == values[0]


def _kernel(mat, tol):
    """The Jacobi kernel on a matrix given as rows, flattened row-major into
    floats as eigen_sym and lambda_max flatten a graph's rows."""
    return _jacobi_flat(len(mat), [float(x) for row in mat for x in row], tol)


def _float_bits(values):
    """Eigenvalues as float.hex strings: equal iff every bit (sign of zero
    included) is equal."""
    return [x.hex() for x in values]


def test_jacobi_bit_identical_to_reference_on_every_class_to_order_7():
    # lambda_max hands the kernel float rows built from the adjacency masks.
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            entries = adjacency(g).entries
            got = _kernel(entries, DEFAULT_TOL)
            want, _ = jacobi_reference(entries, DEFAULT_TOL, False)
            assert _float_bits(got) == _float_bits(want), g
            assert lambda_max(g).hex() == max(want).hex(), g
            assert _float_bits(eigen_sym(g)) == _float_bits(sorted(want, reverse=True))


def test_jacobi_bit_identical_to_reference_on_sampled_order_8_classes():
    classes = enumerate_graphs(8)
    for g in random.Random(8).sample(classes, 150):
        entries = adjacency(g).entries
        got = _kernel(entries, DEFAULT_TOL)
        want, _ = jacobi_reference(entries, DEFAULT_TOL, False)
        assert _float_bits(got) == _float_bits(want), g
        assert lambda_max(g).hex() == max(want).hex(), g


def test_jacobi_bit_identical_to_reference_on_integer_matrices():
    # Symmetric integer entries outside {0, 1}, nonzero diagonals and
    # negative entries, at every order up to 8.
    rng = random.Random(16)
    for _ in range(300):
        n = rng.randint(1, 8)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.choice((0, 0, 1, 2, 3, -1, -4, 7))
        got = _kernel(m, DEFAULT_TOL)
        want, _ = jacobi_reference(m, DEFAULT_TOL, False)
        assert _float_bits(got) == _float_bits(want), m


def test_jacobi_bit_identical_to_reference_on_random_float_matrices():
    # Float entries, exact zeros and a tolerance below DEFAULT_TOL.
    rng = random.Random(2024)
    for _ in range(400):
        n = rng.randint(1, 8)
        m = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if rng.random() >= 0.35:
                    m[i][j] = m[j][i] = rng.uniform(-2.0, 2.0)
        got = _kernel(m, DEFAULT_TOL * 1e-3)
        want, _ = jacobi_reference(m, DEFAULT_TOL * 1e-3, False)
        assert _float_bits(got) == _float_bits(want), m


def test_jacobi_bit_identical_to_reference_above_the_compiled_orders():
    # Orders 9 to 12 walk the rotation plan instead of a compiled sweep.
    rng = random.Random(912)
    for n in range(9, 13):
        for _ in range(4):
            g = Graph.from_edges(
                n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
            )
            entries = adjacency(g).entries
            got = _kernel(entries, DEFAULT_TOL)
            want, _ = jacobi_reference(entries, DEFAULT_TOL, False)
            assert _float_bits(got) == _float_bits(want), g
            assert lambda_max(g).hex() == max(want).hex(), g


def test_sweep_is_compiled_only_up_to_the_canonical_cap(monkeypatch):
    compiled = []
    sweep = spectral._sweep

    def spy(n):
        compiled.append(n)
        return sweep(n)

    monkeypatch.setattr(spectral, "_sweep", spy)
    for n in (3, CANONICAL_ORDER_CAP, CANONICAL_ORDER_CAP + 1, 62):
        eigen_sym(cycle(n))
    assert compiled == [3, CANONICAL_ORDER_CAP]


def _jacobi_runs(monkeypatch) -> list:
    """The (order, flat matrix) of every Jacobi run from here on; the
    lambda_max memo is emptied first so that no earlier run is reused."""
    spectral._lambda_max.cache_clear()
    runs = []
    kernel = spectral._jacobi_flat

    def counted(n, a, tol):
        runs.append((n, tuple(a)))
        return kernel(n, a, tol)

    monkeypatch.setattr(spectral, "_jacobi_flat", counted)
    return runs


def test_census_runs_jacobi_once_per_labelled_graph(monkeypatch):
    runs = _jacobi_runs(monkeypatch)
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


def test_verify_runs_jacobi_only_for_witness_graphs(order6_records, monkeypatch):
    runs = _jacobi_runs(monkeypatch)
    report = census.verify_catalog([rec.to_json() for rec in order6_records])
    assert report.total_violations == 0
    # V13 and S1 read the radii of each witness's graphs and their components;
    # the stored lambda_max of every record is certified without a run.
    allowed = set()
    for rec in order6_records:
        for f in rec.witnesses:
            for g in (f.g, f.h, f.k):
                for part in (g, *(induced_subgraph(g, c) for c in components(g))):
                    entries = adjacency(part).entries
                    allowed.add((part.order, tuple(float(x) for row in entries for x in row)))
    assert runs and set(runs) <= allowed
    assert len(runs) == len(set(runs)) < len(order6_records)


def test_verify_catches_a_census_written_by_a_loose_kernel(monkeypatch):
    # A kernel that stops at 1e6 times its tolerance writes a few wrong
    # lambda_max values; verify must name exactly those records, though it
    # runs the same kernel for the witness graphs.
    kernel = spectral._jacobi_flat
    monkeypatch.setattr(spectral, "_jacobi_flat", lambda n, a, tol: kernel(n, a, tol * 1e6))
    spectral._lambda_max.cache_clear()
    try:
        objs = [rec.to_json() for rec in run_census(6)]
        report = census.verify_catalog(objs)
    finally:
        monkeypatch.undo()
        spectral._lambda_max.cache_clear()
    wrong = [
        obj["graph6"] for obj in objs
        if abs(obj["lambda_max"] - lambda_max(decode_graph6(obj["graph6"])))
        > DEFAULT_TOL * max(1.0, obj["lambda_max"])
    ]
    assert len(wrong) == 6
    assert [msg for msg in report.integrity if "lambda_max" in msg] == [
        f"record {g6!r}: stored lambda_max mismatch" for g6 in wrong
    ]


def test_lambda_max_certificate_is_exact_on_every_class_to_order_7():
    # The exact largest root of the characteristic polynomial is certified,
    # and fails once moved by twice the tolerance either way.
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            lam = exact_eigenvalues(adjacency(g).entries)[0]
            eps = DEFAULT_TOL * max(1.0, abs(lam))
            assert lambda_max_certified(g, lam), g
            assert not lambda_max_certified(g, lam + 2.0 * eps), g
            assert not lambda_max_certified(g, lam - 2.0 * eps), g


def test_lambda_max_certificate_on_sampled_order_8_classes():
    for g in random.Random(8).sample(enumerate_graphs(8), 400):
        lam = lambda_max(g)
        assert lambda_max_certified(g, lam), g
        for shift in (2e-9, -2e-9):
            assert not lambda_max_certified(g, lam + shift * max(1.0, lam)), g
