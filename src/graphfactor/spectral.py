"""Floating-point spectra of symmetric integer matrices.

Eigenvalues come from cyclic Jacobi sweeps (robust on the repeated
eigenvalues that regular and bipartite graphs produce).  The kernel works on
one flat row-major list, driven by a rotation plan built once per order,
and runs every float operation of the nested-list sweep in the same order,
so its values and rotations are bit-identical to that sweep's.  lambda_max
runs it once per labelled graph.  The Perron pair comes from power
iteration.  The module also hosts the largest-eigenvalue product check used
to audit factorizations.

Every function here works to one tolerance, DEFAULT_TOL (1e-9), the one
the paper's spectral statements are checked to.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cache, lru_cache

from .errors import ParameterError, PreconditionError
from .exact import IntMatrix, commute
from .graphs import Graph, is_connected

DEFAULT_TOL = 1e-9
DEFAULT_SEED = 42

_MAX_SWEEPS = 100
_MAX_POWER_ITER = 200_000


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted in descending order."""

    values: tuple[float, ...]


@dataclass(frozen=True)
class PerronData:
    """Largest eigenvalue and its positive unit eigenvector."""

    value: float
    vector: tuple[float, ...]


@dataclass(frozen=True)
class ProductCheck:
    lhs: float
    rhs: float
    holds: bool


@cache
def _rotation_plan(n: int):
    """Flat row-major positions for the cyclic Jacobi sweep at order n.

    Returns the strict upper triangle in row order (the off-diagonal norm
    sums it in that order) and, for each pivot (p, q) in sweep order, the
    positions of a[p][q], a[p][p] and a[q][q], the (g, h) entry pairs that
    the rotation updates in the upper triangle (i < p, then p < i < q, then
    q < i), and the (g, h) pairs of columns p and q of the rotation matrix.
    """
    upper = tuple(i * n + j for i in range(n) for j in range(i + 1, n))
    rotations = []
    for p in range(n - 1):
        for q in range(p + 1, n):
            pairs = (
                tuple((i * n + p, i * n + q) for i in range(p))
                + tuple((p * n + i, i * n + q) for i in range(p + 1, q))
                + tuple((p * n + i, q * n + i) for i in range(q + 1, n))
            )
            columns = tuple((i * n + p, i * n + q) for i in range(n))
            rotations.append((p * n + q, p * n + p, q * n + q, pairs, columns))
    return upper, tuple(rotations)


def _jacobi(mat, tol: float, want_vectors: bool):
    """Cyclic Jacobi sweeps until the off-diagonal Frobenius mass drops
    below tol.  Returns (diagonal values, rotation matrix or None).

    The matrix is one flat row-major list and only its upper triangle is
    kept current; _rotation_plan gives every position a sweep touches."""
    n = len(mat)
    a = [float(x) for row in mat for x in row]
    v = [1.0 if i == j else 0.0 for i in range(n) for j in range(n)] if want_vectors else None
    if n == 1:
        return a, [v] if want_vectors else None
    upper, rotations = _rotation_plan(n)
    skip = tol / (4.0 * n * n)
    for _ in range(_MAX_SWEEPS):
        mass = 0.0
        for k in upper:
            x = a[k]
            mass += x * x
        if math.sqrt(2.0 * mass) < tol:
            break
        for pq, pp, qq, pairs, columns in rotations:
            apq = a[pq]
            if abs(apq) <= skip:
                continue
            diff = a[qq] - a[pp]
            if abs(apq) < 1e-300 * abs(diff):
                t = apq / diff
            else:
                theta = diff / (2.0 * apq)
                t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            tau = s / (1.0 + c)
            a[pq] = 0.0
            a[pp] -= t * apq
            a[qq] += t * apq
            for gi, hi in pairs:
                g_ = a[gi]
                h_ = a[hi]
                a[gi] = g_ - s * (h_ + tau * g_)
                a[hi] = h_ + s * (g_ - tau * h_)
            if v is not None:
                for gi, hi in columns:
                    g_ = v[gi]
                    h_ = v[hi]
                    v[gi] = g_ - s * (h_ + tau * g_)
                    v[hi] = h_ + s * (g_ - tau * h_)
    else:
        raise ArithmeticError("Jacobi iteration did not converge")
    if v is not None:
        v = [v[i * n:(i + 1) * n] for i in range(n)]
    return a[::n + 1], v


def eigen_sym(m: IntMatrix) -> Spectrum:
    """Full spectrum of a symmetric integer matrix, sorted descending."""
    if not m.is_symmetric():
        raise PreconditionError("eigen_sym requires a symmetric matrix")
    values, _ = _jacobi(m.entries, DEFAULT_TOL, want_vectors=False)
    return Spectrum(tuple(_descending(values, m.trace())))


def _descending(values: list[float], trace: int) -> list[float]:
    """The eigenvalues sorted in descending order, once their sum is checked
    against the matrix trace."""
    values.sort(reverse=True)
    if abs(sum(values) - trace) > max(DEFAULT_TOL, 1e-12 * len(values) * (1 + abs(trace))):
        raise ArithmeticError("eigenvalue sum drifted from the trace")
    return values


def lambda_max(g: Graph) -> float:
    """Largest adjacency eigenvalue, to within DEFAULT_TOL (1e-9), computed
    once per labelled graph."""
    return _lambda_max(g.order, g.rows)


@lru_cache(maxsize=1 << 15)
def _lambda_max(order: int, rows: tuple[int, ...]) -> float:
    """The memo behind lambda_max.  It is keyed on the plain (order, rows),
    so it keeps no Graph, and no memoised labelling, alive; 2**15 entries
    hold every labelled graph of the order-8 census (12,691).  The rows' 0/1
    entries go straight to the kernel: a graph's matrix is symmetric with
    zero trace."""
    matrix = [[row >> j & 1 for j in range(order)] for row in rows]
    values, _ = _jacobi(matrix, DEFAULT_TOL, want_vectors=False)
    return _descending(values, 0)[0]


def spectrum_is_symmetric(s: Spectrum) -> bool:
    """True iff the spectrum is symmetric about zero (within 2*DEFAULT_TOL)."""
    n = len(s.values)
    return all(
        abs(s.values[i] + s.values[n - 1 - i]) <= 2.0 * DEFAULT_TOL for i in range(n)
    )


def perron(g: Graph) -> PerronData:
    """Perron value/vector of a connected graph by power iteration from the
    all-ones vector.  The iteration runs on A + I so bipartite spectra
    (where -lambda_max ties lambda_max in magnitude) cannot oscillate.
    """
    if not is_connected(g):
        raise PreconditionError("perron requires a connected graph")
    n = g.order
    rows = g.rows
    v = [1.0 / math.sqrt(n)] * n
    for _ in range(_MAX_POWER_ITER):
        w = []
        for i in range(n):
            acc = v[i]
            m = rows[i]
            while m:
                j = (m & -m).bit_length() - 1
                m &= m - 1
                acc += v[j]
            w.append(acc)
        norm = math.sqrt(sum(x * x for x in w))
        w = [x / norm for x in w]
        dist = math.sqrt(sum((a - b) ** 2 for a, b in zip(w, v)))
        v = w
        if dist < DEFAULT_TOL:
            break
    else:
        raise ArithmeticError("power iteration did not converge")
    value = 0.0
    for i in range(n):
        m = rows[i]
        acc = 0.0
        while m:
            j = (m & -m).bit_length() - 1
            m &= m - 1
            acc += v[j]
        value += v[i] * acc
    if any(x <= 0.0 for x in v):
        raise ArithmeticError("Perron vector came out non-positive")
    return PerronData(value, tuple(v))


def common_eigenbasis(
    a: IntMatrix,
    b: IntMatrix,
    c: IntMatrix,
    seed: int = DEFAULT_SEED,
):
    """Orthonormal basis diagonalizing three pairwise-commuting symmetric
    matrices, found by diagonalizing a seeded random combination of the
    last two; None after 5 failed draws.

    Returns the basis as a tuple of n vectors (each a tuple of floats).
    """
    n = a.order
    if b.order != n or c.order != n:
        raise ParameterError("matrices must share one order")
    for name, m in (("a", a), ("b", b), ("c", c)):
        if not m.is_symmetric():
            raise PreconditionError(f"matrix {name} is not symmetric")
    if not (commute(a, b) and commute(a, c) and commute(b, c)):
        raise PreconditionError("matrices do not pairwise commute")
    rng = random.Random(seed)
    for _ in range(5):
        r = rng.uniform(-2.0, 2.0)
        s = rng.uniform(-2.0, 2.0)
        combo = [
            [r * b.entries[i][j] + s * c.entries[i][j] for j in range(n)]
            for i in range(n)
        ]
        try:
            _, vecs = _jacobi(combo, DEFAULT_TOL * 1e-3, want_vectors=True)
        except ArithmeticError:
            continue
        if vecs is None:
            continue
        if all(_diagonalizes(vecs, m) for m in (a, b, c)):
            basis = tuple(tuple(vecs[i][k] for i in range(n)) for k in range(n))
            return basis
    return None


def _diagonalizes(vecs: list[list[float]], m: IntMatrix) -> bool:
    n = m.order
    mv = [
        [sum(m.entries[i][t] * vecs[t][k] for t in range(n)) for k in range(n)]
        for i in range(n)
    ]
    for k in range(n):
        for l in range(n):
            if k == l:
                continue
            entry = sum(vecs[i][k] * mv[i][l] for i in range(n))
            if abs(entry) > DEFAULT_TOL:
                return False
    return True


def lambda_max_product_check(g: Graph, h: Graph, k: Graph) -> ProductCheck:
    """Compare lambda_max(G) against lambda_max(H) * lambda_max(K), within
    DEFAULT_TOL relative to lambda_max(G) (absolute below 1)."""
    lhs = lambda_max(g)
    rhs = lambda_max(h) * lambda_max(k)
    holds = abs(lhs - rhs) <= DEFAULT_TOL * max(1.0, abs(lhs))
    return ProductCheck(lhs, rhs, holds)
