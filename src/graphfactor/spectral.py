"""Floating-point spectra of graphs' adjacency matrices.

Eigenvalues come from cyclic Jacobi sweeps (robust on the repeated
eigenvalues that regular and bipartite graphs produce), driven by a rotation
plan built once per order.  At orders up to CANONICAL_ORDER_CAP, the
orders the census runs, the kernel is one straight-line function per order,
generated from the plan and compiled once per process, with one local
variable per matrix entry; a sweep spells out about n**3 / 2 statements, so
above the cap a loop walks the plan over one flat list instead.  Both run
every float operation of the nested-list sweep in the same order, so their
values are bit-identical to that sweep's.  The kernel reads a graph's
bitmask rows as 0.0/1.0 floats; eigen_sym runs it for the spectrum the CLI
prints, and lambda_max once per labelled graph.  The Perron pair comes from
power iteration.

lambda_max_certified checks a claimed largest eigenvalue with no
eigensolver: a float solve proposes a positive vector, and bounds on it
proved in integer arithmetic (Collatz-Wielandt above, the Rayleigh quotient
below) pin the true value, so verify's check of a stored lambda_max is
independent of the Jacobi kernel that wrote it.

Every function here works to one tolerance, DEFAULT_TOL (1e-9), the one
the paper's spectral statements are checked to.
"""
from __future__ import annotations

import math
from functools import cache, lru_cache

from .errors import PreconditionError
from .graphs import CANONICAL_ORDER_CAP, Graph, is_connected

DEFAULT_TOL = 1e-9

_MAX_SWEEPS = 100
_MAX_POWER_ITER = 200_000


@cache
def _rotation_plan(n: int):
    """Flat row-major positions for the cyclic Jacobi sweep at order n.

    Returns the strict upper triangle in row order (the off-diagonal norm
    sums it in that order) and, for each pivot (p, q) in sweep order, the
    positions of a[p][q], a[p][p] and a[q][q], the (g, h) entry pairs that
    the rotation updates in the upper triangle (i < p, then p < i < q, then
    q < i).
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
            rotations.append((p * n + q, p * n + p, q * n + q, pairs))
    return upper, tuple(rotations)


@cache
def _sweep(n: int):
    """The Jacobi loop at order n >= 2 as one function of straight-line
    code, generated from _rotation_plan(n) and compiled once per process.

    Matrix entry k of the flat row-major list lives in local a<k>; each
    sweep sums the off-diagonal mass and then spells out every rotation, so
    no list is indexed and no plan is walked.  The float operations are
    those of _plan_sweep, in its order.  sweep(a, tol, skip) takes the flat
    matrix and returns the diagonal values.

    Neither sweep guards theta = diff / (2 apq) against overflow, as the
    nested-list reference does with t = apq / diff once
    |apq| < 1e-300 |diff|, because that never happens on a graph's 0/1
    rows, the only matrices _eigenvalues feeds them.  Rotations keep the
    Frobenius norm, sqrt(2m) < n for m edges, so every entry stays below n
    and |diff| < 2n <= 124 at any order up to GRAPH6_ORDER_CAP (62), the
    largest a command reads, while a rotated pivot has
    |apq| > skip = tol / (4 n**2) >= 6.5e-14 at DEFAULT_TOL."""
    upper, rotations = _rotation_plan(n)
    diagonal = [i * (n + 1) for i in range(n)]
    used = set(upper) | set(diagonal)
    mass = " + ".join(f"a{k} * a{k}" for k in upper)
    src = [
        "def sweep(a, tol, skip, abs=abs, sqrt=sqrt):",
        "    " + ", ".join(f"a{k}" if k in used else "_" for k in range(n * n)) + ", = a",
        f"    for _ in range({_MAX_SWEEPS}):",
        f"        if sqrt(2.0 * ({mass})) < tol:",
        "            break",
    ]
    for pq, pp, qq, pairs in rotations:
        src += [
            # Negated so that a NaN pivot is rotated, not skipped.
            f"        if not abs(a{pq}) <= skip:",
            f"            apq = a{pq}",
            f"            theta = (a{qq} - a{pp}) / (2.0 * apq)",
            "            t = 1.0 / (abs(theta) + sqrt(theta * theta + 1.0))",
            "            if theta < 0.0:",
            "                t = -t",
            "            c = 1.0 / sqrt(t * t + 1.0)",
            "            s = t * c",
            "            tau = s / (1.0 + c)",
            f"            a{pq} = 0.0",
            f"            a{pp} -= t * apq",
            f"            a{qq} += t * apq",
        ] + [
            f"            a{g}, a{h} = a{g} - s * (a{h} + tau * a{g}),"
            f" a{h} + s * (a{g} - tau * a{h})"
            for g, h in pairs
        ]
    values = ", ".join(f"a{k}" for k in diagonal)
    src += [
        "    else:",
        "        raise ArithmeticError('Jacobi iteration did not converge')",
        f"    return [{values}]",
    ]
    namespace = {"sqrt": math.sqrt}
    exec(compile("\n".join(src), f"<jacobi sweep, order {n}>", "exec"), namespace)
    return namespace["sweep"]


def _jacobi_flat(n: int, a: list[float], tol: float) -> list[float]:
    """Cyclic Jacobi sweeps on the n x n symmetric matrix whose row-major
    float entries are a, until the off-diagonal Frobenius mass drops below
    tol; returns the diagonal values.  It runs the compiled sweep of order
    n (_sweep) for 2 <= n <= CANONICAL_ORDER_CAP, and _plan_sweep for every
    other order.  Both keep only the upper triangle current."""
    skip = tol / (4.0 * n * n)
    if 2 <= n <= CANONICAL_ORDER_CAP:
        return _sweep(n)(a, tol, skip)
    return _plan_sweep(n, a, tol, skip)


def _plan_sweep(n: int, a: list[float], tol: float, skip: float) -> list[float]:
    """The Jacobi loop of _sweep, walking _rotation_plan(n) over the flat
    list a (updated in place) instead of compiling it."""
    upper, rotations = _rotation_plan(n)
    for _ in range(_MAX_SWEEPS):
        mass = 0.0
        for k in upper:
            x = a[k]
            mass += x * x
        if math.sqrt(2.0 * mass) < tol:
            break
        for pq, pp, qq, pairs in rotations:
            apq = a[pq]
            if abs(apq) <= skip:
                continue
            theta = (a[qq] - a[pp]) / (2.0 * apq)
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
    else:
        raise ArithmeticError("Jacobi iteration did not converge")
    return a[::n + 1]


def eigen_sym(g: Graph) -> tuple[float, ...]:
    """Full adjacency spectrum of g, sorted descending."""
    return tuple(_eigenvalues(g.order, g.rows))


def lambda_max(g: Graph) -> float:
    """Largest adjacency eigenvalue, to within DEFAULT_TOL (1e-9), computed
    once per labelled graph."""
    return _lambda_max(g.order, g.rows)


@lru_cache(maxsize=1 << 15)
def _lambda_max(order: int, rows: tuple[int, ...]) -> float:
    """The memo behind lambda_max.  It is keyed on the plain (order, rows),
    so it keeps no Graph, and no memoised labelling, alive; 2**15 entries
    hold every labelled graph of the order-8 census (12,691)."""
    return _eigenvalues(order, rows)[0]


def _eigenvalues(order: int, rows: tuple[int, ...]) -> list[float]:
    """The eigenvalues of the graph with these row masks, sorted in
    descending order.  The rows' 0/1 entries go straight to the kernel as
    floats, one memoised tuple per row; the values must sum to the trace,
    which is zero."""
    a: list[float] = []
    for row in rows:
        a += _row_floats(order, row)
    values = _jacobi_flat(order, a, DEFAULT_TOL)
    values.sort(reverse=True)
    if abs(sum(values)) > max(DEFAULT_TOL, 1e-12 * len(values)):
        raise ArithmeticError("eigenvalue sum drifted from the trace")
    return values


def lambda_max_certified(g: Graph, v: float) -> bool:
    """True iff v is proved to be lambda_max(g) to within eps =
    DEFAULT_TOL * max(1, |v|): the proof puts lambda_max(g) in [lo, hi], the
    floats v - eps and v + eps rounded outward.  No Jacobi sweep runs.

    For the nonnegative symmetric adjacency matrix A and a positive vector
    y, two classical bounds hold:
    - lambda_max(A) <= max_i (Ay)_i / y_i (Collatz 1942, Wielandt 1950);
    - lambda_max(A) >= y'Ay / y'y, the Rayleigh quotient.
    Both are checked in integer arithmetic, on y scaled to positive
    integers Y of 52 significant bits and on the exact ratios of lo and hi:
    (AY)_i * hi_den <= hi_num * Y_i for every i, and
    Y'AY * lo_den >= lo_num * Y'Y.  So no rounding lets a wrong v pass.

    y comes from one float solve of (sI - A) y = 1 with s = v + eps / 2,
    by Gaussian elimination without pivot exchanges.  When v is honest, s
    exceeds lambda_max, so sI - A is positive definite (every pivot is
    positive) and its inverse, the sum of A**k / s**(k+1), is entrywise
    nonnegative with a positive diagonal: y_i >= 1 / s, and
    (Ay)_i / y_i = s - 1 / y_i < hi.  An eigenvector of eigenvalue mu
    enters y with weight 1 / (s - mu), so y leans on the top eigenvectors,
    and its Rayleigh quotient falls short of lambda_max by far less than
    eps unless another eigenvalue lies within a few eps of it.  A
    non-positive pivot, or entry of Y, gives False: the float solve only
    proposes Y, and rounding in it can only make an honest v fail."""
    eps = DEFAULT_TOL * max(1.0, abs(v))
    hi = math.nextafter(v + eps, math.inf)
    lo = math.nextafter(v - eps, -math.inf)
    # Also false for NaN, and for a bound past the float range.
    if not -math.inf < lo <= hi < math.inf:
        return False
    n, rows = g.order, g.rows
    s = v + eps / 2
    # sI - A, whose upper triangle is reduced in place: the trailing block
    # of a symmetric matrix stays symmetric under elimination.
    m = [[-x for x in _row_floats(n, row)] for row in rows]
    for i in range(n):
        m[i][i] = s
    b = [1.0] * n
    for k in range(n):
        mk = m[k]
        pivot = mk[k]
        if not pivot > 0.0:
            return False
        bk = b[k]
        for i in range(k + 1, n):
            f = mk[i] / pivot
            if f:
                mi = m[i]
                for j in range(i, n):
                    mi[j] -= f * mk[j]
                b[i] -= f * bk
    y = [0.0] * n
    for i in range(n - 1, -1, -1):
        mi = m[i]
        acc = b[i]
        for j in range(i + 1, n):
            acc -= mi[j] * y[j]
        y[i] = acc / mi[i]
        if not 0.0 < y[i] < math.inf:
            return False
    shift = 52 - math.frexp(max(y))[1]
    ys = [int(math.ldexp(x, shift)) for x in y]
    if min(ys) <= 0:
        return False
    hi_num, hi_den = hi.as_integer_ratio()
    lo_num, lo_den = lo.as_integer_ratio()
    quadratic = 0
    for row, yi in zip(rows, ys):
        ay = 0
        while row:
            low = row & -row
            ay += ys[low.bit_length() - 1]
            row ^= low
        if ay * hi_den > hi_num * yi:
            return False
        quadratic += ay * yi
    return quadratic * lo_den >= lo_num * sum(x * x for x in ys)


@lru_cache(maxsize=1 << 12)
def _row_floats(order: int, row: int) -> tuple[float, ...]:
    """The adjacency matrix row, in 0.0 and 1.0 entries, of the row mask of
    a graph of the given order; every row of order 8 or less fits the memo."""
    return tuple(float(row >> j & 1) for j in range(order))


def spectrum_is_symmetric(values: tuple[float, ...]) -> bool:
    """True iff the descending spectrum is symmetric about zero (within
    2*DEFAULT_TOL)."""
    n = len(values)
    return all(abs(values[i] + values[n - 1 - i]) <= 2.0 * DEFAULT_TOL for i in range(n))


def perron(g: Graph) -> tuple[float, tuple[float, ...]]:
    """Perron value and positive unit vector of a connected graph, by power
    iteration from the all-ones vector.  The iteration runs on A + I so
    bipartite spectra (where -lambda_max ties lambda_max in magnitude)
    cannot oscillate.

    A step that moves the vector by dist, after one that moved it by prev,
    contracts at the rate r = dist / prev and leaves an error of about
    dist * r / (1 - r) = dist**2 / (prev - dist), so the iteration stops
    only once that, and dist itself, are below DEFAULT_TOL.
    """
    if not is_connected(g):
        raise PreconditionError("perron requires a connected graph")
    n = g.order
    rows = g.rows
    v = [1.0 / math.sqrt(n)] * n
    prev = math.inf
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
        if dist < DEFAULT_TOL and dist * dist < DEFAULT_TOL * (prev - dist):
            break
        prev = dist
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
    return value, tuple(v)
