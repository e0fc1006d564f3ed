"""Independent oracles the package implementations are tested against.

Nothing here imports from graphfactor's modules under test beyond the
plain Graph container; expected values are recomputed from first
principles (permutation orbits, cofactor determinants, exact bisection).
The one exception is the edge ladder, a reference for the order in which
classes are generated, not for the labelling (which has its own
reference below), so it keys its classes with the package's canonical_key.
The search reference is the engine's old whole-row consistency test; it
shares the search module's config, counters, bit table and P3 degree
tables, read by the pair predicate _pairs_in_ranges below.  It starts from
the per-graph root filter below, or, without the filter, from full rows
under the plain degree-product test.  The screen reference is the old
rule-by-rule screen on the graphs module's predicates; it shares the
conditions module's report types, statuses and rule texts.

The module also holds what tests need and no command does: the integer
matrix product, identity and commutation test, the matrix-to-graph and
matrix-to-witness conversions, edge lists and relabelled copies of
graphs, the path, star, complete bipartite, Pruefer tree and edge-list
generators, the acyclic classification, and
factor_naive, the definition A = BC transcribed over every pair of
candidate matrices (order <= 5), the ground truth for the pruned search.
"""
from __future__ import annotations

import heapq
import math
from enum import Enum
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations

from graphfactor.conditions import (
    _RULE_REFS,
    STATUS_PASS,
    STATUS_RULED_OUT,
    ConditionReport,
    RuleResult,
)
from graphfactor.errors import ParameterError, PreconditionError, UnsupportedSizeError
from graphfactor.factorization import Factorization, IntMatrix
from graphfactor.graphs import (
    Graph,
    canonical_form,
    canonical_key,
    components,
    contains_c4,
    graph_from_key,
    has_isolated_vertex,
    is_edgeless,
)
from graphfactor.search import (
    SearchConfig,
    SearchStats,
    _BITS,
    _SPAN,
    _STRIDE,
    _FoundEnough,
    _LimitReached,
    _pair_tables,
    _refuted_stats,
    _root_rows,
    _v1_pairs,
)


# ---------------------------------------------------------------------------
# helpers no command needs: the integer matrix product, the test-input
# generators, the acyclic classification, and the naive factorization
# enumeration with the P3 range test the search inlines.
# ---------------------------------------------------------------------------

def multiply(m: IntMatrix, other: IntMatrix) -> IntMatrix:
    n = len(m.entries)
    if len(other.entries) != n:
        raise ParameterError(f"order mismatch: {n} vs {len(other.entries)}")
    cols = tuple(tuple(other.entries[k][j] for k in range(n)) for j in range(n))
    out = []
    for row in m.entries:
        out.append(tuple(sum(a * b for a, b in zip(row, col)) for col in cols))
    return IntMatrix(tuple(out))


def commute(m: IntMatrix, other: IntMatrix) -> bool:
    if len(m.entries) != len(other.entries):
        raise ParameterError(f"order mismatch: {len(m.entries)} vs {len(other.entries)}")
    return multiply(m, other) == multiply(other, m)


def identity(n: int) -> IntMatrix:
    return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


def first_adjacency_violation(m: IntMatrix) -> tuple[int, int, str] | None:
    """First entry (row-major) stopping m from being an adjacency matrix."""
    n = len(m.entries)
    for i in range(n):
        for j in range(n):
            x = m.entries[i][j]
            if x not in (0, 1):
                return (i, j, f"entry {x} is not 0 or 1")
            if i == j and x:
                return (i, j, "nonzero diagonal entry")
            if j < i and x != m.entries[j][i]:
                return (i, j, "not symmetric")
    return None


def as_adjacency(m: IntMatrix) -> Graph | None:
    if first_adjacency_violation(m) is not None:
        return None
    return Graph(len(m.entries), tuple(sum(x << j for j, x in enumerate(row)) for row in m.entries))


def factorization_from_matrices(a: IntMatrix, b: IntMatrix, c: IntMatrix) -> Factorization:
    """The witness whose adjacency matrices are a, b and c; PreconditionError
    unless all three are adjacency matrices and b*c = a."""
    if not (len(a.entries) == len(b.entries) == len(c.entries)):
        raise ParameterError("factorization matrices must share one order")
    g, h, k = as_adjacency(a), as_adjacency(b), as_adjacency(c)
    if g is None or h is None or k is None:
        raise PreconditionError("factorization matrices must be adjacency matrices")
    return Factorization(g, h, k)


def edges(g: Graph) -> list[tuple[int, int]]:
    """The edges (u, v), u < v, in row-major order."""
    return [(u, v) for u in range(g.order) for v in range(u + 1, g.order) if g.rows[u] >> v & 1]


def permute(g: Graph, images) -> Graph:
    """Relabelled copy of g: vertex v becomes images[v]."""
    return Graph.from_edges(g.order, [(images[u], images[v]) for u, v in edges(g)])


def path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star(n: int) -> Graph:
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ParameterError("complete bipartite sides must be at least 1")
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def tree_from_pruefer(seq) -> Graph:
    """Tree on len(seq)+2 vertices from its Pruefer sequence."""
    seq = tuple(seq)
    n = len(seq) + 2
    if any(not (0 <= s < n) for s in seq):
        raise ParameterError(f"Pruefer entries must lie in 0..{n - 1}")
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, s))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return Graph.from_edges(n, edges)


def encode_edge_list(g: Graph) -> str:
    lines = [str(g.order)]
    lines.extend(f"{u} {v}" for u, v in edges(g))
    return "\n".join(lines) + "\n"


class AcyclicClass(Enum):
    TREE = "tree"
    FOREST_MULTI = "forest_multi"
    HAS_CYCLE = "has_cycle"


def classify_acyclic(g: Graph) -> tuple[AcyclicClass, int]:
    comps = components(g)
    ncomp = len(comps)
    if g.edge_count + ncomp != g.order:
        return AcyclicClass.HAS_CYCLE, ncomp
    if ncomp == 1:
        return AcyclicClass.TREE, 1
    return AcyclicClass.FOREST_MULTI, ncomp


def factor_naive(g: Graph) -> list[Factorization]:
    """Complete enumeration oracle: all 2^(n(n-1)/2) x 2^(n(n-1)/2) candidate
    pairs in lexicographic order of B then C, keeping exact products."""
    n = g.order
    if n > 5:
        raise UnsupportedSizeError("naive enumeration is capped at order 5")
    cg = canonical_form(g)
    arow = cg.rows
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = len(pairs)
    candidates: list[tuple[int, ...]] = []
    for mask in range(1 << m):
        rows = [0] * n
        for t, (i, j) in enumerate(pairs):
            if mask >> t & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        candidates.append(tuple(rows))
    rng = range(n)
    out: list[Factorization] = []
    for rb in candidates:
        for rc in candidates:
            ok = True
            for i in rng:
                rbi = rb[i]
                ai = arow[i]
                for j in rng:
                    if (rbi & rc[j]).bit_count() != ai >> j & 1:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                out.append(Factorization(cg, Graph(n, rb), Graph(n, rc)))
    return out


def _pairs_in_ranges(table: tuple[int, ...], lo: int, hi: int, olo: int, ohi: int) -> int:
    """P3 at one vertex: the other degrees of its pairs with own degree in
    [lo, hi] and other degree in [olo, ohi], the committed and possible
    degrees on each side.  P3 holds when some are left; when the variable
    (u, w) is set to 1, V2 also needs the rows of u and w to meet, since
    u and w then share their degree on the other side (README)."""
    return table[lo * _STRIDE + hi] & _SPAN[olo][ohi]


def g6_encode(n: int, edges) -> str:
    """Direct transcription of the graph6 packing procedure."""
    edge_set = {frozenset(e) for e in edges}
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if frozenset((i, j)) in edge_set else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(63 + n)]
    for t in range(0, len(bits), 6):
        acc = 0
        for b in bits[t : t + 6]:
            acc = acc << 1 | b
        out.append(chr(63 + acc))
    return "".join(out)


def all_labeled_graphs(n: int):
    """Every labeled graph on n vertices, as a Graph."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for mask in range(1 << len(pairs)):
        edges = [pairs[t] for t in range(len(pairs)) if mask >> t & 1]
        yield Graph.from_edges(n, edges)


def orbit_min_mask(g: Graph) -> tuple[int, ...]:
    """Minimal row-tuple over all relabelings; a complete iso invariant."""
    n = g.order
    best = None
    for images in permutations(range(n)):
        rows = [0] * n
        for old in range(n):
            m = g.rows[old]
            while m:
                w = (m & -m).bit_length() - 1
                m &= m - 1
                rows[images[old]] |= 1 << images[w]
        rows_t = tuple(rows)
        if best is None or rows_t < best:
            best = rows_t
    return best


def brute_class_reps(n: int) -> dict[tuple[int, ...], Graph]:
    """Isomorphism classes by brute-force orbit minimization (n <= 5)."""
    reps: dict[tuple[int, ...], Graph] = {}
    for g in all_labeled_graphs(n):
        key = orbit_min_mask(g)
        if key not in reps:
            reps[key] = Graph(n, key)
    return reps


def lexmin_order_reference(g: Graph) -> tuple[str, tuple[int, ...]]:
    """Minimal column-major upper-triangle bit-string and the least placement
    realizing it, by a plain frontier scan: every partial placement that
    still realizes the minimal prefix is kept, and every free vertex's
    block is built bit by bit.  The reference for graphs._canonical_order."""
    n = g.order
    if n == 1:
        return "", (0,)
    rows = g.rows
    frontier: list[tuple[int, ...]] = [(v,) for v in range(n)]
    blocks: list[str] = []
    for k in range(1, n):
        best = -1
        extended: list[tuple[int, ...]] = []
        for placed in frontier:
            used = 0
            for p in placed:
                used |= 1 << p
            for u in range(n):
                if used >> u & 1:
                    continue
                block = 0
                row = rows[u]
                for p in placed:
                    block = block << 1 | (row >> p & 1)
                if best < 0 or block < best:
                    best = block
                    extended = [placed + (u,)]
                elif block == best:
                    extended.append(placed + (u,))
        frontier = extended
        blocks.append(format(best, f"0{k}b"))
    return "".join(blocks), frontier[0]


def _rule_r1(g: Graph) -> tuple[str, str]:
    e = g.edge_count
    if e % 2 == 1:
        return STATUS_RULED_OUT, f"{e} edges (odd)"
    return STATUS_PASS, f"{e} edges (even)"


def _rule_r2(g: Graph) -> tuple[str, str]:
    if contains_c4(g):
        return STATUS_PASS, "contains a 4-cycle"
    if has_isolated_vertex(g):
        return STATUS_PASS, "has an isolated vertex"
    if g.order % 2 == 1:
        return STATUS_RULED_OUT, f"order {g.order} odd, no 4-cycle, no isolated vertex"
    return STATUS_PASS, f"order {g.order} even"


def _rule_r3(g: Graph) -> tuple[str, str]:
    kind, _ = classify_acyclic(g)
    if kind is AcyclicClass.TREE and g.order >= 2:
        return STATUS_RULED_OUT, f"tree on {g.order} vertices"
    return STATUS_PASS, "not a tree of order at least 2"


def _rule_r4(g: Graph) -> tuple[str, str]:
    kind, ncomp = classify_acyclic(g)
    if kind is AcyclicClass.HAS_CYCLE:
        return STATUS_PASS, "contains a cycle"
    if has_isolated_vertex(g):
        return STATUS_PASS, "has an isolated vertex"
    if ncomp % 2 == 1:
        return STATUS_RULED_OUT, f"forest with {ncomp} components (odd), no isolated vertex"
    return STATUS_PASS, f"forest with {ncomp} components (even)"


_RULES = {
    "R1": _rule_r1,
    "R2": _rule_r2,
    "R3": _rule_r3,
    "R4": _rule_r4,
}


def screen_reference(g: Graph) -> ConditionReport:
    """Every rule evaluated on its own, each recomputing what it reads.
    The reference for conditions.screen."""
    rules = []
    for rule_id in sorted(_RULES):
        status, detail = _RULES[rule_id](g)
        rules.append(RuleResult(rule_id, status, _RULE_REFS[rule_id], detail))
    return ConditionReport(tuple(rules), trivial=is_edgeless(g))


def ladder_class_keys(n: int) -> list[str]:
    """Canonical keys of every class at order n, sorted, by the edge ladder:
    level by level from the edgeless graph, add each missing edge to each
    class of the level and keep the children whose key is new.  The
    reference for census.enumerate_graphs."""
    keys: dict[str, Graph] = {}
    edgeless_key = "0" * (n * (n - 1) // 2)
    base = graph_from_key(n, edgeless_key)
    keys[edgeless_key] = base
    level = [base]
    memo: dict[tuple[int, ...], str] = {}
    while level:
        nxt: dict[str, Graph] = {}
        for g in level:
            for u in range(n):
                for v in range(u + 1, n):
                    if g.rows[u] >> v & 1:
                        continue
                    rows = list(g.rows)
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
                    mask = tuple(rows)
                    key = memo.get(mask)
                    if key is None:
                        key = canonical_key(Graph(n, mask))
                        memo[mask] = key
                    if key not in keys and key not in nxt:
                        nxt[key] = graph_from_key(n, key)
        keys.update(nxt)
        level = list(nxt.values())
    return sorted(keys)


def _off_norm(a: list[list[float]]) -> float:
    n = len(a)
    s = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            s += a[i][j] * a[i][j]
    return math.sqrt(2.0 * s)


def jacobi_reference(mat, tol: float, want_vectors: bool):
    """Cyclic Jacobi sweeps on nested row lists, one float operation at a
    time, until the off-diagonal Frobenius mass drops below tol.  Returns
    (diagonal values, rotation matrix or None).  The reference for
    spectral._jacobi_flat, which must reproduce every bit of the values;
    the rotation matrix serves the Perron vector test."""
    n = len(mat)
    a = [[float(x) for x in row] for row in mat]
    v = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)] if want_vectors else None
    if n == 1:
        return [a[0][0]], v
    skip = tol / (4.0 * n * n)
    for _ in range(100):
        if _off_norm(a) < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if abs(apq) <= skip:
                    continue
                diff = a[q][q] - a[p][p]
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
                a[p][q] = 0.0
                a[p][p] -= t * apq
                a[q][q] += t * apq
                for i in range(p):
                    g_ = a[i][p]
                    h_ = a[i][q]
                    a[i][p] = g_ - s * (h_ + tau * g_)
                    a[i][q] = h_ + s * (g_ - tau * h_)
                for i in range(p + 1, q):
                    g_ = a[p][i]
                    h_ = a[i][q]
                    a[p][i] = g_ - s * (h_ + tau * g_)
                    a[i][q] = h_ + s * (g_ - tau * h_)
                for i in range(q + 1, n):
                    g_ = a[p][i]
                    h_ = a[q][i]
                    a[p][i] = g_ - s * (h_ + tau * g_)
                    a[q][i] = h_ + s * (g_ - tau * h_)
                if v is not None:
                    for i in range(n):
                        g_ = v[i][p]
                        h_ = v[i][q]
                        v[i][p] = g_ - s * (h_ + tau * g_)
                        v[i][q] = h_ + s * (g_ - tau * h_)
    else:
        raise ArithmeticError("Jacobi iteration did not converge")
    return [a[i][i] for i in range(n)], v


# ---------------------------------------------------------------------------
# exact eigenvalues for tiny matrices: expand det(xI - A) by cofactors,
# split off square-free parts, and bisect with exact integer signs.
# ---------------------------------------------------------------------------

def _poly_add(p, q):
    out = [Fraction(0)] * max(len(p), len(q))
    for i, a in enumerate(p):
        out[i] += a
    for i, b in enumerate(q):
        out[i] += b
    return out


def _poly_scale(p, c):
    return [a * c for a in p]


def _poly_trim(p):
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return p


def _poly_divmod(p, q):
    p = p[:]
    q = _poly_trim(q)
    dq = len(q) - 1
    quo = [Fraction(0)] * max(1, len(p) - dq)
    while len(_poly_trim(p)) - 1 >= dq and any(p):
        p = _poly_trim(p)
        dp = len(p) - 1
        if dp < dq:
            break
        c = p[-1] / q[-1]
        quo[dp - dq] = c
        for i in range(dq + 1):
            p[dp - dq + i] -= c * q[i]
        p = _poly_trim(p)
    return quo, _poly_trim(p)


def _poly_gcd(p, q):
    p, q = _poly_trim(p), _poly_trim(q)
    while any(x != 0 for x in q):
        _, r = _poly_divmod(p, q)
        p, q = q, _poly_trim(r)
    lead = p[-1]
    return [x / lead for x in p] if lead else p


def _poly_diff(p):
    return [i * a for i, a in enumerate(p)][1:] or [Fraction(0)]


def _poly_eval(p, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for a in reversed(p):
        acc = acc * x + a
    return acc


def char_poly(entries) -> list[Fraction]:
    """det(xI - A) as coefficient list, constant term first, by cofactor
    expansion along the top row in integers; each minor is expanded once."""
    n = len(entries)

    @cache
    def det(cols):
        # The minor of xI - A on its last len(cols) rows and these columns.
        r = n - len(cols)
        out = [0] * (len(cols) + 1)
        sign = 1
        for t, c in enumerate(cols):
            minor = det(cols[:t] + cols[t + 1:]) if len(cols) > 1 else [1]
            for i, m in enumerate(minor):
                out[i] -= sign * entries[r][c] * m
                if r == c:
                    out[i + 1] += sign * m
            sign = -sign
        return out

    return [Fraction(x) for x in det(tuple(range(n)))]


def _square_free_decomposition(p):
    """Yun: [(q1, 1), (q2, 2), ...] with p = prod q_i^i up to a constant."""
    p = _poly_trim([x / p[-1] for x in _poly_trim(p)])
    d = _poly_diff(p)
    a = _poly_gcd(p, d)
    b, _ = _poly_divmod(p, a)
    c, _ = _poly_divmod(d, a)
    out = []
    i = 1
    while len(_poly_trim(b)) > 1:
        diff = _poly_add(c, _poly_scale(_poly_diff(b), -1))
        q = _poly_gcd(b, diff)
        if len(_poly_trim(q)) > 1:
            out.append((q, i))
        b, _ = _poly_divmod(b, q)
        c, _ = _poly_divmod(diff, q)
        i += 1
    return out


def _roots_square_free(p, lo: Fraction, hi: Fraction) -> list[Fraction]:
    """All real roots of a real-rooted square-free polynomial via derivative
    interlacing plus exact-sign bisection."""
    p = _poly_trim(p)
    degree = len(p) - 1
    if degree == 0:
        return []
    if degree == 1:
        return [-p[0] / p[1]]
    crit = _roots_square_free(_poly_diff(p), lo, hi)
    points = [lo] + crit + [hi]
    roots = []
    for a, b in zip(points, points[1:]):
        fa, fb = _poly_eval(p, a), _poly_eval(p, b)
        if fa == 0:
            roots.append(a)
            continue
        if fb == 0 or (fa < 0) == (fb < 0):
            continue
        roots.append(_bisect(p, a, b))
    return sorted(set(roots))


def _bisect(p, a: Fraction, b: Fraction, steps: int = 60) -> Fraction:
    """The midpoint of the bracket that halving [a, b] steps times keeps
    around a sign change of p, or the point where p is exactly zero.  The
    points tried are a + (b - a) * j / 2**k, so each sign is that of the
    integer polynomial q(j) * 2**(k * degree), where q(t) is p(a + (b - a) t)
    times a positive integer."""
    den = math.lcm(a.denominator, b.denominator)
    start, width = int(a * den), int((b - a) * den)
    scale = math.lcm(*(c.denominator for c in p))
    degree = len(p) - 1
    # Horner's rule on x = (start + width t) / den, times den**degree; q's
    # coefficients are listed constant term first.
    q = [int(p[degree] * scale)]
    for i in range(degree - 1, -1, -1):
        shifted = [0] + [width * x for x in q]
        q = [start * x + y for x, y in zip(q + [0], shifted)]
        q[0] += int(p[i] * scale) * den ** (degree - i)
    negative_at_a = q[0] < 0
    low = 0  # the bracket is [low, low + 1] / 2**k
    for k in range(1, steps + 1):
        j = 2 * low + 1
        acc = q[degree]
        for i in range(degree - 1, -1, -1):
            acc = acc * j + (q[i] << (k * (degree - i)))
        if acc == 0:
            return a + (b - a) * Fraction(j, 1 << k)
        low = j if (acc < 0) == negative_at_a else 2 * low
    return a + (b - a) * Fraction(2 * low + 1, 1 << (steps + 1))


def exact_eigenvalues(entries) -> list[float]:
    """Eigenvalues (with multiplicity, descending) of a small symmetric
    integer matrix, from the characteristic polynomial."""
    n = len(entries)
    p = char_poly(entries)
    bound = Fraction(n + 1)
    values: list[tuple[float, int]] = []
    for q, mult in _square_free_decomposition(p):
        for root in _roots_square_free(q, -bound, bound):
            values.append((float(root), mult))
    out: list[float] = []
    for v, mult in values:
        out.extend([v] * mult)
    assert len(out) == n, f"expected {n} roots, found {len(out)}"
    return sorted(out, reverse=True)


# The plain degree-product test: some degree pair in the two ranges
# multiplies out to d.  The unfiltered search reference runs P3 on it;
# given the V1 pairs of d, _pairs_in_ranges above decides the same.
@cache
def _degree_range_ok(bmin: int, bmax: int, cmin: int, cmax: int, d: int) -> bool:
    """Some B-degree in [bmin, bmax] times some C-degree in [cmin, cmax]
    equals the A-degree d (the row sums of BC are the products).  The test
    is symmetric in B and C.  Every argument is at most
    CANONICAL_ORDER_CAP, so the cache stays small."""
    if d == 0:
        return bmin == 0 or cmin == 0
    for p in range(max(bmin, 1), bmax + 1):
        if d % p == 0 and cmin <= d // p <= cmax:
            return True
    return False


# The root filter run per graph, every drop from the V1 pairs, with no
# count drops cached per degree sequence.  The reference for
# search._degree_pairs, which must give the same lists in the same order.
def degree_pairs_reference(g: Graph) -> list[list[tuple[int, int]]] | None:
    """The (b, c) = (deg_H, deg_K) pairs each vertex of g can take in a
    witness (H, K), or None when some vertex has none left.

    A = BC = CB with 0/1 entries and zero diagonals gives (README):
    * V1: b_i * c_i = d_i;
    * V2: t ~_H i implies c_t = c_i, and t ~_K i implies b_t = b_i;
    * every edge ij of g has a middle vertex t, not i or j, with
      i ~_H t ~_K j, so (b_t, c_t) = (b_j, c_i);
    * N_H(i) and N_K(i) are disjoint, and by V2 lie among the other
      vertices that can take K-degree c_i and H-degree b_i respectively;
    * every vertex of N_H(i) is adjacent in g to every vertex of N_K(i).
    Starting from the V1 pairs, a pair (b, c) of vertex i is dropped when
    fewer than b other vertices can take K-degree c, fewer than c can take
    H-degree b, or fewer than b + c either; when a neighbour j has no
    H-degree b' that some vertex other than i and j takes as (b', c); or
    when no b such vertices of K-degree c and c other such vertices of
    H-degree b have every edge between them in g (tried over every subset
    of both sides).  Every drop runs on every pass, from the V1 pairs.
    The drops repeat until none applies (arc consistency, Mackworth 1977);
    each keeps every witness's pairs, so None proves there is no witness.
    """
    n = g.order
    rows = g.rows
    full = (1 << n) - 1
    v1 = _v1_pairs(n)
    doms = [list(v1[row.bit_count()]) for row in rows]
    changed = True
    while changed:
        changed = False
        # Vertex masks of who can take H-degree b, K-degree c, and the pair
        # (b, c) at index b * n + c; bvals[i] has bit b set when vertex i
        # can take H-degree b.
        withb = [0] * n
        withc = [0] * n
        withpair = [0] * (n * n)
        bvals = [0] * n
        for i, dom in enumerate(doms):
            bit = 1 << i
            for b, c in dom:
                withb[b] |= bit
                withc[c] |= bit
                withpair[b * n + c] |= bit
                bvals[i] |= 1 << b
        # middle[bvals[j] * n + c]: who can take (b', c) for a b' of j.
        middle: dict[int, int] = {}
        for i, dom in enumerate(doms):
            others = full ^ (1 << i)
            kept = []
            for pair in dom:
                b, c = pair
                hs = withc[c] & others
                ks = withb[b] & others
                if hs.bit_count() < b or ks.bit_count() < c or (hs | ks).bit_count() < b + c:
                    continue
                for j in _BITS[rows[i]]:
                    key = bvals[j] * n + c
                    mid = middle.get(key)
                    if mid is None:
                        mid = 0
                        for bj in _BITS[bvals[j]]:
                            mid |= withpair[bj * n + c]
                        middle[key] = mid
                    if not mid & others & ~(1 << j):
                        break
                else:
                    # No vertex is its own neighbour, so xs and ys with
                    # every edge between them are disjoint.
                    if any(
                        all(rows[x] >> y & 1 for x in xs for y in ys)
                        for xs in combinations(_BITS[hs], b)
                        for ys in combinations(_BITS[ks], c)
                    ):
                        kept.append(pair)
            if len(kept) < len(dom):
                if not kept:
                    return None
                doms[i] = kept
                changed = True
    return doms


# The search engine as it was before its consistency test went incremental:
# every node re-ORs the whole of each changed row.  The reference for
# search._Engine, which must give the same witnesses in the same order and
# the same counters.
class _WholeRowEngine:
    """Backtracker over the upper triangles of B and C, interleaved in
    vertex-major order with high-degree vertices of A first.

    Mirror rule: A = BC is symmetric, so CB = A too and every witness (B, C)
    has the mirror (C, B); the zero diagonal of BC means B and C share no
    edge.  The engine never sets B_uw = 1 while every earlier variable is 0,
    so it only visits witnesses whose first edge in variable order lies in C.
    The mirror of any other witness comes earlier in depth-first order, so
    the first witness is the one the unbroken search finds first; in all
    mode the mirrors are added back and the list sorted into depth-first
    order.
    """

    def __init__(self, g: Graph, cfg: SearchConfig, pairs=None):
        self.g = g
        self.cfg = cfg
        self.n = n = g.order
        self.arow = g.rows
        self.deg = degs = [row.bit_count() for row in g.rows]
        order = sorted(range(n), key=lambda v: (-degs[v], v))
        self.vars: list[tuple[int, int, int]] = []
        for i in range(n):
            for j in range(i + 1, n):
                u, w = order[i], order[j]
                self.vars.append((0, u, w))
                self.vars.append((1, u, w))
        full = (1 << n) - 1
        self.comm1b = [0] * n
        self.comm1c = [0] * n
        self.tables = None
        if pairs is None:
            self.possb = [full ^ (1 << i) for i in range(n)]
            self.possc = [full ^ (1 << i) for i in range(n)]
        else:
            self.possb, self.possc = _root_rows(pairs)
            self.tables = _pair_tables(pairs)
        self.nvars = len(self.vars)
        # Per side: the committed and possible rows of the side a variable
        # sets, then those of the other side.
        self.sides = (
            (self.comm1b, self.possb, self.comm1c, self.possc),
            (self.comm1c, self.possc, self.comm1b, self.possb),
        )
        self.stats = SearchStats()
        self.witnesses: list[Factorization] = []

    def run(self) -> tuple[list[Factorization], SearchStats]:
        try:
            self._extend(0, True)
            self.stats.exhausted = True
        except _LimitReached:
            self.stats.exhausted = False
        except _FoundEnough:
            self.stats.exhausted = False
        if self.cfg.mode == "all":
            self._add_mirrors()
        self.stats.witnesses_found = len(self.witnesses)
        return self.witnesses, self.stats

    def _add_mirrors(self) -> None:
        found = self.witnesses
        mirrors = [Factorization(f.g, f.k, f.h) for f in found if f.h.rows != f.k.rows]

        def dfs_position(f: Factorization) -> tuple[int, ...]:
            rows = (f.h.rows, f.k.rows)
            return tuple(rows[side][u] >> w & 1 for side, u, w in self.vars)

        self.witnesses = sorted(found + mirrors, key=dfs_position)

    def _extend(self, t: int, lead: bool) -> None:
        """Assign variable t onwards; lead is true while every earlier
        variable is 0."""
        if t == self.nvars:
            self._leaf()
            return
        side, u, w = self.vars[t]
        bit_u = 1 << u
        bit_w = 1 << w
        comm, poss = self.sides[side][:2]
        stats = self.stats
        limit = self.cfg.node_limit
        skip_one = lead and side == 0 or not poss[u] >> w & 1
        for val in (0,) if skip_one else (0, 1):
            stats.nodes_expanded += 1
            if stats.nodes_expanded > limit:
                raise _LimitReached
            save_cu, save_cw = comm[u], comm[w]
            save_pu, save_pw = poss[u], poss[w]
            if val:
                comm[u] |= bit_w
                comm[w] |= bit_u
            else:
                poss[u] &= ~bit_w
                poss[w] &= ~bit_u
            if self._consistent(side, u, w, val):
                self._extend(t + 1, lead and not val)
            comm[u], comm[w] = save_cu, save_cw
            poss[u], poss[w] = save_pu, save_pw

    def _consistent(self, side: int, u: int, w: int, val: int) -> bool:
        """P1/P2 on the changed rows u and w of B (side 0) or columns of C
        (side 1), a whole row at a time, then P3 on the degrees of u and w:
        the pair predicate (with V2 after a 1) from the root pairs, or the
        plain degree-product test without them.

        For row i of B, entry j of BC counts |b_i & c_j|.  C is symmetric,
        so j is in comm1c[k] exactly when k is in c_j: OR-ing comm1c[k] over
        k in b_i marks the columns where the committed count is >= 1 (one)
        and >= 2 (two), and OR-ing possc[k] over k in possb[i] marks those
        where the possible count is >= 1 (reach).  A is 0/1, so these masks
        decide both bounds.  The lowest violating column names the rule, as
        a scan over j would.  A column of C is the same with B and C swapped.

        Setting a 1 only raises committed counts and setting a 0 only lowers
        possible ones.  Every entry met both bounds at the parent node, so
        only the bound that moved is checked.  The root is the one exception:
        in K2 the edge is unreachable from the start, but the mirror rule
        skips K2's only B value 1, so that state is never extended by a 1.
        """
        comm, poss, other_comm, other_poss = self.sides[side]
        arow = self.arow
        for i in (u, w):
            if val:
                one = two = 0
                for k in _BITS[comm[i]]:
                    ck = other_comm[k]
                    two |= one & ck
                    one |= ck
                viol = two | (one & ~arow[i])
            else:
                reach = 0
                for k in _BITS[poss[i]]:
                    reach |= other_poss[k]
                viol = arow[i] & ~reach
            if viol:
                self.stats.prunes_by_rule["P2" if viol & -viol == 1 << i else "P1"] += 1
                return False
        if self.tables is not None:
            tables = self.tables[side]
            fu, fw = [
                _pairs_in_ranges(
                    tables[x],
                    comm[x].bit_count(),
                    poss[x].bit_count(),
                    other_comm[x].bit_count(),
                    other_poss[x].bit_count(),
                )
                for x in (u, w)
            ]
            # P3 at u and at w, then V2 after a 1: u and w share a degree
            # on the other side.
            if not fu or not fw or val and not fu & fw:
                self.stats.prunes_by_rule["P3"] += 1
                return False
            return True
        comm1b, possb, comm1c, possc = self.comm1b, self.possb, self.comm1c, self.possc
        deg = self.deg
        for x in (u, w):
            if not _degree_range_ok(
                comm1b[x].bit_count(),
                possb[x].bit_count(),
                comm1c[x].bit_count(),
                possc[x].bit_count(),
                deg[x],
            ):
                self.stats.prunes_by_rule["P3"] += 1
                return False
        return True

    def _leaf(self) -> None:
        n = self.n
        rb = self.comm1b
        rc = self.comm1c
        for i in range(n):
            rbi = rb[i]
            ai = self.arow[i]
            for j in range(n):
                if (rbi & rc[j]).bit_count() != ai >> j & 1:
                    return
        self.witnesses.append(Factorization(self.g, Graph(n, tuple(rb)), Graph(n, tuple(rc))))
        if self.cfg.mode == "first":
            raise _FoundEnough


def bound_violations(arow, comm1b, possb, comm1c, possc) -> set[str]:
    """The rules a search state breaks: the whole-row test of
    _WholeRowEngine._consistent on every row of B and of C, for committed
    and possible counts alike, then the degree test on every vertex."""
    n = len(arow)
    out = set()
    for comm, poss, other_comm, other_poss in (
        (comm1b, possb, comm1c, possc),
        (comm1c, possc, comm1b, possb),
    ):
        for i in range(n):
            one = two = reach = 0
            for k in _BITS[comm[i]]:
                two |= one & other_comm[k]
                one |= other_comm[k]
            for k in _BITS[poss[i]]:
                reach |= other_poss[k]
            viol = two | (one & ~arow[i]) | (arow[i] & ~reach)
            if viol & ~(1 << i):
                out.add("P1")
            if viol >> i & 1:
                out.add("P2")
    for x in range(n):
        if not _degree_range_ok(
            comm1b[x].bit_count(),
            possb[x].bit_count(),
            comm1c[x].bit_count(),
            possc[x].bit_count(),
            arow[x].bit_count(),
        ):
            out.add("P3")
    return out


def search_reference(
    g: Graph,
    cfg: SearchConfig = SearchConfig(),
    *,
    root_filter: bool = True,
):
    """search.factor_search on the whole-row engine: (witnesses, stats).
    With root_filter set, the search starts from the rows the degree pairs
    of the canonical form (by degree_pairs_reference) leave, and a graph
    with no pairs costs one node and one P3 prune, as in
    search.factor_search; without root_filter it starts from full rows."""
    cg = canonical_form(g)
    pairs = None
    if root_filter:
        pairs = degree_pairs_reference(cg)
        if pairs is None:
            return [], _refuted_stats()
    return _WholeRowEngine(cg, cfg, pairs).run()
