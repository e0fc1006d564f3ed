"""Decide and enumerate matrix-product factorizations A = BC.

Three routes:

* factor_naive  - transcription of the definition: enumerate every pair of
  symmetric 0-1 zero-diagonal matrices (order <= 5) and keep exact products.
  This is the ground-truth oracle the pruned search is tested against.
* factor_search - backtracking over the unknown upper-triangle entries of B
  and C with forward checking (entry bounds, zero diagonal, degree products).
  A = BC = CB, so each witness (B, C) has the mirror (C, B); the search only
  visits witnesses whose first edge in variable order lies in C, and all-mode
  results add every mirror back, in the order the unbroken search found them.
* construct     - the explicit witness families: the cycle product, the
  doubled graph, and the disconnected eigenvalue counterexample.

is_factorizable is the one decision path from a graph to a verdict; the CLI
and the census both go through it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from .conditions import ConditionReport, screen, validate_factorization
from .errors import (
    ParameterError,
    PreconditionError,
    TheoremViolationError,
    UnsupportedSizeError,
)
from .exact import IntMatrix, adjacency
from .factorization import Factorization
from .graphs import (
    CANONICAL_ORDER_CAP,
    Graph,
    canonical_form,
    canonical_key,
    components,
    cycle,
    degree_sequence,
    disjoint_union,
    edgeless,
    graph_bits,
    is_bipartite,
    is_connected,
    is_edgeless,
    matching,
)

PRUNE_RULES = ("P1", "P2", "P3")

DEFAULT_NODE_LIMIT = 100_000_000


@dataclass(frozen=True)
class SearchConfig:
    mode: str = "first"
    node_limit: int = DEFAULT_NODE_LIMIT
    order_cap: int = CANONICAL_ORDER_CAP

    def __post_init__(self) -> None:
        if self.mode not in ("first", "all"):
            raise ParameterError(f"mode must be 'first' or 'all', got {self.mode!r}")
        if self.node_limit <= 0:
            raise ParameterError("node_limit must be positive")


@dataclass
class SearchStats:
    nodes_expanded: int = 0
    prunes_by_rule: dict[str, int] = field(
        default_factory=lambda: {r: 0 for r in PRUNE_RULES}
    )
    witnesses_found: int = 0
    exhausted: bool = False


@dataclass(frozen=True)
class FactorDecision:
    verdict: str  # "yes" | "no" | "unknown"
    witnesses: tuple[Factorization, ...]
    report: ConditionReport
    stats: SearchStats | None  # None when no search ran

    @property
    def witness(self) -> Factorization | None:
        return self.witnesses[0] if self.witnesses else None


def fix_labeling(g: Graph) -> IntMatrix:
    """Adjacency matrix of the canonical relabeling; every isomorphic copy
    maps to the same matrix, so the search runs on one labeling only."""
    return adjacency(canonical_form(g))


def factor_naive(g: Graph) -> list[Factorization]:
    """Complete enumeration oracle: all 2^(n(n-1)/2) x 2^(n(n-1)/2) candidate
    pairs in lexicographic order of B then C, keeping exact products."""
    n = g.order
    if n > 5:
        raise UnsupportedSizeError("naive enumeration is capped at order 5")
    cg = canonical_form(g)
    aij = [list(row) for row in adjacency(cg).entries]
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
                ai = aij[i]
                for j in rng:
                    if (rbi & rc[j]).bit_count() != ai[j]:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                out.append(Factorization(cg, Graph(n, rb), Graph(n, rc)))
    return out


class _LimitReached(Exception):
    pass


class _FoundEnough(Exception):
    pass


# The set bits of every vertex mask a search can hold (canonical forms, and
# so searches, stop at CANONICAL_ORDER_CAP vertices).
_BITS = tuple(
    tuple(k for k in range(CANONICAL_ORDER_CAP) if m >> k & 1)
    for m in range(1 << CANONICAL_ORDER_CAP)
)


@cache
def _degree_range_ok(bmin: int, bmax: int, cmin: int, cmax: int, d: int) -> bool:
    """Some B-degree in [bmin, bmax] times some C-degree in [cmin, cmax]
    equals the A-degree d (the row sums of BC are the products).  Every
    argument is at most CANONICAL_ORDER_CAP, so the cache stays small."""
    if d == 0:
        return bmin == 0 or cmin == 0
    for p in range(max(bmin, 1), bmax + 1):
        if d % p == 0 and cmin <= d // p <= cmax:
            return True
    return False


class _Engine:
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

    def __init__(self, g: Graph, cfg: SearchConfig, disabled: frozenset):
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
        self.possb = [full ^ (1 << i) for i in range(n)]
        self.comm1c = [0] * n
        self.possc = [full ^ (1 << i) for i in range(n)]
        # Columns of row i that P1 (off the diagonal) and P2 (on it) check.
        p1 = "P1" not in disabled
        p2 = "P2" not in disabled
        self.check = [
            (full ^ (1 << i) if p1 else 0) | (1 << i if p2 else 0) for i in range(n)
        ]
        self.p3 = "P3" not in disabled
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
        for val in (0,) if lead and side == 0 else (0, 1):
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
        (side 1), a whole row at a time, then P3 on the degrees of u and w.

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
        check = self.check
        for i in (u, w):
            if val:
                one = two = 0
                for k in _BITS[comm[i]]:
                    ck = other_comm[k]
                    two |= one & ck
                    one |= ck
                viol = (two | (one & ~arow[i])) & check[i]
            else:
                reach = 0
                for k in _BITS[poss[i]]:
                    reach |= other_poss[k]
                viol = arow[i] & ~reach & check[i]
            if viol:
                self.stats.prunes_by_rule["P2" if viol & -viol == 1 << i else "P1"] += 1
                return False
        if self.p3:
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


def factor_search(
    g: Graph,
    cfg: SearchConfig = SearchConfig(),
    *,
    disable_rules: frozenset = frozenset(),
) -> tuple[list[Factorization], SearchStats]:
    """Pruned backtracking search for all (or the first) witnesses of
    A = BC on the canonical labeling of g."""
    if g.order > cfg.order_cap:
        raise UnsupportedSizeError(
            f"search is capped at order {cfg.order_cap}; got order {g.order}"
        )
    unknown = set(disable_rules) - set(PRUNE_RULES)
    if unknown:
        raise ParameterError(f"unknown pruning rules: {sorted(unknown)}")
    engine = _Engine(canonical_form(g), cfg, frozenset(disable_rules))
    return engine.run()


def dedup_pairs(witnesses) -> set[tuple[str, str]]:
    """Unordered factor pairs {key(H), key(K)} over a witness list."""
    memo: dict[tuple[int, ...], str] = {}

    def key_of(graph: Graph) -> str:
        k = memo.get(graph.rows)
        if k is None:
            # An edgeless graph is its own canonical form, at any order.
            k = graph_bits(graph) if is_edgeless(graph) else canonical_key(graph)
            memo[graph.rows] = k
        return k

    out: set[tuple[str, str]] = set()
    for f in witnesses:
        kh = key_of(f.h)
        kk = key_of(f.k)
        out.add((kh, kk) if kh <= kk else (kk, kh))
    return out


def is_factorizable(g: Graph, cfg: SearchConfig = SearchConfig()) -> FactorDecision:
    """Screen first; only survivors are searched.  A node-limited search
    that finds nothing reports 'unknown', never 'no'.

    Edgeless graphs are decided without a search: zero = zero * zero, and
    the single zero witness stands in for their full family (every pair of
    factors sharing no edge), which explodes combinatorially.
    """
    report = screen(g)
    if report.overall == "ruled_out":
        return FactorDecision("no", (), report, None)
    if report.trivial:
        zero = edgeless(g.order)
        return FactorDecision("yes", (Factorization(zero, zero, zero),), report, None)
    witnesses, stats = factor_search(g, cfg)
    if witnesses:
        return FactorDecision("yes", tuple(witnesses), report, stats)
    return FactorDecision("no" if stats.exhausted else "unknown", (), report, stats)


# ---------------------------------------------------------------------------
# explicit constructions
# ---------------------------------------------------------------------------

def _block_diag(m1: IntMatrix, m2: IntMatrix) -> IntMatrix:
    n1, n2 = m1.order, m2.order
    rows = []
    for i in range(n1):
        rows.append(tuple(m1.entries[i]) + (0,) * n2)
    for i in range(n2):
        rows.append((0,) * n1 + tuple(m2.entries[i]))
    return IntMatrix(tuple(rows))


def _anti_diag(m1: IntMatrix, m2: IntMatrix) -> IntMatrix:
    """[[0, m1], [m2, 0]] for equal orders."""
    n = m1.order
    rows = []
    for i in range(n):
        rows.append((0,) * n + tuple(m1.entries[i]))
    for i in range(n):
        rows.append(tuple(m2.entries[i]) + (0,) * n)
    return IntMatrix(tuple(rows))


def _validated(f: Factorization, tol: float = 1e-9) -> Factorization:
    violations = validate_factorization(f, tol)
    if not violations.empty:
        raise TheoremViolationError(
            "constructed witness fails validation: "
            + "; ".join(v.assertion_id for v in violations.items)
        )
    return f


def cycle_product(n: int) -> Factorization:
    """C_{2n} as the product of an n-matching and two disjoint n-cycles.

    The product is the bipartite double cover of C_n, which is a single
    2n-cycle only for odd n; even n would yield two disjoint n-cycles.
    """
    if n < 3 or n % 2 == 0:
        raise ParameterError(
            "cycle product needs odd n >= 3 (for even n the product splits "
            "into two disjoint n-cycles)"
        )
    b = adjacency(matching(n))
    c = adjacency(disjoint_union(cycle(n), cycle(n)))
    f = Factorization.from_factors(b, c)
    degs = degree_sequence(f.g)
    if not (is_connected(f.g) and min(degs) == max(degs) == 2):
        raise TheoremViolationError("cycle product did not produce a single cycle")
    return _validated(f)


def doubled_graph(g: Graph) -> Factorization:
    """Two copies of a connected non-bipartite graph, factored into a
    connected graph and a perfect matching."""
    if not is_connected(g):
        raise PreconditionError("input graph is not connected")
    if is_bipartite(g):
        raise PreconditionError("input graph is bipartite")
    m = adjacency(g)
    eye = IntMatrix.identity(g.order)
    a = _block_diag(m, m)
    b = _anti_diag(m, m)
    c = _anti_diag(eye, eye)
    f = Factorization.from_matrices(a, b, c)
    if not is_connected(f.h):
        raise TheoremViolationError("doubled-graph factor H came out disconnected")
    return _validated(f)


def disconnected_counterexample(n: int) -> Factorization:
    """Two copies of C_{2n}: the product of (n-matching + two n-cycles) and
    (two n-cycles + n-matching), where the largest eigenvalue is *not*
    multiplicative (2 versus 4)."""
    if n < 3 or n % 2 == 0:
        raise ParameterError(
            "counterexample needs odd n >= 3 (for even n each block splits "
            "into two disjoint n-cycles)"
        )
    match_adj = adjacency(matching(n))
    cycles_adj = adjacency(disjoint_union(cycle(n), cycle(n)))
    b = _block_diag(match_adj, cycles_adj)
    c = _block_diag(cycles_adj, match_adj)
    f = Factorization.from_factors(b, c)
    comps = components(f.g)
    if len(comps) != 2 or any(len(comp) != 2 * n for comp in comps):
        raise TheoremViolationError("counterexample product is not two equal cycles")
    return _validated(f)


_CONSTRUCT_KINDS = ("cycle_product", "doubled_graph", "disconnected_counterexample")


def construct(kind: str, *, n: int | None = None, graph: Graph | None = None) -> Factorization:
    """Dispatch to a construction by name."""
    if kind == "cycle_product":
        if n is None:
            raise ParameterError("cycle_product needs n")
        return cycle_product(n)
    if kind == "doubled_graph":
        if graph is None:
            raise ParameterError("doubled_graph needs an input graph")
        return doubled_graph(graph)
    if kind == "disconnected_counterexample":
        if n is None:
            raise ParameterError("disconnected_counterexample needs n")
        return disconnected_counterexample(n)
    raise ParameterError(f"unknown construction {kind!r}; choose from {_CONSTRUCT_KINDS}")
