"""Decide and enumerate matrix-product factorizations A = BC.

Three routes:

* factor_naive  - transcription of the definition: enumerate every pair of
  symmetric 0-1 zero-diagonal matrices (order <= 5) and keep exact products.
  This is the ground-truth oracle the pruned search is tested against.
* factor_search - backtracking over the unknown upper-triangle entries of B
  and C with forward checking (entry bounds, zero diagonal, degree products).
* construct     - the explicit witness families: the cycle product, the
  doubled graph, and the disconnected eigenvalue counterexample.

is_factorizable is the one decision path from a graph to a verdict; the CLI
and the census both go through it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

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
    Graph,
    canonical_form,
    canonical_key,
    components,
    cycle,
    degree_sequence,
    disjoint_union,
    edgeless,
    is_bipartite,
    is_connected,
    matching,
)

PRUNE_RULES = ("P1", "P2", "P3")

DEFAULT_NODE_LIMIT = 100_000_000


@dataclass(frozen=True)
class SearchConfig:
    mode: str = "first"
    node_limit: int = DEFAULT_NODE_LIMIT
    order_cap: int = 7

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


class _Engine:
    """Backtracker over the upper triangles of B and C, interleaved in
    vertex-major order with high-degree vertices of A first."""

    def __init__(self, g: Graph, cfg: SearchConfig, disabled: frozenset):
        self.g = g
        self.cfg = cfg
        self.n = n = g.order
        self.aij = [[row >> j & 1 for j in range(n)] for row in g.rows]
        degs = [row.bit_count() for row in g.rows]
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
        self.p1 = "P1" not in disabled
        self.p2 = "P2" not in disabled
        self.p3 = "P3" not in disabled
        self.stats = SearchStats()
        self.witnesses: list[Factorization] = []

    def run(self) -> tuple[list[Factorization], SearchStats]:
        try:
            self._extend(0)
            self.stats.exhausted = True
        except _LimitReached:
            self.stats.exhausted = False
        except _FoundEnough:
            self.stats.exhausted = False
        self.stats.witnesses_found = len(self.witnesses)
        return self.witnesses, self.stats

    def _extend(self, t: int) -> None:
        if t == len(self.vars):
            self._leaf()
            return
        side, u, w = self.vars[t]
        bit_u = 1 << u
        bit_w = 1 << w
        comm = self.comm1b if side == 0 else self.comm1c
        poss = self.possb if side == 0 else self.possc
        stats = self.stats
        for val in (0, 1):
            stats.nodes_expanded += 1
            if stats.nodes_expanded > self.cfg.node_limit:
                raise _LimitReached
            save_cu, save_cw = comm[u], comm[w]
            save_pu, save_pw = poss[u], poss[w]
            if val:
                comm[u] |= bit_w
                comm[w] |= bit_u
            else:
                poss[u] &= ~bit_w
                poss[w] &= ~bit_u
            if self._consistent(side, u, w):
                self._extend(t + 1)
            comm[u], comm[w] = save_cu, save_cw
            poss[u], poss[w] = save_pu, save_pw

    def _consistent(self, side: int, u: int, w: int) -> bool:
        n = self.n
        aij = self.aij
        comm1b, possb = self.comm1b, self.possb
        comm1c, possc = self.comm1c, self.possc
        prunes = self.stats.prunes_by_rule
        check_p1, check_p2 = self.p1, self.p2
        if check_p1 or check_p2:
            if side == 0:
                for i in (u, w):
                    cb = comm1b[i]
                    pb = possb[i]
                    ai = aij[i]
                    for j in range(n):
                        target = ai[j]
                        diag = i == j
                        if diag and not check_p2:
                            continue
                        if not diag and not check_p1:
                            continue
                        if (cb & comm1c[j]).bit_count() > target or (
                            pb & possc[j]
                        ).bit_count() < target:
                            prunes["P2" if diag else "P1"] += 1
                            return False
            else:
                for j in (u, w):
                    cc = comm1c[j]
                    pc = possc[j]
                    for i in range(n):
                        target = aij[i][j]
                        diag = i == j
                        if diag and not check_p2:
                            continue
                        if not diag and not check_p1:
                            continue
                        if (comm1b[i] & cc).bit_count() > target or (
                            possb[i] & pc
                        ).bit_count() < target:
                            prunes["P2" if diag else "P1"] += 1
                            return False
        if self.p3:
            for x in (u, w):
                if not self._degree_feasible(x):
                    prunes["P3"] += 1
                    return False
        return True

    def _degree_feasible(self, x: int) -> bool:
        return self._degree_range_ok(
            self.comm1b[x].bit_count(),
            self.possb[x].bit_count(),
            self.comm1c[x].bit_count(),
            self.possc[x].bit_count(),
            sum(self.aij[x]),
        )

    @staticmethod
    def _degree_range_ok(bmin: int, bmax: int, cmin: int, cmax: int, d: int) -> bool:
        if d == 0:
            return bmin == 0 or cmin == 0
        for p in range(max(bmin, 1), bmax + 1):
            if d % p == 0 and cmin <= d // p <= cmax:
                return True
        return False

    def _leaf(self) -> None:
        n = self.n
        rb = self.comm1b
        rc = self.comm1c
        aij = self.aij
        for i in range(n):
            rbi = rb[i]
            ai = aij[i]
            for j in range(n):
                if (rbi & rc[j]).bit_count() != ai[j]:
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
            f"order {g.order} exceeds the configured cap {cfg.order_cap}"
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
            k = canonical_key(graph)
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
