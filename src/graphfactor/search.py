"""Decide and enumerate matrix-product factorizations A = BC.

factor_search runs a root filter first: each vertex's possible
(deg_H, deg_K) pairs, propagated to a fixpoint, refute most graphs before
they are labelled.  The rest get backtracking over the unknown
upper-triangle entries of B and C, from the rows the pairs leave, with
forward checking on only the entries each value can move (entry bounds,
zero diagonal) and on the root pairs of its two ends (degrees, and the
degree the two ends of a 1 share by V2).  A = BC = CB, so each witness
(B, C) has the mirror (C, B); the search only visits witnesses whose first
edge in variable order lies in C, and all-mode results add every mirror
back, in the order the unbroken search found them.  The tests check it
against the definition transcribed over every pair of candidate matrices
up to order 5 (tests/oracles.py).

cycle_product, doubled_graph and disconnected_counterexample build the
explicit witness families.

is_factorizable is the one decision path from a graph to a verdict; the CLI
and the census both go through it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from .conditions import ConditionReport, screen
from .errors import (
    ParameterError,
    PreconditionError,
    TheoremViolationError,
    UnsupportedSizeError,
)
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
        if not 1 <= self.order_cap <= CANONICAL_ORDER_CAP:
            raise ParameterError(
                f"order_cap must be 1..{CANONICAL_ORDER_CAP}, got {self.order_cap}"
            )


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
def _v1_pairs(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per degree d < n, the (b, c) pairs with b * c = d that vertices of an
    order-n graph can take: b and c below n, and every (0, c) and (b, 0)
    for an isolated vertex."""
    table = [tuple((0, c) for c in range(n)) + tuple((b, 0) for b in range(1, n))]
    for d in range(1, n):
        table.append(tuple((b, d // b) for b in range(1, n) if d % b == 0 and d // b < n))
    return tuple(table)


@cache
def _count_domains(degs: tuple[int, ...]) -> tuple[tuple[tuple[int, int], ...], ...] | None:
    """At index d, the pairs the count drops of _degree_pairs leave the
    vertices of degree d in the sorted degree sequence degs (empty for a
    degree not in degs), or None when some vertex has none left.

    The drops read only how many vertices can take each H- and K-degree, so
    vertices of equal degree keep equal pairs and the result depends on the
    degree multiset alone; the cache holds one entry per degree sequence."""
    n = len(degs)
    v1 = _v1_pairs(n)
    # The vertices of each degree, by position in degs.
    of_degree: dict[int, int] = {}
    for i, d in enumerate(degs):
        of_degree[d] = of_degree.get(d, 0) | 1 << i
    doms = {d: v1[d] for d in of_degree}
    changed = True
    while changed:
        changed = False
        # Vertex masks of who can take H-degree b and K-degree c.
        withb = [0] * n
        withc = [0] * n
        for d, dom in doms.items():
            vs = of_degree[d]
            for b, c in dom:
                withb[b] |= vs
                withc[c] |= vs
        for d, dom in doms.items():
            # Each mask holds the vertex itself, hence the strict tests.
            kept = tuple(
                (b, c)
                for b, c in dom
                if withc[c].bit_count() > b
                and withb[b].bit_count() > c
                and (withb[b] | withc[c]).bit_count() > b + c
            )
            if len(kept) < len(dom):
                if not kept:
                    return None
                doms[d] = kept
                changed = True
    return tuple(doms.get(d, ()) for d in range(n))


def _degree_pairs(g: Graph) -> list[list[tuple[int, int]]] | None:
    """The (b, c) = (deg_H, deg_K) pairs each vertex of g can take in a
    witness (H, K), or None when some vertex has none left.

    A = BC = CB with 0/1 entries and zero diagonals gives (README):
    * V1: b_i * c_i = d_i;
    * V2: t ~_H i implies c_t = c_i, and t ~_K i implies b_t = b_i;
    * every edge ij of g has a middle vertex t, not i or j, with
      i ~_H t ~_K j, so (b_t, c_t) = (b_j, c_i);
    * N_H(i) and N_K(i) are disjoint, and by V2 lie among the other
      vertices that can take K-degree c_i and H-degree b_i respectively.
    Starting from the V1 pairs, a pair (b, c) of vertex i is dropped when
    fewer than b other vertices can take K-degree c, fewer than c can take
    H-degree b, or fewer than b + c either; or when a neighbour j has no
    H-degree b' that some vertex other than i and j takes as (b', c).
    The drops repeat until none applies (arc consistency, Mackworth 1977);
    each keeps every witness's pairs, so None proves there is no witness.
    The count drops alone come first, once per degree sequence
    (_count_domains); the one greatest fixpoint makes the result the same
    as running every drop from the V1 pairs.
    """
    n = g.order
    rows = g.rows
    full = (1 << n) - 1
    degs = [row.bit_count() for row in rows]
    start = _count_domains(tuple(sorted(degs)))
    if start is None:
        return None
    doms = [list(start[d]) for d in degs]
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
                    kept.append(pair)
            if len(kept) < len(dom):
                if not kept:
                    return None
                doms[i] = kept
                changed = True
    return doms


def _root_rows(pairs: list[list[tuple[int, int]]]) -> tuple[list[int], list[int]]:
    """The possible rows of B and C the degree pairs leave: by V2, B_uw = 1
    needs a K-degree both u and w can take, and C_uw = 1 an H-degree."""
    n = len(pairs)
    bvals = [0] * n
    cvals = [0] * n
    for i, dom in enumerate(pairs):
        for b, c in dom:
            bvals[i] |= 1 << b
            cvals[i] |= 1 << c
    possb = [0] * n
    possc = [0] * n
    for u in range(n):
        for w in range(u + 1, n):
            if cvals[u] & cvals[w]:
                possb[u] |= 1 << w
                possb[w] |= 1 << u
            if bvals[u] & bvals[w]:
                possc[u] |= 1 << w
                possc[w] |= 1 << u
    return possb, possc


# P3 reads each vertex's degree pairs as (own, other): own is the degree
# on the side a variable sets, other the degree on the other side.  Degrees
# stay below CANONICAL_ORDER_CAP = _STRIDE, and a set of degrees is a row of
# _STRIDE bits; _SPAN[lo][hi] is the row of degrees lo..hi.
_STRIDE = CANONICAL_ORDER_CAP
_SPAN = tuple(
    tuple(sum(1 << k for k in range(lo, hi + 1)) for hi in range(_STRIDE))
    for lo in range(_STRIDE)
)


@cache
def _others_by_own_range(pairs: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """For one vertex's (own, other) pairs: at index lo * _STRIDE + hi, the
    row of other degrees of the pairs whose own degree lies in [lo, hi].
    The cache holds one table per distinct set of pairs."""
    table = [0] * (_STRIDE * _STRIDE)
    for own, other in pairs:
        for lo in range(own + 1):
            for hi in range(own, _STRIDE):
                table[lo * _STRIDE + hi] |= 1 << other
    return tuple(table)


def _pair_tables(
    pairs: list[list[tuple[int, int]]],
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Each vertex's _others_by_own_range table with B's degree as its own
    (for the variables of B) and with C's degree as its own (for C)."""
    return (
        [_others_by_own_range(tuple(dom)) for dom in pairs],
        [_others_by_own_range(tuple((c, b) for b, c in dom)) for dom in pairs],
    )


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

    Bounds: entry (i, j) of BC counts |b_i & c_j|.  P1 asks that the count
    of committed 1s stay at most a_ij and that the count of still-possible
    1s reach a_ij off the diagonal; P2 asks the same of the zero diagonal.
    A column of C is a row of B with the sides swapped, since CB = A
    counts the same entries.

    P3 reads each vertex's root pairs (the _degree_pairs of g): one pair
    (b, c) must have b between the vertex's committed and possible degrees
    in B, and c the same in C.  By V2 the two ends of a 1 in B must keep
    pairs with one K-degree c, and those of a 1 in C pairs with one
    H-degree b.  Each vertex's pairs are a _pair_tables table per side.

    Root: the possible rows start as _root_rows leaves the pairs.  The
    pairs are a fixpoint, so the root meets every bound: each edge ij of A
    keeps a middle vertex in possb[i] & possc[j] (P1), and each vertex
    keeps a pair (b, c) with b and c at most its possible degrees (P3).
    """

    def __init__(self, g: Graph, cfg: SearchConfig, pairs: list[list[tuple[int, int]]]):
        self.g = g
        self.cfg = cfg
        self.n = n = g.order
        self.arow = g.rows
        degs = [row.bit_count() for row in g.rows]
        order = sorted(range(n), key=lambda v: (-degs[v], v))
        self.vars: list[tuple[int, int, int]] = []
        for i in range(n):
            for j in range(i + 1, n):
                u, w = order[i], order[j]
                self.vars.append((0, u, w))
                self.vars.append((1, u, w))
        self.comm1b = [0] * n
        self.comm1c = [0] * n
        self.possb, self.possc = _root_rows(pairs)
        tableb, tablec = _pair_tables(pairs)
        self.nvars = len(self.vars)
        # Per side: the committed and possible rows of the side a variable
        # sets, those of the other side, and the pair tables with the side's
        # degree as their own.
        self.sides = (
            (self.comm1b, self.possb, self.comm1c, self.possc, tableb),
            (self.comm1c, self.possc, self.comm1b, self.possb, tablec),
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
        variable is 0.

        Forward checking tests only the columns whose bound the new value
        moves (Haralick & Elliott, 1980).  Every state this is called on
        meets every bound: the root does (see the class docstring), and a
        child is extended only once the columns its value moved pass.  So
        the test below gives the verdict of a whole-row test, and the same
        lowest violating column, which names the rule.

        For the variable (u, w) on one side, with ocomm and oposs the rows
        of the other side (symmetric, so j is in ocomm[w] exactly when w is
        in ocomm[j]), row u moves as follows.
        * Value 1 raises the committed count by one on the columns of
          ocomm[w] only.  Such a column is violated if A lacks it (the
          diagonal included: P2) or if row u already reached it, that is
          if the old comm[u] meets ocomm[j].
        * Value 0 lowers the possible count on the columns of oposs[w]
          only.  Such a column of A is violated (P1) if the new poss[u] no
          longer meets oposs[j].
        Row w is the same with u and w swapped, and is tested after row u.
        P3 then tests the root pairs of u and w against their degree
        ranges; only this side's ranges move.  After a 1 it also asks that
        the pairs left to u and w share a degree on the other side (V2).
        """
        if t == self.nvars:
            self._leaf()
            return
        side, u, w = self.vars[t]
        comm, poss, ocomm, oposs, tables = self.sides[side]
        cu, cw, pu, pw = comm[u], comm[w], poss[u], poss[w]
        au, aw = self.arow[u], self.arow[w]
        bit_u, bit_w = 1 << u, 1 << w
        # P3 at u and w, inline (tests/oracles.py has the one-vertex form):
        # each value moves only the own degree ranges; the other side's
        # ranges stay as they are here.
        tab_u, tab_w = tables[u], tables[w]
        lo_u, lo_w = cu.bit_count() * _STRIDE, cw.bit_count() * _STRIDE
        ospan_u = _SPAN[ocomm[u].bit_count()][oposs[u].bit_count()]
        ospan_w = _SPAN[ocomm[w].bit_count()][oposs[w].bit_count()]
        stats = self.stats
        prunes = stats.prunes_by_rule
        limit = self.cfg.node_limit

        # Value 0.
        stats.nodes_expanded += 1
        if stats.nodes_expanded > limit:
            raise _LimitReached
        npu = pu & ~bit_w
        npw = pw & ~bit_u
        ok = True
        for j in _BITS[oposs[w] & au]:
            if not npu & oposs[j]:
                ok = False
                break
        if ok:
            for j in _BITS[oposs[u] & aw]:
                if not npw & oposs[j]:
                    ok = False
                    break
        if not ok:
            prunes["P1"] += 1
        elif not (
            tab_u[lo_u + npu.bit_count()] & ospan_u
            and tab_w[lo_w + npw.bit_count()] & ospan_w
        ):
            prunes["P3"] += 1
        else:
            poss[u], poss[w] = npu, npw
            self._extend(t + 1, lead)
            poss[u], poss[w] = pu, pw

        # Value 1, which the mirror rule skips on B while every earlier
        # variable is 0, and the root rows skip when they exclude it.
        if lead and side == 0 or not pu >> w & 1:
            return
        stats.nodes_expanded += 1
        if stats.nodes_expanded > limit:
            raise _LimitReached
        rule = None
        rising = ocomm[w]
        viol = rising & ~au
        for j in _BITS[rising & au]:
            if cu & ocomm[j]:
                viol |= 1 << j
                break
        if viol:
            rule = "P2" if viol & -viol == bit_u else "P1"
        else:
            rising = ocomm[u]
            viol = rising & ~aw
            for j in _BITS[rising & aw]:
                if cw & ocomm[j]:
                    viol |= 1 << j
                    break
            if viol:
                rule = "P2" if viol & -viol == bit_w else "P1"
        ncu = cu | bit_w
        ncw = cw | bit_u
        if rule:
            prunes[rule] += 1
        elif not (
            # P3 at u and at w, and V2: one AND, since the rows of u and w
            # meet only if neither is empty.
            tab_u[lo_u + _STRIDE + pu.bit_count()] & ospan_u
            & tab_w[lo_w + _STRIDE + pw.bit_count()] & ospan_w
        ):
            prunes["P3"] += 1
        else:
            comm[u], comm[w] = ncu, ncw
            self._extend(t + 1, False)
            comm[u], comm[w] = cu, cw

    def _leaf(self) -> None:
        # Forward checking kept every bound at every node, so B*C = A here;
        # the Factorization constructor checks it once more, and raises.
        n = self.n
        self.witnesses.append(
            Factorization(self.g, Graph(n, tuple(self.comm1b)), Graph(n, tuple(self.comm1c)))
        )
        if self.cfg.mode == "first":
            raise _FoundEnough


def factor_search(
    g: Graph, cfg: SearchConfig = SearchConfig()
) -> tuple[list[Factorization], SearchStats]:
    """Pruned backtracking search for all (or the first) witnesses of
    A = BC on the canonical labeling of g.

    _degree_pairs runs first, on g as given: a graph it refutes is never
    labelled and costs one node and one P3 prune; the pairs of any other
    graph are carried to its canonical labeling, narrow the root and are
    P3's domains at every node."""
    if g.order > cfg.order_cap:
        raise UnsupportedSizeError(
            f"search is capped at order {cfg.order_cap}; got order {g.order}"
        )
    pairs = _degree_pairs(g)
    if pairs is None:
        return [], _refuted_stats()
    cg = canonical_form(g)
    # canonical_form labelled g; vertex k of cg is vertex placement[k] of g.
    placement = g._canonical[1]
    return _Engine(cg, cfg, [pairs[v] for v in placement]).run()


def _refuted_stats() -> SearchStats:
    """The counters of a search _degree_pairs refutes at the root: one
    node, pruned by P3 (the pairs are degree-product reasoning)."""
    stats = SearchStats(nodes_expanded=1, exhausted=True)
    stats.prunes_by_rule["P3"] = 1
    return stats


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
    f = Factorization.from_factors(matching(n), disjoint_union(cycle(n), cycle(n)))
    degs = degree_sequence(f.g)
    if not (is_connected(f.g) and min(degs) == max(degs) == 2):
        raise TheoremViolationError("cycle product did not produce a single cycle")
    return f


def doubled_graph(g: Graph) -> Factorization:
    """Two copies of a connected non-bipartite graph, factored into its
    bipartite double (connected) and a perfect matching."""
    if not is_connected(g):
        raise PreconditionError("input graph is not connected")
    if is_bipartite(g):
        raise PreconditionError("input graph is bipartite")
    n = g.order
    double = Graph(2 * n, tuple(row << n for row in g.rows) + g.rows)
    f = Factorization(disjoint_union(g, g), double, matching(n))
    if not is_connected(f.h):
        raise TheoremViolationError("doubled-graph factor H came out disconnected")
    return f


def disconnected_counterexample(n: int) -> Factorization:
    """Two copies of C_{2n}: the product of (n-matching + two n-cycles) and
    (two n-cycles + n-matching), where the largest eigenvalue is *not*
    multiplicative (2 versus 4)."""
    if n < 3 or n % 2 == 0:
        raise ParameterError(
            "counterexample needs odd n >= 3 (for even n each block splits "
            "into two disjoint n-cycles)"
        )
    f = Factorization.from_factors(
        disjoint_union(matching(n), cycle(n), cycle(n)),
        disjoint_union(cycle(n), cycle(n), matching(n)),
    )
    comps = components(f.g)
    if len(comps) != 2 or any(len(comp) != 2 * n for comp in comps):
        raise TheoremViolationError("counterexample product is not two equal cycles")
    return f
