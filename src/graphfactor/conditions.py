"""Necessary-condition screening and the factorization assertion registry.

screen() applies the four rules that can rule a graph out of
factorizability before any search.  validate_factorization() checks every
registered structural assertion against a verified witness; a violation
means an implementation bug, since each assertion is a proved statement.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import ParameterError
from .factorization import Factorization
from .graphs import (
    CANONICAL_ORDER_CAP,
    Graph,
    bipartition_of,
    canonical_key,
    components,
    contains_c4,
    degree_sequence,
    has_isolated_vertex,
    induced_subgraph,
    is_bipartite,
    is_connected,
    is_regular,
)
from .spectral import DEFAULT_TOL, lambda_max, lambda_max_product_check

STATUS_PASS = "pass"
STATUS_RULED_OUT = "ruled_out"
STATUS_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class RuleResult:
    rule_id: str
    status: str
    paper_ref: str
    detail: str

    def to_json(self) -> dict:
        return {
            "rule_id": self.rule_id,
            "status": self.status,
            "paper_ref": self.paper_ref,
            "detail": self.detail,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "RuleResult":
        return cls(obj["rule_id"], obj["status"], obj["paper_ref"], obj["detail"])


@dataclass(frozen=True, eq=False)
class ConditionReport:
    """The rules' results for one graph, plus its canonical key (None above
    the canonical cap).  key_source is the key itself or, from screen(),
    the graph, which is labelled only when graph_key is first read: a graph
    that a rule rules out is never labelled unless its key is asked for.
    Equality, hashing and pickling go by graph_key."""

    key_source: str | Graph | None
    rules: tuple[RuleResult, ...]
    trivial: bool

    @cached_property
    def graph_key(self) -> str | None:
        source = self.key_source
        if not isinstance(source, Graph):
            return source
        return canonical_key(source) if source.order <= CANONICAL_ORDER_CAP else None

    def _fields(self) -> tuple:
        return (self.graph_key, self.rules, self.trivial)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConditionReport):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        return (ConditionReport, self._fields())

    @property
    def overall(self) -> str:
        if any(r.status == STATUS_RULED_OUT for r in self.rules):
            return STATUS_RULED_OUT
        return STATUS_INCONCLUSIVE

    def to_json(self) -> dict:
        return {
            "graph_key": self.graph_key,
            "overall": self.overall,
            "trivial": self.trivial,
            "rules": [r.to_json() for r in self.rules],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ConditionReport":
        if not isinstance(obj["trivial"], bool):
            raise ParameterError("screen field 'trivial' must be a boolean")
        report = cls(
            obj["graph_key"],
            tuple(RuleResult.from_json(r) for r in obj["rules"]),
            obj["trivial"],
        )
        if obj["overall"] != report.overall:
            raise ParameterError(
                f"screen field 'overall' is {obj['overall']!r} but its rules give "
                f"{report.overall!r}"
            )
        return report


@dataclass(frozen=True)
class Violation:
    assertion_id: str
    expected: str
    observed: str
    paper_ref: str

    def to_json(self) -> dict:
        return {
            "assertion_id": self.assertion_id,
            "expected": self.expected,
            "observed": self.observed,
            "paper_ref": self.paper_ref,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Violation":
        return cls(obj["assertion_id"], obj["expected"], obj["observed"], obj["paper_ref"])


@dataclass(frozen=True)
class ViolationList:
    items: tuple[Violation, ...]

    @property
    def empty(self) -> bool:
        return not self.items

    def to_json(self) -> dict:
        return {"items": [v.to_json() for v in self.items]}

    @classmethod
    def from_json(cls, obj: dict) -> "ViolationList":
        return cls(tuple(Violation.from_json(v) for v in obj["items"]))


# ---------------------------------------------------------------------------
# screening rules
# ---------------------------------------------------------------------------

_RULE_REFS = {
    "R1": "a factorizable graph has an even number of edges",
    "R2": "factorizable, no 4-cycle, no isolated vertices: the order is even",
    "R3": "no tree of order at least 2 is factorizable",
    "R4": "no forest with no isolated vertices and oddly many components is factorizable",
}


RULE_IDS = tuple(_RULE_REFS)


@lru_cache(maxsize=4096)
def _rule_results(
    n: int, e: int, isolated: bool, c4: bool, forest_ncomp: int
) -> tuple[RuleResult, ...]:
    """The four rules' results from the invariants they read; forest_ncomp
    is the component count of a forest and 0 for a graph with a cycle."""
    if e % 2 == 1:
        r1 = STATUS_RULED_OUT, f"{e} edges (odd)"
    else:
        r1 = STATUS_PASS, f"{e} edges (even)"
    if c4:
        r2 = STATUS_PASS, "contains a 4-cycle"
    elif isolated:
        r2 = STATUS_PASS, "has an isolated vertex"
    elif n % 2 == 1:
        r2 = STATUS_RULED_OUT, f"order {n} odd, no 4-cycle, no isolated vertex"
    else:
        r2 = STATUS_PASS, f"order {n} even"
    if forest_ncomp == 1 and n >= 2:
        r3 = STATUS_RULED_OUT, f"tree on {n} vertices"
    else:
        r3 = STATUS_PASS, "not a tree of order at least 2"
    if not forest_ncomp:
        r4 = STATUS_PASS, "contains a cycle"
    elif isolated:
        r4 = STATUS_PASS, "has an isolated vertex"
    elif forest_ncomp % 2 == 1:
        r4 = STATUS_RULED_OUT, f"forest with {forest_ncomp} components (odd), no isolated vertex"
    else:
        r4 = STATUS_PASS, f"forest with {forest_ncomp} components (even)"
    return tuple(
        RuleResult(rid, status, _RULE_REFS[rid], detail)
        for rid, (status, detail) in zip(RULE_IDS, (r1, r2, r3, r4))
    )


def screen(g: Graph) -> ConditionReport:
    """Run the four rules on g; surviving graphs stay inconclusive.

    The rules read four invariants, each computed once: the edge count e,
    an isolated vertex, a 4-cycle and, only when e < n, the component
    count (a graph with at least n edges has a cycle); g is a forest
    exactly when e + components = n.  The rules' results come from a memo
    keyed on those invariants.
    Edgeless graphs survive and are flagged trivial: the zero matrix
    factors as zero times zero.  The rules need no labelling, so the report
    labels g only when its graph key is read; above the canonical cap the
    key is None.
    """
    n = g.order
    e = g.edge_count
    forest_ncomp = 0
    if e < n:
        ncomp = len(components(g))
        if e + ncomp == n:
            forest_ncomp = ncomp
    rules = _rule_results(n, e, has_isolated_vertex(g), contains_c4(g), forest_ncomp)
    return ConditionReport(g, rules, trivial=e == 0)


def evaluate_rule(rule_id: str, g: Graph) -> RuleResult:
    """One rule's result on g, as screen(g) reports it."""
    if rule_id not in _RULE_REFS:
        raise ParameterError(f"unknown rule {rule_id!r}")
    return screen(g).rules[RULE_IDS.index(rule_id)]


# ---------------------------------------------------------------------------
# assertion registry over verified factorizations
# ---------------------------------------------------------------------------

ASSERTION_REFS = {
    "V1": "deg_G(v) = deg_H(v) * deg_K(v) for every vertex",
    "V2": "vertices connected in one factor share their degree in the other factor",
    "V3": "edge-count bounds when neither factor has an isolated vertex",
    "V4": "2|E(G)| <= |E(H)||E(K)| for order > 4 with both factors connected",
    "V5": "factors of a connected regular graph are regular",
    "V6": "a product of regular factors is regular",
    "V7": "a bipartite product has at most one connected factor",
    "V8": "connected bipartite product: one factor lies across its parts, the other has no cross edges",
    "V9": "connected non-bipartite factor + no isolated vertices in the other: product is connected",
    "V10": "connected bipartite factor with disconnected product: cofactor regular bipartite, order even, two non-bipartite components",
    "V11": "odd order with a connected factor and no isolated vertices in the other: product is connected",
    "V12": "disconnected product with a connected factor: both factors bipartite",
    "V13": "largest eigenvalue of a connected product is the product of the factors' largest eigenvalues",
    "S1": "one connected member: componentwise spectral radius matches and no member has an isolated vertex",
}

ASSERTION_IDS = tuple(ASSERTION_REFS)


@dataclass(frozen=True)
class AssertionOutcome:
    assertion_id: str
    applied: bool
    violation: Violation | None


@dataclass(frozen=True)
class ExploratoryObservations:
    """Logged evidence, never asserted: the two-sided edge bound, the
    unguarded product edge bound, and component isomorphism when the
    disconnected-product case fires."""

    stronger_edge_bound_applied: bool
    stronger_edge_bound_holds: bool
    unguarded_product_bound_applied: bool
    unguarded_product_bound_holds: bool
    component_iso_applied: bool
    component_iso: bool | None


class _Context:
    """Precomputed facts shared by the assertion checks."""

    def __init__(self, f: Factorization):
        self.f = f
        self.n = f.g.order
        self.deg_g = degree_sequence(f.g)
        self.deg_h = degree_sequence(f.h)
        self.deg_k = degree_sequence(f.k)
        self.e_g = sum(self.deg_g) // 2
        self.e_h = sum(self.deg_h) // 2
        self.e_k = sum(self.deg_k) // 2
        self.g_conn = is_connected(f.g)
        self.h_conn = is_connected(f.h)
        self.k_conn = is_connected(f.k)
        self.g_parts = bipartition_of(f.g)
        self.h_parts = bipartition_of(f.h)
        self.k_parts = bipartition_of(f.k)
        self.g_comps = components(f.g)

    def orderings(self):
        """Both role assignments; B and C commute, so the transposed
        product factors G into (K, H) as well."""
        f = self.f
        yield (f.h, self.h_conn, self.h_parts, self.deg_h,
               f.k, self.k_conn, self.k_parts, self.deg_k)
        yield (f.k, self.k_conn, self.k_parts, self.deg_k,
               f.h, self.h_conn, self.h_parts, self.deg_h)


def _violation(assertion_id: str, expected: str, observed: str) -> Violation:
    return Violation(assertion_id, expected, observed, ASSERTION_REFS[assertion_id])


def _check_v1(ctx: _Context) -> AssertionOutcome:
    for v in range(ctx.n):
        if ctx.deg_g[v] != ctx.deg_h[v] * ctx.deg_k[v]:
            return AssertionOutcome("V1", True, _violation(
                "V1",
                f"deg_G({v}) = deg_H({v})*deg_K({v})",
                f"{ctx.deg_g[v]} != {ctx.deg_h[v]}*{ctx.deg_k[v]}",
            ))
    return AssertionOutcome("V1", True, None)


def _check_v2(ctx: _Context) -> AssertionOutcome:
    for comp in components(ctx.f.h):
        vals = {ctx.deg_k[v] for v in comp}
        if len(vals) > 1:
            return AssertionOutcome("V2", True, _violation(
                "V2", "constant deg_K on each H-component",
                f"component {comp} has deg_K values {sorted(vals)}",
            ))
    for comp in components(ctx.f.k):
        vals = {ctx.deg_h[v] for v in comp}
        if len(vals) > 1:
            return AssertionOutcome("V2", True, _violation(
                "V2", "constant deg_H on each K-component",
                f"component {comp} has deg_H values {sorted(vals)}",
            ))
    return AssertionOutcome("V2", True, None)


def _check_v3(ctx: _Context) -> AssertionOutcome:
    if has_isolated_vertex(ctx.f.h) or has_isolated_vertex(ctx.f.k):
        return AssertionOutcome("V3", False, None)
    lower = min(ctx.e_h, ctx.e_k)
    upper = min(max(ctx.deg_h) * ctx.e_k, max(ctx.deg_k) * ctx.e_h)
    if not (lower <= ctx.e_g <= upper):
        return AssertionOutcome("V3", True, _violation(
            "V3", f"{lower} <= |E(G)| <= {upper}", f"|E(G)| = {ctx.e_g}",
        ))
    return AssertionOutcome("V3", True, None)


def _check_v4(ctx: _Context) -> AssertionOutcome:
    if not (ctx.n > 4 and ctx.h_conn and ctx.k_conn):
        return AssertionOutcome("V4", False, None)
    if 2 * ctx.e_g > ctx.e_h * ctx.e_k:
        return AssertionOutcome("V4", True, _violation(
            "V4", f"2|E(G)| <= {ctx.e_h * ctx.e_k}", f"2|E(G)| = {2 * ctx.e_g}",
        ))
    return AssertionOutcome("V4", True, None)


def _check_v5(ctx: _Context) -> AssertionOutcome:
    if not (ctx.g_conn and is_regular(ctx.f.g)):
        return AssertionOutcome("V5", False, None)
    if not (is_regular(ctx.f.h) and is_regular(ctx.f.k)):
        return AssertionOutcome("V5", True, _violation(
            "V5", "H and K regular",
            f"H degrees {sorted(set(ctx.deg_h))}, K degrees {sorted(set(ctx.deg_k))}",
        ))
    return AssertionOutcome("V5", True, None)


def _check_v6(ctx: _Context) -> AssertionOutcome:
    if not (is_regular(ctx.f.h) and is_regular(ctx.f.k)):
        return AssertionOutcome("V6", False, None)
    if not is_regular(ctx.f.g):
        return AssertionOutcome("V6", True, _violation(
            "V6", "G regular", f"G degrees {sorted(set(ctx.deg_g))}",
        ))
    return AssertionOutcome("V6", True, None)


def _check_v7(ctx: _Context) -> AssertionOutcome:
    # Order 1 is excluded: K1 = K1 * K1 has two connected factors, and the
    # eigenvalue argument behind the statement needs a positive degree.
    if ctx.g_parts is None or ctx.n < 2:
        return AssertionOutcome("V7", False, None)
    if ctx.h_conn and ctx.k_conn:
        return AssertionOutcome("V7", True, _violation(
            "V7", "at most one connected factor", "both H and K connected",
        ))
    return AssertionOutcome("V7", True, None)


def _cross_edge_count(g: Graph, left_mask: int, right_mask: int) -> int:
    return sum((g.rows[v] & right_mask).bit_count() for v in range(g.order) if left_mask >> v & 1)


def _within_edge_count(g: Graph, side_mask: int) -> int:
    total = 0
    for v in range(g.order):
        if side_mask >> v & 1:
            total += (g.rows[v] & side_mask).bit_count()
    return total // 2


def _check_v8(ctx: _Context) -> AssertionOutcome:
    if not (ctx.g_conn and ctx.g_parts is not None):
        return AssertionOutcome("V8", False, None)
    lm = ctx.g_parts.left_mask()
    rm = ctx.g_parts.right_mask()

    def across_only(x: Graph) -> bool:
        return _within_edge_count(x, lm) == 0 and _within_edge_count(x, rm) == 0

    def no_cross(x: Graph) -> bool:
        return _cross_edge_count(x, lm, rm) == 0

    ok = (across_only(ctx.f.h) and no_cross(ctx.f.k)) or (
        across_only(ctx.f.k) and no_cross(ctx.f.h)
    )
    if not ok:
        return AssertionOutcome("V8", True, _violation(
            "V8",
            "one factor only across G's parts, the other with no cross edges",
            "neither role assignment fits G's bipartition",
        ))
    return AssertionOutcome("V8", True, None)


def _check_v9(ctx: _Context) -> AssertionOutcome:
    applied = False
    for x, x_conn, x_parts, _, y, _, _, _ in ctx.orderings():
        if x_conn and x_parts is None and not has_isolated_vertex(y):
            applied = True
            if not ctx.g_conn:
                return AssertionOutcome("V9", True, _violation(
                    "V9", "G connected", f"G has {len(ctx.g_comps)} components",
                ))
    return AssertionOutcome("V9", applied, None)


def _check_v10(ctx: _Context) -> AssertionOutcome:
    applied = False
    for x, x_conn, x_parts, _, y, _, y_parts, y_deg in ctx.orderings():
        if not (x_conn and x_parts is not None and not has_isolated_vertex(y)
                and not ctx.g_conn):
            continue
        applied = True
        problems = []
        if min(y_deg) != max(y_deg):
            problems.append("cofactor not regular")
        if y_parts is None:
            problems.append("cofactor not bipartite")
        if ctx.n % 2 == 1:
            problems.append(f"order {ctx.n} odd")
        if len(ctx.g_comps) != 2:
            problems.append(f"G has {len(ctx.g_comps)} components")
        else:
            for comp in ctx.g_comps:
                if is_bipartite(induced_subgraph(ctx.f.g, comp)):
                    problems.append(f"component {comp} bipartite")
        if problems:
            return AssertionOutcome("V10", True, _violation(
                "V10",
                "regular bipartite cofactor, even order, two non-bipartite components",
                "; ".join(problems),
            ))
    return AssertionOutcome("V10", applied, None)


def _check_v11(ctx: _Context) -> AssertionOutcome:
    if ctx.n % 2 == 0:
        return AssertionOutcome("V11", False, None)
    applied = False
    for x, x_conn, _, _, y, _, _, _ in ctx.orderings():
        if x_conn and not has_isolated_vertex(y):
            applied = True
            if not ctx.g_conn:
                return AssertionOutcome("V11", True, _violation(
                    "V11", "G connected", f"G has {len(ctx.g_comps)} components",
                ))
    return AssertionOutcome("V11", applied, None)


def _check_v12(ctx: _Context) -> AssertionOutcome:
    if ctx.g_conn:
        return AssertionOutcome("V12", False, None)
    applied = False
    for x, x_conn, _, _, y, _, _, _ in ctx.orderings():
        if x_conn and not has_isolated_vertex(y):
            applied = True
            if ctx.h_parts is None or ctx.k_parts is None:
                return AssertionOutcome("V12", True, _violation(
                    "V12", "H and K both bipartite",
                    f"H bipartite: {ctx.h_parts is not None}, K bipartite: {ctx.k_parts is not None}",
                ))
    return AssertionOutcome("V12", applied, None)


def _check_v13(ctx: _Context) -> AssertionOutcome:
    if not ctx.g_conn:
        return AssertionOutcome("V13", False, None)
    chk = lambda_max_product_check(ctx.f.g, ctx.f.h, ctx.f.k)
    if not chk.holds:
        return AssertionOutcome("V13", True, _violation(
            "V13",
            "lambda_max(G) = lambda_max(H) * lambda_max(K)",
            f"{chk.lhs!r} vs {chk.rhs!r}",
        ))
    return AssertionOutcome("V13", True, None)


def _check_s1(ctx: _Context) -> AssertionOutcome:
    # Trivial witnesses (zero factor, so G edgeless) are excluded: an
    # all-isolated graph satisfies the eigenvalue identity vacuously but
    # not the no-isolated-vertices clause.
    if ctx.f.trivial or not (ctx.g_conn or ctx.h_conn or ctx.k_conn):
        return AssertionOutcome("S1", False, None)
    lg = lambda_max(ctx.f.g)
    lh = lambda_max(ctx.f.h)
    lk = lambda_max(ctx.f.k)
    problems = []
    if abs(lg - lh * lk) > DEFAULT_TOL * max(1.0, abs(lg)):
        problems.append(f"lambda product {lg!r} vs {lh!r}*{lk!r}")
    for name, graph, lam in (("G", ctx.f.g, lg), ("H", ctx.f.h, lh), ("K", ctx.f.k, lk)):
        if has_isolated_vertex(graph):
            problems.append(f"{name} has an isolated vertex")
            continue
        for comp in components(graph):
            sub = induced_subgraph(graph, comp)
            lam_comp = lambda_max(sub)
            if abs(lam_comp - lam) > DEFAULT_TOL * max(1.0, abs(lam)):
                problems.append(
                    f"{name} component {comp} radius {lam_comp!r} != {lam!r}"
                )
    if problems:
        return AssertionOutcome("S1", True, _violation(
            "S1", "componentwise radius equals parent's, no isolated vertices",
            "; ".join(problems),
        ))
    return AssertionOutcome("S1", True, None)


_CHECKS = {
    "V1": _check_v1,
    "V2": _check_v2,
    "V3": _check_v3,
    "V4": _check_v4,
    "V5": _check_v5,
    "V6": _check_v6,
    "V7": _check_v7,
    "V8": _check_v8,
    "V9": _check_v9,
    "V10": _check_v10,
    "V11": _check_v11,
    "V12": _check_v12,
    "V13": _check_v13,
    "S1": _check_s1,
}


@lru_cache(maxsize=1)
def _context(f: Factorization) -> _Context:
    """The shared facts of one witness.  check_assertions and
    exploratory_observations run back to back on each witness, so one slot
    builds each witness's context once."""
    return _Context(f)


def check_assertions(f: Factorization) -> tuple[AssertionOutcome, ...]:
    """Every registered assertion, with applied/violation status."""
    ctx = _context(f)
    return tuple(_CHECKS[aid](ctx) for aid in ASSERTION_IDS)


def validate_factorization(f: Factorization) -> ViolationList:
    """Violations of the registered assertions on a verified witness."""
    items = tuple(o.violation for o in check_assertions(f) if o.violation is not None)
    return ViolationList(items)


def exploratory_observations(f: Factorization) -> ExploratoryObservations:
    ctx = _context(f)
    no_isolated = not (has_isolated_vertex(f.h) or has_isolated_vertex(f.k))
    stronger_applied = no_isolated
    stronger_holds = (not stronger_applied) or ctx.e_g >= max(ctx.e_h, ctx.e_k)
    unguarded_applied = ctx.n > 4 and no_isolated
    unguarded_holds = (not unguarded_applied) or 2 * ctx.e_g <= ctx.e_h * ctx.e_k
    v10 = _check_v10(ctx)
    iso: bool | None = None
    if v10.applied and v10.violation is None and len(ctx.g_comps) == 2:
        keys = [canonical_key(induced_subgraph(f.g, comp)) for comp in ctx.g_comps]
        iso = keys[0] == keys[1]
    return ExploratoryObservations(
        stronger_applied, stronger_holds,
        unguarded_applied, unguarded_holds,
        v10.applied, iso,
    )
