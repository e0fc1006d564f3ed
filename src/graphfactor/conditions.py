"""Necessary-condition screening and the factorization assertion registry.

screen() applies the four rules that can rule a graph out of
factorizability before any search.  validate_factorization() checks every
registered structural assertion against a verified witness; a violation
means an implementation bug, since each assertion is a proved statement.
"""
from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from . import spectral
from .factorization import Factorization
from .graphs import (
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
from .spectral import DEFAULT_TOL, lambda_max

STATUS_PASS = "pass"
STATUS_RULED_OUT = "ruled_out"
STATUS_INCONCLUSIVE = "inconclusive"


class RuleResult(NamedTuple):
    rule_id: str
    status: str
    paper_ref: str
    detail: str


def overall_status(statuses) -> str:
    """A screen's overall status from its rules' statuses."""
    return STATUS_RULED_OUT if STATUS_RULED_OUT in statuses else STATUS_INCONCLUSIVE


class ConditionReport(NamedTuple):
    """The rules' results for one graph, and whether it is edgeless."""

    rules: tuple[RuleResult, ...]
    trivial: bool

    @property
    def overall(self) -> str:
        return overall_status(r.status for r in self.rules)

    def to_json(self, graph_key: str | None) -> dict:
        """The report as stored, under the screened graph's canonical key
        (None above the canonical cap), which the caller supplies."""
        return {
            "graph_key": graph_key,
            "overall": self.overall,
            "trivial": self.trivial,
            "rules": [r._asdict() for r in self.rules],
        }


class Violation(NamedTuple):
    assertion_id: str
    expected: str
    observed: str
    paper_ref: str


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
    factors as zero times zero.  The rules need no labelling, and g is not
    labelled.
    """
    n = g.order
    e = g.edge_count
    forest_ncomp = 0
    if e < n:
        ncomp = len(components(g))
        if e + ncomp == n:
            forest_ncomp = ncomp
    rules = _rule_results(n, e, has_isolated_vertex(g), contains_c4(g), forest_ncomp)
    return ConditionReport(rules, trivial=e == 0)


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


class AssertionOutcome(NamedTuple):
    assertion_id: str
    applied: bool
    violation: Violation | None


# What a check returns: None when the assertion's hypotheses fail, HELD when
# they hold and so does its conclusion, and the (expected, observed) texts
# of the violation otherwise.
HELD = ()


class _Context:
    """Precomputed facts shared by the assertion checks.

    settings lists the role assignments that meet the paper's hypothesis, a
    connected factor x and a cofactor y with no isolated vertex, each as
    (x's left side, y's left side, y's degrees), a left side being the
    vertex mask from bipartition_of, or None when the graph is not
    bipartite.  B and C commute, so the transposed product factors G into
    (K, H) as well as (H, K)."""

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
        self.g_regular = is_regular(f.g)
        self.factors_regular = is_regular(f.h) and is_regular(f.k)
        self.h_isolated = has_isolated_vertex(f.h)
        self.k_isolated = has_isolated_vertex(f.k)
        self.settings = [
            (x_parts, y_parts, y_deg)
            for x_conn, x_parts, y_isolated, y_parts, y_deg in (
                (self.h_conn, self.h_parts, self.k_isolated, self.k_parts, self.deg_k),
                (self.k_conn, self.k_parts, self.h_isolated, self.h_parts, self.deg_h),
            )
            if x_conn and not y_isolated
        ]


def _check_v1(ctx: _Context):
    for v, (dg, dh, dk) in enumerate(zip(ctx.deg_g, ctx.deg_h, ctx.deg_k)):
        if dg != dh * dk:
            return f"deg_G({v}) = deg_H({v})*deg_K({v})", f"{dg} != {dh}*{dk}"
    return HELD


def _check_v2(ctx: _Context):
    for x, x_name, y_name, y_deg in (
        (ctx.f.h, "H", "K", ctx.deg_k), (ctx.f.k, "K", "H", ctx.deg_h)
    ):
        for comp in components(x):
            values = sorted({y_deg[v] for v in comp})
            if len(values) > 1:
                return (
                    f"constant deg_{y_name} on each {x_name}-component",
                    f"component {comp} has deg_{y_name} values {values}",
                )
    return HELD


def _check_v3(ctx: _Context):
    if ctx.h_isolated or ctx.k_isolated:
        return None
    lower = min(ctx.e_h, ctx.e_k)
    upper = min(max(ctx.deg_h) * ctx.e_k, max(ctx.deg_k) * ctx.e_h)
    if lower <= ctx.e_g <= upper:
        return HELD
    return f"{lower} <= |E(G)| <= {upper}", f"|E(G)| = {ctx.e_g}"


def _check_v4(ctx: _Context):
    if not (ctx.n > 4 and ctx.h_conn and ctx.k_conn):
        return None
    if 2 * ctx.e_g <= ctx.e_h * ctx.e_k:
        return HELD
    return f"2|E(G)| <= {ctx.e_h * ctx.e_k}", f"2|E(G)| = {2 * ctx.e_g}"


def _check_v5(ctx: _Context):
    if not (ctx.g_conn and ctx.g_regular):
        return None
    if ctx.factors_regular:
        return HELD
    return (
        "H and K regular",
        f"H degrees {sorted(set(ctx.deg_h))}, K degrees {sorted(set(ctx.deg_k))}",
    )


def _check_v6(ctx: _Context):
    if not ctx.factors_regular:
        return None
    if ctx.g_regular:
        return HELD
    return "G regular", f"G degrees {sorted(set(ctx.deg_g))}"


def _check_v7(ctx: _Context):
    # Order 1 is excluded: K1 = K1 * K1 has two connected factors, and the
    # eigenvalue argument behind the statement needs a positive degree.
    if ctx.g_parts is None or ctx.n < 2:
        return None
    if not (ctx.h_conn and ctx.k_conn):
        return HELD
    return "at most one connected factor", "both H and K connected"


def _check_v8(ctx: _Context):
    left = ctx.g_parts
    if not (ctx.g_conn and left is not None):
        return None
    right = ((1 << ctx.n) - 1) ^ left

    def fits(across: Graph, within: Graph) -> bool:
        """across joins only opposite sides of G, within only the same side."""
        for v in range(ctx.n):
            own = left if left >> v & 1 else right
            if across.rows[v] & own or within.rows[v] & ~own:
                return False
        return True

    if fits(ctx.f.h, ctx.f.k) or fits(ctx.f.k, ctx.f.h):
        return HELD
    return (
        "one factor only across G's parts, the other with no cross edges",
        "neither role assignment fits G's bipartition",
    )


def _connected_product(ctx: _Context):
    if ctx.g_conn:
        return HELD
    return "G connected", f"G has {len(ctx.g_comps)} components"


def _check_v9(ctx: _Context):
    if all(x_parts is not None for x_parts, _, _ in ctx.settings):
        return None
    return _connected_product(ctx)


def _check_v10(ctx: _Context):
    cofactors = [(y_parts, y_deg) for x_parts, y_parts, y_deg in ctx.settings
                 if x_parts is not None]
    if ctx.g_conn or not cofactors:
        return None
    for y_parts, y_deg in cofactors:
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
            return (
                "regular bipartite cofactor, even order, two non-bipartite components",
                "; ".join(problems),
            )
    return HELD


def _check_v11(ctx: _Context):
    if ctx.n % 2 == 0 or not ctx.settings:
        return None
    return _connected_product(ctx)


def _check_v12(ctx: _Context):
    if ctx.g_conn or not ctx.settings:
        return None
    h_bipartite = ctx.h_parts is not None
    k_bipartite = ctx.k_parts is not None
    if h_bipartite and k_bipartite:
        return HELD
    return "H and K both bipartite", f"H bipartite: {h_bipartite}, K bipartite: {k_bipartite}"


def _check_v13(ctx: _Context):
    if not ctx.g_conn:
        return None
    # Read through the spectral module, where S1 reads this module's import,
    # so that a test can fake either check's radii without the other's.
    lg = spectral.lambda_max(ctx.f.g)
    product = spectral.lambda_max(ctx.f.h) * spectral.lambda_max(ctx.f.k)
    if abs(lg - product) <= DEFAULT_TOL * max(1.0, abs(lg)):
        return HELD
    return "lambda_max(G) = lambda_max(H) * lambda_max(K)", f"{lg!r} vs {product!r}"


def _check_s1(ctx: _Context):
    # Trivial witnesses (zero factor, so G edgeless) are excluded: an
    # all-isolated graph satisfies the eigenvalue identity vacuously but
    # not the no-isolated-vertices clause.
    if ctx.f.trivial or not (ctx.g_conn or ctx.h_conn or ctx.k_conn):
        return None
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
    if not problems:
        return HELD
    return "componentwise radius equals parent's, no isolated vertices", "; ".join(problems)


# One check per assertion, in ASSERTION_IDS order.
_CHECKS = (
    _check_v1, _check_v2, _check_v3, _check_v4, _check_v5, _check_v6, _check_v7,
    _check_v8, _check_v9, _check_v10, _check_v11, _check_v12, _check_v13, _check_s1,
)


def check_assertions(f: Factorization) -> tuple[AssertionOutcome, ...]:
    """Every registered assertion, with applied/violation status."""
    ctx = _Context(f)
    outcomes = []
    for aid, check in zip(ASSERTION_IDS, _CHECKS, strict=True):
        result = check(ctx)
        violation = Violation(aid, *result, ASSERTION_REFS[aid]) if result else None
        outcomes.append(AssertionOutcome(aid, result is not None, violation))
    return tuple(outcomes)


def validate_factorization(f: Factorization) -> tuple[Violation, ...]:
    """Violations of the registered assertions on a verified witness."""
    return tuple(o.violation for o in check_assertions(f) if o.violation is not None)


def exploratory_observations(
    f: Factorization, outcomes: tuple[AssertionOutcome, ...]
) -> dict[str, dict[str, int]]:
    """Logged evidence, never asserted, as counts in the shape of the verify
    report's exploratory section: the two-sided edge bound and the unguarded
    product edge bound when neither factor has an isolated vertex, and
    whether G's two components are isomorphic when V10 fires and holds in
    outcomes, f's check_assertions outcomes."""
    e_g, e_h, e_k = f.g.edge_count, f.h.edge_count, f.k.edge_count
    no_isolated = not (has_isolated_vertex(f.h) or has_isolated_vertex(f.k))
    unguarded = no_isolated and f.g.order > 4
    iso = None
    if any(o.assertion_id == "V10" and o.applied and o.violation is None for o in outcomes):
        first, second = (canonical_key(induced_subgraph(f.g, comp)) for comp in components(f.g))
        iso = first == second
    return {
        "stronger_edge_bound": {
            "instances": int(no_isolated),
            "failures": int(no_isolated and e_g < max(e_h, e_k)),
        },
        "unguarded_product_bound": {
            "instances": int(unguarded),
            "failures": int(unguarded and 2 * e_g > e_h * e_k),
        },
        "component_isomorphism": {
            "instances": int(iso is not None),
            "isomorphic": int(iso is True),
            "non_isomorphic": int(iso is False),
        },
    }
