"""Simple undirected graphs: bitmask representation, graph6 codec,
family generators, structural predicates, and exhaustive canonical forms.

Vertices are 0-based everywhere.  Adjacency is stored as one bitmask per
vertex, so neighborhood intersections and degree counts are single integer
operations.  Canonical forms minimize the column-major upper-triangle
bit-string over all relabelings and are capped at order 8.

Graph, like every immutable value type of the package, is a NamedTuple:
equal and hashable by its fields, and a tuple underneath, so code hands
its fields to json, never the value itself.  Graph(n, rows) validates
its rows, as it must for input from outside the program.  Two builders
skip the check through Graph._make, derivations whose rows are symmetric,
loop-free and in range by construction: graph_from_key (which
decode_graph6 calls after its own text checks) and the orderly-generation
children of census.enumerate_graphs.  A graph pickles as its two fields,
without its memoised labelling, and unpickling runs the check, as for any
other outside input.  The census and verify workers inherit their input
by fork, so only results are pickled: the witness graphs of the records
a census worker sends back.
"""
from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .errors import Graph6Error, ParameterError, UnsupportedSizeError

CANONICAL_ORDER_CAP = 8
GRAPH6_ORDER_CAP = 62

_GRAPH6_HEADER = ">>graph6<<"


class _GraphFields(NamedTuple):
    order: int
    rows: tuple[int, ...]


class Graph(_GraphFields):
    """Undirected simple graph: vertex count plus one adjacency bitmask per vertex."""

    def __new__(cls, order: int, rows: tuple[int, ...]) -> "Graph":
        n = order
        if n < 1:
            raise ParameterError("graph order must be at least 1")
        if len(rows) != n:
            raise ParameterError(f"expected {n} adjacency rows, got {len(rows)}")
        full = (1 << n) - 1
        for i, row in enumerate(rows):
            if row & ~full:
                raise ParameterError(f"row {i} has bits outside 0..{n - 1}")
            if row >> i & 1:
                raise ParameterError(f"loop at vertex {i}")
        # Symmetric iff every set bit j of row i has bit i set in row j.
        for i, row in enumerate(rows):
            bit = 1 << i
            while row:
                low = row & -row
                if not rows[low.bit_length() - 1] & bit:
                    _raise_asymmetric(n, rows)
                row ^= low
        return tuple.__new__(cls, (order, rows))

    @classmethod
    def from_edges(cls, order: int, edges) -> "Graph":
        rows = [0] * order
        for u, v in edges:
            if not (0 <= u < order and 0 <= v < order):
                raise ParameterError(f"edge ({u}, {v}) outside 0..{order - 1}")
            if u == v:
                raise ParameterError(f"loop edge ({u}, {v}) not allowed")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(order, tuple(rows))

    @property
    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.rows)) >> 1

    @cached_property
    def _canonical(self) -> tuple:
        """_canonical_order of this graph, computed at most once per object."""
        return _canonical_order(self)

    def __getstate__(self) -> None:
        # Nothing beyond the fields: the memoised labelling stays behind.
        return None


def _raise_asymmetric(n: int, rows) -> None:
    """Name the first asymmetric pair (i, j), i < j, in row-major order."""
    for i in range(n):
        for j in range(i + 1, n):
            if (rows[i] >> j & 1) != (rows[j] >> i & 1):
                raise ParameterError(f"adjacency not symmetric at ({i}, {j})")


# ---------------------------------------------------------------------------
# graph6 codec (single-byte size form, orders 1..62)
# ---------------------------------------------------------------------------

def _pair_order(n: int) -> list[tuple[int, int]]:
    """Upper-triangle pairs in column-major order: (0,1), (0,2), (1,2), ..."""
    return [(i, j) for j in range(1, n) for i in range(j)]


def decode_graph6(text: str) -> Graph:
    """Parse a graph6 record; an optional '>>graph6<<' header is tolerated."""
    s = text.strip()
    if s.startswith(_GRAPH6_HEADER):
        s = s[len(_GRAPH6_HEADER):]
    if not s:
        raise Graph6Error("byte 0: empty graph6 record")
    for off, ch in enumerate(s):
        code = ord(ch)
        if not 63 <= code <= 126:
            raise Graph6Error(f"byte {off}: character {ch!r} outside graph6 range")
    n = ord(s[0]) - 63
    if n == 63:
        raise Graph6Error("byte 0: multi-byte size form (order > 62) unsupported")
    if n < 1:
        raise Graph6Error("byte 0: order must be at least 1")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(s) - 1 != nbytes:
        raise Graph6Error(
            f"byte {len(s)}: order {n} needs {nbytes} edge bytes, got {len(s) - 1}"
        )
    bits = "".join(format(ord(ch) - 63, "06b") for ch in s[1:])
    extra = bits.find("1", nbits)
    if extra >= 0:
        raise Graph6Error(f"byte {1 + extra // 6}: nonzero padding bit")
    return graph_from_key(n, bits[:nbits])


def encode_graph6(g: Graph) -> str:
    """Encode the labeled graph in graph6 (no header)."""
    return graph6_from_key(g.order, graph_bits(g))


def graph6_from_key(n: int, key: str) -> str:
    """graph6 (no header) of graph_from_key(n, key).  graph6 is the order
    byte followed by the column-major upper-triangle bit-string, which is
    what a key is, packed six bits a byte, so no graph is built."""
    if n > GRAPH6_ORDER_CAP:
        raise UnsupportedSizeError(f"graph6 single-byte form is capped at order {GRAPH6_ORDER_CAP}")
    _check_key(n, key)
    bits = key + "0" * (-len(key) % 6)
    return chr(63 + n) + "".join(
        chr(63 + int(bits[t:t + 6], 2)) for t in range(0, len(bits), 6)
    )


def decode_edge_list(text: str) -> Graph:
    """Parse the edge-list format: one 'u v' pair per line, 0-based.

    A line holding a single integer declares the order (needed for
    trailing isolated vertices); otherwise the order is max id + 1.
    Blank lines and '#' comments are skipped.  Orders above
    GRAPH6_ORDER_CAP, which every command prints graph6 in, are refused.
    """
    order = 0
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            nums = [int(p) for p in parts]
        except ValueError:
            raise ParameterError(f"line {lineno}: non-integer token in {line!r}") from None
        if len(nums) == 1:
            if nums[0] < 1:
                raise ParameterError(f"line {lineno}: order must be at least 1")
            order = max(order, nums[0])
        elif len(nums) == 2:
            u, v = nums
            if u < 0 or v < 0:
                raise ParameterError(f"line {lineno}: negative vertex id")
            if u == v:
                raise ParameterError(f"line {lineno}: loop edge {u} {v}")
            edges.append((u, v))
            order = max(order, u + 1, v + 1)
        else:
            raise ParameterError(f"line {lineno}: expected 'u v', got {line!r}")
        if order > GRAPH6_ORDER_CAP:
            raise ParameterError(
                f"line {lineno}: order {order} exceeds the graph6 cap {GRAPH6_ORDER_CAP}"
            )
    if order == 0:
        raise ParameterError("edge list declares no vertices")
    return Graph.from_edges(order, edges)


# ---------------------------------------------------------------------------
# family generators
# ---------------------------------------------------------------------------

def edgeless(n: int) -> Graph:
    return Graph(n, (0,) * n)


def complete(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << i) for i in range(n)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ParameterError("a cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def matching(n: int) -> Graph:
    """n disjoint edges {i, n+i} on 2n vertices."""
    if n < 1:
        raise ParameterError("a matching needs at least 1 edge")
    return Graph.from_edges(2 * n, [(i, n + i) for i in range(n)])


def disjoint_union(*graphs: Graph) -> Graph:
    if not graphs:
        raise ParameterError("disjoint union needs at least one graph")
    rows: list[int] = []
    offset = 0
    for g in graphs:
        rows.extend(r << offset for r in g.rows)
        offset += g.order
    return Graph(offset, tuple(rows))


# ---------------------------------------------------------------------------
# structural predicates
# ---------------------------------------------------------------------------

def degree_sequence(g: Graph) -> tuple[int, ...]:
    return tuple(r.bit_count() for r in g.rows)


def components(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Connected components as sorted vertex tuples, ordered by smallest member."""
    n = g.order
    rows = g.rows
    seen = 0
    out = []
    for start in range(n):
        if seen >> start & 1:
            continue
        comp = 1 << start
        frontier = 1 << start
        while frontier:
            nxt = 0
            m = frontier
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                nxt |= rows[v]
            frontier = nxt & ~comp
            comp |= frontier
        seen |= comp
        out.append(tuple(v for v in range(n) if comp >> v & 1))
    return tuple(out)


def is_connected(g: Graph) -> bool:
    return len(components(g)) == 1


def has_isolated_vertex(g: Graph) -> bool:
    return 0 in g.rows


def is_edgeless(g: Graph) -> bool:
    return all(r == 0 for r in g.rows)


def is_regular(g: Graph) -> bool:
    degs = degree_sequence(g)
    return min(degs) == max(degs)


def bipartition_of(g: Graph) -> int | None:
    """BFS 2-coloring, component by component, with the lowest vertex of
    each component on the left: the left side's vertex mask, or None when
    an odd cycle exists."""
    n = g.order
    rows = g.rows
    color = [-1] * n
    for start in range(n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop(0)
            m = rows[v]
            while m:
                w = (m & -m).bit_length() - 1
                m &= m - 1
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    return sum(1 << v for v in range(n) if color[v] == 0)


def is_bipartite(g: Graph) -> bool:
    return bipartition_of(g) is not None


def contains_c4(g: Graph) -> bool:
    """True iff two distinct vertices share at least two common neighbors."""
    rows = g.rows
    for u in range(g.order - 1):
        ru = rows[u]
        for rv in rows[u + 1:]:
            common = ru & rv
            if common & (common - 1):
                return True
    return False


def induced_subgraph(g: Graph, vertices) -> Graph:
    verts = tuple(sorted(vertices))
    index = {v: i for i, v in enumerate(verts)}
    g_rows = g.rows
    rows = [0] * len(verts)
    for v in verts:
        m = g_rows[v]
        while m:
            w = (m & -m).bit_length() - 1
            m &= m - 1
            if w in index:
                rows[index[v]] |= 1 << index[w]
    return Graph(len(verts), tuple(rows))


# ---------------------------------------------------------------------------
# canonical forms (exhaustive over relabelings, order <= 8)
# ---------------------------------------------------------------------------

def _canonical_order(g: Graph) -> tuple:
    """(key, placement, frontier, later): the minimal column-major
    upper-triangle bit-string, the least placement sequence realizing it
    (placement[k] = original vertex labeled k), and the raw end state of
    the search, which only automorphism_generators turns into permutations:
    frontier, the final placements (each a (placement, free mask) pair, the
    least first), and later, the twin masks.

    Level k appends the k-bit adjacency column of the next placed vertex,
    so lexicographic minimization proceeds block by block: the frontier
    keeps, in increasing lexicographic order, partial placements that still
    realize the minimal prefix, and the placement returned is the least
    one realizing the key.

    Two exact shortcuts keep the frontier small:

    - the minimal block of a partial placement, and every free vertex
      attaining it, come from one mask step per placed vertex p: keep the
      candidates not adjacent to p if there are any (bit 0), else all of
      them (bit 1);
    - twins u < w (equal neighbourhoods apart from each other) are swapped
      by an automorphism of g that fixes every other vertex, so placing w
      while u is free gives the same strings as placing u, from a
      lexicographically larger placement; only the lowest free vertex of
      each twin class is placed.

    Every final placement realizes the key, so each one against the first
    is an automorphism of g; those and the twin transpositions generate
    Aut(g) (the final frontier alone does not), and the result keeps both
    for automorphism_generators.
    """
    n = g.order
    if n > CANONICAL_ORDER_CAP:
        raise UnsupportedSizeError(f"canonical forms are capped at order {CANONICAL_ORDER_CAP}")
    rows = g.rows
    full = (1 << n) - 1
    later = [0] * n  # later[u]: mask of u's twins above u
    for u in range(n):
        for w in range(u + 1, n):
            if rows[u] & ~(1 << w) == rows[w] & ~(1 << u):
                later[u] |= 1 << w
    non_adjacent = [full ^ row for row in rows]
    # (placed vertices, mask of free vertices); level 0 places the first vertex.
    frontier: list[tuple[tuple[int, ...], int]] = [((), full)]
    key = 0  # the minimal blocks so far, as one integer
    for k in range(n):
        best = 1 << k  # above every k-bit block
        extended: list[tuple[tuple[int, ...], int]] = []
        for placed, free in frontier:
            cand = free
            block = 0
            for p in placed:
                z = cand & non_adjacent[p]
                if z:
                    cand = z
                    block <<= 1
                else:
                    block = block << 1 | 1
            if block < best:
                best = block
                extended = []
            elif block > best:
                continue
            m = cand
            while m:
                low = m & -m
                u = low.bit_length() - 1
                m &= ~(later[u] | low)
                extended.append((placed + (u,), free ^ low))
        frontier = extended
        key = key << k | best
    width = n * (n - 1) // 2
    return format(key, f"0{width}b") if width else "", frontier[0][0], frontier, later


def automorphism_generators(g: Graph) -> list[tuple[int, ...]]:
    """Generators of Aut(g) as image tuples (images[v] = sigma(v)), read off
    g's canonical labelling with no second search; empty iff Aut(g) is
    trivial.

    Each final placement of the labelling after the first realizes the key
    too, so it composed with the inverse of the first is an automorphism.
    Every automorphism carries the first placement to a placement realizing
    the key, and reordering each twin class within it, which twin
    transpositions do, gives a final placement; so those automorphisms and
    one transposition (u w) per vertex u and its lowest twin w above it
    generate Aut(g)."""
    _, first, frontier, later = g._canonical
    n = g.order
    generators = []
    for placement, _ in frontier[1:]:
        images = [0] * n
        for old, new in zip(first, placement):
            images[old] = new
        generators.append(tuple(images))
    for u, twins in enumerate(later):
        if twins:
            w = (twins & -twins).bit_length() - 1
            images = list(range(n))
            images[u], images[w] = w, u
            generators.append(tuple(images))
    return generators


def canonical_key(g: Graph) -> str:
    """Labeling-invariant bit-string; equal keys decide isomorphism."""
    return g._canonical[0]


def canonical_form(g: Graph) -> Graph:
    """g relabelled by its canonical placement, so that its column-major
    upper-triangle bit-string is the canonical key."""
    return graph_from_key(g.order, g._canonical[0])


def graph_bits(g: Graph) -> str:
    """Column-major upper-triangle bit-string of the labeled graph."""
    rows = g.rows
    return "".join(str(rows[i] >> j & 1) for i, j in _pair_order(g.order))


def _check_key(n: int, key: str) -> None:
    """Raise ParameterError unless key is a bit-string of the length order n needs."""
    if len(key) != n * (n - 1) // 2:
        raise ParameterError(f"key length {len(key)} does not match order {n}")
    # What strip leaves starts with the key's first character that is not a bit.
    stray = key.strip("01")
    if stray:
        raise ParameterError(f"key contains non-bit character {stray[0]!r}")


def graph_from_key(n: int, key: str) -> Graph:
    """Rebuild a graph from an order and a column-major upper-triangle
    bit-string.  Each 1 sets both bits of a pair i < j < n, so the rows are
    symmetric, loop-free and in range, and Graph._make skips their check."""
    _check_key(n, key)
    if n < 1:
        raise ParameterError("graph order must be at least 1")
    rows = [0] * n
    for (i, j), ch in zip(_pair_order(n), key):
        if ch == "1":
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return Graph._make((n, tuple(rows)))

