"""Simple undirected graphs: bitmask representation, graph6 codec,
family generators, structural predicates, and exhaustive canonical forms.

Vertices are 0-based everywhere.  Adjacency is stored as one bitmask per
vertex, so neighborhood intersections and degree counts are single integer
operations.  Canonical forms minimize the column-major upper-triangle
bit-string over all relabelings and are capped at order 8.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .errors import Graph6Error, ParameterError, UnsupportedSizeError

CANONICAL_ORDER_CAP = 8
GRAPH6_ORDER_CAP = 62

_GRAPH6_HEADER = ">>graph6<<"


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph: vertex count plus one adjacency bitmask per vertex."""

    order: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.order
        if n < 1:
            raise ParameterError("graph order must be at least 1")
        if len(self.rows) != n:
            raise ParameterError(f"expected {n} adjacency rows, got {len(self.rows)}")
        rows = self.rows
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
                    self._raise_asymmetric()
                row ^= low

    def _raise_asymmetric(self) -> None:
        """Name the first asymmetric pair (i, j), i < j, in row-major order."""
        n = self.order
        for i in range(n):
            for j in range(i + 1, n):
                if (self.rows[i] >> j & 1) != (self.rows[j] >> i & 1):
                    raise ParameterError(f"adjacency not symmetric at ({i}, {j})")

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

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def edges(self):
        for u in range(self.order):
            row = self.rows[u] >> (u + 1)
            v = u + 1
            while row:
                if row & 1:
                    yield (u, v)
                row >>= 1
                v += 1

    @property
    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.rows)) >> 1

    @cached_property
    def _canonical(self) -> "_Labelling":
        """_canonical_order of this graph, computed at most once per object."""
        return _canonical_order(self)


@dataclass(frozen=True)
class Permutation:
    """Vertex relabeling; images[old] = new."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.images) != list(range(len(self.images))):
            raise ParameterError("permutation images must be a bijection on 0..n-1")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    @property
    def order(self) -> int:
        return len(self.images)

    def __call__(self, v: int) -> int:
        return self.images[v]

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for old, new in enumerate(self.images):
            inv[new] = old
        return Permutation(tuple(inv))


@dataclass(frozen=True)
class Bipartition:
    """Split of the vertex set into two sides (sorted tuples)."""

    left: tuple[int, ...]
    right: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.left) + len(self.right)
        if sorted(self.left + self.right) != list(range(n)):
            raise ParameterError("bipartition sides must partition 0..n-1")
        if tuple(sorted(self.left)) != self.left or tuple(sorted(self.right)) != self.right:
            raise ParameterError("bipartition sides must be sorted")

    @property
    def order(self) -> int:
        return len(self.left) + len(self.right)

    def left_mask(self) -> int:
        return sum(1 << v for v in self.left)

    def right_mask(self) -> int:
        return sum(1 << v for v in self.right)


class AcyclicClass(Enum):
    TREE = "tree"
    FOREST_MULTI = "forest_multi"
    HAS_CYCLE = "has_cycle"


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


def encode_edge_list(g: Graph) -> str:
    lines = [str(g.order)]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


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


def path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star(n: int) -> Graph:
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def matching(n: int) -> Graph:
    """n disjoint edges {i, n+i} on 2n vertices."""
    if n < 1:
        raise ParameterError("a matching needs at least 1 edge")
    return Graph.from_edges(2 * n, [(i, n + i) for i in range(n)])


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ParameterError("complete bipartite sides must be at least 1")
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def disjoint_union(*graphs: Graph) -> Graph:
    if not graphs:
        raise ParameterError("disjoint union needs at least one graph")
    rows: list[int] = []
    offset = 0
    for g in graphs:
        rows.extend(r << offset for r in g.rows)
        offset += g.order
    return Graph(offset, tuple(rows))


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


# ---------------------------------------------------------------------------
# structural predicates
# ---------------------------------------------------------------------------

def degree_sequence(g: Graph) -> tuple[int, ...]:
    return tuple(r.bit_count() for r in g.rows)


def components(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Connected components as sorted vertex tuples, ordered by smallest member."""
    n = g.order
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
                nxt |= g.rows[v]
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


def bipartition_of(g: Graph) -> Bipartition | None:
    """BFS 2-coloring, component by component; the lowest vertex of each
    component goes on the left.  None when an odd cycle exists."""
    n = g.order
    color = [-1] * n
    for start in range(n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop(0)
            m = g.rows[v]
            while m:
                w = (m & -m).bit_length() - 1
                m &= m - 1
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    left = tuple(v for v in range(n) if color[v] == 0)
    right = tuple(v for v in range(n) if color[v] == 1)
    return Bipartition(left, right)


def is_bipartite(g: Graph) -> bool:
    return bipartition_of(g) is not None


def is_valid_bipartition(g: Graph, parts: Bipartition) -> bool:
    """True when parts covers g's vertices and no edge lies inside a side."""
    if parts.order != g.order:
        return False
    lm = parts.left_mask()
    rm = parts.right_mask()
    for v in parts.left:
        if g.rows[v] & lm:
            return False
    for v in parts.right:
        if g.rows[v] & rm:
            return False
    return True


def classify_acyclic(g: Graph) -> tuple[AcyclicClass, int]:
    comps = components(g)
    ncomp = len(comps)
    if g.edge_count + ncomp != g.order:
        return AcyclicClass.HAS_CYCLE, ncomp
    if ncomp == 1:
        return AcyclicClass.TREE, 1
    return AcyclicClass.FOREST_MULTI, ncomp


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
    rows = [0] * len(verts)
    for v in verts:
        m = g.rows[v]
        while m:
            w = (m & -m).bit_length() - 1
            m &= m - 1
            if w in index:
                rows[index[v]] |= 1 << index[w]
    return Graph(len(verts), tuple(rows))


def permute(g: Graph, p: Permutation) -> Graph:
    """Relabeled copy: edge {i,j} in the result iff {p^-1(i), p^-1(j)} in g."""
    if p.order != g.order:
        raise ParameterError("permutation order does not match graph order")
    n = g.order
    rows = [0] * n
    for old, new in enumerate(p.images):
        m = g.rows[old]
        while m:
            w = (m & -m).bit_length() - 1
            m &= m - 1
            rows[new] |= 1 << p.images[w]
    return Graph(n, tuple(rows))


# ---------------------------------------------------------------------------
# canonical forms (exhaustive over relabelings, order <= 8)
# ---------------------------------------------------------------------------

class _Labelling(tuple):
    """The pair (key, placement) that _canonical_order returns, carrying the
    raw end state of its search: frontier, the final placements (each a
    (placement, free mask) pair, the least first), and later, the twin
    masks.  Only automorphism_generators turns them into permutations."""

    frontier: list[tuple[tuple[int, ...], int]]
    later: list[int]


def _canonical_order(g: Graph) -> _Labelling:
    """Minimal column-major upper-triangle bit-string and the least placement
    sequence realizing it (placement[k] = original vertex labeled k).

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
    labelling = _Labelling((format(key, f"0{width}b") if width else "", frontier[0][0]))
    labelling.frontier = frontier
    labelling.later = later
    return labelling


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
    labelling = g._canonical
    first = labelling[1]
    n = g.order
    generators = []
    for placement, _ in labelling.frontier[1:]:
        images = [0] * n
        for old, new in zip(first, placement):
            images[old] = new
        generators.append(tuple(images))
    for u, twins in enumerate(labelling.later):
        if twins:
            w = (twins & -twins).bit_length() - 1
            images = list(range(n))
            images[u], images[w] = w, u
            generators.append(tuple(images))
    return generators


def canonical_key(g: Graph) -> str:
    """Labeling-invariant bit-string; equal keys decide isomorphism."""
    return g._canonical[0]


def canonical_relabeling(g: Graph) -> Permutation:
    """Permutation carrying g onto its canonical form."""
    _, placement = g._canonical
    images = [0] * g.order
    for new, old in enumerate(placement):
        images[old] = new
    return Permutation(tuple(images))


def canonical_form(g: Graph) -> Graph:
    return permute(g, canonical_relabeling(g))


def graph_bits(g: Graph) -> str:
    """Column-major upper-triangle bit-string of the labeled graph."""
    return "".join(str(g.rows[i] >> j & 1) for i, j in _pair_order(g.order))


def _check_key(n: int, key: str) -> None:
    """Raise ParameterError unless key is a bit-string of the length order n needs."""
    if len(key) != n * (n - 1) // 2:
        raise ParameterError(f"key length {len(key)} does not match order {n}")
    # What strip leaves starts with the key's first character that is not a bit.
    stray = key.strip("01")
    if stray:
        raise ParameterError(f"key contains non-bit character {stray[0]!r}")


def graph_from_key(n: int, key: str) -> Graph:
    """Rebuild a graph from an order and a column-major upper-triangle bit-string."""
    _check_key(n, key)
    rows = [0] * n
    for (i, j), ch in zip(_pair_order(n), key):
        if ch == "1":
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return Graph(n, tuple(rows))

