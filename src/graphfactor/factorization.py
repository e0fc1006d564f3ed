"""Witness triples (A, B, C) with A = BC, in their two forms.

A Factorization is three bitmask graphs whose product identity holds, and
its to_json writes the witness as the catalog stores it, as bit-row
strings.  A StoredWitness only reads that form back: from_json checks its
shape (the schema check of a catalog line runs it on each witness), but
the product is not trusted until to_factorization rebuilds the graphs, so
catalog verification can report a broken witness instead of crashing at
parse time.  The IntMatrix views a, b and c, the adjacency matrices as rows
of ints, are what the CLI prints.

All three are NamedTuples, equal and hashable by their fields and tuples
underneath, so a witness reaches json through to_json, never directly.
Factorization(g, h, k) checks the product identity every time; nothing
in the package builds one without it.
"""
from __future__ import annotations

from typing import NamedTuple

from .errors import ParameterError, PreconditionError, check_fields
from .graphs import Graph, encode_graph6, is_edgeless

_NOT_ADJACENCY = "factorization matrices must be adjacency matrices"


def _bit_rows(g: Graph) -> list[str]:
    """The rows of g's adjacency matrix; character j of row i is entry (i, j)."""
    width = f"0{g.order}b"
    return [format(row, width)[::-1] for row in g.rows]


def _checked_bit_rows(rows, what: str) -> tuple[str, ...]:
    n = len(rows)
    if not n:
        raise ParameterError("matrix order must be at least 1")
    for i, row in enumerate(rows):
        if not isinstance(row, str) or len(row) != n or row.strip("01"):
            raise ParameterError(f"{what}: row {i} is not a length-{n} bit-string")
    return tuple(rows)


def _graph(n: int, rows) -> Graph:
    """The graph of n row masks; a loop or an asymmetric pair is a
    PreconditionError."""
    try:
        return Graph(n, tuple(rows))
    except ParameterError:
        raise PreconditionError(_NOT_ADJACENCY) from None


class IntMatrix(NamedTuple):
    """A graph's adjacency matrix as rows of ints: entries[i][j] is 1 when
    i and j are adjacent, else 0."""

    entries: tuple[tuple[int, ...], ...]

    def format_rows(self) -> str:
        return "\n".join(" ".join(str(x) for x in row) for row in self.entries)


def adjacency(g: Graph) -> IntMatrix:
    n = g.order
    rows = g.rows
    return IntMatrix(tuple(tuple((rows[i] >> j) & 1 for j in range(n)) for i in range(n)))


class _FactorizationFields(NamedTuple):
    g: Graph
    h: Graph
    k: Graph


class Factorization(_FactorizationFields):
    """Verified witness: the adjacency matrices A, B, C of g, h, k satisfy
    B*C = A exactly, checked once by popcount when the triple is built."""

    __slots__ = ()

    def __new__(cls, g: Graph, h: Graph, k: Graph) -> "Factorization":
        n = g.order
        if not (n == h.order == k.order):
            raise ParameterError("factorization graphs must share one order")
        rows_k = k.rows
        for gi, hi in zip(g.rows, h.rows):
            for j in range(n):
                if (hi & rows_k[j]).bit_count() != (gi >> j & 1):
                    raise PreconditionError("product identity fails: B*C != A")
        return tuple.__new__(cls, (g, h, k))

    @classmethod
    def from_factors(cls, h: Graph, k: Graph) -> "Factorization":
        """The witness whose A is the product of the factor graphs' B and C:
        entry (i, j) is 1 where rows h_i and k_j share one vertex, and the
        product check rejects any entry above 1."""
        rows = [
            sum(1 << j for j, kj in enumerate(k.rows) if (hi & kj).bit_count() == 1)
            for hi in h.rows
        ]
        return cls(_graph(h.order, rows), h, k)

    @property
    def a(self) -> IntMatrix:
        return adjacency(self.g)

    @property
    def b(self) -> IntMatrix:
        return adjacency(self.h)

    @property
    def c(self) -> IntMatrix:
        return adjacency(self.k)

    @property
    def trivial(self) -> bool:
        """A zero factor, which forces A = 0."""
        return is_edgeless(self.h) or is_edgeless(self.k)

    def to_json(self) -> dict:
        """The witness as the catalog stores it: the bit rows of A, B and C,
        character j of row i being entry (i, j), and the factors' graph6."""
        return {
            "a": _bit_rows(self.g),
            "b": _bit_rows(self.h),
            "c": _bit_rows(self.k),
            "h_graph6": encode_graph6(self.h),
            "k_graph6": encode_graph6(self.k),
            "trivial": self.trivial,
        }


class StoredWitness(NamedTuple):
    """Witness as read back from a catalog: the bit rows of A, B and C,
    structurally valid with the product not yet trusted."""

    a: tuple[str, ...]
    b: tuple[str, ...]
    c: tuple[str, ...]
    h_graph6: str
    k_graph6: str
    trivial: bool

    @classmethod
    def from_json(cls, obj: dict) -> "StoredWitness":
        check_fields(obj, cls._fields, "witness")
        a = _checked_bit_rows(obj["a"], "a")
        b = _checked_bit_rows(obj["b"], "b")
        c = _checked_bit_rows(obj["c"], "c")
        if not (len(a) == len(b) == len(c)):
            raise ParameterError("witness matrices must share one order")
        if not isinstance(obj["trivial"], bool):
            raise ParameterError("witness field 'trivial' must be a boolean")
        return cls(a, b, c, obj["h_graph6"], obj["k_graph6"], obj["trivial"])

    def to_factorization(self) -> Factorization:
        """Rebuild the three graphs and re-verify the product identity;
        raises PreconditionError on failure."""
        n = len(self.a)
        return Factorization(*(
            _graph(n, [int(row[::-1], 2) for row in rows]) for rows in (self.a, self.b, self.c)
        ))
