"""Witness triples (A, B, C) with A = BC, in their two forms.

A Factorization is three bitmask graphs whose product identity holds; a
StoredWitness is the catalog's bit-row strings, unchecked until
to_factorization rebuilds the graphs, so catalog verification can report a
broken witness instead of crashing at parse time.  The IntMatrix views a, b
and c, the adjacency matrices as rows of ints, are what the CLI prints.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ParameterError, PreconditionError, reject_unknown_fields
from .graphs import Graph, encode_graph6, is_edgeless

_NOT_ADJACENCY = "factorization matrices must be adjacency matrices"


def _bit_rows(g: Graph) -> tuple[str, ...]:
    """The rows of g's adjacency matrix; character j of row i is entry (i, j)."""
    width = f"0{g.order}b"
    return tuple(format(row, width)[::-1] for row in g.rows)


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


@dataclass(frozen=True)
class IntMatrix:
    """A graph's adjacency matrix as rows of ints: entries[i][j] is 1 when
    i and j are adjacent, else 0."""

    entries: tuple[tuple[int, ...], ...]

    def format_rows(self) -> str:
        return "\n".join(" ".join(str(x) for x in row) for row in self.entries)


def adjacency(g: Graph) -> IntMatrix:
    n = g.order
    return IntMatrix(
        tuple(tuple((g.rows[i] >> j) & 1 for j in range(n)) for i in range(n))
    )


@dataclass(frozen=True)
class Factorization:
    """Verified witness: the adjacency matrices A, B, C of g, h, k satisfy
    B*C = A exactly, checked once by popcount when the triple is built."""

    g: Graph
    h: Graph
    k: Graph

    def __post_init__(self) -> None:
        n = self.g.order
        if not (n == self.h.order == self.k.order):
            raise ParameterError("factorization graphs must share one order")
        rows_k = self.k.rows
        for gi, hi in zip(self.g.rows, self.h.rows):
            for j in range(n):
                if (hi & rows_k[j]).bit_count() != (gi >> j & 1):
                    raise PreconditionError("product identity fails: B*C != A")

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
        return StoredWitness.from_factorization(self).to_json()


@dataclass(frozen=True)
class StoredWitness:
    """Witness as persisted: the bit rows of A, B and C, structurally valid
    with the product not yet trusted."""

    a: tuple[str, ...]
    b: tuple[str, ...]
    c: tuple[str, ...]
    h_graph6: str
    k_graph6: str
    trivial: bool

    @classmethod
    def from_factorization(cls, f: Factorization) -> "StoredWitness":
        return cls(
            _bit_rows(f.g), _bit_rows(f.h), _bit_rows(f.k),
            encode_graph6(f.h), encode_graph6(f.k), f.trivial,
        )

    @classmethod
    def from_json(cls, obj: dict) -> "StoredWitness":
        fields = ("a", "b", "c", "h_graph6", "k_graph6", "trivial")
        for field in fields:
            if field not in obj:
                raise ParameterError(f"witness is missing field {field!r}")
        reject_unknown_fields(obj, fields, "witness")
        a = _checked_bit_rows(obj["a"], "a")
        b = _checked_bit_rows(obj["b"], "b")
        c = _checked_bit_rows(obj["c"], "c")
        if not (len(a) == len(b) == len(c)):
            raise ParameterError("witness matrices must share one order")
        if not isinstance(obj["trivial"], bool):
            raise ParameterError("witness field 'trivial' must be a boolean")
        return cls(a, b, c, str(obj["h_graph6"]), str(obj["k_graph6"]), obj["trivial"])

    def to_json(self) -> dict:
        return {
            "a": list(self.a),
            "b": list(self.b),
            "c": list(self.c),
            "h_graph6": self.h_graph6,
            "k_graph6": self.k_graph6,
            "trivial": self.trivial,
        }

    def to_factorization(self) -> Factorization:
        """Rebuild the three graphs and re-verify the product identity;
        raises PreconditionError on failure."""
        n = len(self.a)
        return Factorization(*(
            _graph(n, [int(row[::-1], 2) for row in rows]) for rows in (self.a, self.b, self.c)
        ))
