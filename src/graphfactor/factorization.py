"""Witness triples (A, B, C) with A = BC, plus their wire format.

A Factorization always satisfies the exact product identity; StoredWitness
is the unchecked on-disk shape, so catalog verification can re-derive and
report a broken product instead of crashing at parse time.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ParameterError, PreconditionError
from .exact import IntMatrix, adjacency, as_adjacency, multiply
from .graphs import Graph, encode_graph6, is_edgeless


def _bit_rows(m: IntMatrix) -> list[str]:
    return ["".join(str(x) for x in row) for row in m.entries]


def _matrix_from_bit_rows(rows, what: str) -> IntMatrix:
    n = len(rows)
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, str) or len(row) != n or any(ch not in "01" for ch in row):
            raise ParameterError(f"{what}: row {i} is not a length-{n} bit-string")
        out.append(tuple(int(ch) for ch in row))
    return IntMatrix(tuple(out))


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
    def from_matrices(cls, a: IntMatrix, b: IntMatrix, c: IntMatrix) -> "Factorization":
        if not (a.order == b.order == c.order):
            raise ParameterError("factorization matrices must share one order")
        g, h, k = as_adjacency(a), as_adjacency(b), as_adjacency(c)
        if g is None or h is None or k is None:
            raise PreconditionError("factorization matrices must be adjacency matrices")
        return cls(g, h, k)

    @classmethod
    def from_factors(cls, b: IntMatrix, c: IntMatrix) -> "Factorization":
        return cls.from_matrices(multiply(b, c), b, c)

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
    """Witness as persisted: structurally valid, product not yet trusted."""

    a: IntMatrix
    b: IntMatrix
    c: IntMatrix
    h_graph6: str
    k_graph6: str
    trivial: bool

    @classmethod
    def from_factorization(cls, f: Factorization) -> "StoredWitness":
        return cls(f.a, f.b, f.c, encode_graph6(f.h), encode_graph6(f.k), f.trivial)

    @classmethod
    def from_json(cls, obj: dict) -> "StoredWitness":
        for field in ("a", "b", "c", "h_graph6", "k_graph6", "trivial"):
            if field not in obj:
                raise ParameterError(f"witness is missing field {field!r}")
        a = _matrix_from_bit_rows(obj["a"], "a")
        b = _matrix_from_bit_rows(obj["b"], "b")
        c = _matrix_from_bit_rows(obj["c"], "c")
        if not (a.order == b.order == c.order):
            raise ParameterError("witness matrices must share one order")
        if not isinstance(obj["trivial"], bool):
            raise ParameterError("witness field 'trivial' must be a boolean")
        return cls(a, b, c, str(obj["h_graph6"]), str(obj["k_graph6"]), obj["trivial"])

    def to_json(self) -> dict:
        return {
            "a": _bit_rows(self.a),
            "b": _bit_rows(self.b),
            "c": _bit_rows(self.c),
            "h_graph6": self.h_graph6,
            "k_graph6": self.k_graph6,
            "trivial": self.trivial,
        }

    def to_factorization(self) -> Factorization:
        """Re-verify the product identity; raises PreconditionError on failure."""
        return Factorization.from_matrices(self.a, self.b, self.c)
