"""Square integer matrices and their conversion to and from graphs.

IntMatrix holds Python int entries.  It is the matrix view of a
factorization's graphs (Factorization.a, .b and .c), which the CLI prints,
and the input of spectral.eigen_sym.  Floating-point spectra live in the
spectral module.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ParameterError
from .graphs import Graph


@dataclass(frozen=True)
class IntMatrix:
    """Square matrix of arbitrary-precision integers."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        if n == 0:
            raise ParameterError("matrix order must be at least 1")
        for row in self.entries:
            if len(row) != n:
                raise ParameterError("matrix must be square")

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def order(self) -> int:
        return len(self.entries)

    def is_symmetric(self) -> bool:
        n = self.order
        return all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(n)
            for j in range(i + 1, n)
        )

    def trace(self) -> int:
        return sum(self.entries[i][i] for i in range(self.order))

    def format_rows(self) -> str:
        return "\n".join(" ".join(str(x) for x in row) for row in self.entries)


def adjacency(g: Graph) -> IntMatrix:
    n = g.order
    return IntMatrix(
        tuple(tuple((g.rows[i] >> j) & 1 for j in range(n)) for i in range(n))
    )


def first_adjacency_violation(m: IntMatrix) -> tuple[int, int, str] | None:
    """First entry (row-major) stopping m from being an adjacency matrix."""
    n = m.order
    for i in range(n):
        for j in range(n):
            x = m.entries[i][j]
            if x not in (0, 1):
                return (i, j, f"entry {x} is not 0 or 1")
            if i == j and x:
                return (i, j, "nonzero diagonal entry")
            if j < i and x != m.entries[j][i]:
                return (i, j, "not symmetric")
    return None


def as_adjacency(m: IntMatrix) -> Graph | None:
    if first_adjacency_violation(m) is not None:
        return None
    n = m.order
    rows = tuple(
        sum((1 << j) for j in range(n) if m.entries[i][j]) for i in range(n)
    )
    return Graph(n, rows)
