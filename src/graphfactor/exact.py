"""Exact integer and rational matrix arithmetic.

Everything here is exact: entries are Python ints or Fractions, so powers,
products, the all-ones membership test, and the primitivity search carry no
rounding anywhere.  Floating-point spectra live in the spectral module.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterError, PreconditionError
from .graphs import Bipartition, Graph, is_valid_bipartition


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


@dataclass(frozen=True)
class PositivityProfile:
    all_positive: bool
    zero_rows: tuple[int, ...]


@dataclass(frozen=True)
class BipartitePowerStructure:
    even_k: int | None
    odd_k: int | None


@dataclass(frozen=True)
class HoffmanCertificate:
    """Coefficients a_0..a_{n-1} with sum a_i A^i equal to the all-ones matrix."""

    coefficients: tuple[Fraction, ...]

    def evaluates_to_all_ones(self, a: "IntMatrix") -> bool:
        n = a.order
        acc = [[Fraction(0)] * n for _ in range(n)]
        p = IntMatrix.identity(n)
        for coeff in self.coefficients:
            if coeff:
                for i in range(n):
                    for j in range(n):
                        acc[i][j] += coeff * p.entries[i][j]
            p = multiply(p, a)
        return all(x == 1 for row in acc for x in row)


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


def _require_adjacency(m: IntMatrix) -> Graph:
    g = as_adjacency(m)
    if g is None:
        i, j, why = first_adjacency_violation(m)  # type: ignore[misc]
        raise PreconditionError(f"not an adjacency matrix: ({i}, {j}): {why}")
    return g


def multiply(m: IntMatrix, other: IntMatrix) -> IntMatrix:
    n = m.order
    if other.order != n:
        raise ParameterError(f"order mismatch: {n} vs {other.order}")
    cols = tuple(tuple(other.entries[k][j] for k in range(n)) for j in range(n))
    out = []
    for row in m.entries:
        out.append(tuple(sum(a * b for a, b in zip(row, col)) for col in cols))
    return IntMatrix(tuple(out))


def power(m: IntMatrix, k: int) -> IntMatrix:
    if k < 0:
        raise ParameterError("exponent must be non-negative")
    result = IntMatrix.identity(m.order)
    base = m
    while k:
        if k & 1:
            result = multiply(result, base)
        k >>= 1
        if k:
            base = multiply(base, base)
    return result


def positivity_profile(m: IntMatrix) -> PositivityProfile:
    all_pos = all(x > 0 for row in m.entries for x in row)
    zero_rows = tuple(i for i, row in enumerate(m.entries) if all(x == 0 for x in row))
    return PositivityProfile(all_pos, zero_rows)


def commute(m: IntMatrix, other: IntMatrix) -> bool:
    if m.order != other.order:
        raise ParameterError(f"order mismatch: {m.order} vs {other.order}")
    return multiply(m, other) == multiply(other, m)


def connected_by_powers(a: IntMatrix) -> bool:
    """Connectivity via positivity of I + A + ... + A^(n-1)."""
    _require_adjacency(a)
    n = a.order
    total = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    p = IntMatrix.identity(n)
    for _ in range(1, n):
        p = multiply(p, a)
        for i in range(n):
            row = p.entries[i]
            for j in range(n):
                total[i][j] += row[j]
    return all(x > 0 for row in total for x in row)


def wielandt_bound(n: int) -> int:
    """Sharp bound on the exponent of a primitive n x n 0-1 matrix."""
    return n * n - 2 * n + 2


def primitivity_exponent(a: IntMatrix) -> int | None:
    """Smallest k with A^k entrywise positive, searched up to the Wielandt
    bound; None when no such k exists there (disconnected or bipartite)."""
    _require_adjacency(a)
    n = a.order
    p = a
    for k in range(1, wielandt_bound(n) + 1):
        if all(x > 0 for row in p.entries for x in row):
            return k
        p = multiply(p, a)
    return None


def _solve_exact(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """One exact solution of matrix * x = rhs (free variables at zero),
    or None when the system is inconsistent."""
    n_rows = len(matrix)
    n_cols = len(matrix[0]) if matrix else 0
    aug = [matrix[i][:] + [rhs[i]] for i in range(n_rows)]
    pivot_cols: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        scale = aug[r][c]
        aug[r] = [x / scale for x in aug[r]]
        for i in range(n_rows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivot_cols.append(c)
        r += 1
        if r == n_rows:
            break
    for i in range(r, n_rows):
        if aug[i][n_cols] != 0:
            return None
    x = [Fraction(0)] * n_cols
    for i, c in enumerate(pivot_cols):
        x[c] = aug[i][n_cols]
    return x


def hoffman_polynomial(a: IntMatrix) -> HoffmanCertificate | None:
    """Exact rational polynomial p with p(A) = J, if one exists.

    Decided by Gaussian elimination over the flattened span of
    I, A, ..., A^(n-1); present iff the graph is connected and regular.
    """
    _require_adjacency(a)
    n = a.order
    powers = [IntMatrix.identity(n)]
    for _ in range(1, n):
        powers.append(multiply(powers[-1], a))
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for i in range(n):
        for j in range(n):
            rows.append([Fraction(p.entries[i][j]) for p in powers])
            rhs.append(Fraction(1))
    solution = _solve_exact(rows, rhs)
    if solution is None:
        return None
    cert = HoffmanCertificate(tuple(solution))
    if not cert.evaluates_to_all_ones(a):
        raise AssertionError("inconsistent all-ones solve")
    return cert


def _submatrix(m: IntMatrix, row_idx, col_idx) -> list[list[int]]:
    return [[m.entries[i][j] for j in col_idx] for i in row_idx]


def bipartite_power_structure(a: IntMatrix, parts: Bipartition) -> BipartitePowerStructure:
    """Power structure of a bipartite adjacency matrix across a bipartition.

    even_k: smallest even k with (B12 B12^T)^k positive; odd_k: smallest odd
    k with the cross-blocks of A^k positive.  Both present iff connected.
    """
    g = _require_adjacency(a)
    if not is_valid_bipartition(g, parts):
        raise PreconditionError("bipartition is not a valid 2-coloring of the graph")
    left, right = parts.left, parts.right
    if not left or not right:
        return BipartitePowerStructure(None, None)
    b12 = _submatrix(a, left, right)
    square = [
        [sum(b12[i][t] * b12[j][t] for t in range(len(right))) for j in range(len(left))]
        for i in range(len(left))
    ]
    # The exponent of the square block obeys the Wielandt bound of its own
    # order; rounding up to even covers the parity requirement.
    bound = wielandt_bound(len(left))
    even_limit = bound + (bound & 1)
    even_k = None
    p = [row[:] for row in square]
    k = 1
    while k <= even_limit:
        if k % 2 == 0 and all(x > 0 for row in p for x in row):
            even_k = k
            break
        k += 1
        p = [
            [sum(p[i][t] * square[t][j] for t in range(len(left))) for j in range(len(left))]
            for i in range(len(left))
        ]
    odd_k = None
    odd_limit = 2 * wielandt_bound(max(len(left), len(right))) + 1
    ak = a
    k = 1
    while k <= odd_limit:
        if k % 2 == 1 and all(
            ak.entries[i][j] > 0 for i in left for j in right
        ):
            odd_k = k
            break
        k += 1
        ak = multiply(ak, a)
    return BipartitePowerStructure(even_k, odd_k)
