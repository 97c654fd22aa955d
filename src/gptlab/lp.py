"""Exact-rational feasibility LP.

Everything geometric downstream (membership certificates, simplex
embeddings, interior functionals) reduces to one question: does
{ x >= 0 : A x = b } contain a point?  This module answers it with a
primal Phase-I simplex over Fractions using Bland's rule, which terminates
without cycling and needs no tolerance parameter.  Infeasibility comes with
an exact Farkas vector y satisfying <y, col> <= 0 for every column of A and
<y, b> > 0; both branches are re-verified before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DimensionMismatch, InternalCheckError
from .linalg import Vec, inner, vec_sub


@dataclass(frozen=True)
class Feasible:
    x: tuple[Fraction, ...]

    @property
    def feasible(self) -> bool:
        return True


@dataclass(frozen=True)
class Infeasible:
    farkas: Vec

    @property
    def feasible(self) -> bool:
        return False


def solve_feasibility(columns: Sequence[Vec], b: Vec) -> Feasible | Infeasible:
    """Find x >= 0 with sum_j x_j columns_j = b, or an exact Farkas certificate."""
    m = len(b)
    for col in columns:
        if len(col) != m:
            raise DimensionMismatch(m, len(col), "LP column")
    n = len(columns)

    # rows with negative rhs are flipped so artificials start feasible
    flip = [b_i < 0 for b_i in b]
    tableau = []
    for i in range(m):
        sign = Fraction(-1) if flip[i] else Fraction(1)
        row = [sign * columns[j][i] for j in range(n)]
        row.extend(Fraction(1) if k == i else Fraction(0) for k in range(m))
        row.append(sign * b[i])
        tableau.append(row)
    basis = [n + i for i in range(m)]

    # reduced costs for minimising the artificial sum; start with c_B = 1
    width = n + m + 1
    obj = [Fraction(0)] * width
    for j in range(width):
        s = sum((tableau[i][j] for i in range(m)), Fraction(0))
        obj[j] = (Fraction(0) if j < n else Fraction(1) if j < n + m else Fraction(0)) - s
    # obj[-1] currently holds -(objective value)

    while True:
        entering = next((j for j in range(n + m) if obj[j] < 0), None)
        if entering is None:
            break
        pivot_row = None
        best = None
        for i in range(m):
            coef = tableau[i][entering]
            if coef > 0:
                ratio = tableau[i][-1] / coef
                if best is None or ratio < best or (ratio == best and basis[i] < basis[pivot_row]):
                    best = ratio
                    pivot_row = i
        if pivot_row is None:
            raise InternalCheckError("phase-I objective unbounded; tableau corrupted")
        # sparse update: only the columns where the pivot row is nonzero change
        prow = tableau[pivot_row]
        piv = prow[entering]
        support = [j for j, x in enumerate(prow) if x != 0]
        for j in support:
            prow[j] /= piv
        for row in tableau + [obj]:
            f = row[entering]
            if row is not prow and f != 0:
                for j in support:
                    row[j] -= f * prow[j]
        basis[pivot_row] = entering

    objective = -obj[-1]
    if objective > 0:
        # y_i = 1 - reduced cost of artificial i, mapped back through row flips
        y = []
        for i in range(m):
            y_i = Fraction(1) - obj[n + i]
            y.append(-y_i if flip[i] else y_i)
        y_t = tuple(y)
        for col in columns:
            if inner(y_t, col) > 0:
                raise InternalCheckError("Farkas certificate fails on a column")
        if inner(y_t, b) <= 0:
            raise InternalCheckError("Farkas certificate fails on the rhs")
        return Infeasible(farkas=y_t)

    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tableau[i][-1]
    x_t = tuple(x)
    residual = vec_sub(b, tuple(sum((x_t[j] * columns[j][i] for j in range(n)), Fraction(0)) for i in range(m)))
    if any(r != 0 for r in residual) or any(c < 0 for c in x_t):
        raise InternalCheckError("feasible point fails re-verification")
    return Feasible(x=x_t)


def find_uniform_positive_functional(vectors: Sequence[Vec], dim: int) -> Vec | None:
    """A vector u with <v, u> >= 1 for every v, or None if none exists.

    Used to pick a normalising functional that is strictly positive on a
    generator family; u is free-signed, so it is split u = p - q with
    p, q >= 0 and slack variables close the inequalities.
    """
    k = len(vectors)
    if k == 0:
        return tuple(Fraction(0) for _ in range(dim))
    columns: list[Vec] = []
    for j in range(dim):
        columns.append(tuple(v[j] for v in vectors))
    for j in range(dim):
        columns.append(tuple(-v[j] for v in vectors))
    for i in range(k):
        columns.append(tuple(Fraction(-1) if r == i else Fraction(0) for r in range(k)))
    b = tuple(Fraction(1) for _ in range(k))
    result = solve_feasibility(columns, b)
    if not result.feasible:
        return None
    x = result.x
    return tuple(x[j] - x[dim + j] for j in range(dim))
