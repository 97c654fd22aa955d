"""Exact-rational feasibility LP.

Its one caller is `cones.member_cone`: does { x >= 0 : A x = b } contain a
point?  This module answers it with a primal Phase-I simplex using Bland's
rule, which terminates without cycling and needs no tolerance parameter.
The tableau is an integer matrix over one positive common denominator, the
basis determinant, pivoted fraction-free by `linalg.pivot` (integer
pivoting as in Avis's lrs); Fractions appear only in the returned point or
certificate.
Infeasibility comes with an exact Farkas vector y satisfying <y, col> <= 0
for every column of A and <y, b> > 0.  The solver checks neither answer:
`member_cone` verifies each one, point or Farkas vector, before it leaves
the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import Sequence

from .errors import DimensionMismatch, InternalCheckError
from .linalg import Vec, pivot


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
    """Find x >= 0 with sum_j x_j columns_j = b, or an exact Farkas certificate.

    The point is a basic solution: each positive x_j belongs to a column of
    the final basis, so the columns x uses are linearly independent.
    """
    m = len(b)
    for col in columns:
        if len(col) != m:
            raise DimensionMismatch(m, len(col), "LP column")
    n = len(columns)

    # Rows with negative rhs are flipped so artificials start feasible.  Row
    # i is cleared by the lcm l_i of its denominators and scaled to det =
    # prod(l_i), so the rows are det(B) * B^-1 M for the artificial basis B
    # of the cleared matrix M and `pivot` divides exactly.  Ratio-test
    # pivots are positive: det stays positive and keeps every sign.
    rows = [
        [-c[i] if b_i < 0 else c[i] for c in columns] + [abs(b_i)] for i, b_i in enumerate(b)
    ]
    det = prod(lcm(*(x.denominator for x in row)) for row in rows)
    tableau = []
    for i, row in enumerate(rows):
        ints = [x.numerator * (det // x.denominator) for x in row]
        tableau.append(ints[:n] + [det if k == i else 0 for k in range(m)] + ints[n:])
    # reduced costs for minimising the artificial sum, times det; the last
    # entry is -det * (objective value)
    obj = [-sum(row[j] for row in tableau) for j in range(n + m + 1)]
    obj[n : n + m] = [0] * m
    tableau.append(obj)
    basis = [n + i for i in range(m)]

    while True:
        obj = tableau[m]
        entering = next((j for j in range(n + m) if obj[j] < 0), None)
        if entering is None:
            break
        pivot_row = None
        for i in range(m):
            coef = tableau[i][entering]
            if coef > 0:
                if pivot_row is None:
                    pivot_row = i
                    continue
                # compare rhs_i / coef with the best ratio, cross-multiplied
                here = tableau[i][-1] * tableau[pivot_row][entering]
                best = tableau[pivot_row][-1] * coef
                if here < best or (here == best and basis[i] < basis[pivot_row]):
                    pivot_row = i
        if pivot_row is None:
            raise InternalCheckError("phase-I objective unbounded; tableau corrupted")
        det = pivot(tableau, pivot_row, entering, det)
        basis[pivot_row] = entering

    obj = tableau[m]
    if obj[-1] < 0:
        # y_i = 1 - reduced cost of artificial i, mapped back through row flips
        return Infeasible(
            farkas=tuple(
                Fraction(obj[n + i] - det if b_i < 0 else det - obj[n + i], det)
                for i, b_i in enumerate(b)
            )
        )

    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = Fraction(tableau[i][-1], det)
    return Feasible(x=tuple(x))

