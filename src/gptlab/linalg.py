"""Exact rational linear algebra on plain tuples.

Scalars are ``fractions.Fraction`` (arbitrary-precision, always reduced,
positive denominator) or ``int``, vectors are tuples of them and matrices
are tuples of row vectors.  Theory vectors, coefficients and reports are
Fractions; canonical directions (`integerize`, `normalize_sign`, null
spaces, and so every ray and facet of a cone) are int tuples with content
1.  An int equals and hashes like the Fraction of the same value, so the two
kinds compare and look each other up freely.  No floating point enters
anywhere: every verdict downstream is an exact geometric fact, so a single
rounding step would make nonexistence results meaningless.

Every elimination is one fraction-free Gauss-Jordan step, `pivot`
(Bareiss 1968), applied to denominator-cleared integer rows that share one
common denominator.  Rank, null spaces and dual bases read their answers
off one such reduction, and the exact LP in `lp` pivots its tableau with
the same step; Fractions appear only at the API boundary.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence, Union

from .errors import DimensionMismatch, InputError

Scalar = Union[int, str, Fraction]
Vec = tuple[Union[Fraction, int], ...]
Mat = tuple[Vec, ...]


# ---------------------------------------------------------------------------
# construction and formatting


def rat(value: Scalar) -> Fraction:
    """Coerce an int, Fraction or "p/q" string to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or isinstance(value, float):
        raise InputError(f"refusing inexact scalar {value!r}; use int, Fraction or 'p/q'")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed rational {value!r}: {exc}") from None


def vec(*entries: Scalar) -> Vec:
    if not entries:
        raise InputError("vectors must have dimension >= 1")
    return tuple(rat(e) for e in entries)


def vec_from(entries: Iterable[Scalar]) -> Vec:
    return vec(*entries)


def mat(rows: Iterable[Iterable[Scalar]]) -> Mat:
    converted = tuple(vec_from(row) for row in rows)
    if not converted:
        raise InputError("matrix must contain at least one row")
    width = len(converted[0])
    for row in converted:
        if len(row) != width:
            raise DimensionMismatch(width, len(row), "matrix row width")
    return converted


def zeros(n: int) -> Vec:
    return (Fraction(0),) * n


def basis_vec(i: int, n: int) -> Vec:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def identity(n: int) -> Mat:
    return tuple(basis_vec(i, n) for i in range(n))


def format_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def format_vec(v: Vec) -> str:
    return "[" + ", ".join(format_rational(x) for x in v) + "]"


# ---------------------------------------------------------------------------
# elementwise arithmetic


def vec_sub(a: Vec, b: Vec) -> Vec:
    if len(a) != len(b):
        raise DimensionMismatch(len(a), len(b), "vector subtraction")
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(s: Scalar, a: Vec) -> Vec:
    f = rat(s)
    return tuple(f * x for x in a)


def vec_sum(vectors: Sequence[Vec], dim: int | None = None) -> Vec:
    if not vectors:
        if dim is None:
            raise InputError("empty sum needs an explicit dimension")
        return zeros(dim)
    acc = list(vectors[0])
    for v in vectors[1:]:
        if len(v) != len(acc):
            raise DimensionMismatch(len(acc), len(v), "vector sum")
        for i, x in enumerate(v):
            acc[i] += x
    return tuple(acc)


def is_zero_vec(v: Vec) -> bool:
    return all(x == 0 for x in v)


def inner(a: Vec, b: Vec) -> Fraction | int:
    """Standard coordinate inner product, exact: an int when both vectors
    are int tuples, a Fraction when either holds a Fraction."""
    if len(a) != len(b):
        raise DimensionMismatch(len(a), len(b), "inner product")
    return sum(map(mul, a, b))


def outer(a: Vec, b: Vec) -> Mat:
    return tuple(tuple(x * y for y in b) for x in a)


# ---------------------------------------------------------------------------
# scaling normalisation

def integerize(v: Vec) -> tuple[int, ...]:
    """Scale by a positive rational to an int tuple with content 1.

    The direction of the vector is preserved; this is the canonical form
    for rays of a cone, where flipping the sign would change the object.
    """
    ints, _ = _clear(v)
    content = gcd(*ints) or 1  # the zero vector stays zero
    return tuple(n // content for n in ints)


def normalize_sign(v: Vec) -> tuple[int, ...]:
    """Canonical form for sign-free vectors (null-space and lineality
    directions): an int tuple with content 1, first nonzero entry positive."""
    w = integerize(v)
    for x in w:
        if x != 0:
            return w if x > 0 else tuple(-y for y in w)
    return w


# ---------------------------------------------------------------------------
# elimination


def pivot(rows: list[list[int]], r: int, c: int, det: int) -> int:
    """One fraction-free Gauss-Jordan step (Bareiss 1968) on integer rows.

    Every row other than r becomes (row * p - row[c] * rows[r]) // det,
    where p = rows[r][c] != 0, and row r is left as it is.  The division is
    exact while the rows are det * B^-1 M, up to their order, for an integer
    matrix M and its basis B of pivoted columns with det = +-det(B)
    (Edmonds' invariant: every entry is a minor of M).  Rows = M with
    det = 1 satisfy it, and each step keeps it.  Returns p, the common
    denominator of the rows after the step.
    """
    prow = rows[r]
    p = prow[c]
    for i, row in enumerate(rows):
        if i != r:
            f = row[c]
            rows[i] = [(x * p - f * y) // det for x, y in zip(row, prow)]
    return p


def _clear(row: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """(row times the lcm of its denominators, that lcm): integers, same
    direction."""
    scale = lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row], scale


def _echelon(m: Sequence[Sequence[Fraction | int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan reduction: (R, pivot columns, d) with R an
    integer matrix and R / d the reduced row echelon form of m."""
    return _eliminate([_clear(row)[0] for row in m])


def _eliminate(rows: list[list[int]]) -> tuple[list[list[int]], list[int], int]:
    """`_echelon` on integer rows, reduced in place."""
    pivots: list[int] = []
    det = 1
    for c in range(len(rows[0])):
        r = len(pivots)
        i = next((k for k in range(r, len(rows)) if rows[k][c] != 0), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        det = pivot(rows, r, c, det)
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return rows, pivots, det


def rank(m: Mat) -> int:
    """Exact rank: the number of pivots of the fraction-free reduction."""
    if not m:
        raise InputError("rank of an empty matrix is undefined")
    return len(_echelon(m)[1])


def null_space(m: Mat) -> tuple[Vec, ...]:
    """Basis of the right null space { v : m v = 0 }, canonically signed.

    One vector per free column f of the reduction, supported on f and the
    pivot columns.  The basis may be empty; every returned vector satisfies
    m v = 0 exactly.
    """
    if not m:
        raise InputError("null space of an empty matrix is undefined")
    rows, pivots, det = _echelon(m)
    basis = []
    for f in range(len(m[0])):
        if f in pivots:
            continue
        v = [0] * len(m[0])
        v[f] = det
        for row, p in zip(rows, pivots):
            v[p] = -row[f]
        basis.append(normalize_sign(tuple(v)))
    return tuple(basis)


class SingularBasisError(InputError):
    def __init__(self, size: int, actual_rank: int):
        self.size = size
        self.actual_rank = actual_rank
        super().__init__(f"dual basis needs a full-rank square input: got {size} vectors of rank {actual_rank}")


def _inverse_columns(cleared: Sequence[tuple[Sequence[int], int]]) -> tuple[list[tuple[int, ...]], int]:
    """B^-1 as integer columns c_j over one denominator d > 0, column j of
    B^-1 being c_j / d, for the square matrix B whose rows b_i come cleared
    as the `_clear` pairs (r_i, l_i) = (l_i * b_i, l_i).

    One reduction of the integer rows [r_i | l_i * e_i], the rows of
    [B | I] scaled by l_i, gives both the rank of B (its pivots among B's
    columns) and B^-1; raises SingularBasisError unless B has full rank.
    """
    n = len(cleared)
    if n == 0 or any(len(r) != n for r, _ in cleared):
        raise SingularBasisError(n, 0 if n == 0 else rank(mat(r for r, _ in cleared)))
    augmented = [list(r) + [0] * i + [l] + [0] * (n - 1 - i) for i, (r, l) in enumerate(cleared)]
    rows, pivots, det = _eliminate(augmented)
    found = sum(1 for p in pivots if p < n)
    if found != n:
        raise SingularBasisError(n, found)
    sign = 1 if det > 0 else -1
    return [tuple(sign * row[n + j] for row in rows) for j in range(n)], sign * det


def dual_basis(basis: Sequence[Vec]) -> tuple[Vec, ...]:
    """The unique vectors f_i with <f_i, b_j> = delta_ij, exactly: the
    columns of B^-1 (see `_inverse_columns`).

    Input must be a linearly independent spanning set (square, full rank).
    """
    return _fraction_columns(*_inverse_columns([_clear(b) for b in basis]))


def _fraction_columns(columns: Sequence[Sequence[int]], det: int) -> tuple[Vec, ...]:
    return tuple(tuple(Fraction(x, det) for x in col) for col in columns)
