"""The fraction-free elimination kernel against its Fraction references.

`linalg.pivot` serves rank, null spaces, linear solves, dual bases and the
LP tableau.  Each answer must equal the one plain Gauss-Jordan and the
Fraction simplex give, pivot for pivot, and every division the kernel
makes must be exact (`checked_pivot`).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptlab import lp
from gptlab.linalg import SingularBasisError, dual_basis, null_space, rank, solve_linear, vec

from helpers import (
    checked_pivot,
    reference_dual_basis,
    reference_null_space,
    reference_solve_feasibility,
    reference_solve_linear,
)

# few distinct values, many zeros: dependent rows, zero pivots and ratio ties
entries = st.sampled_from([Fraction(x) for x in (-2, -1, "-1/2", 0, 0, 0, "1/3", "1/2", 1, 1, 2, "5/3")])


@st.composite
def matrices(draw, square=False):
    rows = draw(st.integers(min_value=1, max_value=5))
    cols = rows if square else draw(st.integers(min_value=1, max_value=5))
    return tuple(tuple(draw(entries) for _ in range(cols)) for _ in range(rows))


@st.composite
def lps(draw):
    m = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=0, max_value=6))
    columns = [tuple(draw(entries) for _ in range(m)) for _ in range(n)]
    return columns, tuple(draw(entries) for _ in range(m))


def _lp_answer(columns, b):
    result = lp.solve_feasibility(columns, b)
    return ("x", result.x) if result.feasible else ("farkas", result.farkas)


@settings(max_examples=30, deadline=None)
@given(matrices())
def test_null_space_and_rank_match_reference(m):
    with checked_pivot():
        assert null_space(m) == reference_null_space(m)
        assert rank(m) == len(m[0]) - len(reference_null_space(m))


@settings(max_examples=30, deadline=None)
@given(matrices(), st.data())
def test_solve_linear_matches_reference(a, data):
    b = tuple(data.draw(entries) for _ in a)
    with checked_pivot():
        assert solve_linear(a, b) == reference_solve_linear(a, b)


@settings(max_examples=30, deadline=None)
@given(matrices(square=True))
def test_dual_basis_matches_reference(m):
    expected = reference_dual_basis(m)
    with checked_pivot():
        if expected is None:
            with pytest.raises(SingularBasisError) as exc:
                dual_basis(m)
            assert exc.value.actual_rank == rank(m)
        else:
            assert dual_basis(m) == expected


@settings(max_examples=30, deadline=None)
@given(lps())
def test_integer_lp_matches_fraction_simplex(problem):
    columns, b = problem
    with checked_pivot():
        assert _lp_answer(columns, b) == reference_solve_feasibility(columns, b)


@pytest.mark.parametrize(
    "columns, b",
    [
        # degenerate ratio ties: both rows bound the entering column at 1
        ([vec(1, 1), vec(1, 0), vec(0, 1)], vec(1, 1)),
        ([vec(2, 1, 1), vec(0, 1, 1), vec(1, 0, 0)], vec(2, 1, 1)),
        # negative rhs rows, feasible and infeasible
        ([vec(-1, "1/2"), vec(-2, 1)], vec(-3, "3/2")),
        ([vec(1, -1), vec("1/3", 0)], vec(-1, 1)),
        # zero rhs: every ratio ties at 0
        ([vec(1, -1, 0), vec(0, 1, -1), vec(-1, 0, 1)], vec(0, 0, 0)),
    ],
)
def test_integer_lp_matches_fraction_simplex_on_degenerate_cases(columns, b):
    with checked_pivot():
        assert _lp_answer(columns, b) == reference_solve_feasibility(columns, b)
