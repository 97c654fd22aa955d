"""The integer kernels against their Fraction references.

`linalg.pivot` serves rank, null spaces, dual bases and the LP tableau.
Each answer must equal the one plain Gauss-Jordan and the Fraction simplex
give, pivot for pivot, and every division the kernel makes must be exact
(`checked_pivot`).  The integer double description
must return exactly what the Fraction one does, in ints.  The
same-dimension search, which screens its candidates on the kernel's
integer inverses, must explore and return exactly what the Fraction search
does.
"""

from fractions import Fraction
from itertools import chain, combinations, islice
from random import Random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gptlab import catalog, lp
from gptlab.cones import double_description
from gptlab.contextuality import _ordered_rays, embed_exact_dim
from gptlab.linalg import SingularBasisError, _clear, _inverse_columns, dual_basis, null_space, rank, vec
from gptlab.theory import max_effect_rays, max_state_points

from helpers import (
    checked_pivot,
    random_pair_subgpt,
    random_subgpt,
    reference_det,
    reference_double_description,
    reference_dual_basis,
    reference_embed_exact_dim,
    reference_null_space,
    reference_solve_feasibility,
    support_is_independent,
)

# few distinct values, many zeros: dependent rows, zero pivots and ratio ties
entries = st.sampled_from([Fraction(x) for x in (-2, -1, "-1/2", 0, 0, 0, "1/3", "1/2", 1, 1, 2, "5/3")])


@st.composite
def matrices(draw, square=False):
    rows = draw(st.integers(min_value=1, max_value=5))
    cols = rows if square else draw(st.integers(min_value=1, max_value=5))
    return tuple(tuple(draw(entries) for _ in range(cols)) for _ in range(rows))


dense = st.builds(Fraction, st.integers(min_value=-5, max_value=5), st.integers(min_value=1, max_value=4))


@st.composite
def negative_bases(draw):
    """Dense rational square matrices with det < 0."""
    n = draw(st.integers(min_value=1, max_value=5))
    m = tuple(tuple(draw(dense) for _ in range(n)) for _ in range(n))
    det = reference_det(m)
    assume(det != 0)
    return m if det < 0 else (tuple(-x for x in m[0]),) + m[1:]


@st.composite
def lps(draw):
    m = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=0, max_value=6))
    columns = [tuple(draw(entries) for _ in range(m)) for _ in range(n)]
    return columns, tuple(draw(entries) for _ in range(m))


@st.composite
def planted_lps(draw):
    """Feasible by construction: b is a nonnegative combination of the
    columns, often of more of them than the rank allows a basis."""
    columns, b = draw(lps())
    weights = [draw(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3)])) for _ in columns]
    return columns, tuple(sum((w * c[i] for w, c in zip(weights, columns)), Fraction(0)) for i in range(len(b)))


def _lp_answer(columns, b):
    """The solver's answer in the reference's form; a feasible point must
    also be basic, its support columns linearly independent."""
    result = lp.solve_feasibility(columns, b)
    if result.feasible:
        assert support_is_independent(columns, result.x)
    return ("x", result.x) if result.feasible else ("farkas", result.farkas)


@settings(max_examples=30, deadline=None)
@given(matrices())
def test_null_space_and_rank_match_reference(m):
    with checked_pivot():
        assert null_space(m) == reference_null_space(m)
        assert rank(m) == len(m[0]) - len(reference_null_space(m))


def _inverse_of_cleared(m):
    return _inverse_columns([_clear(row) for row in m])


def _check_inverse(m):
    """`_inverse_columns` and its wrapper `dual_basis` against plain
    Gauss-Jordan: columns over a positive denominator, or the reference rank."""
    expected = reference_dual_basis(m)
    with checked_pivot():
        if expected is None:
            for invert in (_inverse_of_cleared, dual_basis):
                with pytest.raises(SingularBasisError) as exc:
                    invert(m)
                assert exc.value.actual_rank == len(m[0]) - len(reference_null_space(m))
        else:
            columns, d = _inverse_of_cleared(m)
            assert d > 0 and all(type(x) is int for col in columns for x in col)
            assert tuple(tuple(Fraction(x, d) for x in col) for col in columns) == expected == dual_basis(m)


@settings(max_examples=30, deadline=None)
@given(matrices(square=True))
def test_dual_basis_matches_reference(m):
    _check_inverse(m)


@settings(max_examples=30, deadline=None)
@given(negative_bases())
def test_dual_basis_matches_reference_with_negative_determinant(m):
    _check_inverse(m)


@pytest.mark.parametrize(
    "m, actual_rank",
    [
        ((vec(1, 2), vec(2, 4)), 1),
        ((vec(0, 0, 0), vec(0, 0, 0), vec(0, 0, 0)), 0),
        ((vec("1/2", 1, -1), vec(1, 0, "1/3"), vec(2, 2, "-5/3")), 2),
        ((vec(1, 0, 0), vec(0, 1, 0)), 2),  # not square
        ((), 0),
    ],
)
def test_inverse_columns_singular_inputs_carry_the_rank(m, actual_rank):
    for invert in (_inverse_of_cleared, dual_basis):
        with pytest.raises(SingularBasisError) as exc:
            invert(m)
        assert (exc.value.size, exc.value.actual_rank) == (len(m), actual_rank)


@st.composite
def normal_sets(draw):
    """(normals, dim): few normals of few distinct values, so cones with
    lines, redundant and repeated normals and the empty set all occur."""
    dim = draw(st.integers(min_value=1, max_value=4))
    count = draw(st.integers(min_value=0, max_value=6))
    return tuple(tuple(draw(entries) for _ in range(dim)) for _ in range(count)), dim


@settings(max_examples=80, deadline=None)
@given(normal_sets())
@example(((), 3))
@example(((vec(1, 0, 0), vec(-1, 0, 0)), 3))
@example(((vec("1/2", "-1/3", 0), vec(0, "2/3", -1), vec(1, 1, 1), vec(-2, 0, "5/3")), 3))
def test_integer_double_description_matches_fraction_reference(case):
    normals, dim = case
    lineality, rays = double_description(normals, dim)
    assert (lineality, rays) == reference_double_description(normals, dim)
    assert all(type(x) is int for v in lineality + rays for x in v)


@settings(max_examples=30, deadline=None)
@given(st.one_of(lps(), planted_lps()))
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


@pytest.mark.parametrize("name", catalog.bundled_names())
def test_exact_dim_search_matches_reference_on_bundled_theories(name):
    g = catalog.get(name)
    assert embed_exact_dim(g) == reference_embed_exact_dim(g)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([random_subgpt, random_pair_subgpt]), st.integers(2, 4), st.integers(0, 2**32 - 1))
@example(random_subgpt, 4, 1)
def test_exact_dim_search_matches_reference_on_random_theories(make, dim, seed):
    g = make(Random(seed), dim)
    with checked_pivot():
        assert embed_exact_dim(g) == reference_embed_exact_dim(g)


def test_exact_dim_search_draws_include_negative_determinants():
    """The explicit example above explores candidate bases with det < 0,
    whose integer inverses the kernel has to bring to a positive denominator."""
    g = random_subgpt(Random(1), 4)
    search = embed_exact_dim(g)
    candidates = chain(
        combinations(_ordered_rays(max_effect_rays(g)), g.dim),
        combinations(_ordered_rays(max_state_points(g)), g.dim),
    )
    dets = [reference_det(b) for b in islice(candidates, search.explored)]
    assert search.explored > 1 and min(dets) < 0 < max(dets)
