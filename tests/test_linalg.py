from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptlab.errors import DimensionMismatch, InputError
from gptlab.linalg import (
    SingularBasisError,
    dual_basis,
    inner,
    integerize,
    mat,
    normalize_sign,
    null_space,
    rank,
    rat,
    vec,
    vec_scale,
    vec_sum,
)

from helpers import transpose

T_SPEKKENS = mat(
    [
        [1, 0, "1/2", "1/2", "1/2", "1/2"],
        [0, 1, "1/2", "1/2", "1/2", "1/2"],
        ["1/2", "1/2", 1, 0, "1/2", "1/2"],
        ["1/2", "1/2", 0, 1, "1/2", "1/2"],
        ["1/2", "1/2", "1/2", "1/2", 1, 0],
        ["1/2", "1/2", "1/2", "1/2", 0, 1],
    ]
)

T_REBIT = mat(
    [
        [1, 0, "1/2", "1/2"],
        [0, 1, "1/2", "1/2"],
        ["1/2", "1/2", 1, 0],
        ["1/2", "1/2", 0, 1],
    ]
)


def test_rat_parsing():
    assert rat("1/2") == Fraction(1, 2)
    assert rat("-3") == Fraction(-3)
    assert rat(Fraction(2, 4)) == Fraction(1, 2)
    with pytest.raises(InputError):
        rat("1/0")
    with pytest.raises(InputError):
        rat("abc")
    with pytest.raises(InputError):
        rat(0.5)


def test_inner_examples():
    assert inner(vec("1/2", 0, "1/2"), vec(0, 1, 1)) == Fraction(1, 2)
    assert inner(vec(3, -7, 2), vec(0, 0, 0)) == 0
    assert inner(vec("1/2", "1/2", "1/2"), vec(0, 0, 2)) == 1


def test_inner_dimension_mismatch_reports_both_dims():
    with pytest.raises(DimensionMismatch) as exc:
        inner(vec(1, 2), vec(1, 2, 3))
    assert exc.value.left == 2 and exc.value.right == 3


def test_rank_examples():
    assert rank(T_SPEKKENS) == 4
    assert rank(T_REBIT) == 3
    assert rank(mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3


def test_rank_transpose_on_tables():
    for m in (T_SPEKKENS, T_REBIT):
        assert rank(m) == rank(transpose(m))


def test_null_space_examples():
    zetas = mat([[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]])
    basis = null_space(zetas)
    assert basis == (vec(1, -1, -1, 1),)
    for row in zetas:
        assert inner(row, basis[0]) == 0
    assert null_space(mat([[1, 0], [0, 1]])) == ()
    two_dim = null_space(mat([[0, 0], [0, 0]]))
    assert len(two_dim) == 2


def test_dual_basis_examples():
    std = (vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1))
    assert dual_basis(std) == std
    chain = [vec(1, 0, 0), vec(1, 1, 0), vec(1, 1, 1)]
    assert dual_basis(chain) == (vec(1, -1, 0), vec(0, 1, -1), vec(0, 0, 1))
    assert dual_basis([vec(2)]) == (vec("1/2"),)


def test_dual_basis_rejects_singular():
    with pytest.raises(SingularBasisError) as exc:
        dual_basis([vec(1, 0), vec(2, 0)])
    assert exc.value.actual_rank == 1


def test_dual_basis_involution():
    basis = (vec(1, 2, 3), vec(0, 1, "1/2"), vec(-1, 0, 2))
    assert dual_basis(dual_basis(basis)) == basis


def test_canonicalisation():
    assert integerize(vec("1/2", 0, "-3/2")) == vec(1, 0, -3)
    assert integerize(vec(4, -2, 6)) == vec(2, -1, 3)
    assert normalize_sign(vec("-1/2", "1/2")) == vec(1, -1)
    assert normalize_sign(vec(0, -2, 4)) == vec(0, 1, -2)


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def vec_triples(draw):
    dim = draw(st.integers(min_value=1, max_value=6))
    strategy = st.tuples(*([rationals] * dim))
    return draw(strategy), draw(strategy), draw(strategy), draw(rationals)


@settings(max_examples=150, deadline=None)
@given(vec_triples())
def test_inner_bilinearity(triple):
    a, b, c, s = triple
    assert inner(vec_sum([a, b]), c) == inner(a, c) + inner(b, c)
    assert inner(vec_scale(s, a), b) == s * inner(a, b)


@st.composite
def small_matrices(draw):
    rows = draw(st.integers(min_value=1, max_value=5))
    cols = draw(st.integers(min_value=1, max_value=5))
    return mat([[draw(rationals) for _ in range(cols)] for _ in range(rows)])


@settings(max_examples=150, deadline=None)
@given(small_matrices())
def test_rank_transpose_property(m):
    assert rank(m) == rank(transpose(m))


@settings(max_examples=100, deadline=None)
@given(small_matrices())
def test_null_space_annihilates(m):
    for v in null_space(m):
        for row in m:
            assert inner(row, v) == 0
