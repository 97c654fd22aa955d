from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptlab.cones import (
    cone_from_facets,
    cone_from_rays,
    cones_equal,
    dual_cone,
    is_simplicial,
    member_cone,
)
from gptlab.linalg import dual_basis, inner, integerize, vec

from helpers import is_full_dimensional, is_pointed, lift, member_convex, random_pointed_cone_rays

E_RAYS = [vec(1, 0, 1), vec(-1, 0, 1), vec(0, 1, 1), vec(0, -1, 1)]
SQUARE_STATES = [
    vec("1/2", "1/2", "1/2"),
    vec("-1/2", "1/2", "1/2"),
    vec("1/2", "-1/2", "1/2"),
    vec("-1/2", "-1/2", "1/2"),
]


def test_dual_cone_of_rebit_effects():
    dual = dual_cone(cone_from_rays(E_RAYS, 3))
    expected = {integerize(vec_scale_2(s)) for s in SQUARE_STATES}
    assert set(dual.rays) == expected


def vec_scale_2(v):
    return tuple(2 * x for x in v)


def test_dual_cone_trivial_cases():
    orthant = cone_from_rays([vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1)], 3)
    assert set(dual_cone(orthant).rays) == set(orthant.rays)
    full = cone_from_rays(
        [vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1)], 2
    )
    assert dual_cone(full).rays == ()


def test_extreme_ray_reduction():
    e1, e2, e3, e4 = (
        vec(1, 0, 0, 0),
        vec(0, 1, 0, 0),
        vec(0, 0, 1, 0),
        vec(0, 0, 0, 1),
    )
    redundant = vec(1, 0, 1, 0)  # e1 + e3
    c = cone_from_rays([e1, e2, e3, e4, redundant], 4)
    assert set(c.rays) == {e1, e2, e3, e4}

    orthant = cone_from_rays([vec(1, 0), vec(0, 1)], 2)
    assert set(orthant.rays) == {vec(1, 0), vec(0, 1)}

    scaled = cone_from_rays([vec(2, 4), vec(1, 2)], 2)
    assert scaled.rays == (vec(1, 2),)


def test_membership_certificates():
    c = cone_from_rays(E_RAYS, 3)
    inside = member_cone(vec(1, 0, 1), c.rays)
    assert inside.inside and inside.verify(vec(1, 0, 1), c.rays)
    # the expansion of a generator over this family is unique: the indicator
    weights = dict(zip(c.rays, inside.coefficients))
    assert weights[vec(1, 0, 1)] == 1 and sum(inside.coefficients) == 1

    outside = member_cone(vec(1, 1, 1), c.rays)
    assert not outside.inside
    sep = outside.separator
    assert all(inner(sep, r) >= 0 for r in c.rays)
    assert inner(sep, vec(1, 1, 1)) < 0

    zero = member_cone(vec(0, 0, 0), c.rays)
    assert zero.inside and all(x == 0 for x in zero.coefficients)


def test_membership_convex():
    s1 = vec("1/2", 0, "1/2")
    cert = member_convex(s1, SQUARE_STATES)
    assert cert.inside
    assert cert.coefficients == (Fraction(1, 2), 0, Fraction(1, 2), 0)

    own = member_convex(SQUARE_STATES[1], SQUARE_STATES)
    assert own.inside and own.coefficients == (0, 1, 0, 0)

    outside = member_convex(vec(1, 1, 1), SQUARE_STATES)
    assert not outside.inside
    assert outside.verify(lift(vec(1, 1, 1)), [lift(s) for s in SQUARE_STATES])


def test_cone_is_unhashable():
    # equal cones may be spanned by different rays, so no hash of the ray
    # list can agree with ==
    a = cone_from_rays([vec(1, 0), vec(-1, 0), vec(0, 1)], 2)
    b = cone_from_rays([vec(1, 0), vec(-1, 0), vec(1, 1)], 2)
    assert a == b and a.rays != b.rays
    with pytest.raises(TypeError):
        hash(a)


def test_is_simplicial():
    orthant3 = cone_from_rays([vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1)], 3)
    assert is_simplicial(orthant3)
    assert not is_simplicial(cone_from_rays(E_RAYS, 3))
    etas = [vec(1, 0, 0, 0), vec(0, 1, 0, 0), vec(0, 0, 1, 0), vec(0, 0, 0, 1)]
    assert is_simplicial(cone_from_rays(etas, 4))


def test_facets():
    orthant = cone_from_rays([vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1)], 3)
    assert set(orthant.facets) == set(orthant.rays)

    square = cone_from_rays([vec_scale_2(s) for s in SQUARE_STATES], 3)
    assert set(square.facets) == {integerize(r) for r in E_RAYS}

    ray = cone_from_rays([vec(1, 0)], 2)
    # orthogonal-complement halfspace pair plus the in-span cut
    assert vec(0, 1) in ray.facets and vec(0, -1) in ray.facets
    assert set(ray.facets) == {vec(0, 1), vec(0, -1), vec(1, 0)}


def test_facets_rays_nonnegative_pairing():
    rng = Random(7)
    for _ in range(25):
        dim = rng.randint(2, 4)
        c = cone_from_rays(random_pointed_cone_rays(rng, dim), dim)
        for n in c.facets:
            for r in c.rays:
                assert inner(n, r) >= 0


def test_cone_from_facets_round_trip():
    c = cone_from_facets(E_RAYS, 3)
    # the square cone again: dual pair with the rebit effect directions
    assert set(c.rays) == {integerize(vec_scale_2(s)) for s in SQUARE_STATES}
    assert cones_equal(c, cone_from_rays(c.rays, 3))


def test_pointedness_and_dimension():
    half_plane = cone_from_rays([vec(1, 0), vec(-1, 0), vec(0, 1)], 2)
    assert not is_pointed(half_plane)
    assert is_full_dimensional(half_plane)
    ray = cone_from_rays([vec(1, 1)], 2)
    assert is_pointed(ray) and not is_full_dimensional(ray)
    trivial = cone_from_rays([], 2)
    assert is_pointed(trivial) and not is_full_dimensional(trivial)


def test_simplicial_unique_expansion():
    rng = Random(11)
    simplex = cone_from_rays([vec(2, 0, 1), vec(0, 1, 0), vec(1, 1, 3)], 3)
    assert is_simplicial(simplex)
    # the rays are a basis, so a point's conic expansion is unique and its
    # coefficients are <f_i, q> for the dual basis f
    dual = dual_basis(simplex.rays)
    for _ in range(20):
        coeffs = [Fraction(rng.randint(0, 9), 3) for _ in range(3)]
        point = tuple(
            sum(c * r[i] for c, r in zip(coeffs, simplex.rays)) for i in range(3)
        )
        assert [inner(f, point) for f in dual] == coeffs


@st.composite
def pointed_cones(draw):
    seed = draw(st.integers(min_value=0, max_value=10**6))
    dim = draw(st.integers(min_value=2, max_value=5))
    rng = Random(seed)
    return dim, random_pointed_cone_rays(rng, dim)


@settings(max_examples=60, deadline=None)
@given(pointed_cones())
def test_duality_involution(case):
    dim, rays = case
    c = cone_from_rays(rays, dim)
    back = dual_cone(dual_cone(c))
    assert set(back.rays) == set(c.rays)


@settings(max_examples=60, deadline=None)
@given(pointed_cones(), st.integers(min_value=0, max_value=10**6))
def test_membership_certificate_soundness(case, qseed):
    dim, rays = case
    c = cone_from_rays(rays, dim)
    rng = Random(qseed)
    q = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(dim))
    cert = member_cone(q, c.rays)
    assert cert.verify(q, c.rays)
    # cross-check the verdict against the dual description
    dual = dual_cone(c)
    dual_says_inside = all(inner(f, q) >= 0 for f in dual.rays)
    assert cert.inside == dual_says_inside
