"""Polyhedral cones: double description, duality, membership.

A cone is stored through a reduced generator (ray) list and its facet
normals, both read off one double-description run.  Rays are kept in a
canonical form, `int` tuples with content 1 and direction preserved,
which makes cone comparisons plain set comparisons for pointed cones; an
int equals and hashes like the Fraction of its value, so the stored rays
look up theory vectors' canonical forms directly.  The double description
and the facet sign tests run on ints, with no division.  A
cone with lines keeps its given generators in that form, deduplicated.
Lines of the dual enter the facet list as pairs of opposite normals, that
is, as equality constraints.

`cone_from_rays` and `cone_from_facets` run one double description per
call and cache nothing: the package's one result cache is the per-theory
scope in `theory`, which holds each theory's two cones.  A cone whose dual
is already known, as for the cones of `theory.closed_theory` or a state
set on the facets of its effect cone, is entered there, not rebuilt.

Yes/no questions are answered from the two representations, with no LP
and no rank: extremality is inclusion of the generators' tight facet sets
(see `_reduce`), and `contains` is a sign test over the facets.

The exact simplex in `lp` serves `member_cone` alone, whose answer is a
certificate that gets printed or consumed: an expansion or a separating
functional, re-verified before being handed out.  It answers only
questions whose expansion no cone representation gives: the
simplex-embedding question of `contextuality.embed_lp`, the evidence for
an emptied state set, and hull questions on the unit slice, which are
conic questions and come only from the original states that
`complete --verify` checks against a completion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import lp
from .errors import DimensionMismatch, InternalCheckError
from .linalg import (
    Vec,
    _clear,
    inner,
    integerize,
    is_zero_vec,
    normalize_sign,
    rank,
    vec_scale,
    vec_sum,
)


# ---------------------------------------------------------------------------
# double description


def double_description(normals: Sequence[Vec], dim: int) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    """V-representation of { x : <n, x> >= 0 for all n }.

    Returns (lineality_basis, extreme_rays): the cone is the linear span of
    the lineality basis plus the conic hull of the rays, and the rays are
    extreme modulo lineality.  Incremental halfspace insertion with the
    combinatorial adjacency test, on integers: the normals are cleared of
    denominators once, and every new vector is an integer combination
    reduced to content 1.
    """
    lineality = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    rays: list[tuple[Vec, frozenset[int]]] = []

    active = [_clear(n)[0] for n in normals if not is_zero_vec(n)]
    for idx, a in enumerate(active):
        lin_vals = [inner(a, l) for l in lineality]
        pivot = next((i for i, d in enumerate(lin_vals) if d != 0), None)
        if pivot is not None:
            lp_vec = lineality[pivot]
            dp = lin_vals[pivot]
            sign = 1 if dp > 0 else -1

            def project(v: Vec, d: int) -> Vec:
                """|dp| v - sign(dp) d lp_vec, the direction of v - (d / dp) lp_vec:
                v moved onto <a, x> = 0 along lp_vec when d = <a, v>."""
                return integerize(tuple(sign * (dp * x - d * y) for x, y in zip(v, lp_vec)))

            new_lineality = [project(l, d) for i, (l, d) in enumerate(zip(lineality, lin_vals)) if i != pivot]
            new_rays: list[tuple[Vec, frozenset[int]]] = []
            for r, tight in rays:
                shifted = project(r, inner(a, r))
                if is_zero_vec(shifted):
                    raise InternalCheckError("ray collapsed into lineality during projection")
                new_rays.append((shifted, tight | {idx}))
            pivot_ray = lp_vec if dp > 0 else tuple(-x for x in lp_vec)
            new_rays.append((pivot_ray, frozenset(range(idx))))
            lineality = new_lineality
            rays = new_rays
            continue

        vals = [inner(a, r) for r, _ in rays]
        plus = [i for i, v in enumerate(vals) if v > 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        minus = [i for i, v in enumerate(vals) if v < 0]
        if not minus:
            rays = [
                (r, tight | {idx}) if i in zero else (r, tight)
                for i, (r, tight) in enumerate(rays)
            ]
            continue

        def adjacent(i: int, j: int) -> bool:
            common = rays[i][1] & rays[j][1]
            for k, (_, tight_k) in enumerate(rays):
                if k != i and k != j and common <= tight_k:
                    return False
            return True

        new_rays = [(rays[i][0], rays[i][1]) for i in plus]
        new_rays += [(rays[i][0], rays[i][1] | {idx}) for i in zero]
        for i in plus:
            for j in minus:
                if adjacent(i, j):
                    combo = tuple(vals[i] * y - vals[j] * x for x, y in zip(rays[i][0], rays[j][0]))
                    new_rays.append((integerize(combo), (rays[i][1] & rays[j][1]) | {idx}))
        rays = new_rays

    lin_canon = tuple(sorted(normalize_sign(l) for l in lineality))
    ray_canon = tuple(sorted(r for r, _ in rays))
    return lin_canon, ray_canon


def _generators(lineality: Sequence[Vec], rays: Sequence[Vec]) -> tuple[Vec, ...]:
    """Double-description output, already canonical, as one sorted
    generator list, each lineality vector entering as the pair +l, -l."""
    out = list(rays)
    for l in lineality:
        out.append(l)
        out.append(tuple(-x for x in l))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# generator reduction


def canonical(vectors: Iterable[Vec], dim: int) -> tuple[Vec, ...]:
    """The sorted distinct canonical forms of the nonzero vectors."""
    seen: dict[Vec, None] = {}
    for v in vectors:
        if len(v) != dim:
            raise DimensionMismatch(dim, len(v), "cone generator")
        cv = integerize(v)
        if not is_zero_vec(cv):
            seen.setdefault(cv, None)
    return tuple(sorted(seen))


def _reduce(current: tuple[Vec, ...], dim: int) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    """Canonical generators of cone(current) and its facet normals, from one
    double description; `current` is a `canonical` generator set.

    The facets are the rays of the dual, each of its lines entering as the
    pair +l, -l; equality pairs count among the facets tight at a
    generator.  The facets tight at v cut out v's minimal face, which is
    generated by the generators tight wherever v is.  So the cone has lines
    iff a generator is tight at every facet (the lineality space is a
    face), and a generator of a pointed cone is extreme iff no generator's
    tight set strictly contains its own, since a face of dimension two or
    more holds an extreme ray with a smaller minimal face (Fukuda & Prodon
    1996).  A pointed cone keeps its extreme rays, a cone with lines its
    sorted, deduplicated canonical generators.
    """
    facets = _generators(*double_description(current, dim))
    tight = [frozenset(i for i, n in enumerate(facets) if inner(n, v) == 0) for v in current]
    if all(len(t) < len(facets) for t in tight):
        return tuple(v for v, t in zip(current, tight) if not any(t < u for u in tight)), facets
    return current, facets


def reduce_generators(vectors: Iterable[Vec]) -> tuple[Vec, ...]:
    """Canonical generators of the same cone: the extreme rays of a pointed
    cone, the sorted deduplicated generators of a cone with lines."""
    vectors = list(vectors)
    return cone_from_rays(vectors, len(vectors[0])).rays if vectors else ()


# ---------------------------------------------------------------------------
# the cone value


@dataclass(frozen=True, eq=False, repr=False)
class Cone:
    """Polyhedral cone by its reduced rays and its facet normals, the rays
    of its dual; opposite pairs of normals encode equality constraints."""

    dim: int
    rays: tuple[Vec, ...]
    facets: tuple[Vec, ...]

    def __repr__(self) -> str:
        return f"Cone(dim={self.dim}, rays={len(self.rays)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cone):
            return NotImplemented
        return cones_equal(self, other)


def cone_from_rays(rays: Iterable[Vec], dim: int) -> Cone:
    return Cone(dim, *_reduce(canonical(rays, dim), dim))


def cone_from_facets(normals: Iterable[Vec], dim: int) -> Cone:
    facets, rays = _reduce(canonical(normals, dim), dim)  # the same reduction, read dually
    return Cone(dim, rays, facets)


def dual_cone(c: Cone) -> Cone:
    """{ f : <f, r> >= 0 for every ray r }, with its own reduced rays."""
    # the facet normals of a cone are the rays of its dual, and conversely
    return Cone(c.dim, c.facets, facets=c.rays)


def is_pointed(c: Cone) -> bool:
    """No ray is tight at every facet, so none is a line (see `_reduce`)."""
    return not any(all(inner(n, r) == 0 for n in c.facets) for r in c.rays)


def is_simplicial(c: Cone) -> bool:
    if len(c.rays) != c.dim:
        return False
    return rank(c.rays) == c.dim


def contains(c: Cone, q: Vec) -> bool:
    """q in c, by the signs of the facet normals (no LP, no certificate)."""
    if len(q) != c.dim:
        raise DimensionMismatch(c.dim, len(q), "membership query")
    cleared, _ = _clear(q)
    return all(inner(n, cleared) >= 0 for n in c.facets)


def cones_equal(a: Cone, b: Cone) -> bool:
    if a.dim != b.dim:
        return False
    if a.rays == b.rays:
        return True
    return all(contains(b, r) for r in a.rays) and all(contains(a, r) for r in b.rays)


# ---------------------------------------------------------------------------
# membership certificates


@dataclass(frozen=True)
class MembershipCertificate:
    """Exact Farkas certificate for conic hull membership.

    Inside: nonnegative coefficients expanding the query over the
    generators.  Outside: a separating functional, nonnegative on every
    generator and negative on the query.
    """

    inside: bool
    coefficients: tuple[Fraction, ...] | None
    separator: Vec | None

    def verify(self, query: Vec, generators: Sequence[Vec]) -> bool:
        if self.inside:
            coefs = self.coefficients
            if coefs is None or len(coefs) != len(generators) or any(c < 0 for c in coefs):
                return False
            terms = [vec_scale(c, g) for c, g in zip(coefs, generators)]
            return vec_sum(terms, len(query)) == tuple(query)
        if self.separator is None:
            return False
        y = self.separator
        return all(inner(y, g) >= 0 for g in generators) and inner(y, query) < 0


def member_cone(q: Vec, generators: Sequence[Vec]) -> MembershipCertificate:
    """Decide q in cone(generators), with an expansion or a separating
    functional, re-verified against the generators as given.  This is the
    one place an answer of the exact LP is checked.

    On a unit slice this is hull membership: if <u, g> = 1 for every
    generator and <u, q> = 1, applying u to q = sum c_i g_i gives
    sum c_i = 1.  Every convex question gptlab asks meets that premise: the
    states of a validated theory are normalised (`validate` reports
    `state-normalization`, and every builder stops at an invalid theory),
    and the only convex queries are the original states that
    `complete --verify` checks against the completion.  The other callers
    ask for an expansion: `embed_lp` asks a conic question, with no slice:
    is the flattened identity in the cone of the flattened outer products?
    `resources.extend_theory` expands -unit over the extended effect cone
    as evidence that a bonus empties the state set.  An
    empty generator list goes to the solver like any other: q is inside iff
    q = 0, and otherwise the Farkas vector separates it."""
    result = lp.solve_feasibility(list(generators), q)
    if result.feasible:
        cert = MembershipCertificate(True, result.x, None)
    else:
        # the Farkas vector y claims <y, g> <= 0 and <y, q> > 0
        cert = MembershipCertificate(False, None, vec_scale(-1, result.farkas))
    if not cert.verify(q, generators):
        raise InternalCheckError("membership certificate failed re-verification")
    return cert
