"""Shared test utilities: independent brute-force oracles, the LP
definitions and the lifted vertex enumeration the double-description
decisions are checked against, the lifted convex-hull membership reference,
the membership-LP no-restriction audit the stored-generator audit replaced,
the Fraction double description and eliminations and the Fraction
same-dimension search the integer kernels and screen are checked against,
the greedy support minimisation the basic LP solution made redundant, the
model check with the statistics sweep the reconstruction identity made
redundant, the per-generator affine search behind non-unique
decompositions, the state-list atom scaling the facet bound replaced,
helpers only tests use, and seeded random instance generators.

The oracles deliberately avoid the library's own algorithms: vertex
enumeration goes through exhaustive tight-constraint subsets and plain
Gaussian elimination, so double-description results are checked against an
implementation that shares no code path with them.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from random import Random
from typing import Sequence
from unittest.mock import patch

from gptlab import cones, linalg, lp, theory
from gptlab.cones import Cone, double_description, member_cone
from gptlab.contextuality import (
    NONE_FOUND_CAVEAT,
    ExactDimSearch,
    NcomReport,
    NonUniqueDecomposition,
    OntModel,
    _ordered_rays,
    verify_ncom,
)
from gptlab.errors import InternalCheckError, TheoryConsistencyError
from gptlab.linalg import (
    Mat,
    Vec,
    basis_vec,
    format_vec,
    identity,
    inner,
    integerize,
    is_zero_vec,
    mat,
    normalize_sign,
    null_space,
    rank,
    vec_scale,
    vec_sub,
    vec_sum,
    zeros,
)
from gptlab.theory import (
    Gpt,
    build_gpt,
    effect_cone,
    max_effect_rays,
    max_state_points,
    require_valid,
    state_cone,
)


def mat_add(m1: Mat, m2: Mat) -> Mat:
    return tuple(vec_sum([r1, r2]) for r1, r2 in zip(m1, m2))


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m))


def state_distribution(model, s: Vec) -> tuple[Fraction, ...]:
    """The ontic distribution an OntModel assigns to the state s."""
    return tuple(inner(s, f) for f in model.effect_frame)


def is_pointed(c: Cone) -> bool:
    """No nontrivial nonnegative combination of rays vanishes (one LP)."""
    if not c.rays:
        return True
    columns = [r + (Fraction(1),) for r in c.rays]
    target = zeros(c.dim) + (Fraction(1),)
    return not lp.solve_feasibility(columns, target).feasible


def is_full_dimensional(c: Cone) -> bool:
    return bool(c.rays) and rank(mat(c.rays)) == c.dim


def lift(v: Vec) -> Vec:
    """v with a last coordinate 1 appended."""
    return tuple(v) + (Fraction(1),)


def member_convex(q: Vec, points):
    """Convex hull membership by the lifted conic LP: q is a mixture of the
    points iff lift(q) lies in the cone of the lifted points, a reference
    that needs no normalisation.  The certificate verifies against the
    lifted query and points."""
    return member_cone(lift(q), [lift(p) for p in points])


# ---------------------------------------------------------------------------
# LP definitions: the reference answers the double-description fast paths
# must reproduce


def lp_reduce_generators(vectors):
    """Canonical generators with every conic combination of the others
    removed greedily, one LP per generator, in canonical sort order."""
    current = sorted({integerize(v) for v in vectors if any(x != 0 for x in v)})
    i = 0
    while i < len(current):
        others = current[:i] + current[i + 1 :]
        if others and lp.solve_feasibility(others, current[i]).feasible:
            current.pop(i)
        else:
            i += 1
    return tuple(current)


def lp_pure_states(g: Gpt):
    """States outside the convex hull of the other state vectors; a
    repeated vector keeps its first label."""
    out = []
    for i, (label, s) in enumerate(g.states()):
        if s in g.state_vectors[:i]:
            continue
        others = [v for v in g.state_vectors if v != s]
        if not others or not member_convex(s, others).inside:
            out.append((label, s))
    return tuple(out)


def reference_scale_to_effect_interval(h: Vec, states: Sequence[Vec]) -> Vec:
    """The maximal scaling of the direction h with <h, s> <= 1 on every
    listed (normalised) state: the extreme effect on that ray."""
    top = max((p for p in (inner(s, h) for s in states) if p > 0), default=None)
    if top is None:
        raise TheoryConsistencyError(
            f"direction {format_vec(h)} is bounded by no state; "
            "the effect interval is unbounded"
        )
    return vec_scale(Fraction(1) / top, h)


def lp_no_restriction_gaps(g: Gpt):
    """(missing states, missing effects) by one membership LP per maximal
    extreme point and per maximal extreme ray."""
    states = tuple(
        p for p in max_state_points(g) if not member_convex(p, g.state_vectors).inside
    )
    effects = tuple(
        reference_scale_to_effect_interval(h, g.state_vectors)
        for h in max_effect_rays(g)
        if not member_cone(h, effect_cone(g).rays).inside
    )
    return states, effects


def reference_no_restriction_by_lp(g: Gpt) -> bool:
    """The no-restriction property re-decided by one membership LP per
    maximal state point and effect ray over the stored generators,
    independently of the ray-set test in `no_restriction_check`."""
    return all(member_cone(p, g.state_vectors).inside for p in max_state_points(g)) and all(
        member_cone(h, g.effect_vectors).inside for h in max_effect_rays(g)
    )


def effect_set_vertices(g: Gpt) -> tuple[Vec, ...]:
    """Extreme points of the effect set [0, U] within the effect cone.

    Enumerated by homogenisation: lift to { (x, t) : x in t*[0, U] } one
    dimension up and read vertices off the rays with positive last
    coordinate.
    """
    ec = effect_cone(g)
    lifted_normals: list[Vec] = []
    for n in ec.facets:
        lifted_normals.append(n + (Fraction(0),))  # <n, x> >= 0
        lifted_normals.append(vec_scale(-1, n) + (inner(n, g.unit),))  # <n, tU - x> >= 0
    lifted_normals.append(zeros(g.dim) + (Fraction(1),))
    lin, rays = double_description(lifted_normals, g.dim + 1)
    assert not lin, "effect set is not pointed"
    assert all(r[-1] > 0 for r in rays), "effect set is unbounded"
    return tuple(sorted(vec_scale(Fraction(1) / r[-1], r[:-1]) for r in rays))


def reference_nonrefinable_effects(g: Gpt) -> set[Vec]:
    """The nonzero vertices of the effect set that admit no refinement.

    Every vertex whose membership LP in the effect cone uses two or more
    rays is split as `part = coef * ray` plus the rest, and both pieces are
    checked to be effects (each and its complement in the cone, by LP).
    What is left are the vertices on single extreme rays."""
    ec = effect_cone(g)

    def is_effect(e: Vec) -> bool:
        return member_cone(e, ec.rays).inside and member_cone(vec_sub(g.unit, e), ec.rays).inside

    atoms = set()
    for vertex in effect_set_vertices(g):
        if all(x == 0 for x in vertex):
            continue
        positive = [(i, c) for i, c in enumerate(member_cone(vertex, ec.rays).coefficients) if c > 0]
        if len(positive) == 1:
            atoms.add(vertex)
            continue
        idx, coef = positive[0]
        part = vec_scale(coef, ec.rays[idx])
        assert is_effect(part) and is_effect(vec_sub(vertex, part))
        assert integerize(part) != integerize(vertex)
    return atoms


# ---------------------------------------------------------------------------
# Fraction references for the integer kernels: the double description that
# integer cones replaced, and the Gauss-Jordan and Phase-I simplex that
# `linalg.pivot` replaced, kept to compare against


def reference_double_description(normals: Sequence[Vec], dim: int) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    """`cones.double_description` over Fractions, as it was before it ran on
    ints: V-representation of { x : <n, x> >= 0 for all n }.

    Returns (lineality_basis, extreme_rays): the cone is the linear span of
    the lineality basis plus the conic hull of the rays, and the rays are
    extreme modulo lineality.  Incremental halfspace insertion with the
    combinatorial adjacency test.
    """
    lineality: list[Vec] = [basis_vec(i, dim) for i in range(dim)]
    rays: list[tuple[Vec, frozenset[int]]] = []

    active = [n for n in normals if not is_zero_vec(n)]
    for idx, a in enumerate(active):
        lin_vals = [inner(a, l) for l in lineality]
        pivot = next((i for i, d in enumerate(lin_vals) if d != 0), None)
        if pivot is not None:
            lp_vec = lineality[pivot]
            dp = lin_vals[pivot]
            new_lineality = [
                vec_sub(l, vec_scale(d / dp, lp_vec))
                for i, (l, d) in enumerate(zip(lineality, lin_vals))
                if i != pivot
            ]
            new_rays: list[tuple[Vec, frozenset[int]]] = []
            for r, tight in rays:
                shifted = vec_sub(r, vec_scale(inner(a, r) / dp, lp_vec))
                if is_zero_vec(shifted):
                    raise InternalCheckError("ray collapsed into lineality during projection")
                new_rays.append((integerize(shifted), tight | {idx}))
            pivot_ray = lp_vec if dp > 0 else vec_scale(-1, lp_vec)
            new_rays.append((integerize(pivot_ray), frozenset(range(idx))))
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
                    combo = vec_sum(
                        [vec_scale(vals[i], rays[j][0]), vec_scale(-vals[j], rays[i][0])]
                    )
                    new_rays.append((integerize(combo), (rays[i][1] & rays[j][1]) | {idx}))
        rays = new_rays

    lin_canon = tuple(sorted(normalize_sign(l) for l in lineality))
    ray_canon = tuple(sorted(r for r, _ in rays))
    return lin_canon, ray_canon


def reference_rref(rows):
    """Reduced row echelon form over Fractions; returns (rows, pivot columns)."""
    m = [list(row) for row in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def reference_null_space(m):
    reduced, pivots = reference_rref(m)
    ncols = len(m[0])
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row_idx, p in enumerate(pivots):
            v[p] = -reduced[row_idx][f]
        basis.append(normalize_sign(tuple(v)))
    return tuple(basis)


def reference_solve_linear(a, b):
    reduced, pivots = reference_rref([list(row) + [rhs] for row, rhs in zip(a, b)])
    ncols = len(a[0])
    if ncols in pivots:
        return None
    particular = [Fraction(0)] * ncols
    for row_idx, p in enumerate(pivots):
        particular[p] = reduced[row_idx][-1]
    return tuple(particular), reference_null_space(a)


def reference_nonunique_decomposition(generators, normalizer):
    """The per-generator affine search one null space replaced: for each
    slice-normalised generator a_j in turn, solve
    a_j = sum_{i != j} alpha_i a_i, sum alpha_i = 1 by plain Gauss-Jordan and
    take the first solution with a negative entry, the particular one or
    else the point of its first null direction where the first moving
    coordinate is -1, into the two decompositions."""
    scaled = [(label, vec_scale(Fraction(1) / inner(normalizer, v), v)) for label, v in generators]
    for j, (j_label, a_j) in enumerate(scaled):
        rest = scaled[:j] + scaled[j + 1 :]
        if not rest:
            continue
        rows = [tuple(v[k] for _, v in rest) for k in range(len(a_j))] + [(Fraction(1),) * len(rest)]
        solved = reference_solve_linear(rows, a_j + (Fraction(1),))
        if solved is None:
            continue
        alpha, basis = solved
        if not any(x < 0 for x in alpha):
            if not basis:
                continue
            i = next(i for i, d in enumerate(basis[0]) if d)
            t = (-1 - alpha[i]) / basis[0][i]
            alpha = tuple(a + t * d for a, d in zip(alpha, basis[0]))
        neg = [(label, coef) for (label, _), coef in zip(rest, alpha) if coef < 0]
        pos = [(label, coef) for (label, _), coef in zip(rest, alpha) if coef > 0]
        n_weight = sum(c for _, c in pos)
        by_label = dict(scaled)
        return NonUniqueDecomposition(
            point=vec_scale(
                Fraction(1) / n_weight,
                vec_sum([a_j] + [vec_scale(-coef, by_label[l]) for l, coef in neg]),
            ),
            decomposition_1=((j_label, Fraction(1) / n_weight),) + tuple((l, -c / n_weight) for l, c in neg),
            decomposition_2=tuple((l, c / n_weight) for l, c in pos),
            dependent_label=j_label,
            expansion=tuple((l, c) for (l, _), c in zip(rest, alpha)),
            generators=tuple(scaled),
        )
    return None


def reference_dual_basis(basis):
    """Columns of B^-1, or None when B is singular."""
    n = len(basis)
    reduced, pivots = reference_rref([list(row) + list(basis_vec(i, n)) for i, row in enumerate(basis)])
    if pivots[:n] != list(range(n)):
        return None
    return tuple(tuple(reduced[i][n + j] for i in range(n)) for j in range(n))


def reference_det(m):
    """Determinant by plain Gaussian elimination over Fractions."""
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for c in range(len(a)):
        r = next((i for i in range(c, len(a)) if a[i][c] != 0), None)
        if r is None:
            return Fraction(0)
        if r != c:
            a[c], a[r] = a[r], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, len(a)):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def reference_solve_feasibility(columns, b):
    """Phase-I simplex over Fractions with Bland's rule: ("x", x) or
    ("farkas", y), pivot for pivot the rule `lp.solve_feasibility` follows."""
    m = len(b)
    n = len(columns)
    flip = [b_i < 0 for b_i in b]
    tableau = []
    for i in range(m):
        sign = Fraction(-1) if flip[i] else Fraction(1)
        row = [sign * columns[j][i] for j in range(n)]
        row.extend(Fraction(1) if k == i else Fraction(0) for k in range(m))
        row.append(sign * b[i])
        tableau.append(row)
    basis = [n + i for i in range(m)]
    width = n + m + 1
    obj = [Fraction(0)] * width
    for j in range(width):
        s = sum((tableau[i][j] for i in range(m)), Fraction(0))
        obj[j] = (Fraction(1) if n <= j < n + m else Fraction(0)) - s
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
        prow = tableau[pivot_row]
        piv = prow[entering]
        tableau[pivot_row] = prow = [x / piv for x in prow]
        for row in tableau + [obj]:
            f = row[entering]
            if row is not prow and f != 0:
                row[:] = [a - f * c for a, c in zip(row, prow)]
        basis[pivot_row] = entering
    if obj[-1] < 0:
        y = [Fraction(1) - obj[n + i] for i in range(m)]
        return "farkas", tuple(-y_i if f else y_i for y_i, f in zip(y, flip))
    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tableau[i][-1]
    return "x", tuple(x)


def support_is_independent(columns, x) -> bool:
    """The columns a point of { x >= 0 : A x = b } uses are linearly
    independent, as they are for a basic solution."""
    support = [col for col, x_j in zip(columns, x) if x_j > 0]
    return not support or rank(support) == len(support)


def reference_minimal_support(columns, b, x) -> dict[int, Fraction]:
    """The greedy support minimisation `contextuality.embed_lp` ran after
    its LP, kept to compare against: drop each support column in index
    order whenever the rest still reach b, re-solving each time.  Returns
    the surviving {column index: weight}."""
    weights = {k: x_k for k, x_k in enumerate(x) if x_k > 0}
    for k in list(weights):
        if k not in weights:
            continue
        trial = [i for i in weights if i != k]
        trial_result = lp.solve_feasibility([columns[i] for i in trial], b)
        if trial_result.feasible:
            weights = {i: x_i for i, x_i in zip(trial, trial_result.x) if x_i > 0}
    return weights


@contextmanager
def checked_pivot():
    """Run `linalg.pivot`, also where `lp` calls it, with an assertion that
    every division it makes is exact."""

    def checked(rows, r, c, det):
        prow = rows[r]
        for row in rows:
            if row is not prow:
                for x, y in zip(row, prow):
                    assert (x * prow[c] - row[c] * y) % det == 0
        return plain(rows, r, c, det)

    plain = linalg.pivot
    with patch.object(linalg, "pivot", checked), patch.object(lp, "pivot", checked):
        yield


def clear_theory_caches():
    """Empty gptlab's one cache, the per-theory scopes, so the next call of
    each memoized function runs cold."""
    theory._scope.cache_clear()


def check_scope_cones(g: Gpt) -> None:
    """g's effect and state cones, however they entered its scope, equal
    cold reductions of its stored generators, rays and facets as tuples."""
    warm = (effect_cone(g), state_cone(g))
    cold = (cones.cone_from_rays(g.effect_vectors, g.dim), cones.cone_from_rays(g.state_vectors, g.dim))
    assert [(c.rays, c.facets) for c in warm] == [(c.rays, c.facets) for c in cold]


def _solve_square(rows, rhs):
    """Plain Gauss-Jordan; returns the unique solution or None."""
    n = len(rows[0])
    m, pivots = reference_rref([[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)])
    if pivots != list(range(n)):
        return None
    return tuple(m[i][-1] for i in range(n))


def brute_force_slice_vertices(ineq_normals, unit, dim):
    """Vertices of { x : <n, x> >= 0 for all n, <unit, x> = 1 } by exhaustive
    enumeration of tight-constraint subsets."""
    vertices = set()
    for tight in combinations(range(len(ineq_normals)), dim - 1):
        rows = [ineq_normals[i] for i in tight] + [unit]
        rhs = [0] * (dim - 1) + [1]
        x = _solve_square(rows, rhs)
        if x is None:
            continue
        if all(sum(n[k] * x[k] for k in range(dim)) >= 0 for n in ineq_normals):
            vertices.add(x)
    return vertices


def brute_force_facets(rays, dim):
    """Facet normals of a full-dimensional pointed cone by exhaustion: every
    facet is the span of dim-1 independent extreme rays, so orient the
    normal of each such subset and keep it when the whole cone lies on one
    side.  Shares no code with double description."""
    facets = set()
    for subset in combinations(range(len(rays)), dim - 1):
        chosen = [rays[i] for i in subset]
        if rank(mat(chosen)) != dim - 1:
            continue
        normals = null_space(mat(chosen))
        if len(normals) != 1:
            continue
        n = normals[0]
        vals = [inner(n, r) for r in rays]
        if all(v >= 0 for v in vals):
            facets.add(integerize(n))
        elif all(v <= 0 for v in vals):
            facets.add(integerize(vec_scale(-1, n)))
    return facets


def random_pointed_cone_rays(rng: Random, dim: int, extra: int = 2):
    """Full-dimensional pointed cone generators: positive last coordinate
    forces pointedness, a rank check forces full dimension."""
    while True:
        count = dim + rng.randint(1, extra + 1)
        rays = []
        for _ in range(count):
            v = [Fraction(rng.randint(-3, 3)) for _ in range(dim - 1)]
            v.append(Fraction(rng.randint(1, 3)))
            rays.append(tuple(v))
        if rank(mat(rays)) == dim:
            return rays


def random_distribution(rng: Random, dim: int):
    while True:
        weights = [rng.randint(0, 6) for _ in range(dim)]
        total = sum(weights)
        if total:
            return tuple(Fraction(w, total) for w in weights)


def random_stochastic_basis(rng: Random, dim: int):
    """Rows of a strictly diagonally dominant row-stochastic matrix: always
    invertible, always a valid family of normalised states."""
    rows = []
    for i in range(dim):
        w = [rng.randint(0, 2) for _ in range(dim)]
        w[i] += 4 * dim
        total = sum(w)
        rows.append(tuple(Fraction(x, total) for x in w))
    return rows


def random_effect_vector(rng: Random, dim: int):
    return tuple(Fraction(rng.randint(0, 4), 4) for _ in range(dim))


def random_subgpt(rng: Random, dim: int) -> Gpt:
    """A random restricted theory hosted by the classical d-level system:
    distribution states spanning the space, coordinate effects plus a few
    random unsharp ones.  Always passes validation."""
    states = [(f"p{i}", v) for i, v in enumerate(random_stochastic_basis(rng, dim))]
    for j in range(rng.randint(0, 2)):
        states.append((f"q{j}", random_distribution(rng, dim)))
    effects = [
        (f"e{i}", tuple(Fraction(1 if k == i else 0) for k in range(dim)))
        for i in range(dim)
    ]
    for j in range(rng.randint(0, 2)):
        effects.append((f"f{j}", random_effect_vector(rng, dim)))
    return build_gpt(
        dim=dim,
        unit=[1] * dim,
        effects=effects,
        states=states,
        claims_no_restriction=False,
        name=f"random_subgpt_{dim}",
    )


def random_pair_subgpt(rng: Random, dim: int) -> Gpt:
    """A restricted theory whose effect cone is generally smaller than the
    nonnegative orthant: complementary pairs of unsharp effects, retried
    until they span."""
    while True:
        effects = []
        for j in range(dim + rng.randint(0, 2)):
            f = random_effect_vector(rng, dim)
            if all(x == 0 for x in f) or all(x == 1 for x in f):
                continue
            effects.append((f"f{j}", f))
            effects.append((f"f{j}c", tuple(Fraction(1) - x for x in f)))
        if effects and rank(mat([v for _, v in effects])) == dim:
            break
    states = [(f"p{i}", v) for i, v in enumerate(random_stochastic_basis(rng, dim))]
    return build_gpt(
        dim=dim,
        unit=[1] * dim,
        effects=effects,
        states=states,
        claims_no_restriction=False,
        name=f"random_pair_subgpt_{dim}",
    )


def random_classical_theory(rng: Random, dim: int) -> Gpt:
    """A random simplicial no-restriction theory: a stochastic basis as
    states, its exact dual basis as effects."""
    from gptlab.linalg import dual_basis

    states = random_stochastic_basis(rng, dim)
    effects = dual_basis(states)
    return build_gpt(
        dim=dim,
        unit=[1] * dim,
        effects=[(f"a{i}", v) for i, v in enumerate(effects)],
        states=[(f"p{i}", v) for i, v in enumerate(states)],
        claims_no_restriction=True,
        name=f"random_classical_{dim}",
    )


# ---------------------------------------------------------------------------
# the same-dimension search over Fractions, which the integer screen of
# `contextuality.embed_exact_dim` replaced, kept to compare against


def reference_embed_exact_dim(g: Gpt) -> ExactDimSearch:
    """The same candidates in the same order, each given Fraction frames by
    plain Gauss-Jordan (`reference_dual_basis`) and tested by Fraction inner
    products before `verify_ncom`."""
    require_valid(g)
    dim = g.dim
    explored = 0
    effect_candidates = _ordered_rays(max_effect_rays(g))
    for subset in combinations(range(len(effect_candidates)), dim):
        explored += 1
        chosen = [effect_candidates[i] for i in subset]
        duals = reference_dual_basis(chosen)
        if duals is None:
            continue
        scaling = [inner(f, g.unit) for f in duals]
        if any(s <= 0 for s in scaling):
            continue
        effect_frame = tuple(vec_scale(s, h) for s, h in zip(scaling, chosen))
        state_frame = tuple(vec_scale(1 / s, f) for s, f in zip(scaling, duals))
        if all(all(inner(e, d) >= 0 for e in g.effect_vectors) for d in state_frame):
            model = OntModel(state_frame=state_frame, effect_frame=effect_frame)
            if verify_ncom(model, g).ok:
                return ExactDimSearch(model=model, explored=explored, caveat="")

    state_candidates = _ordered_rays(max_state_points(g))
    for subset in combinations(range(len(state_candidates)), dim):
        explored += 1
        chosen_states = tuple(state_candidates[i] for i in subset)
        effect_frame = reference_dual_basis(chosen_states)
        if effect_frame is None:
            continue
        if all(all(inner(s, f) >= 0 for s in g.state_vectors) for f in effect_frame):
            model = OntModel(state_frame=chosen_states, effect_frame=effect_frame)
            if verify_ncom(model, g).ok:
                return ExactDimSearch(model=model, explored=explored, caveat="")

    return ExactDimSearch(model=None, explored=explored, caveat=NONE_FOUND_CAVEAT)


# ---------------------------------------------------------------------------
# the model check with its statistics sweep, which `contextuality.verify_ncom`
# dropped because the reconstruction identity implies it, kept to compare
# against


def reference_verify_ncom(m: OntModel, g: Gpt) -> NcomReport:
    """The model check `contextuality.verify_ncom` made before it relied on
    the reconstruction identity for the statistics, kept to compare against:
    the same conditions plus the sweep re-deriving every stored
    (effect, state) probability from the ontic weights and responses."""
    violations: list[str] = []
    flags: list[str] = []
    n = m.ontic_size
    if len(m.effect_frame) != n:
        return NcomReport(False, ("frame lengths differ",), ())
    if n == 0:
        return NcomReport(False, ("empty ontic set",), ())
    for v in m.state_frame + m.effect_frame:
        if len(v) != g.dim:
            return NcomReport(False, (f"frame vector {format_vec(v)} has wrong dimension",), ())

    for i, d in enumerate(m.state_frame):
        norm = inner(g.unit, d)
        if norm != 1:
            violations.append(f"<unit, D({i})> = {norm}, expected 1")
    total = vec_sum(list(m.effect_frame), g.dim)
    if total != g.unit:
        violations.append(f"effect frame sums to {format_vec(total)}, not the unit")

    recon = [[Fraction(0)] * g.dim for _ in range(g.dim)]
    for d, f in zip(m.state_frame, m.effect_frame):
        for i in range(g.dim):
            for j in range(g.dim):
                recon[i][j] += d[i] * f[j]
    if tuple(tuple(row) for row in recon) != identity(g.dim):
        violations.append("frames do not reconstruct the identity")

    states = [(s_label, s, [inner(s, f) for f in m.effect_frame]) for s_label, s in g.states()]
    effects = [(e_label, e, m.response_function(e)) for e_label, e in g.effects()]
    for s_label, _, weights in states:
        for i, w in enumerate(weights):
            if w < 0:
                violations.append(f"ontic weight of {s_label} at {i} is negative")
    for e_label, _, responses in effects:
        for i, val in enumerate(responses):
            if val < 0 or val > 1:
                violations.append(f"response of {e_label} at {i} is {val}, outside [0, 1]")

    for e_label, e, responses in effects:
        for s_label, s, weights in states:
            if inner(weights, responses) != inner(e, s):
                violations.append(f"statistics broken for ({e_label}, {s_label})")

    if n > g.dim:
        flags.append(
            f"ontic cardinality {n} exceeds the theory dimension {g.dim}: "
            "distinct ontic distributions can be empirically indistinguishable"
        )
    return NcomReport(ok=not violations, violations=tuple(violations), flags=tuple(flags))
