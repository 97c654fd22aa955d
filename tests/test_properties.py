"""Hypothesis-driven invariants spanning module boundaries."""

from fractions import Fraction
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from gptlab.cones import cone_from_rays, dual_cone, member_cone
from gptlab.contextuality import OntModel, embed_lp, model_dimension_bound, verify_ncom
from gptlab.linalg import dual_basis, inner, rank, vec_scale, vec_sum
from gptlab.theory import (
    FIX_EFFECTS,
    FIX_STATES,
    Gpt,
    build_gpt,
    complete,
    effect_cone,
    max_effect_rays,
    max_state_points,
    no_restriction_check,
    nonrefinable_effects,
    probability,
    pure_states,
    state_cone,
    theory_table,
    validate,
)

from helpers import (
    brute_force_facets,
    lift,
    member_convex,
    random_classical_theory,
    random_pair_subgpt,
    random_pointed_cone_rays,
    random_subgpt,
    reference_scale_to_effect_interval,
    reference_verify_ncom,
)

seeds = st.integers(min_value=0, max_value=10**9)


@settings(max_examples=50, deadline=None)
@given(seeds, st.integers(min_value=2, max_value=6))
def test_duality_involution(seed, dim):
    rng = Random(seed)
    c = cone_from_rays(random_pointed_cone_rays(rng, dim), dim)
    assert set(dual_cone(dual_cone(c)).rays) == set(c.rays)


@settings(max_examples=50, deadline=None)
@given(seeds, st.integers(min_value=2, max_value=5))
def test_membership_certificates_sound(seed, dim):
    rng = Random(seed)
    c = cone_from_rays(random_pointed_cone_rays(rng, dim), dim)
    q = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 2)) for _ in range(dim))
    cone_cert = member_cone(q, c.rays)
    assert cone_cert.verify(q, c.rays)
    hull_cert = member_convex(q, c.rays)
    assert hull_cert.verify(lift(q), [lift(r) for r in c.rays])
    # hull membership implies cone membership
    if hull_cert.inside:
        assert cone_cert.inside


@settings(max_examples=80, deadline=None)
@given(seeds, st.integers(min_value=2, max_value=5), st.integers(min_value=1, max_value=6), st.booleans())
def test_conic_membership_decides_hulls_on_the_unit_slice(seed, dim, count, mixture):
    """Generators and query on the slice x_last = 1: the cone test answers
    hull membership, as the lifted convex-hull reference does."""
    rng = Random(seed)

    def point():
        head = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim - 1))
        return head + (Fraction(1),)

    gens = [point() for _ in range(count)]
    q = point()
    if mixture:
        weights = [Fraction(rng.randint(0, 3)) for _ in gens]
        weights[0] += 1
        q = vec_scale(1 / sum(weights), vec_sum([vec_scale(w, p) for w, p in zip(weights, gens)], dim))
    cert = member_cone(q, gens)
    assert cert.verify(q, gens)
    hull = member_convex(q, gens)
    assert hull.verify(lift(q), [lift(p) for p in gens])
    assert cert.inside == hull.inside
    if mixture:
        assert cert.inside


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(min_value=2, max_value=4))
def test_completion_idempotent_and_dual(seed, dim):
    rng = Random(seed)
    g = random_pair_subgpt(rng, dim) if seed % 2 else random_subgpt(rng, dim)
    assert validate(g).ok
    once = complete(g, FIX_EFFECTS)
    assert no_restriction_check(once).holds
    twice = complete(once, FIX_EFFECTS)
    assert set(once.state_vectors) == set(twice.state_vectors)
    assert set(once.effect_vectors) == set(twice.effect_vectors)


def in_random_basis(g: Gpt, rng: Random) -> Gpt:
    """g with states mapped to T s and effects and unit to T^-T e for a
    random rational invertible T: every probability is unchanged, and the
    unit generally gets denominators."""
    while True:
        t = [tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(g.dim)) for _ in range(g.dim)]
        if rank(t) == g.dim:
            break
    inverse = dual_basis(tuple(zip(*t)))  # the rows of T^-1

    def effect(e):
        return vec_sum([vec_scale(x, f) for x, f in zip(e, inverse)], g.dim)

    return build_gpt(
        g.dim,
        effect(g.unit),
        [(label, effect(e)) for label, e in g.effects()],
        [(label, tuple(inner(row, s) for row in t)) for label, s in g.states()],
        g.claims_no_restriction,
        g.pvvms,
        name=g.name,
    )


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(min_value=2, max_value=4), st.booleans())
def test_atoms_match_the_state_list_scaling(seed, dim, closed):
    # the facet bound over a stored cone scales every atom as the state
    # lists did: nonrefinable effects against the maximal state points,
    # effect gaps against the stored states, completion atoms against the
    # pure states; restricted theories and no-restriction ones
    rng = Random(seed)
    g = (random_subgpt, random_pair_subgpt, random_classical_theory)[seed % 3](rng, dim)
    if closed:
        g = complete(g, FIX_EFFECTS)
    g = in_random_basis(g, rng)
    assert validate(g).ok
    atoms = tuple(reference_scale_to_effect_interval(r, max_state_points(g)) for r in effect_cone(g).rays)
    assert tuple(v for _, v in nonrefinable_effects(g)) == atoms
    stored = set(effect_cone(g).rays)
    gap = tuple(
        reference_scale_to_effect_interval(h, g.state_vectors) for h in max_effect_rays(g) if h not in stored
    )
    assert no_restriction_check(g).effect_witnesses == gap
    pure = [v for _, v in pure_states(g)]
    completion = tuple(sorted(reference_scale_to_effect_interval(h, pure) for h in state_cone(g).facets))
    assert complete(g, FIX_STATES).effect_vectors == completion


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(min_value=2, max_value=3))
def test_embeddings_verify_and_respect_rank_bound(seed, dim):
    rng = Random(seed)
    g = random_subgpt(rng, dim)
    result = embed_lp(g)
    assert result.found
    assert verify_ncom(result.model, g).ok
    assert result.model.ontic_size >= model_dimension_bound(g)


@settings(max_examples=40, deadline=None)
@given(
    seeds,
    st.integers(min_value=2, max_value=3),
    st.booleans(),
    st.booleans(),
    st.fractions(min_value=Fraction(-1, 2), max_value=Fraction(1, 2), max_denominator=4),
)
def test_model_check_agrees_with_the_statistics_sweep(seed, dim, pairs, perturb, delta):
    """The reconstruction identity implies the statistics, so dropping their
    sweep changes no verdict and, on a model that keeps the identity, no
    violation: checked on embed_lp models and on copies with one frame
    entry moved by a small rational."""
    rng = Random(seed)
    g = (random_pair_subgpt if pairs else random_subgpt)(rng, dim)
    model = embed_lp(g).model
    if model is None:
        return
    if perturb and delta:
        frames = [list(model.state_frame), list(model.effect_frame)]
        side = rng.randrange(2)
        k, i = rng.randrange(model.ontic_size), rng.randrange(dim)
        v = list(frames[side][k])
        v[i] += delta
        frames[side][k] = tuple(v)
        model = OntModel(state_frame=tuple(frames[0]), effect_frame=tuple(frames[1]))
    report, reference = verify_ncom(model, g), reference_verify_ncom(model, g)
    assert report.ok == reference.ok
    assert report.flags == reference.flags
    swept = tuple(v for v in reference.violations if not v.startswith("statistics broken"))
    assert report.violations == swept


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(min_value=2, max_value=4))
def test_classical_theories_have_deterministic_tables(seed, dim):
    rng = Random(seed)
    g = random_classical_theory(rng, dim)
    assert validate(g).ok
    table = theory_table(g)
    assert table.entries == tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(dim)) for i in range(dim)
    )


@settings(max_examples=40, deadline=None)
@given(
    seeds,
    st.integers(min_value=2, max_value=5),
    st.fractions(min_value=0, max_value=1, max_denominator=8),
)
def test_probability_respects_mixtures(seed, dim, p):
    rng = Random(seed)
    g = random_subgpt(rng, dim)
    s1, s2 = g.state_vectors[0], g.state_vectors[-1]
    mix = vec_sum([vec_scale(p, s1), vec_scale(1 - p, s2)])
    for _, e in g.effects():
        assert probability(e, mix) == p * probability(e, s1) + (1 - p) * probability(e, s2)


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(min_value=2, max_value=4))
def test_facet_ray_pairing_nonnegative(seed, dim):
    rng = Random(seed)
    c = cone_from_rays(random_pointed_cone_rays(rng, dim), dim)
    for n in c.facets:
        for r in c.rays:
            assert inner(n, r) >= 0


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(min_value=2, max_value=5))
def test_facets_match_brute_force_oracle(seed, dim):
    rng = Random(seed)
    c = cone_from_rays(random_pointed_cone_rays(rng, dim), dim)
    assert set(c.facets) == brute_force_facets(c.rays, dim)
