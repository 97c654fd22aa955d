"""Yes/no cone questions answered from the double description.

The fast paths (extremality from tight facets, facet-sign membership, ray
set differences, nonrefinable effects from per-ray scaling) are checked
against their LP definitions in `helpers`, and the bundled theories pin how
many LPs and double descriptions each decision may run.  An LP runs only
where it backs a certificate.
"""

import ast
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from random import Random
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gptlab
from gptlab import catalog, cones, lp
from gptlab.cli import run
from gptlab.cones import cone_from_facets, cone_from_rays, contains, is_simplicial, member_cone, reduce_generators
from gptlab.contextuality import classify, interior_state_functional
from gptlab.errors import InputError
from gptlab.linalg import inner, vec, vec_scale, vec_sub
from gptlab.theory import (
    FIX_EFFECTS,
    FIX_STATES,
    build_gpt,
    complete,
    in_effect_set,
    no_restriction_check,
    nonrefinable_effects,
    pure_states,
    validate,
)

from helpers import (
    clear_theory_caches,
    is_full_dimensional,
    is_pointed,
    lp_no_restriction_gaps,
    lp_pure_states,
    lp_reduce_generators,
    random_classical_theory,
    random_pair_subgpt,
    random_subgpt,
    reference_nonrefinable_effects,
)

seeds = st.integers(min_value=0, max_value=10**9)

HALF_PLANE = [vec(1, 0), vec(-1, 0), vec(0, 1), vec(1, 1), vec(-2, 3)]


def random_generators(rng: Random, dim: int):
    """Small integer generators: often pointed and full-dimensional, often
    with lines or of lower dimension, so every shape of cone is drawn."""
    count = rng.randint(1, dim + 3)
    return [tuple(Fraction(rng.randint(-2, 2)) for _ in range(dim)) for _ in range(count)]


def random_theory(seed: int, dim: int):
    rng = Random(seed)
    return (random_subgpt, random_pair_subgpt, random_classical_theory)[seed % 3](rng, dim)


@contextmanager
def recorded_lps():
    """The arguments of every LP solved inside the block."""
    calls = []
    solve = lp.solve_feasibility

    def counting(*args):
        calls.append(args)
        return solve(*args)

    with patch.object(lp, "solve_feasibility", counting):
        yield calls


def test_half_plane_keeps_its_generators_and_matches_membership_lps():
    c = cone_from_rays(HALF_PLANE, 2)
    assert not is_pointed(c) and is_full_dimensional(c)
    assert c.rays == tuple(sorted(HALF_PLANE))
    for q in (vec(0, 0), vec(-5, 1), vec(3, 0), vec(0, -1), vec(1, -1)):
        assert contains(c, q) == member_cone(q, c).inside


def test_lower_dimensional_pointed_cone_keeps_its_extreme_rays():
    # a wedge in a plane of R^3, with redundant generators
    gens = [vec(1, 0, 0), vec(0, 1, 0), vec(1, 1, 0), vec(2, 0, 0)]
    c = cone_from_rays(gens, 3)
    assert is_pointed(c) and not is_full_dimensional(c)
    assert c.rays == lp_reduce_generators(gens) == (vec(0, 1, 0), vec(1, 0, 0))


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(min_value=1, max_value=4))
def test_pointed_reduction_matches_greedy_lp_reduction(seed, dim):
    gens = random_generators(Random(seed), dim)
    c = cone_from_rays(gens, dim)
    if is_pointed(c):
        assert c.rays == reduce_generators(gens) == lp_reduce_generators(gens)


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(min_value=1, max_value=4))
def test_cones_with_lines_keep_every_generator(seed, dim):
    rng = Random(seed)
    gens = random_generators(rng, dim)
    c = cone_from_rays(gens, dim)
    if not is_pointed(c):
        assert all(member_cone(v, c).inside for v in gens)
        for _ in range(4):
            q = tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim))
            assert contains(c, q) == member_cone(q, c).inside


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(min_value=1, max_value=4))
def test_cone_construction_solves_no_lp(seed, dim):
    gens = random_generators(Random(seed), dim)
    with recorded_lps() as calls:
        c = cone_from_rays(gens, dim)
        d = cone_from_facets(gens, dim)
    assert calls == []
    assert all(contains(c, v) for v in gens)
    assert all(inner(v, r) >= 0 for v in gens for r in d.rays)


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(min_value=1, max_value=4))
def test_contains_matches_membership_lp(seed, dim):
    rng = Random(seed)
    c = cone_from_rays(random_generators(rng, dim), dim)
    queries = [tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim)) for _ in range(4)]
    queries += list(c.rays)
    for q in queries:
        assert contains(c, q) == member_cone(q, c).inside


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(min_value=2, max_value=4))
def test_ray_sets_match_membership_lps(seed, dim):
    g = random_theory(seed, dim)
    assert validate(g).ok
    assert pure_states(g) == lp_pure_states(g)
    check = no_restriction_check(g)
    assert (check.state_witnesses, check.effect_witnesses) == lp_no_restriction_gaps(g)


@pytest.mark.parametrize("name", catalog.bundled_names())
def test_bundled_ray_sets_match_membership_lps(name):
    g = catalog.get(name)
    assert pure_states(g) == lp_pure_states(g)
    check = no_restriction_check(g)
    assert (check.state_witnesses, check.effect_witnesses) == lp_no_restriction_gaps(g)


def check_nonrefinable_effects(g):
    """The per-ray atoms are the unrefinable vertices of the lifted
    enumeration, and the barycentric slice is positive on every nonzero
    effect generator and every atom."""
    atoms = [v for _, v in nonrefinable_effects(g)]
    assert set(atoms) == reference_nonrefinable_effects(g)
    u = interior_state_functional(g)
    nonzero = [e for e in g.effect_vectors if any(e)]
    assert all(inner(u, e) > 0 for e in nonzero + atoms)


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(min_value=2, max_value=4))
def test_nonrefinable_effects_match_vertex_enumeration(seed, dim):
    check_nonrefinable_effects(random_theory(seed, dim))


@pytest.mark.parametrize("mode", [None, FIX_EFFECTS, FIX_STATES])
@pytest.mark.parametrize("name", catalog.bundled_names())
def test_bundled_nonrefinable_effects_match_vertex_enumeration(name, mode):
    g = catalog.get(name)
    check_nonrefinable_effects(g if mode is None else complete(g, mode))


@pytest.fixture
def lp_calls():
    """Cold theory caches, and the arguments of every LP solved."""
    clear_theory_caches()
    with recorded_lps() as calls:
        yield calls


@pytest.mark.parametrize("name", catalog.bundled_names())
def test_yes_no_decisions_solve_no_lp(name, lp_calls):
    g = catalog.get(name)
    assert validate(g).ok
    no_restriction_check(g)
    pure_states(g)
    for e in g.effect_vectors:
        assert in_effect_set(g, e)
        assert in_effect_set(g, vec_scale(Fraction(1, 2), e))
        assert in_effect_set(g, vec_sub(e, g.unit)) == (e == g.unit)
    c = cone_from_rays(g.state_vectors, g.dim)
    assert contains(c, g.state_vectors[0])
    assert lp_calls == []


TRIT_STATES = [("p1", (1, 0, 0)), ("p2", (0, 1, 0)), ("p3", (0, 0, 1))]


@pytest.mark.parametrize(
    "effects, codes",
    [
        # a coarse-grained measurement: effects span a plane
        ([("a", (1, 0, 0)), ("b", (0, 1, 1))], ["effects-span"]),
        # neither effect has its complement
        ([("a", (1, 0, 0)), ("b", (0, 1, 0))], ["missing-complement", "missing-complement", "effects-span"]),
    ],
)
def test_validate_of_invalid_theories_solves_no_lp(effects, codes, lp_calls):
    g = build_gpt(3, (1, 1, 1), effects, TRIT_STATES, claims_no_restriction=False)
    assert [v.code for v in validate(g).violations] == codes
    assert lp_calls == []


def test_emptied_state_set_evidence_is_the_only_lp(lp_calls):
    with pytest.raises(InputError, match=r"empties the state set; evidence: -unit = 1 \* \[-1, -1, -1\]"):
        run(["classify-resource", "trit", "--effect=-1,-1,-1"])
    assert len(lp_calls) == 1


def test_only_certificates_call_the_lp():
    """Each call of `lp.solve_feasibility` in the package sits in a function
    whose answer is a certificate; a call is owned by the outermost function
    around it (None at module level)."""
    callers = set()
    for path in Path(gptlab.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        owner = {}
        for fn in ast.walk(tree):  # breadth first: outer functions come first
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    owner.setdefault(node, fn.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("solve_feasibility"):
                callers.add((path.stem, owner.get(node)))
    assert callers == {("cones", "member_cone"), ("cones", "member_convex"), ("contextuality", "embed_lp")}


def test_cone_facets_come_from_the_reduction_run(monkeypatch):
    runs = []
    dd = cones.double_description

    def counting(*args):
        runs.append(args)
        return dd(*args)

    monkeypatch.setattr(cones, "double_description", counting)
    c = cone_from_rays(catalog.get("rebit").state_vectors, 3)
    facets = c.facets
    assert len(runs) == 1
    assert facets == cones._generators(*dd(c.rays, 3))


NO_RESTRICTION_CASES = [
    (name, None) for name in catalog.bundled_names()
    if no_restriction_check(catalog.get(name)).holds
] + [(name, FIX_EFFECTS) for name in catalog.bundled_names()]


@pytest.mark.parametrize("name, mode", NO_RESTRICTION_CASES)
def test_nonrefinable_effects_and_classify_solve_no_lp(name, mode, lp_calls):
    g = catalog.get(name)
    if mode is not None:
        g = complete(g, mode)
        clear_theory_caches()
        lp_calls.clear()
    nonrefinable_effects(g)
    interior_state_functional(g)
    classify(g)
    assert lp_calls == []


def check_simpliciality_counts(g, completed):
    """classify's ray counts agree with rebuilding each family's cone, and
    a completion's state count with rebuilding its state cone."""
    verdict = classify(g)
    pure = [v for _, v in pure_states(g)]
    atoms = [v for _, v in nonrefinable_effects(g)]
    assert verdict.states_simplicial == is_simplicial(cone_from_rays(pure, g.dim))
    assert verdict.effects_simplicial == is_simplicial(cone_from_rays(atoms, g.dim))
    if completed:
        assert (len(g.state_vectors) == g.dim) == is_simplicial(cone_from_rays(g.state_vectors, g.dim))


CLASSIFY_CASES = [(name, None) for name, mode in NO_RESTRICTION_CASES if mode is None] + [
    (name, mode) for name in catalog.bundled_names() for mode in (FIX_EFFECTS, FIX_STATES)
]


@pytest.mark.parametrize("name, mode", CLASSIFY_CASES)
def test_classify_counts_match_rebuilt_cones(name, mode):
    g = catalog.get(name)
    check_simpliciality_counts(g if mode is None else complete(g, mode), mode is not None)


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(min_value=2, max_value=4), st.sampled_from([FIX_EFFECTS, FIX_STATES]))
def test_classify_counts_match_rebuilt_cones_on_random_theories(seed, dim, mode):
    g = random_theory(seed, dim)
    if no_restriction_check(g).holds:
        check_simpliciality_counts(g, False)
    check_simpliciality_counts(complete(g, mode), True)


@pytest.mark.parametrize("name, mode", CLASSIFY_CASES)
def test_classify_with_warm_caches_runs_no_double_description(name, mode, monkeypatch):
    g = catalog.get(name)
    if mode is not None:
        g = complete(g, mode)
    classify(g)
    # decide again with only the verdict memos cold: the geometry stays warm
    classify.cache_clear()
    validate.cache_clear()
    runs = []
    dd = cones.double_description

    def counting(*args):
        runs.append(args)
        return dd(*args)

    monkeypatch.setattr(cones, "double_description", counting)
    classify(g)
    assert runs == []
