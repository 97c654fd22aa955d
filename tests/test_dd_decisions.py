"""Yes/no cone questions answered from the double description.

The fast paths (extremality from tight facets, facet-sign membership, ray
set differences, nonrefinable effects from per-ray scaling) are checked
against their LP definitions in `helpers`, and the bundled theories pin how
many LPs and double descriptions each decision may run.  An LP runs only
where it backs a certificate: `--verify` re-checks no-restriction over the
stored generators and facet separators, so `classify-resource` solves no
LP and `analyze` only the embedding one.  The cones entered without a
double description rest on two identities, checked here on cold runs: a
cone rebuilt from its rays is the same cone, and a pointed cone rebuilt
from its facets is its dual.
"""

import ast
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from random import Random
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gptlab
from gptlab import analyses, catalog, cones, lp, theory
from gptlab.analyses import _no_restriction_section, analyze_report
from gptlab.cli import load_theory, run
from gptlab.cones import (
    cone_from_facets,
    cone_from_rays,
    contains,
    dual_cone,
    is_simplicial,
    member_cone,
    reduce_generators,
)
from gptlab.contextuality import classify, embed_lp, interior_state_functional
from gptlab.errors import InputError, InternalCheckError
from gptlab.linalg import basis_vec, inner, integerize, rank, vec, vec_scale, vec_sub, vec_sum
from gptlab.report import Report
from gptlab.theoryfile import parse_text, serialize
from gptlab.theory import (
    FIX_EFFECTS,
    FIX_STATES,
    build_gpt,
    complete,
    effect_cone,
    in_effect_set,
    no_restriction_check,
    nonrefinable_effects,
    pure_states,
    state_cone,
    validate,
)

from helpers import (
    check_scope_cones,
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
        assert contains(c, q) == member_cone(q, c.rays).inside


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
        assert all(member_cone(v, c.rays).inside for v in gens)
        for _ in range(4):
            q = tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim))
            assert contains(c, q) == member_cone(q, c.rays).inside


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
        assert contains(c, q) == member_cone(q, c.rays).inside


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


RESOURCE_BONUSES = [
    "--effect=3/2,0,-1/2",
    "--effect=1/2,1/2,1/2",
    "--state=1/2,5/6,-1/3",
    "--state=2/3,1/3,0",
]
GOLDEN = ["golden/redundant_measurement.gpt", "golden/repeated_state.gpt"]


def theory_ref(ref: str) -> str:
    """A bundled name as given, a test file path resolved next to this file."""
    return str(Path(__file__).parent / ref) if ref.endswith(".gpt") else ref


@pytest.mark.parametrize("bonus", RESOURCE_BONUSES)
def test_classify_resource_verify_solves_no_lp(bonus, lp_calls, capsys):
    assert run(["classify-resource", "trit", bonus, "--verify"]) == 0
    assert "verified certificates:" in capsys.readouterr().out
    assert lp_calls == []


@pytest.mark.parametrize("ref", list(catalog.bundled_names()) + GOLDEN)
def test_analyze_verify_solves_only_the_embedding_lp(ref, lp_calls, capsys):
    assert run(["analyze", theory_ref(ref), "--verify"]) == 0
    assert "verified certificates:" in capsys.readouterr().out
    assert len(lp_calls) == 1


def check_witness_separators(g):
    """Every check `_no_restriction_section` adds passes, and the membership
    LP agrees that each witness lies outside the stored generators."""
    report = Report(title="")
    check = _no_restriction_section(report, g)
    assert len(report.verify_all()) == len(check.state_witnesses) + len(check.effect_witnesses)
    for witnesses, generators in (
        (check.state_witnesses, g.state_vectors),
        (check.effect_witnesses, g.effect_vectors),
    ):
        assert not any(member_cone(w, generators).inside for w in witnesses)
    return report.checks


@pytest.mark.parametrize("ref", ["spekkens_toy", "rebit", "golden/redundant_measurement.gpt"])
def test_witness_separators_of_restricted_theories(ref):
    assert check_witness_separators(load_theory(theory_ref(ref)))


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(min_value=3, max_value=4), st.sampled_from([random_subgpt, random_pair_subgpt]))
def test_witness_separators_of_random_subgpts(seed, dim, draw):
    check_witness_separators(draw(Random(seed), dim))


@pytest.mark.parametrize("side", ["state", "effect"])
def test_a_stored_generator_listed_as_missing_fails_verification(side, monkeypatch):
    """A forged witness that is a stored generator (`s1` or `e1` of the
    rebit) has no separating facet, so `--verify` refuses it."""
    rebit = catalog.get("rebit")
    check = no_restriction_check(rebit)
    field = f"{side}_witnesses"
    forged = replace(check, **{field: getattr(check, field) + (getattr(rebit, side)(f"{side[0]}1"),)})
    monkeypatch.setattr(analyses, "no_restriction_check", lambda g: forged)
    with pytest.raises(InternalCheckError, match=f"{side} witness"):
        analyze_report(rebit).verify_all()


def test_only_certificates_call_the_lp():
    """The one call of `lp.solve_feasibility` in the package sits in
    `member_cone`, which checks every answer as a certificate; a call is
    owned by the outermost function around it (None at module level)."""
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
    assert callers == {("cones", "member_cone")}


@pytest.mark.parametrize(
    "wrong",
    [
        lambda columns, b: lp.Feasible(x=tuple(Fraction(0) for _ in columns)),
        lambda columns, b: lp.Infeasible(farkas=tuple(Fraction(0) for _ in b)),
    ],
    ids=["zero-point", "zero-farkas"],
)
def test_no_lp_answer_leaves_the_package_unchecked(wrong, monkeypatch):
    """A wrong solver answer, feasible or not, is caught before any caller
    sees it: by a plain membership question, by the embedding LP of the
    rebit (feasible) and by that of its completion (infeasible)."""
    rebit, completion = catalog.get("rebit"), catalog.get("rebit_completion")
    monkeypatch.setattr(lp, "solve_feasibility", wrong)
    for ask in (
        lambda: member_cone(vec(1, 1, 1), [basis_vec(i, 3) for i in range(3)]),
        lambda: embed_lp(rebit),
        lambda: embed_lp(completion),
    ):
        with pytest.raises(InternalCheckError):
            ask()


def test_cone_facets_come_from_the_reduction_run(monkeypatch):
    clear_theory_caches()
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
    # decide again with only the two cones warm
    scope = theory._scope(g)
    for key in set(scope) - {"effect_cone", "state_cone"}:
        del scope[key]
    runs = []
    dd = cones.double_description

    def counting(*args):
        runs.append(args)
        return dd(*args)

    monkeypatch.setattr(cones, "double_description", counting)
    classify(g)
    assert runs == []


def as_tuple(c):
    return (c.dim, c.rays, c.facets)


def check_reduction_identities(gens, dim):
    """A reduction of a cone's rays gives the cone back, and for a pointed
    cone, as `cones.is_pointed` and the LP test agree, a reduction of its
    facets gives its dual; each is a fresh double description."""
    c = cone_from_rays(gens, dim)
    assert as_tuple(cone_from_rays(c.rays, dim)) == as_tuple(c)
    pointed = is_pointed(c)
    assert cones.is_pointed(c) == pointed
    if pointed:
        assert as_tuple(cone_from_rays(c.facets, dim)) == as_tuple(dual_cone(c))
    return c


@pytest.mark.parametrize("mode", [None, FIX_EFFECTS, FIX_STATES])
@pytest.mark.parametrize("name", catalog.bundled_names())
def test_bundled_cones_rebuild_from_rays_and_facets(name, mode):
    g = catalog.get(name)
    if mode is not None:
        g = complete(g, mode)
    assert check_reduction_identities(g.effect_vectors, g.dim) == effect_cone(g)
    assert check_reduction_identities(g.state_vectors, g.dim) == state_cone(g)


@pytest.mark.parametrize("mode", [None, FIX_EFFECTS, FIX_STATES])
@pytest.mark.parametrize("name", catalog.bundled_names())
def test_bundled_scope_cones_equal_cold_builds(name, mode):
    g = catalog.get(name)
    check_scope_cones(g if mode is None else complete(g, mode))


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(min_value=2, max_value=4), st.sampled_from([FIX_EFFECTS, FIX_STATES]))
def test_scope_cones_equal_cold_builds_on_random_theories(seed, dim, mode):
    g = random_theory(seed, dim)
    check_scope_cones(g)
    check_scope_cones(complete(g, mode))


def independent_vectors(rng: Random, k: int, dim: int):
    while True:
        rows = [tuple(Fraction(rng.randint(-2, 2)) for _ in range(dim)) for _ in range(k)]
        if rank(rows) == k:
            return rows


def pointed_generators(rng: Random, dim: int, k: int):
    """A pointed cone spanning a random k-dimensional subspace: nonnegative
    combinations of k independent vectors, each with the first one in it."""
    basis = independent_vectors(rng, k, dim)
    gens = []
    for _ in range(rng.randint(1, k + 3)):
        coefficients = [rng.randint(1, 3)] + [rng.randint(0, 2) for _ in range(k - 1)]
        gens.append(vec_sum([vec_scale(a, b) for a, b in zip(coefficients, basis)], dim))
    return gens


def generators_with_lines(rng: Random, dim: int):
    gens = random_generators(rng, dim)
    line = tuple(Fraction(rng.randint(-2, 2)) for _ in range(dim))
    if not any(line):
        line = basis_vec(rng.randrange(dim), dim)
    return gens + [line, vec_scale(-1, line)]


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(min_value=2, max_value=4))
def test_memo_identities_on_pointed_cones(seed, dim):
    c = check_reduction_identities(pointed_generators(Random(seed), dim, dim), dim)
    assert is_pointed(c)


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(min_value=2, max_value=4))
def test_memo_identities_on_lower_dimensional_cones(seed, dim):
    rng = Random(seed)
    c = check_reduction_identities(pointed_generators(rng, dim, rng.randint(1, dim - 1)), dim)
    assert is_pointed(c) and not is_full_dimensional(c)


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(min_value=1, max_value=4))
def test_memo_identities_on_cones_with_lines(seed, dim):
    c = check_reduction_identities(generators_with_lines(Random(seed), dim), dim)
    assert not is_pointed(c)


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(min_value=1, max_value=4))
def test_memo_identities_on_random_cones(seed, dim):
    check_reduction_identities(random_generators(Random(seed), dim), dim)


@pytest.mark.parametrize("mode", [FIX_EFFECTS, FIX_STATES])
@pytest.mark.parametrize("name", catalog.bundled_names())
def test_completion_cones_cost_no_double_description(name, mode, monkeypatch):
    g = catalog.get(name)
    clear_theory_caches()
    validate(g)
    state_cone(g)
    runs = []
    dd = cones.double_description

    def counting(*args):
        runs.append(args)
        return dd(*args)

    monkeypatch.setattr(cones, "double_description", counting)
    completed = complete(g, mode)
    effect_cone(completed)
    state_cone(completed)
    assert runs == []


@pytest.mark.parametrize("mode", [FIX_EFFECTS, FIX_STATES])
@pytest.mark.parametrize("name", catalog.bundled_names())
def test_a_no_restriction_analysis_runs_one_double_description(name, mode, monkeypatch):
    # a completion read back from its file: no `closed_theory` entered its
    # cones, so the state cone is the effect cone's dual by `state_cone`
    g = parse_text(serialize(complete(catalog.get(name), mode)))
    clear_theory_caches()
    runs = []
    dd = cones.double_description
    monkeypatch.setattr(cones, "double_description", lambda *args: runs.append(args) or dd(*args))
    analyze_report(g).verify_all()
    assert len(runs) == 1


def test_a_state_set_on_the_facets_of_a_cone_with_lines_gets_its_own_run():
    # the upper half-plane keeps its redundant generator (1, 1), as a cone
    # with lines does, so its dual's facets are not its rays
    effects = [("a", (1, 0)), ("b", (-1, 0)), ("c", (1, 1)), ("d", (0, 1))]
    g = build_gpt(2, (0, 1), effects, [("s", (0, 1))], False)
    assert effect_cone(g).facets == ((0, 1),) and not cones.is_pointed(effect_cone(g))
    check_scope_cones(g)


@contextmanager
def no_rank():
    """`cones.rank` patched to raise inside the block."""

    def raising(*args):
        raise AssertionError("the cone reduction computed a rank")

    with patch.object(cones, "rank", raising):
        yield


def check_rank_free_reduction(gens, dim):
    """A cold reduction that computes no rank keeps the LP reduction of a
    pointed cone and every canonical generator of a cone with lines."""
    with no_rank():
        c = cone_from_rays(gens, dim)
    pointed = is_pointed(c)
    if pointed:
        assert c.rays == lp_reduce_generators(gens)
    else:
        assert c.rays == tuple(sorted({integerize(v) for v in gens if any(v)}))
    return c


@pytest.mark.parametrize("mode", [None, FIX_EFFECTS, FIX_STATES])
@pytest.mark.parametrize("name", catalog.bundled_names())
def test_bundled_cones_reduce_without_rank(name, mode):
    g = catalog.get(name)
    if mode is not None:
        g = complete(g, mode)
    check_rank_free_reduction(g.effect_vectors, g.dim)
    check_rank_free_reduction(g.state_vectors, g.dim)


E = [basis_vec(i, 4) for i in range(4)]


@pytest.mark.parametrize(
    "gens, dim, rays, pointed",
    [
        # e1 + e2 inside a 2-face and e1 + e2 + e3 inside a facet of the
        # positive orthant of R^4
        (E + [vec_sum(E[:2], 4), vec_sum(E[:3], 4)], 4, tuple(sorted(E)), True),
        # the whole plane: no facets, so every generator is tight everywhere
        ([vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1), vec(1, 1)], 2, None, False),
        # a half-space of R^3
        ([vec(1, 0, 0), vec(-1, 0, 0), vec(0, 1, 0), vec(0, -1, 0), vec(0, 0, 1), vec(1, 1, 1)], 3, None, False),
        ([vec(2, 4, 6)], 3, (vec(1, 2, 3),), True),
        ([], 3, (), True),
    ],
)
def test_rank_free_reduction_edge_cases(gens, dim, rays, pointed):
    c = check_rank_free_reduction(gens, dim)
    assert is_pointed(c) == pointed
    assert c.rays == (tuple(sorted(gens)) if rays is None else rays)


SHAPES = {
    "pointed": lambda rng, dim: pointed_generators(rng, dim, dim),
    "lower-dimensional": lambda rng, dim: pointed_generators(rng, dim, rng.randint(1, dim - 1)),
    "with lines": generators_with_lines,
}


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(min_value=2, max_value=4), st.sampled_from(sorted(SHAPES)))
def test_random_cones_reduce_without_rank(seed, dim, shape):
    c = check_rank_free_reduction(SHAPES[shape](Random(seed), dim), dim)
    assert is_pointed(c) == (shape != "with lines")
