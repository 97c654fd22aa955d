from dataclasses import replace
from fractions import Fraction
from random import Random
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptlab import catalog, contextuality, lp
from gptlab.cones import cone_from_rays
from gptlab.contextuality import (
    NcomReport,
    OntModel,
    SubtheoryRejected,
    build_ncom,
    classify,
    decomposition_witness,
    embed_exact_dim,
    embed_lp,
    indistinguishability_witness,
    interior_state_functional,
    model_dimension_bound,
    nonunique_decomposition,
    verify_ncom,
)
from gptlab.errors import InputError, InternalCheckError
from gptlab.linalg import basis_vec, identity, inner, outer, vec, vec_scale, zeros
from gptlab.theory import build_gpt, theory_table

from helpers import (
    mat_add,
    random_classical_theory,
    random_pair_subgpt,
    random_pointed_cone_rays,
    random_subgpt,
    reference_minimal_support,
    reference_nonunique_decomposition,
    reference_rref,
    state_distribution,
    support_is_independent,
)

HALF = Fraction(1, 2)

S5, S6 = vec(HALF, HALF, HALF), vec(-HALF, HALF, HALF)
S7, S8 = vec(HALF, -HALF, HALF), vec(-HALF, -HALF, HALF)


@pytest.fixture(scope="module")
def theories():
    return {name: catalog.get(name) for name in catalog.bundled_names()}


# ---------------------------------------------------------------------------
# classification


def test_classify_container_noncontextual(theories):
    verdict = classify(theories["spekkens_container"])
    assert verdict.noncontextual
    assert verdict.model.state_frame == tuple(
        theories["spekkens_container"].state_vectors
    )
    assert verdict.model.effect_frame == tuple(
        theories["spekkens_container"].effect_vectors
    )


def test_classify_rebit_completion_contextual(theories):
    verdict = classify(theories["rebit_completion"])
    assert not verdict.noncontextual
    assert verdict.witness_side == "states"
    w = verdict.witness
    assert w.point == vec(0, 0, HALF)
    assert dict(w.decomposition_1) == {"s5": HALF, "s8": HALF}
    assert dict(w.decomposition_2) == {"s6": HALF, "s7": HALF}
    assert w.verify()


def test_classify_classical_bit(theories):
    assert classify(theories["classical_bit"]).noncontextual


def test_classify_rejects_restricted_theories(theories):
    for name in ("rebit", "spekkens_toy"):
        with pytest.raises(SubtheoryRejected) as exc:
            classify(theories[name])
        assert "embed_exact_dim" in str(exc.value)


# ---------------------------------------------------------------------------
# non-unique decompositions


def test_nonunique_decomposition_square_states():
    named = [("s5", S5), ("s6", S6), ("s7", S7), ("s8", S8)]
    w = nonunique_decomposition(named, vec(0, 0, 2))
    assert w is not None
    assert w.point == vec(0, 0, HALF)
    assert w.dependent_label == "s5"
    assert dict(w.expansion) == {"s6": 1, "s7": 1, "s8": -1}
    assert dict(w.decomposition_1) == {"s5": HALF, "s8": HALF}
    assert dict(w.decomposition_2) == {"s6": HALF, "s7": HALF}
    assert w.verify()


def test_nonunique_decomposition_rebit_effects():
    named = [
        ("e1", vec(1, 0, 1)),
        ("e2", vec(-1, 0, 1)),
        ("e3", vec(0, 1, 1)),
        ("e4", vec(0, -1, 1)),
    ]
    w = nonunique_decomposition(named, vec(0, 0, 1))
    assert w is not None
    assert w.point == vec(0, 0, 1)  # the unit effect, twice
    assert dict(w.decomposition_1) == {"e1": HALF, "e2": HALF}
    assert dict(w.decomposition_2) == {"e3": HALF, "e4": HALF}


def test_nonunique_decomposition_simplex_none():
    named = [("a", vec(1, 0, 0)), ("b", vec(0, 1, 0)), ("c", vec(0, 0, 1))]
    assert nonunique_decomposition(named, vec(1, 1, 1)) is None


def test_nonunique_decomposition_rejects_bad_normalizer():
    named = [("a", vec(1, 0)), ("b", vec(-1, 0))]
    with pytest.raises(InputError) as exc:
        nonunique_decomposition(named, vec(1, 0))
    assert "b" in str(exc.value)


def test_nonunique_decomposition_repeated_generator():
    # a repeat is an affine dependence: the generator's two copies are the
    # two decompositions of one point
    x, y, z = vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1)
    named = [("a", x), ("a2", x), ("b", y), ("c", z)]
    w = nonunique_decomposition(named, vec(1, 1, 1))
    assert w is not None and w.verify()
    assert w.point == x and w.dependent_label == "a"
    assert dict(w.decomposition_1) == {"a": 1}
    assert dict(w.decomposition_2) == {"a2": 1}
    assert dict(w.expansion) == {"a2": 1, "b": 0, "c": 0}


def test_nonunique_decomposition_interior_generator():
    # the barycentre of a triangle decomposes as itself and as the vertices
    third = Fraction(1, 3)
    named = [("m", vec(third, third, third)), ("a", vec(1, 0, 0)), ("b", vec(0, 1, 0)), ("c", vec(0, 0, 1))]
    w = nonunique_decomposition(named, vec(1, 1, 1))
    assert w is not None and w.verify()
    assert w.point == vec(third, third, third) and w.dependent_label == "m"
    assert dict(w.decomposition_1) == {"m": 1}
    assert dict(w.decomposition_2) == {"a": third, "b": third, "c": third}


def test_nonunique_decomposition_skips_a_dependence_without_the_first_generator():
    # a square bipyramid, apex first: the square's own dependence is the
    # first null vector, but the apex is the first generator in the affine
    # hull of the others, so the witness comes from the second null vector
    named = [
        ("top", vec(0, 0, 1, 1)),
        ("q1", vec(1, 1, 0, 1)),
        ("q2", vec(-1, 1, 0, 1)),
        ("q3", vec(1, -1, 0, 1)),
        ("q4", vec(-1, -1, 0, 1)),
        ("bottom", vec(0, 0, -1, 1)),
    ]
    normalizer = vec(0, 0, 0, 1)
    w = nonunique_decomposition(named, normalizer)
    assert w == reference_nonunique_decomposition(named, normalizer)
    assert w.dependent_label == "top"
    assert dict(w.decomposition_1) == {"top": HALF, "bottom": HALF}
    assert dict(w.decomposition_2) == {"q2": HALF, "q3": HALF}


def test_nonunique_decomposition_rechecks_the_witness_it_returns(monkeypatch):
    # a wrong dependence that still sums to zero: only the exact re-check of
    # the witness catches it, and it must survive python -O
    monkeypatch.setattr(contextuality, "null_space", lambda m: ((1, -1),))
    with pytest.raises(InternalCheckError, match="re-verification"):
        nonunique_decomposition([("a", vec(1, 0)), ("b", vec(0, 1))], vec(1, 1))


def _scaled(rng, family):
    """The family with every vector scaled by a random positive rational."""
    return [(f"g{i}", vec_scale(Fraction(rng.randint(1, 5), rng.randint(1, 3)), v)) for i, v in enumerate(family)]


def _extreme_family(rng, dim):
    """Distinct extreme rays of a random pointed cone, in random order.  Up
    to dim - 2 apexes e_k + e_last over a cone in the remaining coordinates
    lie in no affine dependence; put first half of the time, they make the
    dependent generator a later one."""
    apexes = rng.randint(0, dim - 2)
    family = [(Fraction(0),) * apexes + r for r in random_pointed_cone_rays(rng, dim - apexes, extra=4)]
    family += [basis_vec(k, dim)[:-1] + (Fraction(1),) for k in range(apexes)]
    rays = list(cone_from_rays(family, dim).rays)
    rng.shuffle(rays)
    if rng.random() < 0.5:
        rays.sort(key=lambda r: not any(r[:apexes]))
    return rays


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2**32 - 1))
def test_nonunique_decomposition_matches_reference_on_extreme_families(dim, seed):
    rng = Random(seed)
    named = _scaled(rng, _extreme_family(rng, dim))
    normalizer = basis_vec(dim - 1, dim)
    assert nonunique_decomposition(named, normalizer) == reference_nonunique_decomposition(named, normalizer)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2**32 - 1))
def test_nonunique_decomposition_exists_iff_affinely_dependent(dim, seed):
    # arbitrary families: repeats, interior points and collinear ones
    rng = Random(seed)
    count = rng.randint(1, dim + 3)
    points = [tuple(Fraction(rng.randint(-1, 1)) for _ in range(dim - 1)) + (Fraction(1),) for _ in range(count)]
    named = _scaled(rng, points)
    w = nonunique_decomposition(named, basis_vec(dim - 1, dim))
    lifted = [tuple(p[k] for p in points) for k in range(dim)] + [(1,) * count]
    assert (w is not None) == (len(reference_rref(lifted)[1]) < count)
    assert w is None or w.verify()


def test_decomposition_witness_matches_classify(theories):
    verdict = classify(theories["rebit_completion"])
    found = decomposition_witness(theories["rebit_completion"])
    assert found == (verdict.witness_side, verdict.witness)
    assert decomposition_witness(theories["classical_trit"]) is None


def test_decomposition_witness_effect_side_on_barycentric_slice():
    # simplex states, so only the effects can decompose twice: a + ac = b + bc;
    # the zero effect z is valid and must not break the slice
    g = build_gpt(
        3,
        [1, 1, 1],
        [("z", [0, 0, 0]), ("a", [1, 1, 0]), ("ac", [0, 0, 1]), ("b", [1, 0, 1]), ("bc", [0, 1, 0])],
        [("p1", [1, 0, 0]), ("p2", [0, 1, 0]), ("p3", [0, 0, 1])],
        claims_no_restriction=False,
    )
    side, w = decomposition_witness(g)
    assert side == "effects" and w.verify()
    assert w.point == vec(1, 1, 1)
    u = interior_state_functional(g)
    assert u == vec(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    assert all(inner(u, v) == 1 for _, v in w.generators)


# ---------------------------------------------------------------------------
# model verification and construction


def test_verify_ncom_container_dirac(theories):
    g = theories["spekkens_container"]
    model = OntModel(state_frame=g.state_vectors, effect_frame=g.effect_vectors)
    report = verify_ncom(model, g)
    assert report.ok and not report.flags


def test_verify_ncom_rebit_square_model(theories):
    g = theories["rebit"]
    model = OntModel(state_frame=(S5, S6, S7, S8), effect_frame=(S5, S6, S7, S8))
    # the four outer products sum to the identity exactly
    total = tuple(zeros(3) for _ in range(3))
    for s in (S5, S6, S7, S8):
        total = mat_add(total, outer(s, s))
    assert total == identity(3)
    report = verify_ncom(model, g)
    assert report.ok
    assert any("exceeds the theory dimension" in f for f in report.flags)


def test_verify_ncom_detects_broken_frame(theories):
    g = theories["rebit"]
    model = OntModel(
        state_frame=(S5, S6, S7, S8),
        effect_frame=(S5, S6, S7, vec(0, 0, 0)),
    )
    report = verify_ncom(model, g)
    assert not report.ok
    assert any("sums to" in v for v in report.violations)


def test_build_ncom_outputs(theories):
    model = build_ncom(theories["spekkens_container"])
    assert model.ontic_size == 4
    bit_model = build_ncom(theories["classical_bit"])
    assert bit_model.state_frame == (vec(1, 0), vec(0, 1))
    trit_model = build_ncom(theories["classical_trit"])
    assert trit_model.ontic_size == 3
    assert verify_ncom(trit_model, theories["classical_trit"]).ok


def test_build_ncom_dirac_property(theories):
    # the ontic weight of the k-th pure state is the indicator at k
    for name in ("classical_bit", "classical_trit", "spekkens_container"):
        g = theories[name]
        model = build_ncom(g)
        for k, d in enumerate(model.state_frame):
            dist = state_distribution(model, d)
            assert dist == tuple(
                Fraction(1 if i == k else 0) for i in range(model.ontic_size)
            )


def test_build_ncom_rejects_contextual(theories):
    with pytest.raises(InputError):
        build_ncom(theories["rebit_completion"])


# ---------------------------------------------------------------------------
# embeddings


def test_embed_lp_rebit_square_model(theories):
    result = embed_lp(theories["rebit"])
    assert result.found
    model = result.model
    assert model.ontic_size == 4
    assert set(model.state_frame) == {S5, S6, S7, S8}
    assert set(model.effect_frame) == {S5, S6, S7, S8}
    # deterministic responses reproducing the table
    g = theories["rebit"]
    for _, e in g.effects():
        assert set(model.response_function(e)) <= {0, 1}


def test_embed_lp_toy(theories):
    result = embed_lp(theories["spekkens_toy"])
    assert result.found and result.model.ontic_size == 4
    assert verify_ncom(result.model, theories["spekkens_toy"]).ok


def test_embed_lp_classical_bit(theories):
    result = embed_lp(theories["classical_bit"])
    assert result.found and result.model.ontic_size == 2


def test_embed_lp_rebit_completion_infeasible(theories):
    result = embed_lp(theories["rebit_completion"])
    assert not result.found
    assert result.verify_farkas()


def lp_runs(g):
    """embed_lp(g), and the arguments and result of every LP it solved."""
    runs = []
    solve = lp.solve_feasibility

    def recording(*args):
        runs.append((args, solve(*args)))
        return runs[-1][1]

    with patch.object(lp, "solve_feasibility", recording):
        return embed_lp(g), runs


def check_first_basic_solution(g):
    """embed_lp solves one LP and keeps its support: the support columns are
    independent, and the greedy `reference_minimal_support` changes nothing."""
    embedding, runs = lp_runs(g)
    assert len(runs) == 1
    (columns, target), result = runs[0]
    if not result.feasible:
        assert not embedding.found and embedding.verify_farkas()
        return
    assert support_is_independent(columns, result.x)
    first = {k: x for k, x in enumerate(result.x) if x > 0}
    assert reference_minimal_support(columns, target, result.x) == first
    assert {k: x for k, x in enumerate(embedding.certificate.coefficients) if x > 0} == first


@pytest.mark.parametrize("name", catalog.bundled_names())
def test_embed_lp_keeps_its_first_basic_solution(name):
    check_first_basic_solution(catalog.get(name))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([random_subgpt, random_pair_subgpt]), st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_embed_lp_keeps_its_first_basic_solution_on_random_theories(make, dim, seed):
    check_first_basic_solution(make(Random(seed), dim))


def test_embed_exact_dim_toy(theories):
    result = embed_exact_dim(theories["spekkens_toy"])
    assert result.found
    model = result.model
    assert model.ontic_size == 4
    basis = {vec(1, 0, 0, 0), vec(0, 1, 0, 0), vec(0, 0, 1, 0), vec(0, 0, 0, 1)}
    assert set(model.effect_frame) == basis
    assert set(model.state_frame) == basis
    assert verify_ncom(model, theories["spekkens_toy"]).ok


def test_embed_exact_dim_rebit_none(theories):
    result = embed_exact_dim(theories["rebit"])
    assert not result.found
    # the full restricted candidate class: all 3-subsets on both sides
    assert result.explored == 8
    assert "candidate class" in result.caveat


def test_embed_exact_dim_trit(theories):
    result = embed_exact_dim(theories["classical_trit"])
    assert result.found
    assert result.model.state_frame == (vec(0, 0, 1), vec(0, 1, 0), vec(1, 0, 0))


@pytest.mark.parametrize(
    "make, side",
    [
        (lambda: catalog.get("spekkens_toy"), "effect-side"),
        (lambda: random_subgpt(Random(7), 3), "state-side"),  # no effect-side hit
    ],
    ids=["spekkens_toy", "random_subgpt_7"],
)
def test_exact_dim_search_raises_on_a_screened_model_that_fails_its_check(make, side, monkeypatch):
    # a candidate that passes the integer screen is a model of a valid
    # theory, so a rejection is a fault, never "none found"
    g = make()
    assert embed_exact_dim(g).found
    rejected = NcomReport(False, ("planted rejection",), ())
    monkeypatch.setattr(contextuality, "verify_ncom", lambda m, t: rejected)
    with pytest.raises(InternalCheckError, match=f"screened {side} model failed verification: planted rejection"):
        embed_exact_dim(g)


def test_embedding_monotonicity(theories):
    # noncontextual by classification => same-dimension model => LP model
    for name in catalog.bundled_names():
        g = theories[name]
        try:
            verdict = classify(g)
        except SubtheoryRejected:
            continue
        if verdict.noncontextual:
            assert embed_exact_dim(g).found
            assert embed_lp(g).found


def test_models_respect_rank_bound(theories):
    for name in ("rebit", "spekkens_toy", "classical_bit", "classical_trit"):
        g = theories[name]
        bound = model_dimension_bound(g)
        result = embed_lp(g)
        assert result.found
        assert result.model.ontic_size >= bound


def test_embedded_models_reproduce_full_table(theories):
    for name in ("rebit", "spekkens_toy"):
        g = theories[name]
        model = embed_lp(g).model
        table = theory_table(g)
        for i, (_, s) in enumerate(g.states()):
            dist = state_distribution(model, s)
            for j, (_, e) in enumerate(g.effects()):
                resp = model.response_function(e)
                value = sum((a * b for a, b in zip(dist, resp)), Fraction(0))
                assert value == table.entries[i][j]


# ---------------------------------------------------------------------------
# indistinguishability


def test_indistinguishability_rebit(theories):
    g = theories["rebit"]
    model = embed_lp(g).model
    witness = indistinguishability_witness(g, model)
    assert witness is not None
    assert witness.first == (HALF, 0, 0, HALF)
    assert witness.second == (Fraction(1, 4),) * 4
    assert witness.null_direction == vec(1, -1, -1, 1)
    assert witness.verify(g, model)
    assert [p for _, p in witness.statistics] == [HALF, HALF, HALF, HALF]


@pytest.mark.parametrize(
    "forge",
    [
        lambda w: replace(w, statistics=tuple((label, Fraction(0)) for label, _ in w.statistics)),
        lambda w: replace(w, statistics=()),
        lambda w: replace(w, null_direction=vec_scale(-1, w.null_direction)),
    ],
    ids=["zero statistics", "empty statistics", "negated direction"],
)
def test_indistinguishability_verify_rejects_forgeries(theories, forge):
    g = theories["rebit"]
    model = embed_lp(g).model
    witness = indistinguishability_witness(g, model)
    assert witness.verify(g, model)
    assert not forge(witness).verify(g, model)


def test_indistinguishability_none_for_dirac(theories):
    g = theories["spekkens_container"]
    assert indistinguishability_witness(g, build_ncom(g)) is None


def test_indistinguishability_rejects_wrong_model(theories):
    g = theories["rebit"]
    bad = OntModel(state_frame=(S5, S6, S7), effect_frame=(S5, S6, S7))
    with pytest.raises(InputError):
        indistinguishability_witness(g, bad)


# ---------------------------------------------------------------------------
# random-instance coherence


def test_random_classical_theories_are_noncontextual():
    rng = Random(31)
    for _ in range(10):
        dim = rng.randint(2, 4)
        g = random_classical_theory(rng, dim)
        verdict = classify(g)
        assert verdict.noncontextual
        model = verdict.model
        for k, d in enumerate(model.state_frame):
            dist = state_distribution(model, d)
            assert dist[k] == 1 and sum(dist) == 1


def test_random_subgpts_embed_and_verify():
    rng = Random(47)
    for _ in range(8):
        dim = rng.randint(2, 3)
        g = random_subgpt(rng, dim)
        result = embed_lp(g)
        assert result.found  # hosted by the classical d-level system
        assert verify_ncom(result.model, g).ok
        assert result.model.ontic_size >= model_dimension_bound(g)
