"""Degenerate geometry, report branches and cross-procedure consistency."""

from dataclasses import replace

import pytest

from gptlab import catalog
from gptlab.analyses import complete_report, embed_report, resource_report, witness_report
from gptlab.cones import (
    cone_from_facets,
    cone_from_rays,
    cones_equal,
    double_description,
    dual_cone,
    is_simplicial,
    member_cone,
)
from gptlab.contextuality import classify, embed_exact_dim, embed_lp
from gptlab.linalg import vec
from gptlab.report import render_human, render_structured
from gptlab.theory import FIX_EFFECTS, FIX_STATES, BonusElement, complete


# ---------------------------------------------------------------------------
# degenerate cones


def test_dd_on_contradictory_normals_gives_subspace():
    # {x : <e1, x> >= 0 and <-e1, x> >= 0} is the plane x = 0 in dim 3
    lin, rays = double_description([vec(1, 0, 0), vec(-1, 0, 0)], 3)
    assert rays == ()
    assert set(lin) == {vec(0, 1, 0), vec(0, 0, 1)}


def test_dd_with_redundant_and_zero_normals():
    lin, rays = double_description(
        [vec(0, 0), vec(1, 0), vec(0, 1), vec(1, 1), vec(2, 0)], 2
    )
    assert lin == ()
    assert set(rays) == {vec(1, 0), vec(0, 1)}


def test_cone_from_facets_with_equality_pair():
    # a single ray described by its three-halfspace minimal form
    c = cone_from_facets([vec(0, 1), vec(0, -1), vec(1, 0)], 2)
    assert c.rays == (vec(1, 0),)


def test_dual_of_a_line():
    line = cone_from_rays([vec(1, 1), vec(-1, -1)], 2)
    dual = dual_cone(line)
    # dual of a line is its orthogonal complement line
    assert set(dual.rays) == {vec(1, -1), vec(-1, 1)}
    assert not is_simplicial(line)


def test_membership_in_trivial_cone():
    trivial = cone_from_rays([], 3)
    assert member_cone(vec(0, 0, 0), trivial.rays).inside
    outside = member_cone(vec(1, 0, 0), trivial.rays)
    assert not outside.inside
    assert outside.verify(vec(1, 0, 0), trivial.rays)


def test_duplicate_generators_collapse():
    c = cone_from_rays([vec(1, 2), vec(2, 4), vec("1/2", 1)], 2)
    assert c.rays == (vec(1, 2),)


# ---------------------------------------------------------------------------
# the cube completion: a second contextual no-restriction instance


@pytest.fixture(scope="module")
def cube():
    return complete(catalog.get("spekkens_toy"), FIX_EFFECTS)


def test_cube_completion_is_contextual(cube):
    verdict = classify(cube)
    assert not verdict.noncontextual
    assert verdict.witness is not None and verdict.witness.verify()


def test_cube_completion_admits_no_finite_model(cube):
    lp_result = embed_lp(cube)
    assert not lp_result.found
    assert lp_result.verify_farkas()
    exact = embed_exact_dim(cube)
    assert not exact.found
    # six effect-side rays and eight state points, all 4-subsets examined
    assert exact.explored == 15 + 70


@pytest.mark.parametrize("name", ["rebit_completion", "cube"])
def test_farkas_recheck_rejects_a_bad_separator(name, cube):
    lp_result = embed_lp(cube if name == "cube" else catalog.get(name))
    assert lp_result.verify_farkas()
    separator = lp_result.certificate.separator
    for bad in (tuple(-y for y in separator), tuple(0 * y for y in separator)):
        forged = replace(lp_result, certificate=replace(lp_result.certificate, separator=bad))
        assert not forged.verify_farkas()


def test_farkas_recheck_rejects_a_found_model():
    lp_result = embed_lp(catalog.get("rebit"))
    assert lp_result.found and lp_result.farkas is None
    assert not lp_result.verify_farkas()


def test_fix_states_and_fix_effects_commute_on_rebit():
    reb = catalog.get("rebit")
    grown_states = complete(reb, FIX_EFFECTS)
    grown_effects = complete(reb, FIX_STATES)
    # both are no-restriction theories over the same pair of dual cones,
    # one seen from each side
    from gptlab.theory import effect_cone, state_cone

    assert cones_equal(state_cone(grown_states), dual_cone(effect_cone(reb)))
    assert cones_equal(effect_cone(grown_effects), dual_cone(state_cone(reb)))


# ---------------------------------------------------------------------------
# report branches


def test_embed_report_found_branch():
    report = embed_report(catalog.get("spekkens_container"), exact_dim=True)
    text = render_structured(report)
    assert "embedding_same_dimension.model_found = yes" in text
    report.verify_all()


def test_complete_report_fix_states():
    report = complete_report(catalog.get("rebit"), FIX_STATES)
    text = render_structured(report)
    assert "completion.no-restriction_holds_on_result = yes" in text
    report.verify_all()


def test_witness_report_none_branch():
    report = witness_report(catalog.get("classical_trit"), "lemma2")
    text = render_human(report)
    assert "none: both extremal families have unique decompositions" in text


def test_witness_report_restricted_theory_note():
    report = witness_report(catalog.get("spekkens_toy"), "lemma2")
    text = render_human(report)
    # the toy's six pure states do carry a non-unique decomposition, but for
    # a restricted theory that alone does not settle contextuality
    assert "witness point" in text
    assert "does\nnot settle" in text or "not settle contextuality" in text
    report.verify_all()


def test_resource_report_divergent_branch():
    trit = catalog.get("classical_trit")
    report = resource_report(
        trit, BonusElement("state", "r", vec("4/3", "-1/3", 0))
    )
    text = render_structured(report)
    assert "resource.classification = divergent" in text
    report.verify_all()


def test_structured_table_lines():
    from gptlab.analyses import table_report

    text = render_structured(table_report(catalog.get("rebit")))
    assert "statistics.probability_table.s1.e3 = 1/2" in text
    assert "statistics.probability_table.s4.e4 = 1" in text


def _oversized_random_models():
    """(theory, model) for the oversized embed_lp models of twelve seeded
    unsharp-pair theories; the construction reliably oversizes."""
    from random import Random

    from helpers import random_pair_subgpt

    rng = Random(5)
    found = []
    for _ in range(12):
        dim = rng.randint(2, 3)
        g = random_pair_subgpt(rng, dim)
        result = embed_lp(g)
        if result.found and result.model.ontic_size > g.dim:
            found.append((g, result.model))
    assert found
    return found


def test_oversized_random_models_carry_witnesses():
    from gptlab.contextuality import indistinguishability_witness

    for g, model in _oversized_random_models():
        witness = indistinguishability_witness(g, model)
        assert witness is not None and witness.verify(g, model)


def test_witness_direction_is_the_response_matrix_null_vector():
    """The state frame and the response matrix <e, D(l)> of a valid theory
    share their row space, so their canonical null bases agree."""
    from gptlab.contextuality import indistinguishability_witness
    from gptlab.linalg import mat, null_space

    for g, model in _oversized_random_models():
        responses = mat([model.response_function(e) for e in g.effect_vectors])
        witness = indistinguishability_witness(g, model)
        assert witness.null_direction == null_space(responses)[0]
