from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from gptlab import catalog
from gptlab.cones import cones_equal
from gptlab.contextuality import classify
from gptlab.errors import InputError, TheoryConsistencyError
from gptlab.linalg import inner, integerize, vec, vec_scale, vec_sub, vec_sum
from gptlab.theoryfile import parse_path
from gptlab.theory import (
    FIX_EFFECTS,
    FIX_STATES,
    BonusElement,
    Pvvm,
    build_gpt,
    complete,
    effect_cone,
    max_state_points,
    min_model_dimension,
    no_restriction_check,
    nonrefinable_effects,
    probability,
    probability_table,
    pure_states,
    scale_to_effect_interval,
    state_cone,
    theory_table,
    validate,
)

from helpers import (
    member_convex,
    random_pair_subgpt,
    random_subgpt,
    reference_scale_to_effect_interval,
)

HALF = Fraction(1, 2)


@pytest.fixture(scope="module")
def theories():
    return {name: catalog.get(name) for name in catalog.bundled_names()}


def test_bundled_theories_validate(theories):
    for name, g in theories.items():
        report = validate(g)
        assert report.ok, (name, report.violations)


def test_validate_catches_bad_normalization(theories):
    g = theories["rebit"]
    bad = replace(
        g,
        state_vectors=g.state_vectors[:-1] + ((Fraction(0), -HALF, Fraction(2)),),
    )
    report = validate(bad)
    assert not report.ok
    assert any(v.code == "state-normalization" for v in report.violations)


def test_validate_catches_missing_complement():
    # unit - a = (0, 1) is not a conic combination of (1, 0) and (1, 1)
    g = build_gpt(
        dim=2,
        unit=(1, 1),
        effects=[("a", (1, 0)), ("b", ("1/2", "1/2"))],
        states=[("p", (1, 0)), ("q", (0, 1))],
        claims_no_restriction=False,
    )
    report = validate(g)
    assert any(v.code == "missing-complement" for v in report.violations)


def test_validate_catches_false_no_restriction_claim(theories):
    g = replace(theories["rebit"], claims_no_restriction=True)
    report = validate(g)
    assert not report.ok
    assert any(v.code == "no-restriction-claim" for v in report.violations)


def test_validate_catches_a_measurement_that_misses_the_unit():
    g = replace(catalog.get("trit"), pvvms=(Pvvm("M", ("e1", "e2")),))
    assert [(v.code, v.message) for v in validate(g).violations] == [
        ("pvvm-sum", "measurement 'M' sums to [1, 1, 0], not the unit")
    ]


def test_validate_reports_a_measurement_that_lists_a_dropped_effect():
    # a Gpt made without build_gpt can keep a measurement over a lost effect
    trit = catalog.get("classical_trit")
    g = replace(trit, effect_names=trit.effect_names[:2], effect_vectors=trit.effect_vectors[:2])
    assert [(v.code, v.message) for v in validate(g).violations][-1] == (
        "pvvm-label",
        "measurement 'M' lists unknown effects 'e3'",
    )


def test_probability_examples(theories):
    toy = theories["spekkens_toy"]
    assert probability(toy.effect("zeta5"), toy.state("eta5")) == 1
    reb = theories["rebit"]
    assert probability(reb.effect("e3"), reb.state("s1")) == HALF
    for _, s in reb.states():
        assert probability(reb.unit, s) == 1


def test_probability_range_error_names_pair():
    with pytest.raises(TheoryConsistencyError) as exc:
        probability(vec(2, 0), vec(1, 0), e_label="big", s_label="p")
    assert "big" in str(exc.value) and "p" in str(exc.value)


def test_probability_convex_linearity(theories):
    reb = theories["rebit"]
    s_mix = vec_sum(
        [vec_scale(Fraction(1, 3), reb.state("s1")), vec_scale(Fraction(2, 3), reb.state("s4"))]
    )
    for _, e in reb.effects():
        expected = Fraction(1, 3) * probability(e, reb.state("s1")) + Fraction(
            2, 3
        ) * probability(e, reb.state("s4"))
        assert probability(e, s_mix) == expected


T_SPEKKENS = (
    (1, 0, HALF, HALF, HALF, HALF),
    (0, 1, HALF, HALF, HALF, HALF),
    (HALF, HALF, 1, 0, HALF, HALF),
    (HALF, HALF, 0, 1, HALF, HALF),
    (HALF, HALF, HALF, HALF, 1, 0),
    (HALF, HALF, HALF, HALF, 0, 1),
)

T_REBIT = (
    (1, 0, HALF, HALF),
    (0, 1, HALF, HALF),
    (HALF, HALF, 1, 0),
    (HALF, HALF, 0, 1),
)


def test_tables_reproduce_exactly(theories):
    toy_table = theory_table(theories["spekkens_toy"])
    assert toy_table.entries == tuple(tuple(Fraction(x) for x in r) for r in T_SPEKKENS)
    rebit_table = theory_table(theories["rebit"])
    assert rebit_table.entries == tuple(tuple(Fraction(x) for x in r) for r in T_REBIT)


def test_maximally_mixed_row(theories):
    reb = theories["rebit"]
    mm = probability_table([("mm", vec(0, 0, HALF))], reb.effects())
    assert mm.entries[0] == (HALF, HALF, HALF, HALF)


def test_min_model_dimension(theories):
    assert min_model_dimension(theory_table(theories["spekkens_toy"])) == 4
    assert min_model_dimension(theory_table(theories["rebit"])) == 3
    ones = probability_table(
        [("p", vec(1, 0)), ("q", vec(1, 0))], [("u", vec(1, 1)), ("v", vec(1, 1))]
    )
    assert min_model_dimension(ones) == 1


def test_no_restriction_verdicts(theories):
    assert no_restriction_check(theories["spekkens_container"]).holds
    assert no_restriction_check(theories["classical_bit"]).holds
    assert no_restriction_check(theories["rebit_completion"]).holds

    toy_check = no_restriction_check(theories["spekkens_toy"])
    assert not toy_check.holds
    assert vec(1, 0, 0, 0) in toy_check.state_witnesses  # a container corner

    rebit_check = no_restriction_check(theories["rebit"])
    assert not rebit_check.holds
    assert vec(HALF, HALF, HALF) in rebit_check.state_witnesses


def test_completion_of_rebit(theories):
    completed = complete(theories["rebit"], FIX_EFFECTS)
    square = {
        vec(HALF, HALF, HALF),
        vec(-HALF, HALF, HALF),
        vec(HALF, -HALF, HALF),
        vec(-HALF, -HALF, HALF),
    }
    assert set(completed.state_vectors) == square
    assert completed.claims_no_restriction
    assert validate(completed).ok


def test_completion_of_toy_is_the_full_dual(theories):
    # the octahedral effect family allows a cube of states, strictly more
    # than the simplex hosting the toy theory
    completed = complete(theories["spekkens_toy"], FIX_EFFECTS)
    assert len(completed.state_vectors) == 8
    for corner in (
        vec(1, 0, 0, 0),
        vec(0, 1, 0, 0),
        vec(0, 0, 1, 0),
        vec(0, 0, 0, 1),
        vec(-HALF, HALF, HALF, HALF),
    ):
        assert corner in completed.state_vectors
    # verified against an independent vertex enumeration
    from helpers import brute_force_slice_vertices

    toy = theories["spekkens_toy"]
    expected = brute_force_slice_vertices(toy.effect_vectors, toy.unit, 4)
    assert set(completed.state_vectors) == expected


def test_completion_idempotent(theories):
    for name in ("rebit", "spekkens_toy"):
        once = complete(theories[name], FIX_EFFECTS)
        twice = complete(once, FIX_EFFECTS)
        assert set(once.state_vectors) == set(twice.state_vectors)
        assert set(once.effect_vectors) == set(twice.effect_vectors)
        assert no_restriction_check(once).holds


def test_completion_contains_original(theories):
    for name in ("rebit", "spekkens_toy"):
        g = theories[name]
        completed = complete(g, FIX_EFFECTS)
        for _, s in g.states():
            assert member_convex(s, completed.state_vectors).inside


def test_completion_fix_states(theories):
    completed = complete(theories["rebit"], FIX_STATES)
    assert validate(completed).ok
    assert no_restriction_check(completed).holds
    expected = {integerize(v) for v in (
        vec(1, 1, 1), vec(-1, 1, 1), vec(1, -1, 1), vec(-1, -1, 1),
    )}
    assert {integerize(v) for v in completed.effect_vectors} == expected
    assert set(completed.state_vectors) == set(theories["rebit"].state_vectors)


def test_completion_keeps_only_intact_measurements():
    # H's outcomes h1 = h2 = [1/2, 1/2] are interior to the effect cone, so
    # the completion drops them and must drop H with them
    g = parse_path(str(Path(__file__).parent / "golden" / "redundant_measurement.gpt"))
    completed = complete(g, FIX_EFFECTS)
    assert set(completed.effect_names) == {"e1", "e2"}
    assert [p.name for p in completed.pvvms] == ["M"]
    assert validate(completed).ok


def test_already_dual_theory_unchanged(theories):
    g = theories["spekkens_container"]
    completed = complete(g, FIX_EFFECTS)
    assert cones_equal(state_cone(completed), state_cone(g))
    assert cones_equal(effect_cone(completed), effect_cone(g))


def test_pure_states(theories):
    assert [l for l, _ in pure_states(theories["spekkens_container"])] == [
        "eta1",
        "eta2",
        "eta3",
        "eta4",
    ]
    completed = complete(theories["rebit"], FIX_EFFECTS)
    assert len(pure_states(completed)) == 4
    single = build_gpt(
        dim=2,
        unit=(1, 1),
        effects=[("e1", (1, 0)), ("e2", (0, 1))],
        states=[("p", ("1/2", "1/2"))],
        claims_no_restriction=False,
    )
    assert [l for l, _ in pure_states(single)] == ["p"]


def test_pure_states_drop_interior_mixture(theories):
    g = theories["spekkens_container"]
    mixed = replace(
        g,
        state_names=g.state_names + ("mix",),
        state_vectors=g.state_vectors + (vec("1/4", "1/4", "1/4", "1/4"),),
    )
    labels = [l for l, _ in pure_states(mixed)]
    assert "mix" not in labels and len(labels) == 4


def test_pure_states_keep_first_label_of_repeated_vector(theories):
    g = theories["classical_bit"]
    repeated = replace(
        g, state_names=g.state_names + ("q1",), state_vectors=g.state_vectors + (vec(1, 0),)
    )
    assert [l for l, _ in pure_states(repeated)] == ["p1", "p2"]
    assert complete(repeated, FIX_STATES).state_names == ("p1", "p2")
    assert classify(repeated).noncontextual


def test_nonrefinable_effects(theories):
    container = theories["spekkens_container"]
    atoms = {v for _, v in nonrefinable_effects(container)}
    assert atoms == set(container.effect_vectors)  # the weight-one vertices

    completed = theories["rebit_completion"]
    assert {v for _, v in nonrefinable_effects(completed)} == set(
        completed.effect_vectors
    )

    bit = theories["classical_bit"]
    assert {v for _, v in nonrefinable_effects(bit)} == {vec(1, 0), vec(0, 1)}


@pytest.mark.parametrize("name", ["rebit", "spekkens_toy"])
def test_a_direction_bounded_by_no_state_raises(name, theories):
    g = theories[name]
    down = vec_scale(-1, g.unit)  # negative on every state
    with pytest.raises(TheoryConsistencyError, match="bounded by no state") as exc:
        scale_to_effect_interval(down, state_cone(g), g.unit)
    with pytest.raises(TheoryConsistencyError) as reference:
        reference_scale_to_effect_interval(down, g.state_vectors)
    assert str(exc.value) == str(reference.value)


def test_nonrefinable_excludes_coarse_grainings(theories):
    # a redundant coarse-grained generator is not an atom
    g = theories["spekkens_container"]
    coarse = vec_sum([g.effect("zeta1"), g.effect("zeta2")])
    extended = replace(
        g,
        effect_names=g.effect_names + ("zeta12",),
        effect_vectors=g.effect_vectors + (coarse,),
    )
    assert validate(extended).ok
    labels = [l for l, _ in nonrefinable_effects(extended)]
    assert "zeta12" not in labels and len(labels) == 4


def test_nonrefinable_complement_closure(theories):
    # dichotomic instances: both or neither of {e, U - e} appear
    for name in ("classical_bit", "rebit", "rebit_completion", "spekkens_toy"):
        g = theories[name]
        atoms = {v for _, v in nonrefinable_effects(g)}
        for v in atoms:
            complement = vec_sub(g.unit, v)
            if complement in set(g.effect_vectors):
                assert complement in atoms


def test_pvvms_sum_to_unit(theories):
    for g in theories.values():
        for p in g.pvvms:
            total = vec_sum([g.effect(label) for label in p.outcome_labels])
            assert total == g.unit


def test_unit_normalises_pure_states(theories):
    for g in theories.values():
        for _, d in pure_states(g):
            assert inner(g.unit, d) == 1


def test_random_subgpts_validate_and_complete():
    rng = Random(202)
    for _ in range(12):
        dim = rng.randint(2, 4)
        g = random_subgpt(rng, dim) if rng.random() < 0.5 else random_pair_subgpt(rng, dim)
        assert validate(g).ok
        completed = complete(g, FIX_EFFECTS)
        assert no_restriction_check(completed).holds
        again = complete(completed, FIX_EFFECTS)
        assert set(again.state_vectors) == set(completed.state_vectors)


def test_dimension_cap(monkeypatch):
    monkeypatch.setenv("GPTLAB_MAX_DIM", "3")
    with pytest.raises(InputError):
        build_gpt(
            dim=4,
            unit=(1, 1, 1, 1),
            effects=[("e", (1, 0, 0, 0))],
            states=[("p", (1, 0, 0, 0))],
            claims_no_restriction=False,
        )
    monkeypatch.setenv("GPTLAB_MAX_DIM", "12")
    g = catalog.get("spekkens_toy")
    assert g.dim == 4


@pytest.mark.parametrize("side", ["effects", "states"])
@pytest.mark.parametrize("label", ["", " \t"])
def test_empty_generator_label_rejected(side, label):
    named = {"effects": [("e", (1, 0)), ("f", (0, 1))], "states": [("p", (1, 0)), ("q", (0, 1))]}
    named[side] = [(label, (1, 0))] + named[side][1:]
    with pytest.raises(InputError, match=f"{side[:-1]} label must not be empty"):
        build_gpt(dim=2, unit=(1, 1), claims_no_restriction=True, **named)


@pytest.mark.parametrize("label", ["", "   "])
def test_empty_bonus_label_rejected(label):
    with pytest.raises(InputError, match="bonus label must not be empty"):
        BonusElement("effect", label, (1, 0))


def test_max_state_points_cached_consistency(theories):
    reb = theories["rebit"]
    points = max_state_points(reb)
    assert len(points) == 4
    for p in points:
        assert inner(reb.unit, p) == 1
