import re
from dataclasses import replace
from fractions import Fraction
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptlab import catalog
from gptlab.analyses import _no_restriction_by_stored, resource_report
from gptlab.cones import cones_equal
from gptlab.errors import InputError, InternalCheckError
from gptlab.linalg import inner, vec, vec_sub
from gptlab.report import render_structured
from gptlab.resources import (
    CLASSICAL,
    DIMENSION_RAISING,
    DIVERGENT,
    NONCLASSICAL,
    classify_bonus,
    extend_theory,
)
from gptlab.theory import (
    FIX_EFFECTS,
    FIX_STATES,
    BonusElement,
    build_gpt,
    complete,
    effect_cone,
    no_restriction_check,
    state_cone,
    validate,
)

from helpers import check_scope_cones, reference_no_restriction_by_lp


@pytest.fixture(scope="module")
def trit():
    return catalog.get("classical_trit")


def test_interior_effect_is_classical(trit):
    verdict = classify_bonus(trit, BonusElement("effect", "b", vec("1/2", "1/2", "1/2")))
    assert verdict.classification == CLASSICAL
    assert [c.holds for c in verdict.conditions] == [False, False, False, False]
    assert not verdict.expelled


def test_interior_effect_extension_is_fixed_point(trit):
    outcome = extend_theory(trit, BonusElement("effect", "b", vec("1/2", "1/2", "1/2")))
    assert cones_equal(effect_cone(outcome.theory), effect_cone(trit))
    assert cones_equal(state_cone(outcome.theory), state_cone(trit))


def test_tilted_effect_is_nonclassical(trit):
    verdict = classify_bonus(trit, BonusElement("effect", "b", vec("3/2", 0, "-1/2")))
    assert verdict.classification == NONCLASSICAL
    assert [c.holds for c in verdict.conditions] == [True, True, True, True]
    # the state simplex is truncated by 0 <= <b, x> <= 1: four pure states
    assert len(verdict.extended.state_vectors) == 4
    assert set(verdict.extended.state_vectors) == {
        vec(0, 1, 0),
        vec("2/3", "1/3", 0),
        vec("3/4", 0, "1/4"),
        vec("1/4", 0, "3/4"),
    }
    assert {l for l, _ in verdict.expelled} == {"p1", "p3"}
    assert verdict.witness is not None and verdict.witness.verify()


def test_out_of_span_effect_is_dimension_raising():
    bit = catalog.get("classical_bit")
    verdict = classify_bonus(bit, BonusElement("effect", "b", vec(1, 0, 0)))
    assert verdict.classification == DIMENSION_RAISING
    assert verdict.extended is None


def test_extension_validates_and_stays_dual(trit):
    for b in (
        BonusElement("effect", "b", vec("3/2", 0, "-1/2")),
        BonusElement("effect", "b", vec("1/2", "1/4", 0)),
        BonusElement("state", "r", vec("2/3", "1/3", 0)),
    ):
        outcome = extend_theory(trit, b)
        assert validate(outcome.theory).ok
        assert no_restriction_check(outcome.theory).holds


def test_bonus_state_classifications(trit):
    inside = classify_bonus(trit, BonusElement("state", "r", vec("2/3", "1/3", 0)))
    assert inside.classification == CLASSICAL
    outside = classify_bonus(trit, BonusElement("state", "r", vec("1/2", "5/6", "-1/3")))
    assert outside.classification == NONCLASSICAL
    assert [c.holds for c in outside.conditions] == [True, True, True, True]
    assert {l for l, _ in outside.expelled} == {"e3"}


def test_swallowing_state_reports_divergence(trit):
    # (4/3, -1/3, 0) absorbs the first simplex vertex: the extension is a
    # larger simplex, still classical, although the state is new - the
    # equivalence audit flags this rather than reconciling it
    verdict = classify_bonus(trit, BonusElement("state", "r", vec("4/3", "-1/3", 0)))
    assert verdict.classification == DIVERGENT
    held = {c.condition: c.holds for c in verdict.conditions}
    assert held["i"] is False and held["iv"] is True
    assert any("diverge" in w for w in verdict.warnings)


def test_refinable_bonus_warns_but_classifies(trit):
    # an interior (refinable) element breaks the nonrefinability premise
    verdict = classify_bonus(trit, BonusElement("effect", "b", vec("1/2", "1/2", "1/2")))
    assert any("premise is unmet" in w for w in verdict.warnings)
    assert verdict.classification == CLASSICAL


def test_emptying_bonus_rejected(trit):
    # an effect that is negative on the whole simplex leaves no states; the
    # message expands -unit over the extended effect cone's rays
    with pytest.raises(InputError) as info:
        extend_theory(trit, BonusElement("effect", "b", vec(-1, -1, -1)))
    _, _, expansion = str(info.value).partition("evidence: -unit = ")
    total = [Fraction(0)] * 3
    for term in expansion.split(" + "):
        coef, _, ray = term.partition(" * ")
        for i, x in enumerate(ray.strip("[]").split(", ")):
            total[i] += Fraction(coef) * Fraction(x)
    assert expansion and tuple(total) == vec(-1, -1, -1)


CONTEXTUAL_HOST = (
    "the host theory is already ontologically contextual; bonus "
    "classification presumes a classical (simplicial) free theory"
)
RESTRICTED_HOST = (
    "the host theory must satisfy the no-restriction property before "
    "a bonus element can be classified"
)


def test_classify_bonus_requires_classical_host():
    b = BonusElement("effect", "b", vec(0, 0, 1))
    for host, message in (("rebit_completion", CONTEXTUAL_HOST), ("rebit", RESTRICTED_HOST)):
        for extend in (classify_bonus, extend_theory):
            with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
                extend(catalog.get(host), b)


def test_bonus_state_requires_normalisation(trit):
    with pytest.raises(InputError):
        extend_theory(trit, BonusElement("state", "r", vec(1, 1, 0)))


def test_random_equivalence_audit(trit):
    # conditions agree (or the verdict is the flagged divergent case) on a
    # grid of bonus effects around the order interval
    rng = Random(13)
    for _ in range(40):
        b = tuple(Fraction(rng.randint(-4, 8), 4) for _ in range(3))
        if all(x == 0 for x in b):
            continue
        try:
            verdict = classify_bonus(trit, BonusElement("effect", "b", b))
        except InputError:
            continue  # emptied the state set
        held = [c.holds for c in verdict.conditions]
        if verdict.classification == DIVERGENT:
            assert any("diverge" in w for w in verdict.warnings)
        else:
            assert held == [held[0]] * 4


# an extension is the completion of host plus bonus: extend_theory grows one
# side and closes it, which is what complete does to the raw theory holding
# the grown side, whenever that raw theory is valid

QUARTERS = [Fraction(n, 4) for n in range(-2, 7)]  # -1/2 .. 3/2


def raw_theory(host, b):
    """host plus b, and unit - b for an effect, with no no-restriction claim."""
    effects, states = host.effects(), host.states()
    if b.kind == "effect":
        effects += ((b.label, b.vector), (f"{b.label}_c", vec_sub(host.unit, b.vector)))
    else:
        states += ((b.label, b.vector),)
    return build_gpt(host.dim, host.unit, effects, states, False, host.pvvms)


def check_extension_is_completion(host, b):
    """Compare when the raw theory validates; returns whether it did."""
    raw = raw_theory(host, b)
    if not validate(raw).ok:
        return False
    extended = extend_theory(host, b).theory
    completed = complete(raw, FIX_EFFECTS if b.kind == "effect" else FIX_STATES)
    assert sorted(extended.effect_vectors) == sorted(completed.effect_vectors)
    assert sorted(extended.state_vectors) == sorted(completed.state_vectors)
    assert set(extended.effect_names) == set(completed.effect_names)
    assert set(extended.state_names) == set(completed.state_names)
    assert extended.pvvms == completed.pvvms
    if b.kind == "effect":
        assert extended.effect_vectors == completed.effect_vectors
    return True


def grid_bonuses(host):
    """Every normalised vector with quarter-step coordinates in [-1/2, 3/2]
    but the last, once as a bonus effect and once as a bonus state."""
    for head in product(QUARTERS, repeat=host.dim - 1):
        v = head + (1 - sum(head),)
        for kind in ("effect", "state"):
            yield BonusElement(kind, "b", v)


@pytest.mark.parametrize("name", ["classical_trit", "spekkens_container"])
def test_extension_is_completion_of_host_plus_bonus_on_the_grid(name):
    host = catalog.get(name)
    checked = [check_extension_is_completion(host, b) for b in grid_bonuses(host)]
    # every bonus in the order interval (state simplex) gives a valid raw
    # theory: 15 per kind on the trit, 35 per kind on the container
    assert sum(checked) == {"classical_trit": 30, "spekkens_container": 70}[name]


COORDINATES = st.fractions(min_value=Fraction(-1, 4), max_value=Fraction(5, 4), max_denominator=6)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["effect", "state"]), st.tuples(COORDINATES, COORDINATES))
def test_extension_is_completion_of_host_plus_bonus_on_draws(kind, head):
    host = catalog.get("classical_trit")
    check_extension_is_completion(host, BonusElement(kind, "b", (*head, 1 - sum(head))))


def _without(g, side, i):
    names, vectors = getattr(g, f"{side}_names"), getattr(g, f"{side}_vectors")
    return replace(
        g,
        **{f"{side}_names": names[:i] + names[i + 1 :], f"{side}_vectors": vectors[:i] + vectors[i + 1 :]},
    )


@pytest.mark.parametrize("kind, text", [("effect", "3/2,0,-1/2"), ("state", "1/2,5/6,-1/3")])
def test_no_restriction_audit_reads_the_stored_generators(trit, kind, text):
    """The `--verify` audit holds on an extension and fails once one stored
    state or effect is dropped.  An effect is only dropped where the unit
    stays interior to the remaining effect cone: otherwise the effects bound
    no state set, and `max_state_points` rightly raises."""
    extended = extend_theory(trit, BonusElement(kind, "b", vec(*text.split(",")))).theory
    assert len(extended.state_vectors) == len(extended.effect_vectors) == 4
    assert _no_restriction_by_stored(extended)
    for i in range(4):
        assert not _no_restriction_by_stored(_without(extended, "state", i))
    bounded = [
        fewer
        for fewer in (_without(extended, "effect", i) for i in range(4))
        if all(inner(n, fewer.unit) > 0 for n in effect_cone(fewer).facets)
    ]
    assert bounded
    assert not any(_no_restriction_by_stored(fewer) for fewer in bounded)


SCAN = [Fraction(n, 4) for n in range(-4, 9)]  # -1 .. 2, a 13 x 13 grid of (t, s)


@pytest.mark.parametrize("kind", ["effect", "state"])
def test_stored_audit_agrees_with_the_lp_audit_on_the_scan_grid(trit, kind):
    """On every extension of the scan grid and every variant with one stored
    state or effect dropped (an effect only where the rest still bound a
    state set), the stored-generator audit implies the LP audit, and the
    two agree on every valid theory."""
    compared = 0
    for t, s in product(SCAN, SCAN):
        try:
            extended = extend_theory(trit, BonusElement(kind, "b", (t, s, 1 - t - s))).theory
        except InputError:
            continue
        variants = [extended]
        variants += [_without(extended, "state", i) for i in range(len(extended.state_vectors))]
        variants += [
            fewer
            for fewer in (_without(extended, "effect", i) for i in range(len(extended.effect_vectors)))
            if all(inner(n, fewer.unit) > 0 for n in effect_cone(fewer).facets)
        ]
        for g in variants:
            stored, by_lp = _no_restriction_by_stored(g), reference_no_restriction_by_lp(g)
            assert by_lp or not stored
            if validate(g).ok:
                assert stored == by_lp
            compared += 1
    assert compared


@pytest.mark.parametrize("kind", ["effect", "state"])
def test_extension_cones_equal_cold_builds_on_the_scan_grid(trit, kind):
    """`closed_theory` enters the grown cone and its dual with no double
    description; both equal cold reductions of the stored generators."""
    checked = 0
    for t, s in product(SCAN, SCAN):
        try:
            extended = extend_theory(trit, BonusElement(kind, "b", (t, s, 1 - t - s))).theory
        except InputError:
            continue
        check_scope_cones(extended)
        checked += 1
    assert checked


def test_cones_hold_ints_and_theories_fractions(trit):
    """Every cone on the scan grid's extensions (bonus effects and states),
    on each bundled theory and on both of its completions holds int entries
    only, while the theory's own vectors stay Fractions."""
    theories = [catalog.get(name) for name in catalog.bundled_names()]
    theories += [complete(g, mode) for g in list(theories) for mode in (FIX_EFFECTS, FIX_STATES)]
    for kind, t, s in product(("effect", "state"), SCAN, SCAN):
        try:
            theories.append(extend_theory(trit, BonusElement(kind, "b", (t, s, 1 - t - s))).theory)
        except InputError:
            continue
    for g in theories:
        for c in (effect_cone(g), state_cone(g)):
            assert all(type(x) is int for v in c.rays + c.facets for x in v)
        vectors = (g.unit, *g.effect_vectors, *g.state_vectors, *(b.vector for b in g.bonus))
        assert all(type(x) is Fraction for v in vectors for x in v)


def _report_outcome(host, b):
    """'ok' when the report builds and re-verifies, else the rejection."""
    try:
        resource_report(host, b).verify_all()
    except InputError as exc:
        return str(exc)
    return "ok"


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["effect", "state"]),
    st.sampled_from(SCAN),
    st.sampled_from(SCAN),
    st.sampled_from([f"{p}{i}" for p in ("e", "p", "nr") for i in (1, 2, 3)]),
)
def test_bonus_labels_taken_by_the_host_are_rejected_not_crashed_on(kind, t, s, label):
    """A bonus label that a stored generator of its side carries is an input
    error naming it; any other label gets the verdict the default one gets.
    No label reaches an internal check failure."""
    host = catalog.get("classical_trit")
    b = BonusElement(kind, label, (t, s, 1 - t - s))
    try:
        outcome = _report_outcome(host, b)
    except InternalCheckError as exc:
        pytest.fail(f"internal check failure for label {label!r}: {exc}")
    side = host.effect_names if kind == "effect" else host.state_names
    if label in side:
        assert outcome == f"bonus label {label!r} is already the label of a stored {kind}"
    else:
        assert outcome == _report_outcome(host, replace(b, label="bonus"))


def test_bonus_vector_is_converted_when_built(trit):
    """An int or "p/q" vector is converted to Fractions when the bonus is
    built, as `build_gpt` converts generators, and an inexact one is
    refused there."""
    for kind, ints, fractions in (
        ("effect", (2, 0, -1), vec(2, 0, -1)),
        ("state", (1, 0, 0), vec(1, 0, 0)),
    ):
        given_ints = render_structured(resource_report(trit, BonusElement(kind, "b", ints)))
        given_fractions = render_structured(resource_report(trit, BonusElement(kind, "b", fractions)))
        assert given_ints.splitlines() == given_fractions.splitlines()
    report = resource_report(trit, BonusElement("effect", "b", (2, 0, -1)))
    assert "resource.bonus_vector = [2, 0, -1]" in render_structured(report).splitlines()
    assert BonusElement("effect", "b", ("3/2", "0", "-1/2")).vector == vec("3/2", 0, "-1/2")
    for kind in ("effect", "state"):
        with pytest.raises(InputError, match="refusing inexact scalar 1.5"):
            BonusElement(kind, "b", (1.5, 0, -0.5))
