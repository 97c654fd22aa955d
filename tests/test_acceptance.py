"""Acceptance gate: every criterion as one test, exact comparisons only.

Each test prints a single PASS line once its assertions have gone through;
a failing criterion surfaces as the corresponding FAILED test.  Run with
`pytest tests/test_acceptance.py -s` to see the lines as they print.
"""

from fractions import Fraction
from random import Random


from gptlab import catalog
from gptlab.cones import cone_from_rays, dual_cone, member_cone
from gptlab.contextuality import (
    classify,
    embed_exact_dim,
    embed_lp,
    indistinguishability_witness,
    model_dimension_bound,
    nonunique_decomposition,
    verify_ncom,
)
from gptlab.linalg import (
    identity,
    inner,
    integerize,
    outer,
    vec,
    vec_scale,
    vec_sum,
    zeros,
)
from gptlab.resources import CLASSICAL, DIMENSION_RAISING, NONCLASSICAL, classify_bonus
from gptlab.theory import (
    FIX_EFFECTS,
    BonusElement,
    complete,
    min_model_dimension,
    no_restriction_check,
    probability_table,
    theory_table,
)

from helpers import (
    mat_add,
    random_pair_subgpt,
    random_pointed_cone_rays,
    random_subgpt,
    state_distribution,
)

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)

T_SPEKKENS = tuple(
    tuple(Fraction(x) for x in row)
    for row in (
        (1, 0, HALF, HALF, HALF, HALF),
        (0, 1, HALF, HALF, HALF, HALF),
        (HALF, HALF, 1, 0, HALF, HALF),
        (HALF, HALF, 0, 1, HALF, HALF),
        (HALF, HALF, HALF, HALF, 1, 0),
        (HALF, HALF, HALF, HALF, 0, 1),
    )
)

T_REBIT = tuple(
    tuple(Fraction(x) for x in row)
    for row in (
        (1, 0, HALF, HALF),
        (0, 1, HALF, HALF),
        (HALF, HALF, 1, 0),
        (HALF, HALF, 0, 1),
    )
)

T_MM_ROW = (HALF, HALF, HALF, HALF)

SQUARE = (
    vec(HALF, HALF, HALF),
    vec(-HALF, HALF, HALF),
    vec(HALF, -HALF, HALF),
    vec(-HALF, -HALF, HALF),
)


def _ok(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_1_table_reproduction():
    toy = catalog.get("spekkens_toy")
    table = theory_table(toy)
    assert table.entries == T_SPEKKENS
    assert all(x in (0, HALF, 1) for row in table.entries for x in row)

    rebit = catalog.get("rebit")
    assert theory_table(rebit).entries == T_REBIT

    mm = probability_table([("mm", vec(0, 0, HALF))], rebit.effects())
    assert mm.entries[0] == T_MM_ROW
    _ok(1, "bundled generators reproduce both tables and the mixed row exactly")


def test_criterion_2_ranks_and_bounds():
    toy_table = theory_table(catalog.get("spekkens_toy"))
    rebit_table = theory_table(catalog.get("rebit"))
    assert min_model_dimension(toy_table) == 4
    assert min_model_dimension(rebit_table) == 3
    _ok(2, "table ranks are 4 and 3 and bound the model dimensions")


def test_criterion_3_duality():
    rebit = catalog.get("rebit")
    dual = dual_cone(cone_from_rays(rebit.effect_vectors, 3))
    expected = {integerize(vec_scale(2, s)) for s in SQUARE}
    assert set(dual.rays) == expected
    _ok(3, "extreme rays of the dual effect cone are the four square states")


def test_criterion_4_simpliciality_classification():
    container = catalog.get("spekkens_container")
    verdict = classify(container)
    assert verdict.noncontextual
    assert set(verdict.model.effect_frame) == set(container.effect_vectors)
    assert set(verdict.model.state_frame) == set(container.state_vectors)
    assert verify_ncom(verdict.model, container).ok

    completion = catalog.get("rebit_completion")
    verdict2 = classify(completion)
    assert not verdict2.noncontextual
    assert verdict2.witness is not None and verdict2.witness.verify()
    _ok(4, "container classical with its point-mass model; completion contextual with verified witness")


def test_criterion_5_same_dimension_embedding_positive():
    toy = catalog.get("spekkens_toy")
    result = embed_exact_dim(toy)
    assert result.found
    model = result.model
    assert model.ontic_size == 4
    report = verify_ncom(model, toy)
    assert report.ok
    # exact statistics: the model reproduces the 6x6 table entry by entry
    for i, (_, s) in enumerate(toy.states()):
        dist = state_distribution(model, s)
        for j, (_, e) in enumerate(toy.effects()):
            resp = model.response_function(e)
            value = sum((a * b for a, b in zip(dist, resp)), Fraction(0))
            assert value == T_SPEKKENS[i][j]
    _ok(5, "toy theory embeds at its own dimension and reproduces its table")


def test_criterion_6_same_dimension_embedding_negative():
    rebit = catalog.get("rebit")
    exact = embed_exact_dim(rebit)
    assert not exact.found
    # the restricted candidate class is exhausted: all 3-subsets of the four
    # effect-side rays plus all 3-subsets of the four state-side points
    assert exact.explored == 8
    assert exact.caveat  # the verdict is labelled as class-relative

    lp_result = embed_lp(rebit)
    assert lp_result.found
    model = lp_result.model
    assert model.ontic_size == 4
    assert set(model.state_frame) == set(SQUARE)
    assert set(model.effect_frame) == set(SQUARE)
    recon = tuple(zeros(3) for _ in range(3))
    for d, f in zip(model.state_frame, model.effect_frame):
        recon = mat_add(recon, outer(d, f))
    assert recon == identity(3)
    for i, (_, s) in enumerate(rebit.states()):
        dist = state_distribution(model, s)
        for j, (_, e) in enumerate(rebit.effects()):
            resp = model.response_function(e)
            value = sum((a * b for a, b in zip(dist, resp)), Fraction(0))
            assert value == T_REBIT[i][j]

    # the analyze pipeline juxtaposes both verdicts in one report
    from gptlab.analyses import analyze_report

    report = analyze_report(rebit)
    names = [s.name for s in report.sections]
    assert "embedding_same_dimension" in names and "embedding_lp" in names
    _ok(6, "no same-dimension model for the rebit; the four-point square model verifies")


def test_criterion_7_indistinguishability_witness():
    rebit = catalog.get("rebit")
    model = embed_lp(rebit).model
    witness = indistinguishability_witness(rebit, model)
    assert witness is not None
    assert witness.first == (HALF, 0, 0, HALF)
    assert witness.second == (QUARTER, QUARTER, QUARTER, QUARTER)
    diff = tuple(a - b for a, b in zip(witness.first, witness.second))
    assert integerize(diff) == vec(1, -1, -1, 1)
    for dist in (witness.first, witness.second):
        for j, (_, e) in enumerate(rebit.effects()):
            resp = model.response_function(e)
            value = sum((a * b for a, b in zip(dist, resp)), Fraction(0))
            assert value == T_MM_ROW[j]
    _ok(7, "the two ontic distributions agree with the mixed row on all four effects")


def test_criterion_8_decomposition_witness():
    named = list(zip(("s5", "s6", "s7", "s8"), SQUARE))
    witness = nonunique_decomposition(named, vec(0, 0, 2))
    assert witness is not None
    assert witness.point == vec(0, 0, HALF)
    assert dict(witness.decomposition_1) == {"s5": HALF, "s8": HALF}
    assert dict(witness.decomposition_2) == {"s6": HALF, "s7": HALF}
    assert witness.verify()
    _ok(8, "witness point (0, 0, 1/2) with the two exact decompositions")


def test_criterion_9_resource_classification():
    trit = catalog.get("classical_trit")

    classical = classify_bonus(trit, BonusElement("effect", "b", vec(HALF, HALF, HALF)))
    assert classical.classification == CLASSICAL
    assert [c.holds for c in classical.conditions] == [False] * 4

    nonclassical = classify_bonus(
        trit, BonusElement("effect", "b", vec(Fraction(3, 2), 0, -HALF))
    )
    assert nonclassical.classification == NONCLASSICAL
    held = {c.condition: c.holds for c in nonclassical.conditions}
    assert held["i"] and held["iii"] and held["iv"]

    raising = classify_bonus(
        catalog.get("classical_bit"), BonusElement("effect", "b", vec(1, 0, 0))
    )
    assert raising.classification == DIMENSION_RAISING
    _ok(9, "classical, nonclassical and dimension-raising bonus elements classified")


def test_criterion_10_property_suites():
    cases = 0
    rng = Random(20260810)

    # duality involution on pointed full-dimensional cones up to dim 6
    for _ in range(340):
        dim = rng.randint(2, 6)
        c = cone_from_rays(random_pointed_cone_rays(rng, dim), dim)
        back = dual_cone(dual_cone(c))
        assert set(back.rays) == set(c.rays)
        cases += 1

    # membership-certificate soundness, both verdict branches
    inside_seen = outside_seen = 0
    for _ in range(340):
        dim = rng.randint(2, 6)
        c = cone_from_rays(random_pointed_cone_rays(rng, dim), dim)
        q = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(dim))
        cert = member_cone(q, c.rays)
        assert cert.verify(q, c.rays)
        inside_seen += cert.inside
        outside_seen += not cert.inside
        cases += 1
    assert inside_seen and outside_seen

    # probability bilinearity over convex mixtures
    for _ in range(240):
        dim = rng.randint(2, 6)
        e = tuple(Fraction(rng.randint(-4, 4), 2) for _ in range(dim))
        s1 = tuple(Fraction(rng.randint(-4, 4), 2) for _ in range(dim))
        s2 = tuple(Fraction(rng.randint(-4, 4), 2) for _ in range(dim))
        p = Fraction(rng.randint(0, 8), 8)
        mix = vec_sum([vec_scale(p, s1), vec_scale(1 - p, s2)])
        assert inner(e, mix) == p * inner(e, s1) + (1 - p) * inner(e, s2)
        cases += 1

    # completion idempotence on random restricted theories
    for _ in range(50):
        dim = rng.randint(2, 4)
        g = random_subgpt(rng, dim) if rng.random() < 0.5 else random_pair_subgpt(rng, dim)
        once = complete(g, FIX_EFFECTS)
        twice = complete(once, FIX_EFFECTS)
        assert set(once.state_vectors) == set(twice.state_vectors)
        assert no_restriction_check(once).holds
        cases += 1

    # every returned model verifies; ontic size respects the rank bound
    for _ in range(40):
        dim = rng.randint(2, 3)
        g = random_subgpt(rng, dim)
        result = embed_lp(g)
        assert result.found
        assert verify_ncom(result.model, g).ok
        assert result.model.ontic_size >= model_dimension_bound(g)
        cases += 1

    assert cases >= 1000
    _ok(10, f"property suites passed with zero failures over {cases} generated cases")
