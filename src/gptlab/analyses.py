"""Report builders: one per CLI command, shared by the library surface.

Each builder runs the relevant decision procedures, lays the results out in
deterministic section order, and attaches the re-verification closures for
every certificate it embeds (membership witnesses, models, decomposition
witnesses, infeasibility vectors).  Reports are byte-stable: everything is
sorted canonically and no ambient state enters.
"""

from __future__ import annotations

from .cones import MembershipCertificate, member_cone
from .contextuality import (
    OntModel,
    classify,
    decomposition_witness,
    embed_exact_dim,
    embed_lp,
    indistinguishability_witness,
    model_dimension_bound,
    verify_ncom,
)
from .errors import InputError, InternalCheckError
from .linalg import format_vec, inner, integerize
from .report import Report, labelled_coeffs, table_from_rows, vector_list
from .resources import classify_bonus
from .theory import (
    FIX_EFFECTS,
    BonusElement,
    Gpt,
    complete,
    effect_cone,
    max_effect_rays,
    max_state_points,
    min_model_dimension,
    no_restriction_check,
    state_cone,
    theory_table,
    validate,
)

_RESTRICTED_STATE_NOTE = (
    "state generators are interpreted up to convex closure; a theory that "
    "forbids some mixtures of its pure states is analysed through its hull"
)


def _open_report(title: str, g: Gpt) -> tuple[Report, bool]:
    """A report opened with the theory and validation sections, and whether
    g is valid: a builder stops at an invalid theory."""
    report = Report(title=title)
    s = report.section("theory")
    s.add("name", g.name or "<anonymous>")
    s.add("dimension", g.dim)
    s.add("unit", g.unit)
    s.add("effect generators", ", ".join(g.effect_names))
    s.add("state generators", ", ".join(g.state_names))
    s.add("asserts no-restriction", g.claims_no_restriction)
    if not g.claims_no_restriction:
        s.note(_RESTRICTED_STATE_NOTE)
    rep = validate(g)
    s = report.section("validation")
    s.add("consistent", rep.ok)
    for v in rep.violations:
        s.add(v.code, v.message)
    return report, rep.ok


def _verdict(noncontextual: bool) -> str:
    return "ontologically noncontextual" if noncontextual else "ontologically contextual"


def _finite_model(lp_result) -> str:
    """Whether `embed_lp` found a model, in the words both reports use."""
    if lp_result.found:
        return f"model with {lp_result.model.ontic_size} ontic points exists"
    return "no model of any finite size"


def _no_restriction_section(report: Report, g: Gpt):
    """Each witness is checked by a facet of the stored cone that separates
    it over the stored generators, which suffices: every point outside a
    polyhedral cone violates one of its facets (Fukuda & Prodon 1996)."""
    check = no_restriction_check(g)
    s = report.section("no_restriction")
    s.add("holds", check.holds)
    s.add("maximal state extreme points", vector_list(max_state_points(g)))
    for side, witnesses, cone, generators, where in (
        ("state", check.state_witnesses, state_cone(g), g.state_vectors, "stored state set"),
        ("effect", check.effect_witnesses, effect_cone(g), g.effect_vectors, "stored effect cone"),
    ):
        if witnesses:
            s.add(f"missing {side}s", vector_list(witnesses))
        for w in witnesses:
            report.add_check(
                f"{side} witness {format_vec(w)} lies outside the {where}",
                lambda w=w, facets=cone.facets, generators=generators: any(
                    inner(n, w) < 0 and MembershipCertificate(False, None, n).verify(w, generators)
                    for n in facets
                ),
            )
    return check


def _no_restriction_by_stored(g: Gpt) -> bool:
    """Every maximal state point is a stored state and every maximal effect
    ray a stored effect's canonical ray, each a one-term expansion, so a
    pass proves no-restriction.  For a valid g, whose stored hull lies in
    the maximal set, no-restriction forces both, so the converse holds."""
    effects = {integerize(e) for e in g.effect_vectors}
    return set(max_state_points(g)) <= set(g.state_vectors) and set(max_effect_rays(g)) <= effects


def _classification_section(report: Report, g: Gpt, heading: str = "classification"):
    verdict = classify(g)
    s = report.section(heading)
    s.add("pure states", ", ".join(verdict.pure_state_labels))
    s.add("nonrefinable effects", ", ".join(verdict.nonrefinable_labels))
    s.add("pure states simplicial", verdict.states_simplicial)
    s.add("nonrefinable effects simplicial", verdict.effects_simplicial)
    s.add("verdict", _verdict(verdict.noncontextual))
    if verdict.noncontextual:
        _model_entries(report, s, g, verdict.model, "point-mass model")
    else:
        s.add("witness side", verdict.witness_side)
        _witness_entries(report, s, verdict.witness)
    return verdict


def _witness_entries(report: Report, s, witness) -> None:
    s.add("witness point", witness.point)
    s.add("dependent generator", witness.dependent_label)
    s.add("affine expansion", labelled_coeffs(witness.expansion))
    s.add("decomposition 1", labelled_coeffs(witness.decomposition_1))
    s.add("decomposition 2", labelled_coeffs(witness.decomposition_2))
    report.add_check(
        f"decomposition witness at {format_vec(witness.point)} re-verifies",
        witness.verify,
    )


def _model_entries(report: Report, s, g: Gpt, model: OntModel, label: str) -> None:
    s.add(f"{label} ontic size", model.ontic_size)
    s.add(f"{label} state frame", vector_list(model.state_frame))
    s.add(f"{label} effect frame", vector_list(model.effect_frame))
    report.add_check(
        f"{label} passes all model conditions",
        lambda: verify_ncom(model, g).ok,
    )


def _statistics_section(report: Report, g: Gpt) -> None:
    table = theory_table(g)
    s = report.section("statistics")
    s.tables.append(
        table_from_rows("probability table", table.row_labels, table.col_labels, table.entries)
    )
    s.add("table rank", min_model_dimension(table))
    report.add_check(
        "probability table re-verifies entry by entry",
        lambda: all(
            table.entries[i][j] == inner(e, st)
            for i, (_, st) in enumerate(g.states())
            for j, (_, e) in enumerate(g.effects())
        ),
    )


def _same_dimension_section(report: Report, g: Gpt):
    exact = embed_exact_dim(g)
    s = report.section("embedding_same_dimension")
    s.add("sought ontic size", g.dim)
    s.add("candidates explored", exact.explored)
    s.add("model found", exact.found)
    if exact.found:
        _model_entries(report, s, g, exact.model, "model")
    else:
        s.note(exact.caveat)
    return s, exact


def _lp_section(report: Report, g: Gpt):
    lp_result = embed_lp(g)
    s = report.section("embedding_lp")
    s.add("model found", lp_result.found)
    if lp_result.found:
        _model_entries(report, s, g, lp_result.model, "model")
    else:
        s.add("infeasibility certificate", vector_list(lp_result.farkas))
        report.add_check(
            "embedding infeasibility certificate re-verifies",
            lp_result.verify_farkas,
        )
    return lp_result


def _indistinguishability_section(report: Report, g: Gpt, model: OntModel | None) -> None:
    s = report.section("indistinguishability")
    if model is None:
        s.add("applicable", "no (no finite model exists)")
        return
    witness = indistinguishability_witness(g, model)
    if witness is None:
        s.add("applicable", "no (ontic size equals dimension)")
        return
    s.add("distribution 1", witness.first)
    s.add("distribution 2", witness.second)
    s.add("unresolvable ontic direction", witness.null_direction)
    for label, p in witness.statistics:
        s.add(f"shared statistics on {label}", p)
    s.note(
        "two distinct ontic distributions reproduce identical statistics on "
        "every allowed effect: the model depends on more than the equivalence "
        "classes of preparations"
    )
    report.add_check(
        "indistinguishable distribution pair re-verifies",
        lambda: witness.verify(g, model),
    )


def analyze_report(g: Gpt) -> Report:
    report, ok = _open_report(f"analysis of {g.name or 'theory'}", g)
    if not ok:
        return report
    check = _no_restriction_section(report, g)
    _statistics_section(report, g)

    if check.holds:
        _classification_section(report, g)
    else:
        completion = complete(g, FIX_EFFECTS)
        cs = report.section("completion")
        cs.add("mode", FIX_EFFECTS)
        cs.add("completed state extreme points", vector_list(completion.state_vectors))
        # the completed states are the extreme points of the maximal state set, which spans
        cs.add("completion simplicial", len(completion.state_vectors) == g.dim)
        _classification_section(report, completion, heading="completion_classification")
    s, exact = _same_dimension_section(report, g)
    bound = model_dimension_bound(g)
    s.add("table rank bound", bound)
    lp_result = _lp_section(report, g)
    if lp_result.found and lp_result.model.ontic_size < bound:
        raise InternalCheckError("model undercuts the table rank bound")

    _indistinguishability_section(report, g, lp_result.model)

    conclusion = report.section("conclusion")
    conclusion.add("theory verdict", _verdict(exact.found))
    if not check.holds:
        conclusion.add(
            "reason",
            "a same-dimension model exists: the theory restricts a "
            "simplicial theory of equal dimension"
            if exact.found
            else "no same-dimension model in the candidate class; any model "
            "needs more ontic points than dimensions and then violates "
            "preparation noncontextuality (see indistinguishability)",
        )
        conclusion.add("unbounded-cardinality embedding", _finite_model(lp_result))
    return report


def table_report(g: Gpt) -> Report:
    report, ok = _open_report(f"probability table of {g.name or 'theory'}", g)
    if not ok:
        return report
    _statistics_section(report, g)
    return report


def complete_report(g: Gpt, mode: str) -> Report:
    report, ok = _open_report(f"completion of {g.name or 'theory'} ({mode})", g)
    if not ok:
        return report
    completion = complete(g, mode)
    s = report.section("completion")
    s.add("mode", mode)
    s.add("effect generators", vector_list(completion.effect_vectors))
    s.add("state generators", vector_list(completion.state_vectors))
    s.add("no-restriction holds on result", no_restriction_check(completion).holds)
    for label, v in g.states():
        report.add_check(
            f"original state {label} is contained in the completed state set",
            lambda v=v: member_cone(v, completion.state_vectors).inside,
        )
    return report


def embed_report(g: Gpt, exact_dim: bool) -> Report:
    kind = "same-dimension" if exact_dim else "unbounded-cardinality"
    report, ok = _open_report(f"{kind} embedding of {g.name or 'theory'}", g)
    if not ok:
        return report
    if exact_dim:
        s, result = _same_dimension_section(report, g)
        if not result.found:
            s.add("unbounded-cardinality comparison", _finite_model(embed_lp(g)))
            s.add("table rank bound", model_dimension_bound(g))
    else:
        _lp_section(report, g)
    return report


def witness_report(g: Gpt, kind: str) -> Report:
    report, ok = _open_report(f"{kind} witness for {g.name or 'theory'}", g)
    if not ok:
        return report
    if kind == "lemma2":
        s = report.section("nonunique_decomposition")
        found = decomposition_witness(g)
        if found is None:
            s.add("witness", "none: both extremal families have unique decompositions")
            return report
        side, witness = found
        s.add("side", side)
        _witness_entries(report, s, witness)
        if not g.claims_no_restriction:
            s.note(
                "for a restricted theory a non-unique decomposition alone does "
                "not settle contextuality; see the same-dimension embedding"
            )
        return report
    if kind == "indistinguishable":
        lp_result = embed_lp(g)
        _indistinguishability_section(report, g, lp_result.model)
        return report
    raise InputError(f"unknown witness kind {kind!r}")


def resource_report(g: Gpt, b: BonusElement) -> Report:
    title = f"resource classification of {b.label} against {g.name or 'theory'}"
    report, ok = _open_report(title, g)
    if not ok:
        return report
    verdict = classify_bonus(g, b)
    s = report.section("resource")
    s.add("bonus kind", b.kind)
    s.add("bonus vector", b.vector)
    s.add("classification", verdict.classification)
    for c in verdict.conditions:
        s.add(f"condition ({c.condition})", f"{'holds' if c.holds else 'fails'}: {c.detail}")
    if verdict.extended is not None:
        s.add("extended effect generators", vector_list(verdict.extended.effect_vectors))
        s.add("extended state generators", vector_list(verdict.extended.state_vectors))
        report.add_check(
            "extended theory satisfies the no-restriction property",
            lambda: _no_restriction_by_stored(verdict.extended),
        )
    if verdict.expelled:
        s.add("expelled generators", ", ".join(label for label, _ in verdict.expelled))
        s.note(
            "expelled generators are reported as data; their operational "
            "status in the extended theory is not decided here"
        )
    for w in verdict.warnings:
        s.note(w)
    if verdict.witness is not None:
        _witness_entries(report, s, verdict.witness)
    return report
