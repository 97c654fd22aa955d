"""Classifying a single bonus measurement effect or preparation against a
classical (simplicial) theory.

Adding one element to a theory that must keep the no-restriction property
forces a full rebuild of the other side: a bonus effect joins the effect
cone together with its complement (a measurement must sum to the unit), and
the allowed states are recomputed as the dual slice, possibly expelling
previously valid preparations; dually for a bonus state.  The verdict
evaluates the equivalent conditions independently and audits that they
agree; when a bonus element swallows a former extreme point the conditions
can genuinely diverge, and the verdict then carries the counterexample
under its own classification instead of reconciling it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cones import cone_from_rays, member_cone
from .contextuality import (
    NonUniqueDecomposition,
    SubtheoryRejected,
    classify,
    interior_state_functional,
    nonunique_decomposition,
)
from .errors import InputError
from .linalg import Vec, format_rational, format_vec, inner, integerize, vec_scale, vec_sub
from .theory import (
    FIX_EFFECTS,
    FIX_STATES,
    BonusElement,
    Gpt,
    closed_theory,
    effect_cone,
    in_effect_set,
    in_state_set,
    nonrefinable_effects,
    pure_states,
    reduce_named,
    require_valid,
    state_cone,
)

CLASSICAL = "classical"
NONCLASSICAL = "nonclassical"
DIMENSION_RAISING = "dimension-raising"
DIVERGENT = "divergent"


@dataclass(frozen=True)
class ConditionReport:
    condition: str  # "i" | "ii" | "iii" | "iv"
    holds: bool
    detail: str


@dataclass(frozen=True)
class ExtensionOutcome:
    theory: Gpt
    expelled: tuple[tuple[str, Vec], ...]  # old generators no longer valid
    warnings: tuple[str, ...]


@dataclass(frozen=True)
class ResourceVerdict:
    classification: str
    extended: Gpt | None
    conditions: tuple[ConditionReport, ...]
    expelled: tuple[tuple[str, Vec], ...]
    warnings: tuple[str, ...]
    witness: NonUniqueDecomposition | None  # the overcompletion dependence, if any


def _require_classical_host(g: Gpt) -> None:
    """One `classify` call: it validates g and checks no-restriction."""
    try:
        noncontextual = classify(g).noncontextual
    except SubtheoryRejected:
        raise InputError(
            "the host theory must satisfy the no-restriction property before "
            "a bonus element can be classified"
        ) from None
    if not noncontextual:
        raise InputError(
            "the host theory is already ontologically contextual; bonus "
            "classification presumes a classical (simplicial) free theory"
        )


def extend_theory(g: Gpt, b: BonusElement) -> ExtensionOutcome:
    """The minimal no-restriction theory containing g's kept side plus b.

    For a bonus effect the new effect cone is generated by the old effects,
    b and unit - b (the rest of b's measurement); states are recomputed as
    the dual slice.  For a bonus state the state cone gains b and the
    effects are recomputed.  Both are `theory.closed_theory` of the grown
    side, the closure `theory.complete` also uses; the grown side keeps its
    labels in ray order.  Old generators invalidated by the new element are
    reported as expelled, with no guess at their operational fate.
    """
    _require_classical_host(g)
    if len(b.vector) != g.dim:
        raise InputError(
            f"bonus element {b.label!r} has dimension {len(b.vector)}, theory has {g.dim}; "
            "classification of dimension-raising elements is reported, not computed"
        )
    if b.kind == "effect":
        mode, fixed, other = FIX_EFFECTS, g.effects(), g.states()
        grown = [(b.label, b.vector), (f"{b.label}_c", vec_sub(g.unit, b.vector))]
    elif b.kind == "state":
        if inner(g.unit, b.vector) != 1:
            raise InputError(
                f"bonus state {b.label!r} is not normalised: <unit, b> = "
                f"{inner(g.unit, b.vector)}"
            )
        mode, fixed, other = FIX_STATES, g.states(), g.effects()
        grown = [(b.label, b.vector)]
    else:
        raise InputError(f"bonus element kind must be 'effect' or 'state', got {b.kind!r}")
    clash = [label for label, _ in grown if label in dict(fixed)]
    if clash:
        raise InputError(f"bonus label {clash[0]!r} is already the label of a stored {b.kind}")
    raw = list(fixed) + grown
    cone = cone_from_rays([v for _, v in raw], g.dim)
    kept = reduce_named(raw, cone.rays)
    name = f"{g.name}+{b.label}" if g.name else f"extended+{b.label}"
    extended = closed_theory(g, mode, cone, kept, name)
    if not extended.state_vectors:
        # only a bonus effect can empty the states: a state x would need
        # <-unit, x> >= 0 and <unit, x> = 1 at once
        evidence = member_cone(vec_scale(-1, g.unit), cone.rays)
        terms = " + ".join(
            f"{format_rational(c)} * {format_vec(r)}"
            for c, r in zip(evidence.coefficients, cone.rays)
            if c != 0
        )
        raise InputError(
            f"bonus effect {b.label!r} empties the state set; evidence: -unit = {terms}"
        )
    expelled = tuple((label, v) for label, v in other if not (0 <= inner(b.vector, v) <= 1))

    # closed_theory asserts no-restriction, so validation also checks duality
    require_valid(extended)
    warnings = ()
    if expelled:
        warnings = (
            "previously valid generators were expelled by the bonus element: "
            + ", ".join(label for label, _ in expelled),
        )
    return ExtensionOutcome(theory=extended, expelled=expelled, warnings=warnings)


def classify_bonus(g: Gpt, b: BonusElement) -> ResourceVerdict:
    """Evaluate the four equivalent classicality conditions independently.

    (i) the extension is ontologically contextual; (ii) b is a nonclassical
    resource, definitionally identical to (i) and recorded as such;
    (iii) the extended theory's nonrefinable family (pure states, for a
    bonus preparation) is nonconvexly overcomplete, detected by the
    negative-dependence search; (iv) b lies in the host's span but outside
    its effect (state) set.  Nonclassical iff they hold, classical iff all
    fail.  A divergence, possible when the bonus element swallows a former
    extreme point, yields the 'divergent' classification carrying the full
    counterexample; it is reported, never reconciled.
    """
    _require_classical_host(g)
    if len(b.vector) != g.dim:
        report = ConditionReport(
            "iv",
            False,
            f"bonus vector has dimension {len(b.vector)} != {g.dim}: it lies outside "
            "the host's space, so the classification theorem's premise fails",
        )
        return ResourceVerdict(
            classification=DIMENSION_RAISING,
            extended=None,
            conditions=(report,),
            expelled=(),
            warnings=(
                "the extended theory lives in a strictly larger space; "
                "simpliciality classification does not transfer",
            ),
            witness=None,
        )

    outcome = extend_theory(g, b)
    extended = outcome.theory
    warnings = list(outcome.warnings)

    if b.kind == "effect":
        cone = effect_cone(extended)
        family = nonrefinable_effects(extended)
        normalizer = interior_state_functional(extended)
        inside = in_effect_set(g, b.vector)
        side_name = "effect set"
    else:
        cone = state_cone(extended)
        family = pure_states(extended)
        normalizer = g.unit
        inside = in_state_set(g, b.vector)
        side_name = "state set"

    # premise check: the bonus measurement is nonrefinable iff its effect
    # sits on an extreme ray of the extended cone (dually for states)
    if integerize(b.vector) not in cone.rays:
        warnings.append(
            f"bonus {b.kind} {b.label!r} is not extremal in the extended theory: "
            "the single-nonrefinable-element premise is unmet; conditions are "
            "still evaluated"
        )

    verdict_ext = classify(extended)
    cond_i = ConditionReport(
        "i",
        not verdict_ext.noncontextual,
        "extended theory is ontologically "
        + ("contextual" if not verdict_ext.noncontextual else "noncontextual"),
    )
    cond_ii = ConditionReport(
        "ii",
        cond_i.holds,
        "recorded as definitionally identical to (i): a nonclassical resource is "
        "one whose extension is ontologically contextual",
    )

    witness = nonunique_decomposition(family, normalizer)
    cond_iii = ConditionReport(
        "iii",
        witness is not None,
        "the extended nonrefinable family "
        + (
            "is nonconvexly overcomplete"
            if witness is not None
            else "carries no negative-coefficient dependence"
        ),
    )
    cond_iv = ConditionReport(
        "iv",
        not inside,
        "bonus element lies in the host's span and is "
        + ("outside" if not inside else "inside")
        + f" the host's {side_name}",
    )

    answers = {cond_i.holds, cond_iii.holds, cond_iv.holds}
    if len(answers) != 1:
        warnings.append(
            "equivalence audit failed: conditions diverge "
            f"(i={cond_i.holds}, iii={cond_iii.holds}, iv={cond_iv.holds}); "
            "counterexample retained, not reconciled"
        )
        classification = DIVERGENT
    else:
        classification = NONCLASSICAL if cond_i.holds else CLASSICAL
    return ResourceVerdict(
        classification=classification,
        extended=extended,
        conditions=(cond_i, cond_ii, cond_iii, cond_iv),
        expelled=outcome.expelled,
        warnings=tuple(warnings),
        witness=witness,
    )
