"""The theory data model: effect and state generator families over an
exact-rational vector space, with the bilinear probability rule.

A theory is a pair of generated convex bodies.  The state set is the convex
hull of the state generators, and the effect set is the order interval
[0, U] carved out of the conic hull of the effect generators: downward
scalings of effects are effects (accepting an outcome only when a biased
coin agrees), and every effect has a complement summing to the unit, so the
interval is the smallest closed set honouring both.

Theories that assert the no-restriction property claim that their state set
equals everything the effect set allows (and dually); `no_restriction_check`
decides that claim with explicit gap witnesses, and `complete` produces the
canonical closures that make it true.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .cones import Cone, cone_from_rays, contains, dual_cone
from .errors import DimensionMismatch, InputError, InternalCheckError, TheoryConsistencyError
from .linalg import (
    Mat,
    Scalar,
    Vec,
    format_rational,
    format_vec,
    inner,
    integerize,
    mat,
    rank,
    vec_from,
    vec_scale,
    vec_sub,
    vec_sum,
)

MAX_DIM_ENV = "GPTLAB_MAX_DIM"
DEFAULT_MAX_DIM = 10


def max_dimension() -> int:
    raw = os.environ.get(MAX_DIM_ENV, "")
    if raw.strip():
        try:
            value = int(raw)
        except ValueError:
            raise InputError(f"{MAX_DIM_ENV} must be an integer, got {raw!r}")
        if value < 1:
            raise InputError(f"{MAX_DIM_ENV} must be >= 1, got {value}")
        return value
    return DEFAULT_MAX_DIM


@dataclass(frozen=True)
class Pvvm:
    """A measurement: named effect generators summing to the unit."""

    name: str
    outcome_labels: tuple[str, ...]


@dataclass(frozen=True)
class Gpt:
    dim: int
    unit: Vec
    effect_names: tuple[str, ...]
    effect_vectors: tuple[Vec, ...]
    state_names: tuple[str, ...]
    state_vectors: tuple[Vec, ...]
    claims_no_restriction: bool
    pvvms: tuple[Pvvm, ...] = ()
    bonus: tuple["BonusElement", ...] = ()  # parsed alongside, used by resources
    name: str = ""

    def effects(self) -> tuple[tuple[str, Vec], ...]:
        return tuple(zip(self.effect_names, self.effect_vectors))

    def states(self) -> tuple[tuple[str, Vec], ...]:
        return tuple(zip(self.state_names, self.state_vectors))

    def effect(self, label: str) -> Vec:
        try:
            return self.effect_vectors[self.effect_names.index(label)]
        except ValueError:
            raise InputError(f"unknown effect label {label!r}") from None

    def state(self, label: str) -> Vec:
        try:
            return self.state_vectors[self.state_names.index(label)]
        except ValueError:
            raise InputError(f"unknown state label {label!r}") from None


@dataclass(frozen=True)
class BonusElement:
    """A single extra measurement effect or preparation to classify."""

    kind: str  # "effect" | "state"
    label: str
    vector: Vec


def build_gpt(
    dim: int,
    unit: Iterable[Scalar],
    effects: Sequence[tuple[str, Iterable[Scalar]]],
    states: Sequence[tuple[str, Iterable[Scalar]]],
    claims_no_restriction: bool,
    pvvms: Sequence[Pvvm] = (),
    bonus: Sequence[BonusElement] = (),
    name: str = "",
) -> Gpt:
    """Validate shapes and labels, returning an immutable theory value."""
    if dim < 1:
        raise InputError(f"dimension must be >= 1, got {dim}")
    cap = max_dimension()
    if dim > cap:
        raise InputError(
            f"dimension {dim} exceeds the enumeration cap {cap}; raise {MAX_DIM_ENV} to override"
        )
    unit_v = vec_from(unit)
    if len(unit_v) != dim:
        raise DimensionMismatch(dim, len(unit_v), "unit vector")
    if not effects or not states:
        raise InputError("a theory needs at least one effect and one state generator")

    def convert(kind: str, named: Sequence[tuple[str, Iterable[Scalar]]]):
        names, vectors, seen = [], [], set()
        for label, entries in named:
            if label in seen:
                raise InputError(f"duplicate {kind} label {label!r}")
            seen.add(label)
            v = vec_from(entries)
            if len(v) != dim:
                raise DimensionMismatch(dim, len(v), f"{kind} generator {label!r}")
            names.append(label)
            vectors.append(v)
        return tuple(names), tuple(vectors)

    effect_names, effect_vectors = convert("effect", effects)
    state_names, state_vectors = convert("state", states)
    effect_labels = set(effect_names)
    for p in pvvms:
        for label in p.outcome_labels:
            if label not in effect_labels:
                raise InputError(f"pvvm {p.name!r} references unknown effect {label!r}")
    return Gpt(
        dim=dim,
        unit=unit_v,
        effect_names=effect_names,
        effect_vectors=effect_vectors,
        state_names=state_names,
        state_vectors=state_vectors,
        claims_no_restriction=claims_no_restriction,
        pvvms=tuple(pvvms),
        bonus=tuple(bonus),
        name=name,
    )


# ---------------------------------------------------------------------------
# cached geometry
#
# Whole-theory results are memoized by theory value: the two cones, the
# maximal state points, the pure states and the nonrefinable effects here,
# `validate` below and `contextuality.classify`.  A Gpt is a frozen value,
# so each is a pure function of it, and theories that differ in any field,
# the name included, get separate entries.  Every memo is an lru_cache
# bounded by _MEMO_SIZE theories, so a sweep over extended theories holds a
# fixed number of them while the host, used by every operation, stays
# cached.  The cached results are immutable values shared by all callers.

_MEMO_SIZE = 8


@lru_cache(maxsize=_MEMO_SIZE)
def effect_cone(g: Gpt) -> Cone:
    return cone_from_rays(g.effect_vectors, g.dim)


@lru_cache(maxsize=_MEMO_SIZE)
def state_cone(g: Gpt) -> Cone:
    return cone_from_rays(g.state_vectors, g.dim)


def close_states(effect_cone: Cone, unit: Vec) -> tuple[Vec, ...]:
    """Extreme points of the largest state set an effect cone allows: its
    dual cone sliced at <unit, x> = 1, sorted."""
    points = []
    for ray in dual_cone(effect_cone).rays:
        weight = inner(unit, ray)
        if weight <= 0:
            raise TheoryConsistencyError(
                f"unit is not strictly positive on the dual ray {format_vec(ray)}; "
                "the allowed state set is unbounded"
            )
        points.append(vec_scale(Fraction(1) / weight, ray))
    return tuple(sorted(points))


def close_effects(state_cone: Cone, state_points: Sequence[Vec]) -> tuple[Vec, ...]:
    """Generators of the full dual order interval of a state cone: each
    extreme ray of its dual scaled onto [0, unit] against the (normalised)
    state points spanning it, sorted.  Complement closure holds by
    construction."""
    return tuple(
        sorted(scale_to_effect_interval(h, state_points) for h in dual_cone(state_cone).rays)
    )


@lru_cache(maxsize=_MEMO_SIZE)
def max_state_points(g: Gpt) -> tuple[Vec, ...]:
    """Extreme points of the largest state set the effects allow."""
    return close_states(effect_cone(g), g.unit)


def max_effect_rays(g: Gpt) -> tuple[Vec, ...]:
    """Extreme rays of the largest effect cone the states allow: the facet
    normals of the state cone."""
    return state_cone(g).facets


def scale_to_effect_interval(h: Vec, states: Sequence[Vec]) -> Vec:
    """The maximal scaling of the direction h with <h, s> <= 1 on every
    listed (normalised) state: the extreme effect on that ray."""
    bounds = [Fraction(1) / inner(s, h) for s in states if inner(s, h) > 0]
    if not bounds:
        raise TheoryConsistencyError(
            f"direction {format_vec(h)} is bounded by no state; "
            "the effect interval is unbounded"
        )
    return vec_scale(min(bounds), h)


def in_effect_set(g: Gpt, e: Vec) -> bool:
    """Effect-set membership: e and its complement both in the effect cone,
    by facet signs.  g must be valid (callers run `require_valid`)."""
    c = effect_cone(g)
    return contains(c, e) and contains(c, vec_sub(g.unit, e))


def in_state_set(g: Gpt, s: Vec) -> bool:
    """State-set membership: normalised and in the state cone, by facet
    signs.  g must be valid (callers run `require_valid`), so every state
    generator has <unit, s> = 1 and the state set is the cone's unit slice."""
    return inner(g.unit, s) == 1 and contains(state_cone(g), s)


# ---------------------------------------------------------------------------
# probability rule


def probability(e: Vec, s: Vec, e_label: str = "", s_label: str = "") -> Fraction:
    """The bilinear probability rule <e, s>, guarded to land in [0, 1]."""
    p = inner(e, s)
    if p < 0 or p > 1:
        e_name = e_label or format_vec(e)
        s_name = s_label or format_vec(s)
        raise TheoryConsistencyError(
            f"probability {format_rational(p)} outside [0, 1] for effect {e_name} on state {s_name}"
        )
    return p


@dataclass(frozen=True)
class ProbabilityTable:
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    entries: Mat

    def row(self, label: str) -> Vec:
        return self.entries[self.row_labels.index(label)]


def probability_table(
    states: Sequence[tuple[str, Vec]], effects: Sequence[tuple[str, Vec]]
) -> ProbabilityTable:
    rows = []
    for s_label, s in states:
        rows.append(tuple(probability(e, s, e_label, s_label) for e_label, e in effects))
    return ProbabilityTable(
        row_labels=tuple(label for label, _ in states),
        col_labels=tuple(label for label, _ in effects),
        entries=tuple(rows),
    )


def theory_table(g: Gpt) -> ProbabilityTable:
    return probability_table(g.states(), g.effects())


def min_model_dimension(t: ProbabilityTable) -> int:
    """Lower bound on the dimension of any model reproducing the table."""
    return rank(t.entries)


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Violation:
    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]


def _base_violations(g: Gpt) -> list[Violation]:
    out: list[Violation] = []
    for label, s in g.states():
        norm = inner(g.unit, s)
        if norm != 1:
            out.append(
                Violation(
                    "state-normalization",
                    f"<unit, {label}> = {format_rational(norm)}, expected 1",
                )
            )
    for e_label, e in g.effects():
        for s_label, s in g.states():
            p = inner(e, s)
            if p < 0 or p > 1:
                out.append(
                    Violation(
                        "probability-range",
                        f"<{e_label}, {s_label}> = {format_rational(p)} outside [0, 1]",
                    )
                )
    ec = effect_cone(g)
    for label, e in g.effects():
        if not contains(ec, vec_sub(g.unit, e)):
            out.append(
                Violation(
                    "missing-complement",
                    f"unit - {label} is not in the effect cone; no complement event",
                )
            )
    if rank(mat(g.effect_vectors)) != g.dim:
        out.append(Violation("effects-span", "effect generators do not span the ambient space"))
    if rank(mat(g.state_vectors)) != g.dim:
        out.append(Violation("states-span", "state generators do not span the ambient space"))
    for p in g.pvvms:
        total = vec_sum([g.effect(l) for l in p.outcome_labels], g.dim)
        if total != g.unit:
            out.append(
                Violation(
                    "pvvm-sum",
                    f"measurement {p.name!r} sums to {format_vec(total)}, not the unit",
                )
            )
    return out


@lru_cache(maxsize=_MEMO_SIZE)
def validate(g: Gpt) -> ValidationReport:
    """Check every theory invariant; violations are data, not faults.

    Memoized by theory value (bounded by _MEMO_SIZE, see "cached
    geometry"): each distinct theory is checked once per process, and every
    caller shares the one immutable report."""
    out = _base_violations(g)
    if not out and g.claims_no_restriction:
        # an asserted-but-false no-restriction claim is reported, never
        # silently reinterpreted: the theory/subtheory split is load-bearing
        check = no_restriction_check(g)
        if not check.holds:
            out.append(
                Violation(
                    "no-restriction-claim",
                    "theory asserts the no-restriction property but its state and "
                    "effect sets are not mutually dual",
                )
            )
    return ValidationReport(ok=not out, violations=tuple(out))


def require_valid(g: Gpt) -> None:
    report = validate(g)
    if not report.ok:
        details = "; ".join(v.message for v in report.violations)
        raise InputError(f"theory {g.name or '<anonymous>'} is inconsistent: {details}")


# ---------------------------------------------------------------------------
# the no-restriction check


@dataclass(frozen=True)
class NoRestrictionResult:
    holds: bool
    state_witnesses: tuple[Vec, ...]  # allowed-by-effects states missing from the state set
    effect_witnesses: tuple[Vec, ...]  # allowed-by-states effects missing from the effect set
    max_state_points: tuple[Vec, ...]
    max_effect_rays: tuple[Vec, ...]


def no_restriction_check(g: Gpt) -> NoRestrictionResult:
    """Is the state set everything the effects allow, and dually?

    Witnesses are actual elements of the gaps: valid maximal states outside
    the stored state set, and maximal effects (scaled into [0, unit]) outside
    the stored effect set.

    g must be valid (callers run `require_valid`): each cone lies in the
    dual of the other and the states are normalised, so an extreme point of
    the larger set lies in the smaller one iff its canonical ray is extreme
    there too, and each gap is a set difference of rays.
    """
    state_points = max_state_points(g)
    state_rays = set(state_cone(g).rays)
    state_gap = tuple(p for p in state_points if integerize(p) not in state_rays)

    effect_rays = max_effect_rays(g)
    stored = set(effect_cone(g).rays)
    # scale each missing direction onto [0, unit] so the witness is a
    # genuine effect of the maximal theory
    effect_gap = tuple(
        scale_to_effect_interval(h, g.state_vectors) for h in effect_rays if h not in stored
    )
    return NoRestrictionResult(
        holds=not state_gap and not effect_gap,
        state_witnesses=state_gap,
        effect_witnesses=effect_gap,
        max_state_points=state_points,
        max_effect_rays=effect_rays,
    )


# ---------------------------------------------------------------------------
# completions


FIX_EFFECTS = "fix-effects"
FIX_STATES = "fix-states"


def complete(g: Gpt, mode: str) -> Gpt:
    """The canonical extension satisfying the no-restriction property.

    fix-effects keeps the effect generators and replaces the states by the
    full dual slice; fix-states keeps the states and replaces the effects by
    the dual order interval's cone.  The kept side is reduced to its extreme
    generators (labels of survivors are preserved).
    """
    require_valid(g)
    if mode == FIX_EFFECTS:
        completed = closed_theory(
            g,
            reduce_named(g.effects(), effect_cone(g).rays),
            [(f"d{i + 1}", p) for i, p in enumerate(max_state_points(g))],
            f"{g.name}.completed-states" if g.name else "completed-states",
        )
    elif mode == FIX_STATES:
        atoms = close_effects(state_cone(g), g.state_vectors)
        completed = closed_theory(
            g,
            [(f"f{i + 1}", a) for i, a in enumerate(atoms)],
            pure_states(g),
            f"{g.name}.completed-effects" if g.name else "completed-effects",
        )
    else:
        raise InputError(f"unknown completion mode {mode!r}; use {FIX_EFFECTS} or {FIX_STATES}")
    # the no-restriction flag is only asserted because this check passes
    if not no_restriction_check(completed).holds:
        raise InternalCheckError("completion failed its own duality check")
    return completed


def closed_theory(
    g: Gpt,
    effects: Sequence[tuple[str, Vec]],
    states: Sequence[tuple[str, Vec]],
    name: str,
) -> Gpt:
    """A theory on g's space and unit with the given generators, asserting
    the no-restriction property (callers check it).  Of g's measurements it
    keeps those whose outcomes are all still present with the same label and
    vector; any other would name an effect the new theory lacks."""
    kept = dict(effects)
    pvvms = tuple(
        p
        for p in g.pvvms
        if all(kept.get(label) == g.effect(label) for label in p.outcome_labels)
    )
    return Gpt(
        dim=g.dim,
        unit=g.unit,
        effect_names=tuple(n for n, _ in effects),
        effect_vectors=tuple(v for _, v in effects),
        state_names=tuple(n for n, _ in states),
        state_vectors=tuple(v for _, v in states),
        claims_no_restriction=True,
        pvvms=pvvms,
        name=name,
    )


def reduce_named(
    named: Sequence[tuple[str, Vec]], extreme: Sequence[Vec]
) -> list[tuple[str, Vec]]:
    """Keep one named generator per extreme ray (the first matching), so a
    redundant input list comes back reduced with its labels intact."""
    out = []
    used = set()
    for ray in extreme:
        for label, v in named:
            if label in used:
                continue
            if integerize(v) == ray:
                out.append((label, v))
                used.add(label)
                break
        else:
            out.append((f"r{len(out) + 1}", ray))
    return out


# ---------------------------------------------------------------------------
# extremal elements


@lru_cache(maxsize=_MEMO_SIZE)
def pure_states(g: Gpt) -> tuple[tuple[str, Vec], ...]:
    """Generators that are extreme points of the state set; a repeated
    vector keeps its first label.  g must be valid (callers run
    `require_valid`): with normalised states, a state is extreme iff its
    canonical vector is a ray of the state cone."""
    rays = set(state_cone(g).rays)
    out = []
    for i, (label, s) in enumerate(g.states()):
        if s not in g.state_vectors[:i] and integerize(s) in rays:
            out.append((label, s))
    return tuple(out)


@lru_cache(maxsize=_MEMO_SIZE)
def nonrefinable_effects(g: Gpt) -> tuple[tuple[str, Vec], ...]:
    """Extreme effects on extreme rays of the effect cone: the effects that
    admit no split into two nonzero, non-proportional effects.

    Each is the maximal scaling of an extreme ray inside the order interval
    [0, U], read off the effect cone's facets.  No other vertex of [0, U]
    can be one: a vertex off the extreme rays has a conic expansion with at
    least two positive terms, and for `part = coef * ray` one of them, both
    `part` and `vertex - part` lie in the cone while
    `U - part = (U - vertex) + (vertex - part)` does too, so the vertex
    splits into two effects that are not proportional to it.
    """
    ec = effect_cone(g)
    out = []
    for i, ray in enumerate(ec.rays):
        bounds = [inner(n, g.unit) / inner(n, ray) for n in ec.facets if inner(n, ray) > 0]
        if not bounds:
            raise TheoryConsistencyError("effect cone has an unbounded order interval")
        atom = vec_scale(min(bounds), ray)
        out.append((next((l for l, v in g.effects() if v == atom), f"nr{i + 1}"), atom))
    return tuple(out)
