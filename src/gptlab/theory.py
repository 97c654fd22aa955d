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
decides that claim with explicit gap witnesses.  `closed_theory` is the one
dual closure that makes it true: `complete` applies it to a theory's own
effects or states, and `resources.extend_theory` to a side grown by one
bonus element.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache, wraps
from typing import Iterable, Sequence

from .cones import Cone, canonical, cone_from_rays, contains, dual_cone, is_pointed
from .errors import DimensionMismatch, InputError, InternalCheckError, TheoryConsistencyError
from .linalg import (
    Mat,
    Scalar,
    Vec,
    _clear,
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

    def __hash__(self) -> int:
        # the hash of the field values, computed once: the per-theory scope
        # hashes its key on each lookup, and that walks every Fraction;
        # kept outside the fields, so equality and repr do not see it
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(tuple(getattr(self, f.name) for f in fields(self)))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self) -> dict:
        # string hashes differ between interpreters: a copy recomputes its own
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

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

    def __post_init__(self) -> None:
        require_label("bonus", self.label)
        # exact entries for every caller, as `build_gpt` gives its generators
        object.__setattr__(self, "vector", vec_from(self.vector))


def require_label(kind: str, label: str) -> None:
    """Reject an empty or whitespace-only label, which reports would print
    as a bare coefficient."""
    if not label.strip():
        raise InputError(f"{kind} label must not be empty, got {label!r}")


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
            require_label(kind, label)
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
# the per-theory scope
#
# Whole-theory results are pure functions of the frozen Gpt value, the name
# included, and are memoized in one scope per theory, in one lru_cache of
# _MEMO_SIZE theories: a sweep over extended theories holds a fixed number
# of them while the host, used by every operation, stays cached.

_MEMO_SIZE = 8


@lru_cache(maxsize=_MEMO_SIZE)
def _scope(g: Gpt) -> dict:
    return {}


def per_theory(fn):
    """fn(g), computed once in g's scope; a call that raises stores nothing."""

    @wraps(fn)
    def memoized(g: Gpt):
        scope = _scope(g)
        if fn.__name__ in scope:
            return scope[fn.__name__]
        return scope.setdefault(fn.__name__, fn(g))

    return memoized


@per_theory
def effect_cone(g: Gpt) -> Cone:
    return cone_from_rays(g.effect_vectors, g.dim)


@per_theory
def state_cone(g: Gpt) -> Cone:
    # states on the facets of a pointed effect cone generate its dual, whose
    # rays those facets are (Fukuda & Prodon 1996): no second run
    ec = effect_cone(g)
    if canonical(g.state_vectors, g.dim) == ec.facets and is_pointed(ec):
        return dual_cone(ec)
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


def close_effects(state_cone: Cone, unit: Vec) -> tuple[Vec, ...]:
    """Generators of the full dual order interval of a valid theory's state
    cone (so <unit, n> > 0 on its rays n): each extreme ray of its dual
    scaled onto [0, unit], sorted.  Complement closure holds by
    construction."""
    return tuple(
        sorted(scale_to_effect_interval(h, state_cone, unit) for h in dual_cone(state_cone).rays)
    )


@per_theory
def max_state_points(g: Gpt) -> tuple[Vec, ...]:
    """Extreme points of the largest state set the effects allow."""
    return close_states(effect_cone(g), g.unit)


def max_effect_rays(g: Gpt) -> tuple[Vec, ...]:
    """Extreme rays of the largest effect cone the states allow: the facet
    normals of the state cone."""
    return state_cone(g).facets


def scale_to_effect_interval(h: Vec, states: Cone, unit: Vec) -> Vec:
    """The extreme effect on the ray of h: h times the least
    <unit, n> / <h, n> over the rays n of the state cone with <h, n> > 0,
    the largest scaling with <h, s> <= 1 on every normalised state
    s = n / <unit, n> (a linear function peaks at an extreme one).  The
    cone is that of a valid theory, so <unit, n> > 0, and the ratios are
    compared as `int` cross products, with the unit cleared once."""
    u, denominator = _clear(unit)
    best = None  # (<u, n>, <h, n>) at the least ratio so far
    for n in states.rays:
        below = inner(h, n)
        if below > 0:
            above = inner(u, n)
            if best is None or above * best[1] < best[0] * below:
                best = (above, below)
    if best is None:
        raise TheoryConsistencyError(
            f"direction {format_vec(h)} is bounded by no state; "
            "the effect interval is unbounded"
        )
    return vec_scale(Fraction(best[0], best[1] * denominator), h)


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
    # each generator cleared once: <e, s> = <ne, ns> / (le * ls)
    states = [(label, _clear(s)) for label, s in g.states()]
    for e_label, e in g.effects():
        ne, le = _clear(e)
        for s_label, (ns, ls) in states:
            p = inner(ne, ns)
            if p < 0 or p > le * ls:
                out.append(
                    Violation(
                        "probability-range",
                        f"<{e_label}, {s_label}> = {format_rational(Fraction(p, le * ls))} "
                        "outside [0, 1]",
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
        unknown = ", ".join(repr(l) for l in p.outcome_labels if l not in g.effect_names)
        if unknown:
            out.append(Violation("pvvm-label", f"measurement {p.name!r} lists unknown effects {unknown}"))
            continue
        total = vec_sum([g.effect(l) for l in p.outcome_labels], g.dim)
        if total != g.unit:
            out.append(
                Violation(
                    "pvvm-sum",
                    f"measurement {p.name!r} sums to {format_vec(total)}, not the unit",
                )
            )
    return out


@per_theory
def validate(g: Gpt) -> ValidationReport:
    """Check every theory invariant; violations are data, not faults.
    Each distinct theory is checked once (see "the per-theory scope")."""
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
    state_rays = set(state_cone(g).rays)
    state_gap = tuple(p for p in max_state_points(g) if integerize(p) not in state_rays)

    stored = set(effect_cone(g).rays)
    # scale each missing direction onto [0, unit] so the witness is a
    # genuine effect of the maximal theory
    effect_gap = tuple(
        scale_to_effect_interval(h, state_cone(g), g.unit) for h in max_effect_rays(g) if h not in stored
    )
    return NoRestrictionResult(
        holds=not state_gap and not effect_gap,
        state_witnesses=state_gap,
        effect_witnesses=effect_gap,
    )


# ---------------------------------------------------------------------------
# completions


FIX_EFFECTS = "fix-effects"
FIX_STATES = "fix-states"


def complete(g: Gpt, mode: str) -> Gpt:
    """The canonical extension satisfying the no-restriction property: the
    `closed_theory` of g's effect cone and its effects reduced in ray order
    (fix-effects), or of g's state cone and its pure states in input order
    (fix-states).  Labels of kept generators are preserved."""
    require_valid(g)
    if mode == FIX_EFFECTS:
        cone = effect_cone(g)
        kept = reduce_named(g.effects(), cone.rays)
        suffix = "completed-states"
    elif mode == FIX_STATES:
        cone, kept, suffix = state_cone(g), pure_states(g), "completed-effects"
    else:
        raise InputError(f"unknown completion mode {mode!r}; use {FIX_EFFECTS} or {FIX_STATES}")
    completed = closed_theory(g, mode, cone, kept, f"{g.name}.{suffix}" if g.name else suffix)
    # the no-restriction flag is only asserted because this check passes
    if not no_restriction_check(completed).holds:
        raise InternalCheckError("completion failed its own duality check")
    return completed


def closed_theory(
    g: Gpt, mode: str, cone: Cone, kept: Sequence[tuple[str, Vec]], name: str
) -> Gpt:
    """The one dual closure, behind `complete` and `resources.extend_theory`:
    a theory on g's space and unit whose fixed side is `kept`, the named
    reduced generators of `cone`, and whose other side is all `cone` allows:
    the extreme points `d1, d2, ...` of its dual slice (fix-effects) or the
    atoms `f1, f2, ...` of its dual order interval (fix-states).  It asserts
    the no-restriction property (callers check it) and keeps those of g's
    measurements whose outcomes are all still present with the same label
    and vector.  Its scope starts with `cone` and, if `cone` is pointed,
    its dual (see `state_cone`)."""
    if mode == FIX_EFFECTS:
        points = close_states(cone, g.unit)
        effects, states = kept, [(f"d{i + 1}", p) for i, p in enumerate(points)]
    else:
        atoms = close_effects(cone, g.unit)
        effects, states = [(f"f{i + 1}", a) for i, a in enumerate(atoms)], kept
    by_label = dict(effects)
    pvvms = tuple(
        p
        for p in g.pvvms
        if all(by_label.get(label) == g.effect(label) for label in p.outcome_labels)
    )
    closed = Gpt(
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
    fixed, other = ("effect_cone", "state_cone") if mode == FIX_EFFECTS else ("state_cone", "effect_cone")
    scope = _scope(closed)
    scope[fixed] = cone
    if is_pointed(cone):
        scope[other] = dual_cone(cone)
    return closed


def reduce_named(
    named: Sequence[tuple[str, Vec]], extreme: Sequence[Vec]
) -> list[tuple[str, Vec]]:
    """One named generator per extreme ray of the cone the generators span,
    the first whose canonical vector is that ray, so a redundant input list
    comes back reduced with its labels intact.  Every ray of that cone is
    the canonical form of some generator, so a ray with no match is a fault
    and raises."""
    first: dict[Vec, tuple[str, Vec]] = {}
    for label, v in named:
        first.setdefault(integerize(v), (label, v))
    return [first[ray] for ray in extreme]


# ---------------------------------------------------------------------------
# extremal elements


@per_theory
def pure_states(g: Gpt) -> tuple[tuple[str, Vec], ...]:
    """Generators that are extreme points of the state set, in input order;
    a repeated vector keeps its first label.  g must be valid (callers run
    `require_valid`): with normalised states, a state is extreme iff its
    canonical vector is a ray of the state cone, and states on one ray are
    equal, so `reduce_named` keeps exactly the first of each."""
    kept = set(reduce_named(g.states(), state_cone(g).rays))
    return tuple(pair for pair in g.states() if pair in kept)


@per_theory
def nonrefinable_effects(g: Gpt) -> tuple[tuple[str, Vec], ...]:
    """Extreme effects on extreme rays of the effect cone: the effects that
    admit no split into two nonzero, non-proportional effects.

    Each is the maximal scaling of an extreme ray inside the order interval
    [0, U], `scale_to_effect_interval` against the dual of the effect cone,
    whose rays are its facet normals n, with <n, U> > 0 as g is valid (the
    effects span and complements close, so U is interior): the facet bound,
    the least <n, U> / <n, ray> over the facets with <n, ray> > 0.  No other
    vertex of [0, U] can be nonrefinable: a vertex off the extreme rays has
    a conic expansion with at least two positive terms, and for
    `part = coef * ray` one of them, both `part` and `vertex - part` lie in
    the cone while `U - part = (U - vertex) + (vertex - part)` does too, so
    the vertex splits into two effects that are not proportional to it.
    """
    cone = effect_cone(g)
    out = []
    for i, ray in enumerate(cone.rays):
        atom = scale_to_effect_interval(ray, dual_cone(cone), g.unit)
        label = next((l for l, v in g.effects() if v == atom), f"nr{i + 1}")
        while label in g.effect_names and g.effect(label) != atom:
            label += "'"  # a fallback name never repeats a stored label
        out.append((label, atom))
    return tuple(out)
