"""Deciding whether a theory admits a finite noncontextual ontological model.

The decision procedures:

* `classify` settles no-restriction theories outright: they admit a model
  exactly when the pure states and the nonrefinable effects are both
  simplicial, and a contextual verdict carries a constructive witness, a
  point with two different convex decompositions over the offending
  generator family (`nonunique_decomposition`).

* `embed_exact_dim` searches for a model whose ontic cardinality equals the
  ambient dimension, the only cardinality at which a model of a restricted
  theory leaves no empirically inaccessible ontic freedom.  The state-side
  frame must then be a basis of allowed states and the effect-side frame its
  exact dual basis, so the search runs over dimension-sized subsets of the
  extreme rays of the two maximal cones.  Verified hits are conclusive;
  exhaustion is conclusive only within that candidate class and is labelled
  as such.

* `embed_lp` decides unbounded-cardinality models by one exact feasibility
  LP over outer products of extreme rays; infeasibility carries an exact
  Farkas certificate.

* `indistinguishability_witness` exhibits the failure mode of
  larger-than-dimension models: two distinct ontic distributions that no
  allowed effect can tell apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import mul
from typing import Sequence

from . import lp
from .errors import InputError, InternalCheckError
from .linalg import (
    Mat,
    Vec,
    SingularBasisError,
    _clear,
    _fraction_columns,
    _inverse_columns,
    dual_basis,
    format_vec,
    identity,
    inner,
    mat,
    null_space,
    outer,
    rank,
    solve_affine,
    vec_scale,
    vec_sum,
    zeros,
)
from .theory import (
    _MEMO_SIZE,
    Gpt,
    max_effect_rays,
    max_state_points,
    no_restriction_check,
    nonrefinable_effects,
    probability_table,
    pure_states,
    require_valid,
)


# ---------------------------------------------------------------------------
# ontological models


@dataclass(frozen=True)
class OntModel:
    """A finite ontological model: per ontic point one response-generating
    effect F(lambda) and one state D(lambda), forming dual frames."""

    state_frame: tuple[Vec, ...]  # D(lambda)
    effect_frame: tuple[Vec, ...]  # F(lambda)

    @property
    def ontic_size(self) -> int:
        return len(self.state_frame)

    def response_function(self, e: Vec) -> tuple[Fraction, ...]:
        return tuple(inner(e, d) for d in self.state_frame)


@dataclass(frozen=True)
class NcomReport:
    ok: bool
    violations: tuple[str, ...]
    flags: tuple[str, ...]


def verify_ncom(m: OntModel, g: Gpt) -> NcomReport:
    """Re-derive every model condition exactly; violations are data."""
    violations: list[str] = []
    flags: list[str] = []
    n = m.ontic_size
    if len(m.effect_frame) != n:
        return NcomReport(False, ("frame lengths differ",), ())
    if n == 0:
        return NcomReport(False, ("empty ontic set",), ())
    for v in m.state_frame + m.effect_frame:
        if len(v) != g.dim:
            return NcomReport(False, (f"frame vector {format_vec(v)} has wrong dimension",), ())

    for i, d in enumerate(m.state_frame):
        norm = inner(g.unit, d)
        if norm != 1:
            violations.append(f"<unit, D({i})> = {norm}, expected 1")
    total = vec_sum(list(m.effect_frame), g.dim)
    if total != g.unit:
        violations.append(f"effect frame sums to {format_vec(total)}, not the unit")

    recon = [[Fraction(0)] * g.dim for _ in range(g.dim)]
    for d, f in zip(m.state_frame, m.effect_frame):
        for i in range(g.dim):
            for j in range(g.dim):
                recon[i][j] += d[i] * f[j]
    if tuple(tuple(row) for row in recon) != identity(g.dim):
        violations.append("frames do not reconstruct the identity")

    states = [(s_label, s, [inner(s, f) for f in m.effect_frame]) for s_label, s in g.states()]
    effects = [(e_label, e, m.response_function(e)) for e_label, e in g.effects()]
    for s_label, _, weights in states:
        for i, w in enumerate(weights):
            if w < 0:
                violations.append(f"ontic weight of {s_label} at {i} is negative")
    for e_label, _, responses in effects:
        for i, val in enumerate(responses):
            if val < 0 or val > 1:
                violations.append(f"response of {e_label} at {i} is {val}, outside [0, 1]")

    for e_label, e, responses in effects:
        for s_label, s, weights in states:
            if inner(weights, responses) != inner(e, s):
                violations.append(f"statistics broken for ({e_label}, {s_label})")

    if n > g.dim:
        flags.append(
            f"ontic cardinality {n} exceeds the theory dimension {g.dim}: "
            "distinct ontic distributions can be empirically indistinguishable"
        )
    return NcomReport(ok=not violations, violations=tuple(violations), flags=tuple(flags))


# ---------------------------------------------------------------------------
# non-unique decompositions (the constructive witness)


@dataclass(frozen=True)
class NonUniqueDecomposition:
    """A point with two different convex decompositions over one generator
    family.  Coefficients refer to the slice-normalised generators, which at
    every internal call site coincide with the generators themselves."""

    point: Vec
    decomposition_1: tuple[tuple[str, Fraction], ...]
    decomposition_2: tuple[tuple[str, Fraction], ...]
    dependent_label: str
    expansion: tuple[tuple[str, Fraction], ...]  # the affine coefficients alpha
    negative_labels: tuple[str, ...]
    positive_labels: tuple[str, ...]
    positive_weight: Fraction  # N, the normalising sum over the positive part
    generators: tuple[tuple[str, Vec], ...]  # slice-normalised family

    def verify(self) -> bool:
        by_label = dict(self.generators)
        for dec in (self.decomposition_1, self.decomposition_2):
            total = zeros(len(self.point))
            weight = Fraction(0)
            for label, coef in dec:
                if coef < 0:
                    return False
                weight += coef
                total = tuple(t + coef * x for t, x in zip(total, by_label[label]))
            if weight != 1 or total != self.point:
                return False
        return dict(self.decomposition_1) != dict(self.decomposition_2)


def nonunique_decomposition(
    generators: Sequence[tuple[str, Vec]], normalizer: Vec
) -> NonUniqueDecomposition | None:
    """Find a point of conv(generators) with two exact convex decompositions.

    Works on the affine slice fixed by the normalizer (which must be
    strictly positive on every generator): there every affine dependence of
    one generator on the others sums to one automatically, and a dependence
    with a negative coefficient closes into the two decompositions
      C = (A_J + sum_{i in I-} |a_i| A_i) / N = (sum_{i in I+} a_i A_i) / N
    with N the positive-part sum.  Returns None when every generator's
    expansion set contains only componentwise-nonnegative solutions.
    """
    named = list(generators)
    if not named:
        raise InputError("need at least one generator")
    scaled: list[tuple[str, Vec]] = []
    for label, v in named:
        w = inner(normalizer, v)
        if w <= 0:
            raise InputError(
                f"normalizer is not strictly positive on generator {label!r} "
                f"(<n, {label}> = {w})"
            )
        scaled.append((label, vec_scale(Fraction(1) / w, v)))

    for j, (j_label, a_j) in enumerate(scaled):
        rest = scaled[:j] + scaled[j + 1 :]
        if not rest:
            continue
        expansion = solve_affine(a_j, [v for _, v in rest])
        if expansion is None:
            continue
        alpha = expansion.negative_entry_solution()
        if alpha is None:
            continue
        neg = [(label, coef) for (label, _), coef in zip(rest, alpha) if coef < 0]
        pos = [(label, coef) for (label, _), coef in zip(rest, alpha) if coef > 0]
        n_weight = sum((c for _, c in pos), Fraction(0))
        assert n_weight == 1 - sum(c for _, c in neg)  # slice: sum(alpha) = 1
        by_label = dict(scaled)
        point = vec_scale(
            Fraction(1) / n_weight,
            vec_sum([a_j] + [vec_scale(-coef, by_label[l]) for l, coef in neg], len(a_j)),
        )
        dec1 = ((j_label, Fraction(1) / n_weight),) + tuple(
            (l, -coef / n_weight) for l, coef in neg
        )
        dec2 = tuple((l, coef / n_weight) for l, coef in pos)
        witness = NonUniqueDecomposition(
            point=point,
            decomposition_1=dec1,
            decomposition_2=dec2,
            dependent_label=j_label,
            expansion=tuple((l, c) for (l, _), c in zip(rest, alpha)),
            negative_labels=tuple(l for l, _ in neg),
            positive_labels=tuple(l for l, _ in pos),
            positive_weight=n_weight,
            generators=tuple(scaled),
        )
        if not witness.verify():
            raise InternalCheckError("constructed decomposition witness failed re-verification")
        return witness
    return None


def interior_state_functional(g: Gpt) -> Vec:
    """The barycentre of the state generators, used to put effect families
    onto an affine slice: an effect's weight there is its probability at
    the barycentric state.  In a valid theory it is strictly positive on
    every nonzero effect, because effects are nonnegative on the states and
    the states span the space."""
    return vec_scale(Fraction(1, len(g.state_vectors)), vec_sum(g.state_vectors, g.dim))


def decomposition_witness(g: Gpt) -> tuple[str, NonUniqueDecomposition] | None:
    """A non-unique decomposition over the pure states (on the slice of the
    unit) or else over the nonrefinable effects (on the barycentric slice),
    with its side; None when both families decompose uniquely."""
    witness = nonunique_decomposition(pure_states(g), g.unit)
    if witness is not None:
        return "states", witness
    witness = nonunique_decomposition(nonrefinable_effects(g), interior_state_functional(g))
    if witness is not None:
        return "effects", witness
    return None


# ---------------------------------------------------------------------------
# classification of no-restriction theories


@dataclass(frozen=True)
class ContextualityVerdict:
    noncontextual: bool
    model: OntModel | None
    witness: NonUniqueDecomposition | None
    witness_side: str | None  # "states" | "effects"
    pure_state_labels: tuple[str, ...]
    nonrefinable_labels: tuple[str, ...]
    states_simplicial: bool
    effects_simplicial: bool


class SubtheoryRejected(InputError):
    """classify only settles no-restriction theories; restricted ones go to
    the same-dimension embedding search."""

    def __init__(self, name: str):
        super().__init__(
            f"theory {name or '<anonymous>'} does not satisfy the no-restriction "
            "property; classification by simpliciality does not apply - use the "
            "same-dimension embedding search (embed_exact_dim) instead"
        )


@lru_cache(maxsize=_MEMO_SIZE)
def classify(g: Gpt) -> ContextualityVerdict:
    """Noncontextual iff both extremal families are simplicial; contextual
    verdicts attach a constructed non-unique decomposition.

    Memoized by theory value with the bound of `theory`'s other per-theory
    memos: each distinct theory is decided, and its point-mass model
    verified, once per process, and every caller shares the one immutable
    verdict.  A rejected theory raises again on each call."""
    require_valid(g)
    if not no_restriction_check(g).holds:
        raise SubtheoryRejected(g.name)
    pure = pure_states(g)
    atoms = nonrefinable_effects(g)
    # valid: one pure state per state-cone ray, one atom per effect-cone ray, both cones spanning
    s_simp = len(pure) == g.dim
    e_simp = len(atoms) == g.dim
    if s_simp and e_simp:
        model = build_ncom_from_parts(g, pure)
        return ContextualityVerdict(
            noncontextual=True,
            model=model,
            witness=None,
            witness_side=None,
            pure_state_labels=tuple(l for l, _ in pure),
            nonrefinable_labels=tuple(l for l, _ in atoms),
            states_simplicial=True,
            effects_simplicial=True,
        )
    found = decomposition_witness(g)
    if found is None:
        raise InternalCheckError("non-simplicial family produced no decomposition witness")
    side, witness = found
    return ContextualityVerdict(
        noncontextual=False,
        model=None,
        witness=witness,
        witness_side=side,
        pure_state_labels=tuple(l for l, _ in pure),
        nonrefinable_labels=tuple(l for l, _ in atoms),
        states_simplicial=s_simp,
        effects_simplicial=e_simp,
    )


def build_ncom_from_parts(g: Gpt, pure: Sequence[tuple[str, Vec]]) -> OntModel:
    state_frame = tuple(v for _, v in pure)
    effect_frame = dual_basis(state_frame)
    model = OntModel(state_frame=state_frame, effect_frame=effect_frame)
    report = verify_ncom(model, g)
    if not report.ok:
        raise InternalCheckError(
            "simplicial model failed verification: " + "; ".join(report.violations)
        )
    return model


def build_ncom(g: Gpt) -> OntModel:
    """The point-mass model of a noncontextual theory: ontic points indexed
    by the pure states, effect frame the exact dual basis."""
    verdict = classify(g)
    if not verdict.noncontextual:
        raise InputError(
            "theory is ontologically contextual; see the attached decomposition "
            f"witness on the {verdict.witness_side} side"
        )
    assert verdict.model is not None
    return verdict.model


# ---------------------------------------------------------------------------
# unbounded-cardinality embedding by exact LP


@dataclass(frozen=True)
class LpEmbedding:
    model: OntModel | None
    farkas: Mat | None  # dim x dim matrix certifying infeasibility
    support: tuple[tuple[int, int, Fraction], ...]  # (effect ray, state point, weight)
    effect_ray_pool: tuple[Vec, ...]
    state_point_pool: tuple[Vec, ...]

    @property
    def found(self) -> bool:
        return self.model is not None

    def verify_farkas(self) -> bool:
        if self.farkas is None:
            return False
        y = self.farkas
        trace = sum((y[i][i] for i in range(len(y))), Fraction(0))
        if trace <= 0:
            return False
        for h in self.effect_ray_pool:
            for r in self.state_point_pool:
                value = sum(
                    (h[i] * r[j] * y[i][j] for i in range(len(y)) for j in range(len(y))),
                    Fraction(0),
                )
                if value > 0:
                    return False
        return True


def _ordered_rays(rays: Sequence[Vec]) -> tuple[Vec, ...]:
    # deterministic tie-break: frames without negative entries first
    return tuple(sorted(rays, key=lambda v: (sum(1 for x in v if x < 0), v)))


def embed_lp(g: Gpt) -> LpEmbedding:
    """Decide whether any finite ontological model exists, by exact LP.

    Every admissible effect-side frame element lies in the dual of the
    state cone and every state-side element in the normalised dual of the
    effect cone, so the reconstruction identity has a model iff nonnegative
    weights sigma_ab on outer products of the respective extreme rays sum to
    the identity.  Sound and complete for polyhedral cones.  The model has
    one ontic point per pair in the support of the solver's solution, which
    is basic: its support columns sit in the final basis, so they are
    linearly independent, the identity has exactly one expansion over them,
    and no proper sub-support reaches it.  The support is therefore already
    inclusion-minimal.
    """
    require_valid(g)
    h_pool = _ordered_rays(max_effect_rays(g))
    r_pool = _ordered_rays(max_state_points(g))
    dim = g.dim

    pairs = [(a, b) for a in range(len(h_pool)) for b in range(len(r_pool))]
    columns = []
    for a, b in pairs:
        op = outer(h_pool[a], r_pool[b])
        columns.append(tuple(op[i][j] for i in range(dim) for j in range(dim)))
    target = tuple(Fraction(1) if i == j else Fraction(0) for i in range(dim) for j in range(dim))

    result = lp.solve_feasibility(columns, target)
    if not result.feasible:
        y = result.farkas
        farkas_matrix = tuple(tuple(y[i * dim + j] for j in range(dim)) for i in range(dim))
        embedding = LpEmbedding(
            model=None,
            farkas=farkas_matrix,
            support=(),
            effect_ray_pool=h_pool,
            state_point_pool=r_pool,
        )
        if not embedding.verify_farkas():
            raise InternalCheckError("embedding infeasibility certificate failed re-verification")
        return embedding

    state_frame = []
    effect_frame = []
    support_entries = []
    for k, x in enumerate(result.x):
        if x > 0:
            a, b = pairs[k]
            support_entries.append((a, b, x))
            effect_frame.append(vec_scale(x, h_pool[a]))
            state_frame.append(r_pool[b])
    model = OntModel(state_frame=tuple(state_frame), effect_frame=tuple(effect_frame))
    report = verify_ncom(model, g)
    if not report.ok:
        raise InternalCheckError(
            "LP embedding failed verification: " + "; ".join(report.violations)
        )
    return LpEmbedding(
        model=model,
        farkas=None,
        support=tuple(support_entries),
        effect_ray_pool=h_pool,
        state_point_pool=r_pool,
    )


# ---------------------------------------------------------------------------
# same-dimension embedding (exhaustive over the restricted candidate class)


@dataclass(frozen=True)
class ExactDimSearch:
    model: OntModel | None
    explored: int
    caveat: str

    @property
    def found(self) -> bool:
        return self.model is not None


NONE_FOUND_CAVEAT = (
    "no model within the candidate class (frames drawn from extreme rays of "
    "the two maximal cones); completeness of this class is not established"
)


def embed_exact_dim(g: Gpt) -> ExactDimSearch:
    """Search for a model with ontic cardinality equal to the dimension.

    At that cardinality the state frame must be a basis of allowed states
    and the effect frame its exact dual basis with the frame-sum condition,
    so candidates are dimension-sized subsets of (a) extreme rays of the
    dual of the state cone for the effect side, then (b) extreme points of
    the maximal state set for the state side.  The candidate vectors are
    cleared of denominators once, before the search, and each candidate
    costs one integer inversion (`linalg._inverse_columns`: the dual
    vectors f_i as integer columns c_i over one denominator d > 0); a
    dependent subset is skipped when it raises `SingularBasisError`.

    The candidate is screened on integers, against the unit and the
    generators cleared of denominators once: on the effect side the unique
    scalings s_i = <f_i, unit> with sum_i s_i h_i = unit must be positive
    and every effect must be nonnegative on the state frame f_i / s_i, that
    is <e, c_i> >= 0; on the state side every state must be nonnegative on
    the effect frame f_i, that is <s, c_i> >= 0.  Only a candidate that
    passes gets Fraction frames, which `verify_ncom` then checks in full.
    The first verified hit in deterministic order is returned.
    """
    require_valid(g)
    dim = g.dim
    explored = 0
    unit, _ = _clear(g.unit)
    effect_gens = [_clear(e)[0] for e in g.effect_vectors]
    state_gens = [_clear(s)[0] for s in g.state_vectors]

    effect_candidates = _ordered_rays(max_effect_rays(g))
    cleared = [_clear(h) for h in effect_candidates]
    for subset in combinations(range(len(effect_candidates)), dim):
        explored += 1
        chosen = [effect_candidates[i] for i in subset]
        try:
            columns, det = _inverse_columns([cleared[i] for i in subset])
        except SingularBasisError:
            continue
        if all(_dot(c, unit) > 0 for c in columns) and _nonnegative(effect_gens, columns):
            duals = _fraction_columns(columns, det)
            scaling = [inner(f, g.unit) for f in duals]
            effect_frame = tuple(vec_scale(s, h) for s, h in zip(scaling, chosen))
            state_frame = tuple(vec_scale(1 / s, f) for s, f in zip(scaling, duals))
            model = OntModel(state_frame=state_frame, effect_frame=effect_frame)
            if verify_ncom(model, g).ok:
                return ExactDimSearch(model=model, explored=explored, caveat="")

    state_candidates = _ordered_rays(max_state_points(g))
    cleared = [_clear(s) for s in state_candidates]
    for subset in combinations(range(len(state_candidates)), dim):
        explored += 1
        chosen_states = tuple(state_candidates[i] for i in subset)
        try:
            columns, det = _inverse_columns([cleared[i] for i in subset])
        except SingularBasisError:
            continue
        if _nonnegative(state_gens, columns):
            model = OntModel(state_frame=chosen_states, effect_frame=_fraction_columns(columns, det))
            if verify_ncom(model, g).ok:
                return ExactDimSearch(model=model, explored=explored, caveat="")

    return ExactDimSearch(model=None, explored=explored, caveat=NONE_FOUND_CAVEAT)


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def _nonnegative(gens: Sequence[Sequence[int]], columns: Sequence[Sequence[int]]) -> bool:
    return all(_dot(x, c) >= 0 for c in columns for x in gens)


# ---------------------------------------------------------------------------
# the indistinguishability witness


@dataclass(frozen=True)
class IndistinguishabilityWitness:
    """Two distinct ontic distributions no allowed effect can separate."""

    first: tuple[Fraction, ...]  # extremal: pushed until a coordinate hits zero
    second: tuple[Fraction, ...]  # the uniform reference distribution
    null_direction: Vec
    statistics: tuple[tuple[str, Fraction], ...]  # the shared response row

    def verify(self, g: Gpt, m: OntModel) -> bool:
        if self.first == self.second:
            return False
        for dist in (self.first, self.second):
            if any(x < 0 for x in dist) or sum(dist) != 1:
                return False
        for _, e in g.effects():
            responses = m.response_function(e)
            p1 = sum((a * r for a, r in zip(self.first, responses)), Fraction(0))
            p2 = sum((a * r for a, r in zip(self.second, responses)), Fraction(0))
            if p1 != p2:
                return False
        return True


def indistinguishability_witness(g: Gpt, m: OntModel) -> IndistinguishabilityWitness | None:
    """For models with more ontic points than dimensions, produce two
    distributions over the ontic set with identical statistics on every
    effect of the theory; None when the cardinality equals the dimension.
    """
    report = verify_ncom(m, g)
    if not report.ok:
        raise InputError(
            "model is inconsistent with the theory: " + "; ".join(report.violations)
        )
    n = m.ontic_size
    if n <= g.dim:
        return None
    response_rows = mat([m.response_function(e) for e in g.effect_vectors])
    directions = null_space(response_rows)
    if not directions:
        raise InternalCheckError(
            "response matrix of an oversized model has full column rank"
        )
    direction = directions[0]
    uniform = tuple(Fraction(1, n) for _ in range(n))
    steps = [uniform[i] / -d for i, d in enumerate(direction) if d < 0]
    if not steps:
        raise InternalCheckError("null direction of a response matrix must change sign")
    t = min(steps)
    pushed = tuple(u + t * d for u, d in zip(uniform, direction))
    stats = tuple(
        (label, sum((u * r for u, r in zip(uniform, m.response_function(e))), Fraction(0)))
        for label, e in g.effects()
    )
    witness = IndistinguishabilityWitness(
        first=pushed, second=uniform, null_direction=direction, statistics=stats
    )
    if not witness.verify(g, m):
        raise InternalCheckError("indistinguishability witness failed re-verification")
    return witness


# ---------------------------------------------------------------------------
# handy composite


def model_dimension_bound(g: Gpt) -> int:
    """Rank of the pure-state x nonrefinable-effect table: a lower bound on
    the ontic cardinality of any model."""
    table = probability_table(pure_states(g), nonrefinable_effects(g))
    return rank(table.entries)
