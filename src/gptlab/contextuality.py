"""Deciding whether a theory admits a finite noncontextual ontological model.

The decision procedures:

* `classify` settles no-restriction theories outright: they admit a model
  exactly when the pure states and the nonrefinable effects are both
  simplicial, and a contextual verdict carries a constructive witness, a
  point with two different convex decompositions over the offending
  generator family (`nonunique_decomposition`), read off one null space:
  that of the slice-normalised generators over a row of ones, which holds
  every affine dependence of the family.

* `embed_exact_dim` searches for a model whose ontic cardinality equals the
  ambient dimension, the only cardinality at which a model of a restricted
  theory leaves no empirically inaccessible ontic freedom.  The state-side
  frame must then be a basis of allowed states and the effect-side frame its
  exact dual basis, so the search runs over dimension-sized subsets of the
  extreme rays of the two maximal cones.  Verified hits are conclusive;
  exhaustion is conclusive only within that candidate class and is labelled
  as such.

* `embed_lp` decides unbounded-cardinality models by one membership
  question (`cones.member_cone`): is the identity in the cone of the outer
  products of extreme rays?  Its answer is the membership certificate
  `member_cone` returns; on infeasibility the Farkas matrix is that
  certificate's separator.

* `indistinguishability_witness` exhibits the failure mode of
  larger-than-dimension models: two distinct ontic distributions that no
  allowed effect can tell apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from operator import mul
from typing import Sequence

from .cones import MembershipCertificate, member_cone
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
    null_space,
    outer,
    rank,
    vec_scale,
    vec_sub,
    vec_sum,
    zeros,
)
from .theory import (
    Gpt,
    max_effect_rays,
    max_state_points,
    no_restriction_check,
    nonrefinable_effects,
    per_theory,
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

    def mixture(self, weights: Sequence[Fraction], dim: int) -> Vec:
        """sum_lambda weights_lambda D(lambda), the state a distribution prepares."""
        return vec_sum([vec_scale(w, d) for w, d in zip(weights, self.state_frame)], dim)


@dataclass(frozen=True)
class NcomReport:
    ok: bool
    violations: tuple[str, ...]
    flags: tuple[str, ...]


def verify_ncom(m: OntModel, g: Gpt) -> NcomReport:
    """Re-derive every model condition exactly; violations are data.  The
    statistics need no check of their own: the reconstruction identity
    alone gives sum_l <s, F(l)> <e, D(l)> = e^T (sum_l D(l) F(l)^T) s =
    <e, s> for all e, s (Schmid et al., PRX Quantum 2, 010331 (2021))."""
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

    for s_label, s in g.states():
        for i, f in enumerate(m.effect_frame):
            if inner(s, f) < 0:
                violations.append(f"ontic weight of {s_label} at {i} is negative")
    for e_label, e in g.effects():
        for i, val in enumerate(m.response_function(e)):
            if val < 0 or val > 1:
                violations.append(f"response of {e_label} at {i} is {val}, outside [0, 1]")

    if n > g.dim:
        flags.append(
            f"ontic cardinality {n} exceeds the theory dimension {g.dim}: "
            "distinct ontic distributions can be empirically indistinguishable"
        )
    return NcomReport(ok=not violations, violations=tuple(violations), flags=tuple(flags))


def _require_model(m: OntModel, g: Gpt, error: type[Exception], prefix: str) -> None:
    report = verify_ncom(m, g)
    if not report.ok:
        raise error(prefix + "; ".join(report.violations))


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

    Works on the affine slice fixed by the normalizer, which must be
    strictly positive on every generator: each generator a_i is scaled to
    <normalizer, a_i> = 1.  Returns None iff the scaled generators are
    affinely independent.

    Every affine dependence is read off one null space, that of L: the
    scaled generators as columns over an appended row of ones.

    * A nonzero null vector c of L sums to 0, so it has both signs.  Its
      positive and negative parts, each divided by N = sum_{c_i > 0} c_i,
      are two convex decompositions of the one point
      sum_{c_i > 0} c_i a_i / N.
    * The dependent generator j, the first one in the affine hull of the
      others, is the least index in the support of any vector of the
      canonical basis of null_space(L); c is the first basis vector with
      c_j != 0, which is c's first nonzero entry and so positive.
    * alpha = -c_rest / c_j is the particular solution of
      a_j = sum_{i != j} alpha_i a_i, sum alpha_i = 1 whose free variables
      are zero: columns before j lie in no dependence, so the greedy basis
      of the other generators is L's pivot set with j exchanged for c's
      free column.
    * On distinct extreme points alpha has a negative entry, as a_j is no
      convex combination of the others, and decomposition 1 is a_j with
      the generators of negative alpha.
    """
    named = list(generators)
    if not named:
        raise InputError("need at least one generator")
    labels = [label for label, _ in named]
    scaled: list[Vec] = []
    for label, v in named:
        w = inner(normalizer, v)
        if w <= 0:
            raise InputError(
                f"normalizer is not strictly positive on generator {label!r} "
                f"(<n, {label}> = {w})"
            )
        scaled.append(vec_scale(Fraction(1) / w, v))

    basis = null_space(tuple(zip(*scaled)) + ((1,) * len(scaled),))
    if not basis:
        return None
    j = min(next(i for i, x in enumerate(c) if x) for c in basis)
    c = next(c for c in basis if c[j])
    n_weight = sum(x for x in c if x > 0)
    witness = NonUniqueDecomposition(
        point=vec_scale(
            Fraction(1, n_weight), vec_sum([vec_scale(x, a) for x, a in zip(c, scaled) if x > 0])
        ),
        decomposition_1=tuple((l, Fraction(x, n_weight)) for l, x in zip(labels, c) if x > 0),
        decomposition_2=tuple((l, Fraction(-x, n_weight)) for l, x in zip(labels, c) if x < 0),
        dependent_label=labels[j],
        expansion=tuple((l, Fraction(-x, c[j])) for i, (l, x) in enumerate(zip(labels, c)) if i != j),
        generators=tuple(zip(labels, scaled)),
    )
    if not witness.verify():
        raise InternalCheckError("constructed decomposition witness failed re-verification")
    return witness


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


@per_theory
def classify(g: Gpt) -> ContextualityVerdict:
    """Noncontextual iff both extremal families are simplicial; contextual
    verdicts attach a constructed non-unique decomposition.  Each distinct
    theory is decided, and its model verified, once (`theory.per_theory`);
    a rejected theory raises again on each call."""
    require_valid(g)
    if not no_restriction_check(g).holds:
        raise SubtheoryRejected(g.name)
    pure = pure_states(g)
    atoms = nonrefinable_effects(g)
    # valid: one pure state per state-cone ray, one atom per effect-cone ray, both cones spanning
    s_simp = len(pure) == g.dim
    e_simp = len(atoms) == g.dim
    if s_simp and e_simp:
        frame = tuple(v for _, v in pure)
        model = OntModel(state_frame=frame, effect_frame=dual_basis(frame))
        _require_model(model, g, InternalCheckError, "simplicial model failed verification: ")
        witness, side = None, None
    else:
        found = decomposition_witness(g)
        if found is None:
            raise InternalCheckError("non-simplicial family produced no decomposition witness")
        model, (side, witness) = None, found
    return ContextualityVerdict(
        noncontextual=model is not None,
        model=model,
        witness=witness,
        witness_side=side,
        pure_state_labels=tuple(l for l, _ in pure),
        nonrefinable_labels=tuple(l for l, _ in atoms),
        states_simplicial=s_simp,
        effects_simplicial=e_simp,
    )


def build_ncom(g: Gpt) -> OntModel:
    """The point-mass model of a noncontextual theory: ontic points indexed
    by the pure states, effect frame the exact dual basis."""
    verdict = classify(g)
    if not verdict.noncontextual:
        raise InputError(
            "theory is ontologically contextual; see the attached decomposition "
            f"witness on the {verdict.witness_side} side"
        )
    return verdict.model


# ---------------------------------------------------------------------------
# unbounded-cardinality embedding by exact LP


def _embedding_question(h_pool: Sequence[Vec], r_pool: Sequence[Vec]) -> tuple[Vec, list[Vec]]:
    """The membership question of `embed_lp`: the flattened identity, and the
    flattened outer products h r^T in effect-ray-major order."""
    dim = len(h_pool[0])
    target = tuple(Fraction(int(i == j)) for i in range(dim) for j in range(dim))
    columns = [tuple(x for row in outer(h, r) for x in row) for h, r in product(h_pool, r_pool)]
    return target, columns


@dataclass(frozen=True)
class LpEmbedding:
    """The answer of `embed_lp`: the membership certificate `member_cone`
    returned for the embedding question, and the model read from its
    expansion.  The Farkas matrix is the certificate's separator."""

    model: OntModel | None
    certificate: MembershipCertificate
    effect_ray_pool: tuple[Vec, ...]
    state_point_pool: tuple[Vec, ...]

    @property
    def found(self) -> bool:
        return self.model is not None

    @property
    def farkas(self) -> Mat | None:
        """dim x dim matrix Y with tr Y > 0 and h^T Y r <= 0 on every pair."""
        y = self.certificate.separator
        if y is None:
            return None
        dim = len(self.effect_ray_pool[0])
        return tuple(tuple(-y[i * dim + j] for j in range(dim)) for i in range(dim))

    def verify_farkas(self) -> bool:
        return not self.certificate.inside and self.certificate.verify(
            *_embedding_question(self.effect_ray_pool, self.state_point_pool)
        )


def _ordered_rays(rays: Sequence[Vec]) -> tuple[Vec, ...]:
    # deterministic tie-break: frames without negative entries first
    return tuple(sorted(rays, key=lambda v: (sum(1 for x in v if x < 0), v)))


def embed_lp(g: Gpt) -> LpEmbedding:
    """Decide whether any finite ontological model exists, by one exact
    membership question (`cones.member_cone`).

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
    cert = member_cone(*_embedding_question(h_pool, r_pool))
    model = None
    if cert.inside:
        support = [(x, h, r) for x, (h, r) in zip(cert.coefficients, product(h_pool, r_pool)) if x > 0]
        model = OntModel(
            state_frame=tuple(r for _, _, r in support),
            effect_frame=tuple(vec_scale(x, h) for x, h, _ in support),
        )
        _require_model(model, g, InternalCheckError, "LP embedding failed verification: ")
    return LpEmbedding(model=model, certificate=cert, effect_ray_pool=h_pool, state_point_pool=r_pool)


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
    passes gets Fraction frames, and the first in deterministic order is
    returned.  For a valid theory such a candidate is a model, so a failed
    `verify_ncom` is a fault and raises `InternalCheckError`.  Effect side:
    the dual bases give the identity, unit = sum_i s_i h_i normalisation
    and the frame sum, the h_i (rays of the largest effect cone the states
    allow) nonnegative weights, the screen responses >= 0, and the stored
    complements unit - e, in the effect cone, responses <= 1.  The state
    side swaps the roles: maximal state points are normalised and give
    responses in [0, 1], and the screen gives the weights.
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
            _require_model(model, g, InternalCheckError, "screened effect-side model failed verification: ")
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
            _require_model(model, g, InternalCheckError, "screened state-side model failed verification: ")
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
    """Two distinct ontic distributions no allowed effect can separate: they
    differ by a positive multiple of `null_direction`, whose mixture of the
    state frame is 0, so they prepare the same state and every effect, stored
    or not, gives both the printed `statistics`."""

    first: tuple[Fraction, ...]  # extremal: pushed until a coordinate hits zero
    second: tuple[Fraction, ...]  # the uniform reference distribution
    null_direction: Vec
    statistics: tuple[tuple[str, Fraction], ...]  # the shared response row

    def verify(self, g: Gpt, m: OntModel) -> bool:
        delta = self.null_direction
        if not len(self.first) == len(self.second) == len(delta) == m.ontic_size:
            return False
        for dist in (self.first, self.second):
            if any(x < 0 for x in dist) or sum(dist) != 1:
                return False
        # t > 0 with first - second = t * delta, so the two also differ
        diff = vec_sub(self.first, self.second)
        k = next((i for i, d in enumerate(delta) if d != 0), None)
        if k is None or diff[k] / delta[k] <= 0 or diff != vec_scale(diff[k] / delta[k], delta):
            return False
        if m.mixture(delta, g.dim) != zeros(g.dim):
            return False
        state = m.mixture(self.second, g.dim)
        return self.statistics == tuple((label, inner(e, state)) for label, e in g.effects())


def indistinguishability_witness(g: Gpt, m: OntModel) -> IndistinguishabilityWitness | None:
    """For models with more ontic points than dimensions, produce two
    distributions over the ontic set with identical statistics on every
    effect of the theory; None when the cardinality equals the dimension.

    The direction is the first canonical null vector of the d x n matrix of
    the state frame, which has one as n > d.  g must be valid, as every
    report builder checks first: its effects then span, so the response
    matrix <e, D(l)> has the same canonical null basis.  The direction sums
    to <unit, sum_l delta_l D(l)> = 0, as each D(l) is normalised, so it
    has a negative entry.  The statistics are <e, c> at the barycentre c.
    """
    _require_model(m, g, InputError, "model is inconsistent with the theory: ")
    n = m.ontic_size
    if n <= g.dim:
        return None
    direction = null_space(tuple(zip(*m.state_frame)))[0]
    uniform = tuple(Fraction(1, n) for _ in range(n))
    t = min(uniform[i] / -d for i, d in enumerate(direction) if d < 0)
    pushed = tuple(u + t * d for u, d in zip(uniform, direction))
    centre = m.mixture(uniform, g.dim)
    stats = tuple((label, inner(e, centre)) for label, e in g.effects())
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
