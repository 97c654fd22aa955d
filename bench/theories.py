"""Seeded benchmark inputs and the oracles that judge gptlab's answers.

Nothing here imports gptlab.  Theories are built and written in the
theory-file format with plain ``fractions.Fraction`` arithmetic, and every
expected verdict comes from how the input was constructed:

* cube_K (states [-1,1]^K lifted to (x, 1), cross-polytope effects,
  no-restriction) is contextual for K >= 2: it has 2^K pure states but
  dimension K + 1, so its state set is not a simplex.
* planted subGPTs carry an explicit same-dimension ontological model,
  checked here by `model_holds` before the theory is used, so the
  expected verdict is noncontextual.
* the bundled theories have published verdicts (`BUNDLED_VERDICTS`).
* a bonus element on the classical trit is classical iff it lies in the
  trit's own effect (state) set; a bonus state that swallows a vertex of
  the simplex is the documented `divergent` outcome.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from random import Random

Q = Fraction
NONCONTEXTUAL = "ontologically noncontextual"
CONTEXTUAL = "ontologically contextual"

BUNDLED_VERDICTS = {
    "classical_bit": NONCONTEXTUAL,
    "classical_trit": NONCONTEXTUAL,
    "spekkens_container": NONCONTEXTUAL,
    "spekkens_toy": NONCONTEXTUAL,
    "rebit": CONTEXTUAL,
    "rebit_completion": CONTEXTUAL,
}


@dataclass(frozen=True)
class Theory:
    name: str
    unit: tuple[Fraction, ...]
    effects: tuple[tuple[str, tuple[Fraction, ...]], ...]
    states: tuple[tuple[str, tuple[Fraction, ...]], ...]
    no_restriction: bool
    verdict: str
    # planted (state frame, effect frame); None when the oracle needs no model
    model: tuple[tuple[tuple[Fraction, ...], ...], tuple[tuple[Fraction, ...], ...]] | None = None

    @property
    def dim(self) -> int:
        return len(self.unit)


# ---------------------------------------------------------------------------
# exact linear algebra, kept apart from gptlab.linalg on purpose


def dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Q(0))


def rank(rows) -> int:
    m = [list(r) for r in rows]
    r = 0
    width = len(m[0]) if m else 0
    for c in range(width):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def inverse(rows):
    """Exact inverse of a square matrix, or None when it is singular."""
    n = len(rows)
    m = [[Q(x) for x in row] + [Q(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            return None
        m[c], m[pivot] = m[pivot], m[c]
        p = m[c][c]
        m[c] = [x / p for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return tuple(tuple(row[n:]) for row in m)


def mat_vec(m, v):
    return tuple(dot(row, v) for row in m)


def transpose(m):
    return tuple(zip(*m))


def _basis(i: int, n: int) -> tuple[Fraction, ...]:
    return tuple(Q(int(i == j)) for j in range(n))


def model_holds(t: Theory, state_frame, effect_frame) -> bool:
    """Every condition of a finite ontological model, checked from scratch:
    normalised ontic states, an effect frame summing to the unit, frames
    reconstructing the identity, nonnegative ontic weights and response
    functions in [0, 1]."""
    d = t.dim
    if len(state_frame) != len(effect_frame) or not state_frame:
        return False
    if any(dot(t.unit, s) != 1 for s in state_frame):
        return False
    if tuple(sum((f[i] for f in effect_frame), Q(0)) for i in range(d)) != t.unit:
        return False
    for i in range(d):
        for j in range(d):
            entry = sum((s[i] * f[j] for s, f in zip(state_frame, effect_frame)), Q(0))
            if entry != int(i == j):
                return False
    if any(dot(s, f) < 0 for _, s in t.states for f in effect_frame):
        return False
    return all(0 <= dot(e, s) <= 1 for _, e in t.effects for s in state_frame)


def theory_well_formed(t: Theory) -> bool:
    """The input invariants gptlab's validation checks, recomputed here so a
    generator fault shows as a benchmark error, not as a program failure."""
    d = t.dim
    if any(len(v) != d for _, v in t.effects + t.states):
        return False
    if any(dot(t.unit, s) != 1 for _, s in t.states):
        return False
    if any(not 0 <= dot(e, s) <= 1 for _, e in t.effects for _, s in t.states):
        return False
    return rank([v for _, v in t.effects]) == d and rank([v for _, v in t.states]) == d


# ---------------------------------------------------------------------------
# the theory-file writer


def rational_text(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _vec_text(v) -> str:
    return "[" + ", ".join(rational_text(x) for x in v) + "]"


def theory_text(t: Theory) -> str:
    lines = [
        f"name: {t.name}",
        f"dimension: {t.dim}",
        f"unit: {_vec_text(t.unit)}",
        f"no_restriction: {'true' if t.no_restriction else 'false'}",
        "",
        "effects:",
    ]
    lines += [f"  {label} = {_vec_text(v)}" for label, v in t.effects]
    lines += ["", "states:"]
    lines += [f"  {label} = {_vec_text(v)}" for label, v in t.states]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# nr-cube: hypercube states, cross-polytope effects


def cube(k: int, rng: Random) -> Theory:
    """cube_K with the seed choosing a coordinate permutation and the order
    of the generators; the geometry, and so the work, is seed-independent."""
    perm = list(range(k))
    rng.shuffle(perm)
    half = Q(1, 2)
    effects = []
    for i in range(k):
        for sign in (1, -1):
            v = [Q(0)] * k + [half]
            v[perm[i]] = sign * half
            effects.append(tuple(v))
    states = [tuple(Q(x) for x in signs) + (Q(1),) for signs in itertools.product((1, -1), repeat=k)]
    rng.shuffle(effects)
    rng.shuffle(states)
    return Theory(
        name=f"cube{k}",
        unit=(Q(0),) * k + (Q(1),),
        effects=tuple((f"f{i + 1}", v) for i, v in enumerate(effects)),
        states=tuple((f"s{i + 1}", v) for i, v in enumerate(states)),
        no_restriction=True,
        verdict=CONTEXTUAL if 2**k > k + 1 else NONCONTEXTUAL,
    )


# ---------------------------------------------------------------------------
# subgpt: restricted theories with a planted model


def _unimodular(d: int, rng: Random):
    """One random shear and a row permutation: an integer matrix of
    determinant +-1 and its integer inverse, a change of coordinates that
    keeps entries small and exact."""
    a = [list(_basis(i, d)) for i in range(d)]
    i, j = rng.sample(range(d), 2)
    c = rng.choice((-1, 1))
    a[i] = [x + c * y for x, y in zip(a[i], a[j])]
    rng.shuffle(a)
    a = tuple(tuple(row) for row in a)
    return a, inverse(a)


def _planted(name: str, effects, states, rng: Random) -> Theory:
    """A subGPT of the d-simplex (unit (1, ..., 1)), disguised by a
    unimodular change of coordinates; its planted model is the simplex's
    own point-mass model."""
    d = len(states[0])
    basis = [_basis(i, d) for i in range(d)]
    a, a_inv = _unimodular(d, rng)
    a_inv_t = transpose(a_inv)
    states = [mat_vec(a, s) for s in states]
    effects = [mat_vec(a_inv_t, e) for e in effects]
    rng.shuffle(states)
    rng.shuffle(effects)
    t = Theory(
        name=name,
        unit=mat_vec(a_inv_t, (Q(1),) * d),
        effects=tuple((f"e{i + 1}", v) for i, v in enumerate(effects)),
        states=tuple((f"s{i + 1}", v) for i, v in enumerate(states)),
        no_restriction=False,
        verdict=NONCONTEXTUAL,
        model=(tuple(mat_vec(a, s) for s in basis), tuple(mat_vec(a_inv_t, e) for e in basis)),
    )
    if not theory_well_formed(t) or not model_holds(t, *t.model):
        raise AssertionError(f"generator fault: planted theory {name} fails its own checks")
    return t


def _sum_zero_axes(d: int, rng: Random):
    """d - 1 independent random integer directions inside the simplex's
    affine hull (coordinates summing to zero)."""
    while True:
        axes = []
        for _ in range(d - 1):
            v = [rng.randint(-2, 2) for _ in range(d - 1)]
            axes.append(tuple(Q(x) for x in v + [-sum(v)]))
        if rank(axes) == d - 1:
            return axes


def classical_hosted(d: int, rng: Random, name: str) -> Theory:
    """The d-simplex's full effect set with 2(d - 1) interior states, one
    on each side of the barycentre, halfway to the simplex's boundary,
    along d - 1 seeded axes: the state side is restricted (a
    cross-polytope, so the number of facets, and so the LP size, is the
    same for every seed) and the simplex hosts it."""
    basis = [_basis(i, d) for i in range(d)]
    centre = (Q(1, d),) * d
    states = []
    for axis in _sum_zero_axes(d, rng):
        reach = Q(1, d) / max(abs(x) for x in axis)  # the simplex boundary along the axis
        for sign in (1, -1):
            t = sign * reach / 2
            states.append(tuple(c + t * x for c, x in zip(centre, axis)))
    return _planted(name, basis, states, rng)


def complementary_pair(d: int, rng: Random, name: str) -> Theory:
    """The d-simplex's pure states with d - 1 two-outcome measurements
    {e, unit - e}, where e takes the values 0, 1/(d-1), ..., 1 on the
    simplex's vertices in a seeded order: the effect side is restricted
    (the allowed states form a parallelepiped with 2^(d-1) vertices for
    every seed) and the simplex hosts it."""
    basis = [_basis(i, d) for i in range(d)]
    levels = [Q(i, d - 1) for i in range(d)]
    while True:
        effects = [tuple(rng.sample(levels, d)) for _ in range(d - 1)]
        if rank(effects + [(Q(1),) * d]) == d:
            break
    effects = [v for e in effects for v in (e, tuple(1 - x for x in e))]
    return _planted(name, effects, basis, rng)


def _cross(o, a, b) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _nested_polygon_theory(name: str, outer, inner_points, frame) -> Theory:
    """Dimension 3, unit (0, 0, 1): states are the inner points lifted to
    (x, y, 1); effects are, per edge of the convex polygon `outer` (given
    counterclockwise), the affine functional vanishing on that edge and
    scaled to maximum 1 on the polygon, plus its complement.  The planted
    model's state frame is the triangle `frame`."""
    effects = []
    n = len(outer)
    for i in range(n):
        v, w = outer[i], outer[(i + 1) % n]
        normal = (v[1] - w[1], w[0] - v[0])  # inward for a counterclockwise polygon
        offset = -(normal[0] * v[0] + normal[1] * v[1])
        top = max(normal[0] * q[0] + normal[1] * q[1] + offset for q in outer)
        f = (normal[0] / top, normal[1] / top, offset / top)
        effects += [(f"e{i + 1}", f), (f"e{i + 1}c", (-f[0], -f[1], 1 - f[2]))]
    lift = lambda p: (Q(p[0]), Q(p[1]), Q(1))  # noqa: E731
    state_frame = tuple(lift(p) for p in frame)
    st_inv = inverse(state_frame)  # rows are points; columns of the inverse are the dual frame
    effect_frame = tuple(tuple(st_inv[r][c] for r in range(3)) for c in range(3))
    t = Theory(
        name=name,
        unit=(Q(0), Q(0), Q(1)),
        effects=tuple(effects),
        states=tuple((f"s{i + 1}", lift(p)) for i, p in enumerate(inner_points)),
        no_restriction=False,
        verdict=NONCONTEXTUAL,
        model=(state_frame, effect_frame),
    )
    if not theory_well_formed(t) or not model_holds(t, *t.model):
        raise AssertionError(f"generator fault: nested theory {name} fails its own checks")
    return t


def reproducer() -> Theory:
    """The nested-triangle instance of ROADMAP item 1: the triangle T has a
    same-dimension model, yet the exhaustive search misses it."""
    p = [("-32/5", "-4/5"), ("-57/10", "-1/2"), ("13/10", "27/10"), ("22/5", "21/5"), ("3", "18/5")]
    q = [
        ("-663/80", "-133/80"),
        ("-777/80", "-187/80"),
        ("333/200", "569/200"),
        ("467/200", "631/200"),
        ("123/20", "253/50"),
        ("117/20", "247/50"),
    ]
    to_q = lambda pts: [(Q(x), Q(y)) for x, y in pts]  # noqa: E731
    outer = to_q(q)
    if _cross(outer[0], outer[1], outer[2]) < 0:
        outer.reverse()
    return _nested_polygon_theory("nested_reproducer", outer, to_q(p), [(2, 3), (-9, -2), (6, 5)])


def nested_triangle(rng: Random, name: str) -> Theory:
    """A seeded plant of the same shape as the reproducer: a triangle T
    whose vertices sit inside short edges of a hexagon Q hugging T, and
    states touching each edge of T."""
    while True:
        t = [(Q(rng.randint(-9, 9)), Q(rng.randint(-9, 9))) for _ in range(3)]
        area = _cross(*t)
        if abs(area) < 24:
            continue
        if area < 0:
            t[1], t[2] = t[2], t[1]
        outer = []
        for i in range(3):
            tj, tk = t[(i + 1) % 3], t[(i + 2) % 3]
            # a direction near the opposite edge's: a supporting line at t_i
            d = (tk[0] - tj[0] + rng.randint(-2, 2), tk[1] - tj[1] + rng.randint(-2, 2))
            back = Q(rng.randint(1, 4), rng.randint(20, 60))
            ahead = Q(rng.randint(1, 4), rng.randint(20, 60))
            # counterclockwise around T, the segment runs against d
            outer += [
                (t[i][0] + ahead * d[0], t[i][1] + ahead * d[1]),
                (t[i][0] - back * d[0], t[i][1] - back * d[1]),
            ]
        n = len(outer)
        if len(set(outer)) == n and all(
            _cross(outer[i], outer[(i + 1) % n], outer[(i + 2) % n]) > 0 for i in range(n)
        ) and all(
            _cross(outer[2 * i], outer[2 * i + 1], q) > 0
            for i in range(3)
            for q in outer + t
            if q not in (outer[2 * i], outer[2 * i + 1], t[i])
        ):
            break
    # one state on each edge of T and one inside, as in the reproducer
    weights = []
    for i in range(3):
        mu = Q(rng.randint(1, 4), 5)
        weights.append({i: Q(0), (i + 1) % 3: mu, (i + 2) % 3: 1 - mu})
    w = [rng.randint(1, 8) for _ in range(3)]
    weights.append({j: Q(w[j], sum(w)) for j in range(3)})
    inner_points = [
        tuple(sum((wt[j] * t[j][c] for j in range(3)), Q(0)) for c in range(2)) for wt in weights
    ]
    return _nested_polygon_theory(name, outer, inner_points, t)


# ---------------------------------------------------------------------------
# trit-scan: bonus elements on the classical trit


TRIT_GRID = tuple(Q(n, 4) for n in range(-2, 7))  # the grid of scripts/scan_trit_resources.py


def trit_bonuses() -> list[tuple[str, tuple[Fraction, ...]]]:
    """Every (t, s, 1 - t - s) on the grid, once as a bonus effect and once
    as a bonus state, in the scan script's order.  The list is fixed: the
    operation that meets the cold host caches comes first in every run."""
    points = [(t, s, 1 - t - s) for t in TRIT_GRID for s in TRIT_GRID]
    return [("effect", p) for p in points] + [("state", p) for p in points]


def trit_oracle(kind: str, v) -> str:
    """Classical iff the bonus lies in the classical trit's own set:
    [0, 1]^3 for effects, the simplex for (normalised) states.  A state
    outside the simplex that swallows vertex i (v_i > 1, every other
    coordinate <= 0) leaves the extension simplicial while the bonus is
    outside the host: the conditions diverge and gptlab says so."""
    if kind == "effect":
        return "classical" if all(0 <= x <= 1 for x in v) else "nonclassical"
    if all(x >= 0 for x in v):
        return "classical"
    for i, x in enumerate(v):
        if x > 1 and all(y <= 0 for j, y in enumerate(v) if j != i):
            return "divergent"
    return "nonclassical"
