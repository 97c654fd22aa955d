"""Whole-theory decisions are memoized by theory value, within a bound.

`validate` and `classify` run once per distinct theory in a process, so a
`classify-resource` sweep decides its host once; every per-theory result
in `theory` and `contextuality` lives in one bounded scope per theory, so a
sweep over many extended theories holds a fixed number of them.  That
scope is the package's only result cache: `closed_theory` enters the cones
it holds, so an extension costs one double description.  A theory hashes
by value and computes that hash once.
"""

import copy
import io
import os
import pickle
import subprocess
import sys
import threading
from collections import Counter
from contextlib import contextmanager, redirect_stdout
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import pytest

from gptlab import catalog, cones, contextuality, linalg, lp, resources, theory
from gptlab.cli import run
from gptlab.contextuality import classify
from gptlab.linalg import vec
from gptlab.resources import classify_bonus, extend_theory
from gptlab.theory import BonusElement, effect_cone, state_cone, validate
from gptlab.theoryfile import serialize, parse_text

from helpers import clear_theory_caches

# ten bonuses on the trit; the first effect and the first state expel a
# generator, and the last two states lie inside the simplex, so both extend
# it to the same theory
SWEEP = [
    ("effect", "3/2,0,-1/2"),
    ("effect", "3/2,-1/2,0"),
    ("effect", "5/4,0,-1/4"),
    ("effect", "-1/2,1/2,1"),
    ("effect", "1/2,1/2,0"),
    ("state", "3/2,-1/2,0"),
    ("state", "5/4,-1/4,0"),
    ("state", "-1/2,1,1/2"),
    ("state", "1/3,1/3,1/3"),
    ("state", "1/2,1/2,0"),
]


@contextmanager
def recorded(module, name):
    """Record the theory each call of module.name gets inside the block: a
    theory is validated when `theory._base_violations` runs on it, and
    classified when `contextuality.no_restriction_check`, which only
    `classify` calls, does."""
    seen = []
    original = getattr(module, name)

    def recording(g):
        seen.append(g)
        return original(g)

    with patch.object(module, name, recording):
        yield seen



def test_classify_resource_sweep_decides_each_theory_once():
    clear_theory_caches()
    host = catalog.get("classical_trit")
    with (
        recorded(theory, "_base_violations") as validated,
        recorded(contextuality, "no_restriction_check") as classified,
        redirect_stdout(io.StringIO()),
    ):
        for kind, text in SWEEP:
            run(["classify-resource", "classical_trit", f"--{kind}={text}", "--verify"])
    counts = Counter(validated)
    assert counts[host] == 1
    assert set(counts.values()) == {1}
    assert len(counts) == len(SWEEP)  # the host and nine distinct extensions
    # the host and every extension are classified, each once
    assert Counter(classified) == counts


def test_memoized_verdicts_are_shared_and_keyed_by_the_whole_value():
    clear_theory_caches()
    g = catalog.get("rebit_completion")
    with (
        recorded(theory, "_base_violations") as validated,
        recorded(contextuality, "no_restriction_check") as classified,
    ):
        verdict = classify(g)
        assert classify(g) is verdict
        renamed = replace(g, name="renamed")
        assert classify(renamed) is not verdict
        assert validate(renamed) is not validate(g)
    assert validated == classified == [g, renamed]


def test_every_memo_shares_one_bound_and_stays_within_it():
    modules = (linalg, lp, cones, theory, contextuality, resources)
    caches = {f for m in modules for f in vars(m).values() if hasattr(f, "cache_parameters")}
    assert caches == {theory._scope}
    assert theory._scope.cache_parameters()["maxsize"] == theory._MEMO_SIZE
    memoized = {n for m in modules for n, f in vars(m).items() if hasattr(f, "__wrapped__") and f not in caches}
    assert memoized == {
        "effect_cone", "state_cone", "max_state_points", "validate", "pure_states",
        "nonrefinable_effects", "classify",
    }
    clear_theory_caches()
    trit = catalog.get("classical_trit")
    extra = 2 * theory._MEMO_SIZE
    with recorded(contextuality, "no_restriction_check") as classified:
        for k in range(1, extra + 1):
            t = 1 + Fraction(k, extra)
            classify_bonus(trit, BonusElement("state", "b", (t, 1 - t, Fraction(0))))
            assert theory._scope.cache_info().currsize <= theory._MEMO_SIZE
    assert len(classified) == len(set(classified)) == extra + 1
    assert theory._scope.cache_info().currsize == theory._MEMO_SIZE


def test_classify_resource_sweep_runs_one_double_description_per_operation(monkeypatch):
    clear_theory_caches()
    host = catalog.get("classical_trit")
    classify(host)
    runs = []
    dd = cones.double_description

    def counting(*args):
        runs.append(args)
        return dd(*args)

    monkeypatch.setattr(cones, "double_description", counting)
    with redirect_stdout(io.StringIO()):
        for kind, text in SWEEP:
            run(["classify-resource", "classical_trit", f"--{kind}={text}", "--verify"])
    # the extended cone is built once; the extension's own effect and state
    # cones are that cone and its dual, served from the same run
    assert len(runs) == len(SWEEP)
    for kind, text in (SWEEP[0], SWEEP[5]):
        assert extend_theory(host, BonusElement(kind, "b", vec(*text.split(",")))).expelled


@pytest.mark.parametrize("name", ["bonus_effect", *catalog.bundled_names()])
def test_a_fix_effects_closure_closes_its_states_once(name, monkeypatch):
    # `closed_theory` enters the points it computed from the closure's
    # effect cone as `max_state_points`, so neither the closure's own checks
    # nor a later call close that cone again
    clear_theory_caches()
    host = catalog.get("classical_trit" if name == "bonus_effect" else name)
    theory.max_state_points(host)
    calls = []
    close_states = theory.close_states
    monkeypatch.setattr(theory, "close_states", lambda *args: calls.append(args) or close_states(*args))
    if name == "bonus_effect":
        closed = extend_theory(host, BonusElement("effect", "b", vec("-1/2", "1/2", 1))).theory
    else:
        closed = theory.complete(host, theory.FIX_EFFECTS)
    points = theory.max_state_points(closed)
    assert len(calls) == 1
    assert points == close_states(cones.cone_from_rays(closed.effect_vectors, closed.dim), closed.unit)


@pytest.mark.parametrize("name", catalog.bundled_names())
def test_theories_hash_by_value_once(name):
    text = serialize(catalog.get(name))
    a, b = parse_text(text), parse_text(text)
    assert a is not b and a == b and hash(a) == hash(b)
    assert hash(a) == hash(tuple(getattr(a, f.name) for f in fields(a)))
    renamed = replace(a, name="renamed")
    assert renamed != a and hash(renamed) == hash(replace(b, name="renamed"))
    assert hash(renamed) == hash(tuple(getattr(renamed, f.name) for f in fields(renamed)))
    assert len({a, b, renamed}) == 2
    # the cached hash is no field: equality, repr and fields ignore it
    assert [f.name for f in fields(a)] == [f.name for f in fields(theory.Gpt)]
    assert repr(a) == repr(b) and "_hash" not in repr(a)
    # copies keep the value contract
    for copied in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
        assert copied == a and hash(copied) == hash(a) and len({a, copied}) == 1


def test_a_theory_hash_survives_pickling_between_interpreters(tmp_path):
    # string hashes are salted per interpreter, so a hash cached in the
    # pickling process must not travel with the theory
    dump = tmp_path / "rebit.pickle"
    script = (
        "import pickle, sys\n"
        "from pathlib import Path\n"
        "from gptlab import catalog\n"
        "g = catalog.get('rebit')\n"
        "if sys.argv[1] == 'dump':\n"
        "    hash(g)\n"
        "    Path(sys.argv[2]).write_bytes(pickle.dumps(g))\n"
        "else:\n"
        "    h = pickle.loads(Path(sys.argv[2]).read_bytes())\n"
        "    print(h == g, hash(h) == hash(g), len({g, h}))\n"
    )
    src = str(Path(theory.__file__).parents[1])
    for seed, mode in (("1", "dump"), ("2", "load")):
        done = subprocess.run(
            [sys.executable, "-c", script, mode, str(dump)],
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
            capture_output=True,
            text=True,
            check=True,
        )
    assert done.stdout == "True True 1\n"


def test_per_theory_scopes_are_safe_to_share_between_threads():
    trit = catalog.get("classical_trit")
    extra = 2 * theory._MEMO_SIZE
    pool = [
        extend_theory(trit, BonusElement("state", "b", (1 + Fraction(k, extra), -Fraction(k, extra), Fraction(0)))).theory
        for k in range(1, extra + 1)
    ]

    def answers(g):
        c, e, s = classify(g), effect_cone(g), state_cone(g)
        return c.noncontextual, validate(g).ok, e.rays, e.facets, s.rays, s.facets

    clear_theory_caches()
    expected = [answers(g) for g in pool]
    errors = []

    def work(offset):
        try:
            for i in range(4 * len(pool)):
                k = (offset + 7 * i) % len(pool)
                assert answers(pool[k]) == expected[k]
        except Exception as exc:  # reported below, from the main thread
            errors.append(exc)

    clear_theory_caches()
    threads = [threading.Thread(target=work, args=(t,)) for t in range((os.cpu_count() or 1) + 2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert theory._scope.cache_info().currsize <= theory._MEMO_SIZE
