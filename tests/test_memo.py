"""Whole-theory decisions are memoized by theory value, within a bound.

`validate` and `classify` run once per distinct theory in a process, so a
`classify-resource` sweep decides its host once; every per-theory memo in
`theory` and `contextuality` shares one bound, so a sweep over many
extended theories holds a fixed number of them.
"""

import io
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import replace
from fractions import Fraction
from unittest.mock import patch

from gptlab import catalog, contextuality, theory
from gptlab.cli import run
from gptlab.contextuality import classify
from gptlab.resources import classify_bonus
from gptlab.theory import BonusElement, validate

from helpers import clear_theory_caches

# ten bonuses on the trit; the last two states lie inside the simplex, so
# both extend it to the same theory
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


def test_classify_resource_sweep_decides_each_theory_once():
    clear_theory_caches()
    host = catalog.get("classical_trit")
    validated = []
    base = theory._base_violations

    def recording(g):
        validated.append(g)
        return base(g)

    with patch.object(theory, "_base_violations", recording), redirect_stdout(io.StringIO()):
        for kind, text in SWEEP:
            run(["classify-resource", "classical_trit", f"--{kind}={text}", "--verify"])
    counts = Counter(validated)
    assert counts[host] == 1
    assert set(counts.values()) == {1}
    assert len(counts) == len(SWEEP)  # the host and nine distinct extensions
    # the host and every extension are classified, each once
    assert classify.cache_info().misses == len(counts)


def test_memoized_verdicts_are_shared_and_keyed_by_the_whole_value():
    clear_theory_caches()
    g = catalog.get("rebit_completion")
    verdict = classify(g)
    assert classify(g) is verdict
    renamed = replace(g, name="renamed")
    assert classify(renamed) is not verdict
    assert validate(renamed) is not validate(g)
    assert classify.cache_info().misses == 2
    assert validate.cache_info().misses == 2


def test_every_memo_shares_one_bound_and_stays_within_it():
    fs = {f for m in (theory, contextuality) for f in vars(m).values() if hasattr(f, "cache_parameters")}
    assert {f.cache_parameters()["maxsize"] for f in fs} == {theory._MEMO_SIZE}
    clear_theory_caches()
    trit = catalog.get("classical_trit")
    extra = 2 * theory._MEMO_SIZE
    for k in range(1, extra + 1):
        t = 1 + Fraction(k, extra)
        classify_bonus(trit, BonusElement("state", "b", (t, 1 - t, Fraction(0))))
    assert classify.cache_info().misses == extra + 1
    assert all(f.cache_info().currsize <= theory._MEMO_SIZE for f in fs)
    assert validate.cache_info().currsize == theory._MEMO_SIZE
