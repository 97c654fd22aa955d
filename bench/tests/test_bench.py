"""Tests of the benchmark itself: input generators, oracles, tracing and
agreement between what run.py prints and BENCHMARK.json.

Run from the repository root: python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path
from random import Random

import pytest

import run
import theories
from tracer import Tracer

ROOT = run.ROOT
SCRATCH = ROOT / ".bench_work" / "tests"


@pytest.fixture
def scratch():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    yield SCRATCH
    shutil.rmtree(SCRATCH, ignore_errors=True)


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.gpt"))}


# ---------------------------------------------------------------------------
# seeded inputs


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, scratch):
    first, second = scratch / "a", scratch / "b"
    first.mkdir()
    second.mkdir()
    ops_a = run.generate(workload, 7, first)
    ops_b = run.generate(workload, 7, second)
    assert _files(first) == _files(second)
    strip = lambda groups: [[(op.label, op.expected, op.precheck) for op in ops] for _, ops in groups]  # noqa: E731
    assert strip(ops_a) == strip(ops_b)


def test_other_seed_gives_other_subgpt_inputs(scratch):
    first, second = scratch / "a", scratch / "b"
    first.mkdir()
    second.mkdir()
    run.generate("subgpt", 0, first)
    run.generate("subgpt", 1, second)
    a, b = _files(first), _files(second)
    assert a.keys() == b.keys()
    assert a["nested_reproducer.gpt"] == b["nested_reproducer.gpt"]
    assert sum(a[name] != b[name] for name in a) == len(a) - 1


def test_trit_scan_covers_the_grid_once_per_kind():
    ops = theories.trit_bonuses()
    assert len(ops) == 162 == len(set(ops))
    assert {kind for kind, _ in ops} == {"effect", "state"}


def test_written_theories_parse_back_exactly():
    from gptlab.theoryfile import parse_text

    rng = Random(5)
    for t in (
        theories.cube(3, rng),
        theories.classical_hosted(4, rng, "h"),
        theories.complementary_pair(3, rng, "p"),
        theories.nested_triangle(rng, "n"),
        theories.reproducer(),
    ):
        g = parse_text(theories.theory_text(t))
        assert g.unit == t.unit
        assert g.effects() == t.effects
        assert g.states() == t.states
        assert g.claims_no_restriction == t.no_restriction


# ---------------------------------------------------------------------------
# oracles


def test_cube_oracle():
    rng = Random(0)
    assert theories.cube(1, rng).verdict == theories.NONCONTEXTUAL  # a classical bit
    for k in (2, 3, 4):
        t = theories.cube(k, rng)
        assert t.verdict == theories.CONTEXTUAL
        assert len({v for _, v in t.states}) == 2**k > t.dim == k + 1


def test_bundled_oracle_names_the_whole_catalog():
    from gptlab import bundled_names

    assert set(theories.BUNDLED_VERDICTS) == set(bundled_names())
    contextual = {n for n, v in theories.BUNDLED_VERDICTS.items() if v == theories.CONTEXTUAL}
    assert contextual == {"rebit", "rebit_completion"}


@pytest.mark.parametrize(
    "kind, vector, expected",
    [
        ("effect", ("1/2", "1/2", "0"), "classical"),
        ("effect", ("1", "0", "0"), "classical"),
        ("effect", ("3/2", "0", "-1/2"), "nonclassical"),
        ("effect", ("-1/4", "1/2", "3/4"), "nonclassical"),
        ("state", ("1/2", "1/4", "1/4"), "classical"),
        ("state", ("0", "0", "1"), "classical"),
        ("state", ("1", "1/2", "-1/2"), "nonclassical"),
        ("state", ("-1/2", "3/4", "3/4"), "nonclassical"),
        ("state", ("3/2", "-1/4", "-1/4"), "divergent"),  # swallows p1
        ("state", ("5/4", "0", "-1/4"), "divergent"),  # p1 lands on an edge
        ("state", ("-1/2", "-1/2", "2"), "divergent"),  # swallows p3
    ],
)
def test_trit_oracle(kind, vector, expected):
    assert theories.trit_oracle(kind, tuple(Q(x) for x in vector)) == expected


def test_planted_models_hold_and_broken_ones_do_not():
    rng = Random(11)
    for t in (
        theories.classical_hosted(3, rng, "h"),
        theories.complementary_pair(4, rng, "p"),
        theories.nested_triangle(rng, "n"),
        theories.reproducer(),
    ):
        states, effects = t.model
        assert theories.model_holds(t, states, effects)
        assert not theories.model_holds(t, states[1:], effects[1:])
        # swapping two effect-frame vectors keeps the sum but breaks the identity
        assert not theories.model_holds(t, states, (effects[1], effects[0]) + effects[2:])


def test_reproducer_frame_is_the_roadmap_triangle():
    t = theories.reproducer()
    assert [s[:2] for s in t.model[0]] == [(2, 3), (-9, -2), (6, 5)]
    assert len(t.states) == 5 and len(t.effects) == 12


def test_failure_reasons():
    op = run._analyze("x", "x", theories.NONCONTEXTUAL)
    ok = "conclusion.theory_verdict = ontologically noncontextual\nverified certificates: 3\n"
    assert run.failure(op, {"error": None, "output": ok}) is None
    wrong = ok.replace("noncontextual", "contextual")
    assert "oracle" in run.failure(op, {"error": None, "output": wrong})
    unverified = ok.splitlines()[0] + "\n"
    assert "re-verification" in run.failure(op, {"error": None, "output": unverified})
    assert run.failure(op, {"error": "InternalCheckError: x", "output": ""}).startswith("Internal")


def test_only_the_item1_wrong_verdict_keeps_the_run_correct(scratch):
    wrong = {"error": None, "output": "conclusion.theory_verdict = ontologically contextual\nverified certificates: 3\n"}
    hosted = run._analyze("hosted3_1", "x", theories.NONCONTEXTUAL)
    nested = run._analyze("nested_1", "x", theories.NONCONTEXTUAL, known_wrong=theories.CONTEXTUAL)
    why_hosted, why_nested = run.failure(hosted, wrong), run.failure(nested, wrong)
    assert not run.known_defect(hosted, why_hosted)
    assert run.known_defect(nested, why_nested)
    raised = run.failure(nested, {"error": "InternalCheckError: x", "output": ""})
    assert not run.known_defect(nested, raised)

    assert run.correct([{"failures": []}, {"failures": [("nested_1", why_nested, True)]}])
    assert not run.correct([{"failures": [("nested_1", why_nested, True)]}, {"failures": [("hosted3_1", why_hosted, False)]}])

    ops = [op for _, group in run.generate("subgpt", 0, scratch) for op in group]
    excused = {op.label for op in ops if op.known_wrong}
    assert excused == {"nested_reproducer", "nested_1", "nested_2", "nested_3", "nested_4"}


# ---------------------------------------------------------------------------
# tracing


def test_summary_self_and_inclusive_time():
    tracer = Tracer()
    tracer.spans[:] = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("a", 2.0, 3.0, 1),  # recursion through b: not counted twice inclusively
        ("c", 5.0, 9.0, 0),
    ]
    summary = tracer.summary()
    assert summary["a"] == [2, 10.0, (10.0 - 3.0 - 4.0) + 1.0]
    assert summary["b"] == [1, 3.0, 2.0]
    assert summary["c"] == [1, 4.0, 4.0]


def test_worker_traces_every_layer_it_reaches(scratch):
    spans = scratch / "spans.jsonl"
    spec = {
        "src": str(ROOT / "src"),
        "preload": "rebit",
        "ops": [["analyze", "rebit", "--verify", "--format", "structured"]],
        "spans": str(spans),
    }
    done = subprocess.run(
        [sys.executable, str(run.BENCH / "worker.py"), json.dumps(spec)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    report = json.loads(done.stdout)
    assert report["ops"][0]["error"] is None
    assert "conclusion.theory_verdict = ontologically contextual" in report["ops"][0]["output"]
    layers = report["layers"]
    for name in ("cli.run", "analyses.analyze_report", "contextuality.embed_lp", "lp.solve_feasibility",
                 "linalg.rank", "theory.validate", "report.Report.verify_all", "cones.double_description"):
        assert layers[name][0] > 0, name
    calls, incl, _ = layers["cli.run"]
    assert calls == 1 and incl <= report["ops"][0]["seconds"]
    lines = [json.loads(line) for line in spans.read_text().splitlines()]
    assert len(lines) == sum(row[0] for row in layers.values())
    assert all(-1 <= parent < i and parent < len(lines) for i, (_, _, _, parent) in enumerate(lines))
    assert report["counters"]["lp.solve_feasibility.cells"] > 0


# ---------------------------------------------------------------------------
# the printed result against BENCHMARK.json


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_declared_names_match():
    bench = _benchmark_json()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert any(m["name"] == "setup_s" and m["bound"] == max(x["bound"] for x in bench["end_to_end"])
               for m in bench["end_to_end"])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    bench = _benchmark_json()
    cmd = bench["command"] + ["--workload", "nr-cube", "--seed", "2", "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=180)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 9
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in bench[key]}
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_pass_count_follows_seconds_not_the_clock():
    assert [run.pass_count(w, 30, 0) for w in run.WORKLOADS] == [13, 7, 5]
    assert [run.pass_count(w, 30, 1) for w in run.WORKLOADS] == [7, 4, 3]
    assert run.pass_count("subgpt", 1, 0) == run.MIN_PASSES


def test_same_seed_attempts_and_fails_the_same_operations():
    bench = _benchmark_json()
    cmd = bench["command"] + ["--workload", "subgpt", "--seed", "1", "--seconds", "1", "--trace", "0"]
    counts = set()
    for _ in range(2):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=180)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        counts.add((result["attempted"], result["failed"]))
    assert len(counts) == 1


def test_fails_without_the_program(scratch):
    bare = scratch / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    bench = _benchmark_json()
    cmd = bench["command"] + ["--workload", "nr-cube", "--seed", "0", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
