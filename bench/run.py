#!/usr/bin/env python3
"""gptlab benchmark: cold-start exact verdicts on three workloads.

Usage, from the repository root:

    python3 bench/run.py --workload {nr-cube,subgpt,trit-scan} --seed N \
        --seconds S --trace {0,1}

Workloads, run closed-loop from this one process, one operation at a time:

* nr-cube: `gptlab analyze --verify` on the no-restriction hypercube
  theories cube2, cube3, cube4.  The exhaustive same-dimension search
  (C(16, 5) state subsets at cube4) does most of the work.
* subgpt: `analyze --verify` on the six bundled theories, the ROADMAP item-1
  nested-triangle reproducer and seeded restricted theories of dimension 3
  and 4 with planted models.  The large feasibility LP of `embed_lp` and its
  support-minimisation re-solves do most of the work.
* trit-scan: `classify-resource --verify` for every bonus effect and every
  bonus state on the 9x9 grid of scripts/scan_trit_resources.py, against
  the classical trit, in one process with the host's caches warm.  About
  27k tiny LPs per pass dominate, so per-call overhead matters.

Each analyze operation runs in a fresh interpreter through the CLI entry
point, so per-theory caches start cold as in a `gptlab analyze` call.  The
operation list is repeated in passes, each in fresh processes; the number
of passes is fixed from --seconds and the workload's nominal pass time, so
a run takes about --seconds and a seed always gives the same operations to
attempt.  Times are medians over passes.  Every verdict is
checked against an oracle in theories.py that shares no code with gptlab.
An operation fails if it raises, if a certificate fails to re-verify or if
its verdict disagrees with the oracle.

--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of the traced passes (see tracer.py) and the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Every failed operation is counted in
`failed`.  `correct` is false if any operation fails, except for the known
defect of ROADMAP item 1: on the nested-triangle theories (the reproducer
and its seeded plants) the same-dimension search misses the planted model,
and `analyze` answers "ontologically contextual".  That one wrong verdict
on those theories is counted in `failed` but keeps `correct` true; any
other failure of theirs, such as a raise, a certificate that does not
re-verify or a planted model that gptlab's own check rejects, makes it
false.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from random import Random

import theories

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("nr-cube", "subgpt", "trit-scan")
MIN_PASSES = 3
# Wall time of one untraced pass (its operations, their process starts and the
# extra set-up samples) at the commit that added the benchmark, on a shared
# 2-core machine.  The number of passes follows from it and --seconds, not
# from the clock, so a seed always gives the same operations and so the same
# failures.
NOMINAL_PASS_S = {"nr-cube": 2.3, "subgpt": 4.2, "trit-scan": 6.2}
SETUP_SAMPLES = 8  # process starts per pass at least, for a steady setup_s
RUN_LIMIT_S = 170  # every run must end within 180 s

END_TO_END = (
    ("total_s", "s", "lower"),
    ("op_p50_s", "s", "lower"),
    ("op_p90_s", "s", "lower"),
    ("op_max_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

_CALLS_INCL = (
    "contextuality.classify",
    "contextuality.verify_ncom",
    "contextuality.indistinguishability_witness",
    "theory.validate",
    "theory.no_restriction_check",
    "theory.nonrefinable_effects",
    "theory.pure_states",
    "cones.reduce_generators",
    "resources.classify_bonus",
    "resources.extend_theory",
)
PER_LAYER = (
    ("lp.solve_feasibility.calls", "count", "lower"),
    ("lp.solve_feasibility.self_s", "s", "lower"),
    ("lp.solve_feasibility.cells", "count", "lower"),
    ("lp.solve_feasibility.cells_max", "count", "lower"),
    ("lp.solve_feasibility.infeasible_ratio", "ratio", "lower"),
    ("contextuality.embed_exact_dim.calls", "count", "lower"),
    ("contextuality.embed_exact_dim.incl_s", "s", "lower"),
    ("contextuality.embed_exact_dim.candidates", "count", "lower"),
    ("contextuality.embed_exact_dim.found_ratio", "ratio", "higher"),
    ("linalg.dual_basis.calls", "count", "lower"),
    ("linalg.dual_basis.self_s", "s", "lower"),
    ("linalg.rank.calls", "count", "lower"),
    ("linalg.rank.self_s", "s", "lower"),
    ("contextuality.embed_lp.calls", "count", "lower"),
    ("contextuality.embed_lp.incl_s", "s", "lower"),
    ("contextuality.embed_lp.pairs", "count", "lower"),
    ("contextuality.embed_lp.ontic_size", "count", "lower"),
    *((f"{name}.{kind}", unit, "lower") for name in _CALLS_INCL for kind, unit in (("calls", "count"), ("incl_s", "s"))),
    ("theory.validate.distinct_ratio", "ratio", "higher"),
    ("cones.reduce_generators.kept_ratio", "ratio", "higher"),
    ("cones.double_description.calls", "count", "lower"),
    ("cones.double_description.self_s", "s", "lower"),
    ("cones.double_description.rays_out", "count", "lower"),
    ("report.Report.verify_all.incl_s", "s", "lower"),
    ("report.Report.verify_all.checks", "count", "higher"),
    ("report.render_structured.incl_s", "s", "lower"),
    ("theoryfile.parse_path.incl_s", "s", "lower"),
    ("analyses.analyze_report.incl_s", "s", "lower"),
    ("analyses.resource_report.incl_s", "s", "lower"),
    ("cli.run.incl_s", "s", "lower"),
    ("trace.total_s", "s", "lower"),
    ("trace.untraced_total_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class BenchError(Exception):
    """The benchmark itself cannot run: no result is printed."""


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple[str, ...]
    key: str  # structured-report key that carries the verdict
    expected: str
    precheck: str | None = None  # failure found before the operation ran
    known_wrong: str | None = None  # a wrong verdict gptlab is known to give here


def pass_count(workload: str, seconds: float, trace: int) -> int:
    """Passes in a run: about --seconds of work at the nominal pass time,
    where a traced run spends each pass twice (untraced, then traced)."""
    return max(MIN_PASSES, round(seconds / (NOMINAL_PASS_S[workload] * (2 if trace else 1))))


def wrong_verdict(found: str, expected: str) -> str:
    return f"verdict {found!r}, oracle says {expected!r}"


def known_defect(op: Op, why: str) -> bool:
    """Whether a failure is the known wrong verdict of ROADMAP item 1."""
    return op.known_wrong is not None and why == wrong_verdict(op.known_wrong, op.expected)


def correct(passes: list[dict]) -> bool:
    """True when every failure of every pass is a known defect."""
    return all(known for p in passes for _, _, known in p["failures"])


# ---------------------------------------------------------------------------
# inputs


def _write(work: Path, t: theories.Theory) -> str:
    path = work / f"{t.name}.gpt"
    path.write_text(theories.theory_text(t), encoding="utf-8")
    return str(path.relative_to(ROOT))


def _analyze(label: str, ref: str, expected: str, precheck: str | None = None, known_wrong: str | None = None) -> Op:
    argv = ("analyze", ref, "--verify", "--format", "structured")
    return Op(label, argv, "conclusion.theory_verdict", expected, precheck, known_wrong)


def _planted_precheck(path: str, t: theories.Theory) -> str | None:
    """The planted model must also pass gptlab's own model check."""
    from gptlab.contextuality import OntModel, verify_ncom
    from gptlab.theoryfile import parse_path

    g = parse_path(str(ROOT / path))
    report = verify_ncom(OntModel(state_frame=t.model[0], effect_frame=t.model[1]), g)
    return None if report.ok else "verify_ncom rejects the planted model: " + "; ".join(report.violations)


def generate(workload: str, seed: int, work: Path) -> list[tuple[str, list[Op]]]:
    """Write the workload's theory files and return its operations, grouped
    by the process that runs them: (set-up theory reference, operations)."""
    rng = Random(f"{workload}:{seed}")
    if workload == "nr-cube":
        groups = []
        for k in (2, 3, 4):
            t = theories.cube(k, rng)
            path = _write(work, t)
            groups.append((path, [_analyze(t.name, path, t.verdict)]))
        return groups
    if workload == "subgpt":
        groups = [(name, [_analyze(name, name, v)]) for name, v in theories.BUNDLED_VERDICTS.items()]
        planted = [theories.reproducer()]
        for d, count in ((3, 2), (4, 4)):
            for i in range(count):
                planted.append(theories.classical_hosted(d, rng, f"hosted{d}_{i + 1}"))
                planted.append(theories.complementary_pair(d, rng, f"pairs{d}_{i + 1}"))
        planted += [theories.nested_triangle(rng, f"nested_{i + 1}") for i in range(4)]
        for t in planted:
            path = _write(work, t)
            # ROADMAP item 1: the search may miss a nested triangle's planted model
            known_wrong = theories.CONTEXTUAL if t.name.startswith("nested_") else None
            groups.append((path, [_analyze(t.name, path, t.verdict, _planted_precheck(path, t), known_wrong)]))
        return groups
    ops = []
    for kind, v in theories.trit_bonuses():
        text = ",".join(theories.rational_text(x) for x in v)
        argv = ("classify-resource", "classical_trit", f"--{kind}={text}", "--verify", "--format", "structured")
        ops.append(Op(f"{kind} {text}", argv, "resource.classification", theories.trit_oracle(kind, v)))
    return [("classical_trit", ops)]


def failure(op: Op, result: dict) -> str | None:
    """Why a checked operation failed, or None when it succeeded."""
    if op.precheck:
        return op.precheck
    if result["error"]:
        return result["error"]
    lines = result["output"].splitlines()
    found = [line.split(" = ", 1)[1] for line in lines if line.startswith(op.key + " = ")]
    if not any(line.startswith("verified certificates: ") for line in lines):
        return "no certificate re-verification reported"
    if len(found) != 1:
        return f"report carries {len(found)} values for {op.key}"
    if found[0] != op.expected:
        return wrong_verdict(found[0], op.expected)
    return None


# ---------------------------------------------------------------------------
# running


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    def __init__(self, groups, work: Path, deadline: float):
        self.groups = groups
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONHASHSEED="0")

    def spawn(self, preload: str, ops: list[Op], spans: str | None) -> tuple[float, dict | None, str]:
        spec = {"src": str(ROOT / "src"), "preload": preload, "ops": [list(op.argv) for op in ops], "spans": spans}
        start = _now()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
            cwd=ROOT,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - _now()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return start, None, "timed out"
        if proc.returncode == 3:
            raise BenchError(err.strip())
        if proc.returncode != 0 or not out.strip():
            return start, None, f"process exited with {proc.returncode}: {err.strip()[-300:]}"
        return start, json.loads(out.strip().splitlines()[-1]), ""

    def run_pass(self, traced: bool) -> dict:
        p = {"ops": [], "setup": [], "rss": [], "failures": [], "layers": {}, "counters": {}, "validated": set()}
        for index, (preload, ops) in enumerate(self.groups):
            spans = str(self.work / f"spans-{index}.jsonl") if traced else None
            start, report, problem = self.spawn(preload, ops, spans)
            if report is None:
                p["failures"] += [(op.label, problem, False) for op in ops]
                p["ops"] += [None] * len(ops)
                continue
            p["setup"].append(report["ready"] - start)
            p["rss"].append((report["peak_rss_kb"] / 1024, (report["peak_rss_kb"] - report["ready_rss_kb"]) / 1024))
            for op, result in zip(ops, report["ops"]):
                p["ops"].append(result["seconds"])
                why = failure(op, result)
                if why:
                    p["failures"].append((op.label, why, known_defect(op, why)))
            if traced:
                for name, (calls, incl, self_s) in report["layers"].items():
                    row = p["layers"].setdefault(name, [0, 0.0, 0.0])
                    row[0] += calls
                    row[1] += incl
                    row[2] += self_s
                for name, value in report["counters"].items():
                    merge = max if name.endswith("_max") else (lambda a, b: a + b)
                    p["counters"][name] = merge(p["counters"].get(name, 0), value)
                p["validated"].update(report["validated"])
        for _ in range(SETUP_SAMPLES - len(self.groups)):  # more set-up samples where processes are few
            start, report, _ = self.spawn(self.groups[0][0], [], None)
            if report is not None:
                p["setup"].append(report["ready"] - start)
        p["total"] = sum(t for t in p["ops"] if t is not None)
        return p


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(passes: list[dict], labels: list[str]) -> tuple[dict, list[str]]:
    samples = [t for p in passes for t in p["ops"] if t is not None]
    per_op = [[p["ops"][i] for p in passes if p["ops"][i] is not None] for i in range(len(labels))]
    medians = [_median(ts) for ts in per_op]
    slowest = max(range(len(labels)), key=lambda i: medians[i])
    setups = [s for p in passes for s in p["setup"]]
    peaks = [max(p["rss"]) for p in passes if p["rss"]]  # (peak, growth after set-up) of a pass's largest process
    values = {
        "total_s": _median([p["total"] for p in passes]),
        "op_p50_s": _median(samples),
        "op_p90_s": statistics.quantiles(samples, n=10)[8] if len(samples) > 1 else _median(samples),
        "op_max_s": medians[slowest],
        "setup_s": _median(setups),
        "peak_rss_mb": _median([peak for peak, _ in peaks]),
    }
    notes = {
        "total_s": f"median of {len(passes)} passes of {len(labels)} operations",
        "op_p50_s": f"{len(samples)} samples",
        "op_p90_s": f"{len(samples)} samples, {sum(t > values['op_p90_s'] for t in samples)} above",
        "op_max_s": f"slowest operation {labels[slowest]}, median of {len(per_op[slowest])} passes",
        "setup_s": f"{len(setups)} process starts",
        "peak_rss_mb": f"largest process of a pass, median over passes; {_median([g for _, g in peaks]):.3g} MB of it grew after set-up",
    }
    lines = [f"{n} = {values[n]:.6g} {u}  ({notes[n]})" for n, u, _ in END_TO_END]
    ranked = sorted(range(len(labels)), key=lambda i: -medians[i])[:5]
    lines.append("slowest operations: " + ", ".join(f"{labels[i]} {medians[i]:.4g} s" for i in ranked))
    return values, lines


def layer_values(p: dict, traced_total: float, untraced_total: float) -> dict:
    layers, counters = p["layers"], p["counters"]

    def row(name):
        return layers.get(name, [0, 0.0, 0.0])

    def ratio(count, base):
        return count / base if base else 0.0

    out = {}
    for name, _, _ in PER_LAYER:
        base, _, kind = name.rpartition(".")
        column = {"calls": 0, "incl_s": 1, "self_s": 2}.get(kind)
        out[name] = row(base)[column] if column is not None else counters.get(name, 0)
    lp, ed = "lp.solve_feasibility", "contextuality.embed_exact_dim"
    out[f"{lp}.infeasible_ratio"] = ratio(counters.get(f"{lp}.infeasible", 0), row(lp)[0])
    out[f"{ed}.found_ratio"] = ratio(counters.get(f"{ed}.found", 0), row(ed)[0])
    out["theory.validate.distinct_ratio"] = ratio(len(p["validated"]), row("theory.validate")[0])
    out["cones.reduce_generators.kept_ratio"] = ratio(
        counters.get("cones.reduce_generators.kept", 0), counters.get("cones.reduce_generators.in", 0)
    )
    out["trace.total_s"] = traced_total
    out["trace.untraced_total_s"] = untraced_total
    out["trace.overhead_s"] = traced_total - untraced_total
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = _now()
    src = ROOT / "src"
    if not (src / "gptlab" / "__init__.py").is_file():
        raise BenchError(f"no gptlab sources under {src}")
    sys.path.insert(0, str(src))
    import gptlab

    if not os.path.realpath(gptlab.__file__).startswith(os.path.realpath(src) + os.sep):
        raise BenchError(f"gptlab was imported from {gptlab.__file__}, not from {src}")

    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    groups = generate(args.workload, args.seed, work)
    labels = [op.label for _, ops in groups for op in ops]
    runner = Runner(groups, work, deadline=started + RUN_LIMIT_S)
    runner.spawn(groups[0][0], [], None)  # warm the bytecode and file caches; not measured

    untraced: list[dict] = []
    traced: list[dict] = []
    begin = _now()
    for _ in range(pass_count(args.workload, args.seconds, args.trace)):
        if untraced and _now() + (_now() - begin) / len(untraced) > runner.deadline:
            break
        untraced.append(runner.run_pass(False))
        if args.trace:
            traced.append(runner.run_pass(True))
    elapsed = _now() - begin

    passes = untraced + traced
    attempted = sum(len(p["ops"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]

    e2e, lines = end_to_end(untraced, labels)
    print(
        f"workload {args.workload}, seed {args.seed}: {len(untraced)} untraced and {len(traced)} traced passes"
        f" in {elapsed:.1f} s"
    )
    for line in lines:
        print("  " + line)
    print(f"  failed_ratio = {len(failures) / attempted:.6g} ratio  ({len(failures)} of {attempted} operations)")
    for label, why, known in sorted(set(failures)):
        print(f"  failed: {label}: {why}" + ("  (known defect, ROADMAP item 1)" if known else ""))

    if args.trace:
        per_pass = [
            layer_values(p, p["total"], u["total"]) for p, u in zip(traced, untraced)
        ]
        metrics = {}
        for name, unit, _ in PER_LAYER:
            value = _median([v[name] for v in per_pass])
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name} = {value:.6g} {unit}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit, _ in END_TO_END}
    result = {"correct": correct(passes), "attempted": attempted, "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        sys.exit(2)
