"""Spans around gptlab's public functions, recorded from outside the package.

`install` wraps each function in `TARGETS` and rebinds the wrapper in every
``gptlab`` module namespace that holds the original, because modules bind
``from .x import y`` and would otherwise keep calling the unwrapped object.
Each call records a span (name, start, end, parent) in memory; `summary`
turns the spans into calls, inclusive time and self time per name, and
`write_spans` writes them out once the work is done.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

TARGETS = (
    "linalg.rank",
    "linalg.dual_basis",
    "lp.solve_feasibility",
    "cones.double_description",
    "cones.reduce_generators",
    "theory.validate",
    "theory.no_restriction_check",
    "theory.nonrefinable_effects",
    "theory.pure_states",
    "theoryfile.parse_path",
    "contextuality.classify",
    "contextuality.embed_exact_dim",
    "contextuality.embed_lp",
    "contextuality.verify_ncom",
    "contextuality.indistinguishability_witness",
    "resources.classify_bonus",
    "resources.extend_theory",
    "analyses.analyze_report",
    "analyses.resource_report",
    "report.Report.verify_all",
    "report.render_structured",
    "cli.run",
)


def _lp(counters, args, result):
    columns, b = args[0], args[1]
    m = len(b)
    cells = m * (len(columns) + m + 1)  # the Phase-I tableau the solver builds
    counters["lp.solve_feasibility.cells"] += cells
    counters["lp.solve_feasibility.cells_max"] = max(counters["lp.solve_feasibility.cells_max"], cells)
    counters["lp.solve_feasibility.infeasible"] += not result.feasible


def _exact_dim(counters, args, result):
    counters["contextuality.embed_exact_dim.candidates"] += result.explored
    counters["contextuality.embed_exact_dim.found"] += result.found


def _embed_lp(counters, args, result):
    counters["contextuality.embed_lp.pairs"] += len(result.effect_ray_pool) * len(result.state_point_pool)
    if result.model is not None:
        counters["contextuality.embed_lp.ontic_size"] += result.model.ontic_size


def _reduce(counters, args, result):
    counters["cones.reduce_generators.in"] += len(args[0])
    counters["cones.reduce_generators.kept"] += len(result)


def _dd(counters, args, result):
    counters["cones.double_description.rays_out"] += len(result[1])


def _verify_all(counters, args, result):
    counters["report.Report.verify_all.checks"] += len(result)


PROBES = {
    "lp.solve_feasibility": _lp,
    "contextuality.embed_exact_dim": _exact_dim,
    "contextuality.embed_lp": _embed_lp,
    "cones.reduce_generators": _reduce,
    "cones.double_description": _dd,
    "report.Report.verify_all": _verify_all,
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counters: defaultdict = defaultdict(int)
        self.validated: set[int] = set()  # hashes of the theories validate saw
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        probe = PROBES.get(name)
        materialize = name == "cones.reduce_generators"  # takes any iterable
        validate = name == "theory.validate"
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if materialize:
                args = (tuple(args[0]),) + args[1:]
            if validate:
                self.validated.add(hash(args[0]))
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if probe is not None:
                probe(self.counters, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "gptlab" or n.startswith("gptlab.")]
        for target in TARGETS:
            module_name, _, attr = target.partition(".")
            module = sys.modules[f"gptlab.{module_name}"]
            if "." in attr:  # a method: rebind on its class
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self.wrap(target, cls.__dict__[method]))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(target, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)

    def summary(self) -> dict:
        """Per name: [calls, inclusive seconds, self seconds].  Inclusive
        time counts only the outermost span of a name, so recursion is not
        counted twice; self time is duration minus the direct children's."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = {}
        for i, (name, start, end, parent) in enumerate(spans):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[2] += end - start - child_time[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                row[1] += end - start
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
