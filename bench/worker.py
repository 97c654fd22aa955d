"""One benchmark process: start, import gptlab, load a theory, then run CLI
operations one at a time and report their timings as one JSON line.

Usage: python3 bench/worker.py SPEC_JSON

SPEC_JSON holds `src` (the directory gptlab must be imported from),
`preload` (the theory reference loaded during set-up), `ops` (CLI argument
lists) and `spans` (a path to write trace spans to, or null for an
untraced run).  Everything before the first operation is set-up; its end
is reported as a CLOCK_MONOTONIC reading so the parent can measure it from
the moment it started this process.

Memory is read from /proc/self/status: VmHWM is this process's own peak
resident size.  `ru_maxrss` would not do, because Linux carries the
parent's peak over into it across fork and exec.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _memory_kb(field: str) -> int:
    """A field of /proc/self/status in kB, such as VmHWM or VmRSS."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"/proc/self/status has no {field}")


def main(spec_text: str) -> int:
    spec = json.loads(spec_text)
    src = os.path.realpath(spec["src"])
    sys.path.insert(0, src)
    import gptlab.cli

    if not os.path.realpath(gptlab.__file__).startswith(src + os.sep):
        sys.stderr.write(f"gptlab was imported from {gptlab.__file__}, not from {src}\n")
        return 3
    gptlab.cli.load_theory(spec["preload"])
    ready = _now()
    ready_rss_kb = _memory_kb("VmRSS")

    tracer = None
    if spec["spans"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    results = []
    for argv in spec["ops"]:
        out = io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                gptlab.cli.run(argv)
        except Exception as exc:  # an operation that raises is a failed operation
            error = f"{type(exc).__name__}: {exc}"
        except SystemExit as exc:  # argparse rejected the arguments
            error = f"exit {exc.code}"
        seconds = time.perf_counter() - start
        results.append({"seconds": seconds, "output": out.getvalue(), "error": error})

    report = {
        "ready": ready,
        "ops": results,
        "ready_rss_kb": ready_rss_kb,
        "peak_rss_kb": _memory_kb("VmHWM"),
    }
    if tracer is not None:
        report["layers"] = tracer.summary()
        report["counters"] = dict(tracer.counters)
        report["validated"] = sorted(tracer.validated)
        tracer.write_spans(spec["spans"])
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
