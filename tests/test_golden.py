"""Golden capture of the structured CLI output.

`golden/cli_structured.txt` holds, for every case in `CASES`, what
`gptlab <args> --format structured --verify` writes to stdout and stderr and
the exit code it returns.  The test reruns each case in process and compares
byte for byte.  After an intended change of output, regenerate the fixture
from the repository root with

    PYTHONPATH=src python tests/test_golden.py

and review the fixture's diff before committing it.
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

from gptlab import catalog
from gptlab.cli import main

HERE = Path(__file__).resolve().parent
FIXTURE = HERE / "golden" / "cli_structured.txt"

_PER_THEORY = (
    ("analyze",),
    ("table",),
    ("complete", "--mode", "states"),
    ("complete", "--mode", "effects"),
    ("embed",),
    ("embed", "--exact-dim"),
    ("witness", "--lemma2"),
    ("witness", "--indistinguishable"),
)

_THEORIES = catalog.bundled_names() + (
    "golden/redundant_measurement.gpt",
    "golden/repeated_state.gpt",
)

CASES = tuple(
    (command[0], theory) + command[1:] for theory in _THEORIES for command in _PER_THEORY
) + (
    ("classify-resource", "trit", "--effect", "1/2,1/2,1/2"),
    ("classify-resource", "trit", "--effect", "3/2,0,-1/2"),
    ("classify-resource", "trit", "--effect=-1,-1,-1"),
    ("classify-resource", "trit", "--state", "2/3,1/3,0"),
    ("classify-resource", "trit", "--state", "1/2,5/6,-1/3"),
    ("classify-resource", "bit", "--effect", "1/2,1/4"),
    ("classify-resource", "bit", "--state", "3/2,-1/2"),
    ("classify-resource", "bit", "--effect", "1,0,0"),
)


def render_case(args: tuple[str, ...]) -> str:
    """One fixture block: the command line, stdout, stderr and exit code."""
    argv = ["gptlab"] + [str(HERE / a) if a.startswith("golden/") else a for a in args]
    argv += ["--format", "structured", "--verify"]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "argv", argv), redirect_stdout(out), redirect_stderr(err):
        try:
            main()
        except SystemExit as exc:
            code = exc.code
    block = f"$ gptlab {' '.join(args)}\n{out.getvalue()}"
    if err.getvalue():
        block += f"[stderr]\n{err.getvalue()}"
    return block + f"[exit {code}]\n"


def _fixture_blocks() -> dict[str, str]:
    blocks: dict[str, str] = {}
    current = None
    for line in FIXTURE.read_text(encoding="utf-8").splitlines(keepends=True):
        if line.startswith("$ gptlab "):
            current = line
            blocks[current] = ""
        blocks[current] += line
    return blocks


@pytest.mark.parametrize("args", CASES, ids=" ".join)
def test_structured_output_matches_golden(args):
    block = render_case(args)
    header = block.splitlines(keepends=True)[0]
    assert block == _fixture_blocks().get(header)


if __name__ == "__main__":
    FIXTURE.write_text("".join(render_case(args) for args in CASES), encoding="utf-8")
