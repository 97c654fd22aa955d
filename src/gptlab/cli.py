"""Command line interface.

Theories are referred to by bundled name (`gptlab examples list`) or by
file path.  Exit codes: 0 when the analysis completed (whatever the
verdict), 1 on input errors, 2 on internal invariant failures.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import analyses, catalog, theoryfile
from .errors import GptLabError, InputError, InternalCheckError
from .linalg import vec_from
from .report import Report, render
from .theory import FIX_EFFECTS, FIX_STATES, BonusElement, Gpt


def load_theory(ref: str) -> Gpt:
    if os.path.exists(ref) or ref.endswith(".gpt") or "/" in ref:
        return theoryfile.parse_path(ref)
    return catalog.get(ref)


def _parse_inline_vector(text: str) -> tuple:
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    return vec_from([piece.strip() for piece in body.split(",")])


def _emit(report: Report, args) -> None:
    if args.verify:
        verified = report.verify_all()
        sys.stdout.write(render(report, args.format))
        sys.stdout.write(f"verified certificates: {len(verified)}\n")
    else:
        sys.stdout.write(render(report, args.format))


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("theory", help="bundled theory name or path to a theory file")
    p.add_argument(
        "--format",
        choices=("human", "structured"),
        default="human",
        help="report rendering (default: human)",
    )
    p.add_argument(
        "--verify",
        action="store_true",
        help="re-check every certificate embedded in the report",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gptlab",
        description=(
            "Exact polyhedral analysis of general probabilistic theories: "
            "simpliciality, simplex embeddings, contextuality witnesses and "
            "resource classification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full pipeline: validation, duality, classification, embeddings, witnesses")
    _add_common(p)

    p = sub.add_parser("table", help="probability table of the theory's generators, with its rank")
    _add_common(p)

    p = sub.add_parser("complete", help="extend a restricted theory to a no-restriction one")
    _add_common(p)
    p.add_argument(
        "--mode",
        choices=("states", "effects"),
        required=True,
        help="which side to recompute: 'states' keeps effects fixed, 'effects' keeps states fixed",
    )

    p = sub.add_parser("embed", help="search for a noncontextual ontological model")
    _add_common(p)
    p.add_argument(
        "--exact-dim",
        action="store_true",
        help="restrict the ontic cardinality to the theory dimension",
    )

    p = sub.add_parser("witness", help="constructive witnesses")
    _add_common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--lemma2", action="store_true", help="non-unique convex decomposition")
    group.add_argument(
        "--indistinguishable",
        action="store_true",
        help="empirically indistinguishable ontic distribution pair",
    )

    p = sub.add_parser("classify-resource", help="classicality of a single bonus effect or state")
    _add_common(p)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--effect", metavar="VEC", help='bonus effect, e.g. "3/2,0,-1/2"')
    group.add_argument("--state", metavar="VEC", help='bonus state, e.g. "1/2,1/4,1/4"')
    p.add_argument("--label", default="bonus", help="label for the bonus element in reports")

    p = sub.add_parser("examples", help="bundled theory corpus")
    ex_sub = p.add_subparsers(dest="examples_command", required=True)
    ex_sub.add_parser("list", help="list bundled theory names")
    pe = ex_sub.add_parser("export", help="write a bundled theory in the file format")
    pe.add_argument("name")
    pe.add_argument("--output", help="target path (default: stdout)")
    return parser


def run(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "examples":
        if args.examples_command == "list":
            for name in catalog.bundled_names():
                sys.stdout.write(name + "\n")
            return 0
        text = theoryfile.serialize(catalog.get(args.name))
        if args.output:
            try:
                with open(args.output, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise InputError(f"cannot write {args.output!r}: {exc}") from None
        else:
            sys.stdout.write(text)
        return 0

    g = load_theory(args.theory)
    if args.command == "analyze":
        _emit(analyses.analyze_report(g), args)
    elif args.command == "table":
        _emit(analyses.table_report(g), args)
    elif args.command == "complete":
        mode = FIX_EFFECTS if args.mode == "states" else FIX_STATES
        _emit(analyses.complete_report(g, mode), args)
    elif args.command == "embed":
        _emit(analyses.embed_report(g, exact_dim=args.exact_dim), args)
    elif args.command == "witness":
        kind = "lemma2" if args.lemma2 else "indistinguishable"
        _emit(analyses.witness_report(g, kind), args)
    elif args.command == "classify-resource":
        if args.effect:
            bonus = BonusElement("effect", args.label, _parse_inline_vector(args.effect))
        elif args.state:
            bonus = BonusElement("state", args.label, _parse_inline_vector(args.state))
        elif g.bonus:
            for b in g.bonus:
                _emit(analyses.resource_report(g, b), args)
            return 0
        else:
            raise InputError(
                "no bonus element: pass --effect/--state or add a bonus: section "
                "to the theory file"
            )
        _emit(analyses.resource_report(g, bonus), args)
    else:  # pragma: no cover - argparse enforces the choices
        raise InputError(f"unknown command {args.command!r}")
    return 0


def main() -> None:
    try:
        sys.exit(run(sys.argv[1:]))
    except InternalCheckError as exc:
        sys.stderr.write(f"internal invariant failure: {exc}\n")
        sys.exit(2)
    except GptLabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        sys.exit(1)


if __name__ == "__main__":
    main()
