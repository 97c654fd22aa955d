"""Report assembly and rendering.

A report is an ordered list of sections; a section holds key/value entries,
probability-style tables and free-form notes.  Every numeric value is an
exact rational string.  Analyses attach re-verification closures alongside
the facts they print, so `--verify` can re-check every certificate embedded
in a report without recomputing the analysis.

Two renderings: `human` (aligned, table layout mirroring the bundled
theories' conventions) and `structured` (one `section.key = value` line per
fact, byte-stable across runs, meant for machine consumption; tables render
as `section.table.<row>.<col> = value`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .errors import InternalCheckError
from .linalg import Mat, format_rational, format_vec


@dataclass
class Section:
    name: str
    entries: list[tuple[str, str]] = field(default_factory=list)
    tables: list["Table"] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, key: str, value) -> None:
        self.entries.append((key, _stringify(value)))

    def note(self, text: str) -> None:
        self.notes.append(text)


@dataclass
class Table:
    name: str
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    cells: tuple[tuple[str, ...], ...]


def table_from_rows(name: str, row_labels, col_labels, rows: Mat) -> Table:
    return Table(
        name=name,
        row_labels=tuple(row_labels),
        col_labels=tuple(col_labels),
        cells=tuple(tuple(format_rational(x) for x in row) for row in rows),
    )


@dataclass
class Report:
    title: str
    sections: list[Section] = field(default_factory=list)
    checks: list[tuple[str, Callable[[], bool]]] = field(default_factory=list)

    def section(self, name: str) -> Section:
        s = Section(name)
        self.sections.append(s)
        return s

    def add_check(self, description: str, fn: Callable[[], bool]) -> None:
        self.checks.append((description, fn))

    def verify_all(self) -> list[str]:
        """Re-run every embedded certificate check; returns their
        descriptions, raising if any fails."""
        for description, fn in self.checks:
            if not fn():
                raise InternalCheckError(f"certificate re-verification failed: {description}")
        return [d for d, _ in self.checks]


def _stringify(value) -> str:
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, bool):
        return "yes" if value else "no"
    # a vector: Fractions, or the ints of a canonical direction (not bools)
    if isinstance(value, tuple) and value and type(value[0]) in (Fraction, int):
        return format_vec(value)
    return str(value)


def vector_list(vectors) -> str:
    return ", ".join(format_vec(v) for v in vectors)


def labelled_coeffs(pairs) -> str:
    return ", ".join(f"{format_rational(c)}*{label}" for label, c in pairs)


# ---------------------------------------------------------------------------
# rendering


def render_human(report: Report) -> str:
    out: list[str] = [f"== {report.title} =="]
    for s in report.sections:
        out.append("")
        out.append(f"[{s.name}]")
        width = max((len(k) for k, _ in s.entries), default=0)
        for key, value in s.entries:
            out.append(f"  {key.ljust(width)} : {value}")
        for t in s.tables:
            out.extend(_render_table(t))
        for n in s.notes:
            out.append(f"  note: {n}")
    return "\n".join(out) + "\n"


def _render_table(t: Table) -> list[str]:
    head = [""] + list(t.col_labels)
    rows = [[label] + list(cells) for label, cells in zip(t.row_labels, t.cells)]
    widths = [max(len(r[i]) for r in [head] + rows) for i in range(len(head))]
    lines = [f"  {t.name}:"]
    lines.append("    " + "  ".join(h.rjust(w) for h, w in zip(head, widths)))
    for r in rows:
        lines.append("    " + "  ".join(c.rjust(w) for c, w in zip(r, widths)))
    return lines


def render_structured(report: Report) -> str:
    out = [f"report = {report.title}"]
    for s in report.sections:
        prefix = s.name.replace(" ", "_")
        for key, value in s.entries:
            out.append(f"{prefix}.{key.replace(' ', '_')} = {value}")
        for t in s.tables:
            tname = t.name.replace(" ", "_")
            for row_label, cells in zip(t.row_labels, t.cells):
                for col_label, cell in zip(t.col_labels, cells):
                    out.append(f"{prefix}.{tname}.{row_label}.{col_label} = {cell}")
        for i, n in enumerate(s.notes):
            out.append(f"{prefix}.note{i + 1} = {n}")
    return "\n".join(out) + "\n"


def render(report: Report, fmt: str) -> str:
    if fmt == "human":
        return render_human(report)
    if fmt == "structured":
        return render_structured(report)
    raise InternalCheckError(f"unknown report format {fmt!r}")
