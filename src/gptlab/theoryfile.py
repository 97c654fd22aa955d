"""The flat text format for theories.

Hand-writable key/value text with sections; vectors are comma-separated
rationals in brackets.  A commented example:

    # lines starting with '#' are ignored
    dimension: 3
    unit: [0, 0, 2]
    no_restriction: false

    effects:
      e1 = [1, 0, 1]
      e2 = [-1, 0, 1]

    states:
      s1 = [1/2, 0, 1/2]
      s2 = [-1/2, 0, 1/2]

    pvvms:
      Z = e1 + e2

    bonus:
      b1 = effect [3/2, 0, -1/2]

Parsing either yields a theory that passes shape checks or fails with a
diagnostic carrying the offending line.  serialize(parse(text)) reparses to
an identical theory.
"""

from __future__ import annotations

import re
from dataclasses import replace

from .errors import InputError
from .linalg import Vec, format_vec, rat
from .theory import BonusElement, Gpt, Pvvm, build_gpt


class ParseError(InputError):
    def __init__(self, source: str, line_no: int, message: str):
        self.source = source
        self.line_no = line_no
        super().__init__(f"{source}:{line_no}: {message}")


_SECTIONS = ("effects", "states", "pvvms", "bonus")
_VECTOR_RE = re.compile(r"^\[(.*)\]$")


def _parse_vector(text: str, source: str, line_no: int) -> tuple:
    m = _VECTOR_RE.match(text.strip())
    if not m:
        raise ParseError(source, line_no, f"expected a bracketed vector, got {text!r}")
    body = m.group(1).strip()
    if not body:
        raise ParseError(source, line_no, "empty vector")
    entries = []
    for piece in body.split(","):
        piece = piece.strip()
        try:
            entries.append(rat(piece))
        except InputError as exc:
            raise ParseError(source, line_no, str(exc)) from None
    return tuple(entries)


def _parse_dimension(value: str, source: str, line_no: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError(source, line_no, f"dimension must be an integer, got {value!r}") from None


def _parse_no_restriction(value: str, source: str, line_no: int) -> bool:
    if value not in ("true", "false"):
        raise ParseError(source, line_no, f"no_restriction must be true or false, got {value!r}")
    return value == "true"


# each header key with the parser of its value; a key may appear once
_HEADER = {
    "dimension": _parse_dimension,
    "unit": _parse_vector,
    "no_restriction": _parse_no_restriction,
    "name": lambda value, source, line_no: value,
}


def parse_text(text: str, source: str = "<text>") -> Gpt:
    header: dict[str, object] = {}
    effects: list[tuple[str, Vec]] = []
    states: list[tuple[str, Vec]] = []
    pvvms: list[Pvvm] = []
    bonus: list[BonusElement] = []
    section: str | None = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()

        if stripped.endswith(":") and stripped[:-1] in _SECTIONS:
            section = stripped[:-1]
            continue

        if ":" in stripped and not stripped.startswith("["):
            key, _, value = stripped.partition(":")
            key = key.strip()
            if key in _HEADER:
                if key in header:
                    raise ParseError(source, line_no, f"duplicate '{key}:' entry")
                header[key] = _HEADER[key](value.strip(), source, line_no)
                section = None
                continue

        if section in ("effects", "states"):
            label, eq, vec_text = stripped.partition("=")
            label = label.strip()
            if not eq or not label:
                raise ParseError(source, line_no, f"expected 'label = [vector]', got {stripped!r}")
            v = _parse_vector(vec_text, source, line_no)
            target = effects if section == "effects" else states
            if any(l == label for l, _v in target):
                raise ParseError(source, line_no, f"duplicate {section[:-1]} label {label!r}")
            target.append((label, v))
            continue

        if section == "pvvms":
            pname, eq, rhs = stripped.partition("=")
            if not eq:
                raise ParseError(source, line_no, f"expected 'name = label + label + ...', got {stripped!r}")
            labels = tuple(piece.strip() for piece in rhs.split("+"))
            if any(not l for l in labels):
                raise ParseError(source, line_no, "empty outcome label in measurement")
            pname = pname.strip()
            if any(p.name == pname for p in pvvms):
                raise ParseError(source, line_no, f"duplicate measurement name {pname!r}")
            pvvms.append(Pvvm(pname, labels))
            continue

        if section == "bonus":
            blabel, eq, rhs = stripped.partition("=")
            blabel = blabel.strip()
            if not eq or not blabel:
                raise ParseError(source, line_no, f"expected 'label = effect|state [vector]', got {stripped!r}")
            rhs = rhs.strip()
            kind, _, vec_text = rhs.partition(" ")
            if kind not in ("effect", "state"):
                raise ParseError(source, line_no, f"bonus kind must be 'effect' or 'state', got {kind!r}")
            if any(b.label == blabel for b in bonus):
                raise ParseError(source, line_no, f"duplicate bonus label {blabel!r}")
            bonus.append(BonusElement(kind, blabel, _parse_vector(vec_text, source, line_no)))
            continue

        raise ParseError(source, line_no, f"unrecognised line {stripped!r}")

    for key in ("dimension", "unit", "no_restriction"):
        if key not in header:
            raise ParseError(source, 0, f"missing '{key}:' entry")
    if not effects:
        raise ParseError(source, 0, "missing or empty 'effects:' section")
    if not states:
        raise ParseError(source, 0, "missing or empty 'states:' section")
    try:
        return build_gpt(
            dim=header["dimension"],
            unit=header["unit"],
            effects=effects,
            states=states,
            claims_no_restriction=header["no_restriction"],
            pvvms=pvvms,
            bonus=bonus,
            name=header.get("name", ""),
        )
    except InputError as exc:
        raise ParseError(source, 0, str(exc)) from None


def parse_path(path: str) -> Gpt:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read theory file {path!r}: {exc}") from None
    g = parse_text(text, source=path)
    if not g.name:
        stem = path.rsplit("/", 1)[-1]
        stem = stem[:-4] if stem.endswith(".gpt") else stem
        g = replace(g, name=stem)
    return g


def serialize(g: Gpt) -> str:
    lines = []
    if g.name:
        lines.append(f"name: {g.name}")
    lines.append(f"dimension: {g.dim}")
    lines.append(f"unit: {format_vec(g.unit)}")
    lines.append(f"no_restriction: {'true' if g.claims_no_restriction else 'false'}")
    lines.append("")
    lines.append("effects:")
    for label, v in g.effects():
        lines.append(f"  {label} = {format_vec(v)}")
    lines.append("")
    lines.append("states:")
    for label, v in g.states():
        lines.append(f"  {label} = {format_vec(v)}")
    if g.pvvms:
        lines.append("")
        lines.append("pvvms:")
        for p in g.pvvms:
            lines.append(f"  {p.name} = " + " + ".join(p.outcome_labels))
    if g.bonus:
        lines.append("")
        lines.append("bonus:")
        for b in g.bonus:
            lines.append(f"  {b.label} = {b.kind} {format_vec(b.vector)}")
    return "\n".join(lines) + "\n"
