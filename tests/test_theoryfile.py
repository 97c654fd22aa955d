from fractions import Fraction

import pytest

from gptlab import catalog
from gptlab.errors import InputError
from gptlab.theoryfile import ParseError, parse_path, parse_text, serialize

REBIT_TEXT = """\
# the stabilizer rebit
name: rebit
dimension: 3
unit: [0, 0, 2]
no_restriction: false

effects:
  e1 = [1, 0, 1]
  e2 = [-1, 0, 1]
  e3 = [0, 1, 1]
  e4 = [0, -1, 1]

states:
  s1 = [1/2, 0, 1/2]
  s2 = [-1/2, 0, 1/2]
  s3 = [0, 1/2, 1/2]
  s4 = [0, -1/2, 1/2]

pvvms:
  Z = e1 + e2
  X = e3 + e4
"""


def test_parse_rebit_text():
    g = parse_text(REBIT_TEXT)
    bundled = catalog.get("rebit")
    assert g.dim == 3
    assert g.unit == bundled.unit
    assert g.effects() == bundled.effects()
    assert g.states() == bundled.states()
    assert not g.claims_no_restriction
    assert [p.name for p in g.pvvms] == ["Z", "X"]


def test_round_trip_all_bundled():
    for name in catalog.bundled_names():
        g = catalog.get(name)
        assert parse_text(serialize(g)) == g


def test_serialize_parse_serialize_fixed_point():
    g = catalog.get("spekkens_toy")
    text = serialize(g)
    assert serialize(parse_text(text)) == text


def test_bonus_section_round_trip():
    text = REBIT_TEXT + "\nbonus:\n  b1 = effect [3/2, 0, -1/2]\n  r1 = state [0, 0, 1/2]\n"
    g = parse_text(text)
    assert len(g.bonus) == 2
    assert g.bonus[0].kind == "effect" and g.bonus[0].label == "b1"
    assert g.bonus[1].vector == (0, 0, Fraction(1, 2))
    assert parse_text(serialize(g)) == g


def test_zero_denominator_is_located():
    bad = REBIT_TEXT.replace("s1 = [1/2, 0, 1/2]", "s1 = [1/0, 0, 1/2]")
    with pytest.raises(ParseError) as exc:
        parse_text(bad, source="rebit.gpt")
    assert exc.value.source == "rebit.gpt"
    assert exc.value.line_no == 14


def test_duplicate_label_is_located():
    bad = REBIT_TEXT.replace("e2 = [-1, 0, 1]", "e1 = [-1, 0, 1]")
    with pytest.raises(ParseError) as exc:
        parse_text(bad)
    assert "duplicate" in str(exc.value) and exc.value.line_no == 9


def test_dimension_mismatch_rejected():
    bad = REBIT_TEXT.replace("s1 = [1/2, 0, 1/2]", "s1 = [1/2, 0]")
    with pytest.raises(ParseError):
        parse_text(bad)


def test_missing_sections_rejected():
    with pytest.raises(ParseError) as exc:
        parse_text("dimension: 2\nunit: [1, 1]\n")
    assert "no_restriction" in str(exc.value)


def test_unknown_pvvm_label_rejected():
    bad = REBIT_TEXT.replace("Z = e1 + e2", "Z = e1 + nosuch")
    with pytest.raises(ParseError) as exc:
        parse_text(bad)
    assert "nosuch" in str(exc.value)


def test_garbage_line_rejected():
    with pytest.raises(ParseError) as exc:
        parse_text("dimension: 2\nwhat is this\n")
    assert exc.value.line_no == 2


def test_parse_path_uses_stem_as_name(tmp_path):
    path = tmp_path / "mytheory.gpt"
    path.write_text(REBIT_TEXT.replace("name: rebit\n", ""), encoding="utf-8")
    g = parse_path(str(path))
    assert g.name == "mytheory"


BONUS = "\nbonus:\n  b1 = effect [1, 0, 0]\n"
EFFECTS = "effects:\n  e1 = [1, 0, 1]\n  e2 = [-1, 0, 1]\n  e3 = [0, 1, 1]\n  e4 = [0, -1, 1]\n"
STATES = "states:\n  s1 = [1/2, 0, 1/2]\n  s2 = [-1/2, 0, 1/2]\n  s3 = [0, 1/2, 1/2]\n  s4 = [0, -1/2, 1/2]\n"


@pytest.mark.parametrize(
    "old, new, line_no, message",
    [
        ("unit: [0, 0, 2]", "unit: 0, 0, 2", 4, "expected a bracketed vector, got '0, 0, 2'"),
        ("e1 = [1, 0, 1]", "e1 = []", 8, "empty vector"),
        ("dimension: 3", "dimension: three", 3, "dimension must be an integer, got 'three'"),
        ("no_restriction: false", "no_restriction: maybe", 5, "no_restriction must be true or false, got 'maybe'"),
        ("e1 = [1, 0, 1]", "e1 [1, 0, 1]", 8, "expected 'label = [vector]', got 'e1 [1, 0, 1]'"),
        ("Z = e1 + e2", "Z e1 + e2", 20, "expected 'name = label + label + ...', got 'Z e1 + e2'"),
        ("Z = e1 + e2", "Z = e1 +", 20, "empty outcome label in measurement"),
        (BONUS, BONUS.replace(" = ", " "), 24, "expected 'label = effect|state [vector]', got 'b1 effect [1, 0, 0]'"),
        (BONUS, BONUS.replace("b1 ", " "), 24, "expected 'label = effect|state [vector]', got '= effect [1, 0, 0]'"),
        (BONUS, BONUS.replace("effect", "measurement"), 24, "bonus kind must be 'effect' or 'state', got 'measurement'"),
        ("X = e3 + e4", "X = e3 + e4\n  Z = e1 + e2", 22, "duplicate measurement name 'Z'"),
        (BONUS, BONUS + "  b1 = state [1/2, 0, 1/2]\n", 25, "duplicate bonus label 'b1'"),
        ("dimension: 3\n", "", 0, "missing 'dimension:' entry"),
        ("unit: [0, 0, 2]\n", "", 0, "missing 'unit:' entry"),
        ("no_restriction: false\n", "", 0, "missing 'no_restriction:' entry"),
        ("name: rebit", "name: rebit\nname: other", 3, "duplicate 'name:' entry"),
        ("dimension: 3", "dimension: 3\ndimension: 3", 4, "duplicate 'dimension:' entry"),
        ("unit: [0, 0, 2]", "unit: [0, 0, 2]\nunit: [0, 0, 1]", 5, "duplicate 'unit:' entry"),
        ("no_restriction: false", "no_restriction: false\nno_restriction: true", 6, "duplicate 'no_restriction:' entry"),
        (EFFECTS, "", 0, "missing or empty 'effects:' section"),
        (STATES, "", 0, "missing or empty 'states:' section"),
    ],
)
def test_parse_errors_are_located(old, new, line_no, message):
    text = REBIT_TEXT + BONUS
    assert old in text
    with pytest.raises(ParseError) as exc:
        parse_text(text.replace(old, new))
    assert exc.value.line_no == line_no
    assert str(exc.value) == f"<text>:{line_no}: {message}"


def test_parse_path_reports_an_unreadable_file(tmp_path):
    with pytest.raises(InputError, match="cannot read theory file"):
        parse_path(str(tmp_path / "missing.gpt"))
