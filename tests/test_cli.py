import subprocess
import sys

import pytest

from gptlab import analyses, catalog, theoryfile
from gptlab.cli import main, run
from gptlab.errors import InternalCheckError


@pytest.fixture
def capture(capsys):
    def invoke(*argv):
        code = run(list(argv))
        out = capsys.readouterr().out
        return code, out

    return invoke


def test_examples_list(capture):
    code, out = capture("examples", "list")
    assert code == 0
    assert out.splitlines() == list(catalog.bundled_names())


def test_examples_export_round_trip(capture, tmp_path):
    target = tmp_path / "rebit.gpt"
    code, _ = capture("examples", "export", "rebit", "--output", str(target))
    assert code == 0
    assert theoryfile.parse_path(str(target)) == catalog.get("rebit")


def test_analyze_rebit_narrative(capture):
    code, out = capture("analyze", "rebit", "--format", "structured")
    assert code == 0
    assert "no_restriction.holds = no" in out
    assert "completion.completion_simplicial = no" in out
    assert "completion_classification.verdict = ontologically contextual" in out
    assert "embedding_same_dimension.model_found = no" in out
    assert "embedding_lp.model_ontic_size = 4" in out
    assert "indistinguishability.distribution_1 = [1/2, 0, 0, 1/2]" in out
    assert "indistinguishability.distribution_2 = [1/4, 1/4, 1/4, 1/4]" in out


def test_analyze_verdicts(capture):
    for name, expected in (
        ("classical_bit", "ontologically noncontextual"),
        ("spekkens_container", "ontologically noncontextual"),
        ("spekkens_toy", "ontologically noncontextual"),
        ("rebit", "ontologically contextual"),
        ("rebit_completion", "ontologically contextual"),
    ):
        code, out = capture("analyze", name)
        assert code == 0
        conclusion = out[out.index("[conclusion]") :]
        assert expected in conclusion, name


def test_table_command(capture):
    code, out = capture("table", "spekkens_toy", "--format", "structured")
    assert code == 0
    assert "statistics.table_rank = 4" in out
    code, out = capture("table", "rebit", "--format", "structured")
    assert "statistics.table_rank = 3" in out


def test_table_alias(capture):
    code, out = capture("table", "trit")
    assert code == 0 and "classical_trit" in out


def test_complete_command(capture):
    code, out = capture("complete", "rebit", "--mode", "states")
    assert code == 0
    assert "[1/2, 1/2, 1/2]" in out
    assert "no-restriction holds on result : yes" in out


def test_complete_mode_effects(capture):
    code, out = capture("complete", "rebit", "--mode", "effects")
    assert code == 0
    # the effect side is recomputed; the original states stay
    assert "[-1/2, 0, 1/2]" in out
    assert "[1, 1, 1]" in out  # a grown effect generator
    assert "no-restriction holds on result : yes" in out


def test_witness_lemma2_on_restricted_theory(capture):
    code, out = capture("witness", "rebit", "--lemma2")
    assert code == 0
    assert "witness point       : [0, 0, 1/2]" in out
    assert "not settle contextuality" in out


def test_embed_commands(capture):
    code, out = capture("embed", "rebit", "--exact-dim")
    assert code == 0 and "model found                      : no" in out
    code, out = capture("embed", "rebit")
    assert code == 0 and "model ontic size   : 4" in out
    code, out = capture("embed", "rebit_completion")
    assert code == 0 and "infeasibility certificate" in out


def test_witness_commands(capture):
    code, out = capture("witness", "rebit_completion", "--lemma2")
    assert code == 0
    assert "witness point       : [0, 0, 1/2]" in out
    code, out = capture("witness", "rebit", "--indistinguishable")
    assert code == 0
    assert "[1/2, 0, 0, 1/2]" in out


def test_classify_resource_commands(capture):
    code, out = capture("classify-resource", "trit", "--effect", "1/2,1/2,1/2")
    assert code == 0 and "classification             : classical" in out
    code, out = capture("classify-resource", "trit", "--effect", "3/2,0,-1/2")
    assert code == 0 and "classification             : nonclassical" in out
    code, out = capture("classify-resource", "classical_bit", "--effect", "1,0,0")
    assert code == 0 and "dimension-raising" in out


def test_classify_resource_from_file_bonus(capture, tmp_path):
    g = catalog.get("classical_trit")
    text = theoryfile.serialize(g) + "\nbonus:\n  b = effect [3/2, 0, -1/2]\n"
    path = tmp_path / "trit_plus.gpt"
    path.write_text(text, encoding="utf-8")
    code, out = capture("classify-resource", str(path))
    assert code == 0 and "nonclassical" in out


def test_verify_flag(capture):
    for argv in (
        ("analyze", "rebit", "--verify"),
        ("analyze", "spekkens_container", "--verify"),
        ("classify-resource", "trit", "--effect", "3/2,0,-1/2", "--verify"),
    ):
        code, out = capture(*argv)
        assert code == 0
        assert "verified certificates:" in out


def test_structured_format_stability(capture):
    _, first = capture("analyze", "spekkens_toy", "--format", "structured")
    _, second = capture("analyze", "spekkens_toy", "--format", "structured")
    assert first == second
    assert "report = analysis of spekkens_toy" in first
    assert "conclusion.theory_verdict = ontologically noncontextual" in first


def test_human_format_stability(capture):
    _, first = capture("analyze", "rebit")
    _, second = capture("analyze", "rebit")
    assert first == second


def test_exit_codes_via_subprocess(tmp_path):
    env_ok = subprocess.run(
        [sys.executable, "-m", "gptlab.cli", "table", "classical_bit"],
        capture_output=True,
        text=True,
    )
    assert env_ok.returncode == 0

    unknown = subprocess.run(
        [sys.executable, "-m", "gptlab.cli", "table", "nonexistent"],
        capture_output=True,
        text=True,
    )
    assert unknown.returncode == 1
    assert "unknown bundled theory" in unknown.stderr

    bad = tmp_path / "broken.gpt"
    bad.write_text("dimension: 2\nunit: [1, 1]\nno_restriction: false\neffects:\n  a = [1/0, 0]\n")
    broken = subprocess.run(
        [sys.executable, "-m", "gptlab.cli", "analyze", str(bad)],
        capture_output=True,
        text=True,
    )
    assert broken.returncode == 1
    assert "broken.gpt:5" in broken.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "{tmp}/latin1.gpt"),
        ("examples", "export", "rebit", "--output", "{tmp}/no/such/dir/rebit.gpt"),
    ],
    ids=["unreadable input", "unwritable output"],
)
def test_file_errors_exit_one_with_a_message(argv, monkeypatch, capsys, tmp_path):
    (tmp_path / "latin1.gpt").write_bytes(theoryfile.serialize(catalog.get("rebit")).encode() + b"# \xe9\n")
    monkeypatch.setattr(sys, "argv", ["gptlab"] + [a.format(tmp=tmp_path) for a in argv])
    with pytest.raises(SystemExit) as exit_info:
        main()
    assert exit_info.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot ") and "Traceback" not in err


@pytest.mark.parametrize("label", ["", "  "])
def test_empty_bonus_label_exits_one(label, monkeypatch, capsys):
    argv = ["gptlab", "classify-resource", "classical_trit", "--effect=3/2,0,-1/2", f"--label={label}"]
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(SystemExit) as exit_info:
        main()
    assert exit_info.value.code == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: bonus label must not be empty, got {label!r}\n"


def test_internal_check_failure_exits_two(monkeypatch, capsys):
    def broken(g):
        raise InternalCheckError("planted")

    monkeypatch.setattr(analyses, "analyze_report", broken)
    monkeypatch.setattr(sys, "argv", ["gptlab", "analyze", "rebit"])
    with pytest.raises(SystemExit) as exit_info:
        main()
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == "internal invariant failure: planted\n"


@pytest.mark.parametrize(
    "command",
    [
        ("analyze",),
        ("table",),
        ("complete", "--mode", "states"),
        ("complete", "--mode", "effects"),
        ("embed",),
        ("embed", "--exact-dim"),
        ("witness", "--lemma2"),
        ("witness", "--indistinguishable"),
        ("classify-resource", "--effect=1/2,1/2"),
    ],
    ids=" ".join,
)
def test_invalid_theory_reports_and_exits_zero(command, capture, tmp_path):
    # an inconsistent but parseable theory: the report stops at validation,
    # whose verdict is data
    text = (
        "dimension: 2\nunit: [1, 1]\nno_restriction: false\n"
        "effects:\n  a = [1, 0]\n  b = [1/2, 1/2]\n"
        "states:\n  p = [1, 0]\n  q = [0, 1]\n"
    )
    path = tmp_path / "inconsistent.gpt"
    path.write_text(text, encoding="utf-8")
    verb, *options = command
    code, out = capture(verb, str(path), *options, "--format", "structured", "--verify")
    assert code == 0
    lines = out.splitlines()
    assert "validation.consistent = no" in lines
    assert "missing-complement" in out
    tail = lines[lines.index("validation.consistent = no") :]
    assert tail[-1] == "verified certificates: 0"
    assert all(line.startswith("validation.") for line in tail[:-1])


@pytest.mark.parametrize(
    "kind, vector, label",
    [("effect", "0,-1,2", "e1"), ("state", "-1,1/4,7/4", "p1"), ("effect", "-1,1/4,11/4", "e1")],
)
def test_taken_bonus_label_exits_one_naming_the_clash(kind, vector, label, monkeypatch, capsys):
    argv = ["gptlab", "classify-resource", "trit", f"--{kind}={vector}", "--label", label, "--verify"]
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(SystemExit) as exit_info:
        main()
    assert exit_info.value.code == 1
    err = capsys.readouterr().err
    assert err == f"error: bonus label {label!r} is already the label of a stored {kind}\n"


def test_bonus_named_like_a_fallback_atom_classifies(capture):
    # the extension's one atom on no stored effect is named nr1 by default,
    # so next to a bonus called nr1 it is renamed, and the verdict holds
    args = ("classify-resource", "trit", "--effect=0,5/4,-1/4", "--verify", "--format", "structured")
    code, out = capture(*args, "--label", "nr1")
    assert code == 0
    assert "resource.dependent_generator = nr1'" in out.splitlines()
    verdict = [line for line in out.splitlines() if line.startswith("resource.classification")]
    assert verdict == [line for line in capture(*args)[1].splitlines() if line.startswith("resource.classification")]
