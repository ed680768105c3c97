"""Command-line interface: subcommands, exit codes, JSON output."""

import json

import pytest

from sconekit.cli import main

NEG_TRUE = "(fun b => elim b at _ => Bool | false | true) true"
CHURCH_ID = "(fun A => fun a => a) : (A : U0) -> A -> A"


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return str(p)

    return write


def test_canon_negation_of_true(files, capsys):
    assert main(["canon", files("t.tt", NEG_TRUE)]) == 0
    assert capsys.readouterr().out.strip() == "false"


def test_norm(files, capsys):
    assert main(["norm", files("t.tt", NEG_TRUE), "--type", "Bool"]) == 0
    assert capsys.readouterr().out.strip() == "false"


def test_check_with_ascription(files, capsys):
    assert main(["check", files("t.tt", CHURCH_ID)]) == 0
    assert "ok" in capsys.readouterr().out


def test_conv_identical_files(files, capsys):
    a = files("a.tt", "true")
    b = files("b.tt", "true")
    assert main(["conv", a, b, "--type", "Bool"]) == 0
    assert capsys.readouterr().out.strip() == "equal"


def test_conv_distinct(files, capsys):
    a = files("a.tt", "true")
    b = files("b.tt", "false")
    assert main(["conv", a, b, "--type", "Bool"]) == 0
    assert capsys.readouterr().out.strip() == "not equal"


def test_param_church_id(files, capsys):
    assert main(["param", files("id.tt", CHURCH_ID)]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "(x0 : U0) -> (x1 : (El x0) -> U0) -> (x2 : El x0) -> (El x1 x2) -> El x1 x2"


def test_param_out_of_fragment_is_domain_error(files, capsys):
    assert main(["param", files("b.tt", "true : Bool")]) == 1


def test_type_error_exit_code(files, capsys):
    assert main(["check", files("bad.tt", "true false")]) == 1


def test_parse_error_exit_code(files, capsys):
    assert main(["check", files("bad.tt", "fun =>")]) == 2


def test_missing_file_exit_code(capsys):
    assert main(["check", "/nonexistent/really.tt"]) == 2


def test_usage_error_exit_code(capsys):
    assert main(["frobnicate"]) == 2


def test_json_output_is_stable(files, capsys):
    path = files("t.tt", NEG_TRUE)
    assert main(["--json", "canon", path]) == 0
    first = capsys.readouterr().out
    assert main(["--json", "canon", path]) == 0
    second = capsys.readouterr().out
    assert first == second
    obj = json.loads(first)
    assert obj["command"] == "canon" and obj["result"] == "false"


def test_json_norm_has_normal_form_field(files, capsys):
    assert main(["--json", "norm", files("t.tt", NEG_TRUE), "--type", "Bool"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["normal_form"] == "false"


def test_json_param_has_witness_type_field(files, capsys):
    assert main(["--json", "param", files("id.tt", CHURCH_ID)]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert "witness_type" in obj


def test_check_rejects_term_ascribed_as_type(files, capsys):
    assert main(["check", files("t.tt", "(fun x => x) : true")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_norm_rejects_term_given_as_type(files, capsys):
    assert main(["norm", files("t.tt", "true"), "--type", "true"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
