"""Command-line interface: subcommands, exit codes, JSON output."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import bench_module
from sconekit.cli import main
from sconekit.surface import MAX_NESTING
from test_errors import EXPONENTIAL

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


def test_universe_with_a_non_decimal_suffix_is_a_parse_error(files, capsys):
    assert main(["check", files("bad.tt", "true : U²")]) == 2
    assert "unknown identifier 'U²'" in capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    assert main(["check", "/nonexistent/really.tt"]) == 2


def test_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.tt"
    path.write_bytes(b"tru\xff")
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert str(path) in err, err


def test_conv_names_the_file_that_is_not_utf8(files, tmp_path, capsys):
    good, bad = files("a.tt", "true"), tmp_path / "b.tt"
    bad.write_bytes(b"tru\xff")
    assert main(["conv", good, str(bad), "--type", "Bool"]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and good not in err, err


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


def test_nesting_at_the_limit_answers(files, capsys):
    path = files("t.tt", "(" * MAX_NESTING + "true" + ")" * MAX_NESTING)
    for command, out in (("check", "ok : Bool"), ("norm", "true"), ("canon", "true")):
        assert main([command, path]) == 0
        assert capsys.readouterr().out.strip() == out


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 3000])
def test_nesting_past_the_limit_is_a_parse_error(files, capsys, depth):
    path = files("t.tt", "(" * depth + "true" + ")" * depth)
    for command in ("check", "norm", "canon"):
        assert main([command, path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: 1:{MAX_NESTING + 2}: ") and err.count("\n") == 1


def test_inferred_lift_past_the_maximum_level_is_a_domain_error(files, capsys):
    assert main(["check", files("t2.tt", "lift lift true")]) == 0
    assert capsys.readouterr().out.strip() == "ok : Lift (Lift Bool)"
    path = files("t3.tt", "lift lift lift true")
    for command in ("check", "norm", "canon"):
        assert main([command, path]) == 1
        assert capsys.readouterr().err == "error: lifted type exceeds maximum level 2\n"


def _spine(args):
    """(fun f => f true ... true) with args arguments, ascribed (Bool -> Bool) -> Bool."""
    return "(fun f => f" + " true" * args + ") : (Bool -> Bool) -> Bool"


def test_spine_at_the_limit_answers(files, capsys):
    # the parenthesis and the binder body open two levels, each argument one more
    assert main(["check", files("t.tt", _spine(MAX_NESTING - 2))]) in (0, 1)
    err = capsys.readouterr().err
    assert "nested" not in err and err.count("\n") <= 1


@pytest.mark.parametrize("args", [MAX_NESTING - 1, 3000])
def test_spine_past_the_limit_is_a_parse_error(files, capsys, args):
    assert main(["check", files("t.tt", _spine(args))]) == 2
    err = capsys.readouterr().err
    # argument k starts at column 5k + 8, and argument MAX_NESTING - 1 is one too deep
    assert err.startswith(f"error: 1:{5 * (MAX_NESTING - 1) + 8}: nested more than") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["norm", "conv"])
def test_deep_normal_form_is_a_domain_error(files, capsys, command):
    path = files("t.tt", EXPONENTIAL)
    assert main([command, path] + ([path] if command == "conv" else [])) == 1
    err = capsys.readouterr().err
    assert err == "error: term nested too deeply for the recursion limit\n"


@pytest.mark.parametrize("command", ["check", "norm", "canon", "param", "conv"])
def test_wrong_ascription_exits_1(files, capsys, command):
    """Every file's ascription is checked, whatever the subcommand and --type say."""
    good, wrong = files("good.tt", "true : Bool"), files("wrong.tt", "true : Bool -> Bool")
    argv = {"norm": ["norm", wrong, "--type", "Bool"], "conv": ["conv", good, wrong]}.get(command, [command, wrong])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    # every input is parsed before any is checked, so a parse error wins
    assert main(["conv", wrong, good, "--type", "("]) == 2


def test_conv_without_a_type_is_a_usage_error(files, capsys):
    assert main(["conv", files("a.tt", "true"), files("b.tt", "true")]) == 2
    assert capsys.readouterr().err == "error: conv needs --type or an ascription in one of the files\n"


@pytest.mark.parametrize("argv", [["check"], ["norm"], ["canon"], ["param"], ["conv"], ["conv", "a.tt"]], ids=" ".join)
def test_missing_file_argument_is_a_usage_error(capsys, argv):
    assert main(argv) == 2
    assert "the following arguments are required" in capsys.readouterr().err


BENCH = bench_module("cli_cases")  # the input files and calls of the benchmark's cli workload
CHURCH_ID_TYPE = "(x0 : U0) -> (El x0) -> El x0"
CHURCH_ID_WITNESS_TYPE = "(x0 : U0) -> (x1 : (El x0) -> U0) -> (x2 : El x0) -> (El x1 x2) -> El x1 x2"
# the JSON objects of the subcommands that the benchmark checks only as text
JSON_CASES = (
    (
        ("--json", "check", "church_id.tt"),
        f'{{"command": "check", "input": "church_id.tt", "result": "ok : {CHURCH_ID_TYPE}"}}\n',
    ),
    (
        ("--json", "param", "church_id.tt"),
        f'{{"command": "param", "input": "church_id.tt", "result": "{CHURCH_ID_WITNESS_TYPE}", '
        f'"witness": "fun x0 => fun x1 => fun x2 => fun x3 => x3", "witness_type": "{CHURCH_ID_WITNESS_TYPE}"}}\n',
    ),
    # without --type, conv takes the ascription of b.tt
    (("--json", "conv", "a.tt", "b.tt"), '{"command": "conv", "input": "a.tt b.tt", "result": "equal"}\n'),
)


@pytest.mark.parametrize("case", BENCH.CASES + JSON_CASES, ids=lambda case: " ".join(case[0]))
def test_bench_cli_case_prints_exactly(tmp_path, monkeypatch, capsys, case):
    """Each call of the cli workload, in process, prints what the benchmark's correctness check expects."""
    argv, expected = case
    for name, text in {**BENCH.FILES, "a.tt": "true\n", "b.tt": "true : Bool\n"}.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(list(argv)) == 0
    assert capsys.readouterr().out == expected


# Counts compile events, one per module compiled from source and one per
# generated method set, during `import sconekit.cli` in a fresh interpreter,
# and reports which of the modules a node class or --json would need are
# loaded by then; the dataclass view must still work once asked for.
_STARTUP_PROBE = """
import sys
compiled = 0
def hook(event, args):
    global compiled
    if event == "compile":
        compiled += 1
sys.addaudithook(hook)
import sconekit.cli
print(compiled, "sconekit.oracle" in sys.modules, *(m in sys.modules for m in ("dataclasses", "inspect", "json")))
import dataclasses
from sconekit.syntax import Var
print([f.name for f in dataclasses.fields(Var)], dataclasses.replace(Var(0), ix=1))
"""


def test_cli_import_compiles_little_and_skips_the_oracle():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_PROBE], env=env, capture_output=True, text=True, check=True
    )
    loaded, view = proc.stdout.splitlines()
    compiled, oracle_loaded, *lazy = loaded.split()
    assert int(compiled) <= 120
    assert int(compiled) <= 45
    assert oracle_loaded == "False"
    assert lazy == ["False", "False", "False"]  # dataclasses, inspect, json
    assert view == "['ix'] Var(ix=1)"
