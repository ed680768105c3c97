"""Command-line calls of the cli workload, with hand-written expected output.

The input files are the README examples; each case is the argument list
of one `sconekit` call, run in the directory holding the files, and the
exact text the call must print on stdout with exit code 0.
"""

FILES = {
    "neg_true.tt": "(fun b => elim b at _ => Bool | false | true) true\n",
    "church_id.tt": "(fun A => fun a => a) : (A : U0) -> A -> A\n",
    "true.tt": "true\n",
    "false.tt": "false\n",
}

CASES = (
    (("check", "church_id.tt"), "ok : (x0 : U0) -> (El x0) -> El x0\n"),
    (("check", "neg_true.tt"), "ok : Bool\n"),
    (("norm", "neg_true.tt", "--type", "Bool"), "false\n"),
    (("norm", "church_id.tt"), "fun x0 => fun x1 => x1\n"),
    (("canon", "neg_true.tt"), "false\n"),
    (
        ("param", "church_id.tt"),
        "(x0 : U0) -> (x1 : (El x0) -> U0) -> (x2 : El x0) -> (El x1 x2) -> El x1 x2\n",
    ),
    (("conv", "neg_true.tt", "false.tt", "--type", "Bool"), "equal\n"),
    (("conv", "true.tt", "false.tt", "--type", "Bool"), "not equal\n"),
    (
        ("--json", "canon", "neg_true.tt"),
        '{"command": "canon", "input": "neg_true.tt", "result": "false"}\n',
    ),
    (
        ("--json", "norm", "neg_true.tt", "--type", "Bool"),
        '{"command": "norm", "input": "neg_true.tt", "normal_form": "false", "result": "false"}\n',
    ),
)
