"""Command-line front door: check, norm, canon, param, conv.

Each subcommand is one row of COMMANDS. `main` reads, parses and resolves
its files and then `--type`, checks each file's term against its
`term : type` ascription, runs the row and prints the result as text or JSON.

Exit codes: 0 success, 1 domain error (type error, unsupported
fragment, canonicity failure), 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from . import canonicity, nbe, parametricity, typecheck
from .surface import SurfaceError, parse, parse_file_contents, pretty, resolve_term, resolve_type
from .syntax import Context, DepthError, Term

Loaded = tuple[Term, Optional[Term]]  # a file's term and its ascription, if it has one


class UsageError(Exception):
    pass


def _load(path: str) -> Loaded:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:  # its text names the file
        raise UsageError(str(e)) from None
    except UnicodeDecodeError as e:
        raise UsageError(f"{path}: {e}") from None
    term_s, ann_s = parse_file_contents(text)
    ann = resolve_type(ann_s) if ann_s is not None else None
    return resolve_term(term_s), ann


def _type_of(term: Term, ann: Optional[Term]) -> Term:
    """The ascription, already checked, or else the inferred type."""
    return ann if ann is not None else typecheck.infer(Context(), term)


def _check(files: list[Loaded], ty: None) -> dict:
    return {"result": f"ok : {pretty(_type_of(*files[0]))}"}


def _norm(files: list[Loaded], ty: Optional[Term]) -> dict:
    [(term, ann)] = files
    if ty is not None:
        typecheck.check(Context(), term, ty)
    else:
        ty = _type_of(term, ann)
    text = pretty(nbe.embed(nbe.norm(Context(), ty, term)))
    return {"result": text, "normal_form": text}


def _canon(files: list[Loaded], ty: None) -> dict:
    return {"result": canonicity.canon(files[0][0]).value}


def _param(files: list[Loaded], ty: None) -> dict:
    result = parametricity.translate(files[0][0], _type_of(*files[0]))
    wty = pretty(nbe.embed(nbe.norm_type(Context(), result.witness_type)))
    return {"result": wty, "witness_type": wty, "witness": pretty(result.witness)}


def _conv(files: list[Loaded], ty: Optional[Term]) -> dict:
    [(a, ann_a), (b, ann_b)] = files
    if (ty := ty or ann_a or ann_b) is None:
        raise UsageError("conv needs --type or an ascription in one of the files")
    return {"result": "equal" if typecheck.conv(Context(), ty, a, b) else "not equal"}


# One row per subcommand: name, help, file arguments, help of --type (None: no
# --type), and a function from the loaded files and the --type to its fields.
COMMANDS = (
    ("check", "typecheck a file", ("file",), None, _check),
    ("norm", "print the normal form", ("file",), "type to normalize at (surface syntax)", _norm),
    ("canon", "decide which boolean a closed Bool term equals", ("file",), None, _canon),
    ("param", "print the parametricity witness type", ("file",), None, _param),
    ("conv", "decide convertibility of two files at a type", ("file1", "file2"), "shared type (surface syntax)", _conv),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sconekit",
        description="Typecheck, normalize and translate terms of a small dependent type theory.",
    )
    parser.add_argument("--json", action="store_true", help="emit a machine-readable object")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, files, type_help, run in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for file in files:
            p.add_argument(file)
        if type_help is not None:
            p.add_argument("--type", help=type_help)
        p.set_defaults(files=files, run=run, type=None)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    paths = [getattr(args, name) for name in args.files]
    try:
        files = [_load(path) for path in paths]
        ty = resolve_type(parse(args.type)) if args.type is not None else None
        for term, ann in files:
            if ann is not None:
                typecheck.check(Context(), term, ann)
        fields = args.run(files, ty)
    except (SurfaceError, UsageError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (
        typecheck.TypeCheckError,
        typecheck.ScopeError,
        canonicity.CanonicityError,
        parametricity.ParametricityError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except RecursionError:  # a DepthError, or one from a layer without a depth guard
        print(f"error: {DepthError()}", file=sys.stderr)
        return 1
    fields.update(command=args.command, input=" ".join(paths))
    if args.json:
        import json  # only here, so a plain call does not load it

        print(json.dumps(fields, sort_keys=True))
    else:
        print(fields["result"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
