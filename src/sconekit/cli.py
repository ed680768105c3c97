"""Command-line front door: check, norm, canon, param, conv.

Exit codes: 0 success, 1 domain error (type error, unsupported
fragment, canonicity failure), 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import canonicity, nbe, parametricity, typecheck
from .surface import SurfaceError, parse, parse_file_contents, pretty, resolve_term, resolve_type
from .syntax import Context, DepthError, Term


class UsageError(Exception):
    pass


def _load(path: str) -> tuple[Term, Optional[Term]]:
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


def _parse_type(text: str) -> Term:
    return resolve_type(parse(text))


def _emit(args: argparse.Namespace, payload: dict) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(payload["result"])


def _cmd_check(args: argparse.Namespace) -> int:
    term, ann = _load(args.file)
    ctx = Context()
    if ann is not None:
        typecheck.check(ctx, term, ann)
        ty = ann
    else:
        ty = typecheck.infer(ctx, term)
    payload = {
        "command": "check",
        "input": args.file,
        "result": f"ok : {pretty(ty)}",
    }
    _emit(args, payload)
    return 0


def _require_type(term: Term, ann: Optional[Term], flag_ty: Optional[str]) -> Term:
    if flag_ty is not None:
        return _parse_type(flag_ty)
    if ann is not None:
        return ann
    return typecheck.infer(Context(), term)


def _cmd_norm(args: argparse.Namespace) -> int:
    term, ann = _load(args.file)
    ctx = Context()
    ty = _require_type(term, ann, args.type)
    typecheck.check(ctx, term, ty)
    nf = nbe.norm(ctx, ty, term)
    text = pretty(nbe.embed(nf))
    payload = {
        "command": "norm",
        "input": args.file,
        "result": text,
        "normal_form": text,
    }
    _emit(args, payload)
    return 0


def _cmd_canon(args: argparse.Namespace) -> int:
    term, ann = _load(args.file)
    if ann is not None:
        typecheck.check(Context(), term, ann)
    witness = canonicity.canon(term)
    payload = {
        "command": "canon",
        "input": args.file,
        "result": witness.value,
    }
    _emit(args, payload)
    return 0


def _cmd_param(args: argparse.Namespace) -> int:
    term, ann = _load(args.file)
    if ann is None:
        ann = typecheck.infer(Context(), term)
    result = parametricity.translate(term, ann)
    wty = pretty(nbe.embed(nbe.norm_type(Context(), result.witness_type)))
    payload = {
        "command": "param",
        "input": args.file,
        "result": wty,
        "witness_type": wty,
        "witness": pretty(result.witness),
    }
    _emit(args, payload)
    return 0


def _cmd_conv(args: argparse.Namespace) -> int:
    a, ann_a = _load(args.file1)
    b, ann_b = _load(args.file2)
    ty = _parse_type(args.type) if args.type is not None else (ann_a or ann_b)
    if ty is None:
        raise UsageError("conv needs --type or an ascription in one of the files")
    equal = typecheck.conv(Context(), ty, a, b)
    payload = {
        "command": "conv",
        "input": f"{args.file1} {args.file2}",
        "result": "equal" if equal else "not equal",
    }
    _emit(args, payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sconekit",
        description="Typecheck, normalize and translate terms of a small dependent type theory.",
    )
    parser.add_argument("--json", action="store_true", help="emit a machine-readable object")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="typecheck a file")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("norm", help="print the normal form")
    p.add_argument("file")
    p.add_argument("--type", help="type to normalize at (surface syntax)")
    p.set_defaults(fn=_cmd_norm)

    p = sub.add_parser("canon", help="decide which boolean a closed Bool term equals")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_canon)

    p = sub.add_parser("param", help="print the parametricity witness type")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_param)

    p = sub.add_parser("conv", help="decide convertibility of two files at a type")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--type", help="shared type (surface syntax)")
    p.set_defaults(fn=_cmd_conv)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    try:
        return args.fn(args)
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


if __name__ == "__main__":
    sys.exit(main())
