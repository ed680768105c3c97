"""The frozen crosscheck corpus: a JSON codec for core terms and normal forms.

Each line of corpus.jsonl is one item, a JSON object with a "kind" and
its fields.  Terms, types and normal forms are nested lists
``[ClassName, field, ...]`` over the dataclasses of sconekit.syntax and
sconekit.nbe; a context is the list of its entries, outermost first.
Canon items are closed Bool terms and store neither context nor type.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from pathlib import Path

from sconekit import nbe, syntax, typecheck

CORPUS_PATH = Path(__file__).with_name("corpus.jsonl")
# sha256 of corpus.jsonl as written by make_corpus.py; set-up refuses any other file
CORPUS_SHA256 = "0ad4845f7041746117d365eb9d4de1e144d202339548b9496fc3817cc3860246"

ITEM_FIELDS = {
    "norm": ("ctx", "ty", "term"),
    "stable": ("ctx", "ty", "nf"),
    "canon": ("term",),
    "conv": ("ctx", "ty", "a", "b"),
}

_CLASSES = {
    name: obj
    for module in (syntax, nbe)
    for name, obj in vars(module).items()
    if isinstance(obj, type) and issubclass(obj, (syntax.Term, nbe.Nf, nbe.Ne))
}


def encode(node):
    if isinstance(node, int):
        return node
    return [type(node).__name__, *(encode(getattr(node, f.name)) for f in fields(node))]


def decode(data):
    if isinstance(data, int):
        return data
    return _CLASSES[data[0]](*(decode(x) for x in data[1:]))


def encode_item(item: dict) -> str:
    obj = {"kind": item["kind"]}
    for name in ITEM_FIELDS[item["kind"]]:
        obj[name] = [encode(e) for e in item[name].entries] if name == "ctx" else encode(item[name])
    return json.dumps(obj, separators=(",", ":"))


def decode_item(line: str) -> dict:
    """The item as a dict; every kind has "ctx" and "ty" (a canon item's are empty and Bool)."""
    obj = json.loads(line)
    item = {"kind": obj["kind"], "ctx": syntax.Context(), "ty": syntax.Bool()}
    for name in ITEM_FIELDS[obj["kind"]]:
        item[name] = syntax.Context(tuple(map(decode, obj[name]))) if name == "ctx" else decode(obj[name])
    return item


def typecheck_item(item: dict) -> None:
    """Raise unless the item's context, type and terms are well formed."""
    kind, ctx, ty = item["kind"], item["ctx"], item["ty"]
    typecheck.check_context(ctx)
    typecheck.wf_type(ctx, ty)
    if kind == "stable":
        typecheck.check(ctx, nbe.embed(item["nf"]), ty)
    elif kind == "conv":
        typecheck.check(ctx, item["a"], ty)
        typecheck.check(ctx, item["b"], ty)
    else:
        typecheck.check(ctx, item["term"], ty)


class CorpusError(Exception):
    pass


def load_corpus() -> tuple[list[dict], str]:
    """Read, digest, round-trip and typecheck every item; return items and digest."""
    data = CORPUS_PATH.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if digest != CORPUS_SHA256:
        raise CorpusError(f"corpus digest {digest} differs from the pinned {CORPUS_SHA256}")
    items = []
    for n, line in enumerate(data.decode("utf-8").splitlines(), 1):
        item = decode_item(line)
        if encode_item(item) != line:
            raise CorpusError(f"corpus line {n} does not round-trip")
        try:
            typecheck_item(item)
        except (typecheck.TypeCheckError, syntax.ScopeError) as e:
            raise CorpusError(f"corpus line {n} does not typecheck: {e}") from None
        items.append(item)
    return items, digest
