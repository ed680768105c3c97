"""Node classes built by syntax.node behave like the frozen dataclasses they replace."""

import copy
import dataclasses
import itertools
import pickle

import pytest

from sconekit import canonicity, models, nbe, parametricity, surface, syntax

MODULES = (syntax, nbe, surface, canonicity, models, parametricity)

NODE_CLASSES = [
    cls
    for module in MODULES
    for cls in vars(module).values()
    if isinstance(cls, type)
    and issubclass(cls, syntax._Node)
    and cls is not syntax._Node
    and cls.__module__ == module.__name__
]


def _reference(cls):
    """A plain frozen dataclass with the same name and fields as cls."""
    spec = [
        (f.name, f.type) if f.default is dataclasses.MISSING else (f.name, f.type, f.default)
        for f in dataclasses.fields(cls)
    ]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


def _args(cls, tag):
    return [(i, f"{tag}{i}", None, syntax.Var(i)) for i in range(len(dataclasses.fields(cls)))]


def test_every_node_class_is_found():
    assert len(NODE_CLASSES) == 68


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: f"{c.__module__}.{c.__name__}")
def test_node_class_matches_its_dataclass_reference(cls):
    ref = _reference(cls)
    args, other = _args(cls, "a"), _args(cls, "b")
    x, y, r = cls(*args), cls(*args), ref(*args)
    assert repr(x) == repr(r)
    assert cls.__match_args__ == ref.__match_args__
    assert [(f.name, f.type, f.default) for f in dataclasses.fields(cls)] == [
        (f.name, f.type, f.default) for f in dataclasses.fields(ref)
    ]
    assert dataclasses.is_dataclass(x) and not hasattr(x, "__dict__")
    assert x == y and hash(x) == hash(y) == hash(r)
    assert x.__eq__(r) is NotImplemented and x != r
    assert copy.copy(x) == x == pickle.loads(pickle.dumps(x))
    if args:
        assert x != cls(*other)
    for name, value in zip(cls.__match_args__, other):
        changed = dataclasses.replace(x, **{name: value})
        assert getattr(changed, name) == value and repr(changed) == repr(dataclasses.replace(r, **{name: value}))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, name, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(x, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        x.extra = 1


def test_same_shaped_node_classes_are_unequal():
    assert syntax.Bool() != syntax.TrueTm()
    assert syntax.Lift(syntax.Bool()) != syntax.Code(syntax.Bool())
    assert nbe.VBool() != nbe.VTrue() and hash(nbe.VBool()) == hash(nbe.VTrue())
    for a, b in itertools.combinations(NODE_CLASSES, 2):
        n = len(dataclasses.fields(a))
        if n == len(dataclasses.fields(b)):
            assert a(*_args(a, "a")) != b(*_args(b, "a")), (a, b)


def test_node_defaults_and_inherited_fields():
    assert syntax.Context() == syntax.Context((), ()) and repr(syntax.Context()) == "Context(entries=(), values=())"
    assert syntax.Context(entries=(syntax.Bool(),)).values == ()
    assert surface.SVar.__match_args__ == ("line", "col", "name")
    assert surface.SVar.__slots__ == ("name",)
    assert repr(surface.SVar(1, 2, "x")) == "SVar(line=1, col=2, name='x')"


# the fields that bind a variable in their node, each binding exactly one
BINDERS = {
    (syntax.Lam, "body"),
    (syntax.Pi, "cod"),
    (syntax.ElimBool, "motive"),
    (nbe.LamNf, "body"),
    (nbe.PiNf, "cod"),
    (nbe.ElimBoolNe, "motive"),
}


def test_children_declare_each_node_field_and_its_binders():
    bases = (syntax.Term, nbe.Nf, nbe.Ne)
    classes = [cls for cls in NODE_CLASSES if issubclass(cls, bases) and cls not in bases]
    assert len(classes) == 31
    for cls in classes:
        if cls in (syntax.Var, nbe.VarNe):
            assert cls._children is None
            continue
        names = [name for name, _ in cls._children]
        assert names == [f.name for f in dataclasses.fields(cls) if f.type in ("Term", "Nf", "Ne")], cls
        # the walks rebuild a node from its children alone
        assert not names or tuple(names) == cls.__match_args__, cls
        for name, binds in cls._children:
            assert binds == (1 if (cls, name) in BINDERS else 0), (cls, name)
