"""Surface syntax: parsing, scope resolution, printing round-trips."""

import pytest

from sconekit.syntax import (
    App,
    Bool,
    Context,
    El,
    ElimBool,
    FalseTm,
    Lam,
    Pi,
    ScopeError,
    TrueTm,
    U,
    Var,
)
from sconekit import oracle
from sconekit.surface import (
    MAX_NESTING,
    SurfaceError,
    parse,
    parse_file_contents,
    pretty,
    resolve_term,
    resolve_type,
)

import generated


def test_parse_true():
    assert resolve_term(parse("true")) == TrueTm()


def test_parse_negation():
    got = resolve_term(parse("fun b => elim b at _ => Bool | false | true"))
    assert got == Lam(ElimBool(Bool(), FalseTm(), TrueTm(), Var(0)))


def test_parse_polymorphic_identity_type():
    got = resolve_type(parse("(A : U0) -> A -> A"))
    assert got == Pi(U(0), Pi(El(Var(0)), El(Var(1))))


def test_el_inserted_only_for_code_valued_heads():
    assert resolve_type(parse("Bool -> Bool")) == Pi(Bool(), Bool())


def test_unknown_identifier_reports_span():
    with pytest.raises(SurfaceError) as e:
        resolve_term(parse("fun x => y"))
    assert "y" in str(e.value) and "1:10" in str(e.value)


def test_syntax_error_has_position():
    with pytest.raises(SurfaceError, match=r"1:\d+"):
        parse("fun =>")


def _resolve(text):
    return resolve_term(parse(text))


@pytest.mark.parametrize(
    "read, text, message",
    [
        (parse, "€", "1:1: unexpected character '€'"),
        (parse, "²", "1:1: unexpected character '²'"),
        (parse, "fun x x", "1:7: expected '=>', found 'x'"),
        (parse, "true true)", "1:10: trailing input starting at ')'"),
        (parse_file_contents, "fun x => x : U0 : U0", "1:17: trailing input starting at ':'"),
        (parse, "elim true at => Bool | true | false", "1:14: expected an identifier, found '=>'"),
        (_resolve, "Bool", "1:1: type former in term position; wrap it with `code`"),
        (_resolve, "El x", "1:1: type former in term position; wrap it with `code`"),
        (_resolve, "Lift Bool", "1:1: type former in term position; wrap it with `code`"),
        (_resolve, "U0", "1:1: type former in term position; wrap it with `code`"),
        (_resolve, "Bool -> Bool", "1:1: type former in term position; wrap it with `code`"),
        (_resolve, "(A : U0) -> A", "1:1: type former in term position; wrap it with `code`"),
        (_resolve, "lift (Lift Bool)", "1:7: type former in term position; wrap it with `code`"),
        (_resolve, "unlift U1", "1:8: type former in term position; wrap it with `code`"),
        (_resolve, "true Bool", "1:6: type former in term position; wrap it with `code`"),
        (parse, "(true -- c\n", "2:1: expected ')', found 'end of input'"),
        # the end of input after a trailing comment sits past the comment
        (parse, "(true -- c", "1:11: expected ')', found 'end of input'"),
    ],
)
def test_surface_errors_report_their_position(read, text, message):
    with pytest.raises(SurfaceError) as e:
        read(text)
    assert str(e.value) == message


def test_comments_and_whitespace():
    text = "-- negation\nfun b =>  -- binder\n  elim b at _ => Bool | false | true\n"
    assert isinstance(resolve_term(parse(text)), Lam)


def test_ascription_splits_term_and_type():
    t, ann = parse_file_contents("(fun A => fun a => a) : (A : U0) -> A -> A")
    assert resolve_term(t) == Lam(Lam(Var(0)))
    assert resolve_type(ann) == Pi(U(0), Pi(El(Var(0)), El(Var(1))))


def test_application_is_left_associative():
    got = resolve_term(parse("fun f => fun a => fun b => f a b"))
    assert got == Lam(Lam(Lam(App(App(Var(2), Var(1)), Var(0)))))


def test_pretty_names_by_binder_depth():
    t = Lam(Lam(App(Var(1), Var(0))))
    assert pretty(t) == "fun x0 => fun x1 => x0 x1"
    # the domain holds a Pi at the same depth, which names its own binder
    assert pretty(Pi(Pi(U(0), El(Var(0))), Bool())) == "((x0 : U0) -> El x0) -> Bool"
    # the codomain uses the outer binder from inside an inner Pi
    assert pretty(Pi(U(0), Pi(Bool(), El(Var(1))))) == "(x0 : U0) -> Bool -> El x0"


@pytest.mark.parametrize("t", [Var(3), Lam(Var(1)), Lam(Var(-1)), Pi(Bool(), App(Var(0), Var(1)))], ids=repr)
def test_pretty_of_an_unbound_variable_is_a_scope_error(t):
    """A variable that its term does not bind has no name to print."""
    with pytest.raises(ScopeError, match="is not bound"):
        pretty(t)


def test_universe_suffix_is_decimal_digits():
    assert resolve_type(parse("U١")) == U(1)  # an Arabic-Indic digit one
    with pytest.raises(SurfaceError, match="unknown identifier 'U²'"):
        resolve_type(parse("U²"))


def test_print_parse_roundtrip_on_generated_closed_terms():
    count = 0
    for seed in range(150):
        ctx, _, t = generated.term(seed)
        if t is None:
            continue
        closed = t
        for _ in ctx.entries:
            closed = Lam(closed)
        assert resolve_term(parse(pretty(closed))) == closed
        count += 1
    assert count >= 60


def test_print_parse_roundtrip_on_types():
    for seed in range(100):
        ty = oracle.gen_type(oracle.GenBudget(seed=seed), Context())
        assert resolve_type(parse(pretty(ty))) == ty


@pytest.mark.parametrize(
    "nest",
    [
        lambda k: "(" * k + "true" + ")" * k,
        lambda k: "fun x => " * k + "x",
        lambda k: "Bool -> " * k + "Bool",
        lambda k: "(x : " * k + "Bool" + ") -> Bool" * k,
        lambda k: "lift " * k + "true",
        lambda k: "elim true at _ => Bool | true | " * k + "false",
        lambda k: "f" + " x" * k,
    ],
)
def test_nesting_limit_counts_every_construct(nest):
    parse(nest(MAX_NESTING))
    with pytest.raises(SurfaceError, match=f"nested more than {MAX_NESTING} levels"):
        parse(nest(MAX_NESTING + 1))
