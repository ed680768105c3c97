"""Documented errors at the public boundary: ill-typed input and deep terms."""

import random

import pytest

import generated
import sconekit
from sconekit import DepthError, IllTypedError, oracle
from sconekit.canonicity import CanonicityError, _fresh, canon, glued_eval, glued_eval_type
from sconekit.models import SHOWN, STANDARD, ModelError, eval_term, show
from sconekit.nbe import BoolNf, LamNf, NeAtBool, PiNf, VarNe, embed, norm, norm_type, show_nf
from sconekit.parametricity import ParametricityError, param_family, param_term, shadow, translate
from sconekit.surface import parse_file_contents, pretty, resolve_term, resolve_type
from sconekit.syntax import (
    App,
    Bool,
    Code,
    Context,
    El,
    ElimBool,
    Lam,
    Lift,
    Pi,
    Renaming,
    ScopeError,
    Substitution,
    TrueTm,
    U,
    Var,
    is_closed,
    mentions,
    rename,
    shift,
    subst,
    subst1,
    term_size,
)
from sconekit.typecheck import TypeCheckError, check, check_context, conv, conv_types, infer, wf_type
from test_parametricity import pi_chain
from test_typecheck import _MUTATIONS, _replace, _subterms

DEPTH = 3000
# twice applied to itself 12 times: a 12-deep term with a 4,096-deep normal form
EXPONENTIAL = (
    "(fun t => fun f => fun x => (t (t (t (t (t (t (t (t (t (t (t (t f)))))))))))) x)"
    " (elim true at _ => (Bool -> Bool) -> Bool -> Bool | (fun g => fun y => g (g y)) | (fun g => g))"
    " : (Bool -> Bool) -> Bool -> Bool"
)


def _nested_identity(t, n=DEPTH):
    """(fun x => x) ((fun x => x) (... t)), n redexes deep."""
    for _ in range(n):
        t = App(Lam(Var(0)), t)
    return t


def _deep_pi(n=DEPTH):
    """Bool -> (Bool -> ... -> Bool), n arrows deep."""
    ty = Bool()
    for _ in range(n):
        ty = Pi(Bool(), ty)
    return ty


def _nested(former, t, n=DEPTH):
    """former(former(... t)), n deep."""
    for _ in range(n):
        t = former(t)
    return t


def _nary(n):
    """(fun x1 ... xn => x1) true ... true: checked as lets, so only evaluation recurses n deep."""
    t = Var(n - 1)
    for _ in range(n):
        t = Lam(t)
    for _ in range(n):
        t = App(t, TrueTm())
    return t


def test_error_classes_are_exported_and_compatible():
    assert sconekit.IllTypedError is IllTypedError and issubclass(IllTypedError, TypeError)
    assert sconekit.DepthError is DepthError and issubclass(DepthError, RecursionError)
    assert sconekit.ParametricityError is ParametricityError
    assert issubclass(sconekit.UnsupportedFragmentError, ParametricityError)
    assert issubclass(sconekit.NotInferableError, TypeCheckError)
    assert issubclass(sconekit.LevelError, TypeCheckError)


def test_package_exports():
    # the submodules imported by __init__ are exported under their own names
    assert sorted(sconekit.__all__) == [
        "App", "Bool", "BoolWitness", "CanonicityError", "Code", "Context", "DepthError", "El",
        "ElimBool", "FalseTm", "IllTypedError", "Lam", "LevelError", "Lift", "LiftTm", "ModelError",
        "Ne", "Nf", "NotInferableError", "ParamResult", "ParametricityError", "Pi", "Renaming",
        "ScopeError", "Substitution", "Term", "TrueTm", "TypeCheckError", "TypeMismatchError", "U",
        "UnliftTm", "UnsupportedFragmentError", "Var", "canon", "canonicity", "check", "conv",
        "conv_types", "embed", "glued_eval", "infer", "models", "nbe", "norm", "norm_type",
        "param_family", "param_term", "parametricity", "rename", "shift", "subst", "subst1", "syntax",
        "term_size", "translate", "typecheck", "wf_type",
    ]


# one declared entry and two definitions: the second defines no entry
OVERDEFINED = Context((Bool(),), (None, TrueTm()))
OVERDEFINED_CALLS = {
    "norm": lambda: norm(OVERDEFINED, Bool(), Var(0)),
    "norm_type": lambda: norm_type(OVERDEFINED, Bool()),
    "check": lambda: check(OVERDEFINED, Var(0), Bool()),
    "infer": lambda: infer(OVERDEFINED, Var(0)),
    "conv": lambda: conv(OVERDEFINED, Bool(), Var(0), Var(0)),
    "conv_types": lambda: conv_types(OVERDEFINED, Bool(), Bool()),
    "wf_type": lambda: wf_type(OVERDEFINED, Bool()),
    "check_context": lambda: check_context(OVERDEFINED),
    "oracle_norm": lambda: oracle.oracle_norm(OVERDEFINED, Bool(), Var(0)),
    "oracle_norm_type": lambda: oracle.oracle_norm_type(OVERDEFINED, Bool()),
    "oracle_conv": lambda: oracle.oracle_conv(OVERDEFINED, Bool(), Var(0), Var(0)),
}


@pytest.mark.parametrize("name", OVERDEFINED_CALLS)
def test_more_definitions_than_entries_is_a_scope_error(name):
    with pytest.raises(ScopeError, match="context of 1 entries has 2 definitions"):
        OVERDEFINED_CALLS[name]()


NONE_CTX = Context((None,))  # an entry that is no term


@pytest.mark.parametrize(
    "call",
    [
        lambda: check(NONE_CTX, TrueTm(), Bool()),
        lambda: infer(NONE_CTX, TrueTm()),
        lambda: wf_type(NONE_CTX, Bool()),
        lambda: norm_type(NONE_CTX, Bool()),
        lambda: norm(Context(), Bool(), None),
        lambda: glued_eval((), App(Lam(Var(0)), None)),
    ],
    ids=["check", "infer", "wf_type", "norm_type", "norm", "glued_eval"],
)
def test_what_is_no_term_is_a_model_error(call):
    with pytest.raises(sconekit.ModelError, match="None is not interpretable"):
        call()


def test_check_in_a_context_whose_entry_is_no_type():
    with pytest.raises(IllTypedError, match="cannot quote type value VTrue"):
        check(Context((TrueTm(),)), Var(0), Bool())


def test_check_evaluates_every_context_entry():
    """The checker evaluates the caller's entries when it opens its scope, so one that fails to evaluate raises though no term reads it."""
    with pytest.raises(IllTypedError, match="cannot apply non-function value VTrue"):
        check(Context((App(TrueTm(), TrueTm()),)), TrueTm(), Bool())


def test_norm_of_an_ill_typed_term():
    with pytest.raises(IllTypedError, match="cannot quote VLam"):
        norm(Context(), Bool(), Lam(Var(0)))


def test_error_message_is_bounded():
    """A stuck value that shares its spine shows a cut repr, not the exponential tree it spells out."""
    t = Var(0)
    for _ in range(10):  # a 71-node term whose value's repr runs to 61 MB
        t = App(Lam(ElimBool(Bool(), Var(0), Var(0), Var(0))), t)
    with pytest.raises(IllTypedError, match="cannot quote VBool") as info:
        norm(Context((Bool(),)), t, Bool())  # term and type swapped
    assert len(str(info.value)) <= 400


def _type_level_twin(k):
    """El c_k, c_0 = code Bool, c_k = (fun c => code (El c -> El c)) c_(k-1): a normal type of 2^k leaves."""
    c = Code(Bool())
    for _ in range(k):
        c = App(Lam(Code(Pi(El(Var(0)), El(Var(1))))), c)
    return El(c)


def _shared_tree(former, leaf, k=12):
    """former(x, x) nested k times around leaf: k nodes shared, 2^k leaves when printed."""
    for _ in range(k):
        leaf = former(leaf, leaf)
    return leaf


@pytest.mark.parametrize(
    ("error", "call"),
    [
        (TypeCheckError, lambda: check(Context(), TrueTm(), _type_level_twin(14))),
        (ModelError, lambda: eval_term(STANDARD, (), _shared_tree(PiNf, BoolNf()))),
        (oracle.OracleError, lambda: oracle.oracle_norm_type(Context(), Lam(_shared_tree(App, TrueTm())))),
        (TypeError, lambda: pretty(_shared_tree(PiNf, BoolNf()))),
    ],
    ids=["typecheck expected type", "models not interpretable", "oracle not a type", "surface not a term"],
)
def test_messages_that_print_a_term_are_bounded(error, call):
    """A term or normal form whose repr runs to 90-330 thousand characters is cut in the message."""
    with pytest.raises(error) as info:
        call()
    assert len(str(info.value)) <= 700


def test_shown_normal_form_embeds_only_what_it_prints():
    """A normal form of 2^40 leaves shows at once: show_nf embeds only the nodes within SHOWN characters."""
    text = show_nf(_shared_tree(PiNf, BoolNf(), 40))
    assert text.startswith("Pi(dom=Pi(dom=") and text.endswith("…") and len(text) == SHOWN + 1


@pytest.mark.parametrize("k", [2, 8])
def test_checker_message_shows_the_embedded_normal_type(k):
    """The message is byte for byte show(embed(nf)), whether it fits in SHOWN characters (k = 2) or is cut (k = 8)."""
    ty = _type_level_twin(k)
    with pytest.raises(TypeCheckError) as info:
        check(Context(), TrueTm(), ty)
    assert str(info.value) == f"expected type {show(embed(norm_type(Context(), ty)))}, got Bool()"


def test_error_message_shows_no_memory_address():
    """A closure in a message shows its model by name, not as an object address."""
    with pytest.raises(IllTypedError, match="Clo") as info:
        norm(Context(), Bool(), Lam(Var(0)))
    assert "0x" not in str(info.value)


DEEP = _nested_identity(TrueTm())
_exp_term, _exp_ty = parse_file_contents(EXPONENTIAL)
EXP_TERM, EXP_TY = resolve_term(_exp_term), resolve_type(_exp_ty)
BOOL_CTX, LAM_CHAIN = Context((Bool(),)), _nested(Lam, Var(0))
DEEP_PI_CTX = Context((_deep_pi(),))
ENTRY_POINTS = {
    "check": lambda: check(Context(), DEEP, Bool()),
    "conv": lambda: conv(Context(), Bool(), DEEP, TrueTm()),
    "norm": lambda: norm(Context(), Bool(), DEEP),
    "norm_type": lambda: norm_type(Context(), El(_nested_identity(Code(Bool())))),
    "canon": lambda: canon(DEEP),
    "canon past the checker": lambda: canon(_nary(DEPTH)),
    "conv of deep normal forms": lambda: conv(Context(), EXP_TY, EXP_TERM, EXP_TERM),
    "infer": lambda: infer(Context(), DEEP),
    "wf_type": lambda: wf_type(Context(), _deep_pi()),
    "check_context": lambda: check_context(Context((El(_nested_identity(Code(Bool()))),))),
    "conv_types": lambda: conv_types(Context(), _deep_pi(), _deep_pi()),
    "embed": lambda: embed(_nested(LamNf, NeAtBool(VarNe(0)))),
    "==": lambda: _nested(LamNf, NeAtBool(VarNe(0))) == _nested(LamNf, NeAtBool(VarNe(0))),
    "hash": lambda: hash(_nested(LamNf, NeAtBool(VarNe(0)))),
    "repr": lambda: repr(_nested(LamNf, NeAtBool(VarNe(0)))),
    "pretty": lambda: pretty(_nested(Lam, Var(0))),
    "glued_eval": lambda: glued_eval((), DEEP),
    "glued_eval_type": lambda: glued_eval_type((), El(_nested_identity(Code(Bool())))),
    "param_term": lambda: param_term(_nested_identity(Var(0))),
    "param_family": lambda: param_family(_nested(lambda cod: Pi(U(0), cod), U(0))),
    "shadow": lambda: shadow(_deep_pi()),
    "translate": lambda: translate(*pi_chain(250)),  # the subject checks; the translation overflows
    "term_size": lambda: term_size(LAM_CHAIN),
    "is_closed": lambda: is_closed(LAM_CHAIN),
    "mentions": lambda: mentions(LAM_CHAIN, 0),
    "shift": lambda: shift(LAM_CHAIN, 1),
    "subst1": lambda: subst1(LAM_CHAIN, TrueTm()),
    "subst": lambda: subst(Substitution(BOOL_CTX, BOOL_CTX, (Var(0),)), LAM_CHAIN),
    "rename": lambda: rename(Renaming(BOOL_CTX, BOOL_CTX, (0,)), LAM_CHAIN),
    "gen_type": lambda: oracle.gen_type(oracle.GenBudget(), DEEP_PI_CTX),
    "gen_term": lambda: oracle.gen_term(oracle.GenBudget(), Context(), _deep_pi()),
    "gen_term at a deep Lift": lambda: oracle.gen_term(oracle.GenBudget(), Context(), _nested(Lift, Bool())),
    "gen_term in a deep context": lambda: oracle.gen_term(oracle.GenBudget(), DEEP_PI_CTX, Bool()),
    "gen_nf": lambda: oracle.gen_nf(oracle.GenBudget(), DEEP_PI_CTX, Bool()),
    "gen_closing_substitution": lambda: oracle.gen_closing_substitution(oracle.GenBudget(), DEEP_PI_CTX),
    "gen_renaming": lambda: oracle.gen_renaming(oracle.GenBudget(), DEEP_PI_CTX),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_deep_term_is_a_depth_error(name):
    with pytest.raises(DepthError, match="nested too deeply") as info:
        ENTRY_POINTS[name]()
    assert info.type is DepthError and info.value.__cause__ is None


def test_norm_answers_on_a_long_binder_chain():
    """quote reads a chain of Π-types in a loop, so fun x1 ... xn => x1 normalizes at n = DEPTH."""
    t, ty = Var(DEPTH - 1), Bool()
    for _ in range(DEPTH):
        t, ty = Lam(t), Pi(Bool(), ty)
    nf = norm(Context(), ty, t)
    for _ in range(DEPTH):
        assert isinstance(nf, LamNf)
        nf = nf.body
    assert nf == NeAtBool(VarNe(DEPTH - 1))


def test_syntax_walks_answer_on_a_400_deep_chain():
    """Each walk costs one frame per node of nesting, so 400 nested redexes fit the default limit."""
    t = Var(0)
    for _ in range(400):
        t = App(Lam(t), TrueTm())
    assert term_size(shift(t, 1)) == term_size(subst1(t, TrueTm())) == 1201
    assert is_closed(t)
    assert pretty(t).startswith("(fun x0 => ")


DOCUMENTED = (TypeCheckError, ScopeError, IllTypedError, DepthError, CanonicityError, ParametricityError, oracle.OracleError)


def test_mutants_raise_only_documented_errors_and_agree_when_accepted():
    """Mutate generated terms; every entry point answers or raises a documented
    error, and NbE agrees with the oracle on every mutant the checker accepts."""
    accepted = 0
    for seed in range(200):
        ctx, ty, t = generated.term(seed)
        if t is None:
            continue
        env = tuple(_fresh(level) for level in range(len(ctx)))
        rng = random.Random(seed)
        for _ in range(5):
            path, sub = rng.choice(list(_subterms(t)))
            u = _replace(t, path, rng.choice(_MUTATIONS)(sub, rng))
            calls = {
                "check": lambda: check(ctx, u, ty),
                "infer": lambda: infer(ctx, u),
                "norm": lambda: norm(ctx, ty, u),
                "conv": lambda: conv(ctx, ty, u, t),
                "canon": lambda: canon(u),
                "glued_eval": lambda: glued_eval(env, u),
                "translate": lambda: translate(u, ty),
                "oracle_norm": lambda: oracle.oracle_norm(ctx, ty, u),
            }
            verdicts = {}
            for name, call in calls.items():
                try:
                    verdicts[name] = call()
                except DOCUMENTED:
                    pass
            if "check" in verdicts:
                accepted += 1
                assert embed(verdicts["norm"]) == verdicts["oracle_norm"], (seed, u)
    assert accepted >= 300, accepted
