"""Named surface syntax: lexer, parser, scope resolution, pretty-printer.

The surface language mirrors the core term language with names instead
of indices.  Identifiers in type position that are not type formers are
wrapped in El during resolution, so `(A : U0) -> A -> A` means
`(A : U0) -> El A -> El A`.  The printer keeps El explicit, which makes
print-then-parse a syntactic fixpoint.
"""

from __future__ import annotations

import re
from typing import Optional

from .models import show
from .syntax import (
    App,
    Bool,
    Code,
    El,
    ElimBool,
    FalseTm,
    Lam,
    Lift,
    LiftTm,
    Pi,
    ScopeError,
    Term,
    TrueTm,
    U,
    UnliftTm,
    Var,
    depth_guarded,
    node,
)


class SurfaceError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Lexer


@node
class Token:
    kind: str  # ident, keyword, symbol, eof
    text: str
    line: int
    col: int


# The core former each constant and each prefix keyword names.
_CONSTANT = {"Bool": Bool, "true": TrueTm, "false": FalseTm}
_PREFIX = {"El": El, "code": Code, "Lift": Lift, "lift": LiftTm, "unlift": UnliftTm}
_FORMER = _CONSTANT | _PREFIX
KEYWORDS = {"fun", "elim", "at", *_FORMER}

# One alternative per token shape, tried in order; `\Z` matches once, empty,
# at the end of the input.  Blanks and comments yield no token, and a word
# must start with a letter or `_`.
_TOKEN = re.compile(
    r"(?P<newline>\n)|(?P<blank>[ \t\r]+)|(?P<comment>--[^\n]*)|(?P<symbol>->|=>|[():|])"
    r"|(?P<word>[\w']+)|(?P<other>.)|(?P<eof>\Z)"
)


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        lexeme, col = m.group(), m.start() - line_start + 1
        match m.lastgroup:
            case "newline":
                line, line_start = line + 1, m.end()
            case "symbol" | "eof":
                tokens.append(Token(m.lastgroup, lexeme, line, col))
            case "word" if lexeme[0].isalpha() or lexeme[0] == "_":
                tokens.append(Token("keyword" if lexeme in KEYWORDS else "ident", lexeme, line, col))
            case "word" | "other":
                raise SurfaceError(f"unexpected character {lexeme[0]!r}", line, col)
    return tokens


# ---------------------------------------------------------------------------
# Surface trees


@node
class SurfaceTerm:
    line: int
    col: int


@node
class SVar(SurfaceTerm):
    name: str


@node
class SLam(SurfaceTerm):
    name: str
    body: SurfaceTerm


@node
class SApp(SurfaceTerm):
    fn: SurfaceTerm
    arg: SurfaceTerm


@node
class SPi(SurfaceTerm):
    name: Optional[str]  # None for the A -> B sugar
    dom: SurfaceTerm
    cod: SurfaceTerm


@node
class SConst(SurfaceTerm):
    keyword: str  # a key of _CONSTANT


@node
class SElim(SurfaceTerm):
    scrut: SurfaceTerm
    motive_name: str
    motive: SurfaceTerm
    tcase: SurfaceTerm
    fcase: SurfaceTerm


@node
class SUniv(SurfaceTerm):
    level: int


@node
class SPrefix(SurfaceTerm):
    keyword: str  # a key of _PREFIX
    operand: SurfaceTerm


# ---------------------------------------------------------------------------
# Parser (recursive descent)

# The deepest nesting parse accepts.  Each parenthesis, binder body, elim,
# arrow codomain, prefix form (a keyword of _PREFIX) and argument of an
# application spine opens one level; deeper input raises SurfaceError
# instead of exhausting the stack here or in a later pass.
MAX_NESTING = 200


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = -1  # the top-level term is at depth 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text or tok.kind == "ident":
            raise SurfaceError(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.line, tok.col)
        return self.next()

    def expect_ident(self) -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            raise SurfaceError(f"expected an identifier, found {tok.text or 'end of input'!r}", tok.line, tok.col)
        return self.next()

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok.text == text and tok.kind in ("symbol", "keyword")

    def end(self) -> None:
        """Reject any input left after the term."""
        tok = self.peek()
        if tok.kind != "eof":
            raise SurfaceError(f"trailing input starting at {tok.text!r}", tok.line, tok.col)

    def _enter(self, tok: Token) -> None:
        """Open one more level of nesting; the caller closes it on return."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise SurfaceError(f"nested more than {MAX_NESTING} levels deep", tok.line, tok.col)

    # term := fun / elim / arrow
    def term(self) -> SurfaceTerm:
        tok = self.peek()
        self._enter(tok)
        if self.at("fun"):
            self.next()
            name = self.expect_ident()
            self.expect("=>")
            t: SurfaceTerm = SLam(tok.line, tok.col, name.text, self.term())
        elif self.at("elim"):
            self.next()
            scrut = self.app()
            self.expect("at")
            name = self.expect_ident()
            self.expect("=>")
            motive = self.arrow()
            self.expect("|")
            tcase = self.arrow()
            self.expect("|")
            fcase = self.term()
            t = SElim(tok.line, tok.col, scrut, name.text, motive, tcase, fcase)
        else:
            t = self.arrow()
        self.depth -= 1
        return t

    # arrow := app ('->' arrow)?  |  '(' x ':' term ')' '->' arrow
    def arrow(self) -> SurfaceTerm:
        tok = self.peek()
        if (
            self.at("(")
            and self.peek(1).kind == "ident"
            and self.peek(2).text == ":"
        ):
            self.next()
            name: Optional[str] = self.expect_ident().text
            self.expect(":")
            dom = self.term()
            self.expect(")")
            self.expect("->")
        else:
            name, dom = None, self.app()
            if not self.at("->"):
                return dom
            self.next()
        self._enter(tok)
        cod = self.arrow()
        self.depth -= 1
        return SPi(tok.line, tok.col, name, dom, cod)

    # app := prefix | atom+
    def app(self) -> SurfaceTerm:
        tok = self.peek()
        if tok.kind == "keyword" and tok.text in _PREFIX:
            self.next()
            self._enter(tok)
            inner = self.app()
            self.depth -= 1
            return SPrefix(tok.line, tok.col, tok.text, inner)
        t, depth = self.atom(), self.depth
        while self._starts_atom():
            self._enter(self.peek())
            t = SApp(t.line, t.col, t, self.atom())
        self.depth = depth
        return t

    def _starts_atom(self) -> bool:
        tok = self.peek()
        if tok.kind == "ident":
            return True
        if tok.kind == "keyword" and tok.text in _CONSTANT:
            return True
        return tok.text == "(" and tok.kind == "symbol"

    def atom(self) -> SurfaceTerm:
        tok = self.peek()
        if tok.text == "(" and tok.kind == "symbol":
            self.next()
            inner = self.term()
            self.expect(")")
            return inner
        if tok.kind == "keyword" and tok.text in _CONSTANT:
            self.next()
            return SConst(tok.line, tok.col, tok.text)
        if tok.kind == "ident":
            self.next()
            if tok.text.startswith("U") and tok.text[1:].isdecimal():
                return SUniv(tok.line, tok.col, int(tok.text[1:]))
            return SVar(tok.line, tok.col, tok.text)
        raise SurfaceError(f"unexpected {tok.text or 'end of input'!r}", tok.line, tok.col)


def parse(text: str) -> SurfaceTerm:
    p = _Parser(tokenize(text))
    t = p.term()
    p.end()
    return t


def parse_file_contents(text: str) -> tuple[SurfaceTerm, Optional[SurfaceTerm]]:
    """One term, with an optional top-level `term : type` ascription."""
    p = _Parser(tokenize(text))
    t = p.term()
    ann: Optional[SurfaceTerm] = None
    if p.at(":"):
        p.next()
        ann = p.term()
    p.end()
    return t, ann


# ---------------------------------------------------------------------------
# Scope resolution

# The formers that build a type, and the prefix formers whose operand is one.
_TYPE_FORMERS = (Bool, El, Lift)
_TYPE_OPERAND = (Code, Lift)


def resolve_type(s: SurfaceTerm, scope: tuple[str, ...] = ()) -> Term:
    """Resolve in type position: code-valued expressions get El inserted."""
    match s:
        case SUniv(_, _, level):
            return U(level)
        case SPi(_, _, name, dom, cod):
            binder = name if name is not None else "_"
            return Pi(resolve_type(dom, scope), resolve_type(cod, (binder,) + scope))
        case SConst(_, _, keyword) | SPrefix(_, _, keyword, _) if _FORMER[keyword] in _TYPE_FORMERS:
            return _resolve_keyword(s, scope)
        case _:
            return El(resolve_term(s, scope))


def resolve_term(s: SurfaceTerm, scope: tuple[str, ...] = ()) -> Term:
    match s:
        case SVar(line, col, name):
            if name not in scope:
                raise SurfaceError(f"unknown identifier {name!r}", line, col)
            return Var(scope.index(name))
        case SLam(_, _, name, body):
            return Lam(resolve_term(body, (name,) + scope))
        case SApp(_, _, fn, arg):
            return App(resolve_term(fn, scope), resolve_term(arg, scope))
        case SElim(_, _, scrut, mname, motive, tcase, fcase):
            return ElimBool(
                resolve_type(motive, (mname,) + scope),
                resolve_term(tcase, scope),
                resolve_term(fcase, scope),
                resolve_term(scrut, scope),
            )
        case SConst(_, _, keyword) | SPrefix(_, _, keyword, _) if _FORMER[keyword] not in _TYPE_FORMERS:
            return _resolve_keyword(s, scope)
        case SPi(line, col, _, _, _) | SUniv(line, col, _) | SConst(line, col, _) | SPrefix(line, col, _, _):
            raise SurfaceError("type former in term position; wrap it with `code`", line, col)
    raise SurfaceError(f"unresolvable node {s!r}", s.line, s.col)


def _resolve_keyword(s: SConst | SPrefix, scope: tuple[str, ...]) -> Term:
    """The core former that s's keyword names, applied to its resolved operand."""
    former = _FORMER[s.keyword]
    if isinstance(s, SConst):
        return former()
    return former((resolve_type if former in _TYPE_OPERAND else resolve_term)(s.operand, scope))


# ---------------------------------------------------------------------------
# Pretty-printer; binder at depth d is named x<d>


@depth_guarded
def pretty(t: Term) -> str:
    """The surface text of t; ScopeError if a variable of t is not bound in t."""
    return _pp(t, 0, 0, {})


_PREC_ATOM = 3
_PREC_APP = 2
_PREC_ARROW = 1
_PREC_LOW = 0


# The keyword that prints each constant and prefix former.  Prefix forms
# parse only where a whole application may appear, so they take parentheses
# in function and argument position.
_KEYWORD = {former: keyword for keyword, former in _FORMER.items()}


def _name(depth: int) -> str:
    return f"x{depth}"


def _pp(t: Term, depth: int, prec: int, used: dict[int, bool]) -> str:
    """used[d] records whether a variable bound at depth d has been printed
    since the Pi at depth d began its codomain."""
    match t:
        case Var(ix):
            if not 0 <= ix < depth:
                raise ScopeError(f"variable {ix} is not bound under {depth} binders")
            used[depth - 1 - ix] = True
            return _name(depth - 1 - ix)
        case Bool() | TrueTm() | FalseTm():
            return _KEYWORD[t.__class__]
        case U(level):
            return f"U{level}"
        case Lam(b):
            s = f"fun {_name(depth)} => {_pp(b, depth + 1, _PREC_LOW, used)}"
            return _paren(s, prec > _PREC_LOW)
        case App(f, a):
            s = f"{_pp(f, depth, _PREC_APP, used)} {_pp(a, depth, _PREC_ATOM, used)}"
            return _paren(s, prec > _PREC_APP)
        case Pi(dom, cod):
            used[depth] = False
            cod_s = _pp(cod, depth + 1, _PREC_ARROW, used)
            if used[depth]:
                s = f"({_name(depth)} : {_pp(dom, depth, _PREC_LOW, used)}) -> {cod_s}"
            else:
                s = f"{_pp(dom, depth, _PREC_APP, used)} -> {cod_s}"
            return _paren(s, prec > _PREC_ARROW)
        case ElimBool(m, t1, t2, s0):
            s = (
                f"elim {_pp(s0, depth, _PREC_APP, used)} at {_name(depth)} => "
                f"{_pp(m, depth + 1, _PREC_ARROW, used)} | {_pp(t1, depth, _PREC_ARROW, used)} | "
                f"{_pp(t2, depth, _PREC_LOW, used)}"
            )
            return _paren(s, prec > _PREC_LOW)
        case El(x) | Code(x) | Lift(x) | LiftTm(x) | UnliftTm(x):
            return _paren(f"{_KEYWORD[t.__class__]} {_pp(x, depth, _PREC_APP, used)}", prec >= _PREC_APP)
    raise TypeError(f"unknown term {show(t)}")


def _paren(s: str, needed: bool) -> str:
    return f"({s})" if needed else s
