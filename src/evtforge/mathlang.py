"""Lexer, expression parser and sort elaboration for the mathematical fragment.

The fragment: bounded Int and Bool, user enumerated sorts, comparisons,
+ - *, membership in literal sets, propositional connectives and bounded
quantifiers.  Anything else is a parse error.
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import Optional, Sequence

from .errors import ParseError, SortError
from .fopeq import (
    BOOL, INT, And, BoolLit, CarrierEq, Equal, Exists, FalseF, FopeqSignature,
    Forall, Formula, Iff, Implies, InSet, IntLit, Not, OpApp, Or, PredApp,
    Term, TrueF, TRUE, FALSE, Var, conjoin, frozen,
)

# ---------------------------------------------------------------------------
# tokens


class Token:
    """One token: kind is IDENT, NUMBER, SYM or EOF.  nl is 0 when no newline
    comes before the token since the token before, else the column of the
    first such newline, which ends that token's line (or line 1)."""

    __slots__ = ("kind", "text", "line", "col", "primed", "nl")

    def __init__(self, kind: str, text: str, line: int, col: int,
                 primed: bool = False, nl: int = 0):
        self.kind, self.text, self.line, self.col = kind, text, line, col
        self.primed, self.nl = primed, nl

    def __repr__(self):
        return f"{self.kind}({self.text!r})"


_MULTI = [":=", ":|", "|->", "<=>", "<=", ">=", "=>", "/\\", "\\/", "/=", "->"]
_UNICODE_SYM = {
    "∧": "/\\", "∨": "\\/", "¬": "!", "⇒": "=>", "⇔": "<=>",
    "≤": "<=", "≥": ">=", "≠": "/=", "∈": "in", "↦": "|->",
    "⟨": "<:", "⟩": ":>", "·": ".", "≔": ":=",
    "×": "*", "−": "-",
}
_QUANT = {"∀": "#forall", "∃": "#exists"}
_WORD_SORTS = {"ℕ": "NAT", "ℤ": "INT", "ℙ": "POW"}
_SINGLE = set("=<>+-*(){},:.!")


# one alternation, tried in order at each token start after a run of blanks:
# the Unicode maps come before identifiers because ℕ, ℤ and ℙ are letters,
# and each multi-character symbol before its one-character prefix
_MAPPED = {**{c: ("IDENT", w) for c, w in _WORD_SORTS.items()},
           **{c: ("SYM", s) for c, s in (_QUANT | _UNICODE_SYM).items()}}
_TOKEN_RE = re.compile(r"[ \t\r]*(?:" + "|".join([
    r"(?P<newline>\n)",
    r"(?P<comment>//[^\n]*)",
    f"(?P<mapped>[{''.join(_MAPPED)}])",
    "(?P<SYM>" + "|".join(map(re.escape, ["#exists", "#forall", *_MULTI,
                                          *sorted(_SINGLE)])) + ")",
    # \d is str.isdecimal: the digits int() accepts
    r"(?P<NUMBER>\d+)",
    # \w is str.isalnum or "_"; a start that is neither a letter nor a digit
    # (², ½) is rejected below
    r"(?P<IDENT>[^\W\d]\w*['′]?)",
    r"(?P<bad>.)",
    r"(?P<end>)\Z",  # takes the blanks at the end of the text
]) + ")", re.S)


def tokenize(text: str) -> list[Token]:
    """The tokens of text, ending in EOF.  Columns count code points from 1."""
    toks: list[Token] = []
    append = toks.append
    line, line_start, nl = 1, 0, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "newline":
            nl = nl or m.start(kind) - line_start + 1
            line, line_start = line + 1, m.end()
            continue
        if kind == "comment" or kind == "end":
            continue
        s = m.group(kind)
        col = m.start(kind) - line_start + 1
        if kind == "IDENT" and (s[0].isalpha() or s[0] == "_"):
            primed = s[-1] in "'′"
            append(Token(kind, s[:-1] if primed else s, line, col, primed, nl))
        elif kind == "SYM" or kind == "NUMBER":
            append(Token(kind, s, line, col, False, nl))
        elif kind == "mapped":
            append(Token(*_MAPPED[s], line, col, False, nl))
        else:
            raise ParseError(f"unexpected character {s[0]!r}", line, col)
        nl = 0
    append(Token("EOF", "", line, len(text) - line_start + 1, False, nl))
    return toks


class TokenStream:
    """A cursor over tokens ending in EOF, which a look-ahead past the end sees."""

    def __init__(self, tokens: Sequence[Token]):
        self.tokens = list(tokens)
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        i = self.pos + ahead
        return self.tokens[i] if i < len(self.tokens) else self.tokens[-1]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def at_sym(self, text: str) -> bool:
        t = self.tokens[self.pos]
        return t.kind == "SYM" and t.text == text

    def at_word(self, word: str) -> bool:
        t = self.tokens[self.pos]
        return t.kind == "IDENT" and t.text == word and not t.primed

    def accept_sym(self, text: str) -> bool:
        if self.at_sym(text):
            self.pos += 1
            return True
        return False

    def accept_word(self, word: str) -> bool:
        if self.at_word(word):
            self.pos += 1
            return True
        return False

    def expect_sym(self, text: str) -> Token:
        t = self.tokens[self.pos]
        if t.kind == "SYM" and t.text == text:
            return self.next()
        raise ParseError(f"expected {text!r}, found {t.text!r}", t.line, t.col)

    def expect_word(self, word: str) -> Token:
        t = self.tokens[self.pos]
        if t.kind == "IDENT" and t.text == word and not t.primed:
            return self.next()
        raise ParseError(f"expected {word!r}, found {t.text!r}", t.line, t.col)

    def expect_ident(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "IDENT":
            raise ParseError(f"expected identifier, found {t.text!r}", t.line, t.col)
        return self.next()

    def error(self, message: str):
        t = self.peek()
        raise ParseError(message, t.line, t.col)


# ---------------------------------------------------------------------------
# surface expression AST (untyped; elaboration sorts it out)


@frozen
class SNum:
    value: int


@frozen
class SBool:
    value: bool


@frozen
class SName:
    name: str
    primed: bool = False


@frozen
class SApp:
    name: str
    args: tuple


@frozen
class SBin:
    op: str
    left: object
    right: object


@frozen
class SUn:
    op: str
    body: object


@frozen
class SSet:
    elems: tuple


@frozen
class SQuant:
    kind: str  # "forall" | "exists"
    bindings: tuple  # ((name, TypeExpr), ...)
    body: object


_RELOPS = {"=", "/=", "<", "<=", ">", ">=", "in"}
_BOOL_WORDS = {"true": True, "false": False, "TRUE": True, "FALSE": False}
_QUANTIFIERS = {"#forall": "forall", "#exists": "exists"}

# Binding levels of the binary operators, loosest first, shared by the parser
# and the printers.  Every operator associates to the left except =>.
_CONNECTIVES = {"<=>": 1, "=>": 2, "\\/": 3, "/\\": 4}
_ARITHMETIC = {"+": 1, "-": 1, "*": 2}
_RIGHT_ASSOC = {"=>"}


class ExprParser:
    """Pratt-style parser over the shared token stream: one precedence-climbing
    loop reads the connectives over negations, quantifiers and relations, and
    one reads the arithmetic operators over unary minus and the primaries.

    With stop_at_newline (for clause lists in the sugared notation), a token
    that starts a new line ends the expression, unless it is the first token
    or inside brackets, closing bracket included.  Where the expression
    cannot end, the parse error is located at the newline.
    """

    def __init__(self, ts: TokenStream, stop_at_newline: bool = False):
        self.ts = ts
        self.toks = ts.tokens  # symbols match by text: no IDENT, NUMBER or EOF spells one
        # a token at or after this position whose nl is set ends the
        # expression; inside brackets it is len(toks), which no token reaches
        self.nl_from = ts.pos + 1 if stop_at_newline else len(self.toks)

    def _at_newline(self, i: int) -> bool:
        return i >= self.nl_from and self.toks[i].nl > 0

    def _error(self, expected: str) -> ParseError:
        """expected, against the token under the cursor or the newline that
        ends the expression there."""
        i = self.ts.pos
        t = self.toks[i]
        if self._at_newline(i):
            # the newline ends the line of the token before
            return ParseError(f"expected {expected}, found '\\n'", self.toks[i - 1].line, t.nl)
        return ParseError(f"expected {expected}, found {t.text!r}", t.line, t.col)

    def _accept(self, text: str) -> bool:
        i = self.ts.pos
        if self.toks[i].text != text or self._at_newline(i):
            return False
        self.ts.pos = i + 1
        return True

    def _expect(self, text: str) -> None:
        if not self._accept(text):
            raise self._error(repr(text))

    def parse_formula_expr(self):
        return self._formula(1)

    def _formula(self, floor: int):
        """Negations, quantifiers and relations joined by the connectives that
        bind at floor or tighter."""
        ts, toks = self.ts, self.toks
        left = self._unary()
        while True:
            i = ts.pos
            t = toks[i]
            level = _CONNECTIVES.get(t.text)
            if level is None or level < floor or t.nl and i >= self.nl_from:
                return left
            ts.pos = i + 1
            right = self._formula(level if t.text in _RIGHT_ASSOC else level + 1)
            left = SBin(t.text, left, right)

    def _unary(self):
        ts, toks = self.ts, self.toks
        i = ts.pos
        t = toks[i]
        if t.nl and i >= self.nl_from:
            raise self._error("an expression")
        if t.text == "!":
            ts.pos = i + 1
            return SUn("!", self._unary())
        kind = _QUANTIFIERS.get(t.text)
        if kind is not None:
            ts.pos = i + 1
            bindings = [self._binding()]
            while self._accept(","):
                bindings.append(self._binding())
            self._expect(".")
            return SQuant(kind, tuple(bindings), self.parse_formula_expr())
        left = self._arith(1)
        i = ts.pos
        t = toks[i]
        # ∈ lexes to the symbol "in", which the word in (unprimed) spells too
        if t.text not in _RELOPS or t.primed or t.nl and i >= self.nl_from:
            # equality against a set literal comes through _arith -> SSet
            return left
        ts.pos = i + 1
        if t.text == "in" and toks[i + 1].text == "{" and not self._at_newline(i + 1):
            return SBin("in", left, self._set_literal())
        return SBin(t.text, left, self._arith(1))

    def _binding(self):
        name = self.ts.expect_ident()
        if name.primed:
            raise ParseError("bound variables may not be primed", name.line, name.col)
        self._expect(":")
        t = self.toks[self.ts.pos]
        if t.text == "{" and self._at_newline(self.ts.pos):
            # a set type starts on its binding's line; on the next line its {
            # stands where a sort name is expected
            raise ParseError("expected identifier, found '{'", t.line, t.col)
        return (name.text, parse_type_expr(self.ts))

    def _set_literal(self):
        """The set literal at the { under the cursor."""
        self.ts.pos += 1
        return SSet(self._arguments("}"))

    def _arguments(self, close: str) -> tuple:
        """Terms separated by commas up to the close bracket; newlines inside,
        before the close bracket too, are free."""
        ts, toks = self.ts, self.toks
        outer, self.nl_from = self.nl_from, len(toks)
        args = [self._arith(1)]
        while toks[ts.pos].text == ",":
            ts.pos += 1
            args.append(self._arith(1))
        self._expect(close)
        self.nl_from = outer
        return tuple(args)

    def _arith(self, floor: int):
        """Unary minus and primaries joined by the arithmetic operators that
        bind at floor or tighter."""
        ts, toks = self.ts, self.toks
        left = self._primary()
        while True:
            i = ts.pos
            t = toks[i]
            level = _ARITHMETIC.get(t.text)
            if level is None or level < floor or t.nl and i >= self.nl_from:
                return left
            ts.pos = i + 1
            left = SBin(t.text, left, self._arith(level + 1))

    def _primary(self):
        """A primary under any unary minuses."""
        ts, toks = self.ts, self.toks
        i = ts.pos
        t = toks[i]
        if t.nl and i >= self.nl_from:
            raise self._error("an expression")
        kind = t.kind
        if kind == "IDENT":
            ts.pos = i + 1
            if t.primed:
                return SName(t.text, True)
            if t.text in _BOOL_WORDS:
                return SBool(_BOOL_WORDS[t.text])
            t1 = toks[i + 1]
            if t1.text != "(" or t1.nl:  # f( takes its ( on the same line
                return SName(t.text)
            ts.pos = i + 2
            return SApp(t.text, self._arguments(")"))
        if kind == "NUMBER":
            ts.pos = i + 1
            return SNum(int(t.text))
        if kind == "SYM":
            if t.text == "-":
                ts.pos = i + 1
                body = self._primary()
                return SNum(-body.value) if isinstance(body, SNum) else SUn("-", body)
            if t.text == "(":
                ts.pos = i + 1
                outer, self.nl_from = self.nl_from, len(toks)
                inner = self.parse_formula_expr()
                self._expect(")")
                self.nl_from = outer
                return inner
            if t.text == "{":
                return self._set_literal()
        raise self._error("an expression")


def parse_expression(ts: TokenStream):
    """The expression at the cursor, which must be all that is left."""
    node = ExprParser(ts).parse_formula_expr()
    t = ts.peek()
    if t.kind != "EOF":
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
    return node


# ---------------------------------------------------------------------------
# type expressions


@frozen
class NatType:
    pass


@frozen
class IntType:
    pass


@frozen
class BoolType:
    pass


@frozen
class SortType:
    name: str


@frozen
class SubsetType:
    """A literal-set type: the carrier subset listed by the element terms."""

    elems: tuple[Term, ...]


TypeExpr = object

NAT = NatType()
INT_TYPE = IntType()
BOOL_TYPE = BoolType()
BUILTIN_TYPES = {"NAT": NAT, "INT": INT_TYPE, INT: INT_TYPE,
                 "BOOL": BOOL_TYPE, BOOL: BOOL_TYPE}


def parse_type_expr(ts: TokenStream) -> TypeExpr:
    if ts.at_sym("{"):
        node = ExprParser(ts)._set_literal()
        return SubsetType(tuple(_literal_term(e) for e in node.elems))
    tok = ts.expect_ident()
    if tok.primed:
        raise ParseError("sort names may not be primed", tok.line, tok.col)
    return BUILTIN_TYPES.get(tok.text, SortType(tok.text))


def _literal_term(node) -> Term:
    if isinstance(node, SNum):
        return IntLit(node.value)
    if isinstance(node, SBool):
        return BoolLit(node.value)
    if isinstance(node, SName) and not node.primed:
        return OpApp(node.name)
    raise SortError("set types may only list literals or constants")


def type_sort(te: TypeExpr, sig: FopeqSignature) -> str:
    """The carrier sort behind a type expression."""
    if isinstance(te, (NatType, IntType)):
        return INT
    if isinstance(te, BoolType):
        return BOOL
    if isinstance(te, SortType):
        if not sig.has_sort(te.name):
            raise SortError(f"unknown sort {te.name}")
        return te.name
    if isinstance(te, SubsetType):
        sorts = set()
        for e in te.elems:
            if isinstance(e, IntLit):
                sorts.add(INT)
            elif isinstance(e, BoolLit):
                sorts.add(BOOL)
            elif isinstance(e, OpApp):
                args, result = sig.op_profile(e.op)
                if args:
                    raise SortError(f"set type element {e.op} is not a constant")
                sorts.add(result)
        if len(sorts) != 1:
            raise SortError(f"set type mixes sorts: {sorted(sorts)}")
        return sorts.pop()
    raise SortError(f"not a type expression: {te!r}")


def type_constraint(te: TypeExpr, v: Term) -> Optional[Formula]:
    """Residual membership constraint a type expression imposes on a term."""
    if isinstance(te, NatType):
        return PredApp(">=", (v, IntLit(0)))
    if isinstance(te, SubsetType):
        return InSet(v, te.elems)
    return None


def unparse_type(te: TypeExpr) -> str:
    if isinstance(te, NatType):
        return "ℕ"
    if isinstance(te, IntType):
        return "ℤ"
    if isinstance(te, BoolType):
        return "BOOL"
    if isinstance(te, SortType):
        return te.name
    if isinstance(te, SubsetType):
        return "{" + ", ".join(unparse_term(e) for e in te.elems) + "}"
    raise SortError(f"not a type expression: {te!r}")


# ---------------------------------------------------------------------------
# elaboration: surface tree -> well-sorted Term/Formula


@frozen
class ElabContext:
    sig: FopeqSignature
    vars: tuple[tuple[str, str], ...] = ()  # (name, sort), unprimed names
    allow_primes: bool = True

    @cached_property
    def var_map(self) -> dict[str, str]:
        return dict(self.vars)

    def with_vars(self, extra: Sequence[tuple[str, str]]) -> "ElabContext":
        return ElabContext(self.sig, self.vars + tuple(extra), self.allow_primes)


_SYM_TO_PRED = {"<": "<", "<=": "<=", ">": ">", ">=": ">="}


def elab_term(node, ctx: ElabContext) -> tuple[Term, str]:
    sig = ctx.sig
    if isinstance(node, SNum):
        return IntLit(node.value), INT
    if isinstance(node, SBool):
        return BoolLit(node.value), BOOL
    if isinstance(node, SName):
        vm = ctx.var_map
        if node.name in vm:
            if node.primed and not ctx.allow_primes:
                raise SortError(f"primed variable {node.name}′ not allowed here")
            return Var(node.name, node.primed), vm[node.name]
        if node.primed:
            raise SortError(f"unknown variable {node.name}′")
        if node.name in sig.op_map and not sig.op_map[node.name].args:
            return OpApp(node.name), sig.op_map[node.name].result
        raise SortError(f"unknown identifier {node.name}")
    if isinstance(node, SApp):
        args, result = sig.op_profile(node.name)
        if len(args) != len(node.args):
            raise SortError(f"operation {node.name} expects {len(args)} arguments")
        elaborated = []
        for want, sub in zip(args, node.args):
            t, got = elab_term(sub, ctx)
            if got != want:
                raise SortError(f"argument of {node.name} has sort {got}, expected {want}")
            elaborated.append(t)
        return OpApp(node.name, tuple(elaborated)), result
    if isinstance(node, SUn) and node.op == "-":
        t, s = elab_term(node.body, ctx)
        if s != INT:
            raise SortError("unary minus needs an integer")
        return OpApp("-", (IntLit(0), t)), INT
    if isinstance(node, SBin) and node.op in ("+", "-", "*"):
        lt, ls = elab_term(node.left, ctx)
        rt, rs = elab_term(node.right, ctx)
        if ls != INT or rs != INT:
            raise SortError(f"arithmetic {node.op} needs integers, got {ls}, {rs}")
        return OpApp(node.op, (lt, rt)), INT
    raise SortError("expected a term, found a formula")


def elab_formula(node, ctx: ElabContext) -> Formula:
    sig = ctx.sig
    if isinstance(node, SBool):
        return TRUE if node.value else FALSE
    if isinstance(node, SUn) and node.op == "!":
        return Not(elab_formula(node.body, ctx))
    if isinstance(node, SQuant):
        bindings = []
        guards = []
        for name, te in node.bindings:
            if name in ctx.var_map:
                raise SortError(f"bound variable {name} shadows a variable in scope")
            sort = type_sort(te, sig)
            bindings.append((name, sort))
            g = type_constraint(te, Var(name))
            if g is not None:
                guards.append(g)
        inner = ctx.with_vars(bindings)
        body = elab_formula(node.body, inner)
        if node.kind == "forall":
            if guards:
                body = Implies(conjoin(guards), body)
            return Forall(tuple(bindings), body)
        if guards:
            # the body's conjuncts join the guards' flat, as ∧ elaborates
            body = conjoin([*guards, *(body.parts if isinstance(body, And) else (body,))])
        return Exists(tuple(bindings), body)
    if isinstance(node, SBin):
        op = node.op
        if op == "<=>":
            return Iff(elab_formula(node.left, ctx), elab_formula(node.right, ctx))
        if op == "=>":
            return Implies(elab_formula(node.left, ctx), elab_formula(node.right, ctx))
        if op == "/\\":
            left = elab_formula(node.left, ctx)
            right = elab_formula(node.right, ctx)
            parts = (left.parts if isinstance(left, And) else (left,))
            parts += (right.parts if isinstance(right, And) else (right,))
            return And(parts)
        if op == "\\/":
            left = elab_formula(node.left, ctx)
            right = elab_formula(node.right, ctx)
            parts = (left.parts if isinstance(left, Or) else (left,))
            parts += (right.parts if isinstance(right, Or) else (right,))
            return Or(parts)
        if op == "in":
            return _elab_membership(node.left, node.right, ctx)
        if op in ("=", "/="):
            eq = _elab_equality(node.left, node.right, ctx)
            return Not(eq) if op == "/=" else eq
        if op in _SYM_TO_PRED:
            lt, ls = elab_term(node.left, ctx)
            rt, rs = elab_term(node.right, ctx)
            if ls != INT or rs != INT:
                raise SortError(f"comparison {op} needs integers, got {ls}, {rs}")
            return PredApp(_SYM_TO_PRED[op], (lt, rt))
    if isinstance(node, SApp) and node.name in {p.name for p in sig.preds}:
        args = sig.pred_profile(node.name)
        if len(args) != len(node.args):
            raise SortError(f"predicate {node.name} expects {len(args)} arguments")
        elaborated = []
        for want, sub in zip(args, node.args):
            t, got = elab_term(sub, ctx)
            if got != want:
                raise SortError(f"argument of {node.name} has sort {got}, expected {want}")
            elaborated.append(t)
        return PredApp(node.name, tuple(elaborated))
    raise SortError("expected a formula, found a term")


def _elab_equality(left, right, ctx: ElabContext) -> Formula:
    # `S = {c1, ..., cn}` with S a sort name is enumeration exhaustiveness
    if (isinstance(left, SName) and not left.primed
            and left.name not in ctx.var_map
            and left.name not in ctx.sig.op_map
            and ctx.sig.has_sort(left.name)):
        if isinstance(right, SSet):
            elems = tuple(elab_term(e, ctx)[0] for e in right.elems)
            for e, sur in zip(elems, right.elems):
                got = elab_term(sur, ctx)[1]
                if got != left.name:
                    raise SortError(
                        f"enumeration element has sort {got}, expected {left.name}")
            return CarrierEq(left.name, elems)
        raise SortError(f"sort {left.name} can only be equated with a literal set")
    lt, ls = elab_term(left, ctx)
    rt, rs = elab_term(right, ctx)
    if ls != rs:
        raise SortError(f"equality between sorts {ls} and {rs}")
    return Equal(lt, rt)


def _elab_membership(left, right, ctx: ElabContext) -> Formula:
    lt, ls = elab_term(left, ctx)
    if isinstance(right, SSet):
        elems = []
        for e in right.elems:
            t, s = elab_term(e, ctx)
            if s != ls:
                raise SortError(f"set element has sort {s}, expected {ls}")
            elems.append(t)
        return InSet(lt, tuple(elems))
    if isinstance(right, SName) and not right.primed:
        name = right.name
        if name == "NAT":
            if ls != INT:
                raise SortError("membership in ℕ needs an integer")
            return PredApp(">=", (lt, IntLit(0)))
        if name in ("INT", INT):
            if ls != INT:
                raise SortError("membership in ℤ needs an integer")
            return TRUE
        if name in ("BOOL", BOOL):
            if ls != BOOL:
                raise SortError("membership in BOOL needs a boolean")
            return TRUE
        if ctx.sig.has_sort(name):
            if ls != name:
                raise SortError(f"membership in {name} needs sort {name}, got {ls}")
            return TRUE
    raise SortError("membership is supported only for ℕ, ℤ, BOOL, a sort, or a literal set")


def parse_formula_text(text: str, ctx: ElabContext) -> Formula:
    return elab_formula(parse_expression(TokenStream(tokenize(text))), ctx)


# ---------------------------------------------------------------------------
# unparsing (canonical text, unicode operators)


def _operand_levels(op: str, levels: dict[str, int]) -> tuple[int, int]:
    """The parent levels at which op prints its left and right operands: an
    operand of op's own level goes unbracketed only on the side op associates
    to."""
    level = levels[op]
    return (level, level - 1) if op in _RIGHT_ASSOC else (level - 1, level)


def unparse_term(t: Term, parent_prec: int = 0) -> str:
    if isinstance(t, Var):
        return f"{t.name}′" if t.primed else t.name
    if isinstance(t, IntLit):
        return str(t.value)
    if isinstance(t, BoolLit):
        return "TRUE" if t.value else "FALSE"
    if isinstance(t, OpApp):
        if t.op in _ARITHMETIC and len(t.args) == 2:
            lp, rp = _operand_levels(t.op, _ARITHMETIC)
            s = f"{unparse_term(t.args[0], lp)} {t.op} {unparse_term(t.args[1], rp)}"
            return f"({s})" if _ARITHMETIC[t.op] <= parent_prec else s
        if not t.args:
            return t.op
        return f"{t.op}({', '.join(unparse_term(a) for a in t.args)})"
    raise SortError(f"not a term: {t!r}")


_PRED_SYM = {"<": "<", "<=": "≤", ">": ">", ">=": "≥"}
# a quantifier's body runs as far right as it can, so any connective brackets
# the quantifier; ¬ binds tighter than every connective, and an atom tighter
_F_QUANT = min(_CONNECTIVES.values())
_F_NOT = max(_CONNECTIVES.values()) + 1
_F_ATOM = _F_NOT + 1


def unparse_formula(f: Formula, parent_prec: int = 0) -> str:
    def wrap(s: str, prec: int) -> str:
        return f"({s})" if prec <= parent_prec else s

    if isinstance(f, TrueF):
        return "true"
    if isinstance(f, FalseF):
        return "false"
    if isinstance(f, Equal):
        return wrap(f"{unparse_term(f.left)} = {unparse_term(f.right)}", _F_ATOM)
    if isinstance(f, PredApp):
        if f.pred in _PRED_SYM and len(f.args) == 2:
            # n ≥ 0 reads back as n ∈ ℕ only through typing; print the atom
            return wrap(
                f"{unparse_term(f.args[0])} {_PRED_SYM[f.pred]} {unparse_term(f.args[1])}",
                _F_ATOM)
        return wrap(f"{f.pred}({', '.join(unparse_term(a) for a in f.args)})", _F_ATOM)
    if isinstance(f, InSet):
        elems = ", ".join(unparse_term(e) for e in f.elems)
        return wrap(f"{unparse_term(f.item)} ∈ {{{elems}}}", _F_ATOM)
    if isinstance(f, CarrierEq):
        elems = ", ".join(unparse_term(e) for e in f.elems)
        return wrap(f"{f.sort} = {{{elems}}}", _F_ATOM)
    if isinstance(f, Not):
        if isinstance(f.body, Equal):
            return wrap(
                f"{unparse_term(f.body.left)} ≠ {unparse_term(f.body.right)}", _F_ATOM)
        return wrap(f"¬{unparse_formula(f.body, _F_NOT)}", _F_NOT)
    if isinstance(f, (And, Or)):
        op, sym = ("/\\", " ∧ ") if isinstance(f, And) else ("\\/", " ∨ ")
        level = _CONNECTIVES[op]
        return wrap(sym.join(unparse_formula(p, level) for p in f.parts), level)
    if isinstance(f, Implies):
        lp, rp = _operand_levels("=>", _CONNECTIVES)
        s = f"{unparse_formula(f.left, lp)} ⇒ {unparse_formula(f.right, rp)}"
        return wrap(s, _CONNECTIVES["=>"])
    if isinstance(f, Iff):
        # both operands at ⇔'s own level: a nested ⇔ is bracketed on either side
        level = _CONNECTIVES["<=>"]
        return wrap(f"{unparse_formula(f.left, level)} ⇔ {unparse_formula(f.right, level)}",
                    level)
    if isinstance(f, (Forall, Exists)):
        sym = "∀" if isinstance(f, Forall) else "∃"
        binds = ", ".join(f"{n} : {s}" for n, s in f.vars)
        return wrap(f"{sym} {binds} · {unparse_formula(f.body, 0)}", _F_QUANT)
    raise SortError(f"not a formula: {f!r}")
