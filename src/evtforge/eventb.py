"""Machine/context abstract syntax, the plain-text parser, validation and
the recognisers of typing predicates.

Predicates and expressions are kept as unelaborated surface trees; sort
elaboration happens once signatures are known.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from .errors import ParseError, SortError, SpecError
from .fopeq import frozen
from .institution import INIT, Status, status_named
from .mathlang import (
    BUILTIN_TYPES, ExprParser, SBin, SName, SSet, SortType, SubsetType,
    TokenStream, TypeExpr, parse_type_expr, tokenize, _literal_term,
)

INIT_EVENT_NAME = "Initialisation"

_MACHINE_KEYWORDS = {
    "machine", "context", "refines", "sees", "variables", "invariants",
    "variant", "events", "event", "end",
}
_CONTEXT_KEYWORDS = {"machine", "context", "extends", "sets", "constants", "axioms", "end"}
_EVENT_KEYWORDS = {"status", "refines", "any", "when", "with", "thenAct", "end", "event"}
_ALL_KEYWORDS = _MACHINE_KEYWORDS | _CONTEXT_KEYWORDS | _EVENT_KEYWORDS


@frozen
class LabelledPred:
    label: str
    pred: object  # surface expression
    theorem: bool = False


@frozen
class ActionDef:
    label: str
    var: str
    kind: str  # ":=" deterministic or ":|" becomes-such-that
    rhs: object  # surface expression


@frozen
class EventDef:
    name: str
    status: Status = Status.ordinary
    refines: tuple[str, ...] = ()
    params: tuple[tuple[str, Optional[TypeExpr]], ...] = ()
    guards: tuple[LabelledPred, ...] = ()
    witnesses: tuple[LabelledPred, ...] = ()
    actions: tuple[ActionDef, ...] = ()
    extended: bool = False

    @property
    def is_init(self) -> bool:
        return self.name == INIT_EVENT_NAME


@frozen
class MachineDef:
    name: str
    refines: Optional[str] = None
    sees: tuple[str, ...] = ()
    variables: tuple[str, ...] = ()
    invariants: tuple[LabelledPred, ...] = ()
    theorems: tuple[LabelledPred, ...] = ()
    variant: Optional[object] = None  # surface expression
    events: tuple[EventDef, ...] = ()


@frozen
class ContextDef:
    name: str
    extends: tuple[str, ...] = ()
    sets: tuple[str, ...] = ()
    constants: tuple[str, ...] = ()
    axioms: tuple[LabelledPred, ...] = ()
    theorems: tuple[LabelledPred, ...] = ()


@frozen
class EbSpecification:
    items: tuple[Union[MachineDef, ContextDef], ...] = ()

    def find(self, name: str):
        for i in self.items:
            if i.name == name:
                return i
        raise SpecError(f"no machine or context named {name}")


# ---------------------------------------------------------------------------
# text parser


class _Parser:
    def __init__(self, text: str):
        self.ts = TokenStream(tokenize(text))

    def _at_name(self, labelled: bool) -> bool:
        """Whether the next token is an unprimed identifier that is not a
        keyword, and the one after it is ':' (labelled) or is not."""
        t = self.ts.peek()
        if t.kind != "IDENT" or t.primed or t.text in _ALL_KEYWORDS:
            return False
        t = self.ts.peek(ahead=1)
        return (t.kind == "SYM" and t.text == ":") == labelled

    def parse(self) -> EbSpecification:
        items = []
        while True:
            t = self.ts.peek()
            if t.kind == "EOF":
                break
            if self.ts.at_word("machine"):
                items.append(self.machine())
            elif self.ts.at_word("context"):
                items.append(self.context())
            else:
                raise ParseError(
                    f"expected 'machine' or 'context', found {t.text!r}", t.line, t.col)
        return EbSpecification(tuple(items))

    def _name(self) -> str:
        t = self.ts.expect_ident()
        if t.primed:
            raise ParseError("names may not be primed", t.line, t.col)
        if t.text in _ALL_KEYWORDS:
            raise ParseError(f"{t.text!r} is a keyword", t.line, t.col)
        return t.text

    def _name_list(self) -> list[str]:
        names = [self._name()]
        while self.ts.accept_sym(",") or self._at_name(labelled=False):
            names.append(self._name())
        return names

    def _labelled(self) -> LabelledPred:
        label = self.ts.expect_ident()
        self.ts.expect_sym(":")
        pred = ExprParser(self.ts).parse_formula_expr()
        return LabelledPred(label.text, pred, self.ts.accept_word("theorem"))

    def _labelled_list(self) -> list[LabelledPred]:
        out = []
        while self._at_name(labelled=True):
            out.append(self._labelled())
        return out

    def context(self) -> ContextDef:
        self.ts.expect_word("context")
        name = self._name()
        extends: list[str] = []
        sets: list[str] = []
        constants: list[str] = []
        axioms: list[LabelledPred] = []
        while not self.ts.at_word("end"):
            if self.ts.accept_word("extends"):
                extends = self._name_list()
            elif self.ts.accept_word("sets"):
                sets = self._name_list()
            elif self.ts.accept_word("constants"):
                constants = self._name_list()
            elif self.ts.accept_word("axioms"):
                axioms = self._labelled_list()
            else:
                self.ts.error("expected a context section")
        self.ts.expect_word("end")
        theorems = tuple(a for a in axioms if a.theorem)
        return ContextDef(name, tuple(extends), tuple(sets), tuple(constants),
                          tuple(a for a in axioms if not a.theorem), theorems)

    def machine(self) -> MachineDef:
        self.ts.expect_word("machine")
        name = self._name()
        refines: Optional[str] = None
        sees: list[str] = []
        variables: list[str] = []
        invariants: list[LabelledPred] = []
        variant = None
        events: list[EventDef] = []
        while not self.ts.at_word("end"):
            if self.ts.accept_word("refines"):
                if refines is not None:
                    self.ts.error("a machine refines at most one machine")
                refines = self._name()
            elif self.ts.accept_word("sees"):
                sees = self._name_list()
            elif self.ts.accept_word("variables"):
                variables = self._name_list()
            elif self.ts.accept_word("invariants"):
                invariants = self._labelled_list()
            elif self.ts.accept_word("variant"):
                if variant is not None:
                    self.ts.error("a machine has at most one variant")
                variant = ExprParser(self.ts).parse_formula_expr()
            elif self.ts.accept_word("events"):
                while self.ts.at_word("event"):
                    events.append(self.event())
            else:
                self.ts.error("expected a machine section")
        self.ts.expect_word("end")
        theorems = tuple(i for i in invariants if i.theorem)
        return MachineDef(
            name, refines, tuple(sees), tuple(variables),
            tuple(i for i in invariants if not i.theorem), theorems,
            variant, tuple(events))

    def event(self) -> EventDef:
        self.ts.expect_word("event")
        t = self.ts.expect_ident()
        name = t.text
        status = Status.ordinary
        refines: list[str] = []
        params: list[tuple[str, Optional[TypeExpr]]] = []
        guards: list[LabelledPred] = []
        witnesses: list[LabelledPred] = []
        actions: list[ActionDef] = []
        while not self.ts.at_word("end"):
            if self.ts.accept_word("status"):
                status = status_named(self.ts.expect_ident())
            elif self.ts.accept_word("refines"):
                refines = self._name_list()
            elif self.ts.accept_word("any"):
                params = self._params()
            elif self.ts.accept_word("when"):
                guards = self._labelled_list()
            elif self.ts.accept_word("with"):
                witnesses = self._labelled_list()
            elif self.ts.accept_word("thenAct"):
                actions = self._actions()
            else:
                self.ts.error("expected an event section")
        self.ts.expect_word("end")
        if name == INIT_EVENT_NAME and status != Status.ordinary:
            raise ParseError("the initialisation event is always ordinary", t.line, t.col)
        return EventDef(name, status, tuple(refines), tuple(params),
                        tuple(guards), tuple(witnesses), tuple(actions))

    def _params(self) -> list[tuple[str, Optional[TypeExpr]]]:
        out = [self._param()]
        while self.ts.accept_sym(","):
            out.append(self._param())
        return out

    def _param(self) -> tuple[str, Optional[TypeExpr]]:
        name = self._name()
        if self.ts.accept_sym(":"):
            return (name, parse_type_expr(self.ts))
        return (name, None)

    def _actions(self) -> list[ActionDef]:
        out = []
        while self._at_name(labelled=True):
            label = self.ts.expect_ident().text
            self.ts.expect_sym(":")
            var = self._name()
            t = self.ts.peek()
            for op in (":=", ":|"):
                if self.ts.accept_sym(op):
                    out.append(ActionDef(label, var, op, ExprParser(self.ts).parse_formula_expr()))
                    break
            else:
                raise ParseError(f"expected ':=' or ':|' after {var}", t.line, t.col)
        return out


def parse_text(source: str) -> EbSpecification:
    """Parse the plain-text syntax; the result is validated for name rules."""
    spec = _Parser(source).parse()
    validate(spec)
    return spec


# ---------------------------------------------------------------------------
# validation


def validate(spec: EbSpecification) -> None:
    """Intra-file checks; cross-file references resolve in translate."""
    all_names = [i.name for i in spec.items]
    seen: set[str] = set()
    for item in spec.items:
        if item.name in seen:
            raise SpecError(f"duplicate machine/context name {item.name}")
        later = set(all_names) - seen - {item.name}
        if isinstance(item, ContextDef):
            for ref in item.extends:
                if ref in later:
                    raise SpecError(f"context {item.name}: forward reference to {ref}")
            names = list(item.sets) + list(item.constants)
            if len(names) != len(set(names)):
                raise SpecError(f"context {item.name} reuses a set/constant name")
        else:
            _validate_machine(item, later)
        seen.add(item.name)


def _validate_machine(m: MachineDef, later: set[str]) -> None:
    if m.refines is not None and m.refines in later:
        raise SpecError(f"machine {m.name}: forward reference to {m.refines}")
    for ref in m.sees:
        if ref in later:
            raise SpecError(f"machine {m.name}: forward reference to {ref}")
    inits = [e for e in m.events if e.is_init]
    if len(inits) != 1:
        raise SpecError(f"machine {m.name} needs exactly one initialisation event")
    init = inits[0]
    if init.params or init.guards or init.witnesses or init.refines:
        raise SpecError(f"{m.name}: the initialisation event only has actions")
    names = [e.name for e in m.events]
    if len(names) != len(set(names)):
        raise SpecError(f"machine {m.name} declares an event twice")
    if len(set(m.variables)) != len(m.variables):
        raise SpecError(f"machine {m.name} declares a variable twice")
    for e in m.events:
        labels = [g.label for g in e.guards] + [w.label for w in e.witnesses] \
            + [a.label for a in e.actions]
        if len(labels) != len(set(labels)):
            raise SpecError(f"{m.name}.{e.name}: labels are not unique")
        assigned = [a.var for a in e.actions]
        if len(assigned) != len(set(assigned)):
            raise SpecError(f"{m.name}.{e.name}: a variable is assigned twice")
        for a in e.actions:
            if a.var not in m.variables:
                raise SpecError(
                    f"{m.name}.{e.name}: assignment to undeclared variable {a.var}")
        if m.refines is None and e.refines:
            raise SpecError(
                f"{m.name}.{e.name}: refines clause without an abstract machine")


# ---------------------------------------------------------------------------
# typing classification


def typing_of(node, names: Sequence[str],
              known_sorts: Sequence[str]) -> Optional[tuple[str, TypeExpr]]:
    """Recognise `v ∈ ℕ / ℤ / BOOL / S / {literals}`, for an unprimed v among
    names, as a sort declaration (v, type)."""
    if not (isinstance(node, SBin) and node.op == "in"):
        return None
    lhs, rhs = node.left, node.right
    if not (isinstance(lhs, SName) and not lhs.primed and lhs.name in names):
        return None
    if isinstance(rhs, SName) and not rhs.primed:
        te = BUILTIN_TYPES.get(rhs.name)
        if te is None and rhs.name in known_sorts:
            te = SortType(rhs.name)
        return None if te is None else (lhs.name, te)
    if isinstance(rhs, SSet):
        try:
            return (lhs.name, SubsetType(tuple(_literal_term(e) for e in rhs.elems)))
        except SortError:
            return None
    return None


def typing_of_axiom(lp: LabelledPred, constants: Sequence[str],
                    known_sorts: Sequence[str]):
    """Constant typing from axioms.

    `c ∈ ℕ/ℤ/BOOL/S` types c and is consumed; `c ∈ {literals}` types c and is
    kept as a membership axiom; `S = {c1, ..., cn}` types the members and is
    kept as an enumeration-exhaustiveness axiom.
    """
    node = lp.pred
    found = typing_of(node, constants, known_sorts)
    if found is not None:
        name, te = found
        return {name: te}, isinstance(te, SubsetType)
    if isinstance(node, SBin) and node.op == "=":
        lhs, rhs = node.left, node.right
        if (isinstance(lhs, SName) and not lhs.primed and lhs.name in known_sorts
                and isinstance(rhs, SSet)):
            out = {}
            for e in rhs.elems:
                if isinstance(e, SName) and not e.primed and e.name in constants:
                    out[e.name] = SortType(lhs.name)
            return (out or None), True
    return None, True
