"""Reader for Rodin project files (.buc contexts, .bum machines).

Element and attribute names are namespace-qualified (org.eventb.core.*); the
qualifier is stripped and only the local part is interpreted.  Convergence
codes: 0 ordinary, 1 convergent, 2 anticipated.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Sequence

from .errors import ParseError, SpecError, read_source
from .eventb import (
    ActionDef, ContextDef, EbSpecification, EventDef, INIT_EVENT_NAME,
    LabelledPred, MachineDef, validate,
)
from .institution import Status
from .mathlang import ExprParser, TokenStream, parse_expression, tokenize

_CONVERGENCE = {"0": Status.ordinary, "1": Status.convergent, "2": Status.anticipated}


def _local(name: str) -> str:
    return name.split(".")[-1].split("}")[-1]


def _attrs(elem) -> dict[str, str]:
    return {_local(k): v for k, v in elem.attrib.items()}


def _parse_pred(text: str, where: str):
    try:
        return parse_expression(TokenStream(tokenize(text)))
    except ParseError as e:
        raise ParseError(f"{where}: malformed predicate {text!r}: {e}") from e


def _parse_assignment(text: str, where: str) -> tuple[str, str, object]:
    text = text.replace("≔", ":=").replace(":∣", ":|")
    ts = TokenStream(tokenize(text))
    var = ts.expect_ident()
    if var.primed:
        raise ParseError(f"{where}: assigned variable may not be primed")
    op = ts.peek()
    if not (ts.accept_sym(":=") or ts.accept_sym(":|")):
        raise ParseError(f"{where}: expected ':=' or ':|' in {text!r}", op.line, op.col)
    rhs = ExprParser(ts).parse_formula_expr()
    t = ts.peek()
    if t.kind != "EOF":
        raise ParseError(f"{where}: trailing input {t.text!r}", t.line, t.col)
    return var.text, op.text, rhs


def _flag(attrs: dict[str, str], key: str) -> bool:
    return attrs.get(key, "false") == "true"


def parse_rodin(files: Sequence[tuple[str, str]]) -> EbSpecification:
    """Parse named XML documents into one specification, ordered so that every
    referenced unit comes before its users."""
    units = {}
    deps: dict[str, list[str]] = {}
    order: list[str] = []
    for name, text in files:
        try:
            root = ET.fromstring(text)
        except ET.ParseError as e:
            raise ParseError(f"{name}: not well-formed XML: {e}") from e
        kind = _local(root.tag)
        if kind == "contextFile":
            item = _read_context(name, root)
            deps[name] = list(item.extends)
        elif kind == "machineFile":
            item = _read_machine(name, root)
            deps[name] = list(item.sees) + ([item.refines] if item.refines else [])
        else:
            raise ParseError(f"{name}: unknown root element {root.tag}")
        units[name] = item
        order.append(name)

    placed: list[str] = []
    pending = list(order)
    while pending:
        progress = False
        for name in list(pending):
            if all(d in placed or d not in units for d in deps[name]):
                placed.append(name)
                pending.remove(name)
                progress = True
        if not progress:
            raise SpecError(f"circular references among {sorted(pending)}")
    spec = EbSpecification(tuple(units[n] for n in placed))
    validate(spec)
    return spec


def parse_rodin_paths(paths: Sequence[str]) -> EbSpecification:
    return parse_rodin([(Path(p).stem, read_source(p)) for p in paths])


def _read_context(name: str, root) -> ContextDef:
    extends, sets, constants, axioms = [], [], [], []
    for child in root:
        tag = _local(child.tag)
        a = _attrs(child)
        if tag == "extendsContext":
            extends.append(a["target"])
        elif tag == "carrierSet":
            sets.append(a["identifier"])
        elif tag == "constant":
            constants.append(a["identifier"])
        elif tag == "axiom":
            axioms.append(LabelledPred(
                a["label"], _parse_pred(a["predicate"], f"{name}.{a['label']}"),
                _flag(a, "theorem")))
    return ContextDef(
        name, tuple(extends), tuple(sets), tuple(constants),
        tuple(x for x in axioms if not x.theorem),
        tuple(x for x in axioms if x.theorem))


def _read_machine(name: str, root) -> MachineDef:
    refines = None
    sees, variables, invariants, events = [], [], [], []
    variant = None
    for child in root:
        tag = _local(child.tag)
        a = _attrs(child)
        if tag == "refinesMachine":
            refines = a["target"]
        elif tag == "seesContext":
            sees.append(a["target"])
        elif tag == "variable":
            variables.append(a["identifier"])
        elif tag == "invariant":
            invariants.append(LabelledPred(
                a["label"], _parse_pred(a["predicate"], f"{name}.{a['label']}"),
                _flag(a, "theorem")))
        elif tag == "variant":
            variant = _parse_pred(a["expression"], f"{name}.variant")
        elif tag == "event":
            events.append(_read_event(name, child))
    return MachineDef(
        name, refines, tuple(sees), tuple(variables),
        tuple(x for x in invariants if not x.theorem),
        tuple(x for x in invariants if x.theorem),
        variant, tuple(events))


def _read_event(unit: str, elem) -> EventDef:
    a = _attrs(elem)
    label = a["label"]
    if label.lower() == INIT_EVENT_NAME.lower():
        label = INIT_EVENT_NAME
    code = a.get("convergence", "0")
    if code not in _CONVERGENCE:
        raise ParseError(f"{unit}.{label}: unknown convergence code {code!r}")
    status = _CONVERGENCE[code]
    extended = _flag(a, "extended")
    refines, params, guards, witnesses, actions = [], [], [], [], []
    for child in elem:
        tag = _local(child.tag)
        ca = _attrs(child)
        where = f"{unit}.{label}"
        if tag == "refinesEvent":
            refines.append(ca["target"])
        elif tag == "parameter":
            params.append((ca["identifier"], None))
        elif tag == "guard":
            guards.append(LabelledPred(
                ca["label"], _parse_pred(ca["predicate"], where), False))
        elif tag == "witness":
            witnesses.append(LabelledPred(
                ca["label"], _parse_pred(ca["predicate"], where), False))
        elif tag == "action":
            var, kind, rhs = _parse_assignment(ca["assignment"], where)
            actions.append(ActionDef(ca["label"], var, kind, rhs))
    if label == INIT_EVENT_NAME:
        status = Status.ordinary
        refines = []
    return EventDef(label, status, tuple(refines), tuple(params),
                    tuple(guards), tuple(witnesses), tuple(actions), extended)
