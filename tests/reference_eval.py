"""Test-only oracles, kept out of the library.

- The inductive formula evaluator: ``evtforge.fopeq.compile_formula`` is the
  library's only evaluator; ``eval_term``/``eval_formula`` walk a formula
  directly and must agree with it on every closed formula and every total
  valuation.
- ``literal_satisfies``: satisfaction over a model's tuple states with the
  inductive evaluator, against which ``evtforge.institution.satisfies`` (over
  state codes and compiled closures) is checked.
- ``canonical``: a formula's conjunctions flattened, sorted and deduplicated,
  for comparing sentence sets.
- ``make_state``, ``enumerate_states`` and ``literal_inclusion``: a tuple
  state from an assignment, every state of a signature over an algebra, and
  refinement as literal inclusion of enumerated model classes, against which
  the maxima shortcut is checked.  ``enumerate_models`` and ``rep_contains``
  list a represented class's models and test membership in it.
- ``restrict_along``: the restriction of states and pairs to the reducts in
  bounds, on tuple states, against which the library's restriction of state
  codes is checked.
- ``pretty_print_eb``: the print half of the Event-B text round trip
  (print∘parse must be the identity on parsed specifications).
- ``reference_tokenize`` and ``LinearTokenStream``: the lexer as a loop over
  characters that emits a NEWLINE token for every newline, and the token
  cursor as a linear scan, against which ``evtforge.mathlang.tokenize`` (by
  way of ``solid_tokens``) and ``TokenStream`` are checked.
- ``ReferenceExprParser``: the expression parser as a recursive descent with
  one method per binding level, over the NEWLINE tokens of the character
  lexer, against which the precedence table and the newline rule of
  ``evtforge.mathlang.ExprParser`` are checked.
- ``reference_fopeq_signature``, ``reference_evt_signature``,
  ``reference_fopeq_morphism`` and ``reference_evt_morphism``: the
  validation of each signature and morphism as a loop over its names, one
  name at a time, against which the whole-collection checks of the
  constructors are checked.
"""

import itertools
from typing import Iterable, Mapping, Sequence

from evtforge.errors import EnumerationLimit, ParseError, SortError
from evtforge.eventb import ContextDef, EbSpecification, LabelledPred
from evtforge.fopeq import (
    BUILTIN_OPS, BUILTIN_PREDS, BUILTIN_SORTS, UNDEF, And, BoolLit, CarrierEq, Equal, FalseF,
    FiniteAlgebra, Forall, Exists, Formula, Iff, Implies, InSet, IntLit, Not,
    OpApp, Or, PredApp, Term, TrueF, Value, Var, conjoin,
)
from evtforge.institution import (
    INIT, EvtModel, EvtMorphism, EvtSentence, EvtSignature, State, Status, init_conjuncts,
    model_reduct, reduce_state,
)
from evtforge.mathlang import (
    _BOOL_WORDS, _MULTI, _QUANT, _QUANTIFIERS, _RELOPS, _SINGLE, _UNICODE_SYM,
    _WORD_SORTS, BUILTIN_TYPES, SApp, SBin, SBool, SName, SNum, SQuant, SSet,
    SortType, SubsetType, SUn, Token, _literal_term, unparse_formula, unparse_type,
)
from evtforge.specs import ModelClassRep

Valuation = Mapping[tuple[str, bool], Value]


def eval_term(t: Term, a: FiniteAlgebra, val: Valuation):
    """Inductive evaluation; returns a value or UNDEF (strict propagation)."""
    if isinstance(t, Var):
        if t.key not in val:
            raise SortError(f"unbound variable {t.name}{'′' if t.primed else ''}")
        return val[t.key]
    if isinstance(t, IntLit):
        if abs(t.value) > a.int_bound:
            return UNDEF
        return t.value
    if isinstance(t, BoolLit):
        return t.value
    if isinstance(t, OpApp):
        args = []
        for sub in t.args:
            v = eval_term(sub, a, val)
            if v is UNDEF:
                return UNDEF
            args.append(v)
        if t.op in BUILTIN_OPS:
            x, y = args
            r = x + y if t.op == "+" else x - y if t.op == "-" else x * y
            return r if abs(r) <= a.int_bound else UNDEF
        table = a.op_tables.get(t.op)
        if table is None:
            raise SortError(f"operation {t.op} not interpreted")
        return table.get(tuple(args), UNDEF)
    raise SortError(f"not a term: {t!r}")


def _eval_atom_args(terms, a, val):
    out = []
    for t in terms:
        v = eval_term(t, a, val)
        if v is UNDEF:
            return None
        out.append(v)
    return out


def eval_formula(f: Formula, a: FiniteAlgebra, val: Valuation) -> bool:
    """Classical evaluation over finite carriers; atoms containing an
    undefined term are false."""
    if isinstance(f, TrueF):
        return True
    if isinstance(f, FalseF):
        return False
    if isinstance(f, Equal):
        args = _eval_atom_args((f.left, f.right), a, val)
        return args is not None and args[0] == args[1]
    if isinstance(f, PredApp):
        args = _eval_atom_args(f.args, a, val)
        if args is None:
            return False
        if f.pred in BUILTIN_PREDS:
            x, y = args
            return {"<": x < y, "<=": x <= y, ">": x > y, ">=": x >= y}[f.pred]
        rel = a.pred_tables.get(f.pred)
        if rel is None:
            raise SortError(f"predicate {f.pred} not interpreted")
        return tuple(args) in rel
    if isinstance(f, InSet):
        args = _eval_atom_args((f.item, *f.elems), a, val)
        return args is not None and args[0] in args[1:]
    if isinstance(f, CarrierEq):
        args = _eval_atom_args(f.elems, a, val)
        return args is not None and set(args) == set(a.carrier(f.sort))
    if isinstance(f, Not):
        return not eval_formula(f.body, a, val)
    if isinstance(f, And):
        return all(eval_formula(p, a, val) for p in f.parts)
    if isinstance(f, Or):
        return any(eval_formula(p, a, val) for p in f.parts)
    if isinstance(f, Implies):
        return (not eval_formula(f.left, a, val)) or eval_formula(f.right, a, val)
    if isinstance(f, Iff):
        return eval_formula(f.left, a, val) == eval_formula(f.right, a, val)
    if isinstance(f, (Forall, Exists)):
        domains = [a.carrier(s) for _, s in f.vars]
        keys = [(n, False) for n, _ in f.vars]
        want_all = isinstance(f, Forall)
        base = dict(val)
        for combo in itertools.product(*domains):
            base.update(zip(keys, combo))
            r = eval_formula(f.body, a, base)
            if want_all and not r:
                return False
            if not want_all and r:
                return True
        return want_all
    raise SortError(f"not a formula: {f!r}")


def literal_satisfies(m: EvtModel, s: EvtSentence) -> bool:
    """All pairs of the event's relation (all initialising states for the
    initial event, on init_conjuncts) make the body true, each evaluated
    inductively on the tuple states."""
    if s.event not in m.signature.event_map:
        raise SortError(f"sentence names unknown event {s.event}")
    if s.event == INIT:
        body = conjoin(init_conjuncts(s.body))
        return all(eval_formula(body, m.algebra, valuation(after, True)) for after in m.init)
    return all(eval_formula(s.body, m.algebra,
                            {**valuation(before, False), **valuation(after, True)})
               for before, after in dict(m.rel)[s.event])


def valuation(s: State, primed: bool) -> dict[tuple[str, bool], Value]:
    """The values of s's variables, primed or not."""
    return {(name, primed): v for name, v in s}


# ---------------------------------------------------------------------------
# canonical forms for set-level sentence comparison


def canonical(f: Formula) -> Formula:
    """Flatten conjunctions, drop true conjuncts, sort and dedupe.

    Comparison device only; stored formulas are never rewritten.
    """
    if isinstance(f, And):
        parts = []
        for p in f.parts:
            q = canonical(p)
            if isinstance(q, TrueF):
                continue
            if isinstance(q, And):
                parts.extend(q.parts)
            else:
                parts.append(q)
        unique = sorted(set(parts), key=unparse_formula)
        return conjoin(unique)
    if isinstance(f, Or):
        return Or(tuple(canonical(p) for p in f.parts))
    if isinstance(f, Not):
        return Not(canonical(f.body))
    if isinstance(f, Implies):
        return Implies(canonical(f.left), canonical(f.right))
    if isinstance(f, Iff):
        return Iff(canonical(f.left), canonical(f.right))
    if isinstance(f, (Forall, Exists)):
        return type(f)(f.vars, canonical(f.body))
    return f


# ---------------------------------------------------------------------------
# signature and morphism validation, one name at a time
#
# Each takes a constructor's arguments and returns the fields the constructor
# normalises, or raises the SortError it raises.


def reference_fopeq_signature(sorts, ops, preds):
    """FopeqSignature: (sorts, ops, preds), each sorted without repeats."""
    sorts = tuple(sorted(set(sorts)))
    ops = tuple(sorted(set(ops)))
    preds = tuple(sorted(set(preds)))
    names = [o.name for o in ops]
    if len(names) != len(set(names)):
        raise SortError(f"duplicate operation names in signature: {names}")
    pnames = [p.name for p in preds]
    if len(pnames) != len(set(pnames)):
        raise SortError(f"duplicate predicate names in signature: {pnames}")
    known = set(sorts) | BUILTIN_SORTS
    for o in ops:
        for s in (*o.args, o.result):
            if s not in known:
                raise SortError(f"operation {o.name} uses undeclared sort {s}")
    for p in preds:
        for s in p.args:
            if s not in known:
                raise SortError(f"predicate {p.name} uses undeclared sort {s}")
    return sorts, ops, preds


def reference_evt_signature(fsig, events, vars):
    """EvtSignature: (events, vars), sorted by name, Init added."""
    ev = dict(events)
    if len(ev) != len(events):
        raise SortError("duplicate event names in signature")
    if ev.setdefault(INIT, Status.ordinary) != Status.ordinary:
        raise SortError("the initial event must have ordinary status")
    vs = dict(vars)
    if len(vs) != len(vars):
        raise SortError("duplicate variable names in signature")
    events, vars = tuple(sorted(ev.items())), tuple(sorted(vs.items()))
    for name, sort in vars:
        if name.endswith(("'", "′")):
            raise SortError(f"variable name {name} looks primed")
        if not (sort in BUILTIN_SORTS or sort in fsig.sorts):
            raise SortError(f"variable {name} has undeclared sort {sort}")
    for name, _ in events:
        if name.endswith(("'", "′")):
            raise SortError(f"event name {name} looks primed")
    return events, vars


def _reference_image(d, name, builtins, what):
    if name in builtins:
        return name
    if name not in d:
        raise SortError(f"{what} {name} outside the morphism domain")
    return d[name]


def _reference_op_profile(sig, name):
    if name in BUILTIN_OPS:
        return BUILTIN_OPS[name]
    o = {o.name: o for o in sig.ops}.get(name)
    if o is None:
        raise SortError(f"unknown operation {name}")
    return o.args, o.result


def _reference_pred_profile(sig, name):
    if name in BUILTIN_PREDS:
        return BUILTIN_PREDS[name]
    p = {p.name: p for p in sig.preds}.get(name)
    if p is None:
        raise SortError(f"unknown predicate {name}")
    return p.args


def reference_fopeq_morphism(source, target, sort_map, op_map, pred_map):
    """FopeqMorphism: (sort_map, op_map, pred_map), each sorted."""
    sort_map, op_map, pred_map = map(tuple, map(sorted, (sort_map, op_map, pred_map)))
    smap, omap, pmap = dict(sort_map), dict(op_map), dict(pred_map)

    def image(s):
        return _reference_image(smap, s, BUILTIN_SORTS, "sort")

    for s in source.sorts:
        if s not in smap:
            raise SortError(f"sort map not total: {s} unmapped")
        if not (smap[s] in BUILTIN_SORTS or smap[s] in target.sorts):
            raise SortError(f"sort {s} maps outside the target signature")
    for o in source.ops:
        if o.name not in omap:
            raise SortError(f"operation map not total: {o.name} unmapped")
        args, result = _reference_op_profile(target, omap[o.name])
        if args != tuple(image(s) for s in o.args) or result != image(o.result):
            raise SortError(f"operation map does not preserve the profile of {o.name}")
    for p in source.preds:
        if p.name not in pmap:
            raise SortError(f"predicate map not total: {p.name} unmapped")
        if _reference_pred_profile(target, pmap[p.name]) != tuple(image(s) for s in p.args):
            raise SortError(f"predicate map does not preserve the profile of {p.name}")
    return sort_map, op_map, pred_map


def reference_evt_morphism(source, target, fopeq, event_map, var_map, check_status=True):
    """EvtMorphism: (event_map, var_map), each sorted."""
    event_map, var_map = tuple(sorted(event_map)), tuple(sorted(var_map))
    em, vm = dict(event_map), dict(var_map)
    if fopeq.source != source.fopeq or fopeq.target != target.fopeq:
        raise SortError("first-order component does not match the endpoints")
    tgt_events = dict(target.events)
    if em.get(INIT, INIT) != INIT:
        raise SortError("the initial event must map to the initial event")
    for name, st in source.events:
        if name not in em:
            raise SortError(f"event map not total: {name} unmapped")
        out = em[name]
        if out not in tgt_events:
            raise SortError(f"event {name} maps to unknown event {out}")
        if out == INIT and name != INIT:
            raise SortError("a non-initial event may not map to the initial event")
        if check_status and tgt_events[out] < st:
            raise SortError(
                f"event map lowers the status of {name} ({st} to {tgt_events[out]})")
    tgt_vars = dict(target.vars)
    sorts = dict(fopeq.sort_map)
    for name, sort in source.vars:
        if name not in vm:
            raise SortError(f"variable map not total: {name} unmapped")
        out = vm[name]
        if out not in tgt_vars:
            raise SortError(f"variable {name} maps to unknown variable {out}")
        if tgt_vars[out] != _reference_image(sorts, sort, BUILTIN_SORTS, "sort"):
            raise SortError(f"variable map does not respect the sort of {name}")
    return event_map, var_map


# ---------------------------------------------------------------------------
# model classes by enumeration


def make_state(assignment: Mapping[str, Value]) -> State:
    return tuple(sorted(assignment.items()))


def enumerate_states(sig: EvtSignature, algebra: FiniteAlgebra) -> list[State]:
    names = sig.var_names
    domains = [algebra.carrier(sig.var_map[n]) for n in names]
    return [tuple(zip(names, combo)) for combo in itertools.product(*domains)]


def literal_inclusion(rep_c: ModelClassRep, rep_a: ModelClassRep,
                      m: EvtMorphism, limit: int = 1 << 16) -> bool:
    """Oracle: enumerate every concrete model, reduce it, and test abstract
    membership.  Exponential; test-sized instances only."""
    for model in enumerate_models(rep_c, limit):
        if not rep_contains(rep_a, model_reduct(m, model)):
            return False
    return True


def rep_contains(rep: ModelClassRep, model) -> bool:
    """Membership of a concrete model in the represented class."""
    sl = rep.by_algebra.get(model.algebra)
    if sl is None:
        return False
    # over one algebra, the same variables and sorts give the same coding
    if model.signature.vars != rep.signature.vars or not model.init_codes <= sl.init_codes:
        return False
    rm = sl.code_map
    return all(pairs <= rm[e] for e, pairs in model.code_map.items())


def enumerate_models(rep: ModelClassRep, limit: int = 1 << 16):
    """Every concrete model in the represented class; guarded by a count
    limit since the downward closure is exponential."""
    total = 0
    for sl in rep.slices:
        count = (2 ** len(sl.init_codes) - 1)
        for _, pairs in sl.rel_codes:
            count *= 2 ** len(pairs)
        total += count
        if total > limit:
            raise EnumerationLimit(f"class has more than {limit} models")
    for sl in rep.slices:
        l_subsets = _subsets(sorted(sl.init_codes), nonempty=True)
        event_names = [e for e, _ in sl.rel_codes]
        pair_choices = [_subsets(sorted(pairs)) for _, pairs in sl.rel_codes]
        for init in l_subsets:
            for chosen in itertools.product(*pair_choices):
                yield EvtModel(rep.signature, sl.algebra, init,
                               tuple(zip(event_names, chosen)))


def _subsets(items: list, nonempty: bool = False):
    out = []
    for r in range(0 if not nonempty else 1, len(items) + 1):
        out.extend(itertools.combinations(items, r))
    return out


def restrict_along(
    init: Iterable[State],
    rel_map: Mapping[str, Iterable[tuple[State, State]]],
    bounds: Sequence[tuple[EvtMorphism, EvtModel]],
) -> tuple[frozenset[State], dict[str, frozenset[tuple[State, State]]]]:
    """The tuple states and pairs whose reducts along every listed morphism
    lie in its bound, a model over the morphism's source; a pair of event e
    is bounded by the relations of e's preimages."""
    out_init = frozenset(s for s in init if all(
        reduce_state(s, m) in b.init for m, b in bounds))
    out_rel = {}
    for e, pairs in rel_map.items():
        tests = [(m, dict(b.rel)[e0]) for m, b in bounds for e0 in m.preimages[e]]
        out_rel[e] = frozenset(
            (s, t) for s, t in pairs
            if all((reduce_state(s, m), reduce_state(t, m)) in r for m, r in tests))
    return out_init, out_rel


# ---------------------------------------------------------------------------
# the Event-B text printer (round-trips through parse_text)

_SURF_PREC = {
    "<=>": 1, "=>": 2, "\\/": 3, "/\\": 4,
    "=": 6, "/=": 6, "<": 6, "<=": 6, ">": 6, ">=": 6, "in": 6,
    "+": 10, "-": 10, "*": 20,
}
_SURF_SYM = {
    "<=>": "⇔", "=>": "⇒", "\\/": "∨", "/\\": "∧",
    "=": "=", "/=": "≠", "<": "<", "<=": "≤", ">": ">", ">=": "≥", "in": "∈",
    "+": "+", "-": "-", "*": "*",
}


def unparse_surface(node, parent_prec: int = 0) -> str:
    """Canonical text for an unelaborated expression tree."""
    if isinstance(node, SNum):
        return str(node.value)
    if isinstance(node, SBool):
        return "true" if node.value else "false"
    if isinstance(node, SName):
        base = node.name
        if base == "NAT":
            base = "ℕ"
        elif base == "INT":
            base = "ℤ"
        return f"{base}′" if node.primed else base
    if isinstance(node, SApp):
        return f"{node.name}({', '.join(unparse_surface(a) for a in node.args)})"
    if isinstance(node, SSet):
        return "{" + ", ".join(unparse_surface(e) for e in node.elems) + "}"
    if isinstance(node, SUn):
        if node.op == "-":
            return f"-{unparse_surface(node.body, 30)}"
        return f"¬{unparse_surface(node.body, 5)}"
    if isinstance(node, SQuant):
        sym = "∀" if node.kind == "forall" else "∃"
        binds = ", ".join(f"{n} : {unparse_type(te)}" for n, te in node.bindings)
        s = f"{sym} {binds} · {unparse_surface(node.body, 0)}"
        return f"({s})" if parent_prec >= 1 else s
    if isinstance(node, SBin):
        prec = _SURF_PREC[node.op]
        if node.op == "=>":
            lp, rp = prec, prec - 1
        else:
            lp, rp = prec - 1, prec
        if node.op in ("=", "/=", "<", "<=", ">", ">=", "in"):
            lp = rp = prec  # non-associative: parenthesise nested relations
        left = unparse_surface(node.left, lp)
        right = unparse_surface(node.right, rp)
        s = f"{left} {_SURF_SYM[node.op]} {right}"
        return f"({s})" if prec <= parent_prec else s
    raise SortError(f"not a surface expression: {node!r}")


def _print_labelled(lines: list[str], indent: str, preds: Sequence[LabelledPred]):
    for p in preds:
        suffix = " theorem" if p.theorem else ""
        lines.append(f"{indent}{p.label}: {unparse_surface(p.pred)}{suffix}")


def pretty_print_eb(spec: EbSpecification) -> str:
    lines: list[str] = []
    for item in spec.items:
        if lines:
            lines.append("")
        if isinstance(item, ContextDef):
            lines.append(f"context {item.name}")
            if item.extends:
                lines.append(f"  extends {', '.join(item.extends)}")
            if item.sets:
                lines.append(f"  sets {', '.join(item.sets)}")
            if item.constants:
                lines.append(f"  constants {', '.join(item.constants)}")
            axioms = list(item.axioms) + list(item.theorems)
            if axioms:
                lines.append("  axioms")
                _print_labelled(lines, "    ", axioms)
            lines.append("end")
            continue
        m = item
        lines.append(f"machine {m.name}")
        if m.refines:
            lines.append(f"  refines {m.refines}")
        if m.sees:
            lines.append(f"  sees {', '.join(m.sees)}")
        if m.variables:
            lines.append(f"  variables {', '.join(m.variables)}")
        invariants = list(m.invariants) + list(m.theorems)
        if invariants:
            lines.append("  invariants")
            _print_labelled(lines, "    ", invariants)
        if m.variant is not None:
            lines.append(f"  variant {unparse_surface(m.variant)}")
        if m.events:
            lines.append("  events")
            for e in m.events:
                lines.append(f"    event {e.name}")
                if not e.is_init:
                    lines.append(f"      status {e.status}")
                if e.refines:
                    lines.append(f"      refines {', '.join(e.refines)}")
                if e.params:
                    decls = ", ".join(
                        n if te is None else f"{n} : {unparse_type(te)}"
                        for n, te in e.params)
                    lines.append(f"      any {decls}")
                if e.guards:
                    lines.append("      when")
                    _print_labelled(lines, "        ", e.guards)
                if e.witnesses:
                    lines.append("      with")
                    _print_labelled(lines, "        ", e.witnesses)
                if e.actions:
                    lines.append("      thenAct")
                    for a in e.actions:
                        lines.append(
                            f"        {a.label}: {a.var} {a.kind} {unparse_surface(a.rhs)}")
                lines.append("    end")
        lines.append("end")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# lexer and token cursor


def reference_tokenize(text: str) -> list[Token]:
    """The tokens of text, trying each token kind in turn at every start."""
    toks: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)

    def push(kind, s, primed=False):
        toks.append(Token(kind, s, line, start_col, primed))

    while i < n:
        c = text[i]
        start_col = col
        if c == "\n":
            toks.append(Token("NEWLINE", "\n", line, col))
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
                col += 1
            continue
        if c in _WORD_SORTS:
            push("IDENT", _WORD_SORTS[c])
            i += 1
            col += 1
            continue
        if c in _QUANT:
            push("SYM", _QUANT[c])
            i += 1
            col += 1
            continue
        if c in _UNICODE_SYM:
            push("SYM", _UNICODE_SYM[c])
            i += 1
            col += 1
            continue
        if text.startswith("#exists", i) or text.startswith("#forall", i):
            push("SYM", text[i:i + 7])
            i += 7
            col += 7
            continue
        matched = False
        for m in _MULTI:
            if text.startswith(m, i):
                push("SYM", m)
                i += len(m)
                col += len(m)
                matched = True
                break
        if matched:
            continue
        if c.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            push("NUMBER", text[i:j])
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            primed = False
            if j < n and text[j] in ("'", "′"):
                primed = True
                j += 1
            push("IDENT", word, primed)
            col += j - i
            i = j
            continue
        if c in _SINGLE:
            push("SYM", c)
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(Token("EOF", "", line, col))
    return toks


class LinearTokenStream:
    """The token cursor's moves, each a scan: a look-ahead steps one token at
    a time and stays on EOF, the last token."""

    def __init__(self, tokens: Sequence[Token]):
        self.tokens = list(tokens)
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        i = self.pos
        while ahead and i < len(self.tokens) - 1:
            i += 1
            ahead -= 1
        return self.tokens[min(i, len(self.tokens) - 1)]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t


def solid_tokens(tokens: Sequence[Token]) -> list[Token]:
    """The character lexer's tokens as the library lexes them: each NEWLINE
    run dropped, and the token after it flagged with the column of the run's
    first newline."""
    out: list[Token] = []
    nl = 0
    for t in tokens:
        if t.kind == "NEWLINE":
            nl = nl or t.col
            continue
        out.append(Token(t.kind, t.text, t.line, t.col, t.primed, nl))
        nl = 0
    return out


# ---------------------------------------------------------------------------
# expression parser


class ReferenceExprParser:
    """The expression grammar as a descent ladder, loosest level first:
    ⇔ (left), ⇒ (right), ∨, ∧, then ¬, quantifiers and one relation, then
    + − (left), * (left) and unary minus.

    It reads the character lexer's tokens, NEWLINE tokens included, from
    pos.  With stop_at_newline, every read outside brackets (a closing
    bracket's read is inside) sees a NEWLINE token as a token that fits
    nowhere, except a name's read, which steps over newlines; elsewhere
    every read steps over them.
    """

    def __init__(self, tokens: Sequence[Token], pos: int, stop_at_newline: bool = False):
        self.tokens = tokens
        self.pos = pos
        self.stop_at_newline = stop_at_newline
        self.depth = 0

    def _skip_nl(self) -> bool:
        return (not self.stop_at_newline) or self.depth > 0

    # -- the cursor, as a scan over newlines --------------------------------

    def _peek(self, skip_newlines: bool) -> Token:
        i = self.pos
        while skip_newlines and self.tokens[i].kind == "NEWLINE":
            i += 1
        return self.tokens[i]

    def _next(self, skip_newlines: bool) -> Token:
        while skip_newlines and self.tokens[self.pos].kind == "NEWLINE":
            self.pos += 1
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def _at_sym(self, text: str, skip_newlines: bool) -> bool:
        t = self._peek(skip_newlines)
        return t.kind == "SYM" and t.text == text

    def _accept_sym(self, text: str, skip_newlines: bool) -> bool:
        if self._at_sym(text, skip_newlines):
            self._next(skip_newlines)
            return True
        return False

    def _expect_sym(self, text: str, skip_newlines: bool) -> Token:
        t = self._peek(skip_newlines)
        if t.kind == "SYM" and t.text == text:
            return self._next(skip_newlines)
        raise ParseError(f"expected {text!r}, found {t.text!r}", t.line, t.col)

    def _expect_ident(self) -> Token:
        t = self._peek(True)
        if t.kind != "IDENT":
            raise ParseError(f"expected identifier, found {t.text!r}", t.line, t.col)
        return self._next(True)

    # -- the ladder -----------------------------------------------------------

    def parse_formula_expr(self):
        return self._iff()

    def _iff(self):
        left = self._implies()
        while self._at_sym("<=>", self._skip_nl()):
            self._next(self._skip_nl())
            left = SBin("<=>", left, self._implies())
        return left

    def _implies(self):
        left = self._or()
        if self._at_sym("=>", self._skip_nl()):
            self._next(self._skip_nl())
            return SBin("=>", left, self._implies())
        return left

    def _or(self):
        left = self._and()
        while self._at_sym("\\/", self._skip_nl()):
            self._next(self._skip_nl())
            left = SBin("\\/", left, self._and())
        return left

    def _and(self):
        left = self._unary()
        while self._at_sym("/\\", self._skip_nl()):
            self._next(self._skip_nl())
            left = SBin("/\\", left, self._unary())
        return left

    def _unary(self):
        t = self._peek(self._skip_nl())
        if t.kind == "SYM" and t.text == "!":
            self._next(self._skip_nl())
            return SUn("!", self._unary())
        kind = _QUANTIFIERS.get(t.text) if t.kind == "SYM" else None
        if kind is None:
            return self._comparison()
        self._next(self._skip_nl())
        bindings = [self._binding()]
        while self._accept_sym(",", self._skip_nl()):
            bindings.append(self._binding())
        self._expect_sym(".", self._skip_nl())
        body = self.parse_formula_expr()
        return SQuant(kind, tuple(bindings), body)

    def _binding(self):
        name = self._expect_ident()
        if name.primed:
            raise ParseError("bound variables may not be primed", name.line, name.col)
        self._expect_sym(":", self._skip_nl())
        return (name.text, self._type_expr())

    def _type_expr(self):
        # a set type is read by a parser that steps over every newline
        t = self._peek(self._skip_nl())
        if t.kind == "SYM" and t.text == "{":
            inner = ReferenceExprParser(self.tokens, self.pos)
            node = inner._set_literal()
            self.pos = inner.pos
            return SubsetType(tuple(_literal_term(e) for e in node.elems))
        tok = self._expect_ident()
        if tok.primed:
            raise ParseError("sort names may not be primed", tok.line, tok.col)
        return BUILTIN_TYPES.get(tok.text, SortType(tok.text))

    def _comparison(self):
        left = self._arith()
        t = self._peek(self._skip_nl())
        if t.kind == "SYM" and t.text in _RELOPS:
            self._next(self._skip_nl())
            right = self._set_or_arith() if t.text == "in" else self._arith()
            return SBin(t.text, left, right)
        if t.kind == "IDENT" and t.text == "in" and not t.primed:
            self._next(self._skip_nl())
            return SBin("in", left, self._set_or_arith())
        return left

    def _set_or_arith(self):
        if self._at_sym("{", self._skip_nl()):
            return self._set_literal()
        return self._arith()

    def _set_literal(self):
        self._expect_sym("{", self._skip_nl())
        self.depth += 1
        elems = [self._arith()]
        while self._accept_sym(",", True):
            elems.append(self._arith())
        self._expect_sym("}", self._skip_nl())
        self.depth -= 1
        return SSet(tuple(elems))

    def _arith(self):
        left = self._mul()
        while True:
            t = self._peek(self._skip_nl())
            if t.kind == "SYM" and t.text in ("+", "-"):
                self._next(self._skip_nl())
                left = SBin(t.text, left, self._mul())
            else:
                return left

    def _mul(self):
        left = self._neg()
        while self._at_sym("*", self._skip_nl()):
            self._next(self._skip_nl())
            left = SBin("*", left, self._neg())
        return left

    def _neg(self):
        if self._at_sym("-", self._skip_nl()):
            self._next(self._skip_nl())
            body = self._neg()
            if isinstance(body, SNum):
                return SNum(-body.value)
            return SUn("-", body)
        return self._primary()

    def _primary(self):
        t = self._peek(self._skip_nl())
        if t.kind == "NUMBER":
            self._next(self._skip_nl())
            return SNum(int(t.text))
        if t.kind == "SYM" and t.text == "(":
            self._next(self._skip_nl())
            self.depth += 1
            inner = self.parse_formula_expr()
            self._expect_sym(")", self._skip_nl())
            self.depth -= 1
            return inner
        if t.kind == "SYM" and t.text == "{":
            return self._set_literal()
        if t.kind == "IDENT":
            if t.text in _BOOL_WORDS and not t.primed:
                self._next(self._skip_nl())
                return SBool(_BOOL_WORDS[t.text])
            self._next(self._skip_nl())
            if not t.primed and self._at_sym("(", False):
                self._next(self._skip_nl())
                self.depth += 1
                args = [self._arith()]
                while self._accept_sym(",", True):
                    args.append(self._arith())
                self._expect_sym(")", self._skip_nl())
                self.depth -= 1
                return SApp(t.text, tuple(args))
            return SName(t.text, t.primed)
        raise ParseError(f"expected an expression, found {t.text!r}", t.line, t.col)
