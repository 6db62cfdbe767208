"""The inductive formula evaluator, kept as the oracle for the compiled one.

``evtforge.fopeq.compile_formula`` is the library's only evaluator; these
functions walk a formula directly and must agree with it on every closed
formula and every total valuation.
"""

import itertools
from typing import Mapping

from evtforge.errors import SortError
from evtforge.fopeq import (
    BUILTIN_OPS, BUILTIN_PREDS, UNDEF, And, BoolLit, CarrierEq, Equal, FalseF,
    FiniteAlgebra, Forall, Exists, Formula, Iff, Implies, InSet, IntLit, Not,
    OpApp, Or, PredApp, Term, TrueF, Value, Var,
)

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
