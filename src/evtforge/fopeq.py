"""First-order signatures, formulas and finite algebras over bounded domains.

Integers are bounded to the carrier -B..B; arithmetic escaping the carrier is
undefined, and an atom containing an undefined term evaluates to false.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import EnumerationLimit, SortError

Value = Union[int, bool, str]

INT = "Int"
BOOL = "Bool"
BUILTIN_SORTS = frozenset({INT, BOOL})

# name -> (argument sorts, result sort)
BUILTIN_OPS = {
    "+": ((INT, INT), INT),
    "-": ((INT, INT), INT),
    "*": ((INT, INT), INT),
}
# name -> argument sorts
BUILTIN_PREDS = {
    "<": (INT, INT),
    "<=": (INT, INT),
    ">": (INT, INT),
    ">=": (INT, INT),
}


class _Undefined:
    __slots__ = ()

    def __repr__(self):
        return "UNDEF"


UNDEF = _Undefined()


def value_key(v: Value):
    """Total order over mixed carrier values, for canonical listings."""
    if isinstance(v, bool):
        return (0, int(v))
    if isinstance(v, int):
        return (1, v)
    return (2, v)


# ---------------------------------------------------------------------------
# signatures


@dataclass(frozen=True, order=True)
class Op:
    name: str
    args: tuple[str, ...]
    result: str


@dataclass(frozen=True, order=True)
class Pred:
    name: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class FopeqSignature:
    """User-declared sorts, operations and predicates.

    Int/Bool with arithmetic and comparisons are built in to every signature
    and are not listed here.
    """

    sorts: tuple[str, ...] = ()
    ops: tuple[Op, ...] = ()
    preds: tuple[Pred, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "sorts", tuple(sorted(set(self.sorts))))
        object.__setattr__(self, "ops", tuple(sorted(set(self.ops))))
        object.__setattr__(self, "preds", tuple(sorted(set(self.preds))))
        names = [o.name for o in self.ops]
        if len(names) != len(set(names)):
            raise SortError(f"duplicate operation names in signature: {names}")
        pnames = [p.name for p in self.preds]
        if len(pnames) != len(set(pnames)):
            raise SortError(f"duplicate predicate names in signature: {pnames}")
        known = set(self.sorts) | BUILTIN_SORTS
        for o in self.ops:
            for s in (*o.args, o.result):
                if s not in known:
                    raise SortError(f"operation {o.name} uses undeclared sort {s}")
        for p in self.preds:
            for s in p.args:
                if s not in known:
                    raise SortError(f"predicate {p.name} uses undeclared sort {s}")
        object.__setattr__(self, "_hash", hash((self.sorts, self.ops, self.preds)))

    def __hash__(self):
        return self._hash

    @cached_property
    def op_map(self) -> dict[str, Op]:
        return {o.name: o for o in self.ops}

    @cached_property
    def pred_map(self) -> dict[str, Pred]:
        return {p.name: p for p in self.preds}

    def all_sorts(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.sorts) | BUILTIN_SORTS))

    def has_sort(self, s: str) -> bool:
        return s in BUILTIN_SORTS or s in self.sorts

    def op_profile(self, name: str) -> tuple[tuple[str, ...], str]:
        if name in BUILTIN_OPS:
            return BUILTIN_OPS[name]
        o = self.op_map.get(name)
        if o is None:
            raise SortError(f"unknown operation {name}")
        return o.args, o.result

    def pred_profile(self, name: str) -> tuple[str, ...]:
        if name in BUILTIN_PREDS:
            return BUILTIN_PREDS[name]
        p = self.pred_map.get(name)
        if p is None:
            raise SortError(f"unknown predicate {name}")
        return p.args

    def union(self, other: "FopeqSignature") -> "FopeqSignature":
        """Merge by name; shared names must carry identical profiles."""
        ops = {o.name: o for o in self.ops}
        for o in other.ops:
            if o.name in ops and ops[o.name] != o:
                raise SortError(
                    f"operation {o.name} declared with conflicting profiles"
                )
            ops[o.name] = o
        preds = {p.name: p for p in self.preds}
        for p in other.preds:
            if p.name in preds and preds[p.name] != p:
                raise SortError(
                    f"predicate {p.name} declared with conflicting profiles"
                )
            preds[p.name] = p
        return FopeqSignature(
            sorts=self.sorts + other.sorts,
            ops=tuple(ops.values()),
            preds=tuple(preds.values()),
        )


EMPTY_SIGNATURE = FopeqSignature()


# ---------------------------------------------------------------------------
# terms and formulas


@dataclass(frozen=True)
class Var:
    name: str
    primed: bool = False

    @property
    def key(self) -> tuple[str, bool]:
        return (self.name, self.primed)


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class OpApp:
    op: str
    args: tuple["Term", ...] = ()


Term = Union[Var, IntLit, BoolLit, OpApp]


@dataclass(frozen=True)
class TrueF:
    pass


@dataclass(frozen=True)
class FalseF:
    pass


TRUE = TrueF()
FALSE = FalseF()


@dataclass(frozen=True)
class Equal:
    left: Term
    right: Term


@dataclass(frozen=True)
class PredApp:
    pred: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class InSet:
    """Membership in an explicit finite set of terms."""

    item: Term
    elems: tuple[Term, ...]


@dataclass(frozen=True)
class CarrierEq:
    """The named sort's carrier is exactly the listed values (enumeration
    exhaustiveness)."""

    sort: str
    elems: tuple[Term, ...]


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    parts: tuple["Formula", ...]


@dataclass(frozen=True)
class Or:
    parts: tuple["Formula", ...]


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Iff:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Forall:
    vars: tuple[tuple[str, str], ...]  # (name, sort)
    body: "Formula"


@dataclass(frozen=True)
class Exists:
    vars: tuple[tuple[str, str], ...]
    body: "Formula"


Formula = Union[
    TrueF, FalseF, Equal, PredApp, InSet, CarrierEq, Not, And, Or, Implies, Iff,
    Forall, Exists,
]


def conjoin(parts: Sequence[Formula]) -> Formula:
    parts = tuple(parts)
    if not parts:
        return TRUE
    if len(parts) == 1:
        return parts[0]
    return And(parts)


def term_vars(t: Term) -> frozenset[tuple[str, bool]]:
    if isinstance(t, Var):
        return frozenset({t.key})
    if isinstance(t, OpApp):
        out: frozenset = frozenset()
        for a in t.args:
            out |= term_vars(a)
        return out
    return frozenset()


def free_vars(f: Formula) -> frozenset[tuple[str, bool]]:
    if isinstance(f, (TrueF, FalseF)):
        return frozenset()
    if isinstance(f, Equal):
        return term_vars(f.left) | term_vars(f.right)
    if isinstance(f, PredApp):
        out: frozenset = frozenset()
        for a in f.args:
            out |= term_vars(a)
        return out
    if isinstance(f, InSet):
        out = term_vars(f.item)
        for e in f.elems:
            out |= term_vars(e)
        return out
    if isinstance(f, CarrierEq):
        out = frozenset()
        for e in f.elems:
            out |= term_vars(e)
        return out
    if isinstance(f, Not):
        return free_vars(f.body)
    if isinstance(f, (And, Or)):
        out = frozenset()
        for p in f.parts:
            out |= free_vars(p)
        return out
    if isinstance(f, (Implies, Iff)):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, (Forall, Exists)):
        bound = {(n, False) for n, _ in f.vars}
        return frozenset(k for k in free_vars(f.body) if k not in bound)
    raise SortError(f"not a formula: {f!r}")


def substitute(
    x: Union[Term, Formula],
    vars: Mapping[tuple[str, bool], Term] = {},
    m: Optional[FopeqMorphism] = None,
) -> Union[Term, Formula]:
    """Sentence translation in one capture-avoiding pass over a term or formula.

    Free variable occurrences are replaced by key (name, primed); operations,
    predicates and sorts are renamed along m when it is given.  A quantifier
    binds only the unprimed occurrences of its variables.  A bound variable
    that would capture an incoming term is renamed apart to the first of
    name_1, name_2, ... that is not free in the body, not bound by the
    quantifier and not in any incoming term.
    """
    op = m.apply_op if m else _same
    pred = m.apply_pred if m else _same
    sort = m.apply_sort if m else _same

    def term(t: Term, env) -> Term:
        if isinstance(t, Var):
            return env.get(t.key, t)
        if isinstance(t, OpApp):
            return OpApp(op(t.op), tuple(term(a, env) for a in t.args))
        if isinstance(t, (IntLit, BoolLit)):
            return t
        raise SortError(f"not a term: {t!r}")

    def form(f: Formula, env) -> Formula:
        if isinstance(f, (TrueF, FalseF)):
            return f
        if isinstance(f, Equal):
            return Equal(term(f.left, env), term(f.right, env))
        if isinstance(f, PredApp):
            return PredApp(pred(f.pred), tuple(term(a, env) for a in f.args))
        if isinstance(f, InSet):
            return InSet(term(f.item, env), tuple(term(e, env) for e in f.elems))
        if isinstance(f, CarrierEq):
            return CarrierEq(sort(f.sort), tuple(term(e, env) for e in f.elems))
        if isinstance(f, Not):
            return Not(form(f.body, env))
        if isinstance(f, (And, Or)):
            return type(f)(tuple(form(p, env) for p in f.parts))
        if isinstance(f, (Implies, Iff)):
            return type(f)(form(f.left, env), form(f.right, env))
        if isinstance(f, (Forall, Exists)):
            bound = {n for n, _ in f.vars}
            env = {k: t for k, t in env.items() if k[1] or k[0] not in bound}
            fresh = _rename_apart(f, bound, env) if env else {}
            env.update({(n, False): Var(v) for n, v in fresh.items()})
            vs = tuple((fresh.get(n, n), sort(s)) for n, s in f.vars)
            return type(f)(vs, form(f.body, env))
        raise SortError(f"not a formula: {f!r}")

    return term(x, vars) if isinstance(x, (Var, IntLit, BoolLit, OpApp)) else form(x, vars)


def _same(name: str) -> str:
    return name


def _rename_apart(
    q: Union[Forall, Exists], bound: set[str], env: Mapping[tuple[str, bool], Term],
) -> dict[str, str]:
    """Fresh names for the bound variables of q that an incoming term for one
    of the body's free variables would capture."""
    body_free = free_vars(q.body)
    landing = [t for k, t in env.items() if k in body_free]
    captured = bound & {n for t in landing for n, primed in term_vars(t) if not primed}
    if not captured:
        return {}
    taken = bound | {n for n, _ in body_free} | {
        n for t in env.values() for n, _ in term_vars(t)}
    fresh = {}
    for n, _ in q.vars:
        if n in captured:
            k = 1
            while f"{n}_{k}" in taken:
                k += 1
            fresh[n] = f"{n}_{k}"
            taken.add(fresh[n])
    return fresh


def rename_free_vars(f: Formula, name_map: Mapping[str, str]) -> Formula:
    """Rename free variables; primed occurrences follow the unprimed map."""
    return substitute(
        f, {(n, p): Var(t, p) for n, t in name_map.items() for p in (False, True)})


def prime_free_vars(x: Union[Term, Formula], names: Iterable[str]) -> Union[Term, Formula]:
    """Prime every free occurrence of the listed (unprimed) variable names."""
    return substitute(x, {(n, False): Var(n, True) for n in names})


# ---------------------------------------------------------------------------
# well-sortedness


def term_sort(t: Term, sig: FopeqSignature, ctx: Mapping[str, str]) -> str:
    if isinstance(t, Var):
        s = ctx.get(t.name)
        if s is None:
            raise SortError(f"variable {t.name} not in scope")
        return s
    if isinstance(t, IntLit):
        return INT
    if isinstance(t, BoolLit):
        return BOOL
    if isinstance(t, OpApp):
        args, result = sig.op_profile(t.op)
        if len(args) != len(t.args):
            raise SortError(f"operation {t.op} expects {len(args)} arguments")
        for expect, a in zip(args, t.args):
            got = term_sort(a, sig, ctx)
            if got != expect:
                raise SortError(f"argument of {t.op} has sort {got}, expected {expect}")
        return result
    raise SortError(f"not a term: {t!r}")


def check_formula(f: Formula, sig: FopeqSignature, ctx: Mapping[str, str]) -> None:
    if isinstance(f, (TrueF, FalseF)):
        return
    if isinstance(f, Equal):
        ls = term_sort(f.left, sig, ctx)
        rs = term_sort(f.right, sig, ctx)
        if ls != rs:
            raise SortError(f"equality between sorts {ls} and {rs}")
        return
    if isinstance(f, PredApp):
        args = sig.pred_profile(f.pred)
        if len(args) != len(f.args):
            raise SortError(f"predicate {f.pred} expects {len(args)} arguments")
        for expect, a in zip(args, f.args):
            got = term_sort(a, sig, ctx)
            if got != expect:
                raise SortError(f"argument of {f.pred} has sort {got}, expected {expect}")
        return
    if isinstance(f, InSet):
        s = term_sort(f.item, sig, ctx)
        for e in f.elems:
            got = term_sort(e, sig, ctx)
            if got != s:
                raise SortError(f"set element has sort {got}, expected {s}")
        return
    if isinstance(f, CarrierEq):
        if not sig.has_sort(f.sort):
            raise SortError(f"unknown sort {f.sort}")
        for e in f.elems:
            got = term_sort(e, sig, ctx)
            if got != f.sort:
                raise SortError(f"enumeration element has sort {got}, expected {f.sort}")
        return
    if isinstance(f, Not):
        return check_formula(f.body, sig, ctx)
    if isinstance(f, (And, Or)):
        for p in f.parts:
            check_formula(p, sig, ctx)
        return
    if isinstance(f, (Implies, Iff)):
        check_formula(f.left, sig, ctx)
        check_formula(f.right, sig, ctx)
        return
    if isinstance(f, (Forall, Exists)):
        inner = dict(ctx)
        for n, s in f.vars:
            if not sig.has_sort(s):
                raise SortError(f"unknown sort {s} for bound variable {n}")
            inner[n] = s
        return check_formula(f.body, sig, inner)
    raise SortError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# finite algebras


@dataclass(frozen=True)
class FiniteAlgebra:
    """Carriers for every sort plus tables for the user symbols.

    Builtin arithmetic/comparisons are computed, with results escaping the
    Int carrier undefined.
    """

    carriers: tuple[tuple[str, tuple[Value, ...]], ...]
    ops: tuple[tuple[str, tuple[tuple[tuple[Value, ...], Value], ...]], ...] = ()
    preds: tuple[tuple[str, tuple[tuple[Value, ...], ...]], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.carriers, self.ops, self.preds)))

    def __hash__(self):
        return self._hash

    @cached_property
    def carrier_map(self) -> dict[str, tuple[Value, ...]]:
        return dict(self.carriers)

    @cached_property
    def op_tables(self) -> dict[str, dict[tuple[Value, ...], Value]]:
        return {name: dict(rows) for name, rows in self.ops}

    @cached_property
    def pred_tables(self) -> dict[str, frozenset[tuple[Value, ...]]]:
        return {name: frozenset(rows) for name, rows in self.preds}

    def carrier(self, sort: str) -> tuple[Value, ...]:
        m = self.carrier_map
        if sort not in m:
            raise SortError(f"no carrier for sort {sort}")
        return m[sort]

    @cached_property
    def int_bound(self) -> int:
        return max(self.carrier(INT))

    def constant(self, name: str) -> Value:
        return self.op_tables[name][()]

    def describe(self) -> str:
        """Canonical short label listing the user interpretations."""
        bits = []
        for name, rows in self.ops:
            table = dict(rows)
            if list(table) == [()]:
                bits.append(f"{name}={table[()]}")
            else:
                cells = ",".join(
                    f"{name}({','.join(map(str, k))})={v}" for k, v in sorted(
                        table.items(), key=lambda kv: tuple(map(value_key, kv[0])))
                )
                bits.append(cells)
        for name, rows in self.preds:
            cells = "{" + ",".join(
                "(" + ",".join(map(str, r)) + ")" for r in sorted(
                    rows, key=lambda r: tuple(map(value_key, r)))
            ) + "}"
            bits.append(f"{name}={cells}")
        return ", ".join(bits) if bits else "(no free symbols)"


def make_algebra(
    sig: FopeqSignature,
    int_bound: int,
    user_carriers: Mapping[str, Sequence[Value]],
    op_tables: Mapping[str, Mapping[tuple[Value, ...], Value]],
    pred_tables: Mapping[str, Iterable[tuple[Value, ...]]] = (),
) -> FiniteAlgebra:
    carriers = [(INT, tuple(range(-int_bound, int_bound + 1))), (BOOL, (False, True))]
    for s in sig.sorts:
        if s not in user_carriers:
            raise SortError(f"no carrier supplied for sort {s}")
        carriers.append((s, tuple(user_carriers[s])))
    ops = []
    for o in sig.ops:
        if o.name not in op_tables:
            raise SortError(f"no interpretation for operation {o.name}")
        rows = tuple(sorted(op_tables[o.name].items(),
                            key=lambda kv: tuple(map(value_key, kv[0]))))
        ops.append((o.name, rows))
    pred_tables = dict(pred_tables) if not isinstance(pred_tables, Mapping) else pred_tables
    preds = []
    for p in sig.preds:
        rows = tuple(sorted(pred_tables.get(p.name, ()),
                            key=lambda r: tuple(map(value_key, r))))
        preds.append((p.name, rows))
    return FiniteAlgebra(tuple(sorted(carriers)), tuple(ops), tuple(preds))


# ---------------------------------------------------------------------------
# evaluation (formulas compile to closures over one algebra)


def compile_term(t: Term, a: FiniteAlgebra):
    if isinstance(t, Var):
        key = t.key

        def run_var(val):
            try:
                return val[key]
            except KeyError:
                raise SortError(
                    f"unbound variable {t.name}{'′' if t.primed else ''}") from None

        return run_var
    if isinstance(t, IntLit):
        v = t.value if abs(t.value) <= a.int_bound else UNDEF
        return lambda val: v
    if isinstance(t, BoolLit):
        v = t.value
        return lambda val: v
    if isinstance(t, OpApp):
        subs = [compile_term(x, a) for x in t.args]
        if t.op in BUILTIN_OPS:
            bound = a.int_bound
            lf, rf = subs
            op = t.op

            def run(val):
                x = lf(val)
                if x is UNDEF:
                    return UNDEF
                y = rf(val)
                if y is UNDEF:
                    return UNDEF
                r = x + y if op == "+" else x - y if op == "-" else x * y
                return r if -bound <= r <= bound else UNDEF

            return run
        table = a.op_tables.get(t.op)
        if table is None:
            raise SortError(f"operation {t.op} not interpreted")

        def run_user(val):
            args = []
            for s in subs:
                v = s(val)
                if v is UNDEF:
                    return UNDEF
                args.append(v)
            return table.get(tuple(args), UNDEF)

        return run_user
    raise SortError(f"not a term: {t!r}")


def compile_formula(f: Formula, a: FiniteAlgebra):
    if isinstance(f, TrueF):
        return lambda val: True
    if isinstance(f, FalseF):
        return lambda val: False
    if isinstance(f, Equal):
        lf, rf = compile_term(f.left, a), compile_term(f.right, a)

        def run_eq(val):
            x = lf(val)
            if x is UNDEF:
                return False
            y = rf(val)
            return y is not UNDEF and x == y

        return run_eq
    if isinstance(f, PredApp):
        subs = [compile_term(t, a) for t in f.args]
        if f.pred in BUILTIN_PREDS:
            lf, rf = subs
            name = f.pred

            def run_cmp(val):
                x = lf(val)
                if x is UNDEF:
                    return False
                y = rf(val)
                if y is UNDEF:
                    return False
                if name == "<":
                    return x < y
                if name == "<=":
                    return x <= y
                if name == ">":
                    return x > y
                return x >= y

            return run_cmp
        rel = a.pred_tables.get(f.pred)
        if rel is None:
            raise SortError(f"predicate {f.pred} not interpreted")

        def run_pred(val):
            args = []
            for s in subs:
                v = s(val)
                if v is UNDEF:
                    return False
                args.append(v)
            return tuple(args) in rel

        return run_pred
    if isinstance(f, InSet):
        itemf = compile_term(f.item, a)
        elemfs = [compile_term(e, a) for e in f.elems]

        def run_in(val):
            x = itemf(val)
            if x is UNDEF:
                return False
            found = False
            for ef in elemfs:
                v = ef(val)
                if v is UNDEF:
                    return False
                if v == x:
                    found = True
            return found

        return run_in
    if isinstance(f, CarrierEq):
        elemfs = [compile_term(e, a) for e in f.elems]
        carrier = set(a.carrier(f.sort))

        def run_ce(val):
            vals = set()
            for ef in elemfs:
                v = ef(val)
                if v is UNDEF:
                    return False
                vals.add(v)
            return vals == carrier

        return run_ce
    if isinstance(f, Not):
        sub = compile_formula(f.body, a)
        return lambda val: not sub(val)
    if isinstance(f, And):
        subs = [compile_formula(p, a) for p in f.parts]
        return lambda val: all(s(val) for s in subs)
    if isinstance(f, Or):
        subs = [compile_formula(p, a) for p in f.parts]
        return lambda val: any(s(val) for s in subs)
    if isinstance(f, Implies):
        lf, rf = compile_formula(f.left, a), compile_formula(f.right, a)
        return lambda val: (not lf(val)) or rf(val)
    if isinstance(f, Iff):
        lf, rf = compile_formula(f.left, a), compile_formula(f.right, a)
        return lambda val: lf(val) == rf(val)
    if isinstance(f, (Forall, Exists)):
        keys = [(n, False) for n, _ in f.vars]
        domains = [a.carrier(s) for _, s in f.vars]
        body = compile_formula(f.body, a)
        want_all = isinstance(f, Forall)

        def run_q(val):
            base = dict(val)
            for combo in itertools.product(*domains):
                base.update(zip(keys, combo))
                r = body(base)
                if want_all and not r:
                    return False
                if not want_all and r:
                    return True
            return want_all

        return run_q
    raise SortError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# morphisms


@dataclass(frozen=True)
class FopeqMorphism:
    """Total, profile-preserving renaming of user symbols; builtins are fixed.

    The *_dict views are built once, by the validation that needs them.
    """

    source: FopeqSignature
    target: FopeqSignature
    sort_map: tuple[tuple[str, str], ...]
    op_map: tuple[tuple[str, str], ...]
    pred_map: tuple[tuple[str, str], ...]
    sort_dict: dict[str, str] = field(init=False, repr=False, compare=False)
    op_dict: dict[str, str] = field(init=False, repr=False, compare=False)
    pred_dict: dict[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "sort_map", tuple(sorted(self.sort_map)))
        object.__setattr__(self, "op_map", tuple(sorted(self.op_map)))
        object.__setattr__(self, "pred_map", tuple(sorted(self.pred_map)))
        object.__setattr__(self, "sort_dict", dict(self.sort_map))
        object.__setattr__(self, "op_dict", dict(self.op_map))
        object.__setattr__(self, "pred_dict", dict(self.pred_map))
        smap, omap, pmap = self.sort_dict, self.op_dict, self.pred_dict
        for s in self.source.sorts:
            if s not in smap:
                raise SortError(f"sort map not total: {s} unmapped")
            if not self.target.has_sort(smap[s]):
                raise SortError(f"sort {s} maps outside the target signature")
        for o in self.source.ops:
            if o.name not in omap:
                raise SortError(f"operation map not total: {o.name} unmapped")
            args, result = self.target.op_profile(omap[o.name])
            want = tuple(self.apply_sort(s) for s in o.args)
            if args != want or result != self.apply_sort(o.result):
                raise SortError(f"operation map does not preserve the profile of {o.name}")
        for p in self.source.preds:
            if p.name not in pmap:
                raise SortError(f"predicate map not total: {p.name} unmapped")
            args = self.target.pred_profile(pmap[p.name])
            want = tuple(self.apply_sort(s) for s in p.args)
            if args != want:
                raise SortError(f"predicate map does not preserve the profile of {p.name}")
        object.__setattr__(self, "_hash", hash(
            (self.source, self.target, self.sort_map, self.op_map, self.pred_map)))

    def __hash__(self):
        return self._hash

    def apply_sort(self, s: str) -> str:
        if s in BUILTIN_SORTS:
            return s
        m = self.sort_dict
        if s not in m:
            raise SortError(f"sort {s} outside the morphism domain")
        return m[s]

    def apply_op(self, name: str) -> str:
        if name in BUILTIN_OPS:
            return name
        m = self.op_dict
        if name not in m:
            raise SortError(f"operation {name} outside the morphism domain")
        return m[name]

    def apply_pred(self, name: str) -> str:
        if name in BUILTIN_PREDS:
            return name
        m = self.pred_dict
        if name not in m:
            raise SortError(f"predicate {name} outside the morphism domain")
        return m[name]


def fopeq_morphism(
    source: FopeqSignature,
    target: FopeqSignature,
    sorts: Mapping[str, str] = {},
    ops: Mapping[str, str] = {},
) -> FopeqMorphism:
    """The morphism sending each listed sort and operation to its image and
    every other user symbol, predicates included, to its own name."""
    stray = (set(sorts) - set(source.sorts)) | (set(ops) - set(source.op_map))
    if stray:
        raise SortError(f"morphism maps symbols outside its source: {sorted(stray)}")
    return FopeqMorphism(
        source, target,
        tuple((s, sorts.get(s, s)) for s in source.sorts),
        tuple((o.name, ops.get(o.name, o.name)) for o in source.ops),
        tuple((p.name, p.name) for p in source.preds),
    )


def fopeq_identity(sig: FopeqSignature) -> FopeqMorphism:
    return fopeq_morphism(sig, sig)


def fopeq_compose(m2: FopeqMorphism, m1: FopeqMorphism) -> FopeqMorphism:
    """Composition m2 ∘ m1 (apply m1 first)."""
    if m1.target != m2.source:
        raise SortError("morphisms not composable")
    return FopeqMorphism(
        m1.source, m2.target,
        tuple((s, m2.apply_sort(t)) for s, t in m1.sort_map),
        tuple((o, m2.apply_op(t)) for o, t in m1.op_map),
        tuple((p, m2.apply_pred(t)) for p, t in m1.pred_map),
    )


def translate_formula(m: FopeqMorphism, f: Formula) -> Formula:
    """Systematic renaming; variables keep their names, sorts follow the map."""
    return substitute(f, {}, m)


# ---------------------------------------------------------------------------
# pushouts


def pushout_names(
    shared: Sequence[str],
    left: Sequence[str],
    right: Sequence[str],
    f1: Mapping[str, str],
    f2: Mapping[str, str],
) -> tuple[dict[str, str], dict[str, str]]:
    """Pushout of name sets: disjoint union of left/right modulo the least
    equivalence identifying images of shared names.

    Canonical class names prefer the left name, then the right, with "#k"
    suffixes on clashes between distinct classes.  Returns the two injection
    name maps.
    """
    parent: dict[tuple[str, str], tuple[str, str]] = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    elems = [("L", n) for n in left] + [("R", n) for n in right]
    for e in elems:
        parent[e] = e
    for s in shared:
        union(("L", f1[s]), ("R", f2[s]))

    classes: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for e in elems:
        classes.setdefault(find(e), []).append(e)

    def preferred(members):
        lnames = sorted(n for side, n in members if side == "L")
        if lnames:
            return lnames[0], 0
        return sorted(n for _, n in members)[0], 1

    ordered = sorted(
        classes.values(),
        key=lambda ms: (preferred(ms)[0], preferred(ms)[1], sorted(n for _, n in ms)),
    )
    taken: set[str] = set()
    final: dict[tuple[str, str], str] = {}
    for members in ordered:
        base, _ = preferred(members)
        name, k = base, 0
        while name in taken:
            k += 1
            name = f"{base}#{k}"
        taken.add(name)
        for m in members:
            final[m] = name
    inj1 = {n: final[("L", n)] for n in left}
    inj2 = {n: final[("R", n)] for n in right}
    return inj1, inj2


def fopeq_pushout(
    m1: FopeqMorphism, m2: FopeqMorphism
) -> tuple[FopeqSignature, FopeqMorphism, FopeqMorphism]:
    """Pushout of a span m1: Σ→Σ1, m2: Σ→Σ2; returns (Σ', inj1, inj2)."""
    if m1.source != m2.source:
        raise SortError("pushout requires a common source signature")
    src, s1, s2 = m1.source, m1.target, m2.target

    sort1, sort2 = pushout_names(
        src.sorts, s1.sorts, s2.sorts, m1.sort_dict, m2.sort_dict)
    op1, op2 = pushout_names(
        [o.name for o in src.ops], [o.name for o in s1.ops], [o.name for o in s2.ops],
        m1.op_dict, m2.op_dict)
    pred1, pred2 = pushout_names(
        [p.name for p in src.preds], [p.name for p in s1.preds], [p.name for p in s2.preds],
        m1.pred_dict, m2.pred_dict)

    def out_sort(side_map, s):
        return s if s in BUILTIN_SORTS else side_map[s]

    ops: dict[str, Op] = {}
    for o in s1.ops:
        ops[op1[o.name]] = Op(op1[o.name],
                              tuple(out_sort(sort1, s) for s in o.args),
                              out_sort(sort1, o.result))
    for o in s2.ops:
        prof = Op(op2[o.name],
                  tuple(out_sort(sort2, s) for s in o.args),
                  out_sort(sort2, o.result))
        if op2[o.name] in ops and ops[op2[o.name]] != prof:
            raise SortError(f"pushout merges operation {o.name} with conflicting profiles")
        ops[op2[o.name]] = prof
    preds: dict[str, Pred] = {}
    for p in s1.preds:
        preds[pred1[p.name]] = Pred(pred1[p.name], tuple(out_sort(sort1, s) for s in p.args))
    for p in s2.preds:
        prof = Pred(pred2[p.name], tuple(out_sort(sort2, s) for s in p.args))
        if pred2[p.name] in preds and preds[pred2[p.name]] != prof:
            raise SortError(f"pushout merges predicate {p.name} with conflicting profiles")
        preds[pred2[p.name]] = prof

    merged = FopeqSignature(
        sorts=tuple(set(sort1.values()) | set(sort2.values())),
        ops=tuple(ops.values()),
        preds=tuple(preds.values()),
    )
    inj1 = FopeqMorphism(s1, merged, tuple(sort1.items()), tuple(op1.items()),
                         tuple(pred1.items()))
    inj2 = FopeqMorphism(s2, merged, tuple(sort2.items()), tuple(op2.items()),
                         tuple(pred2.items()))
    return merged, inj1, inj2


def algebra_reduct(a: FiniteAlgebra, m: FopeqMorphism) -> FiniteAlgebra:
    """View an algebra over the morphism's target as one over its source."""
    user_carriers = {s: a.carrier(m.apply_sort(s)) for s in m.source.sorts}
    tables = a.op_tables
    op_tables = {o.name: tables[m.apply_op(o.name)] for o in m.source.ops}
    prels = a.pred_tables
    pred_tables = {p.name: prels[m.apply_pred(p.name)] for p in m.source.preds}
    return make_algebra(m.source, a.int_bound, user_carriers, op_tables, pred_tables)


# ---------------------------------------------------------------------------
# bounded enumeration


@dataclass(frozen=True)
class Bounds:
    """Finite-domain configuration for model enumeration."""

    int_bound: int = 3
    carrier_sizes: tuple[tuple[str, int], ...] = ()
    pins: tuple[tuple[str, Value], ...] = ()
    pair_ceiling: int = 2 ** 20
    default_carrier: int = 2

    def __post_init__(self):
        if self.int_bound < 1:
            raise SortError("integer bound must be at least 1")
        if self.pair_ceiling < 1:
            raise SortError("pair ceiling must be at least 1")
        object.__setattr__(self, "carrier_sizes", tuple(sorted(self.carrier_sizes)))
        object.__setattr__(self, "pins", tuple(sorted(self.pins, key=lambda kv: kv[0])))

    def carrier_for(self, sort: str) -> tuple[Value, ...]:
        if sort == INT:
            return tuple(range(-self.int_bound, self.int_bound + 1))
        if sort == BOOL:
            return (False, True)
        size = dict(self.carrier_sizes).get(sort, self.default_carrier)
        if size < 1:
            raise EnumerationLimit(f"sort {sort} has no finite carrier configured")
        return tuple(f"{sort}{i}" for i in range(size))


def enumerate_algebras(
    sig: FopeqSignature,
    bounds: Bounds,
    fixed: Optional[Mapping[str, Value]] = None,
    axioms: Sequence[Formula] = (),
) -> list[FiniteAlgebra]:
    """All algebras with standard builtins and free user symbols ranging over
    every total table, filtered by the closed axioms.  Deterministic order."""
    fixed = dict(fixed or {})
    fixed.update(dict(bounds.pins))
    user_carriers = {s: bounds.carrier_for(s) for s in sig.sorts}

    def space(sorts):
        cells = [
            user_carriers[s] if s in user_carriers else bounds.carrier_for(s)
            for s in sorts
        ]
        return list(itertools.product(*cells))

    op_choices: list[tuple[str, list]] = []
    total = 1
    for o in sig.ops:
        dom = space(o.args)
        rng = user_carriers.get(o.result, bounds.carrier_for(o.result))
        if o.name in fixed:
            if o.args:
                raise SortError(f"cannot pin non-constant operation {o.name}")
            v = fixed[o.name]
            if v not in rng:
                raise SortError(f"pinned value {v!r} for {o.name} outside its carrier")
            tables = [{(): v}]
        else:
            count = len(rng) ** len(dom)
            total *= count
            if total > bounds.pair_ceiling:
                raise EnumerationLimit(
                    f"free symbol space exceeds ceiling {bounds.pair_ceiling} "
                    f"(at operation {o.name})"
                )
            tables = [dict(zip(dom, values))
                      for values in itertools.product(rng, repeat=len(dom))]
        op_choices.append((o.name, tables))
    pred_choices: list[tuple[str, list]] = []
    for p in sig.preds:
        dom = space(p.args)
        count = 2 ** len(dom)
        total *= count
        if total > bounds.pair_ceiling:
            raise EnumerationLimit(
                f"free symbol space exceeds ceiling {bounds.pair_ceiling} "
                f"(at predicate {p.name})"
            )
        rels = []
        for mask in range(count):
            rels.append(tuple(dom[i] for i in range(len(dom)) if mask >> i & 1))
        pred_choices.append((p.name, rels))

    out = []
    op_names = [n for n, _ in op_choices]
    pred_names = [n for n, _ in pred_choices]
    for op_pick in itertools.product(*(t for _, t in op_choices)):
        for pred_pick in itertools.product(*(r for _, r in pred_choices)):
            a = make_algebra(
                sig, bounds.int_bound, user_carriers,
                dict(zip(op_names, op_pick)),
                dict(zip(pred_names, pred_pick)),
            )
            if all(compile_formula(f, a)({}) for f in axioms):
                out.append(a)
    out.sort(key=lambda a: a.describe())
    return out
