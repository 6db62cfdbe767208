"""First-order signatures, formulas and finite algebras over bounded domains.

Integers are bounded to the carrier -B..B; arithmetic escaping the carrier is
undefined, and an atom containing an undefined term evaluates to false.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields
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


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def frozen(cls=None, /, *, order=False, mutable=False):
    """Every record class: dataclasses records the fields, and one exec writes
    the methods of a dataclass with eq (and order).  A frozen record keeps its
    hash after the first hash(), so hashing a tree again, as a memo lookup
    does, visits its root alone; a mutable one is unhashable."""
    if cls is None:
        return lambda c: frozen(c, order=order, mutable=mutable)
    cls.__doc__ = cls.__doc__ or cls.__name__  # else dataclasses runs inspect.signature
    cls = dataclass(init=False, repr=False, eq=False)(cls)
    fs = fields(cls)
    env, params, body = {"_set": object.__setattr__, "MISSING": MISSING}, [], []
    for f in fs:
        n, factory = f.name, f.default_factory is not MISSING
        env[f"_d_{n}"], env[f"_f_{n}"] = f.default, f.default_factory
        if f.init:  # a factory's argument defaults to MISSING, its f.default
            params.append(n if f.default is f.default_factory else f"{n}=_d_{n}")
            value = f"_f_{n}() if {n} is MISSING else {n}" if factory else n
        elif f.default is f.default_factory:
            continue
        else:
            value = f"_f_{n}()" if factory else f"_d_{n}"
        body.append(f"_set(self, {n!r}, {value})")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    shown = ", ".join(f"{f.name}={{self.{f.name}!r}}" for f in fs if f.repr)
    src = [f"def __init__(self, {', '.join(params)}):", *(f" {b}" for b in body or ["pass"]),
           "def __repr__(self):", f" return self.__class__.__qualname__ + f'({shown})'"]
    ops = {"__eq__": "=="}
    if order:
        ops.update(__lt__="<", __le__="<=", __gt__=">", __ge__=">=")
    mine, theirs = (
        "(" + "".join(f"{w}.{f.name}," for f in fs if f.compare) + ")" for w in ("self", "other"))
    for name, op in ops.items():
        src += [f"def {name}(self, other):", " if other.__class__ is self.__class__:",
                f"  return {mine} {op} {theirs}", " return NotImplemented"]
    if not mutable:  # hashes the compared fields: no field sets hash=
        src += ["def __hash__(self):", " h = self._hash", " if h is None:",
                f"  h = hash({mine})", "  _set(self, '_hash', h)", " return h"]
    exec("\n".join(src), env, made := {})
    for name, fn in made.items():
        if name not in cls.__dict__:
            setattr(cls, name, fn)
    if mutable:
        cls.__hash__ = None
    else:
        cls._hash, cls.__setattr__, cls.__delattr__ = None, _frozen_setattr, _frozen_delattr
    return cls


def value_key(v: Value):
    """Total order over mixed carrier values, for canonical listings."""
    if isinstance(v, bool):
        return (0, int(v))
    if isinstance(v, int):
        return (1, v)
    return (2, v)


# ---------------------------------------------------------------------------
# signatures


@frozen(order=True)
class Op:
    name: str
    args: tuple[str, ...]
    result: str


@frozen(order=True)
class Pred:
    name: str
    args: tuple[str, ...]


@frozen
class FopeqSignature:
    """User-declared sorts, operations and predicates.

    Int/Bool with arithmetic and comparisons are built in to every signature
    and are not listed here.  known_sorts (the declared and builtin sorts),
    op_map and pred_map are built by the validation that needs them.
    """

    sorts: tuple[str, ...] = ()
    ops: tuple[Op, ...] = ()
    preds: tuple[Pred, ...] = ()
    known_sorts: frozenset[str] = field(init=False, repr=False, compare=False)
    op_map: dict[str, Op] = field(init=False, repr=False, compare=False)
    pred_map: dict[str, Pred] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sorts = tuple(sorted(set(self.sorts)))
        ops = tuple(sorted(set(self.ops)))
        preds = tuple(sorted(set(self.preds)))
        op_map = {o.name: o for o in ops}
        if len(op_map) != len(ops):
            raise SortError(f"duplicate operation names in signature: {[o.name for o in ops]}")
        pred_map = {p.name: p for p in preds}
        if len(pred_map) != len(preds):
            raise SortError(
                f"duplicate predicate names in signature: {[p.name for p in preds]}")
        known = BUILTIN_SORTS.union(sorts)
        for o in ops:
            for s in (*o.args, o.result):
                if s not in known:
                    raise SortError(f"operation {o.name} uses undeclared sort {s}")
        for p in preds:
            for s in p.args:
                if s not in known:
                    raise SortError(f"predicate {p.name} uses undeclared sort {s}")
        object.__setattr__(self, "sorts", sorts)
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "preds", preds)
        object.__setattr__(self, "known_sorts", known)
        object.__setattr__(self, "op_map", op_map)
        object.__setattr__(self, "pred_map", pred_map)

    def all_sorts(self) -> tuple[str, ...]:
        return tuple(sorted(self.known_sorts))

    @cached_property
    def identity(self) -> "FopeqMorphism":
        return fopeq_morphism(self, self)

    def has_sort(self, s: str) -> bool:
        return s in self.known_sorts

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

    def union(self, *others: "FopeqSignature") -> "FopeqSignature":
        """Merge by name; shared names must carry identical profiles.  A union
        to which the others add nothing (no sort named after a builtin one,
        and only symbols this signature holds) is this signature."""
        others = [o for o in others if o is not self and not (
            o.op_map.items() <= self.op_map.items()
            and o.pred_map.items() <= self.pred_map.items()
            and self.known_sorts.issuperset(o.sorts)
            and BUILTIN_SORTS.isdisjoint(o.sorts))]
        if not others:
            return self
        return signature_image((self,), *((o,) for o in others))


def signature_image(*parts: tuple) -> FopeqSignature:
    """The signature generated by the images of signatures along name maps.

    Each part is (signature, sort map, operation map, predicate map); maps
    may be left off, and names a map does not list map to themselves.
    Operations, and predicates, whose images meet must get one profile.  The
    image of one signature along no maps is that signature.
    """
    if len(parts) == 1 and not any(parts[0][1:]):
        return parts[0][0]
    sorts: set[str] = set()
    ops: dict[str, Op] = {}
    preds: dict[str, Pred] = {}
    for sig, *maps in parts:
        smap, omap, pmap = (*maps, {}, {}, {})[:3]
        sorts.update(smap.get(s, s) for s in sig.sorts)
        for o in sig.ops:
            if smap or omap:
                o = Op(omap.get(o.name, o.name), tuple(smap.get(s, s) for s in o.args),
                       smap.get(o.result, o.result))
            prior = ops.setdefault(o.name, o)
            if prior is not o and prior != o:
                raise SortError(f"operation {o.name} gets conflicting profiles")
        for p in sig.preds:
            if smap or pmap:
                p = Pred(pmap.get(p.name, p.name), tuple(smap.get(s, s) for s in p.args))
            prior = preds.setdefault(p.name, p)
            if prior is not p and prior != p:
                raise SortError(f"predicate {p.name} gets conflicting profiles")
    return FopeqSignature(tuple(sorts), tuple(ops.values()), tuple(preds.values()))


EMPTY_SIGNATURE = FopeqSignature()


# ---------------------------------------------------------------------------
# terms and formulas


@frozen
class Var:
    name: str
    primed: bool = False

    @property
    def key(self) -> tuple[str, bool]:
        return (self.name, self.primed)


@frozen
class IntLit:
    value: int


@frozen
class BoolLit:
    value: bool


@frozen
class OpApp:
    op: str
    args: tuple["Term", ...] = ()


Term = Union[Var, IntLit, BoolLit, OpApp]


@frozen
class TrueF:
    pass


@frozen
class FalseF:
    pass


TRUE = TrueF()
FALSE = FalseF()


@frozen
class Equal:
    left: Term
    right: Term


@frozen
class PredApp:
    pred: str
    args: tuple[Term, ...]


@frozen
class InSet:
    """Membership in an explicit finite set of terms."""

    item: Term
    elems: tuple[Term, ...]


@frozen
class CarrierEq:
    """The named sort's carrier is exactly the listed values (enumeration
    exhaustiveness)."""

    sort: str
    elems: tuple[Term, ...]


@frozen
class Not:
    body: "Formula"


@frozen
class And:
    parts: tuple["Formula", ...]


@frozen
class Or:
    parts: tuple["Formula", ...]


@frozen
class Implies:
    left: "Formula"
    right: "Formula"


@frozen
class Iff:
    left: "Formula"
    right: "Formula"


@frozen
class Forall:
    vars: tuple[tuple[str, str], ...]  # (name, sort)
    body: "Formula"


@frozen
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


def prime_free_vars(x: Union[Term, Formula], names: Iterable[str]) -> Union[Term, Formula]:
    """Prime every free occurrence of the listed (unprimed) variable names."""
    return substitute(x, {(n, False): Var(n, True) for n in names})


# ---------------------------------------------------------------------------
# finite algebras


@frozen
class FiniteAlgebra:
    """Carriers for every sort plus tables for the user symbols.

    Builtin arithmetic/comparisons are computed, with results escaping the
    Int carrier undefined.
    """

    carriers: tuple[tuple[str, tuple[Value, ...]], ...]
    ops: tuple[tuple[str, tuple[tuple[tuple[Value, ...], Value], ...]], ...] = ()
    preds: tuple[tuple[str, tuple[tuple[Value, ...], ...]], ...] = ()

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


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _unbound(key: tuple[str, bool]) -> SortError:
    return SortError(f"unbound variable {key[0]}{'′' if key[1] else ''}")


def _binary(left: Term, right: Term, a: FiniteAlgebra, apply, miss, bound=None):
    """The closure of apply on two operands, for builtin arithmetic (with a
    bound: a result outside -bound..bound is UNDEF), Equal and comparisons.
    The left operand is read first, and an UNDEF operand gives miss without
    reading on.  A variable leaf on the left, and a variable leaf or defined
    constant on the right, is read inline (a superoperator)."""
    if bound is not None:
        op = apply

        def apply(x, y):
            r = op(x, y)
            return r if -bound <= r <= bound else UNDEF

    lf, rf = compile_term(left, a), compile_term(right, a)
    lk = left.key if isinstance(left, Var) else None
    # a literal or a constant (a 0-ary user operation) reads no valuation
    c = UNDEF if isinstance(right, Var) or isinstance(right, OpApp) and right.args else rf({})
    if isinstance(right, Var):
        rk = right.key
        if lk:
            def run(val):
                try:
                    return apply(val[lk], val[rk])
                except KeyError as e:
                    raise _unbound(e.args[0]) from None
        else:
            def run(val):
                x = lf(val)
                try:
                    return miss if x is UNDEF else apply(x, val[rk])
                except KeyError:
                    raise _unbound(rk) from None
    elif c is not UNDEF:
        if lk:
            def run(val):
                try:
                    return apply(val[lk], c)
                except KeyError:
                    raise _unbound(lk) from None
        else:
            def run(val):
                x = lf(val)
                return miss if x is UNDEF else apply(x, c)
    else:
        def run(val):
            x = lf(val)
            if x is UNDEF:
                return miss
            y = rf(val)
            return miss if y is UNDEF else apply(x, y)
    return run


def compile_term(t: Term, a: FiniteAlgebra):
    if isinstance(t, Var):
        key = t.key

        def run_var(val):
            try:
                return val[key]
            except KeyError:
                raise _unbound(key) from None

        return run_var
    if isinstance(t, IntLit):
        v = t.value if abs(t.value) <= a.int_bound else UNDEF
        return lambda val: v
    if isinstance(t, BoolLit):
        v = t.value
        return lambda val: v
    if isinstance(t, OpApp):
        if t.op in BUILTIN_OPS:
            lt, rt = t.args
            return _binary(lt, rt, a, _ARITH[t.op], UNDEF, a.int_bound)
        subs = [compile_term(x, a) for x in t.args]
        table = a.op_tables.get(t.op)
        if table is None:
            raise SortError(f"operation {t.op} not interpreted")
        if not subs:
            v = table.get((), UNDEF)
            return lambda val: v

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
        return _binary(f.left, f.right, a, operator.eq, False)
    if isinstance(f, PredApp):
        if f.pred in BUILTIN_PREDS:
            lt, rt = f.args
            return _binary(lt, rt, a, _COMPARE[f.pred], False)
        subs = [compile_term(t, a) for t in f.args]
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

        def run_and(val):
            for s in subs:
                if not s(val):
                    return False
            return True

        return run_and
    if isinstance(f, Or):
        subs = [compile_formula(p, a) for p in f.parts]

        def run_or(val):
            for s in subs:
                if s(val):
                    return True
            return False

        return run_or
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


def in_source_order(pairs, names: tuple[str, ...]) -> tuple[tuple, dict]:
    """A name map as its sorted tuple of pairs and as a dict.  A map that
    lists each of names once, in order, as the builders emit a map over a
    source's names, is not sorted again."""
    if type(pairs) is not tuple:
        pairs = tuple(pairs)
    d = dict(pairs)
    if len(d) != len(pairs):  # a repeated name keeps its last pair in sorted order
        pairs = tuple(sorted(pairs))
        return pairs, dict(pairs)
    if tuple(d) != names:
        pairs = tuple(sorted(pairs))
    return pairs, d


# each builtin symbol, which every morphism fixes
_FIXED_SORTS = {s: s for s in BUILTIN_SORTS}
_FIXED_OPS = {o: o for o in BUILTIN_OPS}
_FIXED_PREDS = {p: p for p in BUILTIN_PREDS}


def sort_images(m: "FopeqMorphism") -> dict[str, str]:
    """apply_sort as a dict over m's source sorts and the builtin sorts."""
    return {**m.sort_dict, **_FIXED_SORTS}


@frozen
class FopeqMorphism:
    """Total, profile-preserving renaming of user symbols; builtins are fixed.

    The *_dict views are built once, by the validation that needs them, which
    makes one pass over the source symbols: each sort, then each operation
    and predicate against one dict of the sort images.
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
        src, tgt = self.source, self.target
        sort_map, smap = in_source_order(self.sort_map, src.sorts)
        op_map, omap = (in_source_order(self.op_map, tuple(src.op_map))
                        if self.op_map or src.ops else ((), {}))
        pred_map, pmap = (in_source_order(self.pred_map, tuple(src.pred_map))
                          if self.pred_map or src.preds else ((), {}))
        object.__setattr__(self, "sort_map", sort_map)
        object.__setattr__(self, "op_map", op_map)
        object.__setattr__(self, "pred_map", pred_map)
        object.__setattr__(self, "sort_dict", smap)
        object.__setattr__(self, "op_dict", omap)
        object.__setattr__(self, "pred_dict", pmap)
        known = tgt.known_sorts
        for s in src.sorts:
            if s not in smap:
                raise SortError(f"sort map not total: {s} unmapped")
            if smap[s] not in known:
                raise SortError(f"sort {s} maps outside the target signature")
        if not (src.ops or src.preds):
            return
        image = sort_images(self)
        for o in src.ops:
            if o.name not in omap:
                raise SortError(f"operation map not total: {o.name} unmapped")
            args, result = tgt.op_profile(omap[o.name])
            if args != tuple(map(image.__getitem__, o.args)) or result != image[o.result]:
                raise SortError(f"operation map does not preserve the profile of {o.name}")
        for p in src.preds:
            if p.name not in pmap:
                raise SortError(f"predicate map not total: {p.name} unmapped")
            if tgt.pred_profile(pmap[p.name]) != tuple(map(image.__getitem__, p.args)):
                raise SortError(f"predicate map does not preserve the profile of {p.name}")

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
    if sorts or ops:
        stray = (set(sorts) - set(source.sorts)) | (set(ops) - set(source.op_map))
        if stray:
            raise SortError(f"morphism maps symbols outside its source: {sorted(stray)}")
    snames, onames, pnames = source.sorts, tuple(source.op_map), tuple(source.pred_map)
    return FopeqMorphism(
        source, target,
        tuple(zip(snames, map(sorts.get, snames, snames))),
        tuple(zip(onames, map(ops.get, onames, onames))),
        tuple(zip(pnames, pnames)),
    )


def fopeq_identity(sig: FopeqSignature) -> FopeqMorphism:
    return sig.identity


def compose_maps(pairs, d: dict, apply) -> tuple:
    """The pairs (a, b) as (a, d[b]), or, when d misses some b, as
    (a, apply(b)), which raises the SortError for it."""
    try:
        return tuple([(a, d[b]) for a, b in pairs])
    except KeyError:
        return tuple([(a, apply(b)) for a, b in pairs])


def fopeq_compose(m2: FopeqMorphism, m1: FopeqMorphism) -> FopeqMorphism:
    """Composition m2 ∘ m1 (apply m1 first)."""
    if m1.target is not m2.source and m1.target != m2.source:
        raise SortError("morphisms not composable")
    sorts = compose_maps(m1.sort_map, sort_images(m2), m2.apply_sort) if m1.sort_map else ()
    ops = (compose_maps(m1.op_map, {**m2.op_dict, **_FIXED_OPS}, m2.apply_op)
           if m1.op_map else ())
    preds = (compose_maps(m1.pred_map, {**m2.pred_dict, **_FIXED_PREDS}, m2.apply_pred)
             if m1.pred_map else ())
    return FopeqMorphism(m1.source, m2.target, sorts, ops, preds)


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
    if not (left or right):
        return {}, {}
    left, right = tuple(dict.fromkeys(left)), tuple(dict.fromkeys(right))
    # one union-find over the indices of left + right (Tarjan 1975)
    nl = len(left)
    lpos = {n: i for i, n in enumerate(left)}
    rpos = {n: i for i, n in enumerate(right, nl)}
    parent = list(range(nl + len(right)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s in shared:
        a, b = find(lpos[f1[s]]), find(rpos[f2[s]])
        if a != b:
            parent[a] = b
    roots = [find(i) for i in range(len(parent))]
    # a class is named after its least left name, or else its least right
    # one; the left-named classes order first on equal names, and no two
    # classes share a (name, side) key
    key: dict[int, tuple[str, int]] = {}
    for side, names, start in ((0, left, 0), (1, right, nl)):
        for n, r in zip(names, roots[start:]):
            k = key.get(r)
            if k is None or (k[1] == side and n < k[0]):
                key[r] = (n, side)
    taken: set[str] = set()
    final: dict[int, str] = {}
    for r in sorted(key, key=key.__getitem__):
        base = name = key[r][0]
        k = 0
        while name in taken:
            k += 1
            name = f"{base}#{k}"
        taken.add(name)
        final[r] = name
    inj1 = {n: final[r] for n, r in zip(left, roots)}
    inj2 = {n: final[r] for n, r in zip(right, roots[nl:])}
    return inj1, inj2


def fopeq_pushout(
    m1: FopeqMorphism, m2: FopeqMorphism
) -> tuple[FopeqSignature, FopeqMorphism, FopeqMorphism]:
    """Pushout of a span m1: Σ→Σ1, m2: Σ→Σ2; returns (Σ', inj1, inj2)."""
    if m1.source is not m2.source and m1.source != m2.source:
        raise SortError("pushout requires a common source signature")
    src, s1, s2 = m1.source, m1.target, m2.target
    for m in (m1, m2):
        for s, t in m.sort_map:
            if t in BUILTIN_SORTS:
                raise SortError(
                    f"pushout of a leg sending sort {s} to the builtin sort {t} "
                    "is not supported")

    sort1, sort2 = pushout_names(
        src.sorts, s1.sorts, s2.sorts, m1.sort_dict, m2.sort_dict)
    op1, op2 = pushout_names(src.op_map, s1.op_map, s2.op_map, m1.op_dict, m2.op_dict)
    pred1, pred2 = pushout_names(
        src.pred_map, s1.pred_map, s2.pred_map, m1.pred_dict, m2.pred_dict)

    merged = signature_image((s1, sort1, op1, pred1), (s2, sort2, op2, pred2))
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


@frozen
class Bounds:
    """Finite-domain configuration for model enumeration."""

    int_bound: int = 3
    carrier_sizes: tuple[tuple[str, int], ...] = ()
    pins: tuple[tuple[str, Value], ...] = ()
    pair_ceiling: int = 2 ** 20

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
        size = dict(self.carrier_sizes).get(sort, 2)
        if size < 1:
            raise EnumerationLimit(f"sort {sort} has no finite carrier configured")
        return tuple(f"{sort}{i}" for i in range(size))


def enumerate_algebras(
    sig: FopeqSignature,
    bounds: Bounds,
    axioms: Sequence[Formula] = (),
) -> list[FiniteAlgebra]:
    """All algebras with standard builtins and free user symbols ranging over
    every total table, filtered by the closed axioms; constants in
    bounds.pins take their pinned value.  Deterministic order."""
    fixed = dict(bounds.pins)
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
