"""Event-system signatures, sentences, models and their structural maps.

A signature couples a first-order part with status-tagged event names and
sorted state variables.  Sentences pair an event name with an open formula
over the variables and their primed versions; models interpret each event as
a before/after relation on states, plus an initialising state set.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from collections import Counter
from dataclasses import field
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .errors import EnumerationLimit, ParseError, SortError, SpecError
from . import fopeq
from .fopeq import (
    And, Bounds, FiniteAlgebra, FopeqMorphism, FopeqSignature, Formula, Value,
    algebra_reduct, compile_formula, compose_maps, conjoin, fopeq_compose, fopeq_morphism,
    fopeq_pushout, free_vars, frozen, in_source_order, pushout_names, sort_images,
    substitute, value_key,
)

INIT = "Init"


class Status(enum.IntEnum):
    """Event status poset: ordinary < anticipated < convergent."""

    ordinary = 0
    anticipated = 1
    convergent = 2

    def __str__(self):
        return self.name


def status_sup(*statuses: Status) -> Status:
    return Status(max(int(s) for s in statuses))


def status_named(word) -> Status:
    """The status a word token spells, or a ParseError at the word."""
    if word.text in Status.__members__:
        return Status[word.text]
    raise ParseError(f"unknown status {word.text!r}", word.line, word.col)


# the endings of a primed name
_PRIMES = ("'", "′")


def _any_primed(names: Iterable[str]) -> bool:
    """Whether a name may end in a prime: one test over the joined names,
    true for every primed name (and for a name holding a prime and a
    newline inside, which the per-name check then clears)."""
    joined = "\n".join(names) + "\n"
    return "'\n" in joined or "′\n" in joined


# ---------------------------------------------------------------------------
# signatures


@frozen
class EvtSignature:
    """Five components: first-order part, status-tagged events, sorted vars.

    Every signature contains the initial event with ordinary status.  The
    validation checks the names and sorts as whole collections, and runs the
    per-name check, which raises the first failure, only when one fails.
    """

    fopeq: FopeqSignature = fopeq.EMPTY_SIGNATURE
    events: tuple[tuple[str, Status], ...] = ()
    vars: tuple[tuple[str, str], ...] = ()
    event_map: dict[str, Status] = field(init=False, repr=False, compare=False)
    var_map: dict[str, str] = field(init=False, repr=False, compare=False)
    event_names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    var_names: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ev = dict(self.events)
        if len(ev) != len(self.events):
            raise SortError("duplicate event names in signature")
        if ev.setdefault(INIT, Status.ordinary) != Status.ordinary:
            raise SortError("the initial event must have ordinary status")
        vs = dict(self.vars)
        if len(vs) != len(self.vars):
            raise SortError("duplicate variable names in signature")
        events, vars = tuple(sorted(ev.items())), tuple(sorted(vs.items()))
        event_map, var_map = dict(events), dict(vars)
        if (_any_primed(var_map) or not self.fopeq.known_sorts.issuperset(vs.values())
                or _any_primed(event_map)):
            self._refuse(events, vars)
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "event_map", event_map)
        object.__setattr__(self, "event_names", tuple(event_map))
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "var_map", var_map)
        object.__setattr__(self, "var_names", tuple(var_map))

    def _refuse(self, events, vars) -> None:
        """Raise the first failure of the names and sorts, in name order,
        variables first."""
        has_sort = self.fopeq.has_sort
        for name, sort in vars:
            if name.endswith(_PRIMES):
                raise SortError(f"variable name {name} looks primed")
            if not has_sort(sort):
                raise SortError(f"variable {name} has undeclared sort {sort}")
        for name, _ in events:
            if name.endswith(_PRIMES):
                raise SortError(f"event name {name} looks primed")

    @cached_property
    def non_init_events(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.events if n != INIT)

    def status(self, event: str) -> Status:
        m = self.event_map
        if event not in m:
            raise SortError(f"unknown event {event}")
        return m[event]


def merged_signature(
    fsig: FopeqSignature,
    events: Iterable[tuple[str, Status]],
    vars: Iterable[tuple[str, str]],
) -> EvtSignature:
    """The signature over fsig with the listed events and variables, which may
    repeat: the statuses of one event join by supremum, and a variable must
    keep one sort."""
    events, vars = tuple(events), tuple(vars)
    ev = dict(events)
    if len(set(events)) != len(ev):  # an event listed with two statuses
        ev = {}
        for name, st in events:
            if ev.setdefault(name, st) != st:
                ev[name] = status_sup(ev[name], st)
    vs = dict(vars)
    if len(set(vars)) != len(vs):  # a variable listed with two sorts
        seen: dict[str, str] = {}
        for name, sort in vars:
            if seen.setdefault(name, sort) != sort:
                raise SortError(f"variable {name} gets conflicting sorts")
    return EvtSignature(fsig, tuple(ev.items()), tuple(vs.items()))


def signature_extension(
    base: EvtSignature,
    fsig: FopeqSignature,
    events: Sequence[tuple[str, Status]],
    vars: Sequence[tuple[str, str]],
) -> EvtSignature:
    """merged_signature of fsig, a first-order part containing base's, with
    base's events and variables and the listed ones; base itself when fsig
    is base's part and base holds every listed event, at its status, and
    every listed variable, at its sort."""
    if (fsig is base.fopeq and base.event_map.items() >= set(events)
            and base.var_map.items() >= set(vars)):
        return base
    return merged_signature(fsig, base.events + tuple(events), base.vars + tuple(vars))


def signature_union(first: EvtSignature, *rest: EvtSignature) -> EvtSignature:
    """Name-based union: shared symbols need identical profiles, shared events
    join by status supremum.  A union to which the rest add nothing is first."""
    rest = [s for s in rest if s is not first]
    if not rest:
        return first
    return signature_extension(first, first.fopeq.union(*(s.fopeq for s in rest)),
                               [e for s in rest for e in s.events],
                               [v for s in rest for v in s.vars])


# ---------------------------------------------------------------------------
# morphisms


@frozen
class EvtMorphism:
    """The validation makes one pass over the source symbols, with a map a
    builder emits in source order not sorted again, and one image per
    distinct sort."""

    source: EvtSignature
    target: EvtSignature
    fopeq: FopeqMorphism
    event_map: tuple[tuple[str, str], ...]
    var_map: tuple[tuple[str, str], ...]
    check_status: bool = True
    event_dict: dict[str, str] = field(init=False, repr=False, compare=False)
    var_dict: dict[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        src, tgt, fm = self.source, self.target, self.fopeq
        event_map, em = in_source_order(self.event_map, src.event_names)
        var_map, vm = (in_source_order(self.var_map, src.var_names)
                       if self.var_map or src.vars else ((), {}))
        object.__setattr__(self, "event_map", event_map)
        object.__setattr__(self, "var_map", var_map)
        object.__setattr__(self, "event_dict", em)
        object.__setattr__(self, "var_dict", vm)
        if (fm.source is not src.fopeq and fm.source != src.fopeq
                or fm.target is not tgt.fopeq and fm.target != tgt.fopeq):
            raise SortError("first-order component does not match the endpoints")
        if em.get(INIT, INIT) != INIT:
            raise SortError("the initial event must map to the initial event")
        tgt_events, check = tgt.event_map, self.check_status
        for name, st in src.events:
            if name not in em:
                raise SortError(f"event map not total: {name} unmapped")
            out = em[name]
            to = tgt_events.get(out)
            if to is None:
                raise SortError(f"event {name} maps to unknown event {out}")
            if out == INIT and name != INIT:
                raise SortError("a non-initial event may not map to the initial event")
            if check and to < st:
                raise SortError(f"event map lowers the status of {name} ({st} to {to})")
        if not src.vars:
            return
        tgt_vars, image = tgt.var_map, sort_images(fm)
        for name, sort in src.vars:
            if name not in vm:
                raise SortError(f"variable map not total: {name} unmapped")
            out = vm[name]
            if out not in tgt_vars:
                raise SortError(f"variable {name} maps to unknown variable {out}")
            if tgt_vars[out] != image[sort]:
                raise SortError(f"variable map does not respect the sort of {name}")

    @cached_property
    def state_positions(self) -> tuple[tuple[str, int], ...]:
        """Each source variable with the index of its image in a target state."""
        index = {v: i for i, v in enumerate(self.target.var_names)}
        return tuple((v, index[t]) for v, t in self.var_map)

    @cached_property
    def preimages(self) -> dict[str, tuple[str, ...]]:
        """Each target event with the non-initial source events mapped to it."""
        out: dict[str, tuple[str, ...]] = {e: () for e in self.target.event_names}
        for e, t in self.event_map:
            if e != INIT:
                out[t] += (e,)
        return out

    @cached_property
    def var_terms(self) -> dict[tuple[str, bool], fopeq.Var]:
        """Each source variable, unprimed and primed, with its image as a term."""
        return {(v, p): fopeq.Var(t, p) for v, t in self.var_map for p in (False, True)}

    def apply_event(self, name: str) -> str:
        m = self.event_dict
        if name not in m:
            raise SortError(f"event {name} outside the morphism domain")
        return m[name]

    def apply_var(self, name: str) -> str:
        m = self.var_dict
        if name not in m:
            raise SortError(f"variable {name} outside the morphism domain")
        return m[name]


def evt_morphism(
    source: EvtSignature,
    target: EvtSignature,
    events: Mapping[str, str] = {},
    vars: Mapping[str, str] = {},
    sorts: Mapping[str, str] = {},
    ops: Mapping[str, str] = {},
    check_status: bool = True,
    first_order: Optional[FopeqMorphism] = None,
) -> EvtMorphism:
    """The morphism sending each listed symbol to its image and every other
    source symbol, predicates included, to its own name.  A caller that
    builds many morphisms between the same first-order parts may pass that
    part as first_order, in place of sorts and ops; between ends that share
    one, no sort or op mapped, it is that signature's shared identity."""
    if not (events.keys() <= source.event_map.keys() and vars.keys() <= source.var_map.keys()):
        stray = (set(events) - set(source.event_map)) | (set(vars) - set(source.var_map))
        raise SortError(f"morphism maps symbols outside its source: {sorted(stray)}")
    if first_order is None:
        first_order = (source.fopeq.identity if source.fopeq is target.fopeq
                       and not (sorts or ops) else
                       fopeq_morphism(source.fopeq, target.fopeq, sorts, ops))
    enames, vnames = source.event_names, source.var_names
    return EvtMorphism(
        source, target, first_order,
        tuple(zip(enames, map(events.get, enames, enames))),
        tuple(zip(vnames, map(vars.get, vnames, vnames))),
        check_status,
    )


def evt_identity(sig: EvtSignature) -> EvtMorphism:
    return evt_morphism(sig, sig)


def evt_compose(m2: EvtMorphism, m1: EvtMorphism) -> EvtMorphism:
    """Composition m2 ∘ m1 (apply m1 first)."""
    if m1.target is not m2.source and m1.target != m2.source:
        raise SortError("morphisms not composable")
    return EvtMorphism(
        m1.source, m2.target, fopeq_compose(m2.fopeq, m1.fopeq),
        compose_maps(m1.event_map, m2.event_dict, m2.apply_event),
        compose_maps(m1.var_map, m2.var_dict, m2.apply_var) if m1.var_map else (),
        check_status=m1.check_status and m2.check_status,
    )


# ---------------------------------------------------------------------------
# sentences


@frozen
class EvtSentence:
    event: str
    body: Formula


def translate_sentence(m: EvtMorphism, s: EvtSentence) -> EvtSentence:
    return EvtSentence(m.apply_event(s.event), substitute(s.body, m.var_terms, m.fopeq))


# ---------------------------------------------------------------------------
# states and models

State = tuple[tuple[str, Value], ...]  # sorted by variable name


def reduce_state(s: State, m: EvtMorphism) -> State:
    """View a state over the morphism's target as one over its source."""
    if tuple([n for n, _ in s]) != m.target.var_names:
        raise SortError(f"state {s} is not over the variables of the morphism's target")
    return tuple([(v, s[i][1]) for v, i in m.state_positions])


class StateCoding:
    """The states over some variables, each a value of its carrier, coded
    as one int in mixed radix.

    A variable's digit is the rank of its value in its sorted carrier
    (value_key order), and the first variable is the most significant, so
    ascending codes are the sorted order of the states as tuples.  A pair of
    states (i, j) is coded as i·size + j, which keeps that order too.
    """

    __slots__ = ("names", "values", "ranks", "weights", "size", "_places", "_reducts")

    def __init__(self, names: Sequence[str], carriers: Sequence[Iterable[Value]]):
        self.names = tuple(names)
        self.values = tuple(tuple(sorted(set(c), key=value_key)) for c in carriers)
        self.ranks = tuple({v: r for r, v in enumerate(vs)} for vs in self.values)
        weights, size = [], 1
        for vs in reversed(self.values):
            weights.append(size)
            size *= len(vs)
        self.weights = tuple(reversed(weights))
        self.size = size
        self._places = tuple(zip(self.names, self.values, self.weights))
        self._reducts: dict[tuple[tuple[str, int], ...], Projection] = {}

    def encode(self, s: State) -> int:
        """The code of s; SortError when s is not over these variables or a
        value lies outside its carrier."""
        if tuple([n for n, _ in s]) != self.names:
            raise SortError(f"state {s} is not over the variables {self.names}")
        try:
            return sum([rank[v] * w for (_, v), rank, w in zip(s, self.ranks, self.weights)])
        except KeyError:
            n, v = next((n, v) for (n, v), rank in zip(s, self.ranks) if v not in rank)
            raise SortError(f"state {s}: value {v!r} of {n} lies outside its carrier") from None

    def encode_pair(self, s: State, t: State) -> int:
        return self.encode(s) * self.size + self.encode(t)

    def decode(self, code: int) -> State:
        return tuple([(n, vs[code // w % len(vs)]) for n, vs, w in self._places])

    def decode_pair(self, code: int) -> tuple[State, State]:
        i, j = divmod(code, self.size)
        return self.decode(i), self.decode(j)

    def reduct(self, m: EvtMorphism) -> Projection:
        """The Projection of these codes along m, built on first use and
        shared by every morphism with m's variable map."""
        red = self._reducts.get(m.state_positions)
        if red is None:
            red = self._reducts[m.state_positions] = Projection(m.state_positions, self)
        return red


@functools.lru_cache(maxsize=128)
def _coding(names: tuple[str, ...], carriers: tuple[tuple[Value, ...], ...]) -> StateCoding:
    return StateCoding(names, carriers)


def state_coding(sig: EvtSignature, algebra: FiniteAlgebra) -> StateCoding:
    """The coding of the states over sig's variables in algebra."""
    return _coding(sig.var_names, tuple([algebra.carrier(s) for _, s in sig.vars]))


class _Memo(dict):
    """The values of a function of one argument, each computed on its first
    lookup: memo[x] is fn(x)."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class Projection:
    """reduce_state along a morphism, on the codes of its target's states in
    one algebra: a source variable's digit is the digit at its image's place
    (positions, the morphism's state_positions, which also name the source
    variables), and the source coding keeps the same sorted carriers, which
    the reduct algebra has.  state reduces a state code, computing each
    distinct code's reduct once; pair reduces a pair code as the pair of its
    states' reducts.  Built only by StateCoding.reduct."""

    __slots__ = ("source", "state", "pair")

    def __init__(self, positions: tuple[tuple[str, int], ...], coding: StateCoding):
        places = [i for _, i in positions]
        self.source = source = _coding(tuple([v for v, _ in positions]),
                                       tuple([coding.values[i] for i in places]))
        digits = [(coding.weights[i], len(coding.values[i]), w)
                  for i, w in zip(places, source.weights)]
        state = _Memo(lambda code: sum([code // w % k * sw for w, k, sw in digits])).__getitem__
        n, ns = coding.size, source.size

        def pair(code: int) -> int:
            return state(code // n) * ns + state(code % n)

        self.state, self.pair = state, pair


class _Joined:
    """A relation as maximal_model's join left it for an event without
    checks: blocks of a before-state's pair-code base and its bucket of
    after-codes.  len() reads the count; the frozenset of pair codes is
    built once, on first read, and it is what the relation iterates, equals
    and hashes as."""

    __slots__ = ("_count", "_blocks", "_codes")

    def __init__(self, blocks: list[tuple[int, list[int]]]):
        self._count = sum([len(b) for _, b in blocks])
        self._blocks, self._codes = blocks, None

    @property
    def codes(self) -> frozenset[int]:
        if self._codes is None:
            self._codes = frozenset([base + j for base, b in self._blocks for j in b])
            self._blocks = None
        return self._codes

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[int]:
        return iter(self.codes)

    def __eq__(self, other) -> bool:
        return self.codes == other

    def __hash__(self) -> int:
        return hash(self.codes)


Relation = frozenset[int] | _Joined


@frozen
class EvtModel:
    """A first-order algebra, a non-empty initialising state set, and a
    before/after relation for every non-initial event.

    States are held as codes of state_coding(signature, algebra) and pairs
    as pair codes; init and rel are their views as tuple states, decoded on
    first use.  A relation in rel_codes is a frozenset of pair codes or a
    join's count whose codes are built on first read: len() reads the count,
    and code_map holds every relation's frozenset."""

    signature: EvtSignature
    algebra: FiniteAlgebra
    init_codes: frozenset[int]
    rel_codes: tuple[tuple[str, Relation], ...]

    def __post_init__(self):
        object.__setattr__(self, "init_codes", frozenset(self.init_codes))
        object.__setattr__(self, "rel_codes", tuple(sorted(
            (e, pairs if pairs.__class__ is _Joined else frozenset(pairs))
            for e, pairs in self.rel_codes)))
        if not self.init_codes:
            raise SortError("the initialising set must be non-empty")
        if set(dict(self.rel_codes)) != set(self.signature.non_init_events):
            raise SortError("relation domain must be the non-initial events")
        if not self.signature.vars and self.init_codes != frozenset({0}):
            raise SortError("with no variables the initialising set is the empty map")

    @cached_property
    def coding(self) -> StateCoding:
        return state_coding(self.signature, self.algebra)

    @cached_property
    def code_map(self) -> dict[str, frozenset[int]]:
        return {e: pairs.codes if pairs.__class__ is _Joined else pairs
                for e, pairs in self.rel_codes}

    @cached_property
    def init(self) -> frozenset[State]:
        return frozenset(map(self.coding.decode, self.init_codes))

    @cached_property
    def rel(self) -> tuple[tuple[str, frozenset[tuple[State, State]]], ...]:
        # each distinct state decoded once
        decode, n = functools.cache(self.coding.decode), self.coding.size
        return tuple((e, frozenset([(decode(p // n), decode(p % n)) for p in pairs]))
                     for e, pairs in self.rel_codes)


def make_model(
    sig: EvtSignature,
    algebra: FiniteAlgebra,
    init: Iterable[State],
    rel: Mapping[str, Iterable[tuple[State, State]]],
) -> EvtModel:
    """The model with these tuple states; SortError when a state is not over
    sig's variables or holds a value outside its carrier."""
    coding = state_coding(sig, algebra)
    full = {e: frozenset([coding.encode_pair(s, t) for s, t in rel.get(e, ())])
            for e in sig.non_init_events}
    return EvtModel(sig, algebra, frozenset(map(coding.encode, init)), tuple(full.items()))


def _primed_or_closed(fv: frozenset[tuple[str, bool]]) -> bool:
    return all(primed for _, primed in fv)


def init_conjuncts(body: Formula) -> list[Formula]:
    """The conjuncts of an initial-event sentence that are evaluated.

    Initialising states bind only after-values, so a conjunct counts when
    all its free variables are primed; closed conjuncts count as well.
    """
    return [c for c in _flatten_conjuncts(body) if _primed_or_closed(free_vars(c))]


def satisfies(m: EvtModel, s: EvtSentence) -> bool:
    """All pairs of the event's relation (all initialising states for the
    initial event) make the body true; each state's valuation is decoded
    from its code once per call."""
    if s.event not in m.signature.event_map:
        raise SortError(f"sentence names unknown event {s.event}")
    decode = m.coding.decode
    if s.event == INIT:
        fn = compile_formula(conjoin(init_conjuncts(s.body)), m.algebra)
        return all(fn({(name, True): v for name, v in decode(c)}) for c in m.init_codes)
    fn = compile_formula(s.body, m.algebra)
    pairs, n = m.code_map[s.event], m.coding.size
    before = {i: {(name, False): v for name, v in decode(i)} for i in {p // n for p in pairs}}
    after = {j: {(name, True): v for name, v in decode(j)} for j in {p % n for p in pairs}}
    return all(fn({**before[p // n], **after[p % n]}) for p in pairs)


def restrict_along(
    coding: StateCoding,
    init: Iterable[int],
    rel_map: Mapping[str, Relation],
    bounds: Sequence[tuple[EvtMorphism, EvtModel]],
) -> tuple[frozenset[int], dict[str, Relation]]:
    """The state codes and pair codes, under coding, whose reducts along
    every listed morphism lie in its bound, a model over the morphism's
    source.

    A pair of event e is bounded by the relations of e's preimages; each
    bound filters what the ones before it kept.  Bounds whose morphisms map
    the variables alike share the coding's one Projection for that map, so
    each distinct code is reduced once for all of them.
    """
    views = [(coding.reduct(m), b, m.preimages) for m, b in bounds]
    kept = init
    for red, b, _ in views:
        state, allowed = red.state, b.init_codes
        kept = [c for c in kept if state(c) in allowed]
    out_init = frozenset(kept)
    out_rel = {}
    for e, pairs in rel_map.items():
        kept = pairs
        for red, b, pre in views:
            for e0 in pre[e]:
                pair, allowed = red.pair, b.code_map[e0]
                kept = [p for p in kept if pair(p) in allowed]
        # a relation no bound reads stays as it came
        out_rel[e] = kept if kept is pairs else frozenset(kept)
    return out_init, out_rel


def model_reduct(m: EvtMorphism, model: EvtModel,
                 algebra: Optional[FiniteAlgebra] = None) -> EvtModel:
    """View a model over the morphism's target as one over its source: each
    source event gets the reduct of its image's relation.  algebra is the
    reduct of the model's algebra along m, when the caller has it."""
    if model.signature != m.target:
        raise SortError("model is not over the morphism's target")
    red = model.coding.reduct(m)
    rel = {e: frozenset(map(red.pair, model.code_map[m.apply_event(e)]))
           for e in m.source.non_init_events}
    if algebra is None:
        algebra = algebra_reduct(model.algebra, m.fopeq)
    return EvtModel(m.source, algebra,
                    frozenset(map(red.state, model.init_codes)), tuple(rel.items()))


# ---------------------------------------------------------------------------
# maximal models


def _flatten_conjuncts(f: Formula) -> list[Formula]:
    if isinstance(f, And):
        out = []
        for p in f.parts:
            out.extend(_flatten_conjuncts(p))
        return out
    return [f]


def _definition(
    c: Formula,
    targets: frozenset[tuple[str, bool]],
    sources: frozenset[tuple[str, bool]],
) -> Optional[tuple[tuple[str, bool], fopeq.Term]]:
    """(x, t) when c is x = t or t = x, tried in that order, for a variable
    x in targets and a term t over variables in sources that does not
    mention x: c fixes x once t's variables are bound."""
    if isinstance(c, fopeq.Equal):
        for lhs, t in ((c.left, c.right), (c.right, c.left)):
            if isinstance(lhs, fopeq.Var) and lhs.key in targets:
                tv = fopeq.term_vars(t)
                if lhs.key not in tv and tv <= sources:
                    return lhs.key, t
    return None


Conjunct = tuple[Formula, frozenset[tuple[str, bool]], Callable[[Mapping], bool]]
# a pool state: its code and its valuation, which maps (name, False) to a value
PoolState = tuple[int, dict[tuple[str, bool], Value]]


def _filter_pool(
    sig: EvtSignature,
    algebra: FiniteAlgebra,
    conjuncts: Sequence[Conjunct],
    compile_term: Callable[[fopeq.Term], Callable[[Mapping], Value]],
    budget: Optional[list[float]] = None,
) -> Iterator[PoolState]:
    """The states satisfying conjuncts over unprimed variables, given with
    their free variables and compiled functions, each as its code under
    state_coding(sig, algebra) and its valuation; generated lazily so that
    callers can stop at a ceiling.

    Unary conjuncts prune candidate values.  A backtracking search then binds
    the variables in one valuation.  The first conjunct that defines a
    variable (_definition, with the pool's variables as targets and sources)
    binds it as soon as its term's variables are bound: the term is
    evaluated once, and its value must be a candidate.  Otherwise the
    variables without a definition go fail-first (fewest candidates, then
    most conjuncts, then name); a cycle of definitions is broken fail-first
    among all.  Every other conjunct is checked as soon as all its variables
    are bound.  A conjunct naming a variable outside the pool, a primed one
    included, is checked last, where evaluating it raises SortError.
    compile_term compiles the definition terms.  With a budget, the values
    tried are taken from budget[0], and the search raises _BudgetSpent once
    it goes below zero.  Each candidate value carries its digit, its rank
    times its variable's weight, and a state's code is the sum of its
    values' digits.
    """
    coding = state_coding(sig, algebra)
    candidates = {(n, False): [(v, rank[v] * w) for v in algebra.carrier(s)]
                  for (n, s), rank, w in zip(sig.vars, coding.ranks, coding.weights)}
    own = frozenset(candidates)
    rest = []
    defs: dict[tuple[str, bool], tuple[fopeq.Term, frozenset, int]] = {}
    for c, fv, fn in conjuncts:
        key = next(iter(fv)) if len(fv) == 1 else None
        if key in candidates:
            candidates[key] = [(v, d) for v, d in candidates[key] if fn({key: v})]
            continue
        d = _definition(c, own, own)
        if d is not None and d[0] not in defs:
            defs[d[0]] = d[1], fv - {d[0]}, len(rest)
        rest.append((fv, fn))
    mentions = Counter(k for fv, _ in rest for k in fv)

    def rank(k):
        return len(candidates[k]), -mentions[k], k

    # a defined variable goes as soon as its term's variables are bound
    depth: dict[tuple[str, bool], int] = {}
    defined = set()
    while len(depth) < len(candidates):
        left = [k for k in candidates if k not in depth]
        ready = [k for k in left if k in defs and defs[k][1].issubset(depth)]
        k = min(ready or [k for k in left if k not in defs] or left, key=rank)
        if ready:
            defined.add(k)
        depth[k] = len(depth) + 1
    order = list(depth)
    checks: list[list[Callable]] = [[] for _ in range(len(order) + 1)]
    # a definition that binds its variable is not checked again
    skip = {defs[k][2] for k in defined}
    for i, (fv, fn) in enumerate(rest):
        if i not in skip:
            at = max(map(depth.get, fv), default=0) if fv.issubset(depth) else len(order)
            checks[at].append(fn)
    layers = [(k, {v: (v, digit) for v, digit in candidates[k]},
               compile_term(defs[k][0]), checks[d])
              if k in defined else (k, candidates[k], None, checks[d])
              for d, k in enumerate(order, 1)]
    val: dict[tuple[str, bool], Value] = {}

    def extend(d: int, code: int) -> Iterator[PoolState]:
        if d == len(layers):
            yield code, dict(val)
            return
        key, values, term, tests = layers[d]
        if term is not None:
            # x = t holds for the one candidate equal to t, and for none when
            # t is undefined or outside the candidates
            hit = values.get(term(val))
            if hit is None:
                return
            values = (hit,)
        if budget is not None:
            budget[0] -= len(values)
            if budget[0] < 0:
                raise _BudgetSpent
        for v, digit in values:
            val[key] = v
            for fn in tests:
                if not fn(val):
                    break
            else:
                yield from extend(d + 1, code + digit)

    for fn in checks[0]:
        if not fn(val):
            return
    yield from extend(0, 0)


class _BudgetSpent(Exception):
    """A pool search visited more values than its budget allowed."""


# the core search may try this many values per state it may yield
_CORE_BUDGET = 16


class _Pool:
    """The states a search has yielded so far, each as its code and its
    valuation (_filter_pool).  Every reader of one conjunct set in a
    maximal_model run shares the prefix, and grows it only as far as its
    own question needs; no reader changes a state's valuation."""

    __slots__ = ("states", "dry", "_search")

    def __init__(self, search: Iterator[PoolState]):
        self.states: list[PoolState] = []
        self.dry = False
        self._search = search

    def grow(self, n: int) -> list[PoolState]:
        """The states so far, after taking up to n of them; fewer than n
        only once the search has run dry."""
        short = n - len(self.states)
        if short > 0 and not self.dry:
            self.states.extend(itertools.islice(self._search, short))
            self.dry = len(self.states) < n
        return self.states


# a pool reader: the plan's numbers of some conjuncts, and those conjuncts
Reader = tuple[Sequence[int], Sequence[Conjunct]]


def _shared_pools(
    sig: EvtSignature,
    algebra: FiniteAlgebra,
    readers: Sequence[Reader],
    compile_term: Callable[[fopeq.Term], Callable[[Mapping], Value]],
    root: int,
) -> Callable[[Reader], _Pool]:
    """The pool source of one maximal_model run, that is of one plan in one
    algebra: each reader, a list of conjuncts over unprimed variables with
    the functions compiled for that algebra, and their numbers in the plan,
    gets the pool of the states satisfying them, one pool per set of
    numbers, with each state's code and valuation as _filter_pool yields
    them.  No pool outlives its run.

    The core, the conjuncts that every one of the (at least one) readers
    holds, is searched first, up to root states, in the first reader's
    order, trying at most _CORE_BUDGET·root values.  If it runs dry, every
    other pool is the core's states filtered by its reader's extra
    conjuncts: a unary one becomes the values allowed for its variable,
    and the others are checked on the core state's own valuation.  Otherwise
    every other pool is searched on its own, and the core adds at most root
    states and its budget to the work; a core that spends its budget is
    dropped, so a sparse core that no definition binds is not searched
    through the whole product.
    """
    pools: dict[frozenset[int], _Pool] = {}
    shared = frozenset.intersection(*(frozenset(ids) for ids, _ in readers))
    budget = [_CORE_BUDGET * root]
    first_ids, first = readers[0]
    core = _Pool(_filter_pool(
        sig, algebra, [cj for i, cj in zip(first_ids, first) if i in shared],
        compile_term, budget))
    try:
        core.grow(root)
    except _BudgetSpent:
        pass  # the core is not dry, so every reader searches on its own
    else:
        budget[0] = math.inf
        pools[shared] = core

    def sieve(extras: Sequence[Conjunct]) -> Iterator[PoolState]:
        allowed, tests = [], []
        for _, fv, fn in extras:
            if len(fv) == 1:
                (k,) = fv
                allowed.append((k, {
                    v for v in algebra.carrier(sig.var_map[k[0]]) if fn({k: v})}))
            else:
                tests.append(fn)
        for s in core.states:
            val = s[1]
            for k, ok in allowed:
                if val[k] not in ok:
                    break
            else:
                for fn in tests:
                    if not fn(val):
                        break
                else:
                    yield s

    def pool(reader: Reader) -> _Pool:
        ids, conjs = reader
        k = frozenset(ids)
        hit = pools.get(k)
        if hit is None:
            if core.dry:
                search = sieve([cj for i, cj in zip(ids, conjs) if i not in shared])
            else:
                search = _filter_pool(sig, algebra, conjs, compile_term)
            hit = pools[k] = _Pool(search)
        return hit

    return pool


def _check_interpreted(fsig: FopeqSignature, xs: Iterable) -> None:
    """Raise the SortError that compiling the formulas or terms xs, in turn,
    raises in an algebra over fsig: for the first operation, predicate or
    sort, in the order compile_formula meets them, that fsig does not
    interpret.  free_vars has checked the formula parts, so anything unknown
    is not a term."""
    for x in xs:
        if isinstance(x, (fopeq.Var, fopeq.IntLit, fopeq.BoolLit, fopeq.TrueF, fopeq.FalseF)):
            continue
        if isinstance(x, (fopeq.OpApp, fopeq.PredApp)):
            parts = x.args
        elif isinstance(x, (fopeq.Equal, fopeq.Implies, fopeq.Iff)):
            parts = (x.left, x.right)
        elif isinstance(x, (fopeq.And, fopeq.Or)):
            parts = x.parts
        elif isinstance(x, fopeq.Not):
            parts = (x.body,)
        elif isinstance(x, fopeq.InSet):
            parts = (x.item, *x.elems)
        elif isinstance(x, fopeq.CarrierEq):
            parts = x.elems
        elif isinstance(x, (fopeq.Forall, fopeq.Exists)):
            for _, sort in x.vars:
                if not fsig.has_sort(sort):
                    raise SortError(f"no carrier for sort {sort}")
            parts = (x.body,)
        else:
            raise SortError(f"not a term: {x!r}")
        _check_interpreted(fsig, parts)
        if isinstance(x, fopeq.OpApp):
            if x.op not in fopeq.BUILTIN_OPS and x.op not in fsig.op_map:
                raise SortError(f"operation {x.op} not interpreted")
        elif isinstance(x, fopeq.PredApp):
            if x.pred not in fopeq.BUILTIN_PREDS and x.pred not in fsig.pred_map:
                raise SortError(f"predicate {x.pred} not interpreted")
        elif isinstance(x, fopeq.CarrierEq) and not fsig.has_sort(x.sort):
            raise SortError(f"no carrier for sort {x.sort}")


class ModelPlan:
    """What maximal_model needs of a signature and its sentences in every
    algebra: the distinct conjuncts, numbered with their free variables (the
    sentences' own first, then the new unprimed forms), and, for Init (by
    init_conjuncts' rule) and each event, the numbers of its closed
    conjuncts and of its pool readers, which hold unprimed forms; an event
    also has its join keys (its first definition x′ = t per variable, t over
    before-values) and checks.  SortError for an unknown event or variable,
    and for an operation, predicate or sort of a sentence that the
    signature does not interpret (_check_interpreted).
    """

    __slots__ = ("sig", "conjuncts", "init", "events")

    def __init__(self, sig: EvtSignature, sentences: Sequence[EvtSentence]):
        by_event: dict[str, list[Formula]] = {e: [] for e in sig.event_names}
        for s in sentences:
            if s.event not in by_event:
                raise SortError(f"sentence names unknown event {s.event}")
            by_event[s.event].append(s.body)
        conjuncts: list[tuple[Formula, frozenset[tuple[str, bool]]]] = []

        def number(c: Formula) -> int:
            fv = free_vars(c)
            for name, primed in sorted(fv):
                if name not in sig.var_map:
                    raise SortError(f"unbound variable {name}{'′' if primed else ''}")
            conjuncts.append((c, fv))
            return len(conjuncts) - 1

        numbers = _Memo(number)
        # family bodies are shared by every event
        flat = _Memo(lambda body: [numbers[c] for c in _flatten_conjuncts(body)])
        ids = {e: [i for body in bodies for i in flat[body]] for e, bodies in by_event.items()}
        # a run compiles a conjunct only when something reads it, so one that
        # no algebra over the signature interprets is refused here, unread
        _check_interpreted(sig.fopeq, [c for c, _ in conjuncts])
        unprime = {(n, True): fopeq.Var(n) for n in sig.var_names}
        unprimed = _Memo(lambda i: numbers[substitute(conjuncts[i][0], unprime)])

        init = [i for i in ids[INIT] if _primed_or_closed(conjuncts[i][1])]
        self.init = ([i for i in init if not conjuncts[i][1]],
                     [unprimed[i] for i in init if conjuncts[i][1]])
        before_vars = frozenset((n, False) for n in sig.var_names)
        after_vars = frozenset((n, True) for n in sig.var_names)
        self.events = []
        for e in sig.non_init_events:
            closed, before_only, after_only, checks = [], [], [], []
            keys: dict[tuple[str, bool], fopeq.Term] = {}
            read_after: set[str] = set()
            for i in ids[e]:
                c, fv = conjuncts[i]
                sides = {primed for _, primed in fv}
                if not sides:
                    closed.append(i)
                elif sides == {False}:
                    before_only.append(i)
                elif sides == {True}:
                    after_only.append(unprimed[i])
                else:
                    d = _definition(c, after_vars, before_vars)
                    if d is None or (d[0][0], False) in keys:
                        checks.append(i)
                        read_after.update(n for n, primed in fv if primed)
                    else:
                        keys[d[0][0], False] = d[1]
            self.events.append((e, closed, before_only, after_only, keys, checks, read_after))
        self.sig, self.conjuncts = sig, conjuncts


def maximal_model(
    plan: ModelPlan,
    algebra: FiniteAlgebra,
    bounds: Bounds,
) -> tuple[frozenset[int], dict[str, Relation]]:
    """The largest initialising set and per-event relation satisfying every
    sentence of the plan over the given algebra, as state codes and pair
    codes of state_coding(plan.sig, algebra).  An event without checks is
    counted from its join's buckets, and its pair codes are built on first
    read (EvtModel's relations).

    Satisfaction quantifies universally over each relation, so the class of
    satisfying models is exactly the non-empty-L downward closure of this
    maximum.  A run compiles each of the plan's conjuncts and key terms once,
    when a pool, key or check first reads it, and none that nothing reads;
    it evaluates the closed conjuncts in this algebra, and a sentence whose
    closed conjuncts fail reads no pool.  A state is a valuation without a
    side, so every pool reader holds unprimed conjuncts, and only the join
    reads x′.  The state pools come from _shared_pools, which searches the
    conjuncts they all hold once per run, and an event's two pools grow in
    step: refusing a pair ceiling c takes 2(⌊√c⌋ + 1) states when both pools
    are larger than √c, not a whole pool.
    """
    sig, conjuncts = plan.sig, plan.conjuncts
    fns = _Memo(lambda i: compile_formula(conjuncts[i][0], algebra))
    compiled_term = _Memo(lambda t: fopeq.compile_term(t, algebra)).__getitem__

    def reader(ids: Sequence[int]) -> Reader:
        return ids, [(*conjuncts[i], fns[i]) for i in ids]

    def closed_hold(ids: Sequence[int]) -> bool:
        for i in ids:
            if not fns[i]({}):
                return False
        return True

    init_closed, init_ids = plan.init
    init_reader = reader(init_ids)
    init_reads = closed_hold(init_closed)
    readers = [init_reader] if init_reads else []
    # each event's pools are joined on the after-values that its keys fix,
    # and a pair's valuation holds only the after-values checks read
    events = []
    for e, closed, before_only, after_only, keys, checks, read_after in plan.events:
        if closed_hold(closed):
            sides = reader(before_only), reader(after_only)
            events.append((e, *sides, [compiled_term(t) for t in keys.values()], list(keys),
                           [fns[i] for i in checks], read_after))
            readers += sides

    ceiling = bounds.pair_ceiling
    root = math.isqrt(ceiling) + 1
    l_max: frozenset[int] = frozenset()
    r_max = {e: frozenset() for e in sig.non_init_events}
    if not readers:
        return l_max, r_max
    size = state_coding(sig, algebra).size
    pool = _shared_pools(sig, algebra, readers, compiled_term, root)
    if init_reads:
        init_pool = pool(init_reader)
        if len(init_pool.grow(ceiling + 1)) > ceiling:
            raise EnumerationLimit(f"event {INIT}: initial states exceed the ceiling {ceiling}")
        l_max = frozenset([i for i, _ in init_pool.states])

    for e, before_only, after_only, key_fns, keys, checks, read_after in events:
        # the pools grow in step, each to √ceiling first; then a pool that
        # ran dry says how far the other must grow to decide |B|·|A| > ceiling
        before, after = pool(before_only), pool(after_only)
        if not before.grow(1) or not after.grow(root):
            continue
        before.grow(root)
        if after.dry:
            before.grow(ceiling // len(after.states) + 1)
        elif before.dry:
            after.grow(ceiling // len(before.states) + 1)
        if len(before.states) * len(after.states) > ceiling:
            raise EnumerationLimit(
                f"event {e}: state pairs exceed the ceiling {ceiling}")
        # each bucket holds after-codes, with the after-values checks read
        index: dict[tuple, list] = {}
        for j, t in after.states:
            index.setdefault(tuple([t[k] for k in keys]), []).append(
                (j, {(n, True): t[n, False] for n in read_after}) if checks else j)
        # an undefined key term matches no bucket, as x′ = t is then false
        probes = [(i, s, index.get(tuple([fn(s) for fn in key_fns])))
                  for i, s in before.states]
        if not checks:
            # counted from the buckets; the pair codes are built on first read
            r_max[e] = _Joined([(i * size, b) for i, _, b in probes if b])
            continue
        pairs: list[int] = []
        for i, s, bucket in probes:
            if not bucket:
                continue
            # the checks add after-values to the valuation, and pool states
            # are shared by every reader
            val, base = dict(s), i * size
            for j, tval in bucket:
                val.update(tval)
                for fn in checks:
                    if not fn(val):
                        break
                else:
                    pairs.append(base + j)
        r_max[e] = frozenset(pairs)
    return l_max, r_max



# ---------------------------------------------------------------------------
# pushouts and amalgamation


def evt_pushout(
    s1: EvtMorphism, s2: EvtMorphism
) -> tuple[EvtSignature, EvtMorphism, EvtMorphism]:
    """Pushout of a span of signature morphisms; event statuses of merged
    classes join by supremum."""
    if s1.source is not s2.source and s1.source != s2.source:
        raise SortError("pushout requires a common source signature")
    src = s1.source
    fsig, finj1, finj2 = fopeq_pushout(s1.fopeq, s2.fopeq)

    ev1, ev2 = pushout_names(
        src.event_names, s1.target.event_names, s2.target.event_names,
        s1.event_dict, s2.event_dict)
    v1, v2 = pushout_names(
        src.var_names, s1.target.var_names, s2.target.var_names,
        s1.var_dict, s2.var_dict)
    sorts1, sorts2 = sort_images(finj1), sort_images(finj2)
    merged = merged_signature(
        fsig,
        [(ev1[e], st) for e, st in s1.target.events] + [(ev2[e], st) for e, st in s2.target.events],
        [(v1[v], sorts1[s]) for v, s in s1.target.vars]
        + [(v2[v], sorts2[s]) for v, s in s2.target.vars])
    inj1 = EvtMorphism(s1.target, merged, finj1, tuple(ev1.items()), tuple(v1.items()))
    inj2 = EvtMorphism(s2.target, merged, finj2, tuple(ev2.items()), tuple(v2.items()))
    return merged, inj1, inj2


def _amalgamate_algebra(
    merged: EvtSignature, inj1: EvtMorphism, inj2: EvtMorphism,
    a1: FiniteAlgebra, a2: FiniteAlgebra,
) -> FiniteAlgebra:
    """Each merged sort, operation and predicate takes its interpretation from
    the first side whose injection covers it."""
    parts = []
    for kind, names, image, meaning in (
        ("sort", lambda f: f.sorts, FopeqMorphism.apply_sort, FiniteAlgebra.carrier),
        ("operation", lambda f: [o.name for o in f.ops], FopeqMorphism.apply_op,
         lambda a, n: a.op_tables[n]),
        ("predicate", lambda f: [p.name for p in f.preds], FopeqMorphism.apply_pred,
         lambda a, n: a.pred_tables[n]),
    ):
        table = {}
        for j, a in ((inj2.fopeq, a2), (inj1.fopeq, a1)):
            table.update((image(j, n), meaning(a, n)) for n in names(j.source))
        for n in names(merged.fopeq):
            if n not in table:
                raise SortError(f"{kind} {n} not covered by either injection")
        parts.append({n: table[n] for n in names(merged.fopeq)})
    return fopeq.make_algebra(merged.fopeq, a1.int_bound, *parts)


Row = tuple[int, ...]


def _side_rows(
    j: EvtMorphism, side: StateCoding, merged: StateCoding,
) -> tuple[list[int], Callable[[int], Optional[Row]]]:
    """The merged places j's variables fill, in increasing order, and a view
    of a state code over j's source (under side) as the merged digits at
    those places, computed once per code.  A state joins nothing (its view is None) when two
    variables with one image disagree, or when a value lies outside the
    carrier of its place: no merged state reduces to it."""
    places = [i for _, i in j.state_positions]
    own = sorted(set(places))
    # each variable's digit as the merged digit of its value at its place
    digits = [(w, len(vs), [merged.ranks[p].get(v) for v in vs], p)
              for vs, w, p in zip(side.values, side.weights, places)]

    def view(code: int) -> Optional[Row]:
        row: dict[int, int] = {}
        ok = all(d is not None and row.setdefault(p, d) == d
                 for d, p in ((to[code // w % k], p) for w, k, to, p in digits))
        return tuple([row[p] for p in own]) if ok else None

    return own, _Memo(view).__getitem__


def _join(
    sides: Sequence[tuple[Sequence[int], Sequence[Row]]],
    radices: Sequence[int],
    weights: Sequence[int],
) -> tuple[int, Callable[[], Iterator[int]]]:
    """The codes of the rows of digits over len(radices) places whose
    restriction to each of at most two sides' places is one of that side's
    rows; a side is its places, in increasing order, and its rows, and a
    row's code is the sum of its digits times the places' weights.

    The second side's rows are bucketed by their digits on the places both
    sides fix and the first side's rows probe the buckets; places no side
    fixes range over their radices.  Returns the number of rows, counted
    from the bucket sizes, and a generator of their codes, so that a caller
    can refuse before any code is built.
    """
    (own1, rows1), (own2, rows2) = [*sides, ((), [()]), ((), [()])][:2]
    fixed = set(own1)
    probe = [own1.index(p) for p in own2 if p in fixed]
    shared = [i for i, p in enumerate(own2) if p in fixed]
    new = [(i, weights[p]) for i, p in enumerate(own2) if p not in fixed]
    free = [p for p in range(len(radices)) if p not in fixed and p not in own2]
    index: dict[Row, list[int]] = {}
    for r in rows2:
        index.setdefault(tuple([r[i] for i in shared]), []).append(
            sum([r[i] * w for i, w in new]))
    weights1 = [weights[p] for p in own1]
    matches = [(sum([d * w for d, w in zip(r, weights1)]),
                index.get(tuple([r[i] for i in probe]), ())) for r in rows1]
    size = sum(len(b) for _, b in matches) * math.prod(radices[p] for p in free)

    def codes() -> Iterator[int]:
        if not size:
            return
        extra = [0]
        for p in free:
            extra = [c + d * weights[p] for c in extra for d in range(radices[p])]
        for c1, bucket in matches:
            for c2 in bucket:
                base = c1 + c2
                for c in extra:
                    yield base + c

    return size, codes


def amalgamate(
    m1: EvtModel,
    m2: EvtModel,
    span1: EvtMorphism,
    span2: EvtMorphism,
    pushout: Optional[tuple[EvtSignature, EvtMorphism, EvtMorphism]] = None,
    bounds: Bounds = Bounds(),
) -> tuple[EvtModel, bool]:
    """Combine models with equal reducts along a span into a model over the
    pushout signature.

    Returns the canonical maximal amalgam plus a uniqueness flag (False when
    a smaller amalgam also satisfies both reduct equations).  Raises when the
    reducts differ, when no amalgam exists, or with EnumerationLimit when the
    initialising set or an event's relation would exceed bounds.pair_ceiling.

    The maximal amalgam is a join of the side models on the shared merged
    variables: the initialising sets join, and each merged event joins the
    intersected relations of its preimages on each side that has any; the
    variables no such side covers range over their carriers, before- and
    after-values independently.  The join yields the amalgam's state and
    pair codes directly.
    """
    if pushout is None:
        pushout = evt_pushout(span1, span2)
    merged, inj1, inj2 = pushout

    r1 = model_reduct(span1, m1)
    r2 = model_reduct(span2, m2)
    if r1 != r2:
        diff = _first_model_difference(r1, r2)
        raise SpecError(f"reducts along the span differ: {diff}")

    algebra = _amalgamate_algebra(merged, inj1, inj2, m1.algebra, m2.algebra)
    coding = state_coding(merged, algebra)
    n, size = len(merged.var_names), coding.size
    radices = [len(vs) for vs in coding.values]
    sides = [(m, j, *_side_rows(j, m.coding, coding)) for m, j in ((m1, inj1), (m2, inj2))]

    init_size, init_codes = _join([
        (own, [r for r in map(view, m.init_codes) if r is not None])
        for m, _, own, view in sides], radices, coding.weights)
    if not init_size:
        raise SpecError("no amalgam exists: the joined initialising set is empty")
    joins = {INIT: (init_size, init_codes)}
    pair_weights = [w * size for w in coding.weights] + list(coding.weights)
    for e in merged.non_init_events:
        parts = []
        for m, j, own, view in sides:
            if j.preimages[e]:
                pairs = frozenset.intersection(*(m.code_map[e0] for e0 in j.preimages[e]))
                side_size = m.coding.size
                views = [(view(p // side_size), view(p % side_size)) for p in pairs]
                parts.append(([*own, *(n + p for p in own)],
                              [a + b for a, b in views if a is not None and b is not None]))
        joins[e] = _join(parts, radices + radices, pair_weights)
    ceiling = bounds.pair_ceiling
    for e, (count, _) in joins.items():
        if count > ceiling:
            what = "initial states" if e == INIT else "state pairs"
            raise EnumerationLimit(f"event {e}: amalgam {what} exceed the ceiling {ceiling}")

    candidate = EvtModel(merged, algebra, frozenset(init_codes()), tuple(
        (e, frozenset(codes())) for e, (_, codes) in joins.items() if e != INIT))
    if model_reduct(inj1, candidate) != m1 or model_reduct(inj2, candidate) != m2:
        raise SpecError("no amalgam exists: the maximal join does not reduce back")
    return candidate, not _has_redundant_item(candidate, (inj1, inj2))


def _first_model_difference(r1: EvtModel, r2: EvtModel) -> str:
    if r1.algebra != r2.algebra:
        return "algebras differ"
    coding = r1.coding
    diff = r1.init_codes ^ r2.init_codes
    if diff:
        return f"initial state {coding.decode(min(diff))} on one side only"
    for e in r1.signature.non_init_events:
        diff = r1.code_map[e] ^ r2.code_map[e]
        if diff:
            return f"event {e} pair {coding.decode_pair(min(diff))} on one side only"
    return "models differ"


def _has_redundant_item(m: EvtModel, injections: Sequence[EvtMorphism]) -> bool:
    """Whether dropping one initialising state or one pair leaves the reduct
    along every injection unchanged: the item's image along each injection
    that sees it is shared with another item."""
    reducts = [m.coding.reduct(j) for j in injections]

    def redundant(items, keys) -> bool:
        counts = [Counter(map(key, items)) for key in keys]
        return any(all(c[key(x)] > 1 for c, key in zip(counts, keys)) for x in items)

    if redundant(m.init_codes, [red.state for red in reducts]):
        return True
    for e, pairs in m.rel_codes:
        if redundant(pairs, [red.pair for red, j in zip(reducts, injections)
                             if j.preimages[e]]):
            return True
    return False


# ---------------------------------------------------------------------------
# embedding plain first-order specifications


def comorphism_sign(fsig: FopeqSignature) -> EvtSignature:
    """Wrap a first-order signature: initial event only, no variables."""
    if not isinstance(fsig, FopeqSignature):
        raise SortError("comorphism_sign expects a first-order signature")
    return EvtSignature(fsig, ((INIT, Status.ordinary),), ())


def comorphism_sen(sig: EvtSignature, f: Formula) -> tuple[EvtSentence, ...]:
    """A closed formula becomes one sentence per event of the target."""
    if free_vars(f):
        raise SortError("only closed formulas can be embedded")
    return tuple(EvtSentence(e, f) for e in sig.event_names)


def comorphism_mod(m: EvtModel) -> FiniteAlgebra:
    """Project an embedded model back to its algebra."""
    if m.signature.vars or m.signature.non_init_events:
        raise SortError("model does not come from an embedded specification")
    if any(pairs for _, pairs in m.rel_codes):
        raise SortError("embedded models have empty event relations")
    return m.algebra
