"""Structured specifications and their bounded model-class semantics.

Specs are built from flat presentations with rename (with), sum (and),
enrich (then), hide (hide via) and the embedding of plain first-order
specifications.  A spec evaluates, per admissible algebra, to the maximal
initialising set and per-event relations; satisfaction is universally
quantified over relations, so the model class is the downward closure of
these maxima and inclusion checks reduce to subset tests on them.

Invariant-style sentences are kept as formula families and expanded over the
event set of the specification being evaluated, so that invariants imported
from a sub-specification constrain events added elsewhere.
"""

from __future__ import annotations

from dataclasses import field
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence, Union

from .errors import EnumerationLimit, SortError, SpecError
from . import fopeq as F
from .fopeq import (
    Bounds, FiniteAlgebra, FopeqMorphism, FopeqSignature, Formula, OpApp, PredApp, Term, Var,
    algebra_reduct, canonical_form, conjoin, enumerate_algebras, frozen, prime_free_vars,
    substitute,
)
from .institution import (
    INIT, EvtModel, EvtMorphism, EvtSentence, EvtSignature, ModelPlan, Status,
    comorphism_sign, evt_compose, evt_identity, evt_morphism, maximal_model,
    model_reduct, relabel, restrict_along, signature_extension, signature_union,
    state_coding, translate_sentence,
)
from .mathlang import (
    ElabContext, SubsetType, TypeExpr, elab_formula, elab_term, type_constraint,
    type_sort,
)


# ---------------------------------------------------------------------------
# flat presentations


@frozen
class ActionClause:
    var: str
    kind: str  # ":=" | ":|"
    term: Optional[Term] = None
    pred: Optional[Formula] = None


@frozen
class EventClauses:
    name: str
    status: Status = Status.ordinary
    params: tuple[tuple[str, str], ...] = ()  # (name, sort)
    guards: tuple[Formula, ...] = ()
    witnesses: tuple[Formula, ...] = ()
    actions: tuple[ActionClause, ...] = ()

    def body(self) -> Formula:
        """Existentially close the parameters over guards, witnesses and
        before/after predicates; deterministic assignments become v′ = e."""
        parts: list[Formula] = list(self.guards) + list(self.witnesses)
        for a in self.actions:
            if a.kind == ":=":
                parts.append(F.Equal(Var(a.var, True), a.term))
            else:
                parts.append(a.pred)
        body = conjoin(parts)
        if self.params:
            body = F.Exists(self.params, body)
        return body


# ---------------------------------------------------------------------------
# elaboration of surface clauses, shared by the Event-B and sugared readers;
# `where` prefixes every error message


def elab_at(where: str, elab: Callable, node, ctx: ElabContext):
    """elab(node, ctx), where elab is elab_formula or elab_term, with where
    prefixed to the message of a SortError it raises."""
    try:
        return elab(node, ctx)
    except SortError as e:
        raise SortError(f"{where}: {e}") from e


def _labelled(where: str, label: Optional[str]) -> str:
    """The location of a clause: where, then its label if it has one."""
    return f"{where}.{label}" if label else where


def elaborate_event(where: str, sig: EvtSignature, name: str, status: Status,
                    params: Sequence[tuple[str, str, Optional[TypeExpr]]],
                    guards: Sequence[tuple[Optional[str], object]],
                    witnesses: Sequence[tuple[Optional[str], object]],
                    actions: Sequence[tuple[Optional[str], str, str, object]],
                    ) -> EventClauses:
    """An event's clauses over sig: params are (name, sort, declared type or
    None), guards and witnesses (label or None, predicate), actions (label
    or None, variable, ":=" or ":|", right-hand side).  A declared type adds
    its membership constraint to the guards."""
    sorts = tuple((n, s) for n, s, _ in params)
    g_ctx = ElabContext(sig.fopeq, vars=sig.vars + sorts, allow_primes=False)
    p_ctx = ElabContext(sig.fopeq, vars=sig.vars + sorts, allow_primes=True)
    elab_guards = [elab_at(_labelled(where, lb), elab_formula, g, g_ctx) for lb, g in guards]
    for n, _, te in params:
        g = None if te is None else type_constraint(te, Var(n))
        if g is not None:
            elab_guards.append(g)
    elab_witnesses = tuple(elab_at(_labelled(where, lb), elab_formula, w, p_ctx)
                           for lb, w in witnesses)
    clauses = []
    var_sorts = sig.var_map
    for label, var, kind, rhs in actions:
        if var not in var_sorts:
            raise SpecError(f"{where}: assignment to unknown variable {var}")
        at = _labelled(where, label)
        if kind == ":=":
            t, s = elab_at(at, elab_term, rhs, g_ctx)
            if s != var_sorts[var]:
                raise SortError(f"{where}: {var} := expression of sort {s}")
            clauses.append(ActionClause(var, ":=", term=t))
        else:
            clauses.append(ActionClause(var, ":|", pred=elab_at(at, elab_formula, rhs, p_ctx)))
    ev = EventClauses(name, status, sorts, tuple(elab_guards), elab_witnesses,
                      tuple(clauses))
    # Init binds only after-values: a clause reading a before-value is never
    # evaluated, so it is refused rather than dropped
    if name == INIT and not all(primed for _, primed in F.free_vars(ev.body())):
        raise SpecError(f"{where}: initialisation may not read state variables")
    return ev


def elaborate_variant(where: str, sig: EvtSignature, node) -> Term:
    t, s = elab_at(where, elab_term, node,
                   ElabContext(sig.fopeq, vars=sig.vars, allow_primes=False))
    if s != F.INT:
        raise SpecError(f"{where}: variant must be numeric")
    return t


@frozen
class Flat:
    """Printable content of a presentation or enrichment."""

    sorts: tuple[str, ...] = ()
    constants: tuple[tuple[str, TypeExpr], ...] = ()
    axioms: tuple[Formula, ...] = ()  # closed, non-typing
    variables: tuple[tuple[str, TypeExpr], ...] = ()
    invariants: tuple[Formula, ...] = ()
    variant: Optional[Term] = None
    events: tuple[EventClauses, ...] = ()
    abstract_of: Optional[str] = None  # printed as the bare abstract name

    def typing_formulas(self) -> tuple[Formula, ...]:
        out = []
        for name, te in self.variables:
            g = type_constraint(te, Var(name))
            if g is not None:
                out.append(g)
        return tuple(out)

    def constant_axioms(self) -> tuple[Formula, ...]:
        out = []
        for name, te in self.constants:
            if isinstance(te, SubsetType):
                out.append(type_constraint(te, OpApp(name)))
        return tuple(out)


def extend_signature(base: EvtSignature, flat: Flat) -> EvtSignature:
    fsig = extend_fopeq_signature(base.fopeq, flat)
    return signature_extension(
        base, fsig, [(ev.name, ev.status) for ev in flat.events],
        [(name, type_sort(te, fsig)) for name, te in flat.variables])


def extend_fopeq_signature(base: FopeqSignature, flat: Flat) -> FopeqSignature:
    fsig = base
    if flat.sorts:
        fsig = fsig.union(FopeqSignature(sorts=flat.sorts))
    if flat.constants:
        ops = tuple(F.Op(n, (), type_sort(te, fsig)) for n, te in flat.constants)
        fsig = fsig.union(FopeqSignature(fsig.sorts, ops))
    return fsig


# ---------------------------------------------------------------------------
# spec AST


@frozen
class Presentation:
    signature: Union[EvtSignature, FopeqSignature]
    flat: Flat


@frozen
class Named:
    name: str


@frozen
class Translate:
    child: "Spec"
    morphism: EvtMorphism  # source = sig_of(child)


@frozen
class Sum:
    parts: tuple["Spec", ...]  # at least two


@frozen
class Enrich:
    child: "Spec"
    flat: Flat


@frozen
class Hide:
    child: "Spec"
    morphism: EvtMorphism  # target = sig_of(child)


@frozen
class Embed:
    child: "Spec"  # first-order flavoured


Spec = Union[Presentation, Named, Translate, Sum, Enrich, Hide, Embed]


def sum_all(parts: Sequence[Spec]) -> Spec:
    """The sum of the parts, or the part itself when there is one."""
    if not parts:
        raise SpecError("empty sum")
    return parts[0] if len(parts) == 1 else Sum(tuple(parts))


class SpecLibrary:
    """Named specifications, in definition order, and the signature of every
    spec node seen so far (the memo of sig_of)."""

    def __init__(self):
        self.entries: dict[str, Spec] = {}
        self._sigs: dict[Spec, Union[EvtSignature, FopeqSignature]] = {}

    def define(self, name: str, spec: Spec) -> None:
        if name in self.entries:
            raise SpecError(f"specification {name} defined twice")
        sig_of(spec, self)
        self.entries[name] = spec

    def remember(self, spec: Spec, sig: Union[EvtSignature, FopeqSignature]) -> None:
        """Store `sig` as the signature of `spec`, for a caller that built it
        by the rule `sig_of` would apply, so it is not built again."""
        self._sigs[spec] = sig

    def lookup(self, name: str) -> Spec:
        if name not in self.entries:
            raise SpecError(f"unknown specification {name}")
        return self.entries[name]

    def signature(self, name: str) -> Union[EvtSignature, FopeqSignature]:
        return self._sigs[self.lookup(name)]

    def names(self) -> tuple[str, ...]:
        return tuple(self.entries)

    def fopeq_signatures(self) -> list[FopeqSignature]:
        """The first-order part of every spec signature seen so far."""
        return [s.fopeq if isinstance(s, EvtSignature) else s for s in self._sigs.values()]


# ---------------------------------------------------------------------------
# signatures of specs


def is_fopeq_spec(spec: Spec, lib: Optional[SpecLibrary] = None) -> bool:
    sig = sig_of(spec, lib)
    return isinstance(sig, FopeqSignature)


def sig_of(spec: Spec, lib: Optional[SpecLibrary] = None):
    """The signature of a spec node, fixed by its children's.  With a library
    it is computed once per distinct node; a node whose check fails is not
    stored, so it raises again."""
    if lib is None:
        return _sig_rule(spec, None)
    sig = lib._sigs.get(spec)
    if sig is None:
        sig = lib._sigs[spec] = _sig_rule(spec, lib)
    return sig


def _sig_rule(spec: Spec, lib: Optional[SpecLibrary]):
    if isinstance(spec, Presentation):
        return spec.signature
    if isinstance(spec, Named):
        if lib is None:
            raise SpecError(f"no library to resolve {spec.name}")
        return lib.signature(spec.name)
    if isinstance(spec, Translate):
        if sig_of(spec.child, lib) != spec.morphism.source:
            raise SpecError("rename morphism does not start at the child's signature")
        return spec.morphism.target
    if isinstance(spec, Hide):
        if sig_of(spec.child, lib) != spec.morphism.target:
            raise SpecError("hiding morphism does not end at the child's signature")
        return spec.morphism.source
    if isinstance(spec, Embed):
        child = sig_of(spec.child, lib)
        if not isinstance(child, FopeqSignature):
            raise SpecError("only first-order specifications can be embedded")
        return comorphism_sign(child)
    if isinstance(spec, Sum):
        first, *rest = sigs = [sig_of(p, lib) for p in spec.parts]
        if all(isinstance(s, FopeqSignature) for s in sigs):
            return first.union(*rest)
        if all(isinstance(s, EvtSignature) for s in sigs):
            return signature_union(first, *rest)
        raise SpecError("sum mixes first-order and event specifications; embed first")
    if isinstance(spec, Enrich):
        child = sig_of(spec.child, lib)
        if isinstance(child, FopeqSignature):
            return extend_fopeq_signature(child, spec.flat)
        return extend_signature(child, spec.flat)
    raise SpecError(f"not a specification: {spec!r}")


# ---------------------------------------------------------------------------
# model class representation


@frozen
class ModelClassRep:
    """Per-algebra maximal models; the class is their downward closure with
    non-empty initialising sets.

    Algebras whose maximal initialising set is empty admit no models and are
    not listed.
    """

    signature: EvtSignature
    slices: tuple[EvtModel, ...]

    @cached_property
    def by_algebra(self) -> dict[FiniteAlgebra, EvtModel]:
        return {s.algebra: s for s in self.slices}


def make_rep(sig: EvtSignature, slices: Iterable[EvtModel]) -> ModelClassRep:
    return ModelClassRep(sig, tuple(sorted(slices, key=lambda s: s.algebra.describe())))


# ---------------------------------------------------------------------------
# flattening


@frozen(mutable=True)
class Flattened:
    """Sentence-level view of a spec, with hide-images as opaque constraints."""

    families: list[tuple[Formula, bool]] = field(default_factory=list)  # (formula, paired)
    variants: list[Term] = field(default_factory=list)
    sentences: list[EvtSentence] = field(default_factory=list)
    axioms: list[Formula] = field(default_factory=list)  # closed algebra filters
    constraints: list[tuple[ModelClassRep, EvtMorphism]] = field(default_factory=list)


def expand_families(fl: Flattened, sig: EvtSignature) -> list[EvtSentence]:
    """All concrete sentences of the flattening over the given signature's
    event set: invariant families pair before/after copies on every event,
    embedded axioms attach verbatim, variants constrain non-ordinary events."""
    out: list[EvtSentence] = list(fl.sentences)
    names = sig.var_names
    for f, paired in fl.families:
        body = F.And((f, prime_free_vars(f, names))) if paired else f
        for e in sig.event_names:
            out.append(EvtSentence(e, body))
    for n in fl.variants:
        primed = prime_free_vars(n, names)
        for e, st in sig.events:
            if st == Status.convergent:
                out.append(EvtSentence(e, PredApp("<", (primed, n))))
            elif st == Status.anticipated:
                out.append(EvtSentence(e, PredApp("<=", (primed, n))))
    return out


class Evaluator:
    """Computes bounded model classes of structured specifications."""

    def __init__(self, lib: Optional[SpecLibrary], bounds: Bounds):
        self.lib = lib
        self.bounds = bounds
        self._classes: dict = {}
        self._flats: dict = {}
        self._reducts: dict = {}

    def algebra_reduct(self, a: FiniteAlgebra, m: FopeqMorphism) -> FiniteAlgebra:
        """fopeq.algebra_reduct, computed once per Evaluator for each
        algebra and morphism."""
        key = (a, m)
        red = self._reducts.get(key)
        if red is None:
            red = self._reducts[key] = algebra_reduct(a, m)
        return red

    # -- flattening ---------------------------------------------------------

    def flatten(self, spec: Spec) -> Flattened:
        spec = self._resolve(spec)
        fl = self._flats.get(spec)
        if fl is None:
            fl = self._flats[spec] = self._flatten(spec)
        return fl

    def _flatten(self, spec: Spec) -> Flattened:
        if isinstance(spec, Presentation):
            return self._flat_contents(spec.flat)
        if isinstance(spec, Enrich):
            return _merge_flattened(self._lift(spec.child, spec),
                                    self._flat_contents(spec.flat))
        if isinstance(spec, Sum):
            return _merge_flattened(*(self._lift(p, spec) for p in spec.parts))
        if isinstance(spec, Embed):
            # a first-order flattening holds only its closed axioms, each
            # attached to every event as an unpaired family
            return self.flatten(spec.child)
        if isinstance(spec, Translate):
            child = self.flatten(spec.child)
            m = spec.morphism
            vmap = m.var_terms
            return Flattened(
                [(substitute(f, vmap, m.fopeq), paired) for f, paired in child.families],
                [substitute(t, vmap, m.fopeq) for t in child.variants],
                [translate_sentence(m, s) for s in child.sentences],
                [substitute(f, vmap, m.fopeq) for f in child.axioms],
                [(rep, evt_compose(m, tau)) for rep, tau in child.constraints])
        if isinstance(spec, Hide):
            rep = self._hide_image(self.model_class(spec.child), spec.morphism)
            fl = Flattened()
            fl.constraints.append((rep, evt_identity(rep.signature)))
            return fl
        raise SpecError(f"not a specification: {spec!r}")

    def _resolve(self, spec: Spec) -> Spec:
        """The spec, with a name (or a chain of them) replaced by the spec it
        names, so that a name and its definition share one memo entry."""
        while isinstance(spec, Named):
            if self.lib is None:
                raise SpecError(f"no library to resolve {spec.name}")
            spec = self.lib.lookup(spec.name)
        return spec

    def _lift(self, child: Spec, parent: Spec) -> Flattened:
        """The child's flattening, with its hide-image constraints re-targeted
        into the parent's signature.

        Formulas and sentences are name-based and stay valid under union;
        only the constraint morphisms need composing with the inclusion.
        """
        fl = self.flatten(child)
        if not fl.constraints:
            return fl
        small, big = sig_of(child, self.lib), sig_of(parent, self.lib)
        if small == big:
            return fl
        incl = evt_morphism(small, big)
        out = Flattened(list(fl.families), list(fl.variants),
                        list(fl.sentences), list(fl.axioms), [])
        for rep, tau in fl.constraints:
            out.constraints.append((rep, evt_compose(incl, tau)))
        return out

    def _flat_contents(self, flat: Flat) -> Flattened:
        out = Flattened()
        for f in flat.typing_formulas():
            out.families.append((f, True))
        for f in flat.invariants:
            out.families.append((f, True))
        for f in _dedupe(list(flat.axioms) + list(flat.constant_axioms())):
            out.axioms.append(f)
            out.families.append((f, False))
        if flat.variant is not None:
            out.variants.append(flat.variant)
        for ev in flat.events:
            name = INIT if ev.name == INIT else ev.name
            out.sentences.append(EvtSentence(name, ev.body()))
        return out

    # -- evaluation ---------------------------------------------------------

    def _embedded(self, spec: Spec) -> tuple[Spec, EvtSignature]:
        """The spec, embedded when it is first-order, and its signature."""
        sig = sig_of(spec, self.lib)
        if isinstance(sig, FopeqSignature):
            spec = Embed(spec)
            sig = sig_of(spec, self.lib)
        return spec, sig

    def sentences_of(self, spec: Spec) -> list[EvtSentence]:
        """The concrete sentence set at the spec's own signature."""
        spec, sig = self._embedded(spec)
        return expand_families(self.flatten(spec), sig)

    def model_class(self, spec: Spec) -> ModelClassRep:
        """The class of spec, computed once per Evaluator for a spec and
        every name that resolves to it."""
        spec = self._resolve(spec)
        rep = self._classes.get(spec)
        if rep is None:
            rep = self._classes[spec] = self._model_class(spec)
        return rep

    def _model_class(self, spec: Spec) -> ModelClassRep:
        spec, sig = self._embedded(spec)
        fl = self.flatten(spec)
        algebras = enumerate_algebras(sig.fopeq, self.bounds, axioms=fl.axioms)

        # planned at the first admitted algebra, so a class with none plans nothing
        plan = None
        slices = []
        # an orbit's first member's order and maxima, by orbit key
        orbits: dict[tuple, tuple] = {}
        for a in algebras:
            bounds = []
            for rep, tau in fl.constraints:
                sl = rep.by_algebra.get(self.algebra_reduct(a, tau.fopeq))
                if sl is None:
                    break  # the algebra is not admissible under this hide image
                bounds.append((tau, sl))
            else:
                if plan is None:
                    plan = ModelPlan(sig, expand_families(fl, sig))
                orbit = canonical_form(sig.fopeq, a) if sig.fopeq.sorts else None
                first = orbits.get(orbit[0]) if orbit else None
                if first is None:
                    l_max, r_max = maximal_model(plan, a, self.bounds)
                    if orbit:
                        orbits[orbit[0]] = orbit[1], l_max, r_max
                else:
                    # no sentence names an element, so the isomorphism from
                    # the orbit's first member carries its maxima onto a's
                    (was, l_max, r_max), now = first, orbit[1]
                    images = {s: dict(zip(was[s], now[s])) for s in now if was[s] != now[s]}
                    l_max, r_max = relabel(state_coding(sig, a), [s for _, s in sig.vars],
                                           images, l_max, r_max)
                if bounds:
                    l_max, r_max = restrict_along(
                        state_coding(sig, a), l_max, r_max, bounds)
                if l_max:
                    slices.append(EvtModel(sig, a, l_max, tuple(r_max.items())))
        return make_rep(sig, slices)

    # -- hiding -------------------------------------------------------------

    def _hide_image(self, rep: ModelClassRep, m: EvtMorphism) -> ModelClassRep:
        """The class of reducts along m, as maxima over the source signature.

        Maxima represent the image exactly when the event map is injective
        and algebras collapsing to the same reduct agree; both are verified,
        with no fallback beyond the checks (a refusal otherwise).
        """
        events = [m.apply_event(e) for e in m.source.non_init_events]
        if len(set(events)) != len(events):
            raise EnumerationLimit(
                "hiding along a non-injective event map does not preserve the "
                "maxima representation")
        grouped: dict[FiniteAlgebra, EvtModel] = {}
        for sl in rep.slices:
            candidate = model_reduct(m, sl, self.algebra_reduct(sl.algebra, m.fopeq))
            prior = grouped.setdefault(candidate.algebra, candidate)
            if prior != candidate:
                raise EnumerationLimit(
                    "hiding collapses algebras with different behaviour; the "
                    "image is not a single downward-closed class")
        return make_rep(m.source, grouped.values())


def _merge_flattened(*parts: Flattened) -> Flattened:
    out = Flattened()
    for name in ("families", "variants", "sentences", "axioms"):
        setattr(out, name, _dedupe([x for p in parts for x in getattr(p, name)]))
    out.constraints = [c for p in parts for c in p.constraints]
    return out


def _dedupe(items: list) -> list:
    seen = set()
    out = []
    for x in items:
        if x not in seen:
            seen.add(x)
            out.append(x)
    return out
