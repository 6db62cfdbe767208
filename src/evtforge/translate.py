"""Translation of machines and contexts into structured specifications.

A context becomes a first-order spec (extended contexts summed, then the own
body).  A machine becomes: the seen contexts embedded, summed with the
abstract-machine import when the machine refines one, then enriched with the
sentences of its own body.

A component's signature is the one its spec tree gives: the signature of its
imports, looked up in the library, extended by its own declarations.  So a
context may extend, and a machine see, any first-order spec read before it.

The abstract import consists of the abstract invariants (re-expanded over the
concrete event set) plus, for every concrete event refining abstract ones, a
hide/rename slice of the abstract spec restricted to the refined events.
Slices whose event map is the identity are kept in the tree; the printer may
elide them.
"""

from __future__ import annotations

from dataclasses import field, replace
from typing import Optional, Sequence, Union

from .errors import SpecError
from .fopeq import EMPTY_SIGNATURE, FopeqSignature, Formula, fopeq_morphism, frozen
from .institution import INIT, EvtSignature, Status, evt_morphism
from .eventb import (
    ContextDef, EbSpecification, EventDef, LabelledPred, MachineDef, typing_of,
    typing_of_axiom,
)
from .mathlang import ElabContext, elab_formula, type_sort
from .specs import (
    Embed, Enrich, EventClauses, Flat, Hide, Named, Presentation, Spec,
    SpecLibrary, Translate, elab_at, elaborate_event, elaborate_variant,
    extend_fopeq_signature, extend_signature, sig_of, sum_all,
)

# the base signature of a machine that imports nothing
_NO_IMPORTS = EvtSignature()


@frozen(mutable=True)
class TranslationOutput:
    library: SpecLibrary = field(default_factory=SpecLibrary)
    order: list[tuple[str, str]] = field(default_factory=list)  # (kind, name)
    diagnostics: list[str] = field(default_factory=list)
    _invariant_formulas: dict[str, tuple[Formula, ...]] = field(default_factory=dict)


def translate(spec: EbSpecification,
              base: Optional[TranslationOutput] = None) -> TranslationOutput:
    """Translate every machine/context of the parsed input, left to right."""
    out = base or TranslationOutput()
    for item in spec.items:
        if isinstance(item, ContextDef):
            _translate_context(item, out)
        else:
            _translate_machine(item, out)
    return out


def _imported(lib: SpecLibrary, name: str,
              kind: str) -> Union[EvtSignature, FopeqSignature]:
    """The signature of the spec `name`, which a context extends or a machine
    sees (kind "context"), or a machine refines (kind "machine")."""
    if name not in lib.entries:
        raise SpecError(f"unknown {kind} {name}")
    sig = lib.signature(name)
    if isinstance(sig, EvtSignature) != (kind == "machine"):
        raise SpecError(f"{name} is not a {kind}")
    return sig


def _define(out: TranslationOutput, kind: str, name: str, imports: list[Spec],
            flat: Flat, sig) -> None:
    """Define the component as its imports enriched by flat, or as flat alone
    when it imports nothing; sig is the signature sig_of's rule gives it."""
    if imports:
        spec: Spec = Enrich(sum_all(imports), flat)
        out.library.remember(spec, sig)
    else:
        spec = Presentation(sig, flat)
    out.library.define(name, spec)
    out.order.append((kind, name))


# ---------------------------------------------------------------------------
# contexts


def _translate_context(c: ContextDef, out: TranslationOutput) -> None:
    for name in c.extends:
        _imported(out.library, name, "context")
    imports: list[Spec] = [Named(name) for name in c.extends]
    base = sig_of(sum_all(imports), out.library) if imports else EMPTY_SIGNATURE

    # one pass: an axiom types constants, is kept as a sentence, or both
    known_sorts = base.known_sorts.union(c.sets)
    ctypes = {}
    kept = []
    for ax in c.axioms:
        found, keep = typing_of_axiom(ax, c.constants, known_sorts)
        ctypes.update(found or {})
        if keep:
            kept.append(ax)
    for name in c.constants:
        if name not in ctypes:
            raise SpecError(f"context {c.name}: no typing axiom for constant {name}")
    declared = Flat(sorts=c.sets, constants=tuple((n, ctypes[n]) for n in c.constants))
    fsig = extend_fopeq_signature(base, declared)

    axioms = tuple(elab_at(f"{c.name}.{ax.label}", elab_formula, ax.pred, ElabContext(fsig))
                   for ax in kept)
    if c.theorems:
        out.diagnostics.append(
            f"context {c.name}: {len(c.theorems)} theorem(s) parsed and ignored")
    _define(out, "context", c.name, imports, replace(declared, axioms=axioms), fsig)


# ---------------------------------------------------------------------------
# machines


def _translate_machine(m: MachineDef, out: TranslationOutput) -> None:
    lib = out.library
    for name in m.sees:
        _imported(lib, name, "context")
    abstract = None if m.refines is None else _imported(lib, m.refines, "machine")
    imports: list[Spec] = [Embed(Named(name)) for name in m.sees]
    if abstract is not None:
        imports.insert(0, _invariant_import(m, abstract, out))
    base = sig_of(sum_all(imports), lib) if imports else _NO_IMPORTS

    declared, invariants = _declarations(m, base, abstract)
    sig = extend_signature(base, declared)
    ctx = ElabContext(sig.fopeq, vars=sig.vars, allow_primes=False)
    variant = None
    if m.variant is not None:
        variant = elaborate_variant(f"machine {m.name}", sig, m.variant)
    body = Flat(variables=declared.variables,
                invariants=tuple(elab_at(f"{m.name}.{inv.label}", elab_formula, inv.pred, ctx)
                                 for inv in invariants),
                variant=variant, events=tuple(_event_clauses(m, e, sig) for e in m.events))
    _record_invariants(m, body, out)
    if abstract is not None:
        imports.extend(_refinement_slices(m, abstract, sig))
    _define(out, "machine", m.name, imports, body, sig)
    if m.theorems:
        out.diagnostics.append(
            f"machine {m.name}: {len(m.theorems)} theorem(s) parsed and ignored")


def _declarations(m: MachineDef, base: EvtSignature, abstract: Optional[EvtSignature]
                  ) -> tuple[Flat, list[LabelledPred]]:
    """What the machine declares over its imports' signature: its typed
    variables and its events (its own, and the abstract events that no event
    refines, at their statuses), and apart from them the invariants that type
    no variable.  A variable the machine does not type keeps its abstract
    sort."""
    vtypes = {}
    invariants = []
    for inv in m.invariants:
        found = typing_of(inv.pred, m.variables, base.fopeq.known_sorts)
        if found is None:
            invariants.append(inv)
        elif found[0] in vtypes:
            raise SpecError(f"machine {m.name}: variable {found[0]} typed twice")
        else:
            vtypes[found[0]] = found[1]
    for v in m.variables:
        if v not in vtypes and v not in base.var_map:
            raise SpecError(f"machine {m.name}: no typing invariant for variable {v}")

    events = {INIT if e.is_init else e.name: Status.ordinary if e.is_init else e.status
              for e in m.events}
    if abstract is not None:
        refined = [ref for e in m.events for ref in e.refines]
        for ref in refined:
            if ref not in abstract.event_map:
                raise SpecError(f"machine {m.name}: refined event {ref} not in {m.refines}")
        for name, st in abstract.events:
            if name not in refined and name not in events:
                events[name] = st  # unrefined abstract events persist
    variables = tuple((v, vtypes[v]) for v in m.variables if v in vtypes)
    for v, te in variables:
        if v in base.var_map and type_sort(te, base.fopeq) != base.var_map[v]:
            raise SpecError(f"machine {m.name}: variable {v} changes sort in refinement")
    declared = Flat(variables=variables,
                    events=tuple(EventClauses(n, st) for n, st in events.items()))
    return declared, invariants


def _event_clauses(m: MachineDef, e: EventDef, sig: EvtSignature) -> EventClauses:
    """Event-B parameter rules, then the shared elaboration: a parameter may
    not shadow a variable, and an unannotated one takes its sort from the
    first typing-shaped guard."""
    where = f"{m.name}.{e.name}"
    known_sorts = sig.fopeq.all_sorts()
    params = []
    for name, te in e.params:
        if name in sig.var_map:
            raise SpecError(f"{where}: parameter {name} shadows a variable")
        typed = te
        if typed is None:
            found = (typing_of(g.pred, (name,), known_sorts) for g in e.guards)
            typed = next((t for _, t in filter(None, found)), None)
        if typed is None:
            raise SpecError(f"{where}: cannot infer a sort for parameter {name}")
        params.append((name, type_sort(typed, sig.fopeq), te))
    name = INIT if e.is_init else e.name
    return elaborate_event(
        where, sig, name, sig.status(name), params,
        [(g.label, g.pred) for g in e.guards], [(w.label, w.pred) for w in e.witnesses],
        [(a.label, a.var, a.kind, a.rhs) for a in e.actions])


# ---------------------------------------------------------------------------
# the abstract-machine import


def _record_invariants(m: MachineDef, body: Flat, out: TranslationOutput) -> None:
    """Remember the machine's effective invariant formulas (non-typing
    invariants plus typing constraints, own and inherited) for re-expansion
    over the event sets of later refinements."""
    inherited = () if m.refines is None else out._invariant_formulas[m.refines]
    own = body.typing_formulas() + body.invariants
    out._invariant_formulas[m.name] = tuple(dict.fromkeys(inherited + own))


def _invariant_import(m: MachineDef, abstract_sig: EvtSignature,
                      out: TranslationOutput) -> Spec:
    inherited = out._invariant_formulas.get(m.refines)
    if inherited is None:
        # a spec read from .evt text records no invariants to re-expand
        raise SpecError(f"machine {m.name}: {m.refines} is not a translated machine")
    inv_sig = EvtSignature(abstract_sig.fopeq, (), abstract_sig.vars)
    return Presentation(inv_sig, Flat(invariants=inherited, abstract_of=m.refines))


def _refinement_slices(m: MachineDef, abstract_sig: EvtSignature,
                       sig: EvtSignature) -> list[Spec]:
    slices: list[Spec] = []
    refined: set[str] = {INIT}
    # every slice shares the first-order parts of its two morphisms
    fopeq_h = fopeq_morphism(abstract_sig.fopeq, abstract_sig.fopeq)
    fopeq_m = fopeq_morphism(abstract_sig.fopeq, sig.fopeq)

    def make_slice(abstract_events: Sequence[str], concrete: str) -> Spec:
        hidden = EvtSignature(
            abstract_sig.fopeq,
            tuple((e, Status.ordinary) for e in abstract_events),
            abstract_sig.vars)
        sigma_h = evt_morphism(hidden, abstract_sig, first_order=fopeq_h)
        sigma_m = evt_morphism(hidden, sig, events={
            e: concrete for e in abstract_events if e != INIT}, first_order=fopeq_m)
        return Translate(Hide(Named(m.refines), sigma_h), sigma_m)

    slices.append(make_slice((INIT,), INIT))
    for e in m.events:
        if e.is_init:
            continue
        if e.refines:
            refined.update(e.refines)
            slices.append(make_slice(tuple(e.refines), e.name))
    # abstract events nobody refines persist with their sentences
    for name in abstract_sig.non_init_events:
        if name not in refined:
            slices.append(make_slice((name,), name))
    return slices
