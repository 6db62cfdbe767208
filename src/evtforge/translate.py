"""Translation of machines and contexts into structured specifications.

A context becomes a first-order spec (extended contexts summed, then the own
body).  A machine becomes: the seen contexts embedded, summed with the
abstract-machine import when the machine refines one, then enriched with the
sentences of its own body.

The abstract import consists of the abstract invariants (re-expanded over the
concrete event set) plus, for every concrete event refining abstract ones, a
hide/rename slice of the abstract spec restricted to the refined events.
Slices whose event map is the identity are kept in the tree; the printer may
elide them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import SpecError
from .fopeq import Formula, fopeq_morphism
from .institution import INIT, EvtSignature, Status, evt_morphism
from .eventb import (
    ContextDef, EbSpecification, Environment, EventDef, MachineDef,
    build_env, typing_of, typing_of_axiom,
)
from .mathlang import ElabContext, elab_formula, type_sort
from .specs import (
    Embed, Enrich, EventClauses, Flat, Hide, Named, Presentation, Spec,
    SpecLibrary, Translate, elab_at, elaborate_event,
    elaborate_variant, sig_of, sum_all,
)


@dataclass
class TranslationOutput:
    library: SpecLibrary = field(default_factory=SpecLibrary)
    env: Environment = field(default_factory=Environment)
    order: list[tuple[str, str]] = field(default_factory=list)  # (kind, name)
    diagnostics: list[str] = field(default_factory=list)
    _invariant_formulas: dict[str, tuple[Formula, ...]] = field(default_factory=dict)


def translate(spec: EbSpecification,
              base: Optional[TranslationOutput] = None) -> TranslationOutput:
    """Translate every machine/context of the parsed input, left to right."""
    out = base or TranslationOutput()
    out.env = build_env(spec, out.env)
    for item in spec.items:
        if isinstance(item, ContextDef):
            _translate_context(item, out)
        else:
            _translate_machine(item, out)
    return out


# ---------------------------------------------------------------------------
# contexts


def _translate_context(c: ContextDef, out: TranslationOutput) -> None:
    fsig = out.env.fopeq(c.name)
    kept = [ax for ax in c.axioms
            if typing_of_axiom(ax, c.constants, fsig.all_sorts())[1]]
    axioms = tuple(elab_at(f"{c.name}.{ax.label}", elab_formula, ax.pred, ElabContext(fsig))
                   for ax in kept)
    if c.theorems:
        out.diagnostics.append(
            f"context {c.name}: {len(c.theorems)} theorem(s) parsed and ignored")

    ctypes = out.env.constant_types[c.name]
    own_constants = tuple((n, ctypes[n]) for n in c.constants)
    flat = Flat(sorts=c.sets, constants=own_constants, axioms=axioms)
    if c.extends:
        spec: Spec = Enrich(sum_all([Named(n) for n in c.extends]), flat)
    else:
        spec = Presentation(fsig, flat)
    if sig_of(spec, out.library) != fsig:
        raise SpecError(f"context {c.name}: translated signature mismatch")
    out.library.define(c.name, spec)
    out.order.append(("context", c.name))


# ---------------------------------------------------------------------------
# machines


def _translate_machine(m: MachineDef, out: TranslationOutput) -> None:
    sig = out.env.evt(m.name)
    body = _machine_body_flat(m, sig, out)
    _record_invariants(m, body, out)

    imports: list[Spec] = []
    if m.refines is not None:
        imports.append(_invariant_import(m, out))
    imports.extend(Embed(Named(ctx)) for ctx in m.sees)
    if m.refines is not None:
        imports.extend(_refinement_slices(m, sig, out))

    if imports:
        spec: Spec = Enrich(sum_all(imports), body)
    else:
        spec = Presentation(sig, body)
    if sig_of(spec, out.library) != sig:
        raise SpecError(
            f"machine {m.name}: translated signature disagrees with extraction")
    out.library.define(m.name, spec)
    out.order.append(("machine", m.name))
    if m.theorems:
        out.diagnostics.append(
            f"machine {m.name}: {len(m.theorems)} theorem(s) parsed and ignored")


def _machine_body_flat(m: MachineDef, sig: EvtSignature,
                       out: TranslationOutput) -> Flat:
    vtypes = out.env.var_types[m.name]
    own_vars = tuple((v, vtypes[v]) for v in m.variables if v in vtypes)
    for v in m.variables:
        if v not in vtypes and m.refines is None:
            raise SpecError(f"machine {m.name}: variable {v} has no typing invariant")

    base = ElabContext(sig.fopeq, vars=sig.vars, allow_primes=False)
    known_sorts = sig.fopeq.all_sorts()
    invariants = tuple(elab_at(f"{m.name}.{inv.label}", elab_formula, inv.pred, base)
                       for inv in m.invariants
                       if not typing_of(inv.pred, m.variables, known_sorts))
    variant = None
    if m.variant is not None:
        variant = elaborate_variant(f"machine {m.name}", sig, m.variant)
    events = tuple(_event_clauses(m, e, sig) for e in m.events)
    return Flat(variables=own_vars, invariants=invariants,
                variant=variant, events=events)


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
    inherited: tuple[Formula, ...] = ()
    if m.refines is not None:
        if m.refines not in out._invariant_formulas:
            raise SpecError(f"abstract machine {m.refines} was not translated here")
        inherited = out._invariant_formulas[m.refines]
    own = body.typing_formulas() + body.invariants
    seen: list[Formula] = []
    for f in inherited + own:
        if f not in seen:
            seen.append(f)
    out._invariant_formulas[m.name] = tuple(seen)


def _invariant_import(m: MachineDef, out: TranslationOutput) -> Spec:
    abstract_sig = out.env.evt(m.refines)
    inv_sig = EvtSignature(abstract_sig.fopeq, (), abstract_sig.vars)
    flat = Flat(invariants=out._invariant_formulas[m.refines],
                abstract_of=m.refines)
    return Presentation(inv_sig, flat)


def _refinement_slices(m: MachineDef, sig: EvtSignature,
                       out: TranslationOutput) -> list[Spec]:
    abstract_sig = out.env.evt(m.refines)
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
