"""Refinement as model-class inclusion.

A declaration names an abstract and a concrete specification and a signature
morphism between them.  The refinement holds when every concrete model,
reduced along the morphism, is a model of the abstract specification; with
classes represented by per-algebra maxima this is a subset test on the maxima
(checked sound against literal enumeration in the test suite).
"""

from __future__ import annotations

from dataclasses import field
from typing import Optional

from .errors import SortError, SpecError
from .fopeq import algebra_reduct, frozen
from .institution import (
    INIT, EvtMorphism, EvtSignature, State, evt_compose, evt_identity,
)
from .specs import Evaluator, ModelClassRep, Spec, SpecLibrary, sig_of
from .sugar import RefinementText, build_morphism


@frozen
class RefinementDecl:
    name: str
    abstract: str
    concrete: str
    morphism: EvtMorphism  # abstract signature -> concrete signature


@frozen(mutable=True)
class Counterexample:
    algebra: str
    event: Optional[str]  # None: the algebra itself is not abstract-admissible
    before: Optional[State] = None
    after: Optional[State] = None

    def as_dict(self) -> dict:
        return {
            "algebra": self.algebra,
            "event": self.event,
            "before": None if self.before is None else dict(self.before),
            "after": None if self.after is None else dict(self.after),
        }


@frozen(mutable=True)
class RefinementVerdict:
    name: str
    holds: bool
    counterexample: Optional[Counterexample] = None
    stats: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "holds": self.holds,
            "counterexample": None if self.counterexample is None
            else self.counterexample.as_dict(),
            "stats": dict(self.stats),
        }


def resolve_refinement(
    rt: RefinementText,
    lib: SpecLibrary,
    allow_status_drop: bool = False,
    warnings: Optional[list[str]] = None,
) -> RefinementDecl:
    """Build the abstract-to-concrete morphism from a parsed declaration;
    unmapped symbols default to the identity.  With allow_status_drop an
    event map that lowers statuses is accepted, with one warning per lowered
    event."""
    abstract = lib.signature(rt.abstract)
    concrete = lib.signature(rt.concrete)
    if not isinstance(abstract, EvtSignature) or not isinstance(concrete, EvtSignature):
        raise SpecError(f"refinement {rt.name}: both sides must be machine specs")
    try:
        morphism = build_morphism(abstract, concrete, rt.maplets,
                                  check_status=not allow_status_drop)
    except (SortError, SpecError) as e:
        raise SpecError(f"refinement {rt.name}: {e}") from e
    for e, out in morphism.event_map:
        before, after = abstract.status(e), concrete.status(out)
        if after < before and warnings is not None:
            warnings.append(f"refinement {rt.name}: event map lowers the status of {e} "
                            f"({before} to {after}) (accepted, statuses ignored)")
    return RefinementDecl(rt.name, rt.abstract, rt.concrete, morphism)


def check_refinement_morphism(decl: RefinementDecl,
                              evaluator: Evaluator) -> RefinementVerdict:
    """Inclusion of the concrete class, reduced along the morphism, in the
    abstract class; per-algebra subset tests on the maxima."""
    lib = evaluator.lib
    rep_a = evaluator.model_class(lib.lookup(decl.abstract))
    rep_c = evaluator.model_class(lib.lookup(decl.concrete))
    return _check_inclusion(decl.name, rep_c, rep_a, decl.morphism, evaluator.algebra_reduct)


def check_refinement_same_sig(name: str, spec_a: Spec, spec_c: Spec,
                              evaluator: Evaluator) -> RefinementVerdict:
    sig_a = sig_of(spec_a, evaluator.lib)
    sig_c = sig_of(spec_c, evaluator.lib)
    if sig_a != sig_c:
        raise SpecError(f"refinement {name}: signatures differ")
    rep_a = evaluator.model_class(spec_a)
    rep_c = evaluator.model_class(spec_c)
    return _check_inclusion(name, rep_c, rep_a, evt_identity(sig_a), evaluator.algebra_reduct)


def _check_inclusion(name: str, rep_c: ModelClassRep, rep_a: ModelClassRep,
                     m: EvtMorphism, reduct=algebra_reduct) -> RefinementVerdict:
    """The inclusion test; reduct views a concrete algebra over m's source
    (an Evaluator's algebra_reduct computes each one once)."""
    algebras = 0
    pairs_checked = 0

    def verdict(cx: Optional[Counterexample] = None) -> RefinementVerdict:
        return RefinementVerdict(name, cx is None, cx,
                                 {"algebras": algebras, "pairs": pairs_checked})

    for sl in rep_c.slices:
        algebras += 1
        asl = rep_a.by_algebra.get(reduct(sl.algebra, m.fopeq))
        label = sl.algebra.describe()
        if asl is None:
            return verdict(Counterexample(label, None))
        red = sl.coding.reduct(m)
        # the counterexample is the least failing code, as a walk over the
        # codes in ascending (that is, sorted) order would meet it first;
        # pairs counts the walk up to it
        state, allowed = red.state, asl.init_codes
        failing = [c for c in sl.init_codes if state(c) not in allowed]
        if failing:
            first = min(failing)
            return verdict(Counterexample(label, INIT, after=red.source.decode(state(first))))
        pair = red.pair
        for e in m.source.non_init_events:
            rel, allowed = sl.code_map[m.apply_event(e)], asl.code_map[e]
            failing = [p for p in rel if pair(p) not in allowed]
            if failing:
                first = min(failing)
                pairs_checked += sum(1 for p in rel if p <= first)
                before, after = red.source.decode_pair(pair(first))
                return verdict(Counterexample(label, e, before=before, after=after))
            pairs_checked += len(rel)
    return verdict()


def compose_refinements(name: str, first: RefinementDecl,
                        second: RefinementDecl) -> RefinementDecl:
    """Chain a ⊑ b and b ⊑ c into a ⊑ c."""
    if first.concrete != second.abstract:
        raise SpecError("refinements do not chain")
    return RefinementDecl(
        name, first.abstract, second.concrete,
        evt_compose(second.morphism, first.morphism))
