import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from evtforge.errors import SpecError
from evtforge.eventb import parse_text
from evtforge.fopeq import (
    BOOL, Bounds, FopeqSignature, INT, Op, algebra_reduct, enumerate_algebras,
    make_algebra,
)
from evtforge.institution import (
    INIT, EvtSentence, EvtSignature, Status, evt_identity, evt_morphism,
    make_model, reduce_state, satisfies,
)
from evtforge.mathlang import ElabContext, parse_formula_text
from evtforge.refinement import (
    _check_inclusion, check_refinement_morphism, check_refinement_same_sig,
    compose_refinements, resolve_refinement,
)
from evtforge.specs import Evaluator, Flat, Presentation, SpecLibrary, make_rep, sig_of
from evtforge.sugar import parse_document
from evtforge.translate import translate
from tests.conftest import load_fixture, parse_term_text
from tests.reference_eval import enumerate_states, literal_inclusion, make_state

B3 = Bounds(int_bound=3)


def guard_presentation(body_text, fam_text=None):
    """Single event over one integer variable; the body becomes its guard."""
    from evtforge.specs import ActionClause, EventClauses

    fsig = FopeqSignature(ops=(Op("d", (), INT),))
    sig = EvtSignature(fsig, (("e", Status.ordinary),), (("n", INT),))
    ctx = ElabContext(fsig, vars=sig.vars)
    events = (
        EventClauses(INIT, Status.ordinary, actions=(
            ActionClause("n", ":=", term=parse_term_text("0", ctx)),)),
        EventClauses("e", Status.ordinary,
                     guards=(parse_formula_text(body_text, ctx),)),
    )
    invariants = (parse_formula_text(fam_text, ctx),) if fam_text else ()
    return Presentation(sig, Flat(events=events, invariants=invariants))


class TestSameSignature:
    def test_reflexive(self):
        sp = guard_presentation("n < d ∧ n′ = n + 1")
        ev = Evaluator(None, Bounds(int_bound=3, pins=(("d", 2),)))
        v = check_refinement_same_sig("ID", sp, sp, ev)
        assert v.holds

    def test_guard_strengthening_holds(self):
        spa = guard_presentation("n < d ∧ n′ = n + 1")
        spc = guard_presentation("n < d ∧ n > 0 ∧ n′ = n + 1")
        ev = Evaluator(None, Bounds(int_bound=3, pins=(("d", 2),)))
        assert check_refinement_same_sig("STRONGER", spa, spc, ev).holds

    def test_guard_weakening_fails_at_the_bound(self):
        # abstract guard n < d, concrete n <= d: the pair (d, d+1) escapes
        spa = guard_presentation("n < d ∧ n′ = n + 1")
        spc = guard_presentation("n ≤ d ∧ n′ = n + 1")
        ev = Evaluator(None, Bounds(int_bound=3, pins=(("d", 2),)))
        v = check_refinement_same_sig("WEAKER", spa, spc, ev)
        assert not v.holds
        c = v.counterexample
        assert c.event == "e"
        assert dict(c.before)["n"] == 2 and dict(c.after)["n"] == 3

    def test_signature_mismatch_rejected(self):
        spa = guard_presentation("n < d ∧ n′ = n + 1")
        other_sig = EvtSignature(
            FopeqSignature(ops=(Op("d", (), INT),)),
            (("f", Status.ordinary),), (("n", INT),))
        spc = Presentation(other_sig, Flat())
        ev = Evaluator(None, B3)
        with pytest.raises(SpecError):
            check_refinement_same_sig("BAD", spa, spc, ev)


_LAMP_MACHINES = """
machine ma
  variables lamp_status
  invariants
    inv1: lamp_status ∈ BOOL
  events
    event Initialisation
      thenAct act1: lamp_status := TRUE
    end
end

machine mc
  variables y
  invariants
    inv1: y ∈ ℕ
  events
    event Initialisation
      thenAct act1: y := 0
    end
end
"""


@pytest.fixture(scope="module")
def chain(bridge):
    lib = bridge.library
    _, refs = parse_document(load_fixture("refinements.evt"), lib)
    return lib, refs


class TestDeclarations:
    def test_three_declarations_parse(self, chain):
        lib, refs = chain
        assert [r.name for r in refs] == ["REF0", "REF1A", "REF1B"]
        decl = resolve_refinement(refs[0], lib)
        assert decl.morphism.apply_event("ML_out") == "ML_out"
        assert decl.morphism.apply_event(INIT) == INIT
        assert decl.morphism.apply_var("n") == "n"  # identity default

    def test_identity_declaration_holds(self, chain):
        lib, refs = chain
        from evtforge.sugar import RefinementText
        rt = RefinementText("SELF", "m0", "m0", ())
        decl = resolve_refinement(rt, lib)
        ev = Evaluator(lib, Bounds(int_bound=3, pins=(("d", 2),)))
        assert check_refinement_morphism(decl, ev).holds

    def test_unknown_event_rejected(self, chain):
        lib, refs = chain
        from evtforge.sugar import Maplet, RefinementText
        rt = RefinementText("BAD", "m0", "m1", (Maplet("ML_out", "nowhere"),))
        with pytest.raises(SpecError):
            resolve_refinement(rt, lib)

    def test_status_drop_needs_the_flag(self, chain):
        lib, refs = chain
        with pytest.raises(SpecError):
            resolve_refinement(refs[1], lib)
        warnings = []
        decl = resolve_refinement(refs[1], lib, allow_status_drop=True,
                                  warnings=warnings)
        # one warning per lowered event
        assert len(warnings) == 2 and all("status" in w for w in warnings)
        assert "of IL_in " in warnings[0] and "of IL_out " in warnings[1]
        assert decl.morphism.apply_event("IL_out") == "IL_out1"

    def test_sort_error_is_not_taken_for_a_status_drop(self):
        # the variable's name contains "status", but the failure is its sort
        out = translate(parse_text(_LAMP_MACHINES))
        _, (rt,) = parse_document(
            "refinement R : ma to mc =\n  lamp_status ↦ y\nend\n", out.library)
        warnings = []
        with pytest.raises(SpecError, match=r"^refinement R: .*sort of lamp_status"):
            resolve_refinement(rt, out.library, allow_status_drop=True,
                               warnings=warnings)
        assert warnings == []


class TestChain:
    def test_ref0_holds(self, chain):
        lib, refs = chain
        for d in (1, 2):
            ev = Evaluator(lib, Bounds(int_bound=3, pins=(("d", d),)))
            decl = resolve_refinement(refs[0], lib)
            v = check_refinement_morphism(decl, ev)
            assert v.holds, f"REF0 at d={d}: {v.counterexample}"

    def test_ref1_both_splits_hold(self, chain):
        lib, refs = chain
        ev = Evaluator(lib, Bounds(int_bound=3, pins=(("d", 2),)))
        for rt in refs[1:]:
            decl = resolve_refinement(rt, lib, allow_status_drop=True, warnings=[])
            v = check_refinement_morphism(decl, ev)
            assert v.holds, f"{rt.name}: {v.counterexample}"

    def test_transitivity_by_composition(self, chain):
        lib, refs = chain
        ev = Evaluator(lib, Bounds(int_bound=3, pins=(("d", 2),)))
        d0 = resolve_refinement(refs[0], lib)
        d1 = resolve_refinement(refs[1], lib, allow_status_drop=True, warnings=[])
        composed = compose_refinements("REF0_1A", d0, d1)
        assert composed.abstract == "m0" and composed.concrete == "m2"
        assert check_refinement_morphism(composed, ev).holds

    def test_weakened_machine_fails_with_replayable_counterexample(self, bridge):
        out = translate(parse_text(load_fixture("ebm0_weak.eb")), bridge)
        lib = out.library
        from evtforge.sugar import RefinementText
        rt = RefinementText("REFW", "m0", "m0w", ())
        decl = resolve_refinement(rt, lib)
        ev = Evaluator(lib, Bounds(int_bound=3, pins=(("d", 2),)))
        v = check_refinement_morphism(decl, ev)
        assert not v.holds
        c = v.counterexample
        # replay: a model carrying just the offending pair violates some
        # abstract sentence for that event
        abstract = lib.lookup("m0")
        sig = sig_of(abstract, lib)
        sents = [s for s in ev.sentences_of(abstract) if s.event == c.event]
        d2 = [sl for sl in ev.model_class(abstract).slices
              if sl.algebra.describe() == c.algebra][0]
        model = make_model(sig, d2.algebra, [make_state({"n": 0})],
                           {c.event: {(c.before, c.after)},
                            **{e: set() for e in sig.non_init_events if e != c.event}})
        assert not all(satisfies(model, s) for s in sents)


class TestCheckerSensitivity:
    def test_wrong_event_map_fails(self, chain):
        # mapping the abstract ML_out onto an unrelated concrete event must
        # fail: the checker is not vacuously true on translated chains
        lib, refs = chain
        from evtforge.sugar import Maplet, RefinementText
        rt = RefinementText("WRONG", "m1", "m2", (
            Maplet("ML_in", "ML_in"), Maplet("ML_out", "ML_tl_green"),
            Maplet("IL_in", "IL_in"), Maplet("IL_out", "IL_out1")))
        decl = resolve_refinement(rt, lib, allow_status_drop=True, warnings=[])
        ev = Evaluator(lib, Bounds(int_bound=3, pins=(("d", 2),)))
        v = check_refinement_morphism(decl, ev)
        assert not v.holds
        assert v.counterexample.event == "ML_out"


class TestMaximaShortcutSoundness:
    def test_agrees_with_literal_enumeration(self):
        """Maxima-inclusion equals literal class enumeration on every guard
        pair from a small family (state spaces of at most 6 states)."""
        guards = [
            "n < d ∧ n′ = n + 1",
            "n ≤ d ∧ n′ = n + 1",
            "n < d ∧ n′ = n + 1 ∧ n > 0",
            "n ≥ 0 ∧ n′ = 0",
            "n′ = n",
            "n < d ∧ n′ ≤ n + 1",
        ]
        bounds = Bounds(int_bound=2, pins=(("d", 1),))
        ev = Evaluator(None, bounds)
        checked = 0
        for ga, gc in itertools.product(guards, repeat=2):
            spa = guard_presentation(ga, fam_text="n ≤ d ∧ n ≥ 0")
            spc = guard_presentation(gc, fam_text="n ≤ d ∧ n ≥ 0")
            verdict = check_refinement_same_sig("X", spa, spc, ev)
            repa = ev.model_class(spa)
            repc = ev.model_class(spc)
            ident = evt_identity(sig_of(spa, None))
            literal = literal_inclusion(repc, repa, ident)
            assert verdict.holds == literal, (ga, gc)
            checked += 1
        assert checked == 36


def _sorted_walk(rep_c, rep_a, m):
    """The inclusion check as a literal walk over every slice's sorted
    initial states and sorted pairs, event by event: the first item whose
    reduct the abstract maximum lacks, as (event, before, after), or None,
    and the pairs walked."""
    red, pairs = functools.partial(reduce_state, m=m), 0
    for sl in rep_c.slices:
        asl = rep_a.by_algebra.get(algebra_reduct(sl.algebra, m.fopeq))
        if asl is None:
            return (None, None, None), pairs
        for s in sorted(sl.init):
            if red(s) not in asl.init:
                return (INIT, None, red(s)), pairs
        rel, arel = dict(sl.rel), dict(asl.rel)
        for e in m.source.non_init_events:
            for s, t in sorted(rel[m.apply_event(e)]):
                pairs += 1
                if (red(s), red(t)) not in arel[e]:
                    return (e, red(s), red(t)), pairs
    return None, pairs


def _walked(verdict):
    cx = verdict.counterexample
    return (None if cx is None else (cx.event, cx.before, cx.after)), verdict.stats["pairs"]


def test_counterexample_is_the_first_failing_pair_of_a_sorted_walk():
    # a1 holds; a2 fails on its last four pairs in sorted order, from (0, 1)
    sig = EvtSignature(events=(("a1", Status.ordinary), ("a2", Status.ordinary)),
                       vars=(("n", INT),))
    alg = make_algebra(FopeqSignature(), 1, {}, {})
    state = {v: make_state({"n": v}) for v in (-1, 0, 1)}
    every = {(state[a], state[b]) for a in state for b in state}
    allowed = {(s, t) for s, t in every if s == state[-1]} | {
        (state[0], state[-1]), (state[0], state[0])}
    abstract = make_model(sig, alg, [state[0]], {"a1": every, "a2": allowed})
    concrete = make_model(sig, alg, [state[0]], {
        "a1": {(state[-1], state[0]), (state[0], state[0]), (state[1], state[1])},
        "a2": every})
    rep_c, rep_a = make_rep(sig, [concrete]), make_rep(sig, [abstract])
    verdict = _check_inclusion("P", rep_c, rep_a, evt_identity(sig))
    assert not verdict.holds
    assert _walked(verdict) == _sorted_walk(rep_c, rep_a, evt_identity(sig)) == (
        ("a2", state[0], state[1]), 3 + 6)


# -- the maxima shortcut against literal inclusion, along morphisms ----------

_U_SIG = FopeqSignature(sorts=("U",), ops=(Op("k", (), "U"),))
_U_ALGEBRAS = enumerate_algebras(_U_SIG, Bounds(int_bound=1, carrier_sizes=(("U", 2),)))


@st.composite
def _inclusion_problems(draw):
    """A concrete and an abstract class, each the maxima on one or two of
    the algebras k=U0 and k=U1, and a morphism abstract -> concrete that may
    send both abstract events to one concrete event and that leaves concrete
    variables and events outside its image.

    Concrete maxima hold up to two items whose reducts lie in the abstract
    maximum and, when strays are on, one item drawn from all of them, so both
    verdicts come up; a class has at most 2 * 7 * 2**9 models, well under
    enumerate_models' limit."""
    a_vars = (("x", BOOL),) + ((("u", "U"),) if draw(st.booleans()) else ())
    var_map = {v: v + "c" for v, _ in a_vars} if draw(st.booleans()) else {}
    c_vars = tuple((var_map.get(v, v), s) for v, s in a_vars)
    c_vars += (("z", BOOL),) if draw(st.booleans()) else ()
    c_events = ("c1", "c2") + (("c3",) if draw(st.booleans()) else ())
    ev_map = {"a1": "c1", "a2": draw(st.sampled_from(["c1", "c2"]))}
    abstract = EvtSignature(_U_SIG, (("a1", Status.ordinary), ("a2", Status.ordinary)), a_vars)
    concrete = EvtSignature(_U_SIG, tuple((e, Status.ordinary) for e in c_events), c_vars)
    m = evt_morphism(abstract, concrete, ev_map, var_map)
    red = functools.partial(reduce_state, m=m)
    stray = draw(st.integers(0, 1))

    def some(items, lo, hi):
        if not items:
            return frozenset()
        return frozenset(draw(st.lists(st.sampled_from(items), min_size=lo, max_size=hi)))

    def algebras():
        picks = draw(st.lists(st.sampled_from(range(len(_U_ALGEBRAS))),
                              min_size=1, max_size=2, unique=True))
        return [_U_ALGEBRAS[i] for i in picks]

    a_models = {}
    for alg in algebras():
        states = enumerate_states(abstract, alg)
        pairs = list(itertools.product(states, states))
        a_models[alg] = make_model(abstract, alg, some(states, 1, 3),
                                   {e: some(pairs, 0, 3) for e in ("a1", "a2")})
    c_models = []
    for alg in algebras():
        am = a_models.get(algebra_reduct(alg, m.fopeq))
        states = enumerate_states(concrete, alg)
        pairs = list(itertools.product(states, states))
        init = some([s for s in states if am is None or red(s) in am.init], 0, 2)
        init = (init | some(states, 0, stray)) or some(states, 1, 1)
        rel, arel = [], {} if am is None else dict(am.rel)
        for c in c_events:
            inside = [(s, t) for s, t in pairs if am is None or all(
                (red(s), red(t)) in arel[e] for e in m.preimages[c])]
            rel.append((c, some(inside, 0, 2) | some(pairs, 0, stray)))
        c_models.append(make_model(concrete, alg, init, dict(rel)))
    return make_rep(concrete, c_models), make_rep(abstract, a_models.values()), m


@pytest.mark.oracle
@given(_inclusion_problems())
@settings(max_examples=200, deadline=None)
def test_maxima_shortcut_matches_literal_inclusion(problem):
    """Criterion 12 beyond the identity: the per-algebra subset test on the
    maxima gives the verdict of enumerating every concrete model, and a
    counterexample is the reduct of a concrete item outside the abstract
    maximum."""
    rep_c, rep_a, m = problem
    verdict = _check_inclusion("P", rep_c, rep_a, m)
    assert verdict.holds == literal_inclusion(rep_c, rep_a, m)
    assert _walked(verdict) == _sorted_walk(rep_c, rep_a, m)
    if verdict.holds:
        return
    cx, red = verdict.counterexample, functools.partial(reduce_state, m=m)
    (sl,) = [s for s in rep_c.slices if s.algebra.describe() == cx.algebra]
    asl = rep_a.by_algebra.get(algebra_reduct(sl.algebra, m.fopeq))
    if cx.event is None:
        assert asl is None
    elif cx.event == INIT:
        assert cx.after in set(map(red, sl.init)) - asl.init
    else:
        images = {(red(s), red(t)) for s, t in dict(sl.rel)[m.apply_event(cx.event)]}
        assert (cx.before, cx.after) in images - dict(asl.rel)[cx.event]
