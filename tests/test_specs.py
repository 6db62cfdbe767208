import itertools
from dataclasses import fields, is_dataclass

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from evtforge import specs
from evtforge.cli import main
from evtforge.errors import EnumerationLimit, SortError, SpecError
from evtforge.eventb import parse_text
from evtforge.fopeq import (
    FALSE, And, Bounds, Equal, FopeqSignature, INT, IntLit, Not, Op, OpApp, PredApp, Var,
    fopeq_identity, fopeq_morphism, fopeq_pushout,
)
from evtforge.institution import (
    INIT, EvtMorphism, EvtSignature, Status, comorphism_sign, evt_identity,
    evt_morphism, evt_pushout, model_reduct,
)
from evtforge.mathlang import ElabContext, NatType, parse_formula_text
from evtforge.specs import (
    ActionClause, Embed, Enrich, Evaluator, EventClauses, Flat, Hide, Named,
    Presentation, SpecLibrary, Sum, Translate, sig_of,
)
from evtforge.sugar import parse_document, print_library, print_spec
from evtforge.translate import TranslationOutput, translate
from tests.conftest import FIXTURES, load_fixture, parse_term_text
from tests.reference_eval import enumerate_models, make_state, rep_contains

B3 = Bounds(int_bound=3)


def counter_presentation(guard="n < d", extra=()):
    """One-variable machine over a pinned-or-free constant d."""
    fsig = FopeqSignature(ops=(Op("d", (), INT),))
    ctx = ElabContext(fsig, vars=(("n", INT),))
    flat = Flat(
        variables=(("n", NatType()),),
        invariants=(parse_formula_text("n ≤ d", ctx),) + tuple(
            parse_formula_text(f, ctx) for f in extra),
        events=(
            EventClauses(INIT, Status.ordinary, actions=(
                ActionClause("n", ":=", term=parse_term_text("0", ctx)),)),
            EventClauses("up", Status.ordinary,
                         guards=(parse_formula_text(guard, ctx),),
                         actions=(ActionClause(
                             "n", ":=", term=parse_term_text("n + 1", ctx)),)),
        ),
    )
    sig = EvtSignature(fsig, (("up", Status.ordinary),), (("n", INT),))
    return Presentation(sig, flat)


class TestSigOf:
    def test_embed_signature(self, bridge):
        sig = sig_of(Embed(Named("cd")), bridge.library)
        assert sig.event_names == (INIT,)
        assert sig.vars == ()
        assert {o.name for o in sig.fopeq.ops} == {"d"}

    def test_sum_of_disjoint_presentations(self):
        a = EvtSignature(events=(("e", Status.ordinary),), vars=(("x", INT),))
        b = EvtSignature(events=(("f", Status.ordinary),), vars=(("y", INT),))
        pa = Presentation(a, Flat())
        pb = Presentation(b, Flat())
        merged = sig_of(Sum((pa, pb)), None)
        assert set(merged.event_names) == {INIT, "e", "f"}
        assert merged.var_map == {"x": INT, "y": INT}

    def test_morphism_endpoints_must_match_children(self):
        a = EvtSignature(events=(("e", Status.ordinary),), vars=(("x", INT),))
        b = EvtSignature(events=(("f", Status.ordinary),), vars=(("y", INT),))
        ren = EvtMorphism(a, b, fopeq_identity(FopeqSignature()),
                          ((INIT, INIT), ("e", "f")), (("x", "y"),))
        with pytest.raises(SpecError):
            sig_of(Translate(Presentation(b, Flat()), ren), None)
        with pytest.raises(SpecError):
            sig_of(Hide(Presentation(a, Flat()), ren), None)
        lib = SpecLibrary()
        for bad in (Translate(Presentation(b, Flat()), ren),
                    Hide(Presentation(a, Flat()), ren)):
            # a failed check is not memoised: it raises on every call
            for _ in range(2):
                with pytest.raises(SpecError):
                    sig_of(bad, lib)
            with pytest.raises(SpecError):
                lib.define("bad", bad)
            assert "bad" not in lib.names()
            with pytest.raises(SpecError, match="unknown specification bad"):
                lib.signature("bad")

    def test_sum_conflicting_profiles_rejected(self):
        a = EvtSignature(vars=(("x", INT),))
        b = EvtSignature(FopeqSignature(sorts=("S",)), (), (("x", "S"),))
        with pytest.raises(SortError):
            sig_of(Sum((Presentation(a, Flat()), Presentation(b, Flat()))), None)

    @pytest.mark.parametrize("files", [
        ("ebm0.eb", "modularm1.evt"),
        ("ebm0.eb", "ebm1.eb", "ebm2.eb", "refinements.evt"),
        ("genins.evt",),
        ("decomp.eb", "decomp_se.evt", "decomp_sv.evt"),
    ])
    def test_memoised_signatures_match_a_fresh_computation(self, files):
        out = TranslationOutput()
        for name in files:
            if name.endswith(".evt"):
                parse_document(load_fixture(name), out.library)
            else:
                out = translate(parse_text(load_fixture(name)), out)
        lib = out.library
        # Named nodes resolve through a library: a fresh one whose memo
        # holds only what sig_of's rules computed
        fresh = SpecLibrary()
        for name, spec in lib.entries.items():
            fresh.define(name, spec)
        assert lib._sigs
        for spec, sig in lib._sigs.items():
            assert sig_of(spec, fresh) == sig

    def test_hide_gives_source(self, bridge):
        lib = SpecLibrary()
        out = translate(parse_text(load_fixture("decomp.eb")))
        parse_document(load_fixture("decomp_sv.evt"), out.library)
        m1 = out.library.lookup("M1")
        sig = sig_of(m1, out.library)
        assert set(sig.var_names) == {"v1", "v2"}
        assert set(sig.event_names) == {INIT, "e1", "e2", "e3_e"}


# -- the merge rule: one per layer, whatever builds the signature -------------

MERGE_LIBRARY = """
spec a =
  ops x : BOOL
  events
    e ordinary
end

spec b =
  events
    e convergent
end

spec g =
  events
    g convergent
end

spec zx =
  ops x : ℤ
  events
    f ordinary
end

spec zy =
  ops y : ℤ
  events
    f ordinary
end

spec c1 =
  sorts S
  ops k : S
end

spec c2 =
  ops k : ℤ
end

spec c3 =
  sorts S
  ops k : S
end

spec cj =
  ops j : ℤ
end

spec ct =
  sorts T
  ops m : T
end
"""

# the body of spec t, per entry point and case; "meet" joins a sort and a
# constant, which the renaming does by merging T, m into the existing S, k
# as genins.evt merges S1, C1 into ctx2_S1, ctx2_C1
SUGAR_MERGES = {
    "sum": {"status": "a and b", "var_sort": "a and zx",
            "op_profile": "c1 and c2", "meet": "c1 and c3"},
    "then": {"status": "a then events e convergent", "var_sort": "a then ops x : ℤ",
             "op_profile": "c1 then ops k : ℤ", "meet": "c1 then sorts S ops k : S"},
    "with": {"status": "(a and g) with {g ↦ e}",
             "var_sort": "(a and zy) with {y ↦ x}",
             "op_profile": "(c1 and cj and a) with {j ↦ k}",
             "meet": "(c1 and ct and a) with {T ↦ S, m ↦ k}"},
}
# a pushout of profile-preserving maps never makes symbols of different
# profiles meet, so pushouts cover the status join and a meet only
MERGE_CASES = [(entry, case) for entry, cases in SUGAR_MERGES.items() for case in cases] + [
    ("evt_pushout", "status"), ("evt_pushout", "meet"), ("fopeq_pushout", "meet")]


def _merged(entry: str, case: str):
    if entry in SUGAR_MERGES:
        lib = SpecLibrary()
        parse_document(f"{MERGE_LIBRARY}\nspec t =\n  {SUGAR_MERGES[entry][case]}\nend\n", lib)
        return lib.signature("t")
    if case == "status":
        base = EvtSignature(events=(("e", Status.ordinary),))
        conv = EvtSignature(events=(("e", Status.convergent),))
        return evt_pushout(evt_identity(base), evt_morphism(base, conv))[0]
    base = FopeqSignature(("S",), (Op("k", (), "S"),))
    other = FopeqSignature(("T",), (Op("m", (), "T"),))
    if entry == "fopeq_pushout":
        return fopeq_pushout(fopeq_identity(base),
                             fopeq_morphism(base, other, {"S": "T"}, {"k": "m"}))[0]
    base, other = comorphism_sign(base), comorphism_sign(other)
    return evt_pushout(evt_identity(base),
                       evt_morphism(base, other, sorts={"S": "T"}, ops={"k": "m"}))[0]


@pytest.mark.parametrize("entry, case", MERGE_CASES, ids=lambda x: x)
def test_merge_rule(entry, case):
    if case == "var_sort":
        with pytest.raises(SortError, match="variable x gets conflicting sorts"):
            _merged(entry, case)
    elif case == "op_profile":
        with pytest.raises(SortError, match="operation k gets conflicting profiles"):
            _merged(entry, case)
    elif case == "status":
        assert _merged(entry, case).status("e") == Status.convergent
    else:
        sig = _merged(entry, case)
        fsig = sig.fopeq if isinstance(sig, EvtSignature) else sig
        assert (fsig.sorts, fsig.ops) == (("S",), (Op("k", (), "S"),))


class TestModOf:
    def test_m0_admissible_constants(self, bridge):
        ev = Evaluator(bridge.library, B3)
        rep = ev.model_class(bridge.library.lookup("m0"))
        assert [sl.algebra.constant("d") for sl in rep.slices] == [1, 2, 3]
        d2 = [sl for sl in rep.slices if sl.algebra.constant("d") == 2][0]
        assert dict(d2.rel)["ML_out"] == {
            (make_state({"n": 0}), make_state({"n": 1})),
            (make_state({"n": 1}), make_state({"n": 2}))}

    def test_empty_presentation_allows_everything(self):
        sig = EvtSignature(events=(("e", Status.ordinary),),
                           vars=(("b", "Bool"),))
        rep = Evaluator(None, B3).model_class(Presentation(sig, Flat()))
        sl = rep.slices[0]
        assert len(sl.init) == 2
        assert len(dict(sl.rel)["e"]) == 4

    def test_embed_models_have_singleton_init(self, bridge):
        ev = Evaluator(bridge.library, B3)
        rep = ev.model_class(Embed(Named("cd")))
        assert [sl.algebra.constant("d") for sl in rep.slices] == [1, 2, 3]
        for sl in rep.slices:
            assert sl.init == frozenset({()})
            assert sl.rel == ()

    def test_hide_image_is_reduct_of_behaviour(self):
        out = translate(parse_text(load_fixture("decomp.eb")))
        parse_document(load_fixture("decomp_sv.evt"), out.library)
        ev = Evaluator(out.library, Bounds(int_bound=1))
        repM = ev.model_class(out.library.lookup("M"))
        rep1 = ev.model_class(out.library.lookup("M1"))
        sl = rep1.slices[0]
        # e3_e is the reduct of M's e3 onto {v1, v2}
        m1_spec = out.library.lookup("M1")
        hide = m1_spec.child
        reduced = {
            (tuple((k, v) for k, v in s if k in ("v1", "v2")),
             tuple((k, v) for k, v in t if k in ("v1", "v2")))
            for s, t in dict(ev.model_class(out.library.lookup("M")).slices[0].rel)["e3"]}
        assert dict(sl.rel)["e3_e"] == reduced

    def test_hide_refuses_non_injective_event_maps(self):
        sig = EvtSignature(events=(("e", Status.ordinary), ("f", Status.ordinary)),
                           vars=(("b", "Bool"),))
        spec = Presentation(sig, Flat())
        small = EvtSignature(events=(("a1", Status.ordinary), ("a2", Status.ordinary)),
                             vars=(("b", "Bool"),))
        m = EvtMorphism(small, sig, fopeq_identity(FopeqSignature()),
                        ((INIT, INIT), ("a1", "e"), ("a2", "e")), (("b", "b"),))
        with pytest.raises(EnumerationLimit):
            Evaluator(None, B3).model_class(Hide(spec, m))

    def test_ceiling_reports_offender(self):
        sig = EvtSignature(events=(("e", Status.ordinary),), vars=(("x", INT),))
        with pytest.raises(EnumerationLimit):
            Evaluator(None, Bounds(int_bound=3, pair_ceiling=5)).model_class(
                Presentation(sig, Flat()))


def test_refine_plans_each_spec_with_an_admitted_algebra_once(monkeypatch):
    # refine of the bridge chain at --bound 4 with d free: m0, m1 and m2
    # admit an algebra, each is planned once and its plan run once per
    # admitted algebra; the refining machines' imports Named("m0") and
    # Named("m1") reuse the classes of the definitions they name
    plans, runs, admitted = [], [], []
    plan_class, run, enumerate_algebras = specs.ModelPlan, specs.maximal_model, specs.enumerate_algebras

    def counted_plan(sig, sentences):
        plans.append(plan_class(sig, sentences))
        return plans[-1]

    def counted_run(plan, algebra, bounds):
        runs.append(plan)
        return run(plan, algebra, bounds)

    def counted_algebras(*args, **kwargs):
        admitted.append(enumerate_algebras(*args, **kwargs))
        return admitted[-1]

    monkeypatch.setattr(specs, "ModelPlan", counted_plan)
    monkeypatch.setattr(specs, "maximal_model", counted_run)
    monkeypatch.setattr(specs, "enumerate_algebras", counted_algebras)
    res = CliRunner().invoke(main, [
        "refine", *(str(FIXTURES / n) for n in ("ebm0.eb", "ebm1.eb", "ebm2.eb", "refinements.evt")),
        "--bound", "4", "--allow-status-drop"])
    assert res.exit_code == 0, res.output
    assert (len(plans), len(runs)) == (3, 16)
    assert len(plans) == sum(1 for algebras in admitted if algebras)
    assert [id(p) for p in plans] == list(dict.fromkeys(id(p) for p in runs))


def test_a_name_and_its_definition_share_one_class(bridge):
    lib = bridge.library
    ev = Evaluator(lib, B3)
    assert ev.model_class(Named("m0")) is ev.model_class(lib.lookup("m0"))
    # a chain of names resolves to the spec at its end
    aliases = SpecLibrary()
    aliases.define("c", counter_presentation())
    aliases.define("b", Named("c"))
    aliases.define("a", Named("b"))
    ev = Evaluator(aliases, B3)
    assert ev.model_class(Named("a")) is ev.model_class(aliases.lookup("c"))
    assert ev.model_class(aliases.lookup("a")) is ev.model_class(Named("b"))


@pytest.mark.parametrize("with_library, message", [
    (True, "unknown specification zz"), (False, "no library to resolve zz")])
def test_unknown_name_keeps_its_refusal(bridge, with_library, message):
    ev = Evaluator(bridge.library if with_library else None, B3)
    with pytest.raises(SpecError, match=f"^{message}$"):
        ev.model_class(Named("zz"))
    with pytest.raises(SpecError, match=f"^{message}$"):
        ev.flatten(Named("zz"))


def test_class_with_no_admitted_algebra_builds_no_plan(monkeypatch):
    # the invariant names z, which the signature lacks: planning refuses it,
    # but an axiom that no algebra satisfies leaves nothing to plan
    sig = EvtSignature(events=(("e", Status.ordinary),), vars=(("x", INT),))
    stray = Flat(invariants=(Equal(Var("z"), IntLit(0)),))
    with pytest.raises(SortError, match="unbound variable z$"):
        Evaluator(None, B3).model_class(Presentation(sig, stray))
    plans = []
    plan_class = specs.ModelPlan
    monkeypatch.setattr(specs, "ModelPlan", lambda *args: plans.append(plan_class(*args)))
    unsatisfiable = Flat(axioms=(Equal(IntLit(0), IntLit(1)),),
                         invariants=stray.invariants)
    rep = Evaluator(None, B3).model_class(Presentation(sig, unsatisfiable))
    assert rep.slices == () and plans == []


def test_conjunct_no_pool_reads_is_still_refused_when_uninterpreted():
    # the guard FALSE leaves e nothing to read, so no run compiles x = k;
    # the plan still refuses k, which the signature lacks
    sig = EvtSignature(events=(("e", Status.ordinary),), vars=(("x", INT),))
    guards = (FALSE, Equal(Var("x"), OpApp("k")))
    pres = Presentation(sig, Flat(events=(EventClauses("e", guards=guards),)))
    with pytest.raises(SortError, match="^operation k not interpreted$"):
        Evaluator(None, B3).model_class(pres)


class TestOperatorLaws:
    def test_sum_idempotent(self, bridge):
        ev = Evaluator(bridge.library, B3)
        m0 = bridge.library.lookup("m0")
        assert ev.model_class(Sum((m0, m0))) == ev.model_class(m0)

    def test_sum_commutative(self, bridge):
        ev = Evaluator(bridge.library, B3)
        m0 = Named("m0")
        cd = Embed(Named("cd"))
        assert ev.model_class(Sum((m0, cd))) == ev.model_class(Sum((cd, m0)))

    def test_bijective_translate_then_hide_is_identity(self):
        pres = counter_presentation()
        sig = sig_of(pres, None)
        tgt = EvtSignature(sig.fopeq, (("down", Status.ordinary),), (("m", INT),))
        ren = EvtMorphism(sig, tgt, fopeq_identity(sig.fopeq),
                          ((INIT, INIT), ("up", "down")), (("n", "m"),))
        ev = Evaluator(None, Bounds(int_bound=3, pins=(("d", 2),)))
        rep = ev.model_class(pres)
        back = ev.model_class(Hide(Translate(pres, ren), ren))
        assert back == rep

    def test_bijective_translate_preserves_counts(self):
        pres = counter_presentation()
        sig = sig_of(pres, None)
        tgt = EvtSignature(sig.fopeq, (("down", Status.ordinary),), (("m", INT),))
        ren = EvtMorphism(sig, tgt, fopeq_identity(sig.fopeq),
                          ((INIT, INIT), ("up", "down")), (("n", "m"),))
        ev = Evaluator(None, Bounds(int_bound=3, pins=(("d", 2),)))
        rep = ev.model_class(pres)
        renamed = ev.model_class(Translate(pres, ren))
        assert len(renamed.slices) == len(rep.slices)
        for a, b in zip(rep.slices, renamed.slices):
            assert len(a.init) == len(b.init)
            assert sorted(len(p) for _, p in a.rel) == \
                sorted(len(p) for _, p in b.rel)

    def test_non_injective_translate_forces_coincidence(self):
        # identifying two variables: every model interprets them equally
        src_sig = EvtSignature(events=(("e", Status.ordinary),),
                               vars=(("x", "Bool"), ("y", "Bool")))
        pres = Presentation(src_sig, Flat())
        tgt = EvtSignature(events=(("e", Status.ordinary),), vars=(("z", "Bool"),))
        m = EvtMorphism(src_sig, tgt, fopeq_identity(FopeqSignature()),
                        ((INIT, INIT), ("e", "e")), (("x", "z"), ("y", "z")))
        ev = Evaluator(None, B3)
        rep = ev.model_class(Translate(pres, m))
        sl = rep.slices[0]
        assert len(sl.init) == 2 and len(dict(sl.rel)["e"]) == 4

    def test_non_injective_event_translate_synchronises(self):
        out = translate(parse_text(load_fixture("decomp.eb")))
        parse_document(load_fixture("decomp_se.evt"), out.library)
        lib = out.library
        ev = Evaluator(lib, Bounds(int_bound=1))
        se_sum = Sum((lib.lookup("N1"), lib.lookup("N2")))
        sig_se = sig_of(se_sum, lib)
        sigM = sig_of(lib.lookup("M"), lib)
        ev_map = {e: e for e, _ in sig_se.events}
        ev_map["e2_1"] = "e2"
        ev_map["e2_2"] = "e2"
        import evtforge.fopeq as F
        tau = EvtMorphism(sig_se, sigM,
                          F.FopeqMorphism(sig_se.fopeq, sigM.fopeq, (), (), ()),
                          tuple(ev_map.items()),
                          tuple((v, v) for v, _ in sig_se.vars))
        assert ev.model_class(Translate(se_sum, tau)) == ev.model_class(lib.lookup("M"))


CAPTURE = """
spec a =
  ops x : ℤ
  events
    e ordinary
      any p : ℤ
      when p > x
      thenAct x := p
end
spec b =
  a with {x ↦ p}
end
"""

SHADOW = """
spec a =
  ops x : ℤ
  events
    e ordinary
      any x : ℤ
      when x > 0
      thenAct x := x
end
spec b =
  a with {x ↦ y}
end
"""


class TestRenameAvoidsCapture:
    """Renaming the one state variable x of a to `new` gives b exactly a's
    maxima with x renamed, whatever the event parameter is called."""

    def renamed_maxima(self, text, new):
        lib = SpecLibrary()
        parse_document(text, lib)
        ev = Evaluator(lib, Bounds(int_bound=1))
        (a,) = ev.model_class(lib.lookup("a")).slices
        (b,) = ev.model_class(lib.lookup("b")).slices

        def ren(s):
            return tuple((new, v) for _, v in s)

        assert b.init == frozenset(map(ren, a.init))
        assert dict(b.rel)["e"] == frozenset((ren(s), ren(t)) for s, t in dict(a.rel)["e"])
        return dict(a.rel)["e"]

    def test_parameter_named_like_the_image(self):
        assert len(self.renamed_maxima(CAPTURE, "p")) == 3

    def test_primed_variable_under_a_parameter_of_its_name(self):
        assert len(self.renamed_maxima(SHADOW, "y")) == 3


class TestIndependentOracle:
    def test_m1_relation_against_handwritten_brute_force(self, bridge):
        """The evaluator's maxima for the first refinement equal a brute
        force over all variable assignments with the constraints restated
        by hand (not derived from the translation pipeline)."""
        ev = Evaluator(bridge.library, Bounds(int_bound=3, pins=(("d", 2),)))
        sl = ev.model_class(bridge.library.lookup("m1")).slices[0]

        def ok_state(n, a, b, c):
            return (0 <= n <= 2 and a >= 0 and b >= 0 and c >= 0
                    and n == a + b + c and (a == 0 or c == 0))

        def pairs(event_rule):
            out = set()
            for n, a, b, c in itertools.product(range(0, 4), repeat=4):
                if not ok_state(n, a, b, c):
                    continue
                for n2, a2, b2, c2 in itertools.product(range(0, 4), repeat=4):
                    if not ok_state(n2, a2, b2, c2):
                        continue
                    if event_rule(n, a, b, c, n2, a2, b2, c2):
                        out.add((make_state({"n": n, "a": a, "b": b, "c": c}),
                                 make_state({"n": n2, "a": a2, "b": b2, "c": c2})))
            return frozenset(out)

        def variant(a, b):
            # bounded arithmetic: results escaping -3..3 are undefined and
            # make the comparison atom false
            twice = 2 * a
            if abs(twice) > 3:
                return None
            total = twice + b
            return total if abs(total) <= 3 else None

        def decreases(a, b, a2, b2):
            lhs, rhs = variant(a2, b2), variant(a, b)
            return lhs is not None and rhs is not None and lhs < rhs

        ml_out = pairs(lambda n, a, b, c, n2, a2, b2, c2:
                       n < 2 and n2 == n + 1          # abstract event
                       and a + b < 2 and c == 0 and a2 == a + 1)
        il_in = pairs(lambda n, a, b, c, n2, a2, b2, c2:
                      a > 0 and a2 == a - 1 and b2 == b + 1
                      and decreases(a, b, a2, b2))    # variant decrease
        il_out = pairs(lambda n, a, b, c, n2, a2, b2, c2:
                       0 < b and a == 0 and b2 == b - 1 and c2 == c + 1
                       and decreases(a, b, a2, b2))
        ml_in = pairs(lambda n, a, b, c, n2, a2, b2, c2:
                      n > 0 and n2 == n - 1           # abstract event
                      and c > 0 and c2 == c - 1)
        rel = dict(sl.rel)
        assert rel["ML_out"] == ml_out
        assert rel["IL_in"] == il_in
        assert rel["IL_out"] == il_out
        assert rel["ML_in"] == ml_in
        assert sl.init == frozenset(
            {make_state({"n": 0, "a": 0, "b": 0, "c": 0})})


class TestMaximalModelReduct:
    def test_reduct_of_refined_maxima_forgets_new_variables(self, bridge):
        """Viewing the refined machine's maximal model through the abstract
        signature restricts every state pointwise to the abstract variable."""
        lib = bridge.library
        sig_a = lib.signature("m0")
        sig_c = lib.signature("m1")
        incl = evt_morphism(
            EvtSignature(sig_a.fopeq,
                         tuple((e, s) for e, s in sig_a.events),
                         sig_a.vars),
            sig_c)
        ev = Evaluator(lib, Bounds(int_bound=3, pins=(("d", 2),)))
        sl = ev.model_class(lib.lookup("m1")).slices[0]
        from evtforge.institution import make_model
        model = make_model(sig_c, sl.algebra, sl.init,
                           {e: p for e, p in sl.rel})
        reduced = model_reduct(incl, model)

        def restrict(s):
            return tuple((k, v) for k, v in s if k == "n")

        assert reduced.init == {restrict(s) for s in sl.init}
        for e in ("ML_out", "ML_in"):
            assert dict(reduced.rel)[e] == {
                (restrict(s), restrict(t)) for s, t in dict(sl.rel)[e]}


class TestTrivialShapes:
    def test_true_invariant_pairs_with_every_event(self):
        src = """
machine t
  variables v
  invariants ty: v ∈ BOOL
             iv: 1 > 0
  events
    event Initialisation thenAct a: v := FALSE end
    event e status ordinary when g: v = TRUE end
end"""
        out = translate(parse_text(src))
        ev = Evaluator(out.library, B3)
        sents = ev.sentences_of(out.library.lookup("t"))
        from evtforge.fopeq import And, PredApp
        family = [s for s in sents if isinstance(s.body, And)
                  and s.body.parts[0] == s.body.parts[1]]
        assert {s.event for s in family} == {INIT, "e"}

    def test_actionless_initialisation_gives_true_sentence(self):
        src = """
machine t
  variables v
  invariants ty: v ∈ BOOL
  events
    event Initialisation end
    event e status ordinary when g: v = TRUE end
end"""
        out = translate(parse_text(src))
        ev = Evaluator(out.library, B3)
        from evtforge.fopeq import TRUE
        init_bodies = [s.body for s in ev.sentences_of(out.library.lookup("t"))
                       if s.event == INIT]
        assert TRUE in init_bodies
        rep = ev.model_class(out.library.lookup("t"))
        assert len(rep.slices[0].init) == 2  # initial state unconstrained


class TestBecomesSuchThat:
    def test_nondeterministic_action_relation(self):
        src = """
machine nd
  variables v
  invariants t: v ∈ {0, 1, 2}
  events
    event Initialisation thenAct a: v :| v′ ≤ 1
    end
    event grow status ordinary thenAct a: v :| v′ > v
    end
end"""
        out = translate(parse_text(src))
        ev = Evaluator(out.library, B3)
        sl = ev.model_class(out.library.lookup("nd")).slices[0]
        assert sl.init == frozenset({make_state({"v": 0}), make_state({"v": 1})})
        assert dict(sl.rel)["grow"] == frozenset({
            (make_state({"v": 0}), make_state({"v": 1})),
            (make_state({"v": 0}), make_state({"v": 2})),
            (make_state({"v": 1}), make_state({"v": 2})),
        })


class TestModularEquivalence:
    def test_hand_modularised_m1_equals_translation(self, bridge):
        lib = bridge.library
        if "m1mod" not in lib.names():
            parse_document(load_fixture("modularm1.evt"), lib)
        ev = Evaluator(lib, Bounds(int_bound=3, pins=(("d", 2),)))
        assert ev.model_class(lib.lookup("m1mod")) == \
            ev.model_class(lib.lookup("m1"))


class TestSugar:
    def test_print_parse_print_idempotent(self, bridge):
        full = print_library(bridge.library, bridge.order)
        lib2 = SpecLibrary()
        specs, _ = parse_document(full, lib2)
        again = print_library(lib2, [("spec", n) for n, _ in specs])
        assert again == full

    def test_idempotence_covers_hide_and_rename_shapes(self):
        out = translate(parse_text(load_fixture("decomp.eb")))
        lib = out.library
        parse_document(load_fixture("decomp_sv.evt"), lib)
        parse_document(load_fixture("decomp_se.evt"), lib)
        parse_document(load_fixture("genins.evt"), lib)  # a renamed sum
        # a renaming of an identity-renamed hide: nothing inside it is elided
        parse_document(
            "spec nest_a =\n  ops x : ℤ\n  events\n    e ordinary\n"
            "      thenAct x := 0\nend\n"
            "spec nest_b =\n"
            "  ((nest_a hide via {x ↦ x, e ↦ e}) with {}) with {e ↦ f}\nend\n", lib)
        # flat, nested and event-only `and` groups, first-order parts embedded
        parse_document(load_fixture("sums.evt"), lib)
        # an identity slice that no bare import of its spec stands beside is
        # printed, not elided
        parse_document("spec t =\n  (a hide via {}) with {}\nend\n", lib)
        order = [("spec", n) for n in lib.names()]
        full = print_library(lib, order)
        assert "  ((c1 and cj) and a) with {" in full
        assert "spec t =\n  (a hide via {}) with {}\nend\n" in full
        lib2 = SpecLibrary()
        specs, _ = parse_document(full, lib2)
        again = print_library(lib2, [("spec", n) for n, _ in specs])
        assert again == full
        for name, spec in specs:
            assert sig_of(spec, lib2) == lib.signature(name), name

    def test_no_elide_output_reparses_equivalently(self, bridge):
        from evtforge.sugar import print_library as plib
        full = plib(bridge.library, bridge.order, elide_identity=False)
        assert "hide via" in full
        lib2 = SpecLibrary()
        specs, _ = parse_document(full, lib2)
        # the explicit identity slices survive a reparse-and-reprint cycle
        again = plib(lib2, [("spec", n) for n, _ in specs], elide_identity=False)
        assert again == full
        # and the reparsed library evaluates to the same m0 class
        ev1 = Evaluator(bridge.library, Bounds(int_bound=3, pins=(("d", 2),)))
        ev2 = Evaluator(lib2, Bounds(int_bound=3, pins=(("d", 2),)))
        assert ev1.model_class(bridge.library.lookup("m0")) == \
            ev2.model_class(lib2.lookup("m0"))

    def test_fully_empty_presentation(self):
        lib = SpecLibrary()
        text = print_spec("nothing", Presentation(FopeqSignature(), Flat()), lib)
        assert text == "spec nothing =\nend\n"
        parse_document(text, lib)
        assert print_spec("nothing", lib.lookup("nothing"), lib) == text

    def test_empty_presentation_prints_and_parses(self):
        lib = SpecLibrary()
        specs, _ = parse_document(
            "spec tiny =\n  ops k : ℤ\nend\n", lib)
        (name, spec), = specs
        text = print_spec(name, spec, lib)
        lib2 = SpecLibrary()
        parse_document(text, lib2)
        assert print_spec("tiny", lib2.lookup("tiny"), lib2) == text

    def test_modular_fixture_shape(self, bridge):
        lib = bridge.library
        if "m1mod" not in lib.names():
            parse_document(load_fixture("modularm1.evt"), lib)
        m1mod = lib.lookup("m1mod")
        assert isinstance(m1mod, Enrich)
        leaves = []

        def walk(s):
            if isinstance(s, Sum):
                for p in s.parts:
                    walk(p)
            else:
                leaves.append(s)

        walk(m1mod.child)
        assert sum(isinstance(l, Translate) for l in leaves) == 2
        assert sig_of(m1mod, lib) == lib.signature("m1")

    def test_generic_instantiation(self, fixtures_dir):
        lib = SpecLibrary()
        parse_document(load_fixture("genins.evt"), lib)
        sig = sig_of(lib.lookup("maci"), lib)
        assert sig.fopeq.sorts == ("ctx2_S1",)
        assert {o.name for o in sig.fopeq.ops} == {"ctx2_C1"}
        assert set(sig.event_names) == {INIT, "ctx2_ev1"}
        ev = Evaluator(lib, Bounds(int_bound=1, carrier_sizes=(
            ("ctx2_S1", 1), ("S1", 1))))
        rep = ev.model_class(lib.lookup("maci"))
        assert len(rep.slices) == 1

    def test_refinement_blocks_coexist_with_specs(self):
        lib = SpecLibrary()
        specs, refs = parse_document(load_fixture("refinements.evt"), lib)
        assert [r.name for r in refs] == ["REF0", "REF1A", "REF1B"]
        assert specs == []

    def test_unknown_reference_rejected(self):
        lib = SpecLibrary()
        with pytest.raises(SpecError):
            parse_document("spec x =\n  nowhere\nend\n", lib)


# -- print∘parse on random spec terms -----------------------------------------

# the leaves of the terms: sums.evt's first-order specs (no events) and event
# specs (their events)
_TERM_LEAVES = {"c1": None, "cj": None, "a": ("e",), "b": ("e",), "c": ("f",)}
_TERM_EVENTS = ("e", "f", "g", "h")


@st.composite
def _spec_terms(draw, depth=3):
    """(text, events) of a random import term over sums.evt; events is None
    for a first-order term.  Terms are `and` groups, with a `then` part or
    not, event renamings and hidings onto event subsets."""
    kind = draw(st.sampled_from(("leaf", "group", "with", "hide") if depth else ("leaf",)))
    if kind == "leaf":
        name = draw(st.sampled_from(sorted(_TERM_LEAVES)))
        return name, _TERM_LEAVES[name]
    if kind == "group":
        parts = draw(st.lists(_spec_terms(depth - 1), min_size=2, max_size=3))
        text = " and ".join(t for t, _ in parts)
        if draw(st.booleans()):
            ext = draw(_spec_terms(depth - 1))
            parts.append(ext)
            text += f" then {ext[0]}"
        found = [es for _, es in parts if es is not None]
        return f"({text})", (tuple(sorted(set().union(*found))) if found else None)
    inner, events = draw(_spec_terms(depth - 1).filter(lambda t: t[1] is not None))
    if kind == "with":
        renamed = {e: draw(st.sampled_from(_TERM_EVENTS)) for e in events
                   if draw(st.booleans())}
        maplets = ", ".join(f"{a} ↦ {b}" for a, b in renamed.items())
        return (f"{inner} with {{{maplets}}}",
                tuple(sorted({renamed.get(e, e) for e in events})))
    kept = [e for e in events if draw(st.booleans())]
    maplets = ", ".join(f"{e} ↦ {e}" for e in kept)
    return f"({inner} hide via {{{maplets}}})", tuple(sorted(kept))


_TERM_LIBRARY = load_fixture("sums.evt")


@pytest.mark.oracle
@given(st.lists(_spec_terms(), min_size=1, max_size=3))
@settings(max_examples=150, deadline=None)
def test_print_parse_is_the_identity_on_random_spec_terms(terms):
    lib = SpecLibrary()
    chain = " and\n  ".join(t for t, _ in terms)
    parse_document(f"{_TERM_LIBRARY}\nspec t =\n  {chain}\nend\n", lib)
    for elide in (True, False):
        printed = print_spec("t", lib.lookup("t"), lib, elide)
        again = SpecLibrary()
        parse_document(_TERM_LIBRARY, again)
        (_, spec), = parse_document(printed, again)[0]
        assert print_spec("t", spec, again, elide) == printed
        assert sig_of(spec, again) == lib.signature("t")


class TestEnumerateModels:
    def test_counts_and_membership(self):
        pres = counter_presentation()
        ev = Evaluator(None, Bounds(int_bound=3, pins=(("d", 1),)))
        rep = ev.model_class(pres)
        sl = rep.slices[0]
        total = (2 ** len(sl.init) - 1) * 2 ** len(dict(sl.rel)["up"])
        models = list(enumerate_models(rep))
        assert len(models) == total
        assert all(rep_contains(rep, m) for m in models)

    def test_limit_guard(self):
        sig = EvtSignature(events=(("e", Status.ordinary),), vars=(("x", INT),))
        rep = Evaluator(None, B3).model_class(Presentation(sig, Flat()))
        with pytest.raises(EnumerationLimit):
            list(enumerate_models(rep, limit=10))


# -- hash-once values -------------------------------------------------------


def _values(x):
    """Every dataclass value in x, x first, through its fields and tuples."""
    if isinstance(x, tuple):
        for y in x:
            yield from _values(y)
    elif is_dataclass(x):
        yield x
        for f in fields(x):
            yield from _values(getattr(x, f.name))


def _deep_formula(depth=60):
    f = Equal(Var("x"), IntLit(0))
    for i in range(depth):
        f = And((Not(f), PredApp("<", (Var("x", True), OpApp("+", (Var("y"), IntLit(i)))))))
    return f


@pytest.mark.parametrize("which", ["formula", "spec"])
def test_hashing_a_tree_again_visits_its_root_alone(bridge, monkeypatch, which):
    """Once a tree is hashed, hashing it again and finding it in a memo keyed
    on it call __hash__ on the root only: no node below recomputes its field
    hash, so a memo lookup costs the same on a deep tree as on a leaf."""
    tree = _deep_formula() if which == "formula" else bridge.library.lookup("m2")
    memo = {tree: "hit"}
    assert len(list(_values(tree))) > 300
    hashed = []
    for cls in {type(v) for v in _values(tree)}:
        def counted(self, original=cls.__hash__):
            hashed.append(self)
            return original(self)
        monkeypatch.setattr(cls, "__hash__", counted)
    hash(tree)
    assert memo[tree] == "hit"
    assert len(hashed) == 2 and all(v is tree for v in hashed)
