import pytest

from evtforge.errors import SortError, SpecError
from evtforge.eventb import parse_text
from evtforge.fopeq import Bounds, INT, free_vars
from evtforge.institution import INIT, Status
from evtforge.mathlang import parse_formula_text, unparse_formula, ElabContext
from evtforge.specs import Enrich, Evaluator, Named, SpecLibrary, Sum, _sig_rule, sig_of
from evtforge.sugar import parse_document, print_library
from evtforge.translate import translate
from tests.conftest import FIXTURES, load_fixture
from tests.reference_eval import canonical, make_state

B3 = Bounds(int_bound=3)


def canon_sentences(sentences):
    return {(s.event, unparse_formula(canonical(s.body))) for s in sentences}


@pytest.fixture(scope="module")
def m0_view(bridge):
    ev = Evaluator(bridge.library, B3)
    return ev.sentences_of(bridge.library.lookup("m0"))


class TestSentenceTranslation:
    def test_m0_sentence_set(self, m0_view):
        got = canon_sentences(m0_view)
        events = ["Init", "ML_in", "ML_out"]
        expected = set()
        for e in events:
            expected.add((e, "d > 0"))
            expected.add((e, "n ≤ d ∧ n′ ≤ d"))
            expected.add((e, "n ≥ 0 ∧ n′ ≥ 0"))
        expected |= {
            ("Init", "n′ = 0"),
            ("ML_out", "n < d ∧ n′ = n + 1"),
            ("ML_in", "n > 0 ∧ n′ = n - 1"),
        }
        assert got == expected

    def test_invariant_families_cover_all_events(self, bridge):
        ev = Evaluator(bridge.library, B3)
        sents = ev.sentences_of(bridge.library.lookup("m1"))
        sig = sig_of(bridge.library.lookup("m1"), bridge.library)
        per_event = {}
        for s in sents:
            per_event.setdefault(unparse_formula(canonical(s.body)), set()).add(s.event)
        fam = per_event["(a = 0 ∨ c = 0) ∧ (a′ = 0 ∨ c′ = 0)"]
        assert fam == set(sig.event_names)
        assert len(sig.event_names) == 5

    def test_variant_sentences_for_convergent_events(self, bridge):
        ev = Evaluator(bridge.library, B3)
        sents = ev.sentences_of(bridge.library.lookup("m1"))
        variant = [(s.event, unparse_formula(s.body)) for s in sents
                   if "2 * a" in unparse_formula(s.body)]
        assert set(variant) == {
            ("IL_in", "2 * a′ + b′ < 2 * a + b"),
            ("IL_out", "2 * a′ + b′ < 2 * a + b"),
        }

    def test_variant_sentences_for_anticipated_events(self, bridge):
        ev = Evaluator(bridge.library, B3)
        sents = ev.sentences_of(bridge.library.lookup("m2"))
        variant = [(s.event, unparse_formula(s.body)) for s in sents
                   if "ml_pass′ + il_pass′" in unparse_formula(s.body)]
        assert set(variant) == {
            ("ML_tl_green", "ml_pass′ + il_pass′ ≤ ml_pass + il_pass"),
            ("IL_tl_green", "ml_pass′ + il_pass′ ≤ ml_pass + il_pass"),
        }

    def test_all_ordinary_machine_has_no_variant_sentences(self, bridge):
        ev = Evaluator(bridge.library, B3)
        sents = ev.sentences_of(bridge.library.lookup("m0"))
        assert not any("<" in unparse_formula(s.body)
                       and "′" in unparse_formula(s.body)
                       and "d" not in unparse_formula(s.body)
                       for s in sents)

    def test_init_sentence_shape(self, m0_view):
        init_bodies = {unparse_formula(canonical(s.body))
                       for s in m0_view if s.event == INIT}
        assert "n′ = 0" in init_bodies

    def test_event_bodies_closed_except_state_vars(self, bridge):
        ev = Evaluator(bridge.library, B3)
        sig = sig_of(bridge.library.lookup("m2"), bridge.library)
        allowed = set(sig.var_names)
        for s in ev.sentences_of(bridge.library.lookup("m2")):
            for name, _ in free_vars(s.body):
                assert name in allowed  # parameters never escape their quantifier


class TestParameters:
    def test_params_become_existentials(self):
        src = """
machine pm
  variables v
  invariants t: v ∈ ℕ
  events
    event Initialisation thenAct a: v := 0 end
    event e
      status ordinary
      any p
      when g1: p ∈ ℕ g2: v + p ≤ 2
      thenAct a1: v := v + p
    end
end"""
        out = translate(parse_text(src))
        ev = Evaluator(out.library, B3)
        sents = [s for s in ev.sentences_of(out.library.lookup("pm"))
                 if s.event == "e" and "∃" in unparse_formula(s.body)]
        assert len(sents) == 1
        body = unparse_formula(sents[0].body)
        assert body.startswith("∃ p : Int ·")
        assert free_vars(sents[0].body) <= {("v", False), ("v", True)}

    def test_unresolvable_parameter_sort(self):
        src = """
machine pm
  variables v
  invariants t: v ∈ ℕ
  events
    event Initialisation thenAct a: v := 0 end
    event e status ordinary any p thenAct a1: v := v end
end"""
        with pytest.raises(SpecError):
            translate(parse_text(src))

    def test_witness_is_conjoined(self):
        src = """
machine pm
  variables v
  invariants t: v ∈ ℕ
  events
    event Initialisation thenAct a: v := 0 end
    event e
      status ordinary
      any p : ℤ
      with w1: v′ = p
      thenAct a1: v :| v′ ≥ 0
    end
end"""
        out = translate(parse_text(src))
        ev = Evaluator(out.library, B3)
        body = [unparse_formula(s.body)
                for s in ev.sentences_of(out.library.lookup("pm"))
                if s.event == "e"][0]
        assert "v′ = p" in body and "v′ ≥ 0" in body


# Both readers elaborate through the same functions in specs, so each
# malformed clause fails with the same message behind the reader's prefix.
_EB_MACHINE = """
machine m
  variables n b
  invariants t1: n ∈ ℤ t2: b ∈ BOOL
  {variant}
  events
    event Initialisation thenAct a1: n := 0 a2: b := TRUE end
    event inc status ordinary thenAct a1: n := {rhs} end
end"""
_EVT_MACHINE = """
spec m =
  ops n : ℤ
      b : BOOL
  {variant}
  events
    Initialisation ordinary
      thenAct n := 0
              b := TRUE
    inc ordinary
      thenAct n := {rhs}
end"""
_EB_CONTEXT = "context c constants k axioms t: k ∈ ℤ a: {axiom} end"
_EVT_CONTEXT = "spec c =\n  ops k : ℤ\n  . {axiom}\nend"


def _read_eb(text):
    translate(parse_text(text))


def _read_evt(text):
    parse_document(text, SpecLibrary())


@pytest.mark.parametrize("reader,machine,context,prefix", [
    (_read_eb, _EB_MACHINE, _EB_CONTEXT, "machine m: "),
    (_read_evt, _EVT_MACHINE, _EVT_CONTEXT, "spec m: "),
], ids=["eventb", "evt"])
@pytest.mark.parametrize("case", ["variant", "assignment", "open_axiom"])
def test_shared_elaboration_errors(reader, machine, context, prefix, case):
    if case == "variant":
        text, error, message = (machine.format(variant="variant b", rhs="n + 1"),
                                SpecError, prefix + "variant must be numeric")
    elif case == "assignment":
        where = "m.inc: " if reader is _read_eb else "spec m.inc: "
        text, error, message = (machine.format(variant="", rhs="TRUE"),
                                SortError, where + "n := expression of sort Bool")
    else:
        # neither reader can express a non-closed axiom: a free name is
        # refused while elaborating, behind the axiom's label where it has one
        where = "c.a: " if reader is _read_eb else "spec c: "
        text, error, message = (context.format(axiom="k < x"),
                                SortError, where + "unknown identifier x")
    with pytest.raises(error) as info:
        reader(text)
    assert str(info.value) == message


class TestContexts:
    def test_cd_translates_to_single_axiom(self, bridge):
        ev = Evaluator(bridge.library, B3)
        cd = bridge.library.lookup("cd")
        fsig, closed = sig_of(cd, bridge.library), ev.flatten(cd).axioms
        assert [unparse_formula(f) for f in closed] == ["d > 0"]
        assert {o.name for o in fsig.ops} == {"d"}

    def test_axiomless_context(self):
        out = translate(parse_text("context empty constants k axioms t: k ∈ ℤ end"))
        ev = Evaluator(out.library, B3)
        closed = ev.flatten(out.library.lookup("empty")).axioms
        assert closed == []

    def test_color_context(self, bridge):
        ev = Evaluator(bridge.library, B3)
        color = bridge.library.lookup("Color")
        fsig, closed = sig_of(color, bridge.library), ev.flatten(color).axioms
        assert fsig.sorts == ("Color",)
        assert {o.name for o in fsig.ops} == {"green", "red"}
        texts = [unparse_formula(f) for f in closed]
        assert texts == ["Color = {green, red}", "green ≠ red"]

    def test_context_extension_unions(self):
        src = """
context c1 constants a axioms t1: a ∈ ℤ end
context c2 constants b axioms t2: b ∈ ℤ end
context c3 extends c1, c2 constants k axioms t3: k ∈ ℤ ax: k > a + b end
"""
        out = translate(parse_text(src))
        fsig = out.library.signature("c3")
        assert {o.name for o in fsig.ops} == {"a", "b", "k"}


class TestTypedQuantifiers:
    def test_typed_exists_prints_to_a_fixed_point(self):
        # an ∃ over ℕ or a literal set joins its body's conjuncts to the
        # guard flat, so the printed library reads back to the same bytes
        out = translate(parse_text(load_fixture("quant.eb")))
        full = print_library(out.library, out.order)
        assert ". ∃ p : Int · p ≥ 0 ∧ p > n ∧ p < 4\n" in full
        assert "when ∃ p : Int · p ∈ {1, 2} ∧ n + p < k ∧ p ≠ n\n" in full
        lib2 = SpecLibrary()
        specs, _ = parse_document(full, lib2)
        assert print_library(lib2, [("spec", n) for n, _ in specs]) == full


class TestStructure:
    def test_signature_coherence_for_all_units(self, bridge):
        # the signature remembered for each unit is the one the rule gives
        # when it is recomputed at the unit's node
        lib = bridge.library
        for kind, name in bridge.order:
            assert _sig_rule(lib.lookup(name), lib) == lib.signature(name), name

    def test_bare_presentation_without_imports(self):
        out = translate(parse_text(load_fixture("rex.eb")))
        from evtforge.specs import Presentation
        assert isinstance(out.library.lookup("rex"), Presentation)

    def test_theorems_reported_dropped(self, bridge):
        notes = " ".join(bridge.diagnostics)
        assert "m1" in notes and "theorem" in notes


class TestNoFrameCondition:
    def test_unassigned_variable_left_unconstrained(self, bridge_decomp=None):
        # e1 constrains only v1; v2 and v3 may change arbitrarily
        out = translate(parse_text(load_fixture("decomp.eb")))
        ev = Evaluator(out.library, Bounds(int_bound=1))
        rep = ev.model_class(out.library.lookup("M"))
        sl = rep.slices[0]
        pairs = dict(sl.rel)["e1"]
        befores = {s for s, _ in pairs}
        v2_changes = any(dict(s)["v2"] != dict(t)["v2"] for s, t in pairs)
        assert v2_changes
        assert len(pairs) == 16  # 4 valid befores x 4 unconstrained afters

    def test_rex_before_value_of_assigned_var_is_free(self, fixtures_dir):
        out = translate(parse_text(load_fixture("rex.eb")))
        ev = Evaluator(out.library, B3)
        rep = ev.model_class(out.library.lookup("rex"))
        pairs = dict(rep.slices[0].rel)["e"]
        expected = {
            (make_state({"x": x, "y": y}), make_state({"x": x + 1, "y": False}))
            for x in (0, 1) for y in (False, True)
        }
        assert pairs == expected


class TestMultiRefines:
    def test_event_refining_two_abstract_events(self):
        # both abstract sentences land, conjoined, on the one concrete event
        src = """
machine aa
  variables v
  invariants t: v ∈ {0, 1, 2}
  events
    event Initialisation thenAct a: v := 0 end
    event e1 status ordinary when g: v < 2 end
    event e2 status ordinary when g: v > 0 end
end

machine cc
  refines aa
  variables v
  invariants t: v ∈ {0, 1, 2}
  events
    event Initialisation thenAct a: v := 0 end
    event both status ordinary refines e1, e2 end
end"""
        out = translate(parse_text(src))
        sig = out.library.signature("cc")
        assert set(sig.event_names) == {INIT, "both"}
        ev = Evaluator(out.library, B3)
        rep = ev.model_class(out.library.lookup("cc"))
        pairs = dict(rep.slices[0].rel)["both"]
        assert pairs  # conjunction v < 2 and v > 0 is satisfiable
        assert all(dict(s)["v"] == 1 for s, _ in pairs)


class TestSameNameMerging:
    def test_multiple_sentences_conjoin_at_satisfaction(self):
        src = """
machine mm
  variables v
  invariants t: v ∈ {0, 1, 2}
  events
    event Initialisation thenAct a: v := 0 end
    event e status ordinary when g: v < 2 thenAct a: v := v + 1 end
end"""
        out = translate(parse_text(src))
        lib = out.library
        ev = Evaluator(lib, B3)
        rep = ev.model_class(lib.lookup("mm"))
        base_pairs = dict(rep.slices[0].rel)["e"]
        # an enrichment re-declaring e adds a second sentence for the same name
        from evtforge.sugar import parse_document
        parse_document("""
spec mm2 =
  mm
  then
    events
      e ordinary
        when v > 0
end""", lib)
        rep2 = ev.model_class(lib.lookup("mm2"))
        stricter = dict(rep2.slices[0].rel)["e"]
        assert stricter < base_pairs
        assert all(dict(s)["v"] > 0 for s, _ in stricter)


def _refinement_chain(depth, width=5, nev=8):
    """Machines m0 ⊑ … ⊑ m{depth-1}; each level adds `width` variables and
    refines the previous level's `nev` events, renaming the odd-indexed ones."""
    blocks, all_vars, prev = [], [], None
    for k in range(depth):
        new_vars = [f"x{k}_{i}" for i in range(width)]
        all_vars = all_vars + new_vars
        events = []
        for j in range(nev):
            if prev is None:
                events.append((f"e{k}_{j}", None))
            else:
                events.append((prev[j] if j % 2 == 0 else f"e{k}_{j}", prev[j]))
        lines = [f"machine m{k}"] + ([f"  refines m{k - 1}"] if prev else [])
        lines += ["  variables " + ", ".join(all_vars), "  invariants"]
        lines += [f"    inv{i}: {v} ∈ ℕ" for i, v in enumerate(new_vars)]
        lines += ["  events", "    event Initialisation", "      thenAct"]
        lines += [f"        act{i}: {v} := 0" for i, v in enumerate(new_vars)]
        lines.append("    end")
        for j, (name, refines) in enumerate(events):
            v = all_vars[j % len(all_vars)]
            lines += [f"    event {name}", "      status ordinary"]
            lines += [f"      refines {refines}"] if refines else []
            lines += ["      when", f"        grd1: {v} < 2", "      thenAct",
                      f"        act1: {v} := {v} + 1", "    end"]
        blocks.append("\n".join(lines + ["end"]))
        prev = [name for name, _ in events]
    return "\n\n".join(blocks) + "\n"


def test_sig_of_work_grows_linearly_with_chain_depth(monkeypatch):
    """sig_of computes each distinct spec node's signature once per library,
    so a deeper chain costs only the work of its new nodes."""
    from collections import Counter

    import evtforge.refinement as refinement_mod
    import evtforge.specs as specs_mod
    import evtforge.sugar as sugar_mod
    import evtforge.translate as translate_mod
    from click.testing import CliRunner
    from evtforge.cli import main

    calls, nodes, rules = Counter(), set(), Counter()
    original, rule = specs_mod.sig_of, specs_mod._sig_rule

    def counting(spec, lib=None):
        calls["sig_of"] += 1
        nodes.add(spec)
        return original(spec, lib)

    def counting_rule(spec, lib):
        rules[spec, id(lib)] += 1
        return rule(spec, lib)

    def counting_builder(name):
        build = getattr(specs_mod, name)

        def wrapper(*args):
            calls["built"] += 1
            calls[name] += 1
            return build(*args)
        return wrapper

    for mod in (specs_mod, translate_mod, sugar_mod, refinement_mod):
        monkeypatch.setattr(mod, "sig_of", counting)
    monkeypatch.setattr(specs_mod, "_sig_rule", counting_rule)
    # the signature builders of the Enrich, Sum and Embed rules
    for name in ("extend_signature", "extend_fopeq_signature", "signature_union",
                 "comorphism_sign"):
        monkeypatch.setattr(specs_mod, name, counting_builder(name))

    def reset():
        for counts in (calls, nodes, rules):
            counts.clear()

    def check_memo():
        assert calls["built"] <= len(nodes), (calls["built"], len(nodes))
        assert set(rules.values()) == {1}, max(rules.values())

    def calls_at(depth):
        parsed = parse_text(_refinement_chain(depth))
        reset()
        out = translate(parsed)
        assert out.library.names() == tuple(f"m{k}" for k in range(depth))
        check_memo()
        return calls["sig_of"]

    shallow, deep = calls_at(3), calls_at(6)
    assert 0 < shallow and deep <= 3 * shallow, (shallow, deep)

    # re-reading the printed chain builds one union per `and` chain, whatever
    # its number of parts
    out = translate(parse_text(_refinement_chain(6)))
    printed = print_library(out.library, out.order, elide_identity=False)
    reset()
    lib = SpecLibrary()
    parse_document(printed, lib)
    check_memo()
    chains = [s.child for s in lib.entries.values()
              if isinstance(s, Enrich) and isinstance(s.child, Sum)]
    assert len(chains) == 5 and all(len(c.parts) > 2 for c in chains)
    assert calls["signature_union"] <= len(chains), calls["signature_union"]

    fixtures = [str(FIXTURES / n) for n in
                ("ebm0.eb", "ebm1.eb", "ebm2.eb", "refinements.evt")]
    reset()
    res = CliRunner().invoke(
        main, ["refine", *fixtures, "--pin", "d=2", "--allow-status-drop"])
    assert res.exit_code == 0, res.output
    check_memo()


def _slices(spec):
    """The hide-then-rename slices in a sum."""
    from evtforge.specs import Hide, Translate

    if isinstance(spec, Sum):
        for part in spec.parts:
            yield from _slices(part)
    elif isinstance(spec, Translate) and isinstance(spec.child, Hide):
        yield spec


def test_slices_of_one_machine_share_their_first_order_morphisms(bridge):
    """Every hide/rename slice of a refining machine holds the same two
    first-order morphisms, built once for the machine."""
    for name in ("m1", "m2"):
        found = list(_slices(bridge.library.lookup(name).child))
        assert len(found) > 2
        assert len({id(s.child.morphism.fopeq) for s in found}) == 1
        assert len({id(s.morphism.fopeq) for s in found}) == 1


def test_slices_of_one_read_machine_share_their_first_order_morphisms(bridge):
    """The sugar reader's twin: every slice of a machine printed with its
    slices and read back holds one first-order morphism in both of its
    morphisms, the shared identity of the abstract machine's first-order
    signature."""
    printed = print_library(bridge.library, bridge.order, elide_identity=False)
    lib = SpecLibrary()
    parse_document(printed, lib)
    for name in ("m1", "m2"):
        found = list(_slices(lib.lookup(name).child))
        assert len(found) > 2
        shared = found[0].child.morphism.target.fopeq.identity
        assert all(s.child.morphism.fopeq is shared and s.morphism.fopeq is shared
                   for s in found)
