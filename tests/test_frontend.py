import pytest
from hypothesis import example, given, settings, strategies as st

from evtforge.errors import ParseError, SortError, SpecError
from evtforge.eventb import ContextDef, EbSpecification, MachineDef, parse_text
from evtforge.fopeq import INT, FopeqSignature, Op
from evtforge.institution import INIT, EvtSignature, Status
from evtforge.mathlang import (
    _MULTI, _SINGLE, ExprParser, Token, TokenStream, tokenize,
)
from evtforge.rodin import parse_rodin, parse_rodin_paths
from evtforge.translate import translate
from tests.conftest import FIXTURES, load_fixture
from tests.reference_eval import (
    LinearTokenStream, ReferenceExprParser, pretty_print_eb, reference_tokenize,
    solid_tokens,
)


class TestParseText:
    def test_m0_fixture_shape(self):
        spec = parse_text(load_fixture("ebm0.eb"))
        cd, m0 = spec.items
        assert isinstance(cd, ContextDef)
        assert cd.constants == ("d",)
        assert len(cd.axioms) == 2
        assert isinstance(m0, MachineDef)
        assert m0.variables == ("n",)
        assert len(m0.invariants) == 2
        assert [e.name for e in m0.events] == ["Initialisation", "ML_out", "ML_in"]

    def test_empty_input(self):
        assert parse_text("") == EbSpecification(())

    def test_m1_fixture_shape(self):
        spec = parse_text(load_fixture("ebm1.eb"))
        (m1,) = spec.items
        assert m1.refines == "m0"
        assert m1.variant is not None
        assert len(m1.events) == 5
        refining = {e.name: e.refines for e in m1.events if e.refines}
        assert refining == {"ML_out": ("ML_out",), "ML_in": ("ML_in",)}
        assert len(m1.theorems) == 2

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_text("machine m events event end end")
        assert err.value.line is not None

    def test_duplicate_names(self):
        src = "context c end\ncontext c end"
        with pytest.raises(SpecError):
            parse_text(src)

    def test_forward_reference(self):
        src = "machine m sees c events event Initialisation end end\ncontext c end"
        with pytest.raises(SpecError):
            parse_text(src)

    def test_two_initialisations_rejected(self):
        src = """
machine m
  variables v
  invariants t: v ∈ ℕ
  events
    event Initialisation thenAct a: v := 0 end
    event Initialisation thenAct a: v := 1 end
end"""
        with pytest.raises(SpecError):
            parse_text(src)

    def test_initialisation_may_not_read_state(self):
        src = """
machine m
  variables v
  invariants t: v ∈ ℕ
  events
    event Initialisation thenAct a: v := v + 1 end
end"""
        with pytest.raises(SpecError, match="initialisation may not read state variables"):
            translate(parse_text(src))

    def test_assignment_to_undeclared_variable(self):
        src = """
machine m
  variables v
  invariants t: v ∈ ℕ
  events
    event Initialisation thenAct a: v := 0 end
    event e status ordinary thenAct a: w := 0 end
end"""
        with pytest.raises(SpecError):
            parse_text(src)

    def test_out_of_fragment_constructs_are_errors(self):
        # power sets and unsupported membership targets are rejected, not
        # silently skipped
        src = """
context c
  constants k
  axioms
    t: k ∈ ℤ
    bad: k ∈ ℙ
end"""
        with pytest.raises((ParseError, Exception)):
            translate(parse_text(src))
        with pytest.raises(ParseError):
            parse_text("context c constants k axioms t: k ↔ k end")

    def test_duplicate_labels_rejected(self):
        src = """
machine m
  variables v
  invariants t: v ∈ ℕ
  events
    event Initialisation thenAct a: v := 0 end
    event e status ordinary when g: v > 0 g: v < 2 thenAct a: v := 0 end
end"""
        with pytest.raises(SpecError):
            parse_text(src)


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["ebm0.eb", "ebm1.eb", "ebm2.eb",
                                      "decomp.eb", "rex.eb", "ebm0_weak.eb"])
    def test_print_then_parse_is_identity(self, name):
        spec = parse_text(load_fixture(name))
        assert parse_text(pretty_print_eb(spec)) == spec

    def test_witness_and_params_round_trip(self):
        src = """
machine pm
  variables v
  invariants t: v ∈ ℕ
  events
    event Initialisation thenAct a: v := 0 end
    event e
      status anticipated
      any p : ℕ, q
      when g1: p > 0 g2: q ∈ ℕ
      with w1: v′ = p
      thenAct a1: v :| v′ > v
    end
end"""
        spec = parse_text(src)
        assert parse_text(pretty_print_eb(spec)) == spec
        e = spec.items[0].events[1]
        assert e.params[0][0] == "p" and e.params[1][1] is None
        assert len(e.witnesses) == 1
        assert e.actions[0].kind == ":|"


class TestBuildEnv:
    def test_m1_signature_matches_extraction(self, bridge):
        sig = bridge.library.signature("m1")
        expected = EvtSignature(
            FopeqSignature(ops=(Op("d", (), INT),)),
            ((INIT, Status.ordinary), ("ML_in", Status.ordinary),
             ("ML_out", Status.ordinary), ("IL_in", Status.convergent),
             ("IL_out", Status.convergent)),
            (("n", INT), ("a", INT), ("b", INT), ("c", INT)),
        )
        assert sig == expected

    def test_minimal_machine(self):
        spec = parse_text(
            "machine m events event Initialisation end end")
        sig = translate(spec).library.signature("m")
        assert sig.event_map == {INIT: Status.ordinary}
        assert sig.vars == ()
        assert sig.fopeq == FopeqSignature()

    def test_refined_events_removed_from_abstract_part(self, bridge):
        sig = bridge.library.signature("m2")
        names = set(sig.event_names)
        assert "ML_out" not in names and "IL_out" not in names
        assert {"ML_out1", "ML_out2", "IL_out1", "IL_out2"} <= names
        # same-name refinements keep the concrete status
        assert sig.event_map["IL_in"] == Status.ordinary
        assert sig.event_map["ML_tl_green"] == Status.anticipated

    def test_left_fold_compositional(self):
        both = parse_text(load_fixture("ebm0.eb"))
        lib_once = translate(both).library
        cd_only = EbSpecification(both.items[:1])
        m0_only = EbSpecification(both.items[1:])
        lib_split = translate(m0_only, translate(cd_only)).library
        assert lib_once.names() == lib_split.names()
        for name in lib_once.names():
            assert lib_once.signature(name) == lib_split.signature(name)

    def test_every_signature_contains_init(self, bridge):
        for name in bridge.library.names():
            sig = bridge.library.signature(name)
            if isinstance(sig, EvtSignature):
                assert sig.event_map[INIT] == Status.ordinary

    def test_unknown_context(self):
        spec = parse_text(
            "machine m sees nowhere events event Initialisation end end")
        with pytest.raises(SpecError):
            translate(spec)

    def test_untyped_variable_rejected(self):
        spec = parse_text("""
machine m
  variables v
  events
    event Initialisation thenAct a: v := 0 end
end""")
        with pytest.raises(SpecError):
            translate(spec)

    def test_persisting_abstract_event(self):
        src = """
machine a0
  variables v
  invariants t: v ∈ ℕ
  events
    event Initialisation thenAct a: v := 0 end
    event keepme status ordinary when g: v > 0 thenAct a: v := v - 1 end
end

machine c0
  refines a0
  variables w
  invariants t: w ∈ ℕ
  events
    event Initialisation thenAct a: w := 0 end
end"""
        sig = translate(parse_text(src)).library.signature("c0")
        assert "keepme" in sig.event_map
        assert sig.var_map == {"v": INT, "w": INT}


class TestRodin:
    def test_cross_parser_equality(self, fixtures_dir):
        text_spec = parse_text(load_fixture("ebm0.eb"))
        rodin_spec = parse_rodin_paths([
            str(fixtures_dir / "rodin" / "cd.buc"),
            str(fixtures_dir / "rodin" / "m0.bum"),
        ])
        assert rodin_spec == text_spec

    def test_topological_ordering_of_units(self, fixtures_dir):
        # machine first on the command line still parses
        rodin_spec = parse_rodin_paths([
            str(fixtures_dir / "rodin" / "m0.bum"),
            str(fixtures_dir / "rodin" / "cd.buc"),
        ])
        assert [i.name for i in rodin_spec.items] == ["cd", "m0"]

    def test_convergence_codes(self):
        xml = """<org.eventb.core.machineFile version="5">
          <org.eventb.core.variable org.eventb.core.identifier="v"/>
          <org.eventb.core.invariant org.eventb.core.label="t"
              org.eventb.core.predicate="v ∈ ℕ"/>
          <org.eventb.core.event org.eventb.core.convergence="0"
              org.eventb.core.label="INITIALISATION">
            <org.eventb.core.action org.eventb.core.label="a"
                org.eventb.core.assignment="v ≔ 0"/>
          </org.eventb.core.event>
          <org.eventb.core.event org.eventb.core.convergence="1"
              org.eventb.core.label="go"/>
          <org.eventb.core.event org.eventb.core.convergence="2"
              org.eventb.core.label="maybe"/>
        </org.eventb.core.machineFile>"""
        spec = parse_rodin([("m", xml)])
        m = spec.items[0]
        statuses = {e.name: e.status for e in m.events}
        assert statuses == {"Initialisation": Status.ordinary,
                            "go": Status.convergent,
                            "maybe": Status.anticipated}

    def test_unknown_convergence_code(self):
        xml = """<org.eventb.core.machineFile version="5">
          <org.eventb.core.event org.eventb.core.convergence="7"
              org.eventb.core.label="e"/>
        </org.eventb.core.machineFile>"""
        with pytest.raises(ParseError):
            parse_rodin([("m", xml)])

    def test_extended_flag_copies_nothing(self):
        xml = """<org.eventb.core.machineFile version="5">
          <org.eventb.core.refinesMachine org.eventb.core.target="a0"/>
          <org.eventb.core.event org.eventb.core.convergence="0"
              org.eventb.core.label="INITIALISATION"/>
          <org.eventb.core.event org.eventb.core.convergence="0"
              org.eventb.core.extended="true" org.eventb.core.label="e">
            <org.eventb.core.refinesEvent org.eventb.core.target="e"/>
          </org.eventb.core.event>
        </org.eventb.core.machineFile>"""
        spec = parse_rodin([("a0", """<org.eventb.core.machineFile version="5">
          <org.eventb.core.event org.eventb.core.convergence="0"
              org.eventb.core.label="INITIALISATION"/>
          <org.eventb.core.event org.eventb.core.convergence="0"
              org.eventb.core.label="e">
            <org.eventb.core.guard org.eventb.core.label="g"
                org.eventb.core.predicate="1 &gt; 0"/>
          </org.eventb.core.event>
        </org.eventb.core.machineFile>"""), ("m", xml)])
        concrete = spec.find("m").events[1]
        assert concrete.extended is True
        assert concrete.guards == ()  # nothing copied syntactically

    def test_malformed_predicate(self):
        xml = """<org.eventb.core.machineFile version="5">
          <org.eventb.core.invariant org.eventb.core.label="t"
              org.eventb.core.predicate="v ∈ ∈"/>
        </org.eventb.core.machineFile>"""
        with pytest.raises(ParseError):
            parse_rodin([("m", xml)])

    def test_malformed_xml(self):
        with pytest.raises(ParseError):
            parse_rodin([("m", "<broken")])


# ---------------------------------------------------------------------------
# lexer and token cursor against their literal oracles

_LEX_ALPHABET = [
    " ", "\t", "\r", "\n", "//", "'", "′", "x", "y1", "_", "é", "0", "7",
    "ℕ", "ℤ", "ℙ", "∀", "∃", "∧", "≤", "↦", "·", "−", "²", "½", "٣",
    "#", "#exists", "#forall", "@", *_MULTI, *sorted(_SINGLE),
]


def _lexed(lex, text):
    try:
        return [(t.kind, t.text, t.line, t.col, t.primed, t.nl) for t in lex(text)]
    except ParseError as e:
        return (str(e), e.line, e.col)


def _with_fixture_texts(test):
    for path in sorted(FIXTURES.rglob("*")):
        if path.suffix in (".eb", ".evt", ".sig"):
            test = example(path.read_text(encoding="utf-8"))(test)
    return test


@pytest.mark.oracle
@given(st.lists(st.sampled_from(_LEX_ALPHABET), max_size=30).map("".join))
@_with_fixture_texts
@settings(max_examples=500, deadline=None)
def test_tokenize_matches_reference_lexer(text):
    assert _lexed(tokenize, text) == _lexed(
        lambda t: solid_tokens(reference_tokenize(t)), text)


@st.composite
def _cursor_walks(draw):
    """A token list ending in EOF, some tokens flagged as starting a line, a
    start position and a sequence of cursor moves."""
    tokens = []
    for kind in draw(st.lists(st.sampled_from(("IDENT", "SYM")), max_size=12)):
        text = draw(st.sampled_from(("a", "b") if kind == "IDENT" else ("(", ",")))
        tokens.append(Token(kind, text, 1, len(tokens) + 1,
                            kind == "IDENT" and draw(st.booleans()),
                            draw(st.sampled_from((0, 0, 3)))))
    tokens.append(Token("EOF", "", 1, len(tokens) + 1, False, draw(st.sampled_from((0, 3)))))
    start = draw(st.integers(0, len(tokens) - 1))
    moves = draw(st.lists(st.tuples(
        st.sampled_from(("peek", "next", "at_sym", "at_word", "accept_sym",
                         "accept_word", "expect_sym", "expect_word", "expect_ident")),
        st.integers(0, 3), st.sampled_from(("a", "b", "(", ","))),
        max_size=10))
    return tokens, start, moves


@pytest.mark.oracle
@given(_cursor_walks())
@settings(max_examples=500, deadline=None)
def test_token_cursor_matches_linear_scan(walk):
    tokens, start, moves = walk
    fast, slow = TokenStream(tokens), LinearTokenStream(tokens)
    fast.pos = slow.pos = start
    for move, ahead, text in moves:
        # past EOF a parser only peeks, and sees EOF
        if slow.pos == len(tokens) and move != "peek":
            continue
        t = slow.peek()
        sym = t.kind == "SYM" and t.text == text
        word = t.kind == "IDENT" and t.text == text and not t.primed
        if move == "peek":
            assert fast.peek(ahead) is slow.peek(ahead)
        elif move == "next":
            assert fast.next() is slow.next()
        elif move in ("at_sym", "at_word"):
            assert getattr(fast, move)(text) == (sym if move == "at_sym" else word)
        elif move in ("accept_sym", "accept_word"):
            hit = sym if move == "accept_sym" else word
            assert getattr(fast, move)(text) == hit
            if hit:
                slow.next()
        else:
            hit = {"expect_sym": sym, "expect_word": word,
                   "expect_ident": t.kind == "IDENT"}[move]
            try:
                got = fast.expect_ident() if move == "expect_ident" else \
                    getattr(fast, move)(text)
            except ParseError as e:
                assert not hit and (e.line, e.col) == (t.line, t.col)
            else:
                assert hit and got is slow.next()
        assert fast.pos == slow.pos


# ---------------------------------------------------------------------------
# expression parser against the descent ladder

_EXPR_VOCABULARY = [
    "∧", "/\\", "∨", "\\/", "⇒", "=>", "⇔", "<=>", "¬", "!", "∀", "#forall",
    "∃", "#exists", "·", ".", ":", "=", "≠", "/=", "<", "≤", "<=", ">", "≥",
    ">=", "∈", "in", "+", "−", "-", "*", "×", "(", ")", "{", "}", ",",
    "x", "y", "f", "ℕ", "BOOL", "TRUE", "x′", "y'", "0", "7", "\n",
]
_OPERANDS = ["x", "y", "x′", "0", "7", "TRUE"]
_BINARY = ["∧", "/\\", "∨", "\\/", "⇒", "=>", "⇔", "<=>", "=", "<", "≥", "∈",
           "+", "−", "-", "*", "×"]

# any vocabulary token, or (twice as often) an operand and a binary operator:
# runs of the second kind make the operator chains that precedence and
# associativity decide
_operand_operator = st.tuples(
    st.sampled_from(_OPERANDS), st.sampled_from(_BINARY)).map(" ".join)
_expr_texts = st.lists(
    st.one_of(st.sampled_from(_EXPR_VOCABULARY), _operand_operator, _operand_operator),
    max_size=30).map(" ".join)
# every ordered pair of binary operators between three operands, each chain
# closed by a stray ")": a change to any level or associativity changes the
# parse from some chain's start
_OPERATOR_PAIRS = " ) ".join(f"x {a} y {b} 0" for a in _BINARY for b in _BINARY)


def _parse_result(parse, ts):
    """The tree, or the error, of one parse, with the position the parse left
    the cursor at."""
    try:
        return parse(), ts.pos
    except ParseError as e:
        return (str(e), e.line, e.col), ts.pos
    except SortError as e:  # a set type that lists a non-literal
        return str(e), ts.pos


@pytest.mark.oracle
@given(_expr_texts)
@example(_OPERATOR_PAIRS)
@example("x <\n  y = 1 ∧ f\n(x) ∈\n {1}")
@example("∀ x :\n {1} · x = 1 ∧ f(x // c\n)")
@_with_fixture_texts
@settings(max_examples=500, deadline=None)
def test_expression_parser_matches_descent_ladder(text):
    """From every token, with and without stop_at_newline, ExprParser over
    the library's tokens parses as the ladder over the character lexer's,
    NEWLINE tokens included; positions compare as counts of tokens that are
    not NEWLINE."""
    try:
        tokens = tokenize(text)
    except ParseError:
        return
    lines = reference_tokenize(text)
    solid = [i for i, t in enumerate(lines) if t.kind != "NEWLINE"]
    for start in range(len(tokens)):
        for stop_at_newline in (False, True):
            ts = TokenStream(tokens)
            ts.pos = start
            fast = _parse_result(ExprParser(ts, stop_at_newline).parse_formula_expr, ts)
            ladder = ReferenceExprParser(lines, solid[start], stop_at_newline)
            slow, end = _parse_result(ladder.parse_formula_expr, ladder)
            assert fast == (slow, sum(i < end for i in solid))
