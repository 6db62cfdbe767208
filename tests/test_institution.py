import functools
import itertools
import math
import random
import tracemalloc
from dataclasses import fields

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from evtforge import fopeq, institution
from evtforge.cli import main
from evtforge.errors import EnumerationLimit, SortError, SpecError
from evtforge.fopeq import (
    BOOL, INT, And, Bounds, Equal, Exists, Forall, FopeqMorphism,
    BoolLit, FopeqSignature, Implies, IntLit, Not, Op, OpApp, Or, Pred, PredApp,
    TRUE, FALSE, Var, algebra_reduct, compile_formula, conjoin, enumerate_algebras,
    fopeq_identity, free_vars, make_algebra, substitute,
)
from evtforge.institution import (
    INIT, EvtModel, EvtMorphism, EvtSentence, EvtSignature, ModelPlan, StateCoding,
    Status, amalgamate, comorphism_mod, comorphism_sen, comorphism_sign, evt_compose,
    evt_identity, evt_morphism, evt_pushout, init_conjuncts, make_model,
    maximal_model, merged_signature, model_reduct, reduce_state, satisfies,
    signature_union, state_coding, status_sup, translate_sentence,
)
from evtforge.mathlang import ElabContext, parse_formula_text
from evtforge.specs import Evaluator, sig_of
from tests.conftest import FIXTURES, decoded
from tests.reference_eval import (
    enumerate_states, eval_formula, literal_satisfies, make_state, reference_evt_morphism,
    reference_evt_signature, reference_fopeq_morphism, reference_fopeq_signature,
    restrict_along, valuation,
)
from tests.test_fopeq import _formulas

B1 = Bounds(int_bound=1)
B3 = Bounds(int_bound=3)

USORT = FopeqSignature(sorts=("U",), preds=(Pred("p", ("U",)),))


def usig(nvars=1, events=("e",), statuses=None):
    statuses = statuses or {}
    names = ["x", "y"][:nvars]
    return EvtSignature(
        USORT,
        tuple((e, statuses.get(e, Status.ordinary)) for e in events),
        tuple((n, "U") for n in names),
    )


def ualg(carrier=("u0", "u1"), p=("u0",)):
    return make_algebra(USORT, 1, {"U": carrier}, {}, {"p": {(c,) for c in p}})


class TestSignature:
    def test_init_always_present_and_ordinary(self):
        sig = EvtSignature()
        assert sig.event_map == {INIT: Status.ordinary}
        with pytest.raises(SortError):
            EvtSignature(events=((INIT, Status.convergent),))

    def test_no_primed_variable_names(self):
        with pytest.raises(SortError):
            EvtSignature(vars=(("x'", INT),))

    @pytest.mark.parametrize("events, vars, message", [
        ((("e", Status.ordinary), ("e", Status.convergent)), (), "duplicate event names in signature"),
        (((INIT, Status.anticipated),), (), "the initial event must have ordinary status"),
        ((), (("x", INT), ("x", BOOL)), "duplicate variable names in signature"),
        ((), (("x'", INT),), "variable name x' looks primed"),
        ((), (("x′", INT),), "variable name x′ looks primed"),
        ((), (("x", "S"),), "variable x has undeclared sort S"),
        ((("e'", Status.ordinary),), (), "event name e' looks primed"),
        ((("e′", Status.ordinary),), (), "event name e′ looks primed"),
        # variables are checked before events, each in name order
        ((("e′", Status.ordinary),), (("x′", INT),), "variable name x′ looks primed"),
        ((), (("b′", INT), ("a", "S")), "variable a has undeclared sort S"),
        ((), (("b", "S"), ("a′", INT)), "variable name a′ looks primed"),
        ((("f′", Status.ordinary), ("e'", Status.ordinary)), (), "event name e' looks primed"),
    ])
    def test_refusal_messages(self, events, vars, message):
        with pytest.raises(SortError) as exc:
            EvtSignature(events=events, vars=vars)
        assert str(exc.value) == message

    def test_status_order(self):
        assert Status.ordinary < Status.anticipated < Status.convergent
        assert status_sup(Status.ordinary, Status.convergent) == Status.convergent


class TestUnion:
    def test_a_union_adding_nothing_is_its_left_operand(self):
        big = EvtSignature(USORT, (("e", Status.convergent), ("f", Status.ordinary)),
                           (("x", "U"), ("y", INT)))
        for small in (big, usig(1, events=()), EvtSignature(USORT, (("e", Status.convergent),), ()),
                      EvtSignature(FopeqSignature(sorts=("U",)), (), (("y", INT),))):
            assert signature_union(big, small) is big
        assert USORT.union(FopeqSignature(sorts=("U",))) is USORT
        assert USORT.union(FopeqSignature(preds=(Pred("p", ("U",)),), sorts=("U",))) is USORT

    @pytest.mark.parametrize("small", [
        EvtSignature(USORT, (("e", Status.ordinary),), ()),  # a status joined upwards
        EvtSignature(USORT, (("g", Status.ordinary),), ()),
        EvtSignature(USORT, (), (("z", "U"),)),
        EvtSignature(FopeqSignature(sorts=("U", "V")), (), ()),
    ])
    def test_a_union_adding_something_is_the_merged_signature(self, small):
        big = EvtSignature(USORT, (("e", Status.anticipated),), (("x", "U"),))
        got = signature_union(small, big)
        assert got is not small
        assert got == merged_signature(small.fopeq.union(big.fopeq),
                                       small.events + big.events, small.vars + big.vars)
        assert signature_union(big, small) == got

    def test_a_sort_named_after_a_builtin_one_is_added(self):
        named_int = FopeqSignature(sorts=(INT,))
        assert USORT.union(named_int).sorts == (INT, "U")

    def test_a_conflicting_union_is_refused(self):
        with pytest.raises(SortError, match="variable x gets conflicting sorts"):
            signature_union(usig(1), EvtSignature(USORT, (), (("x", INT),)))
        with pytest.raises(SortError, match="operation c gets conflicting profiles"):
            FopeqSignature(ops=(Op("c", (), INT),)).union(
                FopeqSignature(ops=(Op("c", (), BOOL),)))


class TestMorphism:
    def test_init_must_map_to_init(self):
        a, b = usig(), usig()
        with pytest.raises(SortError):
            EvtMorphism(a, b, fopeq_identity(USORT),
                        ((INIT, "e"), ("e", "e")), (("x", "x"),))

    def test_non_init_may_not_map_to_init(self):
        a, b = usig(), usig()
        with pytest.raises(SortError):
            EvtMorphism(a, b, fopeq_identity(USORT),
                        ((INIT, INIT), ("e", INIT)), (("x", "x"),))

    def test_status_may_not_decrease(self):
        a = usig(statuses={"e": Status.convergent})
        b = usig()
        with pytest.raises(SortError):
            EvtMorphism(a, b, fopeq_identity(USORT),
                        ((INIT, INIT), ("e", "e")), (("x", "x"),))
        # ordinary -> convergent is fine
        EvtMorphism(b, a, fopeq_identity(USORT),
                    ((INIT, INIT), ("e", "e")), (("x", "x"),))

    def test_variable_sorts_follow_the_sort_map(self):
        a = EvtSignature(USORT, (), (("x", "U"),))
        b = EvtSignature(USORT, (), (("w", INT),))
        with pytest.raises(SortError):
            EvtMorphism(a, b, fopeq_identity(USORT), ((INIT, INIT),), (("x", "w"),))


class TestEvtMorphismBuilder:
    def test_unlisted_symbols_map_to_themselves(self):
        a = usig(nvars=2, events=("e", "f"))
        b = EvtSignature(USORT, (("e", Status.ordinary), ("g", Status.ordinary)),
                         (("x", "U"), ("y", "U")))
        m = evt_morphism(a, b, events={"f": "g"}, vars={"x": "y"})
        assert m.event_map == ((INIT, INIT), ("e", "e"), ("f", "g"))
        assert m.var_map == (("x", "y"), ("y", "y"))
        assert m.fopeq == fopeq_identity(USORT)  # sorts and predicates too
        assert evt_morphism(a, a) == evt_identity(a)

    def test_listed_symbols_must_be_in_the_source(self):
        a = usig()
        with pytest.raises(SortError):
            evt_morphism(a, a, events={"nowhere": "e"})
        with pytest.raises(SortError):
            evt_morphism(a, a, sorts={"V": "U"})

    def test_the_result_is_validated(self):
        a = usig(statuses={"e": Status.convergent})
        b = usig()
        with pytest.raises(SortError):
            evt_morphism(a, b)
        assert not evt_morphism(a, b, check_status=False).check_status
        with pytest.raises(SortError):
            evt_morphism(b, b, events={"e": INIT})


# -- whole-collection validation against the per-name reference ------------


_SORTS, _OPS, _PREDS = ("S", "T"), ("c", "f", "+"), ("p", "q", "<")
# every draw goes through these few strategies, built once: a strategy built
# per draw costs more to generate from than the constructors under test
_INDEX = st.integers(0, 255)
_SHUFFLE = st.randoms(use_true_random=False)


def _pick(draw, xs):
    return xs[draw(_INDEX) % len(xs)]


def _some(draw, most: int) -> range:
    return range(draw(_INDEX) % (most + 1))


_FAULT, _MIX = st.integers(0, 6), st.integers(0, 31)


def _faults(draw) -> int:
    """Bits naming the faults to put in one value: none, one alone, so that
    it is the first failure, or a mix."""
    i = draw(_FAULT)
    return draw(_MIX) if i == 6 else 1 << i >> 1


def _op(draw, names, sorts):
    return Op(_pick(draw, names), tuple(_pick(draw, sorts) for _ in _some(draw, 2)),
              _pick(draw, sorts))


def _pred(draw, names, sorts):
    return Pred(_pick(draw, names), tuple(_pick(draw, sorts) for _ in _some(draw, 2)))


def _insert(draw, xs: list, x) -> None:
    xs.insert(draw(_INDEX) % (len(xs) + 1), x)


def _unique(xs):
    return tuple({x.name: x for x in xs}.values())


@st.composite
def _fopeq_parts(draw):
    """Constructor arguments of a first-order signature, with the faults
    _faults names: a profile with the undeclared sort U, a builtin name and
    a repeated name."""
    faults = _faults(draw)
    sorts = [_pick(draw, _SORTS) for _ in _some(draw, 3)]
    refs = (*sorts, INT, BOOL)
    ops = [_op(draw, _OPS[:2], refs) for _ in _some(draw, 2)]
    preds = [_pred(draw, _PREDS[:2], refs) for _ in _some(draw, 2)]
    ops, preds = list(_unique(ops)), list(_unique(preds))
    if faults & 1:
        # under a name of its own, so that no repeat is met first
        o, p = _op(draw, ("g",), refs), _pred(draw, ("r",), refs)
        _insert(draw, *_pick(draw, [(ops, Op(o.name, o.args, "U")),
                                    (ops, Op(o.name, (*o.args, "U"), o.result)),
                                    (preds, Pred(p.name, ("U", *p.args)))]))
    if faults & 2:
        _insert(draw, ops, _op(draw, _OPS[2:], refs))
        _insert(draw, preds, _pred(draw, _PREDS[2:], refs))
    if faults & 4:
        o, p = _op(draw, _OPS[:1], refs), _pred(draw, _PREDS[:1], refs)
        xs, twins = _pick(draw, [(ops, (o, Op(o.name, o.args, BOOL if o.result == INT else INT))),
                                 (preds, (p, Pred(p.name, (*p.args, INT))))])
        for x in twins:
            _insert(draw, xs, x)
    return sorts, ops, preds


@st.composite
def _valid_fopeq(draw):
    # no builtin names, which shadow a user symbol's profile, so that the
    # identity on the signature exists
    sorts = tuple({_pick(draw, _SORTS): None for _ in _some(draw, 2)})
    refs = (*sorts, INT, BOOL)
    return FopeqSignature(sorts, _unique([_op(draw, _OPS[:2], refs) for _ in _some(draw, 2)]),
                          _unique([_pred(draw, _PREDS[:2], refs) for _ in _some(draw, 2)]))


@st.composite
def _evt_parts(draw, fsig, events=("e", "f", INIT), vars_=("x", "y"), valid=False):
    """Constructor arguments of an event signature over fsig, unless valid
    with the faults _faults names: a primed event or variable name, the
    undeclared sort U, a repeated name and Init with another status."""
    faults = 0 if valid else _faults(draw)
    sorts = (*fsig.sorts, INT, BOOL)
    statuses = list(Status)
    evs = {_pick(draw, events): _pick(draw, statuses) for _ in _some(draw, 3)}
    evs = [(e, Status.ordinary if e == INIT else st_) for e, st_ in evs.items()]
    vs = list({_pick(draw, vars_): _pick(draw, sorts) for _ in _some(draw, 3)}.items())
    if faults & 1:
        _insert(draw, evs, (_pick(draw, ("e'", "g′")), _pick(draw, statuses)))
    if faults & 2:
        _insert(draw, vs, (_pick(draw, ("x'", "z′")), _pick(draw, sorts)))
    if faults & 4:
        _insert(draw, vs, (_pick(draw, ("x", "y", "w")), "U"))
    if faults & 8:
        name, xs, image = _pick(draw, [(events, evs, statuses), (vars_, vs, sorts)])
        _insert(draw, xs, (_pick(draw, name), _pick(draw, image)))
    if faults & 16:
        _insert(draw, evs, (INIT, _pick(draw, statuses[1:])))
    return tuple(evs), tuple(vs)


_MAP_FAULT = st.integers(0, 5)


@st.composite
def _name_map(draw, names, images, faulty=True):
    """A map over names, each to itself where images holds it and else to
    some image, in source order or shuffled; when faulty, with one of: a
    name left out, an unknown or another image, an extra key and a repeated
    key."""
    pairs = [(n, n if n in images else _pick(draw, (*images, "nowhere"))) for n in names]
    fault = draw(_MAP_FAULT) if faulty else 0
    if fault == 1 and pairs:
        del pairs[draw(_INDEX) % len(pairs)]
    elif fault in (2, 3) and pairs:
        i = draw(_INDEX) % len(pairs)
        pairs[i] = (pairs[i][0], "nowhere" if fault == 2 else _pick(draw, (*images, "nowhere")))
    elif fault in (4, 5):
        _insert(draw, pairs, (_pick(draw, ("extra",) if fault == 4 or not names else names),
                              _pick(draw, (*images, "nowhere"))))
    if draw(_INDEX) % 2:
        draw(_SHUFFLE).shuffle(pairs)
    return tuple(pairs)


@st.composite
def _fopeq_morphism_args(draw, source, target):
    return (source, target,
            draw(_name_map(source.sorts, (*target.sorts, INT, BOOL))),
            draw(_name_map(tuple(source.op_map), (*target.op_map, "+"))),
            draw(_name_map(tuple(source.pred_map), (*target.pred_map, "<"))))


@st.composite
def _evt_signature_args(draw):
    return (draw(_valid_fopeq()), *draw(_evt_parts(draw(_valid_fopeq()))))


@st.composite
def _fopeq_morphism_cases(draw):
    return draw(_fopeq_morphism_args(draw(_valid_fopeq()), draw(_valid_fopeq())))


@st.composite
def _evt_morphism_args(draw):
    """Arguments of an event morphism, with the faults _faults names: a
    status lowered, a variable sent to one of another sort, a faulty event
    map, a faulty variable map, and a target over another first-order part,
    with maps drawn between the two."""
    faults = _faults(draw)
    fsig = draw(_valid_fopeq())
    events, vars_ = draw(_evt_parts(fsig, valid=True))
    if faults & 1:  # an event whose status can be lowered
        events += (("k", _pick(draw, (Status.anticipated, Status.convergent))),)
    source = EvtSignature(fsig, events, vars_)
    if faults & 16:
        tf = draw(_valid_fopeq())
        target = EvtSignature(tf, *draw(_evt_parts(tf, ("e", "f", "g", INIT), valid=True)))
        try:
            fm = FopeqMorphism(*draw(_fopeq_morphism_args(source.fopeq, target.fopeq)))
        except SortError:
            fm = fopeq_identity(fsig)  # mismatches the target's part
        var_map = draw(_name_map(source.var_names, target.var_names, faults & 8))
    else:
        # a target over the same part, holding the source's names at their
        # statuses or higher ones, and maybe more
        var_map = draw(_name_map(source.var_names, source.var_names, faults & 8))
        extra_events, extra_vars = draw(_evt_parts(fsig, ("g", "h"), ("z",), valid=True))
        events = dict(source.events)
        for e, st_ in source.events:
            if e != INIT:
                events[e] = Status(_pick(draw, range(st_, 3)))
        lowered = [e for e, st_ in source.events if st_ > Status.ordinary]
        if faults & 1 and lowered:
            e = _pick(draw, lowered)
            events[e] = Status(_pick(draw, range(source.event_map[e])))
        vars_ = list(source.vars + extra_vars)
        if faults & 2 and source.vars:
            v, sort = _pick(draw, source.vars)
            vars_.append(("w", INT if sort != INT else BOOL))
            var_map = tuple((x, "w" if x == v else y) for x, y in var_map)
        target = EvtSignature(fsig, tuple(events.items()) + extra_events, tuple(vars_))
        fm = fopeq_identity(fsig)
    return (source, target, fm,
            draw(_name_map(source.event_names, target.event_names, faults & 4)),
            var_map, bool(draw(_INDEX) % 2))


# constructor, reference, arguments, the normalised fields and the views
# that must be the dicts of those fields
_VALIDATIONS = {
    "FopeqSignature": (
        FopeqSignature, reference_fopeq_signature, _fopeq_parts(),
        lambda v: (v.sorts, v.ops, v.preds),
        lambda v: [(v.op_map, {o.name: o for o in v.ops}),
                   (v.pred_map, {p.name: p for p in v.preds})]),
    "EvtSignature": (
        EvtSignature, reference_evt_signature, _evt_signature_args(),
        lambda v: (v.events, v.vars),
        lambda v: [(v.event_map, dict(v.events)), (v.var_map, dict(v.vars)),
                   (v.event_names, tuple(v.event_map)), (v.var_names, tuple(v.var_map))]),
    "FopeqMorphism": (
        FopeqMorphism, reference_fopeq_morphism, _fopeq_morphism_cases(),
        lambda v: (v.sort_map, v.op_map, v.pred_map),
        lambda v: [(v.sort_dict, dict(v.sort_map)), (v.op_dict, dict(v.op_map)),
                   (v.pred_dict, dict(v.pred_map))]),
    "EvtMorphism": (
        EvtMorphism, reference_evt_morphism, _evt_morphism_args(),
        lambda v: (v.event_map, v.var_map),
        lambda v: [(v.event_dict, dict(v.event_map)), (v.var_dict, dict(v.var_map))]),
}


@pytest.mark.oracle
@pytest.mark.parametrize("kind", list(_VALIDATIONS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_constructors_validate_as_the_per_name_reference(kind, data):
    """Each signature and morphism constructor builds the value the per-name
    reference validation builds, or raises the SortError it raises."""
    build, reference, args, fields_of, views = _VALIDATIONS[kind]
    args = data.draw(args)
    try:
        want = reference(*args)
    except SortError as e:
        with pytest.raises(SortError) as got:
            build(*args)
        assert str(got.value) == str(e)
        return
    value = build(*args)
    assert fields_of(value) == want
    for view, fields in views(value):
        assert view == fields


def _rex_setup():
    sig = EvtSignature(events=(("e", Status.ordinary),),
                       vars=(("x", INT), ("y", BOOL)))
    ctx = ElabContext(FopeqSignature(), vars=sig.vars)
    typed = parse_formula_text("x ∈ {0, 1, 2} ∧ x′ ∈ {0, 1, 2}", ctx)
    body = parse_formula_text("x < 2 ∧ x′ = x + 1 ∧ y′ = FALSE", ctx)
    alg = make_algebra(FopeqSignature(), 3, {}, {})
    return sig, typed, body, alg


class TestSatisfies:
    def test_bounded_increment_model(self):
        sig, typed, body, alg = _rex_setup()
        pairs = {
            (make_state({"x": x, "y": y}), make_state({"x": x + 1, "y": False}))
            for x in (0, 1) for y in (False, True)
        }
        m = make_model(sig, alg, [make_state({"x": 0, "y": False})], {"e": pairs})
        assert satisfies(m, EvtSentence("e", body))
        assert satisfies(m, EvtSentence("e", typed))

    def test_trivially_true_sentence(self):
        sig, typed, body, alg = _rex_setup()
        m = make_model(sig, alg, [make_state({"x": 0, "y": False})], {})
        assert satisfies(m, EvtSentence("e", TRUE))

    def test_single_failing_pair(self):
        sig, typed, body, alg = _rex_setup()
        m = make_model(sig, alg, [make_state({"x": 0, "y": False})],
                       {"e": {(make_state({"x": 2, "y": False}),
                               make_state({"x": 0, "y": False}))}})
        guard = parse_formula_text(
            "x < 2", ElabContext(FopeqSignature(), vars=sig.vars))
        assert not satisfies(m, EvtSentence("e", guard))

    def test_unknown_event_is_structural(self):
        sig, typed, body, alg = _rex_setup()
        m = make_model(sig, alg, [make_state({"x": 0, "y": False})], {})
        with pytest.raises(SortError):
            satisfies(m, EvtSentence("zz", TRUE))

    def test_init_evaluates_primed_part_only(self):
        sig, typed, body, alg = _rex_setup()
        ctx = ElabContext(FopeqSignature(), vars=sig.vars)
        fam = parse_formula_text("x ≤ 2 ∧ x′ ≤ 2", ctx)
        m = make_model(sig, alg, [make_state({"x": 0, "y": False})], {})
        assert satisfies(m, EvtSentence(INIT, fam))
        bad = make_model(sig, alg, [make_state({"x": 3, "y": False})], {})
        assert not satisfies(bad, EvtSentence(INIT, fam))


@pytest.mark.oracle
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_satisfies_agrees_with_literal_satisfaction(bridge, data):
    """satisfies, on state codes and compiled closures, agrees with the
    literal ⊨ on tuple states for every sentence of m0, on random models at
    --bound 2 --pin d=1.  Each set mixes members of the maximal model, which
    satisfy every sentence, with arbitrary states and pairs."""
    bounds = Bounds(int_bound=2, pins=(("d", 1),))
    ev = Evaluator(bridge.library, bounds)
    spec = bridge.library.lookup("m0")
    sig = sig_of(spec, bridge.library)
    rep = ev.model_class(spec)
    algebras = enumerate_algebras(sig.fopeq, bounds, axioms=ev.flatten(spec).axioms)
    alg = data.draw(st.sampled_from(algebras))
    sl = rep.by_algebra.get(alg)
    states = enumerate_states(sig, alg)
    pairs = list(itertools.product(states, states))

    def mixed(arbitrary, maximal, min_size=0):
        picked = data.draw(st.sets(st.sampled_from(sorted(maximal)), max_size=2)
                           if maximal else st.just(set()))
        return picked | data.draw(st.sets(st.sampled_from(arbitrary),
                                          min_size=0 if picked else min_size, max_size=2))

    maximal = dict(sl.rel) if sl is not None else {}
    init = mixed(states, sl.init if sl is not None else (), min_size=1)
    rel = {e: mixed(pairs, maximal.get(e, ())) for e in sig.non_init_events}
    model = make_model(sig, alg, init, rel)
    for s in ev.sentences_of(spec):
        assert satisfies(model, s) == literal_satisfies(model, s), s


def test_init_conjuncts_keep_after_value_conjuncts():
    ctx = ElabContext(FopeqSignature(), vars=(("n", INT),))
    fam = parse_formula_text("n ≤ 2 ∧ n′ ≤ 2", ctx)
    assert init_conjuncts(fam) == [parse_formula_text("n′ ≤ 2", ctx)]
    mixed = parse_formula_text("n′ = n + 1", ctx)
    assert init_conjuncts(mixed) == []
    # the unprimed copy of a negated invariant is dropped, not read as ¬TRUE
    neq = parse_formula_text("n ≠ 5 ∧ n′ ≠ 5", ctx)
    assert init_conjuncts(neq) == [parse_formula_text("n′ ≠ 5", ctx)]
    closed = parse_formula_text("1 ≤ 2 ∧ n ≤ 2", ctx)
    assert init_conjuncts(closed) == [parse_formula_text("1 ≤ 2", ctx)]


class TestMaximalModel:
    def test_bounded_increment_relation(self):
        sig, typed, body, alg = _rex_setup()
        init_body = parse_formula_text(
            "x′ = 0 ∧ x′ ∈ {0, 1, 2}", ElabContext(FopeqSignature(), vars=sig.vars))
        l_max, r_max = decoded(sig, alg, maximal_model(ModelPlan(
            sig, [EvtSentence("e", typed), EvtSentence("e", body),
                  EvtSentence(INIT, init_body)]), alg, B3))
        expected = {
            (make_state({"x": x, "y": y}), make_state({"x": x + 1, "y": False}))
            for x in (0, 1) for y in (False, True)
        }
        assert r_max["e"] == expected
        assert l_max == {make_state({"x": 0, "y": False}),
                         make_state({"x": 0, "y": True})}

    def test_false_sentence_empties_the_relation(self):
        sig, typed, body, alg = _rex_setup()
        l_max, r_max = maximal_model(ModelPlan(sig, [EvtSentence("e", FALSE)]), alg, B3)
        assert r_max["e"] == frozenset()
        assert l_max  # initial states unconstrained

    def test_counter_maxima(self):
        # oracle: every (n, n') in (-3..3)^2 filtered by the sentences
        fsig = FopeqSignature(ops=(Op("d", (), INT),))
        sig = EvtSignature(fsig, (("ML_out", Status.ordinary),), (("n", INT),))
        ctx = ElabContext(fsig, vars=sig.vars)
        fam = parse_formula_text("n ≤ d ∧ n′ ≤ d ∧ n ≥ 0 ∧ n′ ≥ 0", ctx)
        body = parse_formula_text("n < d ∧ n′ = n + 1", ctx)
        alg = make_algebra(fsig, 3, {}, {"d": {(): 2}})
        _, r_max = decoded(sig, alg, maximal_model(ModelPlan(
            sig, [EvtSentence("ML_out", fam), EvtSentence("ML_out", body)]), alg, B3))
        brute = {
            (make_state({"n": n}), make_state({"n": np}))
            for n in range(-3, 4) for np in range(-3, 4)
            if 0 <= n <= 2 and 0 <= np <= 2 and n < 2 and np == n + 1
        }
        assert r_max["ML_out"] == brute == {
            (make_state({"n": 0}), make_state({"n": 1})),
            (make_state({"n": 1}), make_state({"n": 2}))}

    def test_ceiling(self):
        sig = EvtSignature(events=(("e", Status.ordinary),), vars=(("x", INT),))
        alg = make_algebra(FopeqSignature(), 3, {}, {})
        with pytest.raises(EnumerationLimit):
            maximal_model(ModelPlan(sig, [EvtSentence("e", TRUE)]), alg,
                          Bounds(int_bound=3, pair_ceiling=10))

    def test_ceiling_checked_before_the_pools_are_built(self):
        alg = make_algebra(FopeqSignature(), 2, {}, {})
        for nvars, after, ceiling, refusal in (
            # 5^6 states on each side of e; the initial state is pinned
            (6, "{v}′ = 0", 100, "event e: .*exceed the ceiling"),
            # 5^8 initial states: each variable is initialised by v :| v′ ∈ ℤ
            (8, "{v}′ ∈ ℤ", 1000, "event Init: .*exceed the ceiling"),
        ):
            names = [f"v{i}" for i in range(nvars)]
            sig = EvtSignature(events=(("e", Status.ordinary),),
                               vars=tuple((n, INT) for n in names))
            ctx = ElabContext(FopeqSignature(), vars=sig.vars)
            init = EvtSentence(INIT, And(tuple(
                parse_formula_text(after.format(v=n), ctx) for n in names)))
            tracemalloc.start()
            try:
                with pytest.raises(EnumerationLimit, match=refusal):
                    maximal_model(ModelPlan(sig, [init, EvtSentence("e", TRUE)]), alg,
                                  Bounds(int_bound=2, pair_ceiling=ceiling))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20

    def test_pair_refusal_takes_about_two_root_ceiling_states(self, monkeypatch):
        # 7^6 ℤ states over six variables at bound 3: the before-pool of e,
        # 7^6 − 7^5 = 100 842 states, fits under the ceiling on its own
        ceiling = 1_000_000
        names = [f"x{i}" for i in range(6)]
        sig = EvtSignature(events=(("e", Status.ordinary),),
                           vars=tuple((n, INT) for n in names))
        ctx = ElabContext(FopeqSignature(), vars=sig.vars)
        typed = parse_formula_text(" ∧ ".join(f"{n} ∈ ℤ ∧ {n}′ ∈ ℤ" for n in names), ctx)
        init = parse_formula_text(" ∧ ".join(f"{n}′ = 0" for n in names), ctx)
        body = parse_formula_text("x0 ≠ 1 ∧ x2′ = x2 + 1", ctx)
        sentences = [EvtSentence(INIT, init), EvtSentence("e", typed), EvtSentence("e", body)]
        yielded = 0
        search = institution._filter_pool

        def counted(*args):
            nonlocal yielded
            for state in search(*args):
                yielded += 1
                yield state

        monkeypatch.setattr(institution, "_filter_pool", counted)
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationLimit,
                               match="^event e: state pairs exceed the ceiling 1000000$"):
                maximal_model(ModelPlan(sig, sentences), make_algebra(FopeqSignature(), 3, {}, {}),
                              Bounds(int_bound=3, pair_ceiling=ceiling))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert yielded <= 2 * (math.isqrt(ceiling) + 1) + 2
        assert peak < 4 << 20


def _counting_searches(monkeypatch):
    """Patch _filter_pool to count its searches and the states they yield."""
    counts = {"searches": 0, "yielded": 0}
    search = institution._filter_pool

    def counted(*args):
        counts["searches"] += 1
        for state in search(*args):
            counts["yielded"] += 1
            yield state

    monkeypatch.setattr(institution, "_filter_pool", counted)
    return counts


@pytest.mark.oracle
def test_m2_makes_one_pool_search_per_call(bridge, monkeypatch):
    # every m2 sentence carries the invariants on both sides; at --bound 6
    # --pin d=4 they hold in fewer than ⌊√c⌋ + 1 states, so the core runs
    # dry and every other pool is filtered from it
    bounds = Bounds(int_bound=6, pins=(("d", 4),))
    ev = Evaluator(bridge.library, bounds)
    spec = bridge.library.lookup("m2")
    sig = sig_of(spec, bridge.library)
    sentences = ev.sentences_of(spec)
    algebras = enumerate_algebras(sig.fopeq, bounds, axioms=ev.flatten(spec).axioms)
    counts = _counting_searches(monkeypatch)
    assert len(algebras) > 1
    plan = ModelPlan(sig, sentences)
    for alg in algebras:
        before = counts["searches"]
        l_max, r_max = maximal_model(plan, alg, bounds)
        assert counts["searches"] - before == 1
        assert l_max and any(r_max.values())


@pytest.mark.oracle
def test_pool_states_are_never_encoded(monkeypatch):
    # the pool search builds each state's code next to its valuation, so
    # the evaluator never encodes a tuple state
    calls = 0
    encode = StateCoding.encode

    def counted(coding, s):
        nonlocal calls
        calls += 1
        return encode(coding, s)

    monkeypatch.setattr(StateCoding, "encode", counted)
    res = CliRunner().invoke(main, [
        "refine", *(str(FIXTURES / n) for n in ("ebm0.eb", "ebm1.eb", "ebm2.eb", "refinements.evt")),
        "--bound", "4", "--allow-status-drop"])
    assert res.exit_code == 0, res.output
    assert res.stdout == (
        "REF0: holds (4 algebra(s), 50 pair(s) checked)\n"
        "REF1A: holds (8 algebra(s), 1044 pair(s) checked)\n"
        "REF1B: holds (8 algebra(s), 964 pair(s) checked)\n")
    assert calls == 0


@pytest.mark.oracle
def test_core_that_does_not_run_dry_adds_at_most_root_ceiling_states(monkeypatch):
    # at bound 3 the invariant x0 ≠ 1 holds in 6·7³ = 2 058 states, more than
    # the ⌊√c⌋ + 1 = 142 the core grows to, so every reader searches on its
    # own: Init takes its 1 state, e its 6·6·7² = 1 764 before-states and
    # 6 after-states, and |B|·|A| = 10 584 fits under c = 20 000
    ceiling = 20_000
    names = [f"x{i}" for i in range(4)]
    sig = EvtSignature(events=(("e", Status.ordinary),),
                       vars=tuple((n, INT) for n in names))
    ctx = ElabContext(FopeqSignature(), vars=sig.vars)
    sentences = [EvtSentence(e, parse_formula_text(text, ctx)) for e, text in (
        (INIT, "x0′ ≠ 1 ∧ x0′ = 0 ∧ x1′ = 0 ∧ x2′ = 0 ∧ x3′ = 0"),
        ("e", "x0 ≠ 1 ∧ x0′ ≠ 1 ∧ x1 ≠ 2 ∧ x1′ = 0 ∧ x2′ = 0 ∧ x3′ = 0 ∧ x0′ = x0"),
    )]
    counts = _counting_searches(monkeypatch)
    l_max, r_max = maximal_model(ModelPlan(sig, sentences), make_algebra(FopeqSignature(), 3, {}, {}),
                                 Bounds(int_bound=3, pair_ceiling=ceiling))
    assert (len(l_max), len(r_max["e"])) == (1, 1764)
    assert counts["searches"] == 4
    assert counts["yielded"] <= 1 + 1764 + 6 + math.isqrt(ceiling) + 1


@pytest.mark.oracle
def test_sparse_core_stops_at_its_budget(monkeypatch):
    # seven ℤ variables under v0 + … + v6 = 14, which no definition binds: a
    # core searched on that invariant alone would try the whole 5⁷ or 7⁷
    # product, while every reader prunes on its own pins, e's before-pool
    # to the 5⁵ or 7⁵ states with v0 = v1 = 2 and every other pool to one;
    # partial sums leave the bound, so both maxima are empty
    names = [f"v{i}" for i in range(7)]
    sig = EvtSignature(events=(("e", Status.ordinary),),
                       vars=tuple((n, INT) for n in names))
    ctx = ElabContext(FopeqSignature(), vars=sig.vars)
    inv = " + ".join(names) + " = 14"
    inv_after = " + ".join(f"{n}′" for n in names) + " = 14"
    sentences = [EvtSentence(e, parse_formula_text(text, ctx)) for e, text in (
        (INIT, " ∧ ".join([inv_after, *(f"{n}′ = 0" for n in names)])),
        ("e", " ∧ ".join([inv, inv_after, "v0 = 2", "v1 = 2",
                          *(f"{n}′ = 2" for n in names)])),
    )]
    evaluations = 0
    compile_formula = institution.compile_formula

    def counted(c, algebra):
        fn = compile_formula(c, algebra)

        def evaluate(val):
            nonlocal evaluations
            evaluations += 1
            return fn(val)

        return evaluate

    monkeypatch.setattr(institution, "compile_formula", counted)
    root = math.isqrt(Bounds().pair_ceiling) + 1
    for bound in (2, 3):
        evaluations = 0
        l_max, r_max = maximal_model(ModelPlan(sig, sentences),
                                     make_algebra(FopeqSignature(), bound, {}, {}),
                                     Bounds(int_bound=bound))
        assert not l_max and not r_max["e"]
        # at most the core's budget, plus twice the candidates of e's before-pool
        assert evaluations <= 16 * root + 2 * (2 * bound + 1) ** 5, bound


# -- scheduled state pools against the product-filter oracle ----------------


def _product_filter_pool(sig, algebra, conjuncts, primed):
    """The full-product state pool that the scheduled search replaced, kept
    as its oracle: prune unary conjuncts, then filter the product."""
    names = sig.var_names
    candidates = {n: list(algebra.carrier(s)) for n, s in sig.vars}
    rest = []
    for c in conjuncts:
        fv = free_vars(c)
        key = next(iter(fv)) if len(fv) == 1 else None
        if key is not None and key[1] == primed:
            name = key[0]
            fn = compile_formula(c, algebra)
            candidates[name] = [
                v for v in candidates[name] if fn({(name, primed): v})]
        else:
            rest.append(compile_formula(c, algebra))
    domains = [candidates[n] for n in names]
    for combo in itertools.product(*domains):
        val = {(n, primed): v for n, v in zip(names, combo)}
        if all(fn(val) for fn in rest):
            yield tuple(zip(names, combo))


_POOL_FSIG = FopeqSignature(sorts=("E",), preds=(Pred("p", ("E",)),))


@functools.lru_cache(maxsize=None)
def _pool_formulas(ints, bools, elems, depth):
    """Formulas over the given ℤ, Bool and E variables: arithmetic may leave
    the bound, and quantifiers bind q over ℤ or E.  Strategies are cached per
    scope, because building them costs more than drawing from them."""
    leaves = st.sampled_from(tuple(map(IntLit, range(-3, 4))))
    if ints:
        leaves = st.one_of(st.sampled_from(ints), st.sampled_from(ints), leaves)
    terms = st.one_of(leaves, st.builds(lambda o, a, b: OpApp(o, (a, b)),
                                        st.sampled_from(["+", "-", "*"]), leaves, leaves))
    atoms = [st.builds(Equal, terms, terms),
             st.builds(lambda o, a, b: PredApp(o, (a, b)),
                       st.sampled_from(["<", "<=", ">", ">="]), terms, terms)]
    if bools:
        atoms.append(st.builds(Equal, st.sampled_from(bools),
                               st.sampled_from((BoolLit(True), BoolLit(False)))))
    if elems:
        atoms.append(st.builds(lambda v: PredApp("p", (v,)), st.sampled_from(elems)))
    # relations between two distinct variables of one sort
    if len(ints) > 1:
        atoms.append(st.builds(lambda o, ab, c: PredApp(o, (OpApp("+", tuple(ab[:2])), c)),
                               st.sampled_from(["<", "<=", ">", ">="]),
                               st.permutations(ints), leaves))
    atoms += [st.permutations(vs).map(lambda ab: Equal(*ab[:2]))
              for vs in (bools, elems) if len(vs) > 1]
    # relations first and constants last: failures shrink towards the first
    atoms = st.one_of(*reversed(atoms), st.sampled_from([TRUE, FALSE]))
    if depth == 0:
        return atoms
    sub = _pool_formulas(ints, bools, elems, depth - 1)
    q = Var("q")

    def drop_q(vs):
        return tuple(v for v in vs if v != q)

    # binding q over one sort shadows an outer q of any other sort
    quantified = st.one_of(
        st.builds(lambda k, f: k((("q", INT),), f), st.sampled_from([Exists, Forall]),
                  _pool_formulas((*ints, q), drop_q(bools), drop_q(elems), depth - 1)),
        st.builds(lambda k, f: k((("q", "E"),), f), st.sampled_from([Exists, Forall]),
                  _pool_formulas(drop_q(ints), drop_q(bools), (*elems, q), depth - 1)))
    return st.one_of(st.builds(lambda a, b: Or((a, b)), sub, sub),
                     st.builds(Implies, sub, sub), atoms, quantified,
                     st.builds(lambda a, b: And((a, b)), sub, sub), st.builds(Not, sub))


@st.composite
def _pool_problems(draw):
    primed = draw(st.booleans())
    sorts = draw(st.lists(st.sampled_from([INT, BOOL, "E"]), max_size=4))
    sig = EvtSignature(_POOL_FSIG, (), tuple((f"v{i}", s) for i, s in enumerate(sorts)))
    carrier = [f"c{i}" for i in range(draw(st.sampled_from([2, 3, 1, 0])))]
    marked = draw(st.sets(st.sampled_from(carrier))) if carrier else set()
    alg = make_algebra(_POOL_FSIG, draw(st.integers(1, 2)), {"E": carrier}, {},
                       {"p": {(c,) for c in marked}})
    scope = [tuple(Var(n, primed) for n, s2 in sig.vars if s2 == s) for s in (INT, BOOL, "E")]
    conjuncts = draw(st.lists(_pool_formulas(*scope, 2), max_size=4))
    return sig, alg, conjuncts, primed


def _definition_problem(sorts, bound, primed, *texts):
    """A pool problem over v0, v1, … of the given sorts whose conjuncts are
    written as text over unprimed variables, then moved to the pool's side."""
    sig = EvtSignature(_POOL_FSIG, (), tuple((f"v{i}", s) for i, s in enumerate(sorts)))
    ctx = ElabContext(_POOL_FSIG, vars=sig.vars)
    side = {(n, False): Var(n, primed) for n in sig.var_names}
    conjuncts = [substitute(parse_formula_text(t, ctx), side) for t in texts]
    alg = make_algebra(_POOL_FSIG, bound, {"E": ["c0", "c1", "c2"]}, {},
                       {"p": {("c0",), ("c2",)}})
    return sig, alg, conjuncts, primed


# definitions x = t: a chain, a cycle, a value past the bound, two definitions
# of one variable, candidates pruned by a unary conjunct, the reversed
# orientation, and Bool and E definitions, on both sides
_DEFINITION_PROBLEMS = [
    ([INT, INT, INT], 2, ("v0 = v1 + 1", "v1 = v2 - 1")),
    ([INT, INT], 2, ("v0 = v1", "v1 = v0")),
    ([INT, INT, INT], 2, ("v0 = v1 + v2", "v1 = v0 - v2", "v2 = v0 - v1")),
    ([INT, INT], 1, ("v0 = v1 * 3",)),
    ([INT, INT], 1, ("v0 = v1 + v1",)),
    ([INT, INT, INT], 2, ("v0 = v1 + 1", "v0 = v2 - 1")),
    ([INT, INT, INT], 2, ("v0 = v1 * v1", "v2 = v1 + v1", "v0 = v2")),
    ([INT, INT], 2, ("v0 ≥ 0", "v0 = v1 - 1", "v1 ≤ 1")),
    ([INT, INT], 2, ("v1 + 1 = v0", "v0 ≠ 2")),
    ([BOOL, BOOL, BOOL], 1, ("v0 = v1", "v1 = v2", "v2 = TRUE")),
    ([BOOL, BOOL, INT], 1, ("v0 = v1", "v1 = v0", "v2 > 0")),
    (["E", "E", BOOL], 1, ("v0 = v1", "p(v1)", "v2 = TRUE")),
    (["E", "E", "E"], 1, ("v2 = v0", "v0 = v1", "¬p(v0)")),
]


def _with_definition_examples(test):
    for sorts, bound, texts in _DEFINITION_PROBLEMS:
        for primed in (False, True):
            test = example(_definition_problem(sorts, bound, primed, *texts))(test)
    return test


@pytest.mark.oracle
@given(_pool_problems())
@_with_definition_examples
@settings(max_examples=300, deadline=None)
def test_scheduled_pool_matches_product_filter(problem):
    # the search reads the unprimed forms; the oracle reads the original side
    sig, alg, conjuncts, primed = problem
    unprime = {(n, True): Var(n) for n in sig.var_names}
    compiled = [(u, free_vars(u), compile_formula(u, alg))
                for u in (substitute(c, unprime) for c in conjuncts)]

    coding = state_coding(sig, alg)

    def scheduled():
        search = institution._filter_pool(
            sig, alg, compiled, lambda t: fopeq.compile_term(t, alg))
        for code, val in search:
            state = coding.decode(code)
            assert val == {(n, False): v for n, v in state}
            yield state

    def oracle():
        return _product_filter_pool(sig, alg, conjuncts, primed)

    got, want = list(scheduled()), list(oracle())
    assert set(got) == set(want)
    assert len(got) == len(want) == len(set(want))
    # maximal_model refuses when the (k+1)-th state exists
    n = len(want)
    for k in {0, 1, n // 2, max(n - 1, 0), n, n + 1}:
        assert (len(list(itertools.islice(scheduled(), k + 1))) > k) == (
            len(list(itertools.islice(oracle(), k + 1))) > k)


def test_pool_conjunct_outside_the_signature_raises():
    # a pool binds unprimed variables only, so x′ is outside it as z is
    sig = EvtSignature(vars=(("x", INT), ("y", INT)))
    alg = make_algebra(FopeqSignature(), 1, {}, {})
    x, y, z = Var("x"), Var("y"), Var("z")
    for stray in (Equal(z, IntLit(0)), Equal(x, Var("x", True)), Equal(x, OpApp("+", (y, z)))):
        compiled = [(c, free_vars(c), compile_formula(c, alg))
                    for c in (stray, PredApp("<", (x, y)))]
        with pytest.raises(SortError, match="unbound variable"):
            list(institution._filter_pool(
                sig, alg, compiled, lambda t: fopeq.compile_term(t, alg)))


# -- joined event pairs against the product-loop oracle ---------------------


def _product_maximal_model(sig, sentences, algebra, bounds):
    """maximal_model as it was before the join, kept as its oracle: every
    mixed conjunct is tested on the whole before×after product.  Also
    returns the smallest ceiling that admits the call."""
    ceiling = bounds.pair_ceiling

    def compiled(event, flatten):
        return [(c, free_vars(c), compile_formula(c, algebra))
                for s in sentences if s.event == event for c in flatten(s.body)]

    def pool(conjs, primed):
        return _product_filter_pool(sig, algebra, [
            c for c, fv, _ in conjs if fv and {p for _, p in fv} == {primed}], primed)

    init = compiled(INIT, init_conjuncts)
    l_max = frozenset(itertools.islice(pool(init, True), ceiling + 1)
                      if all(fn({}) for _, fv, fn in init if not fv) else ())
    if len(l_max) > ceiling:
        raise EnumerationLimit(f"event {INIT}: initial states exceed the ceiling {ceiling}")
    need, r_max = max(len(l_max), 1), {}
    for e in sig.non_init_events:
        conjs = compiled(e, institution._flatten_conjuncts)
        before = list(itertools.islice(pool(conjs, False), ceiling + 1)
                      if all(fn({}) for _, fv, fn in conjs if not fv) else ())
        if not before:
            r_max[e] = frozenset()
            continue
        after = list(itertools.islice(pool(conjs, True), ceiling // len(before) + 1))
        if len(before) * len(after) > ceiling:
            raise EnumerationLimit(f"event {e}: state pairs exceed the ceiling {ceiling}")
        need = max(need, len(before) * len(after))
        mixed = [fn for _, fv, fn in conjs if len({p for _, p in fv}) == 2]
        r_max[e] = frozenset((s, t) for s in before for t in after
                             if all(fn({**valuation(s, False), **valuation(t, True)})
                                    for fn in mixed))
    return l_max, r_max, need


def _int_terms(ints):
    """ℤ terms over the given variables whose arithmetic may leave the bound."""
    leaves = st.sampled_from(tuple(map(IntLit, range(-2, 3))))
    if ints:
        leaves = st.one_of(st.sampled_from(ints), leaves)
    return st.recursive(leaves, lambda sub: st.builds(
        lambda o, a, b: OpApp(o, (a, b)), st.sampled_from(["+", "-", "*"]), sub, sub),
        max_leaves=3)


@st.composite
def _join_problems(draw):
    sorts = draw(st.lists(st.sampled_from([INT, BOOL, "E"]), min_size=1, max_size=3))
    events = tuple((f"e{i}", Status.ordinary) for i in range(draw(st.integers(1, 2))))
    sig = EvtSignature(_POOL_FSIG, events, tuple((f"v{i}", s) for i, s in enumerate(sorts)))
    carrier = [f"c{i}" for i in range(draw(st.sampled_from([2, 3, 1, 0])))]
    marked = draw(st.sets(st.sampled_from(carrier))) if carrier else set()
    bound = draw(st.integers(1, 2))
    alg = make_algebra(_POOL_FSIG, bound, {"E": carrier}, {},
                       {"p": {(c,) for c in marked}})

    def scope(primed_sides):
        return [tuple(Var(n, p) for n, s2 in sig.vars for p in primed_sides if s2 == s)
                for s in (INT, BOOL, "E")]

    before, both = scope((False,)), scope((False, True))
    rhs = {INT: st.one_of(_int_terms(before[0]), _int_terms(both[0])),
           BOOL: st.sampled_from(before[1] + (BoolLit(True), BoolLit(False))),
           "E": st.sampled_from(before[2] + both[2])}
    sentences = [EvtSentence(INIT, conjoin(draw(st.lists(
        _pool_formulas(*scope((True,)), 1), max_size=2))))]
    for e, _ in events:
        # actions x′ = t in both orientations, some on the same variable;
        # a term over primed variables makes a check, not a key
        actions = []
        for n, s in draw(st.lists(st.sampled_from(sig.vars), min_size=1, max_size=4)):
            t = draw(rhs[s])
            actions.append(draw(st.sampled_from(
                [Equal(Var(n, True), t), Equal(t, Var(n, True))])))
        extra = draw(st.lists(_pool_formulas(*both, 1), max_size=3))
        sentences.append(EvtSentence(e, conjoin(draw(st.permutations(actions + extra)))))
    return sig, alg, sentences, bound


def _event_pool_sizes(sig, sentences, algebra):
    """(|B|, |A|) of every event whose closed conjuncts hold, from its whole
    before- and after-pools."""
    sizes = []
    for e in sig.non_init_events:
        conjs = [(c, free_vars(c), compile_formula(c, algebra)) for s in sentences
                 if s.event == e for c in institution._flatten_conjuncts(s.body)]
        if all(fn({}) for _, fv, fn in conjs if not fv):
            sizes.append(tuple(
                sum(1 for _ in _product_filter_pool(sig, algebra, [
                    c for c, fv, _ in conjs if fv and {p for _, p in fv} == {primed}],
                    primed))
                for primed in (False, True)))
    return sizes


def _shared_pool_problem():
    """Three events read one before-pool, and e2 reads Init's pool as its
    after-pool.  e0's after-pool is empty, so e0 takes one before-state and
    stops; e1 (|B|·|A| = 20·5) and e2 (20·15) grow the shared prefix on, and
    fit under different ceilings."""
    sig = EvtSignature(events=tuple((f"e{i}", Status.ordinary) for i in range(3)),
                       vars=(("v0", INT), ("v1", INT)))
    ctx = ElabContext(FopeqSignature(), vars=sig.vars)
    sentences = [EvtSentence(e, parse_formula_text(text, ctx)) for e, text in (
        (INIT, "v1′ ≥ 0"),
        ("e0", "v0 ≠ 1 ∧ ¬(v1′ = v1′) ∧ v0′ = v0"),
        ("e1", "v0 ≠ 1 ∧ v1′ = 0 ∧ v0′ = v0 + 1"),
        ("e2", "v0 ≠ 1 ∧ v1′ ≥ 0 ∧ v1′ = v1 - 1"),
    )]
    return sig, make_algebra(FopeqSignature(), 2, {}, {}), sentences, 2


def _gluing_problem():
    """The bridge's gluing invariant n = a + b + c on both sides, with
    actions x′ = t in both orientations, some of them on n′; each pool binds
    n (v3) from its definition."""
    sig = EvtSignature(events=tuple((f"e{i}", Status.ordinary) for i in range(3)),
                       vars=tuple((n, INT) for n in ("v0", "v1", "v2", "v3")))
    ctx = ElabContext(FopeqSignature(), vars=sig.vars)
    glue = "v3 = v0 + v1 + v2 ∧ v3′ = v0′ + v1′ + v2′"
    sentences = [EvtSentence(e, parse_formula_text(text, ctx)) for e, text in (
        (INIT, "v3′ = v0′ + v1′ + v2′ ∧ v0′ = 0 ∧ v1′ = 0 ∧ v2′ = 0"),
        ("e0", f"{glue} ∧ v2 = 0 ∧ v0′ = v0 + 1 ∧ v1′ = v1 ∧ v2′ = v2 ∧ v3 + 1 = v3′"),
        ("e1", f"{glue} ∧ 0 < v0 ∧ v0 - 1 = v0′ ∧ v1′ = v1 + 1 ∧ v0 + v1 + v2 = v3′"),
        ("e2", f"{glue} ∧ v0 = 0 ∧ v1′ = v1 - 1 ∧ v2′ = v2 + 1 ∧ v3′ = v3"),
    )]
    return sig, make_algebra(FopeqSignature(), 2, {}, {}), sentences, 2


def _core_problem(nvars, texts, bound=2):
    """Events e0, e1, … over ℤ variables v0, v1, …, and Init, with their
    sentences given as text."""
    sig = EvtSignature(events=tuple((f"e{i}", Status.ordinary) for i in range(len(texts) - 1)),
                       vars=tuple((f"v{i}", INT) for i in range(nvars)))
    ctx = ElabContext(FopeqSignature(), vars=sig.vars)
    sentences = [EvtSentence(e, parse_formula_text(text, ctx))
                 for e, text in zip((INIT, *sig.non_init_events), texts)]
    return sig, make_algebra(FopeqSignature(), bound, {}, {}), sentences, bound


def _empty_core_problem():
    """Init and the two sides of e0 and e1 share no conjunct."""
    return _core_problem(2, ["v0′ = 0", "v0 ≥ 0 ∧ v1′ = 1 ∧ v0′ = v0",
                             "v1 < v0 ∧ v0′ ≠ v1′ ∧ v1′ = v1 + 1"])


def _large_core_problem():
    """The invariant v0 ≤ v1 on both sides, and on Init, holds in 1 875 of
    the 3 125 states, more than the ⌊√(2²⁰)⌋ + 1 = 1 025 the core grows to;
    every reader adds a conjunct and searches on its own.  The actions fix
    every after-value, so the product-loop oracle stays small."""
    inv = "v0 ≤ v1 ∧ v0′ ≤ v1′"
    return _core_problem(5, [
        "v0′ ≤ v1′ ∧ v0′ = 0 ∧ v1′ = 0 ∧ v2′ = 0 ∧ v3′ = 0 ∧ v4′ = 0",
        f"{inv} ∧ v2 ≠ 2 ∧ v0′ = 0 ∧ v1′ = 0 ∧ v2′ = 0 ∧ v3′ = 0 ∧ v4′ = 0",
        f"{inv} ∧ v3 ≠ 0 ∧ v0′ = 1 ∧ v1′ = 1 ∧ v2′ = 1 ∧ v3′ = 1 ∧ v4′ = 1"])


def _no_reader_is_the_core_problem():
    """Every event has a guard and an after-only unary action, and Init an
    action, on top of the shared invariant: every pool is filtered from the
    core, none is the core itself."""
    inv = "v0 + v1 ≤ 2 ∧ v0′ + v1′ ≤ 2"
    return _core_problem(2, [
        "v0′ + v1′ ≤ 2 ∧ v0′ = 0",
        f"{inv} ∧ v0 < 1 ∧ v0′ = 1 ∧ v1′ = v1",
        f"{inv} ∧ v1 ≠ 0 ∧ v1′ = -1 ∧ v0′ = v0 + 1",
        f"{inv} ∧ v0 = v1 ∧ v1′ = 2 ∧ v0′ ≥ v0"])


def _bound_name_problem():
    """The invariant ∃v1·(v1 + 1 = v0 ∧ v1 ≥ −1) binds a variable named like
    the state variable v1, and its primed form is evaluated as its unprimed
    form, which is the invariant itself.  e0's after-only
    ∃v1·(v1 + 1 = v0′ ∧ v1′ ≥ −1) reads the free v1′ under that binder:
    unprimed without renaming the bound v1 apart, it would be the invariant,
    and e0's after-pool would keep v1′ = −2."""
    sig = EvtSignature(events=(("e0", Status.ordinary), ("e1", Status.ordinary)),
                       vars=(("v0", INT), ("v1", INT)))
    v0, v1, v0p, v1p = Var("v0"), Var("v1"), Var("v0", True), Var("v1", True)

    def inv(x, y):
        return Exists((("v1", INT),), And((
            Equal(OpApp("+", (v1, IntLit(1))), x), PredApp(">=", (y, IntLit(-1))))))

    return sig, make_algebra(FopeqSignature(), 2, {}, {}), [
        EvtSentence(INIT, And((inv(v0p, v1), Equal(v1p, IntLit(0))))),
        EvtSentence("e0", And((inv(v0, v1), inv(v0p, v1), inv(v0p, v1p), Equal(v0p, v0)))),
        EvtSentence("e1", And((inv(v0, v1), inv(v0p, v1),
                               Equal(v1p, OpApp("+", (v1, IntLit(1))))))),
    ], 2


def _false_closed_conjunct_problem():
    """e1's closed conjunct 1 = 2 is false, so e1 reads no pool and its
    relation is empty.  It lacks the invariant the others hold, which, read
    as a pool, would leave the core empty."""
    inv = "v0 ≥ 0 ∧ v0′ ≥ 0"
    return _core_problem(2, ["v0′ ≥ 0 ∧ v1′ = 0",
                             f"{inv} ∧ v1′ = v0 ∧ v0′ = v0",
                             "1 = 2 ∧ v0 = v1 ∧ v1′ = 1",
                             f"{inv} ∧ v1 = 1 ∧ v0′ = v0 - 1"])


@pytest.mark.oracle
@given(_join_problems())
@example(_shared_pool_problem())
@example(_gluing_problem())
@example(_empty_core_problem())
@example(_large_core_problem())
@example(_no_reader_is_the_core_problem())
@example(_bound_name_problem())
@example(_false_closed_conjunct_problem())
@settings(max_examples=200, deadline=None)
def test_joined_pairs_match_product_loop(problem):
    sig, alg, sentences, bound = problem
    _assert_run_matches_product_loop(ModelPlan(sig, sentences), sentences, alg, bound)


def _assert_run_matches_product_loop(plan, sentences, alg, bound):
    """The plan's run over alg gives the product loop's maxima, and refuses
    exactly where the product loop does."""
    sig = plan.sig

    def decoded_maximal_model(sig, sentences, algebra, bounds):
        return decoded(sig, algebra, maximal_model(plan, algebra, bounds))

    def outcome(run, ceiling):
        try:
            return run(sig, sentences, alg, Bounds(int_bound=bound, pair_ceiling=ceiling))[:2]
        except EnumerationLimit as exc:
            return str(exc)

    l_max, r_max, need = _product_maximal_model(sig, sentences, alg, Bounds(int_bound=bound))
    # a fresh run's counts, read before any of its pair codes are
    _, counted = maximal_model(plan, alg, Bounds(int_bound=bound))
    assert {e: len(p) for e, p in counted.items()} == {e: len(p) for e, p in r_max.items()}
    assert decoded_maximal_model(sig, sentences, alg, Bounds(int_bound=bound)) == (l_max, r_max)
    # refusals at the ceilings around the smallest admitting one, and at each
    # event's own |B|·|A|, |B|·|A| − 1 and |B|
    ceilings = {1, need // 2, need - 1, need}
    for b, a in _event_pool_sizes(sig, sentences, alg):
        ceilings |= {b * a, b * a - 1, b}
    for k in ceilings:
        if k > 0:
            assert outcome(decoded_maximal_model, k) == outcome(_product_maximal_model, k)


_K = OpApp("k", ())
_CONST_FSIG = FopeqSignature(sorts=("E",), ops=(Op("k", (), INT),), preds=(Pred("p", ("E",)),))


def _const_algebras(bound, carrier=("c0", "c1"), marked=("c0",)):
    """One algebra of _CONST_FSIG per value of k in the bound."""
    return [make_algebra(_CONST_FSIG, bound, {"E": list(carrier)}, {"k": {(): k}},
                         {"p": {(c,) for c in marked}})
            for k in range(-bound, bound + 1)]


@st.composite
def _plan_reuse_problems(draw):
    """Events over ℤ and E variables and a constant k : ℤ, with one algebra
    per value of k: k decides which closed conjuncts hold, which values the
    unary conjuncts keep, and what the actions compute."""
    sorts = draw(st.lists(st.sampled_from([INT, INT, "E"]), min_size=1, max_size=3))
    events = tuple((f"e{i}", Status.ordinary) for i in range(draw(st.integers(1, 2))))
    sig = EvtSignature(_CONST_FSIG, events, tuple((f"v{i}", s) for i, s in enumerate(sorts)))
    bound = draw(st.integers(1, 2))
    carrier = [f"c{i}" for i in range(draw(st.integers(1, 3)))]
    algebras = _const_algebras(bound, carrier, draw(st.sets(st.sampled_from(carrier))))

    def scope(primed_sides):
        return [(*(Var(n, p) for n, s in sig.vars for p in primed_sides if s == INT), _K), (),
                tuple(Var(n, p) for n, s in sig.vars for p in primed_sides if s == "E")]

    closed = st.lists(_pool_formulas((_K,), (), (), 1), max_size=2)
    sentences = [EvtSentence(INIT, conjoin(draw(closed) + draw(st.lists(
        _pool_formulas(*scope((True,)), 0), max_size=2))))]
    before, both = scope((False,)), scope((False, True))
    for e, _ in events:
        actions = [Equal(Var(n, True), draw(_int_terms(before[0])) if s == INT
                         else draw(st.sampled_from(before[2])))
                   for n, s in draw(st.lists(st.sampled_from(sig.vars), min_size=1, max_size=3))]
        unary = [draw(_pool_formulas(*(tuple(v for v in vs if v in (Var(n), _K)) for vs in before), 0))
                 for n in draw(st.lists(st.sampled_from(sig.var_names), max_size=2))]
        extra = draw(st.lists(_pool_formulas(*both, 1), max_size=2))
        sentences.append(EvtSentence(e, conjoin(draw(st.permutations(
            draw(closed) + unary + actions + extra)))))
    return sig, algebras, sentences, bound


def _constant_gated_problem():
    """e0 holds only where k > 0, prunes v0 ≤ k, and Init reads v0′ = k, so
    every algebra's run differs from the first one's."""
    sig = EvtSignature(_CONST_FSIG, (("e0", Status.ordinary),), (("v0", INT),))
    ctx = ElabContext(_CONST_FSIG, vars=sig.vars)
    sentences = [EvtSentence(e, parse_formula_text(text, ctx)) for e, text in (
        (INIT, "v0′ = k"), ("e0", "k > 0 ∧ v0 ≤ k ∧ v0′ = v0 + k"))]
    return sig, _const_algebras(1), sentences, 1


@pytest.mark.oracle
@given(_plan_reuse_problems())
@example(_constant_gated_problem())
@settings(max_examples=100, deadline=None)
def test_one_plan_runs_over_every_algebra(problem):
    sig, algebras, sentences, bound = problem
    plan = ModelPlan(sig, sentences)
    for alg in algebras:
        _assert_run_matches_product_loop(plan, sentences, alg, bound)


def test_action_keys_in_both_orientations():
    after = frozenset({("x", True), ("y", True)})
    before = frozenset({("x", False), ("y", False)})
    x, xp, yp = Var("x"), Var("x", True), Var("y", True)
    t = OpApp("+", (x, Var("y")))
    assert institution._definition(Equal(xp, t), after, before) == (("x", True), t)
    assert institution._definition(Equal(t, xp), after, before) == (("x", True), t)
    assert institution._definition(Equal(yp, xp), after, before) is None
    assert institution._definition(Equal(xp, OpApp("+", (x, yp))), after, before) is None


def test_definitions_within_one_pool():
    own = frozenset({("x", False), ("y", False)})
    x, y, z = Var("x"), Var("y"), Var("z")
    assert institution._definition(Equal(x, y), own, own) == (("x", False), y)
    assert institution._definition(Equal(OpApp("+", (y, y)), x), own, own) == (
        ("x", False), OpApp("+", (y, y)))
    # x = x + y mentions x; x = y + z reads z outside the pool; x = y + 1
    # defines nothing over before-values
    assert institution._definition(Equal(x, OpApp("+", (x, y))), own, own) is None
    assert institution._definition(Equal(x, OpApp("+", (y, z))), own, own) is None
    assert institution._definition(Equal(Var("x", True), y), own, own) is None


def test_definition_binds_instead_of_searching():
    # x ranges over 101 values at bound 50, but x = y + z fixes it from the
    # 2 × 2 values of y and z: the equation is evaluated at most once per
    # (y, z), in either orientation
    sig = EvtSignature(vars=(("x", INT), ("y", INT), ("z", INT)))
    alg = make_algebra(FopeqSignature(), 50, {}, {})
    x, y, z = Var("x"), Var("y"), Var("z")
    unary = [PredApp("<=", (IntLit(0), y)), PredApp("<=", (y, IntLit(1))),
             PredApp("<=", (IntLit(0), z)), PredApp("<=", (z, IntLit(1)))]
    total = OpApp("+", (y, z))
    for eq in (Equal(x, total), Equal(total, x)):
        calls = 0
        fn = compile_formula(eq, alg)

        def counted(val):
            nonlocal calls
            calls += 1
            return fn(val)

        conjuncts = [(c, free_vars(c), compile_formula(c, alg)) for c in unary]
        conjuncts.append((eq, free_vars(eq), counted))
        got = [state_coding(sig, alg).decode(code)
               for code, _ in institution._filter_pool(
                   sig, alg, conjuncts, lambda t: fopeq.compile_term(t, alg))]
        assert set(got) == set(_product_filter_pool(sig, alg, [*unary, eq], False))
        assert len(got) == 4
        assert calls <= 4


def test_key_like_equation_outside_the_signature_stays_a_check():
    sig = EvtSignature(events=(("e", Status.ordinary),), vars=(("x", INT),))
    alg = make_algebra(FopeqSignature(), 1, {}, {})
    x, xp, z, zp = Var("x"), Var("x", True), Var("z"), Var("z", True)
    for stray in (Equal(zp, x), Equal(x, zp), Equal(xp, z), Equal(z, xp)):
        body = And((stray, Equal(xp, x)))
        with pytest.raises(SortError, match="unbound variable"):
            ModelPlan(sig, [EvtSentence("e", body)])


def test_variable_outside_the_signature_is_refused_before_the_pools():
    # the key x′ = x + 5 would be undefined at bound 1, so no pair would
    # reach z = x′; the plan refuses z before it sees an algebra
    sig = EvtSignature(events=(("e", Status.ordinary),), vars=(("x", INT),))
    x, xp = Var("x"), Var("x", True)
    body = And((Equal(xp, OpApp("+", (x, IntLit(5)))), Equal(Var("z"), xp)))
    with pytest.raises(SortError, match="unbound variable z$"):
        ModelPlan(sig, [EvtSentence("e", body)])
    with pytest.raises(SortError, match="unbound variable z′"):
        ModelPlan(sig, [EvtSentence(INIT, Equal(Var("z", True), IntLit(0)))])


def test_sentence_naming_an_unknown_event_is_refused_by_the_plan():
    sig = EvtSignature(events=(("e", Status.ordinary),), vars=(("x", INT),))
    with pytest.raises(SortError, match="^sentence names unknown event f$"):
        ModelPlan(sig, [EvtSentence("e", TRUE), EvtSentence("f", TRUE)])


class TestModelConstruction:
    def test_state_over_other_variables_is_refused(self):
        sig, alg = usig(nvars=2), ualg()
        good = make_state({"x": "u0", "y": "u1"})
        for bad in ({"x": "u0"}, {"x": "u0", "z": "u1"}, {"x": "u0", "y": "u1", "z": "u0"}):
            with pytest.raises(SortError, match="not over the variables"):
                make_model(sig, alg, [make_state(bad)], {})
            with pytest.raises(SortError, match="not over the variables"):
                make_model(sig, alg, [good], {"e": {(good, make_state(bad))}})

    def test_value_outside_its_carrier_is_refused(self):
        sig, alg = usig(nvars=2), ualg()
        good = make_state({"x": "u0", "y": "u1"})
        bad = make_state({"x": "u0", "y": "u9"})
        with pytest.raises(SortError, match="value 'u9' of y lies outside its carrier"):
            make_model(sig, alg, [bad], {})
        with pytest.raises(SortError, match="outside its carrier"):
            make_model(sig, alg, [good], {"e": {(bad, good)}})
        # ℤ values beyond the bound lie outside the carrier too
        sig, typed, body, alg = _rex_setup()
        with pytest.raises(SortError, match="value 4 of x lies outside its carrier"):
            make_model(sig, alg, [make_state({"x": 4, "y": False})], {})
        # True == 1, but neither is a value of the other's carrier
        with pytest.raises(SortError, match="value 1 of y lies outside its carrier"):
            make_model(sig, alg, [make_state({"x": 1, "y": 1})], {})
        with pytest.raises(SortError, match="value True of x lies outside its carrier"):
            make_model(sig, alg, [make_state({"x": True, "y": True})], {})


class TestReduct:
    def test_identity(self):
        sig = usig(nvars=2)
        alg = ualg()
        states = enumerate_states(sig, alg)
        m = make_model(sig, alg, states[:1], {"e": {(states[0], states[1])}})
        assert model_reduct(evt_identity(sig), m) == m

    def test_forgets_variables(self):
        big = usig(nvars=2)
        small = usig(nvars=1)
        alg = ualg()
        m = EvtMorphism(small, big, fopeq_identity(USORT),
                        ((INIT, INIT), ("e", "e")), (("x", "x"),))
        s0 = make_state({"x": "u0", "y": "u1"})
        s1 = make_state({"x": "u1", "y": "u0"})
        model = make_model(big, alg, [s0], {"e": {(s0, s1)}})
        red = model_reduct(m, model)
        assert red.init == {make_state({"x": "u0"})}
        assert dict(red.rel)["e"] == {(make_state({"x": "u0"}), make_state({"x": "u1"}))}

    def test_state_over_other_variables_is_rejected(self):
        big = usig(nvars=2)
        m = evt_morphism(usig(nvars=1), big, vars={"x": "y"})
        assert reduce_state(make_state({"x": "u0", "y": "u1"}), m) == \
            make_state({"x": "u1"})
        for bad in ({"y": "u1"}, {"x": "u0", "z": "u1"}):
            with pytest.raises(SortError):
                reduce_state(make_state(bad), m)

    def test_functoriality_randomised(self):
        rng = random.Random(7)
        small, mid, big = usig(1), usig(2), usig(2, events=("e", "f"))
        alg = ualg()
        m1 = EvtMorphism(small, mid, fopeq_identity(USORT),
                         ((INIT, INIT), ("e", "e")), (("x", "y"),))
        m2 = EvtMorphism(mid, big, fopeq_identity(USORT),
                         ((INIT, INIT), ("e", "f")), (("x", "x"), ("y", "y")))
        states = enumerate_states(big, alg)
        for _ in range(25):
            init = rng.sample(states, k=rng.randint(1, len(states)))
            rel = {e: {(rng.choice(states), rng.choice(states))
                       for _ in range(rng.randint(0, 3))}
                   for e in big.non_init_events}
            model = make_model(big, alg, init, rel)
            assert model_reduct(m1, model_reduct(m2, model)) == \
                model_reduct(evt_compose(m2, m1), model)


class TestTranslateSentence:
    def test_modular_rename(self):
        # the hand-modularised rename: out -> ML_out with v1 -> c, v2 -> a
        fsig = FopeqSignature()
        src = EvtSignature(fsig, (("out", Status.ordinary),),
                           (("v1", INT), ("v2", INT)))
        tgt = EvtSignature(fsig, (("ML_out", Status.ordinary),),
                           (("c", INT), ("a", INT)))
        m = EvtMorphism(src, tgt, fopeq_identity(fsig),
                        ((INIT, INIT), ("out", "ML_out")),
                        (("v1", "c"), ("v2", "a")))
        body = parse_formula_text("v1 = 0", ElabContext(fsig, vars=src.vars))
        got = translate_sentence(m, EvtSentence("out", body))
        assert got == EvtSentence("ML_out", Equal(Var("c"), IntLit(0)))

    def test_identity_is_identity(self):
        sig = usig()
        s = EvtSentence("e", PredApp("p", (Var("x"),)))
        assert translate_sentence(evt_identity(sig), s) == s

    def test_composition_agrees(self):
        small, mid = usig(1), usig(2)
        m1 = EvtMorphism(small, mid, fopeq_identity(USORT),
                         ((INIT, INIT), ("e", "e")), (("x", "y"),))
        m2 = evt_identity(mid)
        s = EvtSentence("e", Equal(Var("x"), Var("x", True)))
        assert translate_sentence(evt_compose(m2, m1), s) == \
            translate_sentence(m2, translate_sentence(m1, s))


# -- the satisfaction condition ----------------------------------------------


def _all_var_maps(src, tgt):
    src_vars = src.var_names
    tgt_vars = tgt.var_names
    if not src_vars:
        return [()]
    return [tuple(zip(src_vars, pick))
            for pick in itertools.product(tgt_vars, repeat=len(src_vars))]


def _schemas(sig):
    """Fourteen sentence shapes over up to two U-sorted variables."""
    x, y = Var("x"), Var("y")
    xp, yp = Var("x", True), Var("y", True)
    candidates = [
        EvtSentence("e", TRUE),
        EvtSentence("e", FALSE),
        EvtSentence("e", Equal(x, xp)),
        EvtSentence("e", Not(Equal(x, xp))),
        EvtSentence("e", Equal(x, y)),
        EvtSentence("e", Equal(xp, yp)),
        EvtSentence("e", PredApp("p", (x,))),
        EvtSentence("e", And((PredApp("p", (x,)), PredApp("p", (xp,))))),
        EvtSentence("e", Or((PredApp("p", (x,)), Not(PredApp("p", (yp,)))))),
        EvtSentence("e", Forall((("u", "U"),), Implies(
            Equal(Var("u"), x), PredApp("p", (Var("u"),))))),
        EvtSentence("e", Exists((("u", "U"),), Not(Equal(Var("u"), xp)))),
        # a binder named like a variable's image, and x′ under a binder of x
        EvtSentence("e", Exists((("y", "U"),), Not(Equal(y, x)))),
        EvtSentence("e", Exists((("x", "U"),), And((Equal(x, xp), PredApp("p", (x,)))))),
        EvtSentence(INIT, PredApp("p", (xp,))),
    ]
    vars_ = set(sig.var_names)
    events = set(sig.event_names)
    out = []
    for s in candidates:
        frees = {n for n, _ in free_vars(s.body)}
        if s.event in events and frees <= vars_:
            out.append(s)
    return out


def test_satisfaction_condition_randomised():
    """Reducts satisfy a sentence iff the model satisfies its translation."""
    rng = random.Random(11)
    sigs = [usig(0), usig(1), usig(2), usig(2, events=("e", "f"))]
    algebras = [ualg(("u0",), ()), ualg(("u0",), ("u0",)),
                ualg(("u0", "u1"), ("u0",)), ualg(("u0", "u1"), ())]
    checked = 0
    for src in sigs:
        for tgt in sigs:
            if "e" in src.event_map and "e" not in tgt.event_map:
                continue
            ev_map = tuple((e, "e") for e in src.event_names if e != INIT) + ((INIT, INIT),)
            for vmap in _all_var_maps(src, tgt):
                m = EvtMorphism(src, tgt, fopeq_identity(USORT), ev_map, vmap)
                for alg in algebras:
                    states = enumerate_states(tgt, alg)
                    for _ in range(8):
                        init = rng.sample(states, k=rng.randint(1, len(states)))
                        rel = {e: {(rng.choice(states), rng.choice(states))
                                   for _ in range(rng.randint(0, 2))}
                               for e in tgt.non_init_events}
                        model = make_model(tgt, alg, init, rel)
                        reduced = model_reduct(m, model)
                        for s in _schemas(src):
                            lhs = satisfies(reduced, s)
                            rhs = satisfies(model, translate_sentence(m, s))
                            assert lhs == rhs
                            checked += 1
    assert checked > 1000


# -- pushouts and amalgamation -----------------------------------------------


class TestEvtPushout:
    def test_identity_span(self):
        sig = usig(2, events=("e", "f"))
        i = evt_identity(sig)
        merged, j1, j2 = evt_pushout(i, i)
        assert merged == sig

    def test_status_supremum(self):
        base = usig(0)
        t1 = EvtSignature(USORT, (("e1", Status.anticipated),), ())
        t2 = EvtSignature(USORT, (("e2", Status.convergent),), ())
        s1 = EvtMorphism(base, t1, fopeq_identity(USORT),
                         ((INIT, INIT), ("e", "e1")), ())
        s2 = EvtMorphism(base, t2, fopeq_identity(USORT),
                         ((INIT, INIT), ("e", "e2")), ())
        merged, j1, j2 = evt_pushout(s1, s2)
        name = j1.apply_event("e1")
        assert j2.apply_event("e2") == name
        assert merged.event_map[name] == Status.convergent

    def test_disjoint_events_union(self):
        base = EvtSignature(USORT, (), ())
        t1 = EvtSignature(USORT, (("a", Status.ordinary),), ())
        t2 = EvtSignature(USORT, (("b", Status.ordinary),), ())
        s1 = EvtMorphism(base, t1, fopeq_identity(USORT), ((INIT, INIT),), ())
        s2 = EvtMorphism(base, t2, fopeq_identity(USORT), ((INIT, INIT),), ())
        merged, _, _ = evt_pushout(s1, s2)
        assert set(merged.event_names) == {INIT, "a", "b"}

    def test_square_commutes_componentwise(self):
        base = usig(1)
        t1 = usig(2)
        t2 = usig(1, events=("e", "f"))
        s1 = EvtMorphism(base, t1, fopeq_identity(USORT),
                         ((INIT, INIT), ("e", "e")), (("x", "y"),))
        s2 = EvtMorphism(base, t2, fopeq_identity(USORT),
                         ((INIT, INIT), ("e", "f")), (("x", "x"),))
        merged, j1, j2 = evt_pushout(s1, s2)
        assert evt_compose(j1, s1) == evt_compose(j2, s2)


base_sig = usig(1)


def _random_span(rng):
    t1 = usig(2)
    t2 = usig(1, events=("e", "f"))
    s1 = EvtMorphism(base_sig, t1, fopeq_identity(USORT),
                     ((INIT, INIT), ("e", rng.choice(["e"]))),
                     (("x", rng.choice(["x", "y"])),))
    s2 = EvtMorphism(base_sig, t2, fopeq_identity(USORT),
                     ((INIT, INIT), ("e", rng.choice(["e", "f"]))),
                     (("x", "x"),))
    return s1, s2


class TestAmalgamation:
    def test_identity_pushout_returns_same_model(self):
        sig = usig(1)
        alg = ualg()
        states = enumerate_states(sig, alg)
        m = make_model(sig, alg, states[:1], {"e": {(states[0], states[1])}})
        i = evt_identity(sig)
        got, unique = amalgamate(m, m, i, i)
        assert got == m

    def test_joins_agree_on_shared_variable(self):
        # x shared, each side adds one more variable
        shared = usig(1, events=())
        t1 = EvtSignature(USORT, (), (("x", "U"), ("a", "U")))
        t2 = EvtSignature(USORT, (), (("x", "U"), ("b", "U")))
        s1 = EvtMorphism(shared, t1, fopeq_identity(USORT), ((INIT, INIT),),
                         (("x", "x"),))
        s2 = EvtMorphism(shared, t2, fopeq_identity(USORT), ((INIT, INIT),),
                         (("x", "x"),))
        alg = ualg()
        m1 = make_model(t1, alg, [make_state({"x": "u0", "a": v})
                                  for v in ("u0", "u1")], {})
        m2 = make_model(t2, alg, [make_state({"x": "u0", "b": "u0"})], {})
        got, unique = amalgamate(m1, m2, s1, s2)
        # oracle: full product of state spaces filtered by both reducts
        merged_sig = got.signature
        joined = {
            s for s in enumerate_states(merged_sig, alg)
            if dict(s)["x"] == "u0" and dict(s)["b"] == "u0"
        }
        assert got.init == joined
        assert unique

    def test_mismatched_reducts_rejected(self):
        sig = usig(1)
        alg = ualg()
        states = enumerate_states(sig, alg)
        m1 = make_model(sig, alg, [states[0]], {"e": set()})
        m2 = make_model(sig, alg, [states[1]], {"e": set()})
        i = evt_identity(sig)
        with pytest.raises(SpecError):
            amalgamate(m1, m2, i, i)

    def test_non_unique_amalgam_is_flagged(self):
        # nothing shared: smaller amalgams also reduce correctly
        shared = EvtSignature(USORT, (), ())
        t1 = EvtSignature(USORT, (), (("a", "U"),))
        t2 = EvtSignature(USORT, (), (("b", "U"),))
        s1 = EvtMorphism(shared, t1, fopeq_identity(USORT), ((INIT, INIT),), ())
        s2 = EvtMorphism(shared, t2, fopeq_identity(USORT), ((INIT, INIT),), ())
        alg = ualg()
        m1 = make_model(t1, alg, [make_state({"a": v}) for v in ("u0", "u1")], {})
        m2 = make_model(t2, alg, [make_state({"b": v}) for v in ("u0", "u1")], {})
        got, unique = amalgamate(m1, m2, s1, s2)
        assert len(got.init) == 4
        assert not unique

    def test_randomised_reduct_equations(self):
        rng = random.Random(23)
        for _ in range(60):
            s1, s2 = _random_span(rng)
            merged, j1, j2 = evt_pushout(s1, s2)
            alg = ualg()
            states = enumerate_states(merged, alg)
            init = rng.sample(states, k=rng.randint(1, min(3, len(states))))
            rel = {e: {(rng.choice(states), rng.choice(states))
                       for _ in range(rng.randint(0, 2))}
                   for e in merged.non_init_events}
            model = make_model(merged, alg, init, rel)
            m1 = model_reduct(j1, model)
            m2 = model_reduct(j2, model)
            got, unique = amalgamate(m1, m2, s1, s2, (merged, j1, j2))
            assert model_reduct(j1, got) == m1
            assert model_reduct(j2, got) == m2
            assert unique == (not _smaller_amalgam_exists(got, j1, j2, m1, m2))

    def test_projections_linear_in_states(self, monkeypatch):
        # x shared, a on side 1, b on side 2: 27 merged states, e on both sides
        shared = usig(1)
        t1 = EvtSignature(USORT, (("e", Status.ordinary),), (("x", "U"), ("a", "U")))
        t2 = EvtSignature(USORT, (("e", Status.ordinary),), (("x", "U"), ("b", "U")))
        s1, s2 = evt_morphism(shared, t1), evt_morphism(shared, t2)
        merged, j1, j2 = evt_pushout(s1, s2)
        alg = ualg(("u0", "u1", "u2"))
        states = enumerate_states(merged, alg)
        n = len(states)
        assert n == 27
        # a chain through all states and every pair among the first nine,
        # so that each state recurs in many pairs
        rel = set(zip(states, states[1:])) | set(itertools.product(states[:9], repeat=2))
        model = make_model(merged, alg, states[:4], {"e": rel})
        m1, m2 = model_reduct(j1, model), model_reduct(j2, model)
        # the reducts and join views amalgamate computes: each is computed
        # on a memo's miss, so this counts the work, not the lookups
        calls = 0
        missing = institution._Memo.__missing__

        def counting(memo, key):
            nonlocal calls
            calls += 1
            return missing(memo, key)

        monkeypatch.setattr(institution._Memo, "__missing__", counting)
        got, _ = amalgamate(m1, m2, s1, s2, (merged, j1, j2))
        assert 0 < calls <= 10 * n
        assert model.init <= got.init and dict(model.rel)["e"] <= dict(got.rel)["e"]

    def test_one_projection_per_variable_map_and_coding(self, monkeypatch):
        # the span's reducts, the check that the join reduces back and the
        # uniqueness check reduce along four (variable map, coding) pairs:
        # s1 and s2 map x alike, but into the codings of two sides
        shared = usig(1)
        t1 = EvtSignature(USORT, (("e", Status.ordinary),), (("x", "U"), ("a", "U")))
        t2 = EvtSignature(USORT, (("e", Status.ordinary),), (("x", "U"), ("b", "U")))
        s1, s2 = evt_morphism(shared, t1), evt_morphism(shared, t2)
        merged, j1, j2 = evt_pushout(s1, s2)
        alg = ualg(("u0", "u1"))
        states = enumerate_states(merged, alg)
        model = make_model(merged, alg, states[:3], {"e": set(zip(states, states[1:]))})
        m1, m2 = model_reduct(j1, model), model_reduct(j2, model)
        built = []
        projection = institution.Projection

        def counted(positions, coding):
            built.append((positions, id(coding)))
            return projection(positions, coding)

        institution._coding.cache_clear()
        monkeypatch.setattr(institution, "Projection", counted)
        amalgamate(m1, m2, s1, s2, (merged, j1, j2))
        assert len(built) == len(set(built)) == 4


def _smaller_amalgam_exists(got, j1, j2, m1, m2) -> bool:
    """Literally: dropping one initialising state, or one pair of one event,
    from the amalgam leaves both reduct equations true."""
    rel = dict(got.rel)
    smaller = [make_model(got.signature, got.algebra, got.init - {x}, rel)
               for x in got.init if len(got.init) > 1]
    for e, pairs in rel.items():
        smaller += [make_model(got.signature, got.algebra, got.init,
                               {**rel, e: pairs - {p}}) for p in pairs]
    return any(model_reduct(j1, c) == m1 and model_reduct(j2, c) == m2 for c in smaller)


def test_one_sided_event_over_many_free_variables_is_refused_before_building():
    # e has a preimage on side 1 only, so it ranges over the 8 variables only
    # side 2 has: 3^8 before-values times 3^8 after-values
    shared = EvtSignature(USORT, (), (("x", "U"),))
    t1 = EvtSignature(USORT, (("e", Status.ordinary),), (("x", "U"),))
    t2 = EvtSignature(USORT, (), (("x", "U"), *((f"w{i}", "U") for i in range(8))))
    s1, s2 = evt_morphism(shared, t1), evt_morphism(shared, t2)
    alg = ualg(("u0", "u1", "u2"))
    u0, u1 = make_state({"x": "u0"}), make_state({"x": "u1"})
    m1 = make_model(t1, alg, [u0], {"e": {(u0, u1)}})
    m2 = make_model(t2, alg, [make_state({v: "u0" for v in t2.var_names})], {})
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationLimit,
                           match="event e: amalgam state pairs exceed the ceiling 1048576"):
            amalgamate(m1, m2, s1, s2, bounds=Bounds())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# -- the joined amalgam against the product-filter oracle -------------------


@functools.lru_cache(maxsize=2)
def _product_join(m1, m2, span1, span2, pushout):
    """The maximal join as amalgamate built it before the hash join: every
    merged state, and every pair of merged states per event, is tested
    against the side models."""
    merged, inj1, inj2 = pushout
    r1, r2 = model_reduct(span1, m1), model_reduct(span2, m2)
    if r1 != r2:
        diff = institution._first_model_difference(r1, r2)
        raise SpecError(f"reducts along the span differ: {diff}")
    algebra = institution._amalgamate_algebra(merged, inj1, inj2, m1.algebra, m2.algebra)
    states = enumerate_states(merged, algebra)
    init, rel = restrict_along(
        states,
        {e: itertools.product(states, states) for e in merged.non_init_events},
        [(inj1, m1), (inj2, m2)])
    return algebra, init, rel


def _product_amalgamate(m1, m2, span1, span2, pushout, bounds=Bounds()):
    """amalgamate over the product-filter join, kept as its oracle; the
    ceiling is checked on the join's initialising set and relations."""
    merged, inj1, inj2 = pushout
    algebra, init, rel = _product_join(m1, m2, span1, span2, pushout)
    if not init:
        raise SpecError("no amalgam exists: the joined initialising set is empty")
    for e, items in [(INIT, init), *((e, rel[e]) for e in merged.non_init_events)]:
        if len(items) > bounds.pair_ceiling:
            what = "initial states" if e == INIT else "state pairs"
            raise EnumerationLimit(
                f"event {e}: amalgam {what} exceed the ceiling {bounds.pair_ceiling}")
    candidate = make_model(merged, algebra, init, rel)
    if model_reduct(inj1, candidate) != m1 or model_reduct(inj2, candidate) != m2:
        raise SpecError("no amalgam exists: the maximal join does not reduce back")
    return candidate, not institution._has_redundant_item(candidate, (inj1, inj2))


@st.composite
def _amalgam_problems(draw):
    """A span whose legs may send two source variables, or two source
    events, to one target symbol, each target with variables and events of
    its own, and two side models: the reducts of one merged model, of two,
    or of one with a side changed where the span does not see it, or
    anywhere."""
    sorts = st.sampled_from(["U", BOOL])
    src_vars = tuple((f"s{i}", s) for i, s in enumerate(draw(st.lists(sorts, max_size=2))))
    src_events = [f"a{i}" for i in range(draw(st.integers(0, 3)))]
    src = EvtSignature(USORT, tuple((e, Status.ordinary) for e in src_events), src_vars)
    span = []
    for _ in range(2):
        var_map = {v: f"{'x' if s == 'U' else 'b'}{draw(st.integers(0, 1))}"
                   for v, s in src_vars}
        ev_map = {e: f"e{draw(st.integers(0, 1))}" for e in src_events}
        own_vars = [(f"y{i}", s) for i, s in enumerate(draw(st.lists(sorts, max_size=1)))]
        own_events = [f"f{i}" for i in range(draw(st.integers(0, 2)))]
        tgt = EvtSignature(
            USORT, tuple((e, Status.ordinary) for e in {*ev_map.values(), *own_events}),
            (*{t: dict(src_vars)[v] for v, t in var_map.items()}.items(), *own_vars))
        span.append(evt_morphism(src, tgt, ev_map, var_map))
    pushout = evt_pushout(*span)
    carrier = [f"u{i}" for i in range(draw(st.integers(1, 3)))]
    alg = ualg(carrier, draw(st.sets(st.sampled_from(carrier))))
    merged, j1, j2 = pushout
    states = enumerate_states(merged, alg)

    def merged_model():
        pick = st.sampled_from(states)
        return make_model(merged, alg, draw(st.lists(pick, min_size=1, max_size=3)), {
            e: draw(st.lists(st.tuples(pick, pick), max_size=3))
            for e in merged.non_init_events})

    model = merged_model()
    sides = [model_reduct(j1, model), model_reduct(j2, model)]
    mode = draw(st.sampled_from(["reducts", "two models", "off the span", "anywhere"]))
    if mode == "two models":
        sides[1] = model_reduct(j2, merged_model())
    elif mode != "reducts":
        for k in draw(st.sampled_from([(0,), (1,), (0, 1)])):
            keep = set(span[k].var_dict.values()) if mode == "off the span" else set()
            sides[k] = _changed_side(draw, sides[k], keep, carrier)
    return span, pushout, sides


def _changed_side(draw, m, keep, carrier):
    """m with some initial states changed, and each relation grown by one of
    its pairs changed, off the variables in keep.  Keeping the image of a
    leg keeps the reduct along it.  (A value outside its carrier makes no
    model: make_model refuses it.)"""

    def value(sort):
        return draw(st.sampled_from(carrier if sort == "U" else (False, True)))

    def changed(s):
        return tuple((v, x if v in keep else value(m.signature.var_map[v])) for v, x in s)

    init = {changed(s) if draw(st.booleans()) else s for s in sorted(m.init)}
    rel = dict(m.rel)
    for e in sorted(rel):
        before, after = draw(st.sampled_from(
            sorted(rel[e]) or [(s, s) for s in sorted(m.init)]))
        rel[e] = rel[e] | {(changed(before), changed(after))}
    return make_model(m.signature, m.algebra, init, rel)


def _two_preimage_problem():
    """Side 1 keeps a0 and a1 apart and side 2 merges them, so the merged
    event has two preimages on side 1, whose relations differ off the span:
    the join takes their intersection, one pair, and refuses at ceiling 1
    only if it took one relation alone."""
    src = EvtSignature(USORT, (("a0", Status.ordinary), ("a1", Status.ordinary)), ())
    t1 = EvtSignature(USORT, (("e0", Status.ordinary), ("e1", Status.ordinary)),
                      (("y", "U"),))
    t2 = EvtSignature(USORT, (("e0", Status.ordinary),), ())
    span = [evt_morphism(src, t1, {"a0": "e0", "a1": "e1"}),
            evt_morphism(src, t2, {"a0": "e0", "a1": "e0"})]
    u0, u1 = make_state({"y": "u0"}), make_state({"y": "u1"})
    m1 = make_model(t1, ualg(), [u0], {"e0": {(u0, u0), (u0, u1)}, "e1": {(u0, u0)}})
    m2 = make_model(t2, ualg(), [()], {"e0": {((), ())}})
    return span, evt_pushout(*span), [m1, m2]


@pytest.mark.oracle
@given(_amalgam_problems())
@example(_two_preimage_problem())
@settings(max_examples=200, deadline=None)
def test_joined_amalgam_matches_product_oracle(problem):
    (s1, s2), pushout, (m1, m2) = problem
    merged, j1, j2 = pushout
    # the pushout square commutes and its injections jointly cover
    assert evt_compose(j1, s1) == evt_compose(j2, s2)
    assert ({j1.apply_event(e) for e in s1.target.event_names}
            | {j2.apply_event(e) for e in s2.target.event_names}) == set(merged.event_names)
    assert ({j1.apply_var(v) for v in s1.target.var_names}
            | {j2.apply_var(v) for v in s2.target.var_names}) == set(merged.var_names)

    def outcome(run, *bounds):
        try:
            return run(m1, m2, s1, s2, pushout, *bounds)
        except (SpecError, SortError, EnumerationLimit) as exc:
            return type(exc), str(exc)

    want = outcome(_product_amalgamate)
    assert outcome(amalgamate) == want
    # the join's size is counted exactly: refusals at the ceilings at and
    # just below the size of each joined initialising set and relation
    try:
        _, init, rel = _product_join(m1, m2, s1, s2, pushout)
    except SpecError:
        return
    for n in {len(init), *map(len, rel.values())}:
        for k in {n - 1, n} - {-1, 0}:
            bounds = Bounds(pair_ceiling=k)
            assert outcome(amalgamate, bounds) == outcome(_product_amalgamate, bounds)


# -- state codes --------------------------------------------------------------

_CODED = FopeqSignature(sorts=("U", "W"))


@st.composite
def _coded_signatures(draw):
    """A signature over ℤ, BOOL and two user sorts, and an algebra whose user
    carriers have at least 11 elements, so that their string order (U10 < U2)
    differs from their index order."""
    alg = make_algebra(_CODED, draw(st.integers(1, 3)), {
        s: tuple(f"{s}{i}" for i in range(draw(st.integers(11, 13)))) for s in ("U", "W")}, {})
    names = draw(st.lists(st.sampled_from("abcdxyz"), unique=True, max_size=4))
    sig = EvtSignature(_CODED, (("e0", Status.ordinary), ("e1", Status.ordinary)),
                       tuple((n, draw(st.sampled_from([INT, BOOL, "U", "W"]))) for n in names))
    return sig, alg


def _states_of(sig, alg):
    return st.tuples(*(st.tuples(st.just(n), st.sampled_from(alg.carrier(s)))
                       for n, s in sig.vars))


def _variable_targets(sig):
    return st.lists(st.sampled_from(sig.var_names), max_size=3) if sig.vars else st.just([])


@st.composite
def _morphisms_into(draw, sig, targets=None):
    """A morphism into sig whose source variables s0, s1, … each map to a
    variable of sig with their sort (to targets when given), two possibly to
    one, and whose events a0, a1, … map to sig's non-initial events."""
    if targets is None:
        targets = draw(_variable_targets(sig))
    events = draw(st.lists(st.sampled_from(sig.non_init_events), max_size=2))
    src = EvtSignature(_CODED, tuple((f"a{i}", Status.ordinary) for i in range(len(events))),
                       tuple((f"s{i}", sig.var_map[t]) for i, t in enumerate(targets)))
    return evt_morphism(src, sig, {f"a{i}": e for i, e in enumerate(events)},
                        {f"s{i}": t for i, t in enumerate(targets)})


@pytest.mark.oracle
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_state_codes_decode_and_sort_as_tuple_states(data):
    sig, alg = data.draw(_coded_signatures())
    coding = state_coding(sig, alg)
    states = data.draw(st.lists(_states_of(sig, alg), min_size=1, max_size=8))
    codes = [coding.encode(s) for s in states]
    assert [coding.decode(c) for c in codes] == states
    assert all(0 <= c < coding.size for c in codes)
    assert [coding.decode(c) for c in sorted(codes)] == sorted(states)
    pairs = data.draw(st.lists(st.tuples(*[st.sampled_from(states)] * 2), max_size=8))
    pair_codes = [coding.encode_pair(s, t) for s, t in pairs]
    assert pair_codes == [coding.encode(s) * coding.size + coding.encode(t) for s, t in pairs]
    assert [coding.decode_pair(p) for p in sorted(pair_codes)] == sorted(pairs)


@pytest.mark.oracle
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_projected_codes_match_reduce_state(data):
    sig, alg = data.draw(_coded_signatures())
    m = data.draw(_morphisms_into(sig))
    coding = state_coding(sig, alg)
    red = coding.reduct(m)
    # the source coding is the reduct algebra's
    source = state_coding(m.source, algebra_reduct(alg, m.fopeq))
    assert (red.source.names, red.source.values) == (source.names, source.values)
    states = data.draw(st.lists(_states_of(sig, alg), min_size=1, max_size=6))
    for s, t in zip(states, states[1:] + states[:1]):
        rs, rt = reduce_state(s, m), reduce_state(t, m)
        assert red.state(coding.encode(s)) == source.encode(rs)
        assert red.pair(coding.encode_pair(s, t)) == source.encode_pair(rs, rt)


def _restriction_case(data, sig, alg, morphisms):
    """Random init and relations over sig, and one bound along each
    morphism; each bound holds the reducts of some of the restricted items,
    so that both verdicts come up."""
    states = _states_of(sig, alg)
    init = data.draw(st.lists(states, max_size=8))
    rel = {e: data.draw(st.lists(st.tuples(states, states), max_size=10))
           for e in sig.non_init_events}

    def some(items):
        return data.draw(st.lists(st.sampled_from(items), max_size=3)) if items else []

    bounds = []
    for m in morphisms:
        ra = algebra_reduct(alg, m.fopeq)
        src = _states_of(m.source, ra)
        b_init = [reduce_state(s, m) for s in some(init)]
        b_init += data.draw(st.lists(src, min_size=1, max_size=2))
        b_rel = {}
        for e in m.source.non_init_events:
            b_rel[e] = [(reduce_state(s, m), reduce_state(t, m))
                        for s, t in some(rel[m.apply_event(e)])]
            b_rel[e] += data.draw(st.lists(st.tuples(src, src), max_size=3))
        bounds.append((m, make_model(m.source, ra, b_init, b_rel)))
    return init, rel, bounds


def _assert_restriction_matches_oracle(sig, alg, init, rel, bounds):
    want_init, want_rel = restrict_along(init, rel, bounds)
    coding = state_coding(sig, alg)
    got_init, got_rel = institution.restrict_along(
        coding, {coding.encode(s) for s in init},
        {e: {coding.encode_pair(s, t) for s, t in pairs}
         for e, pairs in rel.items()}, bounds)
    assert {coding.decode(c) for c in got_init} == want_init
    assert {e: {coding.decode_pair(p) for p in pairs} for e, pairs in got_rel.items()} \
        == want_rel


@pytest.mark.oracle
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_restricted_codes_match_tuple_restriction(data):
    """restrict_along on codes keeps exactly what the tuple oracle keeps."""
    sig, alg = data.draw(_coded_signatures())
    morphisms = [data.draw(_morphisms_into(sig)) for _ in range(data.draw(st.integers(1, 2)))]
    _assert_restriction_matches_oracle(sig, alg, *_restriction_case(data, sig, alg, morphisms))


@pytest.mark.oracle
@settings(max_examples=100, deadline=None)
@given(st.data())
def test_bounds_sharing_a_variable_map_share_one_projection(data):
    """restrict_along builds one Projection per distinct variable map among
    its bounds, as the slices a refining machine imports all hide one
    machine along one map, and still keeps what the tuple oracle keeps; the
    coding keeps them, so restricting again builds none."""
    sig, alg = data.draw(_coded_signatures())
    var_maps = [data.draw(_variable_targets(sig)) for _ in range(2)]
    morphisms, used = [], set()
    for _ in range(data.draw(st.integers(2, 4))):
        targets = data.draw(st.sampled_from(var_maps))
        morphisms.append(data.draw(_morphisms_into(sig, targets)))
        used.add(tuple(targets))
    case = _restriction_case(data, sig, alg, morphisms)
    built = []
    projection = institution.Projection

    def counted(positions, coding):
        built.append(positions)
        return projection(positions, coding)

    # a cold table: no coding holds a Projection from an earlier example
    institution._coding.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(institution, "Projection", counted)
        _assert_restriction_matches_oracle(sig, alg, *case)
        assert len(built) == len(used)
        _assert_restriction_matches_oracle(sig, alg, *case)
    assert len(built) == len(used)


# -- the context embedding ---------------------------------------------------


class TestComorphism:
    def test_sign_wraps_with_initial_event(self):
        fsig = FopeqSignature(ops=(Op("d", (), INT),))
        sig = comorphism_sign(fsig)
        assert sig.fopeq == fsig
        assert sig.events == ((INIT, Status.ordinary),)
        assert sig.vars == ()
        assert comorphism_sign(FopeqSignature()).event_names == (INIT,)

    def test_sign_rejects_event_signatures(self):
        with pytest.raises(SortError):
            comorphism_sign(usig())

    def test_sen_spreads_over_events(self):
        fsig = FopeqSignature(ops=(Op("d", (), INT),))
        target = EvtSignature(fsig, (("ML_out", Status.ordinary),
                                     ("ML_in", Status.ordinary)), ())
        f = PredApp(">", (OpApp("d"), IntLit(0)))
        sents = comorphism_sen(target, f)
        assert {s.event for s in sents} == {INIT, "ML_out", "ML_in"}
        assert all(s.body == f for s in sents)
        with pytest.raises(SortError):
            comorphism_sen(target, Equal(Var("x"), IntLit(0)))

    def test_mod_projects_algebra(self):
        fsig = FopeqSignature(ops=(Op("d", (), INT),))
        sig = comorphism_sign(fsig)
        a = make_algebra(fsig, 3, {}, {"d": {(): 2}})
        m = make_model(sig, a, [()], {})
        assert comorphism_mod(m) == a
        bad = make_model(usig(), ualg(), [make_state({"x": "u0"})], {"e": set()})
        with pytest.raises(SortError):
            comorphism_mod(bad)

    def test_satisfaction_preserved_randomised(self):
        rng = random.Random(5)
        fsig = FopeqSignature(sorts=("U",),
                              ops=(Op("k", (), "U"), Op("m", (), INT)),
                              preds=(Pred("p", ("U",)),))
        sig = comorphism_sign(fsig)
        bounds = Bounds(int_bound=1, carrier_sizes=(("U", 2),))
        algebras = enumerate_algebras(fsig, bounds)
        k, mconst, u = OpApp("k"), OpApp("m"), Var("u")
        from evtforge.fopeq import Exists, Forall, Implies, Or
        pool = [
            PredApp("p", (k,)),
            Not(PredApp("p", (k,))),
            Equal(mconst, IntLit(0)),
            Forall((("u", "U"),), Or((PredApp("p", (u,)), Equal(u, k)))),
            Exists((("u", "U"),), Not(PredApp("p", (u,)))),
            Implies(Equal(mconst, IntLit(1)), PredApp("p", (k,))),
        ]
        checked = 0
        for _ in range(200):
            f = rng.choice(pool)
            a = rng.choice(algebras)
            model = make_model(sig, a, [()], {})
            direct = eval_formula(f, a, {})
            embedded = all(satisfies(model, s) for s in comorphism_sen(sig, f))
            assert direct == embedded
            checked += 1
        assert checked == 200


# -- downward closure of the model class ------------------------------------


def test_downward_closure_exhaustive_small():
    """Every submodel of the maxima satisfies the sentences, and every
    satisfying model lies under the maxima."""
    sig = usig(1)
    ctx = ElabContext(USORT, vars=sig.vars)
    sentences = [
        EvtSentence("e", parse_formula_text("p(x) ∧ ¬p(x′)", ctx)),
        EvtSentence(INIT, parse_formula_text("p(x′)", ctx)),
    ]
    alg = ualg(("u0", "u1"), ("u0",))
    l_max, r_max = decoded(sig, alg, maximal_model(ModelPlan(sig, sentences), alg, B1))
    states = enumerate_states(sig, alg)
    all_pairs = list(itertools.product(states, states))

    def sat(model):
        return all(satisfies(model, s) for s in sentences)

    for init_pick in itertools.chain.from_iterable(
            itertools.combinations(states, r) for r in range(1, len(states) + 1)):
        for rel_pick in itertools.chain.from_iterable(
                itertools.combinations(all_pairs, r) for r in range(0, 3)):
            model = make_model(sig, alg, init_pick, {"e": set(rel_pick)})
            inside = (set(init_pick) <= l_max and set(rel_pick) <= r_max["e"])
            assert sat(model) == inside


# -- hash-once values -------------------------------------------------------


@pytest.mark.oracle
@settings(max_examples=200, deadline=None)
@given(_formulas(2), _formulas(2))
def test_rebuilt_values_hit_memos_keyed_by_the_originals(f, g):
    """A value hashes as its dataclass fields would, whether or not its hash
    was kept before, so an equal copy built afresh hits a memo keyed by the
    original, and an unequal value misses it."""
    memo = {f: "formula", EvtSentence("e", f): "sentence"}
    copy = substitute(f, {})
    assert hash(copy) == hash(f) == hash(tuple(getattr(f, x.name) for x in fields(f)))
    assert memo.get(copy) == "formula"
    assert memo.get(EvtSentence("e", copy)) == "sentence"
    if g != f:
        assert memo.get(g) is None
        assert memo.get(EvtSentence("e", g)) is None
