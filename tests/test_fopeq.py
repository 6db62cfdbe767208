import itertools

import pytest
from hypothesis import given, settings, strategies as st

from evtforge.errors import EnumerationLimit, SortError
from evtforge.fopeq import (
    BOOL, INT, And, BoolLit, Bounds, CarrierEq, Equal, FiniteAlgebra,
    FopeqMorphism, FopeqSignature, Forall, Exists, Implies, InSet, IntLit, Not,
    Op, OpApp, Or, Pred, PredApp, TRUE, FALSE, UNDEF, Var, algebra_reduct,
    compile_formula, compile_term, conjoin, enumerate_algebras, fopeq_compose,
    fopeq_identity, fopeq_morphism, fopeq_pushout, free_vars, make_algebra,
    prime_free_vars, substitute,
)
from evtforge.mathlang import ElabContext, parse_formula_text, unparse_formula
from tests.reference_eval import canonical, eval_formula, eval_term

B3 = Bounds(int_bound=3)


def plain_algebra(bound=3, **constants):
    sig = FopeqSignature(ops=tuple(Op(k, (), INT) for k in constants))
    return make_algebra(sig, bound, {}, {k: {(): v} for k, v in constants.items()})


class TestEvalTerm:
    def test_arithmetic_in_bounds(self):
        a = plain_algebra()
        t = OpApp("+", (Var("x"), IntLit(1)))
        assert eval_term(t, a, {("x", False): 2}) == 3

    def test_arithmetic_escaping_carrier_is_undefined(self):
        # oracle: 3 + 1 = 4 is outside the carrier -3..3
        a = plain_algebra()
        t = OpApp("+", (Var("x"), IntLit(1)))
        assert eval_term(t, a, {("x", False): 3}) is UNDEF

    def test_constant_lookup(self):
        a = plain_algebra(d=2)
        assert eval_term(OpApp("d"), a, {}) == 2

    def test_undefined_propagates_strictly(self):
        a = plain_algebra()
        t = OpApp("*", (OpApp("+", (IntLit(3), IntLit(3))), IntLit(0)))
        assert eval_term(t, a, {}) is UNDEF

    def test_missing_binding_is_structural(self):
        a = plain_algebra()
        with pytest.raises(SortError):
            eval_term(Var("zz"), a, {})


class TestEvalFormula:
    def test_comparison(self):
        a = plain_algebra(d=2)
        f = PredApp("<", (Var("n"), OpApp("d")))
        assert eval_formula(f, a, {("n", False): 1}) is True

    def test_exists_brute_force(self):
        # oracle: brute force p in -3..3 finds p = 1
        a = plain_algebra()
        f = Exists((("p", INT),), And((
            PredApp(">", (Var("p"), IntLit(0))),
            PredApp("<", (Var("p"), IntLit(2))))))
        assert eval_formula(f, a, {}) is True

    def test_atom_with_undefined_term_is_false(self):
        a = plain_algebra()
        f = Equal(Var("x", True), OpApp("+", (Var("x"), IntLit(1))))
        assert eval_formula(f, a, {("x", False): 3, ("x", True): 0}) is False

    def test_negated_undefined_atom_is_true(self):
        a = plain_algebra()
        f = Not(Equal(Var("x", True), OpApp("+", (Var("x"), IntLit(1)))))
        assert eval_formula(f, a, {("x", False): 3, ("x", True): 0}) is True

    def test_total_on_closed_formulas(self):
        a = plain_algebra(d=1)
        for f in [TRUE, FALSE, Equal(OpApp("d"), IntLit(1)),
                  Forall((("u", BOOL),), Equal(Var("u"), Var("u"))),
                  CarrierEq(BOOL, (BoolLit(True), BoolLit(False)))]:
            assert eval_formula(f, a, {}) in (True, False)


# -- compiled evaluation agrees with the reference interpreter --------------

# z is never bound, so reading it raises SortError
_names = st.sampled_from(["x", "y", "z"])


def _terms(depth):
    if depth == 0:
        # half the literals lie past the bound 3 of the algebras below
        return st.one_of(
            st.builds(Var, _names, st.booleans()),
            st.builds(IntLit, st.sampled_from([0, 1, -3, 3, 4, -4, 5, -5])),
            st.just(OpApp("d")),
        )
    sub = _terms(depth - 1)
    return st.one_of(
        _terms(0),
        st.builds(lambda o, a, b: OpApp(o, (a, b)),
                  st.sampled_from(["+", "-", "*"]), sub, sub),
    )


def _formulas(depth):
    atoms = st.one_of(
        st.just(TRUE), st.just(FALSE),
        st.builds(Equal, _terms(1), _terms(1)),
        st.builds(lambda p, a, b: PredApp(p, (a, b)),
                  st.sampled_from(["<", "<=", ">", ">="]), _terms(1), _terms(1)),
        st.builds(lambda t, e: InSet(t, (e, IntLit(0))), _terms(1), _terms(0)),
    )
    if depth == 0:
        return atoms
    sub = _formulas(depth - 1)
    parts = st.lists(sub, min_size=2, max_size=3).map(tuple)
    return st.one_of(
        atoms,
        st.builds(Not, sub),
        st.builds(And, parts),
        st.builds(Or, parts),
        st.builds(Implies, sub, sub),
        st.builds(lambda f: Exists((("q", INT),), f), sub),
    )


def _outcome(run):
    """What run returns, or the message of the SortError it raises."""
    try:
        return run()
    except SortError as e:
        return f"SortError: {e}"


def _parts(x):
    """x and, recursively, its subformulas and subterms."""
    yield x
    if isinstance(x, (Equal, Implies)):
        kids = (x.left, x.right)
    elif isinstance(x, (OpApp, PredApp)):
        kids = x.args
    elif isinstance(x, InSet):
        kids = (x.item, *x.elems)
    elif isinstance(x, (And, Or)):
        kids = x.parts
    elif isinstance(x, (Not, Exists)):
        kids = (x.body,)
    else:
        kids = ()
    for k in kids:
        yield from _parts(k)


@pytest.mark.oracle
@given(_formulas(2), st.integers(-2, 2), st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=1000, deadline=None)
def test_compiled_matches_reference(f, d, x, y):
    # each specialised closure shape is drawn: a variable leaf, primed or
    # not, unbound (z) or bound, a literal in or past the bound or the
    # constant d on either side of an atom or an operation, and And/Or of
    # two or three parts; every subformula and subterm is evaluated too, so
    # that none hides behind a short circuit
    a = plain_algebra(d=d)
    val = {("x", False): x, ("y", False): y, ("x", True): y, ("y", True): x}
    for p in _parts(f):
        if isinstance(p, (Var, IntLit, OpApp)):
            got = _outcome(lambda: compile_term(p, a)(val))
            want = _outcome(lambda: eval_term(p, a, val))
        else:
            got = _outcome(lambda: compile_formula(p, a)(val))
            want = _outcome(lambda: eval_formula(p, a, val))
        assert got == want, p


def test_compiled_missing_binding_is_structural():
    # same contract as eval_term: an unbound variable is an error, not UNDEF
    a = plain_algebra()
    with pytest.raises(SortError):
        compile_formula(Equal(Var("zz"), IntLit(0)), a)({})
    with pytest.raises(SortError):
        compile_formula(Not(Equal(Var("zz", True), IntLit(0))), a)({("zz", False): 0})


# -- translation -------------------------------------------------------------


def _two_sigs():
    src = FopeqSignature(sorts=("S",), ops=(Op("k", (), "S"), Op("d", (), INT)),
                         preds=(Pred("p", ("S",)),))
    tgt = FopeqSignature(sorts=("T",), ops=(Op("k2", (), "T"), Op("c", (), INT)),
                         preds=(Pred("q", ("T",)),))
    m = FopeqMorphism(src, tgt, (("S", "T"),), (("k", "k2"), ("d", "c")),
                      (("p", "q"),))
    return src, tgt, m


class TestTranslateFormula:
    def test_renames_symbols_but_not_variables(self):
        src, tgt, m = _two_sigs()
        f = And((Equal(Var("v1"), IntLit(0)), PredApp("p", (OpApp("k"),))))
        g = substitute(f, {}, m)
        assert g == And((Equal(Var("v1"), IntLit(0)), PredApp("q", (OpApp("k2"),))))

    def test_identity(self):
        src, tgt, m = _two_sigs()
        f = PredApp("p", (OpApp("k"),))
        assert substitute(f, {}, fopeq_identity(src)) == f

    def test_symbol_outside_domain(self):
        src, tgt, m = _two_sigs()
        with pytest.raises(SortError):
            substitute(PredApp("zz", ()), {}, m)

    @given(_formulas(2))
    @settings(max_examples=100, deadline=None)
    def test_functoriality_on_builtin_formulas(self, f):
        # builtin-only formulas survive any morphism; compose == sequential
        src, tgt, m = _two_sigs()
        m2 = fopeq_identity(tgt)
        composed = fopeq_compose(m2, m)
        d_free = substitute(f, {})  # identity rename, exercises walker
        assert substitute(d_free, {}, composed) == substitute(
            substitute(d_free, {}, m), {}, m2)


def test_rename_free_vars_respects_binding():
    f = Exists((("x", INT),), Equal(Var("x"), Var("y", True)))
    g = substitute(f, {(n, p): Var(t, p) for n, t in (("x", "a"), ("y", "b"))
                       for p in (False, True)})
    assert g == Exists((("x", INT),), Equal(Var("x"), Var("b", True)))


def test_prime_free_vars():
    f = And((Equal(Var("n"), IntLit(0)), Equal(Var("m", True), IntLit(1))))
    g = prime_free_vars(f, ["n", "m"])
    assert g == And((Equal(Var("n", True), IntLit(0)),
                     Equal(Var("m", True), IntLit(1))))


# -- pushouts ----------------------------------------------------------------


class TestPushout:
    def test_identities_give_source(self):
        sig = FopeqSignature(sorts=("S",), ops=(Op("a", (), "S"),))
        i = fopeq_identity(sig)
        merged, j1, j2 = fopeq_pushout(i, i)
        assert merged == sig
        assert j1 == i and j2 == i

    def test_shared_sort_identified(self):
        base = FopeqSignature(sorts=("s",))
        s1 = FopeqSignature(sorts=("s1",))
        s2 = FopeqSignature(sorts=("s2",))
        m1 = FopeqMorphism(base, s1, (("s", "s1"),), (), ())
        m2 = FopeqMorphism(base, s2, (("s", "s2"),), (), ())
        merged, j1, j2 = fopeq_pushout(m1, m2)
        assert len(merged.sorts) == 1
        assert j1.apply_sort("s1") == j2.apply_sort("s2")

    def test_disjoint_extensions_union(self):
        base = FopeqSignature(sorts=("S",))
        s1 = FopeqSignature(sorts=("S",), ops=(Op("a", (), "S"),))
        s2 = FopeqSignature(sorts=("S",), ops=(Op("b", (), "S"),))
        inc = (("S", "S"),)
        merged, j1, j2 = fopeq_pushout(
            FopeqMorphism(base, s1, inc, (), ()),
            FopeqMorphism(base, s2, inc, (), ()))
        assert {o.name for o in merged.ops} == {"a", "b"}

    def test_name_clash_gets_suffix(self):
        base = FopeqSignature(sorts=("S",))
        s1 = FopeqSignature(sorts=("S",), ops=(Op("a", (), "S"),))
        s2 = FopeqSignature(sorts=("S",), ops=(Op("a", ("S",), "S"),))
        inc = (("S", "S"),)
        merged, j1, j2 = fopeq_pushout(
            FopeqMorphism(base, s1, inc, (), ()),
            FopeqMorphism(base, s2, inc, (), ()))
        assert {o.name for o in merged.ops} == {"a", "a#1"}
        assert j1.apply_op("a") == "a"
        assert j2.apply_op("a") == "a#1"

    def test_square_commutes(self):
        base = FopeqSignature(sorts=("s",), ops=(Op("k", (), "s"),))
        s1 = FopeqSignature(sorts=("u",), ops=(Op("k1", (), "u"),))
        s2 = FopeqSignature(sorts=("v",), ops=(Op("k2", (), "v"),))
        m1 = FopeqMorphism(base, s1, (("s", "u"),), (("k", "k1"),), ())
        m2 = FopeqMorphism(base, s2, (("s", "v"),), (("k", "k2"),), ())
        merged, j1, j2 = fopeq_pushout(m1, m2)
        assert fopeq_compose(j1, m1) == fopeq_compose(j2, m2)

    def test_leg_to_a_builtin_sort_is_refused(self):
        base = FopeqSignature(sorts=("S",))
        leg = fopeq_morphism(base, FopeqSignature(), {"S": INT})
        with pytest.raises(SortError, match="builtin sort Int"):
            fopeq_pushout(fopeq_identity(base), leg)
        with pytest.raises(SortError, match="builtin sort Int"):
            fopeq_pushout(leg, fopeq_identity(base))


def _all_morphisms(src: FopeqSignature, tgt: FopeqSignature):
    """Every valid morphism between two small signatures."""
    sort_choices = [list(tgt.sorts) or [None] for _ in src.sorts]
    out = []
    for sorts in itertools.product(*sort_choices):
        if None in sorts and src.sorts:
            continue
        smap = dict(zip(src.sorts, sorts))
        op_choices = []
        for o in src.ops:
            want_args = tuple(smap.get(s, s) for s in o.args)
            want_res = smap.get(o.result, o.result)
            cands = [t.name for t in tgt.ops
                     if t.args == want_args and t.result == want_res]
            op_choices.append(cands)
        pred_choices = []
        for p in src.preds:
            want = tuple(smap.get(s, s) for s in p.args)
            pred_choices.append([t.name for t in tgt.preds if t.args == want])
        for ops in itertools.product(*op_choices):
            for preds in itertools.product(*pred_choices):
                out.append(FopeqMorphism(
                    src, tgt, tuple(smap.items()),
                    tuple(zip([o.name for o in src.ops], ops)),
                    tuple(zip([p.name for p in src.preds], preds))))
    return out


def test_pushout_universality_exhaustive_small():
    """Every commuting cospan factors uniquely through the pushout.

    Pool: signatures with up to 3 sorts and 4 symbols."""
    pool = [
        FopeqSignature(),
        FopeqSignature(sorts=("s",)),
        FopeqSignature(sorts=("s",), ops=(Op("a", (), "s"),)),
        FopeqSignature(sorts=("s", "t"), ops=(Op("a", (), "s"), Op("b", (), "t"))),
        FopeqSignature(sorts=("s", "t", "u"),
                       ops=(Op("a", (), "s"),), preds=(Pred("p", ("t",)),)),
    ]
    checked = 0
    for base in pool[:3]:
        for t1 in pool:
            for m1 in _all_morphisms(base, t1):
                for t2 in pool:
                    for m2 in _all_morphisms(base, t2):
                        merged, j1, j2 = fopeq_pushout(m1, m2)
                        assert fopeq_compose(j1, m1) == fopeq_compose(j2, m2)
                        for tc in pool:
                            n2_by_comp = {}
                            for n2 in _all_morphisms(t2, tc):
                                n2_by_comp.setdefault(fopeq_compose(n2, m2), []).append(n2)
                            for n1 in _all_morphisms(t1, tc):
                                comp = fopeq_compose(n1, m1)
                                for n2 in n2_by_comp.get(comp, ()):
                                    mediating = [
                                        u for u in _all_morphisms(merged, tc)
                                        if fopeq_compose(u, j1) == n1
                                        and fopeq_compose(u, j2) == n2]
                                    assert len(mediating) == 1
                                    checked += 1
    assert checked > 50


# -- finite algebra enumeration ---------------------------------------------


class TestEnumerate:
    def test_constant_with_axioms(self):
        # oracle: brute force d in -3..3 then filter by d > 0 and d <= 3
        sig = FopeqSignature(ops=(Op("d", (), INT),))
        axioms = [PredApp(">", (OpApp("d"), IntLit(0))),
                  PredApp("<=", (OpApp("d"), IntLit(3)))]
        algs = enumerate_algebras(sig, B3, axioms=axioms)
        assert [a.constant("d") for a in algs] == [1, 2, 3]

    def test_no_free_symbols_single_algebra(self):
        assert len(enumerate_algebras(FopeqSignature(), B3)) == 1

    def test_enumerated_sort_two_assignments(self):
        sig = FopeqSignature(sorts=("Color",),
                             ops=(Op("green", (), "Color"), Op("red", (), "Color")))
        axioms = [Not(Equal(OpApp("green"), OpApp("red"))),
                  CarrierEq("Color", (OpApp("green"), OpApp("red")))]
        algs = enumerate_algebras(sig, Bounds(int_bound=3, carrier_sizes=(("Color", 2),)),
                                  axioms=axioms)
        assert len(algs) == 2

    def test_pinning(self):
        sig = FopeqSignature(ops=(Op("d", (), INT),))
        algs = enumerate_algebras(sig, Bounds(int_bound=3, pins=(("d", 2),)))
        assert len(algs) == 1 and algs[0].constant("d") == 2

    def test_ceiling_refusal(self):
        sig = FopeqSignature(ops=(Op("f", (INT, INT), INT),))
        with pytest.raises(EnumerationLimit):
            enumerate_algebras(sig, Bounds(int_bound=3, pair_ceiling=100))

    def test_deterministic_order(self):
        sig = FopeqSignature(ops=(Op("d", (), INT), Op("e", (), BOOL)))
        a1 = enumerate_algebras(sig, B3)
        a2 = enumerate_algebras(sig, B3)
        assert a1 == a2


def test_algebra_reduct_drops_and_renames():
    src, tgt, m = _two_sigs()
    a = make_algebra(tgt, 3, {"T": ("T0", "T1")},
                     {"k2": {(): "T1"}, "c": {(): 2}}, {"q": {("T0",)}})
    r = algebra_reduct(a, m)
    assert r.carrier("S") == ("T0", "T1")
    assert r.constant("k") == "T1"
    assert r.pred_tables["p"] == frozenset({("T0",)})


# -- the satisfaction condition restricted to the first-order substrate ------


def test_fopeq_satisfaction_condition_by_enumeration():
    """A'|_sigma satisfies f iff A' satisfies the translated f, for closed f,
    over all small algebras."""
    src = FopeqSignature(sorts=("S",), ops=(Op("k", (), "S"),),
                         preds=(Pred("p", ("S",)),))
    tgt = FopeqSignature(sorts=("T",), ops=(Op("k2", (), "T"), Op("extra", (), "T")),
                         preds=(Pred("q", ("T",)),))
    m = FopeqMorphism(src, tgt, (("S", "T"),), (("k", "k2"),), (("p", "q"),))
    formulas = [
        PredApp("p", (OpApp("k"),)),
        Not(PredApp("p", (OpApp("k"),))),
        Forall((("u", "S"),), PredApp("p", (Var("u"),))),
        Exists((("u", "S"),), Not(Equal(Var("u"), OpApp("k")))),
        Implies(PredApp("p", (OpApp("k"),)), FALSE),
    ]
    bounds = Bounds(int_bound=1, carrier_sizes=(("T", 2),))
    for a in enumerate_algebras(tgt, bounds):
        reduced = algebra_reduct(a, m)
        for f in formulas:
            assert eval_formula(f, reduced, {}) == eval_formula(
                substitute(f, {}, m), a, {})


# -- parsing / printing round trips ------------------------------------------


@pytest.mark.parametrize("text", [
    "n ≤ d", "n < d ∧ n′ = n + 1", "a = 0 ∨ c = 0",
    "ml = green ⇒ c = 0", "¬(a = 0) ∨ b ≠ 1",
    "x ∈ {0, 1} ∧ y = TRUE", "∃ p : ℤ · p > 0 ∧ p < 2",
    "a + b + 1 < d ⇔ c ≥ 0",
])
def test_unparse_parse_round_trip(text):
    sig = FopeqSignature(sorts=("Color",),
                         ops=(Op("d", (), INT), Op("green", (), "Color")))
    ctx = ElabContext(sig, vars=(("n", INT), ("a", INT), ("b", INT), ("c", INT),
                                 ("x", INT), ("y", BOOL), ("ml", "Color")))
    f = parse_formula_text(text, ctx)
    assert parse_formula_text(unparse_formula(f), ctx) == f


_RT_CTX = ElabContext(
    FopeqSignature(sorts=("Color",),
                   ops=(Op("d", (), INT), Op("green", (), "Color"),
                        Op("red", (), "Color"), Op("dbl", (INT,), INT)),
                   preds=(Pred("even", (INT,)),)),
    vars=(("n", INT), ("a", INT), ("y", BOOL), ("ml", "Color")))
_RT_LEAVES = {INT: ["d", "0", "1", "3"], BOOL: ["TRUE", "FALSE"], "Color": ["green", "red"]}
_RT_BINDINGS = {"ℤ": INT, "ℕ": INT, "{0, 1, 2}": INT, "Color": "Color",
                "{green}": "Color", "BOOL": BOOL}


@st.composite
def _formula_texts(draw, depth=3):
    """Well-sorted formula text over _RT_CTX; compound operands are
    bracketed or not at random, and every bound name is fresh."""
    fresh = itertools.count()

    def maybe_bracketed(s):
        return f"({s})" if draw(st.booleans()) else s

    def term(sort, scope, depth):
        leaves = [v for v, s in scope if s == sort] + _RT_LEAVES[sort]
        if sort != INT or depth == 0 or draw(st.booleans()):
            return draw(st.sampled_from(leaves))
        kind = draw(st.sampled_from(["+", "−", "*", "minus", "dbl"]))
        if kind == "minus":
            return "−" + maybe_bracketed(term(INT, scope, depth - 1))
        if kind == "dbl":
            return f"dbl({term(INT, scope, depth - 1)})"
        return (f"{maybe_bracketed(term(INT, scope, depth - 1))} {kind} "
                f"{maybe_bracketed(term(INT, scope, depth - 1))}")

    def atom(scope):
        sort = draw(st.sampled_from([INT, INT, BOOL, "Color"]))
        kind = draw(st.sampled_from(["rel", "in", "even", "const"]))
        if kind == "const":
            return draw(st.sampled_from(["true", "false"]))
        if kind == "even" and sort == INT:
            return f"even({term(INT, scope, 2)})"
        left = term(sort, scope, 2)
        if kind == "in":
            elems = [term(sort, scope, 1) for _ in range(draw(st.integers(1, 3)))]
            return f"{left} ∈ {{{', '.join(elems)}}}"
        rels = ["=", "≠", "<", "≤", ">", "≥"] if sort == INT else ["=", "≠"]
        return f"{left} {draw(st.sampled_from(rels))} {term(sort, scope, 2)}"

    def formula(scope, depth):
        kind = "atom" if depth == 0 else draw(st.sampled_from(
            ["atom", "∧", "∨", "⇒", "⇔", "¬", "∀", "∃"]))
        if kind == "atom":
            return atom(scope)
        if kind == "¬":
            return "¬" + maybe_bracketed(formula(scope, depth - 1))
        if kind in ("∀", "∃"):
            types = draw(st.lists(st.sampled_from(sorted(_RT_BINDINGS)),
                                  min_size=1, max_size=2))
            bound = [(f"q{next(fresh)}", te) for te in types]
            inner = scope + [(v, _RT_BINDINGS[te]) for v, te in bound]
            binds = ", ".join(f"{v} : {te}" for v, te in bound)
            return f"{kind} {binds} · {formula(inner, depth - 1)}"
        return (f"{maybe_bracketed(formula(scope, depth - 1))} {kind} "
                f"{maybe_bracketed(formula(scope, depth - 1))}")

    return formula(list(_RT_CTX.vars), depth)


@pytest.mark.oracle
@given(_formula_texts())
@settings(max_examples=500, deadline=None)
def test_unparse_parse_round_trip_on_random_formulas(text):
    f = parse_formula_text(text, _RT_CTX)
    assert parse_formula_text(unparse_formula(f), _RT_CTX) == f


def test_canonical_flattens_and_sorts():
    ctx = ElabContext(FopeqSignature(), vars=(("a", INT), ("b", INT)))
    f1 = parse_formula_text("a = 0 ∧ (b = 1 ∧ true)", ctx)
    f2 = parse_formula_text("b = 1 ∧ a = 0", ctx)
    assert canonical(f1) == canonical(f2)
