import gc
import json
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from evtforge import institution, refinement, specs
from evtforge.cli import _format_state, dump_json, main, models_lines, models_payload
from evtforge.fopeq import Bounds
from evtforge.institution import StateCoding
from evtforge.refinement import Counterexample, RefinementVerdict
from evtforge.specs import Evaluator
from tests.conftest import FIXTURES


@pytest.fixture
def runner():
    return CliRunner()


def fx(*names):
    return [str(FIXTURES / n) for n in names]


class TestTranslate:
    def test_m0_matches_golden(self, runner):
        res = runner.invoke(main, ["translate", *fx("ebm0.eb")])
        assert res.exit_code == 0
        golden = (FIXTURES / "golden" / "evtm0.txt").read_text(encoding="utf-8")
        assert res.output == golden

    def test_parse_error_exit_code(self, runner, tmp_path):
        bad = tmp_path / "bad.eb"
        bad.write_text("machine only half", encoding="utf-8")
        res = runner.invoke(main, ["translate", str(bad)])
        assert res.exit_code == 1

    def test_empty_file_is_an_error(self, runner, tmp_path):
        empty = tmp_path / "empty.eb"
        empty.write_text("", encoding="utf-8")
        res = runner.invoke(main, ["translate", str(empty)])
        assert res.exit_code == 1

    def test_semantic_error_exit_code(self, runner, tmp_path):
        bad = tmp_path / "bad.eb"
        bad.write_text(
            "machine m sees nowhere events event Initialisation end end",
            encoding="utf-8")
        res = runner.invoke(main, ["translate", str(bad)])
        assert res.exit_code == 2

    def test_rodin_input(self, runner):
        res = runner.invoke(main, ["translate", *fx("rodin/cd.buc", "rodin/m0.bum")])
        assert res.exit_code == 0
        golden = (FIXTURES / "golden" / "evtm0.txt").read_text(encoding="utf-8")
        assert res.output == golden

    def test_no_elide_prints_slices(self, runner):
        res = runner.invoke(main, ["translate", *fx("ebm0.eb", "ebm1.eb"),
                                   "--no-elide"])
        assert res.exit_code == 0
        assert "hide via" in res.output

    def test_out_file(self, runner, tmp_path):
        target = tmp_path / "out.evt"
        res = runner.invoke(main, ["translate", *fx("ebm0.eb"),
                                   "--out", str(target)])
        assert res.exit_code == 0
        assert target.read_text(encoding="utf-8").startswith("spec cd =")

    def test_identical_runs_identical_output(self, runner):
        a = runner.invoke(main, ["translate", *fx("ebm0.eb", "ebm1.eb", "ebm2.eb")])
        b = runner.invoke(main, ["translate", *fx("ebm0.eb", "ebm1.eb", "ebm2.eb")])
        assert a.output == b.output

    def test_mixed_and_groups_print_as_written(self, runner):
        res = runner.invoke(main, ["translate", *fx("sums.evt")])
        assert res.exit_code == 0, res.output
        assert "  (c1 and cj and a) with {" in res.output


    def test_event_b_input_imports_an_evt_spec(self, runner, tmp_path):
        # a context may extend, and a machine see, a first-order spec read
        # from .evt text; a machine may refine only a translated machine
        spec = tmp_path / "k.evt"
        spec.write_text("spec k =\n  ops c : ℤ\n  . c > 0\nend\n"
                        "spec a =\n  events\n    Initialisation ordinary\nend\n",
                        encoding="utf-8")
        uses = tmp_path / "uses.eb"
        uses.write_text("context c2 extends k constants e axioms t: e ∈ ℤ ax: e > c end\n"
                        "machine m sees k variables x invariants t: x ∈ ℤ\n"
                        "events event Initialisation thenAct a: x := c end end\n",
                        encoding="utf-8")
        res = runner.invoke(main, ["translate", str(spec), str(uses)])
        assert res.exit_code == 0, res.output
        assert "spec c2 =\n  k\n  then\n" in res.output
        assert "spec m =\n  k\n  then\n" in res.output
        refines = tmp_path / "refines.eb"
        refines.write_text("machine r refines a events event Initialisation end end\n",
                           encoding="utf-8")
        res = runner.invoke(main, ["translate", str(spec), str(refines)])
        assert res.exit_code == 2
        assert res.stderr == "error: machine r: a is not a translated machine\n"


class TestModels:
    def test_counter_listing(self, runner):
        res = runner.invoke(main, [
            "models", "m0", *fx("ebm0.eb"),
            "--pin", "d=2", "--bound", "3", "--event", "ML_out", "--list"])
        assert res.exit_code == 0
        assert "(n=0) -> (n=1)" in res.output
        assert "(n=1) -> (n=2)" in res.output
        assert "(n=2)" not in res.output.split("ML_out")[0]

    def test_sugar_defined_spec_evaluates(self, runner):
        res = runner.invoke(main, [
            "models", "M1", *fx("decomp.eb", "decomp_sv.evt"),
            "--bound", "1", "--event", "e3_e"])
        assert res.exit_code == 0
        assert "e3_e: 4 pair(s)" in res.output

    def test_rex_four_tuples(self, runner):
        res = runner.invoke(main, [
            "models", "rex", *fx("rex.eb"), "--event", "e", "--list"])
        assert res.exit_code == 0
        assert "e: 4 pair(s)" in res.output

    def test_false_guard_empties_relation(self, runner, tmp_path):
        src = tmp_path / "f.eb"
        src.write_text("""
machine f
  variables v
  invariants t: v ∈ {0, 1}
  events
    event Initialisation thenAct a: v := 0 end
    event e status ordinary when g: 1 < 0 thenAct a: v := 0 end
end""", encoding="utf-8")
        res = runner.invoke(main, ["models", "f", str(src)])
        assert "e: 0 pair(s)" in res.output
        assert "1 initial state(s)" in res.output

    def test_parameterised_event_enumerates_witnesses(self, runner, tmp_path):
        src = tmp_path / "jug.eb"
        src.write_text("""
machine jug
  variables w
  invariants
    t1: w ∈ ℕ
    i2: w ≤ 2
  events
    event Initialisation thenAct a: w := 0 end
    event pour
      status ordinary
      any k
      when g1: k ∈ ℕ g2: k > 0 g3: w + k ≤ 2
      thenAct a1: w := w + k
    end
end""", encoding="utf-8")
        res = runner.invoke(main, ["models", "jug", str(src),
                                   "--event", "pour", "--list"])
        assert res.exit_code == 0
        assert "pour: 3 pair(s)" in res.output
        assert "(w=0) -> (w=2)" in res.output

    def test_negated_invariant_admits_initial_state(self, runner, tmp_path):
        src = tmp_path / "neq.eb"
        src.write_text(
            "machine m variables n invariants inv1: n ∈ ℤ inv2: n ≠ 5\n"
            "events event Initialisation thenAct act1: n := 0 end\n"
            "event inc status ordinary when grd1: n < 2\n"
            "thenAct act1: n := n + 1 end end\n", encoding="utf-8")
        res = runner.invoke(main, ["models", "m", str(src), "--bound", "3"])
        assert res.exit_code == 0
        assert "Init: 1 initial state(s)" in res.output
        assert "inc: 5 pair(s)" in res.output

    @pytest.mark.parametrize("name,where,text", [
        ("r.eb", "r.Initialisation", "machine r variables n invariants t: n ∈ ℤ\n"
                      "events event Initialisation thenAct a1: n := n + 1 end end\n"),
        ("r.evt", "spec r.Initialisation",
         "spec r =\n  ops n : ℤ\n  events\n    Initialisation ordinary\n"
         "      thenAct n := n + 1\nend\n"),
        ("g.evt", "spec r.Initialisation",
         "spec r =\n  ops n : ℤ\n  events\n    Initialisation ordinary\n"
         "      when n > 0\n      thenAct n := 1\nend\n"),
    ], ids=["eventb", "evt-action", "evt-guard"])
    def test_initialisation_reading_state_exits_2(self, runner, tmp_path, name, where, text):
        src = tmp_path / name
        src.write_text(text, encoding="utf-8")
        res = runner.invoke(main, ["models", "r", str(src), "--bound", "2"])
        assert res.exit_code == 2
        assert res.output == f"error: {where}: initialisation may not read state variables\n"

    def test_unknown_event_name_errors(self, runner):
        res = runner.invoke(main, ["models", "m0", *fx("ebm0.eb"),
                                   "--event", "nosuch"])
        assert res.exit_code == 2

    def test_json_output(self, runner):
        res = runner.invoke(main, [
            "models", "m0", *fx("ebm0.eb"), "--pin", "d=2", "--json"])
        data = json.loads(res.output)
        assert data["algebras"][0]["events"]["ML_out"] == 2

    def test_bound_env_var(self, runner):
        res = runner.invoke(main, ["models", "m0", *fx("ebm0.eb"), "--pin", "d=2"],
                            env={"EVTFORGE_BOUND": "2"})
        assert "bound 2" in res.output

    def test_json_list_matches_golden(self, runner):
        res = runner.invoke(main, [
            "models", "m2", *fx("ebm0.eb", "ebm1.eb", "ebm2.eb"), "--bound", "4",
            "--json", "--list"])
        assert res.exit_code == 0
        golden = FIXTURES / "golden" / "models_m2_bound4_list.json"
        assert res.stdout_bytes == golden.read_bytes()

    def test_relabelled_orbit_matches_golden_with_one_run(self, runner, monkeypatch):
        # Light = {red, amber, green} admits 3! labellings, one orbit: one
        # maximal_model run, relabelled for the other five algebras
        runs = []
        run = specs.maximal_model
        monkeypatch.setattr(specs, "maximal_model", lambda *a: runs.append(a) or run(*a))
        res = runner.invoke(main, [
            "models", "tl", *fx("lights3.eb"), "--carrier", "Light=3", "--bound", "2",
            "--json", "--list"])
        assert res.exit_code == 0
        assert (len(json.loads(res.output)["algebras"]), len(runs)) == (6, 1)
        golden = FIXTURES / "golden" / "models_lights3_bound2_list.json"
        assert res.stdout_bytes == golden.read_bytes()

    def test_relabelled_orbit_text_listing_matches_golden(self, runner):
        # the relabelled joins are listed run by run, as a run per algebra
        # listed them (the golden file)
        res = runner.invoke(main, [
            "models", "tl", *fx("lights3.eb"), "--carrier", "Light=3", "--bound", "2",
            "--list"])
        golden = FIXTURES / "golden" / "models_lights3_bound2_list.txt"
        assert (res.exit_code, res.stdout_bytes) == (0, golden.read_bytes())

    def test_a_pin_lists_the_matching_slices_of_an_orbit(self, runner):
        args = ["models", "tl", *fx("lights3.eb"), "--carrier", "Light=3", "--bound", "2",
                "--json", "--list"]
        every = json.loads(runner.invoke(main, args).output)["algebras"]
        pinned = json.loads(runner.invoke(main, [*args, "--pin", "red=Light0"]).output)
        assert pinned["algebras"] == [a for a in every if "red=Light0" in a["algebra"]]
        assert len(pinned["algebras"]) == 2

    def test_counts_of_check_free_relations_build_no_pair_codes(self, runner, tmp_path,
                                                                monkeypatch):
        # typed variables, a guard each and one assignment each: every pair
        # comes from an event with no checks, as in a wide machine
        src = tmp_path / "w.eb"
        src.write_text(
            "machine w variables a, b, c\n"
            "invariants inv1: a ∈ ℤ inv2: b ∈ ℕ inv3: c ∈ BOOL\n"
            "events event Initialisation thenAct act1: a := 0 act2: b := 1 act3: c := TRUE end\n"
            "event inc status ordinary when grd1: a ≠ 1 thenAct act1: b := b + 1 end\n"
            "event flip status ordinary when grd1: c = TRUE thenAct act1: c := FALSE end\n"
            "end\n", encoding="utf-8")
        built = []
        codes = institution._Joined.codes
        monkeypatch.setattr(institution._Joined, "codes",
                            property(lambda r: built.append(r) or codes.fget(r)))
        args = ["models", "w", str(src), "--bound", "2"]
        text = runner.invoke(main, args)
        counted = runner.invoke(main, [*args, "--json"])
        assert (text.exit_code, counted.exit_code, built) == (0, 0, [])
        assert "inc: 160 pair(s)" in text.output
        # the listings read the join's runs, so no pair code is built either
        listed = runner.invoke(main, [*args, "--json", "--list"])
        listed_text = runner.invoke(main, [*args, "--list"])
        assert (listed.exit_code, listed_text.exit_code, built) == (0, 0, [])
        assert listed_text.output.count(" -> ") == sum(json.loads(counted.output)
                                                      ["algebras"][0]["events"].values())
        (entry,) = json.loads(listed.output)["algebras"]
        assert json.loads(counted.output)["algebras"] == [
            {k: v for k, v in entry.items() if k not in ("init", "relations")}]
        for e, pairs in entry["relations"].items():
            distinct = {json.dumps(p, sort_keys=True) for p in pairs}
            assert len(distinct) == len(pairs) == entry["events"][e]

    @pytest.mark.parametrize("listing", [[], ["--list"]])
    @pytest.mark.parametrize("event", ["ML_out", "Init"])
    def test_json_report_keeps_only_the_named_event(self, runner, event, listing):
        args = ["models", "m0", *fx("ebm0.eb"), "--pin", "d=2", "--bound", "2", "--json",
                *listing]
        (every,) = json.loads(runner.invoke(main, args).output)["algebras"]
        res = runner.invoke(main, [*args, "--event", event])
        assert res.exit_code == 0
        # as the text report: the initial states belong to the event Init
        want = {k: v for k, v in every.items()
                if event == "Init" or k not in ("initial_states", "init")}
        want["events"] = {e: n for e, n in every["events"].items() if e == event}
        if listing:
            want["relations"] = {e: p for e, p in every["relations"].items() if e == event}
        assert json.loads(res.output)["algebras"] == [want]

    @pytest.mark.parametrize("pins, message", [
        (["--pin", "flag=1", "--pin", "k=1"], "pinned value 1 for flag outside its carrier"),
        (["--pin", "flag=TRUE", "--pin", "k=FALSE"],
         "pinned value False for k outside its carrier"),
        (["--pin", "flag=TRUE", "--pin", "k=1"], None),
    ])
    def test_a_pin_of_another_type_is_outside_the_carrier(self, runner, tmp_path, pins,
                                                          message):
        # True == 1 in Python, but 1 is no value of BOOL and FALSE none of ℤ
        src = tmp_path / "c.eb"
        src.write_text(
            "context c constants flag, k axioms a1: flag ∈ BOOL a2: k ∈ ℤ end\n"
            "machine m sees c variables n invariants i1: n ∈ ℤ\n"
            "events event Initialisation thenAct a1: n := 0 end end\n", encoding="utf-8")
        res = runner.invoke(main, ["models", "m", str(src), "--bound", "1", *pins])
        if message is None:
            assert res.exit_code == 0 and "algebra flag=True, k=1\n" in res.output
        else:
            assert (res.exit_code, res.stderr) == (2, f"error: {message}\n")

    @pytest.mark.parametrize("flag, value", [("--pin", "q=1"), ("--carrier", "S=3")])
    def test_undeclared_bound_name_is_refused(self, runner, flag, value):
        # neither q nor S is declared, so the flag would bound nothing
        res = runner.invoke(main, ["models", "m0", *fx("ebm0.eb"), flag, value])
        assert res.exit_code == 2
        name, what = value.split("=")[0], "a sort" if flag == "--carrier" else "an operation"
        assert res.stderr == f"error: {flag} {name}: no loaded specification declares {what} {name}\n"

    def test_ceiling_exit(self, runner):
        res = runner.invoke(main, [
            "models", "m0", *fx("ebm0.eb"), "--ceiling", "3"])
        assert res.exit_code == 2

    def test_pair_refusal_of_a_wide_machine(self, runner):
        # 7^6 states per side at bound 3; step's before-pool alone fits
        res = runner.invoke(main, [
            "models", "wide", *fx("wide_refuse.eb"), "--bound", "3",
            "--ceiling", "1000000"])
        assert res.exit_code == 2
        assert res.stdout_bytes == b""
        assert res.stderr_bytes == (
            "error: event step: state pairs exceed the ceiling 1000000\n".encode())


class TestRefine:
    def test_chain_holds(self, runner):
        res = runner.invoke(main, [
            "refine", *fx("ebm0.eb", "ebm1.eb", "ebm2.eb", "refinements.evt"),
            "--pin", "d=2", "--allow-status-drop"])
        assert res.exit_code == 0, res.output
        assert res.output.count("holds") == 3

    def test_each_algebra_reduct_is_computed_once(self, runner, monkeypatch):
        """One refine command reduces each algebra along each first-order
        morphism once: its hide images, its spec classes and its inclusion
        checks read the reducts the Evaluator keeps (120 computations of 12
        reducts before)."""
        calls = []

        def counted(a, m, original=specs.algebra_reduct):
            calls.append((a, m))
            return original(a, m)

        for module in (specs, institution, refinement):
            monkeypatch.setattr(module, "algebra_reduct", counted)
        res = runner.invoke(main, [
            "refine", *fx("ebm0.eb", "ebm1.eb", "ebm2.eb", "refinements.evt"),
            "--bound", "4", "--allow-status-drop"])
        assert res.exit_code == 0, res.output
        assert len(calls) == len(set(calls)) == 12

    def test_status_drop_needs_flag(self, runner):
        res = runner.invoke(main, [
            "refine", *fx("ebm0.eb", "ebm1.eb", "ebm2.eb", "refinements.evt"),
            "--pin", "d=2"])
        assert res.exit_code == 2

    def test_weakened_fails_exit_3(self, runner):
        res = runner.invoke(main, [
            "refine", *fx("ebm0.eb", "ebm0_weak.eb", "refinement_weak.evt"),
            "--pin", "d=2"])
        assert res.exit_code == 3
        assert "FAILS" in res.output

    def test_json_verdicts(self, runner):
        res = runner.invoke(main, [
            "refine", *fx("ebm0.eb", "ebm0_weak.eb", "refinement_weak.evt"),
            "--pin", "d=2", "--json"])
        data = json.loads(res.output)
        assert data[0]["holds"] is False
        assert set(data[0]["counterexample"]) == {"algebra", "event", "before", "after"}

    def test_json_counterexample_matches_golden(self, runner):
        res = runner.invoke(main, [
            "refine", *fx("ebm0.eb", "ebm0_weak.eb", "refinement_weak.evt"),
            "--pin", "d=2", "--json"])
        assert res.exit_code == 3
        golden = FIXTURES / "golden" / "refine_weak_d2.json"
        assert res.stdout_bytes == golden.read_bytes()

    def test_undeclared_pin_is_refused(self, runner):
        res = runner.invoke(main, [
            "refine", *fx("ebm0.eb", "ebm1.eb", "ebm2.eb", "refinements.evt"),
            "--pin", "d=2", "--pin", "q=1", "--allow-status-drop"])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == "error: --pin q: no loaded specification declares an operation q\n"

    def test_chain_builds_one_projection_per_variable_map_and_coding(self, runner, monkeypatch):
        # each coding holds its reducts: the chain's slices at bound 4 fall
        # into few codings, which every hide image and inclusion check shares
        built = []
        projection = institution.Projection

        def counted(positions, coding):
            built.append((positions, id(coding)))
            return projection(positions, coding)

        institution._coding.cache_clear()
        monkeypatch.setattr(institution, "Projection", counted)
        res = runner.invoke(main, [
            "refine", *fx("ebm0.eb", "ebm1.eb", "ebm2.eb", "refinements.evt"),
            "--bound", "4", "--allow-status-drop"])
        assert res.exit_code == 0, res.output
        assert len(built) == len(set(built)) == 4

    def test_no_declarations(self, runner):
        res = runner.invoke(main, ["refine", *fx("ebm0.eb")])
        assert res.exit_code == 2


class TestPushout:
    def test_status_supremum_shown(self, runner):
        res = runner.invoke(main, [
            "pushout", *fx("span1.sig", "span2.sig")])
        assert res.exit_code == 0
        assert "e1 convergent" in res.output
        assert "e2 ↦ e1" in res.output
        assert "y ↦ x" in res.output

    def test_identity_span(self, runner, tmp_path):
        doc = """
signature S =
  events e ordinary
  vars x : Int
end
morphism id : S -> S =
  {}
end
"""
        f = tmp_path / "id.sig"
        f.write_text(doc, encoding="utf-8")
        res = runner.invoke(main, ["pushout", str(f), str(f)])
        assert res.exit_code == 0
        assert "e ordinary" in res.output

    def test_leg_to_a_builtin_sort_exits_2(self, runner, tmp_path):
        source = "signature S0 =\n  sorts U\n  vars x : U\nend\n"
        ident = tmp_path / "id.sig"
        ident.write_text(source + "morphism id : S0 -> S0 =\n  {}\nend\n",
                         encoding="utf-8")
        to_int = tmp_path / "to_int.sig"
        to_int.write_text(
            source + "signature S1 =\n  vars x : Int\nend\n"
            "morphism sigma : S0 -> S1 =\n  {U ↦ Int}\nend\n", encoding="utf-8")
        res = runner.invoke(main, ["pushout", str(ident), str(to_int)])
        assert res.exit_code == 2
        assert "builtin sort Int" in res.output


_UNREADABLE = [
    ("missing.eb", None, 2, "No such file or directory"),
    ("missing.bum", None, 2, "No such file or directory"),
    ("folder.eb", "dir", 2, "Is a directory"),
    ("latin1.eb", b"machine m\xe9 end", 1, "not UTF-8 text (invalid continuation byte at byte 9)"),
    ("latin1.bum", b"\xff<org.eventb.core.machineFile/>", 1,
     "not UTF-8 text (invalid start byte at byte 0)"),
]


@pytest.mark.parametrize("command,name,content,code,reason", [
    pytest.param(command, *case, id=f"{command}-{case[0]}")
    for command in ("translate", "models", "refine", "pushout")
    for case in _UNREADABLE])
def test_unreadable_input_is_a_located_error(runner, tmp_path, command, name,
                                             content, code, reason):
    path = tmp_path / name
    if content == "dir":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    args = {"translate": [str(path)], "models": ["m", str(path)],
            "refine": [str(path)], "pushout": [str(path), str(path)]}[command]
    res = runner.invoke(main, [command, *args])
    assert isinstance(res.exception, SystemExit)
    assert res.exit_code == code
    assert res.stderr == f"error: {path}: {reason}\n"


# a parse error names the input it was found in, then its line:col; a
# superscript digit is no number, though str.isdigit says it is a digit
@pytest.mark.parametrize("name,content,command,where,char", [
    ("bad.eb", "context c\nconstants d\naxioms\n  axm1: d = @\nend\n",
     "translate", "4:13", "@"),
    ("bad.eb", "context c\nconstants d\naxioms\n  axm1: d = 2²\nend\n",
     "translate", "4:14", "²"),
    ("bad.evt", "spec m =\n  ops x : ℤ @\nend\n", "translate", "2:13", "@"),
    ("bad.sig", "signature S0 =\n  sorts U @\nend\n", "pushout", "2:11", "@"),
], ids=["eb", "eb-superscript", "evt", "sig"])
def test_parse_error_names_its_file(runner, tmp_path, name, content, command,
                                    where, char):
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    args = [str(path)] * (2 if command == "pushout" else 1)
    res = runner.invoke(main, [command, *args])
    assert isinstance(res.exception, SystemExit)
    assert res.exit_code == 1
    assert res.stderr == f"error: {path}:{where}: unexpected character {char!r}\n"


# a guard cut short by the end of its line: the error is located at that
# newline, column 15 of line 5
def test_parse_error_at_a_newline_names_its_line_and_column(runner, tmp_path):
    path = tmp_path / "cut.evt"
    path.write_text("spec a =\n  ops x : ℤ\n  events\n    e ordinary\n      when x <\n"
                    "      thenAct x := 1\nend\n", encoding="utf-8")
    res = runner.invoke(main, ["translate", str(path)])
    assert isinstance(res.exception, SystemExit)
    assert res.exit_code == 1
    assert res.stderr == f"error: {path}:5:15: expected an expression, found '\\n'\n"


# newlines inside brackets are free, so a closing bracket may start a line
def test_a_closing_bracket_may_start_a_line(runner, tmp_path):
    path = tmp_path / "brackets.evt"
    path.write_text("spec a =\n  ops x : ℤ\n  events\n    e ordinary\n      when x ∈ {1,\n"
                    "        2\n      } ∧ (x = 1\n      )\n      thenAct x := 1\nend\n",
                    encoding="utf-8")
    res = runner.invoke(main, ["translate", str(path)])
    assert res.exit_code == 0
    assert "      when x ∈ {1, 2} ∧ x = 1\n      thenAct x := 1\n" in res.output


# an unknown status word is a parse error at the word: in a signature's
# events, in a maplet, in an Event-B event and in a spec's event
_BOGUS_EVENT = "machine m0\nvariables n\ninvariants\n  inv1: n ∈ ℕ\nevents\n" \
    "  event Initialisation\n    thenAct\n      act1: n := 0\n  end\n" \
    "  event inc\n    status bogus\n    thenAct\n      act1: n := n + 1\n  end\nend\n"


@pytest.mark.parametrize("name,content,command,where,word", [
    ("s.sig", "signature S0 =\n  events e vars\nend\n", "pushout", "2:12", "vars"),
    ("m.sig", "signature S0 =\n  events e ordinary\nend\n\n"
     "morphism m : S0 -> S0 =\n  {⟨e, bogus⟩ ↦ e}\nend\n", "pushout", "6:8", "bogus"),
    ("m.eb", _BOGUS_EVENT, "translate", "11:12", "bogus"),
    ("e.evt", "spec a =\n  ops x : ℤ\n  events\n    e bogus\n      thenAct x := 1\nend\n",
     "translate", "4:7", "bogus"),
], ids=["signature", "maplet", "eb", "evt"])
def test_an_unknown_status_is_an_error_at_its_word(runner, tmp_path, name, content,
                                                  command, where, word):
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    args = [str(path)] * (2 if command == "pushout" else 1)
    res = runner.invoke(main, [command, *args])
    assert isinstance(res.exception, SystemExit)
    assert res.exit_code == 1
    assert res.stderr == f"error: {path}:{where}: unknown status {word!r}\n"


# an unknown identifier y in one clause of each kind; the message names the
# component and the clause label
_UNLOCATED = "context k constants c axioms t: c ∈ ℤ {axm}end\n" \
    "machine m sees k variables x invariants inv1: x ∈ ℤ {inv}\n" \
    "events event Initialisation thenAct act1: x := 0 end\n" \
    "event e any p when grd0: p ∈ ℤ {grd}with wit1: {wit} thenAct act1: x := {act} end end\n"
_CLEAN = {"axm": "", "inv": "", "grd": "", "wit": "p = x", "act": "x + p"}


@pytest.mark.parametrize("broken,where", [
    ({"inv": "inv2: x < y "}, "m.inv2"),
    ({"grd": "grd1: x < y "}, "m.e.grd1"),
    ({"act": "x + y"}, "m.e.act1"),
    ({"axm": "axm1: c < y "}, "k.axm1"),
    ({"wit": "p = y"}, "m.e.wit1"),
], ids=["invariant", "guard", "action", "axiom", "witness"])
def test_elaboration_error_names_its_clause(runner, tmp_path, broken, where):
    src = tmp_path / "bad.eb"
    src.write_text(_UNLOCATED.format(**{**_CLEAN, **broken}), encoding="utf-8")
    res = runner.invoke(main, ["translate", str(src)])
    assert res.exit_code == 2
    assert res.stderr == f"error: {where}: unknown identifier y\n"


# the signature rules of Event-B input: each refusal names the component
# where it has one to name
_ABSTRACT = "machine a0 variables v invariants t: v ∈ ℕ\n" \
    "events event Initialisation thenAct a: v := 0 end end\n"
_INIT = "events event Initialisation end end\n"


@pytest.mark.parametrize("source,message", [
    ("machine m sees nowhere " + _INIT, "unknown context nowhere"),
    ("machine m variables v " + _INIT,
     "machine m: no typing invariant for variable v"),
    (_ABSTRACT + "machine c0 refines a0 events event Initialisation end\n"
     "event e status ordinary refines nothere end end\n",
     "machine c0: refined event nothere not in a0"),
    (_ABSTRACT + "machine c0 refines a0 variables v invariants t: v ∈ BOOL\n"
     "events event Initialisation thenAct a: v := FALSE end end\n",
     "machine c0: variable v changes sort in refinement"),
    ("machine m variables v invariants t1: v ∈ ℕ t2: v ∈ ℤ " + _INIT,
     "machine m: variable v typed twice"),
    ("context c constants k axioms ax: k > 0 end\n",
     "context c: no typing axiom for constant k"),
    ("machine a0 " + _INIT + "machine m sees a0 " + _INIT, "a0 is not a context"),
    ("context c0 end\nmachine m refines c0 " + _INIT, "c0 is not a machine"),
], ids=["unknown-context", "untyped-variable", "refined-event-not-abstract",
        "retyped-variable", "variable-typed-twice", "untyped-constant",
        "sees-a-machine", "refines-a-context"])
def test_signature_rule_refusals(runner, tmp_path, source, message):
    src = tmp_path / "bad.eb"
    src.write_text(source, encoding="utf-8")
    res = runner.invoke(main, ["translate", str(src)])
    assert res.exit_code == 2
    assert res.stderr == f"error: {message}\n"


# .evt clauses carry no labels, so the message names the spec and the event
@pytest.mark.parametrize("guard,action", [("x < y", "x + 1"), ("x < 2", "x + y")],
                         ids=["guard", "action"])
def test_evt_elaboration_error_names_its_event(runner, tmp_path, guard, action):
    src = tmp_path / "bad.evt"
    src.write_text("spec m =\n  ops x : ℤ\n  events\n    Initialisation ordinary\n"
                   "      thenAct x := 0\n    inc ordinary\n"
                   f"      when {guard}\n      thenAct x := {action}\nend\n",
                   encoding="utf-8")
    res = runner.invoke(main, ["translate", str(src)])
    assert res.exit_code == 2
    assert res.stderr == "error: spec m.inc: unknown identifier y\n"


def test_runs_free_their_captured_output(runner):
    """Output a CliRunner captured is freed with its result: nothing of four
    runs that each print ~0.6 MB stays live."""
    args = ["models", "m2", *fx("ebm0.eb", "ebm1.eb", "ebm2.eb"),
            "--bound", "6", "--pin", "d=4", "--json", "--list"]
    assert len(runner.invoke(main, args).output) > 500_000
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(4):
            assert runner.invoke(main, args).exit_code == 0
        gc.collect()
        live = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert live < 200_000


def test_multi_megabyte_listing_is_written_exactly(runner, bridge):
    """A models --json --list payload of several MB reaches stdout byte for
    byte, followed by one newline."""
    args = ["models", "m2", *fx("ebm0.eb", "ebm1.eb", "ebm2.eb"), "--bound", "6",
            "--json", "--list"]
    res = runner.invoke(main, args)
    rep = Evaluator(bridge.library, Bounds(int_bound=6)).model_class(
        bridge.library.lookup("m2"))
    want = dump_json(models_payload("m2", 6, rep.slices, True)) + "\n"
    assert res.exit_code == 0 and len(want) > 3_000_000
    assert res.stdout == want


def _oracle_models_payload(name, bound, slices, list_pairs):
    """The ``models --json`` payload as the command built it for
    ``json.dumps``: every state copied into a dict."""
    payload = {"spec": name, "bound": bound, "algebras": []}
    for sl in slices:
        entry = {
            "algebra": sl.algebra.describe(),
            "initial_states": len(sl.init),
            "events": {e: len(p) for e, p in sl.rel},
        }
        if list_pairs:
            entry["init"] = [dict(s) for s in sorted(sl.init)]
            entry["relations"] = {
                e: [[dict(s), dict(t)] for s, t in sorted(p)]
                for e, p in sl.rel}
        payload["algebras"].append(entry)
    return payload


# non-ASCII and control characters included
_names = st.text(max_size=4)
# one value type per variable, as over one signature (True == 1 as a key)
_value_kinds = {
    "bool": st.booleans(),
    "int": st.integers(-10 ** 12, 10 ** 12),
    "str": st.text(max_size=3),
    "other": st.fractions(max_denominator=5),  # printed through str
}


@st.composite
def _states(draw):
    """A strategy for states over one drawn set of typed variables, possibly
    none, which makes the empty state ``()`` the only one."""
    names = draw(st.lists(_names, unique=True, max_size=3))
    kinds = [draw(st.sampled_from(sorted(_value_kinds))) for _ in names]
    return st.tuples(*(st.tuples(st.just(n), _value_kinds[k])
                       for n, k in sorted(zip(names, kinds))))


@st.composite
def _slices(draw):
    """Slices as ``models`` reads them, over a few states drawn over one set
    of variables, so that a before-state often has several after-states."""
    states = st.sampled_from(draw(st.lists(draw(_states()), min_size=1, max_size=5)))
    slices = []
    for label in draw(st.lists(_names, max_size=3)):
        events = draw(st.lists(_names, unique=True, max_size=3))
        slices.append(SimpleNamespace(
            algebra=SimpleNamespace(describe=lambda label=label: label),
            init=draw(st.frozensets(states, max_size=4)),
            rel=tuple(sorted(
                (e, draw(st.frozensets(st.tuples(states, states), max_size=6)))
                for e in events))))
    _coded(draw, slices)
    return slices


@st.composite
def _models_case(draw):
    args = (draw(_names), draw(st.integers(-3, 9)), draw(_slices()), draw(st.booleans()))
    return models_payload(*args), _oracle_models_payload(*args)


def _coded(draw, slices):
    """Give each slice the codes and the coding that ``models`` reads: the
    coding ranks the values each variable takes in the slices, and a
    relation is a frozenset of pair codes or a join (_joined)."""
    states = [x for sl in slices
              for x in (*sl.init, *(x for _, p in sl.rel for pair in p for x in pair))]
    names = [n for n, _ in states[0]] if states else []
    coding = StateCoding(names, [{s[k][1] for s in states} for k in range(len(names))])
    for sl in slices:
        sl.coding = coding
        sl.init_codes = frozenset(map(coding.encode, sl.init))
        sl.rel_codes = tuple(
            (e, draw(st.sampled_from([frozenset, _joined(draw, coding.size)]))(
                frozenset(coding.encode_pair(s, t) for s, t in p)))
            for e, p in sl.rel)


def _joined(draw, size):
    """The join of these pair codes as maximal_model leaves it for an event
    without checks, with its blocks and each bucket in a drawn order;
    before-states with equal after-codes share one bucket."""
    def join(codes):
        afters: dict = {}
        for p in codes:
            afters.setdefault(p // size, set()).add(p % size)
        buckets = {b: draw(st.permutations(sorted(b)))
                   for b in dict.fromkeys(map(frozenset, afters.values()))}
        blocks = [(i * size, buckets[frozenset(b)]) for i, b in afters.items()]
        return institution._Joined(draw(st.permutations(blocks)))
    return join


@st.composite
def _refine_case(draw):
    states = draw(_states())
    verdicts = []
    for name in draw(st.lists(_names, max_size=3)):
        cex = draw(st.none() | st.builds(
            Counterexample, _names, st.none() | _names,
            st.none() | states, st.none() | states))
        verdicts.append(RefinementVerdict(
            name, cex is None, cex,
            {"algebras": draw(st.integers(0, 9)), "pairs": draw(st.integers(0, 99))}))
    payload = [v.as_dict() for v in verdicts]
    return payload, payload


@pytest.mark.oracle
@settings(max_examples=200, deadline=None)
@given(_models_case() | _refine_case())
def test_json_emitter_matches_json_dumps(case):
    payload, oracle = case
    assert dump_json(payload) == json.dumps(oracle, indent=2, default=str)


@pytest.mark.oracle
@settings(max_examples=200, deadline=None)
@given(_slices(), st.booleans())
def test_text_listing_renders_the_sorted_pairs(slices, list_pairs):
    """The text report lists each slice's states and pairs as the sorted
    tuple states rendered one by one, from a join as from a set of codes."""
    want = []
    for sl in slices:
        want += [f"algebra {sl.algebra.describe()}", f"  Init: {len(sl.init)} initial state(s)"]
        if list_pairs:
            want += [f"    {_format_state(s)}" for s in sorted(sl.init)]
        for e, p in sl.rel:
            want.append(f"  {e}: {len(p)} pair(s)")
            if list_pairs:
                want += [f"    {_format_state(s)} -> {_format_state(t)}" for s, t in sorted(p)]
    assert models_lines(slices, list_pairs) == want
