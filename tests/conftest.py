from pathlib import Path

import pytest

from evtforge.eventb import parse_text
from evtforge.fopeq import FiniteAlgebra, Term
from evtforge.institution import EvtSignature, state_coding
from evtforge.mathlang import (
    ElabContext, TokenStream, elab_term, parse_expression, tokenize,
)
from evtforge.translate import TranslationOutput, translate

FIXTURES = Path(__file__).parent / "fixtures"


def load_fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def decoded(sig: EvtSignature, algebra: FiniteAlgebra, maximum):
    """maximal_model's state and pair codes as tuple states: the initialising
    set and each event's relation."""
    coding = state_coding(sig, algebra)
    l_max, r_max = maximum
    return ({coding.decode(c) for c in l_max},
            {e: {coding.decode_pair(p) for p in pairs} for e, pairs in r_max.items()})


def parse_term_text(text: str, ctx: ElabContext) -> Term:
    """An elaborated term from text."""
    return elab_term(parse_expression(TokenStream(tokenize(text))), ctx)[0]


@pytest.fixture(scope="session")
def bridge() -> TranslationOutput:
    """cd/m0/m1/Color/m2 translated into one library."""
    out = translate(parse_text(load_fixture("ebm0.eb")))
    out = translate(parse_text(load_fixture("ebm1.eb")), out)
    out = translate(parse_text(load_fixture("ebm2.eb")), out)
    return out


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


_ACCEPTANCE_DESCRIPTIONS = {
    1: "golden translation of the abstract machine, sentence set exact",
    2: "golden translations of both refinement steps",
    3: "signature extraction matches the published five-tuple exactly",
    4: "single-event maximal relation reproduces the four listed tuples",
    5: "satisfaction condition, exhaustive over small signatures",
    6: "context embedding preserves satisfaction on 200 random cases",
    7: "pushout mediating morphisms exist uniquely over the pool",
    8: "amalgamation succeeds with exact reducts on 200 random spans",
    9: "refinement chain holds; weakened mutant fails replayably",
    10: "hand-modularised spec equals the translated machine",
    11: "decompositions recompose to the original model class",
    12: "maxima-shortcut verdicts equal literal class enumeration",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    stats = terminalreporter.stats
    rows = {}
    for outcome in ("passed", "failed", "error"):
        for rep in stats.get(outcome, ()):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" in nodeid and rep.when == "call":
                name = nodeid.split("::")[-1]
                num = int(name.split("_")[2])
                verdict = "PASS" if outcome == "passed" else "FAIL"
                desc = _ACCEPTANCE_DESCRIPTIONS.get(num, "")
                rows[num] = f"criterion {num:2d}: {verdict}  {desc}"
    if rows:
        terminalreporter.write_sep("-", "acceptance criteria")
        for num in sorted(rows):
            terminalreporter.write_line(rows[num])
