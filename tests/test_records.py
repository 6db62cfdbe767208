"""Record classes: every one is built by fopeq.frozen, behaves as the stdlib
dataclass with the same fields and flags, and costs one exec to build."""

import functools
import importlib
import json
import operator
import os
import re
import subprocess
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import evtforge
from evtforge.cli import RunConfig, load_workspace
from evtforge.eventb import parse_text
from evtforge.refinement import check_refinement_morphism, resolve_refinement
from evtforge.specs import Evaluator, SpecLibrary
from evtforge.translate import translate
from tests.conftest import FIXTURES, load_fixture

_MODULES = ("cli", "eventb", "fopeq", "institution", "mathlang", "refinement",
            "rodin", "specs", "sugar", "translate")


def _record_classes() -> list[type]:
    out = []
    for name in _MODULES:
        mod = importlib.import_module(f"evtforge.{name}")
        out += [c for c in vars(mod).values() if isinstance(c, type)
                and c.__module__ == mod.__name__ and "__dataclass_fields__" in c.__dict__]
    return out


RECORDS = _record_classes()
_ORDERED = {c.__name__ for c in RECORDS if "__lt__" in c.__dict__}
_MUTABLE = {c.__name__ for c in RECORDS if c.__hash__ is None}


def test_the_record_flags_are_those_the_classes_declare():
    """The twins below take their flags from these sets: ordered Op and Pred,
    and the eight mutable holders; every other record is frozen."""
    assert len(RECORDS) >= 69
    assert _ORDERED == {"Op", "Pred"}
    assert _MUTABLE == {"RunConfig", "LoadedWorkspace", "Counterexample", "RefinementVerdict",
                        "Flattened", "_RawEvent", "_RawBlock", "TranslationOutput"}


# the methods frozen writes, and what dataclasses adds to the class
_GENERATED = {"__init__", "__repr__", "__eq__", "__hash__", "__lt__", "__le__", "__gt__",
              "__ge__", "__setattr__", "__delattr__", "_hash", "__dataclass_fields__",
              "__dataclass_params__", "__match_args__", "__dict__", "__weakref__"}


@functools.lru_cache(maxsize=None)
def _twin(cls: type) -> type:
    """The stdlib dataclass with cls's fields, flags and other methods."""
    fs = fields(cls)
    ns = {k: v for k, v in cls.__dict__.items() if k not in _GENERATED}
    ns["__annotations__"] = {f.name: f.type for f in fs}
    for f in fs:
        ns[f.name] = field(default=f.default, default_factory=f.default_factory, init=f.init,
                           repr=f.repr, hash=f.hash, compare=f.compare, metadata=f.metadata)
    return dataclass(frozen=cls.__name__ not in _MUTABLE, order=cls.__name__ in _ORDERED)(
        type(cls.__name__, (), ns))


@functools.lru_cache(maxsize=None)
def _harvest() -> dict[type, list]:
    """Record values met on the way through parses, translations, a workspace
    load and refinement checks, one of which fails, at most 40 per class."""
    cfg = RunConfig(inputs=tuple(str(FIXTURES / n) for n in (
        "ebm0.eb", "ebm1.eb", "ebm2.eb", "refinements.evt", "ebm0_weak.eb",
        "refinement_weak.evt")), pins=(("d", 2),))
    ws = load_workspace(cfg)
    ev = Evaluator(ws.output.library, cfg.bounds())
    lib = ws.output.library
    quant = parse_text(load_fixture("quant.eb"))
    roots = [cfg, ws, parse_text(load_fixture("ebm1.eb")), quant, translate(quant), cfg.bounds(),
             ev.flatten(lib.lookup("m1"))]
    for rt in ws.refinements:
        decl = resolve_refinement(rt, lib, allow_status_drop=True)
        roots += [decl, check_refinement_morphism(decl, ev),
                  ev.model_class(lib.lookup(rt.concrete))]
    found: dict[type, list] = {}
    seen = set()
    todo = roots
    while todo:
        x = todo.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, (tuple, list, frozenset)):
            todo += x
        elif isinstance(x, dict):
            todo += [*x.keys(), *x.values()]
        elif isinstance(x, SpecLibrary):
            todo += x.entries.values()
        elif "__dataclass_fields__" in type(x).__dict__:
            kept = found.setdefault(type(x), [])
            if len(kept) < 40:
                kept.append(x)
            todo += [getattr(x, f.name) for f in fields(x) if hasattr(x, f.name)]
    return found


_PLAIN = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text("ab", max_size=2),
    lambda inner: st.lists(inner, max_size=2).map(tuple) | st.lists(inner, max_size=2),
    max_leaves=4)


@st.composite
def _arguments(draw, cls):
    """Keyword arguments for cls: a met value's own, or per field a met
    value's field or a plain value; a defaulted field is sometimes left out."""
    met = _harvest().get(cls, [])
    init = [f for f in fields(cls) if f.init]
    if met and draw(st.booleans()):
        base = draw(st.sampled_from(met))
        return {f.name: getattr(base, f.name) for f in init}
    out = {}
    for f in init:
        if (f.default, f.default_factory) != (MISSING, MISSING) and draw(st.booleans()):
            continue
        pool = [getattr(m, f.name) for m in met]
        out[f.name] = draw(st.sampled_from(pool) | _PLAIN if pool else _PLAIN)
    return out


def _outcome(run):
    try:
        return ("returns", run())
    except Exception as e:
        return ("raises", type(e), str(e))


def _shown(x) -> str:
    """repr(x) without object addresses, which a default factory's fresh
    object shows."""
    return re.sub(r" at 0x[0-9a-f]+", "", repr(x))


_ORDER = (operator.lt, operator.le, operator.gt, operator.ge)


@pytest.mark.oracle
@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: f"{c.__module__[9:]}.{c.__qualname__}")
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_a_record_class_behaves_as_its_dataclass_twin(cls, data):
    """repr, ==, hash, ordering, the refusal to set or delete a field of a
    frozen record, fields() and replace() agree with the stdlib dataclass
    built with the same fields and flags, on values drawn from the program's
    own and from plain ones."""
    twin = _twin(cls)
    assert [(f.name, f.init, f.repr, f.compare, f.hash) for f in fields(cls)] == \
        [(f.name, f.init, f.repr, f.compare, f.hash) for f in fields(twin)]
    assert cls.__match_args__ == twin.__match_args__
    made = []
    for _ in range(2):
        kw = data.draw(_arguments(cls))
        got, want = _outcome(lambda: cls(**kw)), _outcome(lambda: twin(**kw))
        assert got[0] == want[0]
        if got[0] == "raises":
            assert got[1:] == want[1:]
            return
        made.append((got[1], want[1], kw))
    (a, ta, kw_a), (b, tb, kw_b) = made
    assert _shown(a) == _shown(ta) and _shown(b) == _shown(tb)
    assert (a == b) == (ta == tb) and (a != b) == (ta != tb)
    assert (a == cls(**kw_a)) == (ta == twin(**kw_a)) and a != ta and not a == "a"
    assert _outcome(lambda: hash(a)) == _outcome(lambda: hash(ta))
    for op in _ORDER:
        assert _outcome(lambda: op(a, b)) == _outcome(lambda: op(ta, tb))
    changes = {k: v for k, v in kw_b.items() if data.draw(st.booleans())}
    assert _outcome(lambda: _shown(replace(a, **changes))) == \
        _outcome(lambda: _shown(replace(ta, **changes)))
    # last, as on a mutable record they succeed
    for name in [f.name for f in fields(cls)] + ["extra"]:
        assert _outcome(lambda: setattr(a, name, 0)) == _outcome(lambda: setattr(ta, name, 0))
        assert _outcome(lambda: delattr(b, name)) == _outcome(lambda: delattr(tb, name))


# -- start-up ---------------------------------------------------------------

_PROBE = """
import json, sys
execs = []

def hook(event, args):
    if event == "exec":
        code = sys._getframe(1).f_code
        execs.append((code.co_filename, code.co_name))

sys.addaudithook(hook)
import evtforge.cli
records = sum("__dataclass_fields__" in c.__dict__ for name, m in list(sys.modules.items())
              if name.startswith("evtforge.") for c in vars(m).values()
              if isinstance(c, type) and c.__module__ == name)
print(json.dumps({"execs": execs, "records": records}))
"""


def test_importing_the_cli_builds_each_record_class_with_one_exec():
    """No method of a record class comes from dataclasses' own generator,
    _create_fn, and frozen runs at most one exec per record class it builds.
    (From Python 3.13 dataclasses runs one exec of its own per class, which
    adds no method when init, repr and eq are off.)"""
    env = {**os.environ, "PYTHONPATH": str(Path(evtforge.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True, text=True,
                         env=env, check=True)
    got = json.loads(out.stdout)
    assert not [e for e in got["execs"] if e[1] == "_create_fn"]
    built = [e for e in got["execs"] if e == [evtforge.fopeq.__file__, "frozen"]]
    assert got["records"] >= 69
    assert 0 < len(built) <= got["records"]
