"""In-memory spans and counters around evtforge's module boundaries.

The tracer wraps public functions and methods from the outside: it replaces
every binding of the original object in the loaded ``evtforge`` modules, so
``specs.maximal_model`` and ``institution.compile_formula`` (names bound by
``from .x import y``) go through the wrapper too.  Private helpers such as
``_filter_pool``, ``_hide_image`` and ``_check_inclusion`` are not wrapped;
their time is read as their public caller's self time.

A span is (job id, span id, parent span id, name, start, end).  A function
that re-enters itself (``sig_of``, ``Evaluator.flatten``,
``Evaluator.model_class``) counts every call but opens a span only for the
outermost one; the inner calls' work is self time of the innermost open
span.  Spans stay in memory and are written out once, after the traced run.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

# (module, attribute path, metric base name, what to record)
#   span: calls + a span per outermost call; count: calls only;
#   construct: validations of a dataclass (its __post_init__)
TARGETS = [
    ("evtforge.eventb", "parse_text", "eventb.parse_text", "span"),
    ("evtforge.rodin", "parse_rodin_paths", "rodin.parse_rodin_paths", "span"),
    ("evtforge.translate", "translate", "translate.translate", "span"),
    ("evtforge.sugar", "print_library", "sugar.print_library", "span"),
    ("evtforge.sugar", "parse_document", "sugar.parse_document", "span"),
    ("evtforge.sugar", "parse_signature_document", "sugar.parse_signature_document", "span"),
    ("evtforge.specs", "sig_of", "specs.sig_of", "span"),
    ("evtforge.specs", "Evaluator.model_class", "specs.Evaluator.model_class", "span"),
    ("evtforge.specs", "Evaluator.flatten", "specs.Evaluator.flatten", "span"),
    ("evtforge.fopeq", "enumerate_algebras", "fopeq.enumerate_algebras", "span"),
    ("evtforge.fopeq", "compile_formula", "fopeq.compile_formula", "span"),
    ("evtforge.institution", "maximal_model", "institution.maximal_model", "span"),
    ("evtforge.institution", "evt_pushout", "institution.evt_pushout", "span"),
    ("evtforge.institution", "amalgamate", "institution.amalgamate", "span"),
    ("evtforge.institution", "model_reduct", "institution.model_reduct", "span"),
    ("evtforge.institution", "evt_compose", "institution.evt_compose", "count"),
    ("evtforge.institution", "reduce_state", "institution.reduce_state", "count"),
    ("evtforge.institution", "EvtSignature.__post_init__", "institution.EvtSignature",
     "construct"),
    ("evtforge.institution", "EvtMorphism.__post_init__", "institution.EvtMorphism",
     "construct"),
    ("evtforge.refinement", "check_refinement_morphism",
     "refinement.check_refinement_morphism", "span"),
]


class Tracer:
    """Spans and counters for jobs run while ``active`` is set."""

    def __init__(self):
        self.active = False
        self.job = None
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._open: set[str] = set()
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self._seen_reps: set[int] = set()
        self._keep: list = []

    # -- spans --------------------------------------------------------------

    def _enter(self, name: str) -> tuple[int, int, float]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        self._open.add(name)
        return sid, parent, perf_counter()

    def _exit(self, name: str, sid: int, parent: int, t0: float) -> None:
        t1 = perf_counter()
        self._stack.pop()
        self._open.discard(name)
        self.spans.append((self.job, sid, parent, name, t0, t1))

    def run_job(self, job_id: str, fn, *args, **kwargs):
        """Run fn as one traced job under a root span named 'job'."""
        self.job = job_id
        self._seen_reps.clear()
        self._keep.clear()
        self.active = True
        sid, parent, t0 = self._enter("job")
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit("job", sid, parent, t0)
            self.active = False

    # -- wrapping -----------------------------------------------------------

    def _span_wrapper(self, name: str, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.counts[name + ".calls"] += 1
            if name in tracer._open:
                result = fn(*args, **kwargs)
            else:
                sid, parent, t0 = tracer._enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._exit(name, sid, parent, t0)
            if on_result is not None:
                on_result(result, args)
            return result

        return wrapper

    def _count_wrapper(self, key: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _on_result(self, name: str):
        counts = self.counts
        if name == "institution.maximal_model":
            def hook(result, args):
                l_max, r_max = result
                counts[name + ".init_kept"] += len(l_max)
                counts[name + ".pairs_kept"] += sum(len(p) for p in r_max.values())
            return hook
        if name == "fopeq.enumerate_algebras":
            def hook(result, args):
                counts[name + ".admitted"] += len(result)
            return hook
        if name == "specs.Evaluator.model_class":
            def hook(result, args):
                # model_class memoises; count each distinct class once per job
                if id(result) not in self._seen_reps:
                    self._seen_reps.add(id(result))
                    self._keep.append(result)
                    counts["specs.model_class.algebras_kept"] += len(result.slices)
            return hook
        if name == "refinement.check_refinement_morphism":
            def hook(result, args):
                counts["refinement.pairs_checked"] += int(result.stats.get("pairs", 0))
            return hook
        if name == "eventb.parse_text":
            def hook(result, args):
                counts[name + ".chars"] += len(args[0])
            return hook
        return None

    def _rebind(self, original, replacement) -> None:
        """Point every evtforge binding of original at replacement."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "evtforge" or mod_name.startswith("evtforge.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        for mod_name, path, name, mode in TARGETS:
            try:
                owner = importlib.import_module(mod_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            if mode == "span":
                wrapped = self._span_wrapper(name, original, self._on_result(name))
            elif mode == "count":
                wrapped = self._count_wrapper(name + ".calls", original)
            else:
                wrapped = self._count_wrapper(name + ".constructed", original)
            if outer:  # a method or dataclass hook: patch the class
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapped)
            else:
                self._rebind(original, wrapped)
        self._wrap_cli()

    def _wrap_cli(self) -> None:
        try:
            from evtforge.cli import main
        except ImportError:
            self.absent.append("cli")
            return
        for cmd_name, cmd in main.commands.items():
            name = f"cli.{cmd_name}"
            self._patches.append((cmd, "callback", cmd.callback))
            cmd.callback = self._span_wrapper(name, cmd.callback)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summaries ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time covered by children."""
        dur = {sid: t1 - t0 for _, sid, _, _, t0, t1 in self.spans}
        child = Counter()
        for _, sid, parent, _, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: Counter = Counter()
        for _, sid, _, name, _, _ in self.spans:
            out[name] += dur[sid] - child[sid]
        return dict(out)

    def totals(self) -> dict[str, float]:
        out: Counter = Counter()
        for _, _, _, name, t0, t1 in self.spans:
            out[name] += t1 - t0
        return dict(out)

    def covered(self, names: set[str]) -> float:
        """Time inside spans named in names, nested ones counted once."""
        by_id = {sid: (parent, name) for _, sid, parent, name, _, _ in self.spans}
        total = 0.0
        for _, sid, parent, name, t0, t1 in self.spans:
            if name not in names:
                continue
            p = parent
            while p >= 0 and by_id[p][1] not in names:
                p = by_id[p][0]
            if p < 0:
                total += t1 - t0
        return total

    def span_records(self) -> list[dict]:
        return [{"job": j, "id": sid, "parent": p, "name": n, "start": t0, "end": t1}
                for j, sid, p, n, t0, t1 in self.spans]
