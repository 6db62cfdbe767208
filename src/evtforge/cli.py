"""Command-line entry point: translate, models, refine, pushout.

Exit codes: 0 success / refinement holds, 1 parse error (input that is not
UTF-8 included), 2 semantic or enumeration error or an unreadable input
file, 3 refinement fails.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import field
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Sequence

import click

from .errors import EvtForgeError, ParseError, SpecError, read_source
from .eventb import parse_text
from .fopeq import Bounds, frozen
from .institution import INIT, _Memo
from .refinement import (
    RefinementVerdict, check_refinement_morphism, resolve_refinement,
)
from .specs import Evaluator
from .sugar import (
    RefinementText, parse_document, parse_signature_document, print_library,
    print_signature,
)
from .translate import TranslationOutput, translate


@frozen(mutable=True)
class RunConfig:
    inputs: tuple[str, ...] = ()
    input_format: str = "auto"  # text | rodin | auto (by extension)
    bound: int = 3
    carriers: tuple[tuple[str, int], ...] = ()
    pins: tuple[tuple[str, object], ...] = ()
    ceiling: int = 2 ** 20
    elide_identity: bool = True

    def bounds(self) -> Bounds:
        return Bounds(int_bound=self.bound, carrier_sizes=self.carriers,
                      pins=self.pins, pair_ceiling=self.ceiling)


@frozen(mutable=True)
class LoadedWorkspace:
    output: TranslationOutput
    refinements: list[RefinementText] = field(default_factory=list)


@contextmanager
def _located(path: str):
    """Put the path of the input being parsed in front of a parse error."""
    try:
        yield
    except ParseError as e:
        raise ParseError(f"{path}:{e}" if e.line is not None else f"{path}: {e}") from e


def load_workspace(cfg: RunConfig) -> LoadedWorkspace:
    """Load the input files in order: machine/context sources translate into
    the library; sugared spec files add specs and refinement declarations.
    A --carrier sort or --pin name that no loaded spec declares, which would
    bound nothing, is a SpecError."""
    out = TranslationOutput()
    ws = LoadedWorkspace(out)
    rodin_batch: list[str] = []

    def flush_rodin():
        nonlocal out
        if rodin_batch:
            from .rodin import parse_rodin_paths  # xml is imported for Rodin input only
            out = translate(parse_rodin_paths(rodin_batch), out)
            ws.output = out
            rodin_batch.clear()

    for raw in cfg.inputs:
        path = Path(raw)
        suffix = path.suffix.lower()
        fmt = cfg.input_format
        if fmt == "auto":
            fmt = ("rodin" if suffix in (".bum", ".buc") else
                   "sugar" if suffix == ".evt" else "text")
        if fmt == "rodin":
            rodin_batch.append(raw)
            continue
        flush_rodin()
        text = read_source(raw)
        if fmt == "sugar":
            with _located(raw):
                specs, refs = parse_document(text, out.library)
            out.order.extend(("spec", n) for n, _ in specs)
            ws.refinements.extend(refs)
        else:
            with _located(raw):
                spec = parse_text(text)
            out = translate(spec, out)
            ws.output = out
    flush_rodin()
    ws.output = out
    sigs = out.library.fopeq_signatures()
    sorts = {s for sig in sigs for s in sig.sorts}
    ops = {o.name for sig in sigs for o in sig.ops}
    for flag, names, declared, what in (("--carrier", cfg.carriers, sorts, "a sort"),
                                        ("--pin", cfg.pins, ops, "an operation")):
        for name, _ in names:
            if name not in declared:
                raise SpecError(f"{flag} {name}: no loaded specification declares {what} {name}")
    return ws


def _pin_value(text: str):
    if text in ("TRUE", "true"):
        return True
    if text in ("FALSE", "false"):
        return False
    try:
        return int(text)
    except ValueError:
        return text


def _parse_kv(pairs: Sequence[str], value_parser) -> tuple:
    out = []
    for p in pairs:
        if "=" not in p:
            raise click.BadParameter(f"expected NAME=VALUE, got {p!r}")
        k, v = p.split("=", 1)
        out.append((k, value_parser(v)))
    return tuple(out)


def _echo(text: str, err: bool = False, nl: bool = True) -> None:
    """Write text, and a newline unless nl is false, to stdout or stderr,
    then flush.  The stream is looked up on every call, as click caches each
    sys.stdout that click.echo without file= meets, so output a test runner
    captured would never be freed.  Unlike click.echo, this neither copies
    the whole text to append the newline nor scans it for ANSI escapes to
    strip: evtforge prints no styling, and identifiers cannot hold ESC."""
    stream = click.get_text_stream("stderr" if err else "stdout")
    stream.write(text)
    if nl:
        stream.write("\n")
    stream.flush()


def _fail(e: Exception) -> None:
    _echo(f"error: {e}", err=True)
    if isinstance(e, ParseError):
        sys.exit(1)
    sys.exit(2)


def bound_options(fn):
    fn = click.option("--bound", type=int, envvar="EVTFORGE_BOUND", default=3,
                      show_default=True, help="integer carrier bound B")(fn)
    fn = click.option("--carrier", "carriers", multiple=True, metavar="SORT=N",
                      help="carrier size for an enumerated sort")(fn)
    fn = click.option("--pin", "pins", multiple=True, metavar="NAME=V",
                      help="fix a constant's interpretation")(fn)
    fn = click.option("--ceiling", type=int, default=2 ** 20, show_default=True,
                      help="maximum state pairs enumerated per event")(fn)
    fn = click.option("--format", "input_format",
                      type=click.Choice(["auto", "text", "rodin"]),
                      default="auto", show_default=True)(fn)
    return fn


def _config(files, input_format, bound=3, carriers=(), pins=(), ceiling=2 ** 20,
            **kw) -> RunConfig:
    return RunConfig(
        inputs=tuple(files),
        input_format=input_format,
        bound=bound,
        carriers=_parse_kv(carriers, int),
        pins=_parse_kv(pins, _pin_value),
        ceiling=ceiling,
        **kw,
    )


@click.group()
def main():
    """Machines and contexts as structured specifications with bounded
    model-class semantics."""


@main.command("translate")
@click.argument("files", nargs=-1, required=True)
@click.option("--format", "input_format",
              type=click.Choice(["auto", "text", "rodin"]), default="auto")
@click.option("--no-elide", is_flag=True,
              help="print same-name refinement imports explicitly")
@click.option("--out", "out_path", type=click.Path(), default=None)
def cmd_translate(files, input_format, no_elide, out_path):
    """Translate machines/contexts into the sugared spec notation."""
    cfg = _config(files, input_format, elide_identity=not no_elide)
    try:
        ws = load_workspace(cfg)
        if not ws.output.order:
            raise ParseError("no machines or contexts in the inputs")
        text = print_library(ws.output.library, ws.output.order,
                             elide_identity=cfg.elide_identity)
    except EvtForgeError as e:
        _fail(e)
        return
    for d in ws.output.diagnostics:
        _echo(f"note: {d}", err=True)
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        _echo(text, nl=False)


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "TRUE" if v else "FALSE"
    return str(v)


def _format_state(s) -> str:
    return "(" + ", ".join(f"{k}={_format_value(v)}" for k, v in s) + ")"


class States(list):
    """A JSON array of the states with these codes under `coding`, in
    order: each prints as an object."""

    def __init__(self, codes, coding):
        super().__init__(codes)
        self.coding = coding


class StatePairs(States):
    """A JSON array of the ``(before, after)`` state pairs with these pair
    codes under `coding`, in order: each prints as a two-item array of
    objects."""


def dump_json(payload) -> str:
    """The text ``json.dumps`` writes for `payload` with a two-space indent
    and ``default=str``, byte for byte, for payloads of dicts with string
    keys, lists, tuples, strings, ints, bools, None and values that JSON
    cannot encode, which print as their quoted ``str``.

    A state in a `States` or `StatePairs` array is rendered once per depth
    and reused wherever an equal state recurs; the memo lives for this call
    only."""
    out: list[str] = []
    _put(payload, 0, out, {})
    return "".join(out)


def _put_members(items, level: int, out: list[str], memos: dict) -> None:
    """Append the object of the ``(key, value)`` `items` at indent `level`."""
    if not items:
        out.append("{}")
        return
    inner = "\n" + "  " * (level + 1)
    sep, comma = "{" + inner, "," + inner
    for k, v in items:
        out.append(sep + _quote(k) + ": ")
        sep = comma
        _put(v, level + 1, out, memos)
    out.append("\n" + "  " * level + "}")


def _state_object(level: int, state) -> str:
    """The JSON object text of a state at indent level."""
    out: list[str] = []
    # a state's values hold no state arrays, so they need no memo
    _put_members(state, level, out, {})
    return "".join(out)


def _texts(memos: dict, coding, render, *args) -> _Memo:
    """The texts render(*args, state) of the states under coding, by state
    code, kept in memos under (render, args, coding) so that each is
    rendered once."""
    key = (render, args, coding)
    text = memos.get(key)
    if text is None:
        text = memos[key] = _Memo(lambda code: render(*args, coding.decode(code)))
    return text


def _put(o, level: int, out: list[str], memos: dict) -> None:
    """Append the pieces of `o`'s text at indent `level` to `out`; `memos`
    holds the state texts of each depth and coding (_texts)."""
    if isinstance(o, str):
        out.append(_quote(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = "\n" + "  " * (level + 1)
        if isinstance(o, StatePairs):
            text = _texts(memos, o.coding, _state_object, level + 2)
            inner2 = "\n" + "  " * (level + 2)
            lead, comma = inner + "[" + inner2, "," + inner + "[" + inner2
            mid, tail = "," + inner2, inner + "]"
            n = o.coding.size
            out.append("[")
            for p in o:
                out += (lead, text[p // n], mid, text[p % n], tail)
                lead = comma
        elif isinstance(o, States):
            text = _texts(memos, o.coding, _state_object, level + 1)
            out += ("[", inner, ("," + inner).join([text[s] for s in o]))
        else:
            sep, comma = "[" + inner, "," + inner
            for x in o:
                out.append(sep)
                sep = comma
                _put(x, level + 1, out, memos)
        out.append("\n" + "  " * level + "]")
    elif isinstance(o, dict):
        _put_members(o.items(), level, out, memos)
    else:
        out.append(_quote(str(o)))


def models_payload(name: str, bound: int, slices, list_pairs: bool) -> dict:
    """The ``models --json`` report of per-algebra maximal models."""
    payload = {"spec": name, "bound": bound, "algebras": []}
    for sl in slices:
        entry = {
            "algebra": sl.algebra.describe(),
            "initial_states": len(sl.init_codes),
            "events": {e: len(p) for e, p in sl.rel_codes},
        }
        if list_pairs:
            entry["init"] = States(sorted(sl.init_codes), sl.coding)
            entry["relations"] = {e: StatePairs(sorted(p), sl.coding)
                                  for e, p in sl.rel_codes}
        payload["algebras"].append(entry)
    return payload


@main.command("models")
@click.argument("name")
@click.argument("files", nargs=-1, required=True)
@bound_options
@click.option("--event", "event_name", default=None,
              help="restrict the report to one event")
@click.option("--list", "list_pairs", is_flag=True,
              help="list initial states / relation pairs")
@click.option("--json", "as_json", is_flag=True)
def cmd_models(name, files, bound, carriers, pins, ceiling, input_format,
               event_name, list_pairs, as_json):
    """Report admissible algebras and maximal relations of a specification."""
    cfg = _config(files, input_format, bound, carriers, pins, ceiling)
    try:
        ws = load_workspace(cfg)
        lib = ws.output.library
        spec = lib.lookup(name)
        evaluator = Evaluator(lib, cfg.bounds())
        rep = evaluator.model_class(spec)
        if event_name is not None and event_name not in rep.signature.event_map:
            raise SpecError(f"{name} has no event named {event_name}")
    except EvtForgeError as e:
        _fail(e)
        return

    if as_json:
        _echo(dump_json(models_payload(name, bound, rep.slices, list_pairs)))
        return

    texts: dict = {}  # each distinct state formatted once per coding
    lines = [f"spec {name}  [bound {bound}"
             + (f", pins {', '.join(f'{k}={v}' for k, v in cfg.pins)}" if cfg.pins else "")
             + "]"]
    if not rep.slices:
        lines.append("  no admissible algebras (empty model class)")
    for sl in rep.slices:
        lines.append(f"algebra {sl.algebra.describe()}")
        text = _texts(texts, sl.coding, _format_state)
        n = sl.coding.size
        if event_name is None or event_name == INIT:
            lines.append(f"  Init: {len(sl.init_codes)} initial state(s)")
            if list_pairs:
                lines.extend(f"    {text[s]}" for s in sorted(sl.init_codes))
        for e, pairs in sl.rel_codes:
            if event_name is not None and e != event_name:
                continue
            lines.append(f"  {e}: {len(pairs)} pair(s)")
            if list_pairs:
                lines.extend(f"    {text[p // n]} -> {text[p % n]}" for p in sorted(pairs))
    _echo("\n".join(lines))


@main.command("refine")
@click.argument("files", nargs=-1, required=True)
@bound_options
@click.option("--allow-status-drop", is_flag=True,
              help="accept event maps that lower a status (with a warning)")
@click.option("--json", "as_json", is_flag=True)
def cmd_refine(files, bound, carriers, pins, ceiling, input_format,
               allow_status_drop, as_json):
    """Check every refinement declaration found in the input files."""
    cfg = _config(files, input_format, bound, carriers, pins, ceiling)
    try:
        ws = load_workspace(cfg)
        if not ws.refinements:
            raise SpecError("no refinement declarations in the inputs")
        lib = ws.output.library
        evaluator = Evaluator(lib, cfg.bounds())
        verdicts: list[RefinementVerdict] = []
        warnings: list[str] = []
        for rt in ws.refinements:
            decl = resolve_refinement(rt, lib, allow_status_drop, warnings)
            verdicts.append(check_refinement_morphism(decl, evaluator))
    except EvtForgeError as e:
        _fail(e)
        return

    for w in warnings:
        _echo(f"warning: {w}", err=True)
    if as_json:
        _echo(dump_json([v.as_dict() for v in verdicts]))
    else:
        for v in verdicts:
            if v.holds:
                _echo(f"{v.name}: holds "
                      f"({v.stats['algebras']} algebra(s), "
                      f"{v.stats['pairs']} pair(s) checked)")
            else:
                c = v.counterexample
                if c.event is None:
                    _echo(f"{v.name}: FAILS — algebra {c.algebra} is not "
                          "admissible on the abstract side")
                elif c.event == INIT:
                    _echo(f"{v.name}: FAILS — algebra {c.algebra}, initial "
                          f"state {_format_state(c.after)} not abstract-initial")
                else:
                    _echo(f"{v.name}: FAILS — algebra {c.algebra}, event "
                          f"{c.event}: {_format_state(c.before)} -> "
                          f"{_format_state(c.after)} is outside the "
                          "abstract relation")
    sys.exit(0 if all(v.holds for v in verdicts) else 3)


@main.command("pushout")
@click.argument("file1")
@click.argument("file2")
def cmd_pushout(file1, file2):
    """Pushout of two signature morphisms with a common source."""
    from .institution import evt_pushout

    try:
        text = read_source(file1)
        with _located(file1):
            _, ms1 = parse_signature_document(text)
        text = read_source(file2)
        with _located(file2):
            _, ms2 = parse_signature_document(text)
        if not ms1 or not ms2:
            raise SpecError("each input file must define a morphism")
        n1, m1 = ms1[-1]
        n2, m2 = ms2[-1]
        merged, inj1, inj2 = evt_pushout(m1, m2)
    except EvtForgeError as e:
        _fail(e)
        return

    _echo("pushout signature:")
    _echo(print_signature(merged))

    def show(name, inj):
        bits = [f"{a} ↦ {b}" for a, b in inj.event_map if a != INIT]
        bits += [f"{a} ↦ {b}" for a, b in inj.var_map]
        bits += [f"{a} ↦ {b}" for a, b in inj.fopeq.sort_map]
        bits += [f"{a} ↦ {b}" for a, b in inj.fopeq.op_map]
        _echo(f"injection {name}: {{{', '.join(bits)}}}")

    show(n1, inj1)
    show(n2, inj2)


if __name__ == "__main__":
    main()
