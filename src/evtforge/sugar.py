"""The sugared text notation for structured specifications.

spec blocks hold an import chain (names, `and`, `with`, `hide via`),
an optional `then` enrichment, declarations, `.`-prefixed formula lines, a
variant line and an events block.  Morphisms are written as explicit maplet
literals; in event-bearing specs `ops` declares state variables, in plain
first-order specs it declares constants.  Refinement declarations share the
same files.

The printer and parser round-trip: print . parse . print == print.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import ParseError, SpecError
from . import fopeq as F
from .fopeq import FopeqSignature, frozen, signature_image
from .institution import (
    INIT, EvtMorphism, EvtSignature, Status, evt_morphism, merged_signature, status_named,
)
from .mathlang import (
    ElabContext, ExprParser, TokenStream, TypeExpr, elab_formula,
    parse_type_expr, tokenize, type_sort, unparse_formula, unparse_term,
    unparse_type,
)
from .specs import (
    Embed, Enrich, EventClauses, Flat, Hide, Named, Presentation, Spec,
    SpecLibrary, Sum, Translate, elab_at, elaborate_event,
    elaborate_variant, extend_fopeq_signature, extend_signature, is_fopeq_spec,
    sig_of, sum_all,
)

INIT_PRINT_NAME = "Initialisation"
_STATUS_NAMES = {s.name for s in Status}
_BLOCK_KEYWORDS = {"sort", "sorts", "ops", "variant", "events", "then", "end",
                   "and", "with", "hide", "via", "spec", "refinement"}
_STOP_WORDS = _BLOCK_KEYWORDS | {"any", "when", "thenAct"}


# ---------------------------------------------------------------------------
# maplets (shared by morphism literals and refinement declarations)


@frozen
class Maplet:
    src: str
    dst: str
    src_status: Optional[Status] = None
    dst_status: Optional[Status] = None


@frozen
class RefinementText:
    """A parsed refinement declaration, before signature resolution."""

    name: str
    abstract: str
    concrete: str
    maplets: tuple[Maplet, ...]


# ---------------------------------------------------------------------------
# printing


def print_library(lib: SpecLibrary, order: Sequence[tuple[str, str]] = None,
                  elide_identity: bool = True) -> str:
    names = [n for _, n in order] if order else list(lib.names())
    blocks = [print_spec(n, lib.lookup(n), lib, elide_identity) for n in names]
    return "\n".join(blocks)


def print_spec(name: str, spec: Spec, lib: SpecLibrary,
               elide_identity: bool = True) -> str:
    lines = [f"spec {name} ="]
    fopeq_flavour = is_fopeq_spec(spec, lib)
    if isinstance(spec, Presentation):
        lines.extend(_print_flat(spec.flat, "  ", fopeq_flavour))
    else:
        imports, flat = _split_enrich(spec)
        rendered = [_render_import(leaf, lib) for leaf in imports]
        if elide_identity:
            rendered = [r for leaf, r in zip(imports, rendered)
                        if not _elidable(leaf, rendered)]
        simple = [r for r in rendered if "\n" not in r and not r.startswith("(")]
        complex_ = [r for r in rendered if r not in simple]
        chain: list[str] = []
        if simple:
            chain.append("  " + " and ".join(simple))
        for c in complex_:
            chain.append("  " + c)
        for i in range(len(chain) - 1):
            chain[i] += " and"
        lines.extend(chain)
        if flat is not None:
            lines.append("  then")
            lines.extend(_print_flat(flat, "    ", fopeq_flavour))
    lines.append("end")
    return "\n".join(lines) + "\n"


def _split_enrich(spec: Spec) -> tuple[list[Spec], Optional[Flat]]:
    flat = None
    if isinstance(spec, Enrich):
        flat = spec.flat
        spec = spec.child
    return _summands(spec), flat


def _summands(spec: Spec) -> list[Spec]:
    """The parts of a sum, each part that is a sum replaced by its own."""
    if isinstance(spec, Sum):
        return [leaf for p in spec.parts for leaf in _summands(p)]
    return [spec]


def _render_import(leaf: Spec, lib: SpecLibrary) -> str:
    if isinstance(leaf, Named):
        return leaf.name
    if isinstance(leaf, Embed):
        # the reader embeds a first-order part of an event-style sum again
        return _render_import(leaf.child, lib)
    if isinstance(leaf, Presentation) and leaf.flat.abstract_of:
        return leaf.flat.abstract_of
    if isinstance(leaf, Translate):
        inner = _render_import(leaf.child, lib)
        return f"{inner} with {_render_morphism(leaf.morphism, hide=False)}"
    if isinstance(leaf, Hide):
        inner = _render_import(leaf.child, lib)
        return f"({inner} hide via {_render_morphism(leaf.morphism, hide=True)})"
    if isinstance(leaf, Sum):
        return "(" + " and ".join(_render_import(p, lib) for p in leaf.parts) + ")"
    raise SpecError(f"cannot render import {leaf!r}")


def _elidable(leaf: Spec, rendered: Sequence[str]) -> bool:
    """Whether leaf is an identity-renamed hide slice of a named spec that
    another import of the chain prints as, so its sentences merge implicitly
    (as a refining machine's slices merge into its abstract import).  Only a
    top-level chain elides, never the inside of a term."""
    return (isinstance(leaf, Translate) and isinstance(leaf.child, Hide)
            and isinstance(leaf.child.child, Named)
            and leaf.child.child.name in rendered
            and _is_identity_rename(leaf.morphism))


def _is_identity_rename(m: EvtMorphism) -> bool:
    return (all(a == b for a, b in m.event_map)
            and all(a == b for a, b in m.var_map)
            and all(a == b for a, b in m.fopeq.sort_map)
            and all(a == b for a, b in m.fopeq.op_map))


def _render_morphism(m: EvtMorphism, hide: bool) -> str:
    items = []
    src_status = m.source.event_map
    dst_status = m.target.event_map
    all_vars_kept = (set(m.var_dict.values()) == set(m.target.var_names)
                     and all(a == b for a, b in m.var_map))
    for a, b in m.event_map:
        if a == INIT:
            continue
        if not hide and src_status[a] != dst_status[b]:
            items.append(f"⟨{a}, {src_status[a]}⟩ ↦ ⟨{b}, {dst_status[b]}⟩")
        else:
            items.append(f"{a} ↦ {b}")
    if not (hide and all_vars_kept):
        for a, b in m.var_map:
            if hide or a != b:
                items.append(f"{a} ↦ {b}")
    for a, b in m.fopeq.sort_map:
        if a != b:
            items.append(f"{a} ↦ {b}")
    for a, b in m.fopeq.op_map:
        if a != b:
            items.append(f"{a} ↦ {b}")
    return "{" + ", ".join(items) + "}"


def _print_flat(flat: Flat, indent: str, fopeq_flavour: bool) -> list[str]:
    lines: list[str] = []
    if flat.sorts:
        lines.append(f"{indent}sorts {', '.join(flat.sorts)}")
    decls = flat.constants if fopeq_flavour else flat.variables
    if decls:
        first = True
        for name, te in decls:
            head = f"{indent}ops " if first else f"{indent}    "
            lines.append(f"{head}{name} : {unparse_type(te)}")
            first = False
    for f in (flat.axioms if fopeq_flavour else flat.invariants):
        lines.append(f"{indent}. {unparse_formula(f)}")
    if flat.variant is not None:
        lines.append(f"{indent}variant {unparse_term(flat.variant)}")
    if flat.events:
        lines.append(f"{indent}events")
        for ev in flat.events:
            lines.extend(_print_event(ev, indent + "  "))
    return lines


def _print_event(ev: EventClauses, indent: str) -> list[str]:
    name = INIT_PRINT_NAME if ev.name == INIT else ev.name
    lines = [f"{indent}{name} {ev.status}"]
    inner = indent + "  "
    if ev.params:
        decls = ", ".join(f"{n} : {s}" for n, s in ev.params)
        lines.append(f"{inner}any {decls}")
    lines.extend(_clause_lines(inner, "when", [unparse_formula(g) for g in ev.guards]))
    lines.extend(_clause_lines(inner, "with", [unparse_formula(w) for w in ev.witnesses]))
    acts = []
    for a in ev.actions:
        if a.kind == ":=":
            acts.append(f"{a.var} := {unparse_term(a.term)}")
        else:
            acts.append(f"{a.var} :| {unparse_formula(a.pred)}")
    lines.extend(_clause_lines(inner, "thenAct", acts))
    return lines


def _clause_lines(indent: str, kw: str, items: list[str]) -> list[str]:
    if not items:
        return []
    pad = " " * (len(kw) + 1)
    out = [f"{indent}{kw} {items[0]}"]
    for item in items[1:]:
        out.append(f"{indent}{pad}{item}")
    return out


# ---------------------------------------------------------------------------
# parsing


@frozen(mutable=True)
class _RawEvent:
    name: str
    written: str  # the name as the source spells it (Initialisation for Init)
    status: Status
    params: list[tuple[str, TypeExpr]]
    guards: list
    witnesses: list
    actions: list  # (var, kind, surface)


@frozen(mutable=True)
class _RawBlock:
    sorts: list[str]
    decls: list[tuple[str, TypeExpr]]
    formulas: list
    variant: Optional[object]
    events: list[_RawEvent]

    def has_content(self) -> bool:
        return bool(self.sorts or self.decls or self.formulas
                    or self.variant is not None or self.events)


def parse_document(text: str, lib: SpecLibrary
                   ) -> tuple[list[tuple[str, Spec]], list[RefinementText]]:
    """Parse spec and refinement blocks; specs resolve against (and are added
    to) the library."""
    ts = TokenStream(tokenize(text))
    specs: list[tuple[str, Spec]] = []
    refinements: list[RefinementText] = []
    while True:
        t = ts.peek()
        if t.kind == "EOF":
            break
        if t.kind == "IDENT" and t.text == "spec":
            name, spec = _parse_spec_block(ts, lib)
            lib.define(name, spec)
            specs.append((name, spec))
        elif t.kind == "IDENT" and t.text == "refinement":
            refinements.append(_parse_refinement_block(ts))
        else:
            raise ParseError(
                f"expected 'spec' or 'refinement', found {t.text!r}", t.line, t.col)
    return specs, refinements


def _parse_spec_block(ts: TokenStream, lib: SpecLibrary) -> tuple[str, Spec]:
    ts.expect_word("spec")
    name = ts.expect_ident().text
    ts.expect_sym("=")
    t = ts.peek()
    imports: list[Spec] = []
    if t.kind == "IDENT" and t.text not in _BLOCK_KEYWORDS or \
            (t.kind == "SYM" and t.text == "("):
        imports.append(_parse_term(ts, lib))
        while ts.accept_word("and"):
            imports.append(_parse_term(ts, lib))
    raw: Optional[_RawBlock] = None
    if imports:
        if ts.accept_word("then"):
            raw = _parse_raw_block(ts)
    else:
        raw = _parse_raw_block(ts)
    ts.expect_word("end")
    return name, _materialise(name, imports, raw, lib)


def _parse_term(ts: TokenStream, lib: SpecLibrary) -> Spec:
    t = ts.peek()
    if ts.accept_sym("("):
        parts = [_parse_term(ts, lib)]
        while ts.accept_word("and"):
            parts.append(_parse_term(ts, lib))
        if ts.accept_word("then"):
            # extension by a named spec: the union of both, glued by name
            parts.append(_parse_term(ts, lib))
        ts.expect_sym(")")
        spec = sum_all(_embed_mixed(parts, lib))
    else:
        ident = ts.expect_ident()
        spec = Named(ident.text)
        lib.lookup(ident.text)  # must already exist
    while True:
        if ts.at_word("with"):
            ts.next()
            maplets = _parse_maplets(ts)
            spec = _build_translate(spec, maplets, lib)
        elif ts.at_word("hide"):
            ts.next()
            ts.expect_word("via")
            maplets = _parse_maplets(ts)
            spec = _build_hide(spec, maplets, lib)
        else:
            return spec


def _embed_mixed(parts: list[Spec], lib: SpecLibrary) -> list[Spec]:
    """The parts of a sum, with the first-order ones embedded when another
    part is event-style."""
    fopeq = [is_fopeq_spec(p, lib) for p in parts]
    if all(fopeq):
        return parts
    return [Embed(p) if f else p for p, f in zip(parts, fopeq)]


def _parse_maplets(ts: TokenStream) -> list[Maplet]:
    ts.expect_sym("{")
    out = []
    if not ts.at_sym("}"):
        out.append(_parse_maplet(ts))
        while ts.accept_sym(","):
            out.append(_parse_maplet(ts))
    ts.expect_sym("}")
    return out


def _parse_maplet(ts: TokenStream) -> Maplet:
    src, src_st = _parse_map_item(ts)
    ts.expect_sym("|->")
    dst, dst_st = _parse_map_item(ts)
    return Maplet(src, dst, src_st, dst_st)


def _parse_map_item(ts: TokenStream) -> tuple[str, Optional[Status]]:
    if ts.accept_sym("<:") or ts.accept_sym("<"):
        name = ts.expect_ident().text
        ts.expect_sym(",")
        st = status_named(ts.expect_ident())
        if not (ts.accept_sym(":>") or ts.accept_sym(">")):
            ts.error("expected closing ⟩")
        return name, st
    return ts.expect_ident().text, None


def _parse_raw_block(ts: TokenStream) -> _RawBlock:
    raw = _RawBlock([], [], [], None, [])
    while True:
        t = ts.peek()
        if t.kind == "EOF" or (t.kind == "IDENT" and t.text == "end"):
            return raw
        if t.kind == "IDENT" and t.text in ("sort", "sorts"):
            ts.next()
            raw.sorts.append(ts.expect_ident().text)
            while ts.accept_sym(","):
                raw.sorts.append(ts.expect_ident().text)
        elif t.kind == "IDENT" and t.text == "ops":
            ts.next()
            while True:
                names = [ts.expect_ident().text]
                while ts.accept_sym(","):
                    names.append(ts.expect_ident().text)
                ts.expect_sym(":")
                te = parse_type_expr(ts)
                raw.decls.extend((n, te) for n in names)
                nxt = ts.peek()
                if not (nxt.kind == "IDENT" and nxt.text not in _BLOCK_KEYWORDS
                        and not _starts_event(ts)):
                    break
        elif t.kind == "SYM" and t.text == ".":
            ts.next()
            raw.formulas.append(ExprParser(ts, stop_at_newline=True).parse_formula_expr())
        elif t.kind == "IDENT" and t.text == "variant":
            ts.next()
            raw.variant = ExprParser(ts, stop_at_newline=True).parse_formula_expr()
        elif t.kind == "IDENT" and t.text == "events":
            ts.next()
            while _starts_event(ts):
                raw.events.append(_parse_raw_event(ts))
        else:
            ts.error(f"unexpected {t.text!r} in specification body")


def _starts_event(ts: TokenStream) -> bool:
    """Whether an event's name and status word come next.  A word after the
    name on the name's line is read as the status, so that an unknown one is
    an error at the word; a keyword there, or the word in, is not a status."""
    t0, t1 = ts.peek(), ts.peek(ahead=1)
    return (t0.kind == "IDENT" and not t0.primed and t0.text not in _BLOCK_KEYWORDS
            and t1.kind == "IDENT" and (t1.text in _STATUS_NAMES or (
                not t1.nl and t1.text not in _STOP_WORDS and t1.text != "in")))


def _parse_raw_event(ts: TokenStream) -> _RawEvent:
    written = ts.expect_ident().text
    status = status_named(ts.expect_ident())
    ev = _RawEvent(INIT if written == INIT_PRINT_NAME else written, written, status,
                   [], [], [], [])
    while True:
        t = ts.peek()
        if t.kind == "IDENT" and t.text == "any":
            ts.next()
            while True:
                pname = ts.expect_ident().text
                ts.expect_sym(":")
                ev.params.append((pname, parse_type_expr(ts)))
                if not ts.accept_sym(","):
                    break
        elif t.kind == "IDENT" and t.text == "when":
            ts.next()
            ev.guards.extend(_parse_formula_list(ts))
        elif t.kind == "IDENT" and t.text == "with":
            ts.next()
            ev.witnesses.extend(_parse_formula_list(ts))
        elif t.kind == "IDENT" and t.text == "thenAct":
            ts.next()
            while True:
                t0, t1 = ts.peek(), ts.peek(ahead=1)
                if not (t0.kind == "IDENT" and t1.kind == "SYM"
                        and t1.text in (":=", ":|") and not _starts_event(ts)):
                    break
                var = ts.expect_ident().text
                kind = ts.next().text
                rhs = ExprParser(ts, stop_at_newline=True).parse_formula_expr()
                ev.actions.append((var, kind, rhs))
        else:
            return ev


def _parse_formula_list(ts: TokenStream) -> list:
    out = []
    while True:
        t = ts.peek()
        if t.kind == "EOF" or (t.kind == "IDENT" and t.text in _STOP_WORDS):
            return out
        if _starts_event(ts):
            return out
        t1 = ts.peek(ahead=1)
        if t.kind == "IDENT" and t1.kind == "SYM" and t1.text in (":=", ":|"):
            return out
        if not (t.kind in ("IDENT", "NUMBER")
                or (t.kind == "SYM" and t.text in ("(", "!", "-", "#exists", "#forall"))):
            return out
        out.append(ExprParser(ts, stop_at_newline=True).parse_formula_expr())


def _parse_refinement_block(ts: TokenStream) -> RefinementText:
    ts.expect_word("refinement")
    name = ts.expect_ident().text
    ts.expect_sym(":")
    abstract = ts.expect_ident().text
    ts.expect_word("to")
    concrete = ts.expect_ident().text
    ts.expect_sym("=")
    maplets = []
    if not ts.at_word("end"):
        maplets.append(_parse_maplet(ts))
        while ts.accept_sym(","):
            if ts.at_word("end"):
                break
            maplets.append(_parse_maplet(ts))
    ts.expect_word("end")
    return RefinementText(name, abstract, concrete, tuple(maplets))


# ---------------------------------------------------------------------------
# materialisation: raw blocks + imports -> spec nodes


def _materialise(name: str, imports: list[Spec], raw: Optional[_RawBlock],
                 lib: SpecLibrary) -> Spec:
    evt_flavour = bool(raw and raw.events) or any(
        not is_fopeq_spec(i, lib) for i in imports)
    if not evt_flavour:
        return _materialise_fopeq(name, imports, raw, lib)

    leaves = [Embed(i) if is_fopeq_spec(i, lib) else i for i in imports]
    summed = sum_all(leaves) if leaves else None
    base = sig_of(summed, lib) if leaves else EvtSignature()

    if raw is None or not raw.has_content():
        return summed

    pre = Flat(sorts=tuple(raw.sorts), variables=tuple(raw.decls),
               events=tuple(EventClauses(ev.name, ev.status) for ev in raw.events))
    sig = extend_signature(base, pre)

    where = f"spec {name}"
    inv_ctx = ElabContext(sig.fopeq, vars=sig.vars, allow_primes=False)
    invariants = tuple(elab_at(where, elab_formula, f, inv_ctx) for f in raw.formulas)
    variant = None
    if raw.variant is not None:
        variant = elaborate_variant(where, sig, raw.variant)
    events = tuple(
        elaborate_event(f"{where}.{ev.written}", sig, ev.name, ev.status,
                        [(n, type_sort(te, sig.fopeq), te) for n, te in ev.params],
                        [(None, g) for g in ev.guards], [(None, w) for w in ev.witnesses],
                        [(None, *a) for a in ev.actions])
        for ev in raw.events)

    flat = Flat(sorts=tuple(raw.sorts), variables=tuple(raw.decls),
                invariants=invariants, variant=variant, events=events)
    if leaves:
        # sig_of's rule extends the sum's signature by the sorts, variables
        # and event statuses of flat, which are those of pre
        spec = Enrich(summed, flat)
        lib.remember(spec, sig)
        return spec
    return Presentation(sig, flat)


def _materialise_fopeq(name: str, imports: list[Spec], raw: Optional[_RawBlock],
                       lib: SpecLibrary) -> Spec:
    summed = sum_all(imports) if imports else None
    base = sig_of(summed, lib) if imports else FopeqSignature()
    if raw is None or not raw.has_content():
        if not imports:
            return Presentation(FopeqSignature(), Flat())
        return summed
    pre = Flat(sorts=tuple(raw.sorts), constants=tuple(raw.decls))
    fsig = extend_fopeq_signature(base, pre)
    axioms = tuple(elab_at(f"spec {name}", elab_formula, f, ElabContext(fsig))
                   for f in raw.formulas)
    flat = Flat(sorts=tuple(raw.sorts), constants=tuple(raw.decls), axioms=axioms)
    if imports:
        spec = Enrich(summed, flat)
        lib.remember(spec, fsig)
        return spec
    return Presentation(fsig, flat)


# ---------------------------------------------------------------------------
# standalone signature and morphism documents (pushout inputs)


def parse_signature_document(
    text: str,
) -> tuple[dict[str, EvtSignature], list[tuple[str, EvtMorphism]]]:
    """Parse `signature NAME = ... end` and `morphism N : A -> B = {...} end`
    blocks; morphisms resolve against the signatures seen so far."""
    ts = TokenStream(tokenize(text))
    sigs: dict[str, EvtSignature] = {}
    morphisms: list[tuple[str, EvtMorphism]] = []
    while True:
        t = ts.peek()
        if t.kind == "EOF":
            break
        if ts.accept_word("signature"):
            name = ts.expect_ident().text
            ts.expect_sym("=")
            sigs[name] = _parse_signature_body(ts)
            ts.expect_word("end")
        elif ts.accept_word("morphism"):
            name = ts.expect_ident().text
            ts.expect_sym(":")
            src = ts.expect_ident().text
            ts.expect_sym("->")
            dst = ts.expect_ident().text
            ts.expect_sym("=")
            maplets = _parse_maplets(ts)
            ts.expect_word("end")
            if src not in sigs or dst not in sigs:
                raise SpecError(f"morphism {name}: unknown signature {src} or {dst}")
            morphisms.append((name, build_morphism(sigs[src], sigs[dst], maplets)))
        else:
            raise ParseError(
                f"expected 'signature' or 'morphism', found {t.text!r}", t.line, t.col)
    return sigs, morphisms


def _parse_signature_body(ts: TokenStream) -> EvtSignature:
    sorts: list[str] = []
    ops: list[F.Op] = []
    preds: list[F.Pred] = []
    events: list[tuple[str, Status]] = []
    vars_: list[tuple[str, str]] = []

    def sort_name() -> str:
        t = ts.expect_ident()
        if t.text == "NAT" or t.text == "INT":
            return F.INT
        if t.text == "BOOL":
            return F.BOOL
        return t.text

    while not ts.at_word("end"):
        if ts.accept_word("sorts") or ts.accept_word("sort"):
            sorts.append(ts.expect_ident().text)
            while ts.accept_sym(","):
                sorts.append(ts.expect_ident().text)
        elif ts.accept_word("ops"):
            while True:
                name = ts.expect_ident().text
                ts.expect_sym(":")
                profile = [sort_name()]
                while ts.accept_sym("*"):
                    profile.append(sort_name())
                if ts.accept_sym("->"):
                    result = sort_name()
                    ops.append(F.Op(name, tuple(profile), result))
                else:
                    if len(profile) != 1:
                        ts.error("constant declarations take a single sort")
                    ops.append(F.Op(name, (), profile[0]))
                if not ts.accept_sym(","):
                    break
        elif ts.accept_word("preds"):
            while True:
                name = ts.expect_ident().text
                ts.expect_sym(":")
                profile = [sort_name()]
                while ts.accept_sym("*"):
                    profile.append(sort_name())
                preds.append(F.Pred(name, tuple(profile)))
                if not ts.accept_sym(","):
                    break
        elif ts.accept_word("events"):
            while True:
                name = ts.expect_ident().text
                status = status_named(ts.expect_ident())
                events.append((name, status))
                if not ts.accept_sym(","):
                    break
        elif ts.accept_word("vars"):
            while True:
                name = ts.expect_ident().text
                ts.expect_sym(":")
                vars_.append((name, sort_name()))
                if not ts.accept_sym(","):
                    break
        else:
            ts.error("expected a signature section")
    fsig = FopeqSignature(tuple(sorts), tuple(ops), tuple(preds))
    return EvtSignature(fsig, tuple(events), tuple(vars_))


def build_morphism(src: EvtSignature, dst: EvtSignature,
                   maplets: Sequence[Maplet], check_status: bool = True) -> EvtMorphism:
    """Total morphism from maplets; unmapped symbols default to their own
    name (which must exist in the target)."""
    events, vars_, ops, sorts = _classify_maplets(maplets, src)
    return evt_morphism(src, dst, events=events, vars=vars_, sorts=sorts, ops=ops,
                        check_status=check_status)


def print_signature(sig: EvtSignature) -> str:
    lines = []
    if sig.fopeq.sorts:
        lines.append(f"  sorts {', '.join(sig.fopeq.sorts)}")
    for o in sig.fopeq.ops:
        prof = f"{' * '.join(o.args)} -> {o.result}" if o.args else o.result
        lines.append(f"  ops {o.name} : {prof}")
    for p in sig.fopeq.preds:
        lines.append(f"  preds {p.name} : {' * '.join(p.args)}")
    if sig.events:
        lines.append("  events " + ", ".join(f"{e} {s}" for e, s in sig.events))
    if sig.vars:
        lines.append("  vars " + ", ".join(f"{v} : {s}" for v, s in sig.vars))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# morphisms from maplet literals


def _classify_maplets(maplets: Sequence[Maplet], sig: EvtSignature,
                      by_dst: bool = False):
    """Split maplets into event, variable, operation and sort name maps, by
    the kind that their source (with by_dst, their destination) has in sig."""
    events, vars_, ops, sorts = {}, {}, {}, {}
    kinds = ((sig.event_map, events), (sig.var_map, vars_),
             (sig.fopeq.op_map, ops), (sig.fopeq.sorts, sorts))
    for m in maplets:
        name = m.dst if by_dst else m.src
        found = [out for names, out in kinds if name in names]
        if len(found) > 1:
            raise SpecError(f"maplet symbol {name} is ambiguous in this signature")
        if not found:
            raise SpecError(f"maplet symbol {name} not in the signature")
        found[0][m.src] = m.dst
    return events, vars_, ops, sorts


def _build_translate(child: Spec, maplets: Sequence[Maplet],
                     lib: SpecLibrary) -> Spec:
    src = sig_of(child, lib)
    if not isinstance(src, EvtSignature):
        raise SpecError("renaming of plain first-order specifications is not supported")
    events, vars_, ops, sorts = _classify_maplets(maplets, src)
    statuses: dict[str, Status] = {}
    for m in maplets:
        if m.src not in events:
            continue
        if m.src_status is not None and m.src_status != src.event_map[m.src]:
            raise SpecError(
                f"maplet source status of {m.src} disagrees with the signature")
        if m.dst_status is not None:
            statuses[m.dst] = m.dst_status

    target = merged_signature(
        signature_image((src.fopeq, sorts, ops)),
        [(events.get(e, e), statuses.get(events.get(e, e), st)) for e, st in src.events],
        [(vars_.get(v, v), sorts.get(s, s)) for v, s in src.vars])
    return Translate(child, evt_morphism(src, target, events=events, vars=vars_,
                                         sorts=sorts, ops=ops))


def _build_hide(child: Spec, maplets: Sequence[Maplet], lib: SpecLibrary) -> Spec:
    target = sig_of(child, lib)
    if not isinstance(target, EvtSignature):
        raise SpecError("hiding of plain first-order specifications is not supported")
    events, vars_, ops, sorts = _classify_maplets(maplets, target, by_dst=True)
    if ops or sorts:
        raise SpecError("hiding of sorts or operations is not supported")
    # no variable maplets: every variable is kept
    src_events = tuple((e, target.event_map[t]) for e, t in events.items())
    src_vars = (tuple((v, target.var_map[t]) for v, t in vars_.items())
                if vars_ else target.vars)
    source = EvtSignature(target.fopeq, src_events, src_vars)
    return Hide(child, evt_morphism(source, target, events=events, vars=vars_))
