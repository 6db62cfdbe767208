#!/usr/bin/env python3
"""End-to-end walk through the bridge-controller development.

Translates the three machines, prints the sugared specs, evaluates model
classes at a chosen bound, and checks the refinement chain.

Usage: python scripts/run_bridge_demo.py [--pin-d 2] [--bound 3]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from evtforge.eventb import parse_text
from evtforge.fopeq import Bounds
from evtforge.refinement import check_refinement_morphism, resolve_refinement
from evtforge.specs import Evaluator
from evtforge.sugar import parse_document, print_library
from evtforge.translate import translate

FIXTURES = Path(__file__).resolve().parents[1] / "tests" / "fixtures"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--pin-d", type=int, default=2)
    ap.add_argument("--bound", type=int, default=3)
    args = ap.parse_args()

    out = translate(parse_text((FIXTURES / "ebm0.eb").read_text()))
    out = translate(parse_text((FIXTURES / "ebm1.eb").read_text()), out)
    out = translate(parse_text((FIXTURES / "ebm2.eb").read_text()), out)
    print(print_library(out.library, out.order))

    bounds = Bounds(int_bound=args.bound, pins=(("d", args.pin_d),))
    evaluator = Evaluator(out.library, bounds)
    print(f"model classes at d={args.pin_d}, bound {args.bound}")
    for name in ("m0", "m1", "m2"):
        t0 = time.monotonic()
        rep = evaluator.model_class(out.library.lookup(name))
        dt = time.monotonic() - t0
        for sl in rep.slices:
            total = sum(len(p) for _, p in sl.rel_codes)
            print(f"  {name} [{sl.algebra.describe()}]: "
                  f"{len(sl.init_codes)} initial state(s), {total} pairs "
                  f"({dt * 1000:.0f} ms)")

    _, refs = parse_document((FIXTURES / "refinements.evt").read_text(),
                             out.library)
    print("\nrefinement chain")
    warnings: list[str] = []
    for rt in refs:
        decl = resolve_refinement(rt, out.library, allow_status_drop=True,
                                  warnings=warnings)
        verdict = check_refinement_morphism(decl, evaluator)
        state = "holds" if verdict.holds else f"FAILS: {verdict.counterexample}"
        print(f"  {rt.name}: {rt.abstract} ⊑ {rt.concrete} — {state} "
              f"({verdict.stats['pairs']} pairs)")
    for w in warnings:
        print(f"  note: {w}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
