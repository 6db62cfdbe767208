"""Seeded workloads for the evtforge benchmark: inputs, job lists and checks.

Every workload is a fixed list of job slots in a fixed order.  The seed
picks names, constants and random models inside each slot, never the shape
that sets a job's cost, so runs with different seeds do the same amount of
work.  bridge-refine runs the bridge fixtures, which no seed changes.  Each job carries a reference answer that does not come from evtforge:

* bridge-refine: REF0, REF1A and REF1B hold at every grid point; REFW fails
  exactly when some admissible value of d is below the bound, and its
  counterexample must be a step of m0w that m0 cannot take.
* wide-models: a plain-Python enumerator gives |L_max| and |R_max(e)| per
  event (README semantics: undefined arithmetic makes an atom false, no
  frame condition, ℕ adds membership sentences); listed pairs are checked
  one by one.  Refusal jobs have a true relation above --ceiling, answer
  jobs have (typed states)² within it.
* deep-translate: bridge fixtures compare by token with the golden files;
  generated chains list the generator's event names and print as a fixed
  point of print∘parse.
* pushout-amalgam: the square commutes on plain dicts built from the
  injections, and the amalgam projected by the benchmark equals its inputs.

A job is a JSON-able dict; worker.py runs it and calls check_job on the
outcome.  Nothing here imports evtforge at module level, so inputs can be
generated in a process that never loads the program.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from pathlib import Path

WORKLOADS = ("bridge-refine", "wide-models", "deep-translate", "pushout-amalgam")

FIXTURES = Path("tests") / "fixtures"

_CONS = "bcdfghjklmnpqrstvwxz"


def _namer(rng: random.Random):
    """Fresh lowercase identifiers without vowels, so never a keyword."""
    used: set[str] = set()

    def fresh(prefix: str = "") -> str:
        while True:
            name = prefix + "".join(rng.choice(_CONS) for _ in range(3)) + str(len(used))
            if name not in used:
                used.add(name)
                return name

    return fresh


def _job_rng(seed: int, workload: str, slot: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{slot}")


# ---------------------------------------------------------------------------
# bridge-refine


BRIDGE_GRID = [(b, d) for b in range(3, 7) for d in (2, 3, 4) if d <= b] \
    + [(3, None), (4, None)]


def bridge_jobs(seed: int, work: Path) -> list[dict]:
    fx = FIXTURES
    chain = [str(fx / n) for n in ("ebm0.eb", "ebm1.eb", "ebm2.eb", "refinements.evt")]
    weak = [str(fx / n) for n in ("ebm0.eb", "ebm0_weak.eb", "refinement_weak.evt")]
    jobs = []
    for bound, d in BRIDGE_GRID:
        pin = ["--pin", f"d={d}"] if d is not None else []
        point = f"b{bound}-d{d if d is not None else 'free'}"
        common = ["--bound", str(bound), *pin]
        jobs.append({"id": f"{point}/chain", "kind": "cli",
                     "args": ["refine", *chain, *common, "--allow-status-drop"],
                     "check": {"type": "bridge_chain"}})
        jobs.append({"id": f"{point}/weak-json", "kind": "cli",
                     "args": ["refine", *weak, *common, "--json"],
                     "check": {"type": "bridge_weak", "bound": bound, "d": d}})
    return jobs


_CHAIN_NAMES = ("REF0", "REF1A", "REF1B")


def _check_bridge_chain(code: int, out: str) -> str | None:
    if code != 0:
        return f"exit {code}, expected 0"
    got = {}
    for line in out.splitlines():
        m = re.match(r"^(\w+): (holds|FAILS)", line)
        if m:
            got[m.group(1)] = m.group(2) == "holds"
    if got != {n: True for n in _CHAIN_NAMES}:
        return f"verdicts {got}"
    return None


def _bridge_m0_step(event: str, d: int, n: int, n2: int) -> bool:
    inside = 0 <= n <= d and 0 <= n2 <= d
    if event == "ML_out":
        return inside and n < d and n2 == n + 1
    return inside and n > 0 and n2 == n - 1


def _bridge_m0w_step(event: str, d: int, bound: int, n: int, n2: int) -> bool:
    inside = 0 <= n <= bound and 0 <= n2 <= bound
    if event == "ML_out":
        return inside and n <= d and n2 == n + 1
    return inside and n > 0 and n2 == n - 1


def _check_bridge_weak(chk: dict, code: int, out: str) -> str | None:
    bound, d = chk["bound"], chk["d"]
    admissible = [d] if d is not None else list(range(1, bound + 1))
    expect_holds = not any(x < bound for x in admissible)
    verdicts = json.loads(out) if out.strip() else []
    if len(verdicts) != 1 or verdicts[0].get("name") != "REFW":
        return f"unexpected verdict list {out[:200]!r}"
    v = verdicts[0]
    if v["holds"] != expect_holds or code != (0 if expect_holds else 3):
        return f"holds={v['holds']} exit {code}, expected holds={expect_holds}"
    if expect_holds:
        return None
    cex = v["counterexample"] or {}
    m = re.fullmatch(r"d=(\d+)", str(cex.get("algebra")))
    event = cex.get("event")
    if m is None or event not in ("ML_out", "ML_in"):
        return f"counterexample not a step: {cex}"
    dd = int(m.group(1))
    before, after = cex.get("before") or {}, cex.get("after") or {}
    if dd not in admissible or set(before) != {"n"} or set(after) != {"n"}:
        return f"counterexample outside the algebra/state space: {cex}"
    n, n2 = before["n"], after["n"]
    if not _bridge_m0w_step(event, dd, bound, n, n2) or _bridge_m0_step(event, dd, n, n2):
        return f"counterexample {cex} is not a weak-only step"
    return None


# ---------------------------------------------------------------------------
# wide-models: generated machines and the plain-Python reference


# Job slots: (ℤ vars, ℕ vars, BOOL vars, events, bound, mode, ceiling or None).
# mode: text | json | list (json --list) | refuse
WIDE_SLOTS = [
    (1, 1, 0, 2, 2, "text", None),
    (1, 0, 1, 3, 2, "json", None),
    (1, 1, 1, 2, 2, "list", None),
    (2, 0, 1, 2, 2, "text", None),
    (2, 1, 0, 3, 2, "json", None),
    (2, 1, 1, 3, 2, "list", None),
    (1, 1, 1, 3, 3, "text", None),
    (2, 0, 2, 2, 3, "json", None),
    (1, 2, 1, 2, 3, "list", None),
    (2, 1, 1, 2, 2, "text", None),
    (3, 0, 1, 2, 2, "json", None),
    (2, 2, 0, 3, 2, "text", None),
    (2, 1, 2, 2, 2, "json", None),
    (1, 1, 2, 3, 3, "list", None),
    (3, 1, 0, 2, 2, "text", None),
    (3, 0, 0, 2, 2, "json", None),
    (2, 1, 0, 2, 3, "list", None),
    (3, 0, 1, 3, 2, "text", None),
    (2, 2, 1, 2, 2, "json", None),
    (2, 1, 1, 2, 2, "text", None),
    (2, 0, 1, 3, 2, "list", None),
    (3, 1, 0, 2, 2, "json", None),
    (2, 1, 1, 2, 3, "text", None),
    (1, 0, 1, 2, 2, "list", None),
    (1, 1, 0, 3, 3, "json", None),
    (2, 0, 1, 3, 3, "text", None),
    (1, 2, 0, 2, 2, "json", None),
    (1, 1, 0, 2, 3, "list", None),
    (3, 0, 0, 2, 2, "text", None),
    (1, 1, 1, 2, 2, "json", None),
    (2, 0, 0, 3, 3, "list", None),
    (2, 1, 1, 3, 2, "text", None),
    (1, 0, 2, 3, 2, "json", None),
    (2, 1, 0, 3, 3, "text", None),
    (1, 1, 1, 2, 3, "json", None),
    (1, 1, 1, 3, 2, "list", None),
    (2, 0, 1, 2, 2, "text", None),
    (1, 2, 1, 3, 2, "json", None),
    # refusals: the true relation of some event exceeds --ceiling
    (5, 0, 0, 2, 2, "refuse", 200_000),
    (4, 1, 0, 2, 2, "refuse", 100_000),
    (6, 0, 0, 2, 3, "refuse", 1_000_000),
]


def _domain(kind: str, bound: int) -> list:
    if kind == "Z":
        return list(range(-bound, bound + 1))
    if kind == "N":
        return list(range(0, bound + 1))
    return [False, True]


def wide_machine(rng: random.Random, nz: int, nn: int, nb: int, nev: int,
                  bound: int) -> dict:
    fresh = _namer(rng)
    kinds = ["Z"] * nz + ["N"] * nn + ["B"] * nb
    names = [fresh() for _ in kinds]
    vars_ = list(zip(names, kinds))
    nums = [v for v, k in vars_ if k != "B"]
    bools = [v for v, k in vars_ if k == "B"]
    kind_of = dict(vars_)
    init = {v: (rng.choice([False, True]) if k == "B" else rng.randint(0, bound))
            for v, k in vars_}
    events = []
    for i in range(nev):
        # one guard and one assignment per event; only names and constants
        # vary with the seed, so every pool size and count is seed-invariant
        # (a guard constant below the bound never hits the value where x + 1
        # is undefined)
        form = i % 3
        if form == 0 or not bools:
            g = nums[i % len(nums)] if nums else None
            guard = (["ne", g, rng.randint(0, bound - 1)] if g is not None
                     else ["eqb", bools[0], rng.choice([False, True])])
        elif form == 1:
            guard = ["eqb", bools[i % len(bools)], rng.choice([False, True])]
        else:
            g = nums[(i + 1) % len(nums)] if nums else None
            guard = (["ne", g, rng.randint(0, bound - 1)] if g is not None
                     else ["eqb", bools[0], rng.choice([False, True])])
        if nums and (form != 1 or not bools):
            tgt = nums[(i + 2) % len(nums)]
            step = rng.choice([1, -1]) if kind_of[tgt] == "Z" else 1
            act = [tgt, ["add", tgt, step]]
        else:
            tgt = bools[(i + 1) % len(bools)]
            act = [tgt, ["bool", rng.choice([False, True])]]
        events.append({"name": fresh("v"), "guards": [guard], "actions": [act]})
    return {"name": fresh("m"), "bound": bound, "vars": vars_, "init": init,
            "events": events}


def _render_value(v) -> str:
    if isinstance(v, bool):
        return "TRUE" if v else "FALSE"
    return str(v)


def _render_term(t) -> str:
    if t[0] == "add":
        return f"{t[1]} + {t[2]}" if t[2] >= 0 else f"{t[1]} - {-t[2]}"
    return _render_value(t[1])


def _render_guard(g) -> str:
    if g[0] == "ne":
        return f"{g[1]} ≠ {g[2]}"
    return f"{g[1]} = {_render_value(g[2])}"


_TYPE_TEXT = {"Z": "ℤ", "N": "ℕ", "B": "BOOL"}


def render_wide_machine(m: dict) -> str:
    lines = [f"machine {m['name']}",
             "  variables " + ", ".join(v for v, _ in m["vars"]),
             "  invariants"]
    for i, (v, k) in enumerate(m["vars"], 1):
        lines.append(f"    inv{i}: {v} ∈ {_TYPE_TEXT[k]}")
    lines += ["  events", "    event Initialisation", "      thenAct"]
    for i, (v, _) in enumerate(m["vars"], 1):
        lines.append(f"        act{i}: {v} := {_render_value(m['init'][v])}")
    lines.append("    end")
    for e in m["events"]:
        lines += [f"    event {e['name']}", "      status ordinary", "      when"]
        for i, g in enumerate(e["guards"], 1):
            lines.append(f"        grd{i}: {_render_guard(g)}")
        lines.append("      thenAct")
        for i, (v, t) in enumerate(e["actions"], 1):
            lines.append(f"        act{i}: {v} := {_render_term(t)}")
        lines.append("    end")
    lines.append("end")
    return "\n".join(lines) + "\n"


class WideRef:
    """Reference semantics of a generated wide machine, in plain Python."""

    def __init__(self, m: dict):
        self.m = m
        self.bound = m["bound"]
        self.names = [v for v, _ in m["vars"]]
        self.dom = {v: _domain(k, self.bound) for v, k in m["vars"]}
        self.events = {e["name"]: e for e in m["events"]}

    def _defined(self, v, x) -> bool:
        return x in self.dom[v]

    def _term(self, t, s: dict):
        if t[0] == "add":
            x = s[t[1]] + t[2]
            return x if -self.bound <= x <= self.bound else None
        return t[1]

    def _guard(self, g, s: dict) -> bool:
        if g[0] == "ne":
            return s[g[1]] != g[2]
        return s[g[1]] == g[2]

    def image(self, e: str, s: dict):
        """The assigned part of every after-state of s, or None if e is
        disabled at s or an action is undefined or leaves its type."""
        ev = self.events[e]
        if not all(self._guard(g, s) for g in ev["guards"]):
            return None
        out = {}
        for v, t in ev["actions"]:
            x = self._term(t, s)
            if x is None or not self._defined(v, x):
                return None
            out[v] = x
        return out

    def states(self):
        for combo in itertools.product(*(self.dom[v] for v in self.names)):
            yield dict(zip(self.names, combo))

    def typed_states(self) -> int:
        n = 1
        for v in self.names:
            n *= len(self.dom[v])
        return n

    def init_count(self) -> int:
        return 1 if all(self._defined(v, self.m["init"][v]) for v in self.names) else 0

    def relation_count(self, e: str) -> int:
        assigned = {v for v, _ in self.events[e]["actions"]}
        free = 1
        for v in self.names:
            if v not in assigned:
                free *= len(self.dom[v])
        return free * sum(1 for s in self.states() if self.image(e, s) is not None)

    def has_pair(self, e: str, s: dict, t: dict) -> bool:
        if set(s) != set(self.names) or set(t) != set(self.names):
            return False
        if not all(self._defined(v, s[v]) and self._defined(v, t[v]) for v in self.names):
            return False
        img = self.image(e, s)
        return img is not None and all(t[v] == x for v, x in img.items())


def wide_jobs(seed: int, work: Path) -> list[dict]:
    jobs = []
    for slot, (nz, nn, nb, nev, bound, mode, ceiling) in enumerate(WIDE_SLOTS):
        rng = _job_rng(seed, "wide-models", slot)
        m = wide_machine(rng, nz, nn, nb, nev, bound)
        ref = WideRef(m)
        path = work / f"wide{slot:02d}.eb"
        path.write_text(render_wide_machine(m), encoding="utf-8")
        args = ["models", m["name"], str(path), "--bound", str(bound)]
        counts = {e["name"]: ref.relation_count(e["name"]) for e in m["events"]}
        if mode == "refuse":
            if max(counts.values()) <= ceiling:
                raise AssertionError(f"wide slot {slot}: refusal job fits its ceiling")
            args += ["--ceiling", str(ceiling)]
        elif ref.typed_states() ** 2 > 2 ** 20:
            raise AssertionError(f"wide slot {slot}: answer job may hit the ceiling")
        if mode == "json":
            args.append("--json")
        elif mode == "list":
            args += ["--json", "--list"]
        jobs.append({"id": f"slot{slot:02d}/{mode}", "kind": "cli", "args": args,
                     "check": {"type": "wide", "mode": mode, "machine": m,
                               "init": ref.init_count(), "counts": counts}})
    return jobs


def _check_wide(chk: dict, code: int, out: str, err: str) -> str | None:
    mode = chk["mode"]
    if mode == "refuse":
        if code != 2 or not err.startswith("error:"):
            return f"exit {code}, expected a refusal (exit 2 with an error line)"
        return None
    if code != 0:
        return f"exit {code}: {err.strip()[:200]}"
    counts, init = chk["counts"], chk["init"]
    if mode == "text":
        got_init, got = None, {}
        for line in out.splitlines():
            m = re.match(r"^  Init: (\d+) initial state", line)
            if m:
                got_init = int(m.group(1))
            m = re.match(r"^  (\w+): (\d+) pair", line)
            if m:
                got[m.group(1)] = int(m.group(2))
        if got_init != init or got != counts:
            return f"text counts init={got_init} {got}, expected init={init} {counts}"
        return None
    payload = json.loads(out)
    algs = payload["algebras"]
    if len(algs) != 1:
        return f"{len(algs)} algebras, expected 1"
    a = algs[0]
    if a["initial_states"] != init or a["events"] != counts:
        return (f"json counts init={a['initial_states']} {a['events']}, "
                f"expected init={init} {counts}")
    if mode != "list":
        return None
    ref = WideRef(chk["machine"])
    want_init = {v: chk["machine"]["init"][v] for v in ref.names}
    if a["init"] != [want_init]:
        return f"listed initial states {a['init'][:3]}"
    for e, pairs in a["relations"].items():
        if len(pairs) != counts.get(e, -1):
            return f"event {e}: {len(pairs)} listed pairs"
        seen = set()
        for s, t in pairs:
            key = (tuple(s.get(v) for v in ref.names), tuple(t.get(v) for v in ref.names))
            if key in seen or not ref.has_pair(e, s, t):
                return f"event {e}: listed pair {s} -> {t} is wrong or repeated"
            seen.add(key)
    return None


# ---------------------------------------------------------------------------
# deep-translate: refinement chains


# Chain slots: (depth, variables added per level, events per level)
DEEP_SLOTS = [
    (2, 2, 3), (2, 4, 6), (3, 2, 3), (3, 3, 5), (3, 5, 8), (4, 3, 5),
    (4, 4, 6), (4, 5, 8), (4, 5, 8), (5, 2, 6), (5, 4, 6), (5, 4, 6),
    (5, 5, 8), (5, 5, 8), (6, 2, 4), (6, 2, 4), (6, 3, 4), (6, 3, 4),
]


def _chain_machines(rng: random.Random, depth: int, width: int, nev: int) -> list[dict]:
    fresh = _namer(rng)
    machines = []
    all_vars: list[tuple[str, str]] = []
    prev = None
    for _ in range(depth):
        new_vars = [(fresh("x"), rng.choice("ZN")) for _ in range(width)]
        all_vars = all_vars + new_vars
        events = []
        for j in range(nev):
            # same-name refinements print elided; renamed ones print a slice
            if prev is not None and j % 2 == 0:
                name, refines = prev["events"][j]["name"], prev["events"][j]["name"]
            else:
                name = fresh("e")
                refines = prev["events"][j]["name"] if prev is not None else None
            (a, _), (b, _) = rng.sample(all_vars, 2)
            events.append({"name": name, "refines": refines,
                           "guard": f"{a} < {rng.randint(1, 3)}",
                           "action": (b, rng.choice([f"{b} + 1", a]))})
        glue = None
        if prev is not None:
            v_old = rng.choice(prev["vars"])[0]
            glue = f"{new_vars[0][0]} ≤ {v_old} + {rng.randint(1, 3)}"
        m = {"name": fresh("m"), "refines": prev["name"] if prev else None,
             "vars": list(all_vars), "new_vars": new_vars, "glue": glue,
             "events": events}
        machines.append(m)
        prev = m
    return machines


def render_chain(machines: list[dict]) -> str:
    out = []
    for m in machines:
        lines = [f"machine {m['name']}"]
        if m["refines"]:
            lines.append(f"  refines {m['refines']}")
        lines.append("  variables " + ", ".join(v for v, _ in m["vars"]))
        lines.append("  invariants")
        for i, (v, k) in enumerate(m["new_vars"], 1):
            lines.append(f"    inv{i}: {v} ∈ {_TYPE_TEXT[k]}")
        if m["glue"]:
            lines.append(f"    glue: {m['glue']}")
        lines += ["  events", "    event Initialisation", "      thenAct"]
        for i, (v, _) in enumerate(m["new_vars"], 1):
            lines.append(f"        act{i}: {v} := 0")
        lines.append("    end")
        for e in m["events"]:
            lines += [f"    event {e['name']}", "      status ordinary"]
            if e["refines"]:
                lines.append(f"      refines {e['refines']}")
            lines += ["      when", f"        grd1: {e['guard']}", "      thenAct",
                      f"        act1: {e['action'][0]} := {e['action'][1]}", "    end"]
        lines.append("end")
        out.append("\n".join(lines))
    return "\n\n".join(out) + "\n"


def deep_jobs(seed: int, work: Path) -> list[dict]:
    fx = FIXTURES
    jobs = [
        {"id": "fixture/m0", "kind": "cli", "args": ["translate", str(fx / "ebm0.eb")],
         "check": {"type": "golden", "golden": str(fx / "golden" / "evtm0.txt"),
                   "blocks": None}},
        {"id": "fixture/m1", "kind": "cli",
         "args": ["translate", str(fx / "ebm0.eb"), str(fx / "ebm1.eb")],
         "check": {"type": "golden", "golden": str(fx / "golden" / "evtref1.txt"),
                   "blocks": ["m1"]}},
        {"id": "fixture/m2", "kind": "cli",
         "args": ["translate", *(str(fx / n) for n in ("ebm0.eb", "ebm1.eb", "ebm2.eb"))],
         "check": {"type": "golden", "golden": str(fx / "golden" / "evtref2.txt"),
                   "blocks": ["Color", "m2"]}},
        {"id": "fixture/rodin", "kind": "cli",
         "args": ["translate", str(fx / "rodin" / "cd.buc"), str(fx / "rodin" / "m0.bum")],
         "check": {"type": "golden", "golden": str(fx / "golden" / "evtm0.txt"),
                   "blocks": None}},
    ]
    for slot, (depth, width, nev) in enumerate(DEEP_SLOTS):
        rng = _job_rng(seed, "deep-translate", slot)
        machines = _chain_machines(rng, depth, width, nev)
        src = work / f"chain{slot:02d}.eb"
        src.write_text(render_chain(machines), encoding="utf-8")
        printed = work / f"chain{slot:02d}.evt"
        events = {m["name"]: ["Initialisation"] + [e["name"] for e in m["events"]]
                  for m in machines}
        # the second job re-reads what the first printed: print∘parse must
        # reproduce it token for token
        jobs.append({"id": f"chain{slot:02d}/translate", "kind": "cli",
                     "args": ["translate", str(src)],
                     "check": {"type": "chain", "events": events, "save": str(printed)}})
        jobs.append({"id": f"chain{slot:02d}/reprint", "kind": "cli",
                     "args": ["translate", str(printed)],
                     "check": {"type": "chain", "events": events, "same_as": str(printed)}})
    return jobs


def spec_blocks(text: str) -> dict[str, str]:
    blocks, cur = {}, None
    for line in text.splitlines(keepends=True):
        if line.startswith("spec "):
            cur = line.split()[1]
            blocks[cur] = line
        elif cur is not None and line.strip():
            blocks[cur] += line
        elif cur is not None and line == "\n":
            cur = None
    return blocks


def _check_golden(chk: dict, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    golden = Path(chk["golden"]).read_text(encoding="utf-8")
    if chk["blocks"] is None:
        return None if out.split() == golden.split() else "output differs from golden"
    got, want = spec_blocks(out), spec_blocks(golden)
    for b in chk["blocks"]:
        if b not in got or got[b].split() != want[b].split():
            return f"spec block {b} differs from golden"
    return None


def _check_chain(chk: dict, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    blocks = spec_blocks(out)
    for m, names in chk["events"].items():
        if m not in blocks:
            return f"no spec block for {m}"
        listed = set(re.findall(r"^\s+(\w+) (?:ordinary|anticipated|convergent)\s*$",
                                blocks[m], re.M))
        if listed != set(names):
            return f"spec {m} lists events {sorted(listed)}, expected {sorted(names)}"
    if "save" in chk:
        Path(chk["save"]).write_text(out, encoding="utf-8")
    if "same_as" in chk:
        if out.split() != Path(chk["same_as"]).read_text(encoding="utf-8").split():
            return "print∘parse is not a fixed point"
    return None


# ---------------------------------------------------------------------------
# pushout-amalgam


# Span slots: (shared events, shared vars, extra events per side,
#              extra vars per side, carrier size of U)
PUSHOUT_SLOTS = [
    (2, 2, 1, 2, 2), (3, 2, 1, 2, 2), (2, 2, 3, 2, 2), (4, 2, 1, 2, 2),
    (2, 2, 1, 1, 3), (3, 2, 2, 2, 2), (2, 4, 1, 1, 2), (3, 2, 1, 2, 2),
    (2, 2, 2, 2, 2), (4, 2, 2, 2, 2), (4, 4, 1, 1, 2), (3, 2, 1, 1, 3),
]

_STATUSES = ("ordinary", "anticipated", "convergent")


def _span_data(rng: random.Random, ne: int, nv: int, xe: int, xv: int, usize: int) -> dict:
    fresh = _namer(rng)
    base_events = [(fresh("e"), rng.choice(_STATUSES[:2])) for _ in range(ne)]
    base_vars = [fresh("x") for _ in range(nv)]
    const = fresh("k")
    sides = []
    for _side in range(2):
        ev_map = {e: fresh("e") for e, _ in base_events}
        var_map = {v: fresh("x") for v in base_vars}
        statuses = {ev_map[e]: _STATUSES[_STATUSES.index(st) + rng.randint(0, 1)]
                    for e, st in base_events}
        extra_events = [(fresh("f"), rng.choice(_STATUSES)) for _ in range(xe)]
        extra_vars = [fresh("y") for _ in range(xv)]
        sides.append({"sig": fresh("T"), "morphism": fresh("s"), "ev_map": ev_map,
                      "var_map": var_map, "events": list(statuses.items()) + extra_events,
                      "vars": list(var_map.values()) + extra_vars,
                      "extra_vars": extra_vars,
                      "extra_events": [e for e, _ in extra_events]})
    return {"base": fresh("S"), "const": const, "base_events": base_events,
            "base_vars": base_vars, "sides": sides, "usize": usize}


def _sig_block(name: str, const: str, events, vars_) -> str:
    ev = ", ".join(f"{e} {s}" for e, s in events)
    vs = ", ".join(f"{v} : U" for v in vars_)
    return f"signature {name} =\n  sorts U\n  ops {const} : U\n  events {ev}\n  vars {vs}\nend\n"


def render_span(d: dict, side: int) -> str:
    s = d["sides"][side]
    maplets = [f"{a} ↦ {b}" for a, b in s["ev_map"].items()]
    maplets += [f"{a} ↦ {b}" for a, b in s["var_map"].items()]
    return "\n".join([
        _sig_block(d["base"], d["const"], d["base_events"], d["base_vars"]),
        _sig_block(s["sig"], d["const"], s["events"], s["vars"]),
        f"morphism {s['morphism']} : {d['base']} -> {s['sig']} =\n"
        f"  {{{', '.join(maplets)}}}\nend\n",
    ])


def _random_models(rng: random.Random, d: dict) -> dict:
    """Models over both span targets whose reducts to the base agree.

    A random model is drawn over the joint state space (base, side-1 and
    side-2 variables) and projected to each side, so an amalgam exists.
    Every side sees exactly 3 initial states and 4 pairs per event, so the
    amalgamation work varies little with the seed.
    """
    carrier = [f"U{i}" for i in range(d["usize"])]
    s1, s2 = d["sides"]
    joint = d["base_vars"] + s1["extra_vars"] + s2["extra_vars"]
    nb, na = len(d["base_vars"]), len(s1["extra_vars"])
    states = list(itertools.product(carrier, repeat=len(joint)))

    def sides(item):
        return (tuple(x[:nb + na] for x in item), tuple(x[:nb] + x[nb + na:] for x in item))

    def draw(k, make):
        picked, seen = [], (set(), set())
        while len(picked) < k:
            item = make()
            one, two = sides(item)
            if one not in seen[0] and two not in seen[1]:
                seen[0].add(one)
                seen[1].add(two)
                picked.append([list(x) for x in item])
        return picked

    init = [s for (s,) in draw(3, lambda: (rng.choice(states),))]
    events = [e for e, _ in d["base_events"]] + s1["extra_events"] + s2["extra_events"]
    rel = {e: draw(4, lambda: (rng.choice(states), rng.choice(states))) for e in events}
    return {"carrier": carrier, "k": rng.choice(carrier), "joint": joint,
            "init": init, "rel": rel}


def side_model(d: dict, models: dict, side: int) -> dict:
    """One side's model in the side's own names: init states and per-event
    pairs as {var: value} dicts."""
    s = d["sides"][side]
    other = d["sides"][1 - side]
    pos = {v: i for i, v in enumerate(models["joint"])}
    names = {**{s["var_map"][v]: pos[v] for v in d["base_vars"]},
             **{v: pos[v] for v in s["extra_vars"]}}

    def proj(state):
        return tuple(sorted((n, state[i]) for n, i in names.items()))

    init = {proj(st) for st in models["init"]}
    rel = {}
    for e, pairs in models["rel"].items():
        if e in other["extra_events"]:
            continue
        name = s["ev_map"].get(e, e)
        rel[name] = {(proj(a), proj(b)) for a, b in pairs}
    return {"init": init, "rel": rel}


def pushout_jobs(seed: int, work: Path) -> list[dict]:
    jobs = []
    for slot, shape in enumerate(PUSHOUT_SLOTS):
        rng = _job_rng(seed, "pushout-amalgam", slot)
        d = _span_data(rng, *shape)
        files = []
        for side in (0, 1):
            p = work / f"span{slot:02d}_{side + 1}.sig"
            p.write_text(render_span(d, side), encoding="utf-8")
            files.append(str(p))
        jobs.append({"id": f"span{slot:02d}/pushout", "kind": "cli",
                     "args": ["pushout", *files],
                     "check": {"type": "pushout_cli", "span": d}})
        # two model pairs per span, so amalgamation is most of the job mix
        for variant in (1, 2):
            jobs.append({"id": f"span{slot:02d}/amalgamate{variant}", "kind": "amalgamate",
                         "files": files, "span": d, "models": _random_models(rng, d),
                         "check": {"type": "amalgam"}})
    return jobs


def _parse_injection(text: str) -> dict[str, str]:
    body = text[text.index("{") + 1:text.rindex("}")]
    out = {}
    for item in filter(None, (x.strip() for x in body.split(","))):
        a, b = (x.strip() for x in item.split("↦"))
        out[a] = b
    return out


def _check_square(d: dict, inj1: dict, inj2: dict, merged_events, merged_vars) -> str | None:
    """j1∘s1 = j2∘s2 on events and variables, injections cover the pushout,
    and only the shared symbols are identified."""
    s1, s2 = d["sides"]
    for e, _ in d["base_events"]:
        if inj1.get(s1["ev_map"][e]) != inj2.get(s2["ev_map"][e]):
            return f"square does not commute on event {e}"
    for v in d["base_vars"]:
        if inj1.get(s1["var_map"][v]) != inj2.get(s2["var_map"][v]):
            return f"square does not commute on variable {v}"
    want_events = len(s1["events"]) + len(s2["events"]) - len(d["base_events"])
    want_vars = len(s1["vars"]) + len(s2["vars"]) - len(d["base_vars"])
    ev_image = {inj1[e] for e, _ in s1["events"]} | {inj2[e] for e, _ in s2["events"]}
    var_image = {inj1[v] for v in s1["vars"]} | {inj2[v] for v in s2["vars"]}
    if len(ev_image) != want_events or ev_image != set(merged_events):
        return "pushout events are not the disjoint union over the shared part"
    if len(var_image) != want_vars or var_image != set(merged_vars):
        return "pushout variables are not the disjoint union over the shared part"
    return None


def _check_pushout_cli(chk: dict, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    d = chk["span"]
    inj = {}
    merged_events, merged_vars = [], []
    for line in out.splitlines():
        m = re.match(r"^injection (\w+): (\{.*\})$", line)
        if m:
            inj[m.group(1)] = _parse_injection(m.group(2))
        elif line.strip().startswith("events "):
            merged_events = [x.split()[0] for x in line.strip()[7:].split(",")]
        elif line.strip().startswith("vars "):
            merged_vars = [x.split(":")[0].strip() for x in line.strip()[5:].split(",")]
    names = [s["morphism"] for s in d["sides"]]
    if set(inj) != set(names):
        return f"injections {sorted(inj)}, expected {names}"
    merged_events = [e for e in merged_events if e != "Init"]
    return _check_square(d, inj[names[0]], inj[names[1]], merged_events, merged_vars)


def check_amalgam(job: dict, merged, j1, j2, amalgam) -> str | None:
    """Check an amalgam against its inputs with plain dicts only."""
    d = job["span"]
    ev1, ev2 = dict(j1.event_map), dict(j2.event_map)
    var1, var2 = dict(j1.var_map), dict(j2.var_map)
    err = _check_square(
        d, {**ev1, **var1}, {**ev2, **var2},
        [e for e, _ in merged.events if e != "Init"], [v for v, _ in merged.vars])
    if err:
        return err
    if amalgam.signature != merged:
        return "amalgam is not over the pushout signature"
    rel = dict(amalgam.rel)
    for side, (evm, varm) in enumerate(((ev1, var1), (ev2, var2))):
        want = side_model(d, job["models"], side)

        def proj(state):
            big = dict(state)
            return tuple(sorted((v, big[t]) for v, t in varm.items()))

        if {proj(s) for s in amalgam.init} != want["init"]:
            return f"side {side + 1}: projected initial states differ"
        for e, pairs in want["rel"].items():
            got = {(proj(a), proj(b)) for a, b in rel[evm[e]]}
            if got != pairs:
                return f"side {side + 1}: projected relation of {e} differs"
    return None


# ---------------------------------------------------------------------------


BUILDERS = {
    "bridge-refine": bridge_jobs,
    "wide-models": wide_jobs,
    "deep-translate": deep_jobs,
    "pushout-amalgam": pushout_jobs,
}


def build(workload: str, seed: int, work: Path) -> list[dict]:
    """Write the workload's input files under work and return its job list."""
    work.mkdir(parents=True, exist_ok=True)
    return BUILDERS[workload](seed, work)


def check_job(job: dict, code: int, out: str, err: str) -> str | None:
    """None when a CLI job's outcome matches its reference, else the reason."""
    chk = job["check"]
    kind = chk["type"]
    if kind == "bridge_chain":
        return _check_bridge_chain(code, out)
    if kind == "bridge_weak":
        return _check_bridge_weak(chk, code, out)
    if kind == "wide":
        return _check_wide(chk, code, out, err)
    if kind == "golden":
        return _check_golden(chk, code, out)
    if kind == "chain":
        return _check_chain(chk, code, out)
    if kind == "pushout_cli":
        return _check_pushout_cli(chk, code, out)
    raise ValueError(f"unknown check {kind}")
