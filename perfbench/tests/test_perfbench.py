"""Self-checks of the benchmark: its declared metrics, its output checks,
the determinism of its per-layer counts and its refusal to run without the
program.  Run from the repository root:

    python3 -m pytest -q perfbench/tests

The two traced runs take a few minutes; they are not part of the tier-1 suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_declares_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    for m in spec["per_layer"]:
        stat = m["name"].split(".", 1)[1]
        assert (m["unit"], m["better"]) == run.layer_unit(stat)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "bridge-refine", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- the output checks reject wrong answers ----------------------------------


def test_bridge_weak_check_rejects_a_step_m0_can_take():
    chk = {"type": "bridge_weak", "bound": 3, "d": 2}
    good = {"name": "REFW", "holds": False, "stats": {}, "counterexample": {
        "algebra": "d=2", "event": "ML_out", "before": {"n": 2}, "after": {"n": 3}}}
    assert workloads.check_job({"check": chk}, 3, json.dumps([good]), "") is None
    bad = json.loads(json.dumps(good))
    bad["counterexample"].update(before={"n": 1}, after={"n": 2})
    assert workloads.check_job({"check": chk}, 3, json.dumps([bad]), "") is not None
    held = dict(good, holds=True, counterexample=None)
    assert workloads.check_job({"check": chk}, 0, json.dumps([held]), "") is not None


def test_wide_reference_counts_and_refusals(tmp_path):
    jobs = workloads.build("wide-models", 7, tmp_path)
    answer = next(j for j in jobs if j["check"]["mode"] == "text")
    chk = answer["check"]
    lines = ["spec x  [bound 2]", "algebra (no free symbols)",
             f"  Init: {chk['init']} initial state(s)"]
    lines += [f"  {e}: {n} pair(s)" for e, n in chk["counts"].items()]
    out = "\n".join(lines) + "\n"
    assert workloads.check_job(answer, 0, out, "") is None
    assert workloads.check_job(answer, 0, out.replace(" pair(s)", "1 pair(s)", 1), "")
    assert workloads.check_job(answer, 2, "", "error: exceeds the ceiling")
    refusal = next(j for j in jobs if j["check"]["mode"] == "refuse")
    assert workloads.check_job(refusal, 2, "", "error: too many pairs") is None
    assert workloads.check_job(refusal, 0, out, "")


def test_wide_reference_enumerator_on_a_small_machine():
    m = {"name": "m", "bound": 1, "vars": [["x", "Z"], ["n", "N"], ["b", "B"]],
         "init": {"x": 0, "n": 0, "b": True},
         "events": [{"name": "e", "guards": [["ne", "x", 0]],
                     "actions": [["n", ["add", "n", 1]]]}]}
    ref = workloads.WideRef(m)
    # x ∈ {-1, 1}, n = 0 (n + 1 = 2 is undefined at bound 1), any b; after:
    # n' = 1, x' and b' free (no frame condition)
    assert ref.typed_states() == 3 * 2 * 2
    assert ref.relation_count("e") == (2 * 1 * 2) * (3 * 2)
    assert ref.has_pair("e", {"x": 1, "n": 0, "b": True}, {"x": -1, "n": 1, "b": False})
    assert not ref.has_pair("e", {"x": 0, "n": 0, "b": True}, {"x": 0, "n": 1, "b": True})


def test_golden_and_chain_checks_compare_tokens(tmp_path):
    golden = (ROOT / workloads.FIXTURES / "golden" / "evtm0.txt").read_text(encoding="utf-8")
    job = next(j for j in workloads.build("deep-translate", 1, tmp_path)
               if j["id"] == "fixture/m0")
    assert workloads.check_job(job, 0, "  " + golden.replace("\n", "\n "), "") is None
    assert workloads.check_job(job, 0, golden.replace("n + 1", "n + 2"), "")
    chain = {"check": {"type": "chain", "events": {"m": ["Initialisation", "e1"]}}}
    block = "spec m =\n  events\n    Initialisation ordinary\n    e1 ordinary\nend\n"
    assert workloads.check_job(chain, 0, block, "") is None
    assert workloads.check_job(chain, 0, block.replace("e1 ordinary", "e2 ordinary"), "")


def test_tracer_reports_a_missing_name_as_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import tracer

    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + [
        ("evtforge.specs", "no_such_function", "specs.no_such_function", "span")])
    t = tracer.Tracer()
    t.install()
    try:
        assert t.absent == ["specs.no_such_function"]
    finally:
        t.uninstall()


# -- traced runs ----------------------------------------------------------------


@pytest.fixture(scope="module")
def traced_seed_1():
    return [_result(_bench("--workload", "bridge-refine", "--seed", "1",
                           "--seconds", "1", "--trace", "1")) for _ in range(2)]


def test_per_layer_counts_repeat_exactly(traced_seed_1):
    first, second = traced_seed_1
    assert first["correct"] and second["correct"]
    counts = {k for k, v in first["metrics"].items() if v["unit"] == "count"}
    for key in ("specs.sig_of.calls", "institution.maximal_model.pairs_kept",
                "fopeq.enumerate_algebras.admitted", "institution.reduce_state.calls",
                "institution.EvtMorphism.constructed"):
        assert any(k.endswith(key) for k in counts), key
    assert {k: first["metrics"][k]["value"] for k in counts} \
        == {k: second["metrics"][k]["value"] for k in counts}


def test_second_seed_runs_clean():
    res = _result(_bench("--workload", "bridge-refine", "--seed", "2",
                         "--seconds", "1", "--trace", "1"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 100
