"""The evtforge benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/evtforge`` and
``tests/fixtures``.  The benchmark writes its seeded inputs under
``.bench_work/``, runs the jobs in a fresh worker process (no threads, each
job starts when the previous one has finished) and prints a table followed,
on the last line, by one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

--trace 0 reports the end-to-end metrics of the workload.  Their times are
given at the reference host speed (see hostspeed.py), so that the drift of a
shared machine does not show as a change; the table also prints the
latencies as measured.  --trace 1 runs
one traced pass of every workload, whatever --workload names, and reports
the per-layer metrics, each named ``<workload>.<layer>.<stat>``; the spans
are written to ``.bench_work/trace/``.  The traced run never feeds the
end-to-end numbers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 9
WORKER_TIMEOUT_S = 170

# name -> (unit, better)
END_TO_END = {
    "latency_p50_s": ("s", "lower"),
    "latency_tail_s": ("s", "lower"),
    "jobs_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
    # 1 - error_rate: a wrong verdict, wrong output, unexpected exception, a
    # refusal where an answer was expected or an answer where a refusal was
    # expected all count against it
    "success_rate": ("ratio", "higher"),
}

# Per-layer statistics reported for each workload: only layers that do work
# on that workload are listed, so no reported value is structurally zero.
_MODEL_LAYERS = [
    "institution.maximal_model.self_s", "institution.maximal_model.calls",
    "institution.maximal_model.pairs_kept", "institution.maximal_model.init_kept",
    "fopeq.compile_formula.calls", "fopeq.compile_formula.self_s",
    "fopeq.enumerate_algebras.self_s", "fopeq.enumerate_algebras.admitted",
    "specs.model_class.algebras_kept", "specs.model_class.kept_per_admitted",
    "specs.Evaluator.model_class.self_s",
]
_FRONT_LAYERS = [
    "eventb.parse_text.chars_per_s", "translate.translate.self_s",
    "specs.sig_of.calls", "institution.EvtSignature.constructed",
]
LAYERS = {
    "bridge-refine": _MODEL_LAYERS + _FRONT_LAYERS + [
        "specs.Evaluator.flatten.self_s", "sugar.parse_document.self_s",
        "institution.reduce_state.calls", "institution.EvtMorphism.constructed",
        "institution.evt_compose.calls",
        "refinement.check_refinement_morphism.self_s", "refinement.pairs_checked",
        "cli.refine.self_s", "maximal_model.share", "traced_latency_p50_s",
    ],
    "wide-models": _MODEL_LAYERS + _FRONT_LAYERS + [
        "cli.models.self_s", "cli.output_chars", "maximal_model.share",
        "traced_latency_p50_s",
    ],
    "deep-translate": _FRONT_LAYERS + [
        "rodin.parse_rodin_paths.self_s", "sugar.print_library.self_s",
        "sugar.parse_document.self_s", "institution.EvtMorphism.constructed",
        "specs.sig_of.self_s",
        "cli.translate.self_s", "cli.output_chars", "front_end.share",
        "traced_latency_p50_s",
    ],
    "pushout-amalgam": [
        "institution.reduce_state.calls", "institution.EvtMorphism.constructed",
        "institution.EvtSignature.constructed",
        "institution.evt_pushout.self_s", "institution.amalgamate.self_s",
        "institution.model_reduct.self_s", "sugar.parse_signature_document.self_s",
        "cli.pushout.self_s", "morphisms.share", "traced_latency_p50_s",
    ],
}

_RESULT_COUNTS = ("pairs_kept", "init_kept", "admitted", "algebras_kept")


def layer_unit(stat: str) -> tuple[str, str]:
    if stat.endswith(("self_s", "latency_p50_s")):
        return "s", "lower"
    if stat.endswith("chars_per_s"):
        return "1/s", "higher"
    if stat.endswith("kept_per_admitted"):
        return "ratio", "higher"
    if stat.endswith(".share"):
        return "ratio", "lower"
    if stat.endswith(_RESULT_COUNTS):
        return "count", "higher"
    return "count", "lower"


def layer_value(w: dict, stat: str):
    """One per-layer statistic from a traced workload summary."""
    counts, self_s = w["counts"], w["self_s"]
    if stat == "traced_latency_p50_s":
        return statistics.median_high(w["latencies"])
    if stat == "cli.output_chars":
        return w["output_chars"]
    if stat.endswith(".share"):
        return w["covered"][stat[:-len(".share")]] / w["job_s"]
    if stat == "specs.model_class.kept_per_admitted":
        admitted = counts.get("fopeq.enumerate_algebras.admitted", 0)
        return counts.get("specs.model_class.algebras_kept", 0) / admitted if admitted else 0.0
    if stat == "eventb.parse_text.chars_per_s":
        busy = w["total_s"].get("eventb.parse_text", 0.0)
        return counts.get("eventb.parse_text.chars", 0) / busy if busy else 0.0
    if stat.endswith(".self_s"):
        return self_s.get(stat[:-len(".self_s")], 0.0)
    return counts.get(stat, 0)


def per_layer_names() -> list[str]:
    return [f"{w}.{stat}" for w in workloads.WORKLOADS for stat in LAYERS[w]]


def tail_percentile(jobs_per_pass: int) -> float:
    """Highest percentile with at least ten jobs of one pass beyond it."""
    return (jobs_per_pass - 10) / jobs_per_pass


def tail_value(lat: list[float], jobs_per_pass: int) -> float:
    ordered = sorted(lat)
    rank = math.ceil(tail_percentile(jobs_per_pass) * len(ordered))
    return ordered[max(rank, 1) - 1]


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # fixed string hashing, so set orders and per-layer counts repeat exactly
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(env: dict) -> list[float]:
    """Time of fresh interpreters that load evtforge.cli and exit, at the
    reference host speed."""
    cmd = [sys.executable, "-c", "import evtforge.cli"]
    subprocess.run(cmd, env=env, check=True)  # fills bytecode caches
    times = []
    for _ in range(SETUP_SAMPLES):
        before = hostspeed.sample()
        # no timeout: waiting with one polls in steps of up to 50 ms
        t0 = perf_counter()
        subprocess.run(cmd, env=env, check=True)
        dt = perf_counter() - t0
        times.append(hostspeed.normalise(dt, before, hostspeed.sample()))
    return times


def run_worker(job_files: list[Path], seconds: int, trace: int, out: Path, env) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--seconds", str(seconds),
           "--trace", str(trace), "--out", str(out)]
    for f in job_files:
        cmd += ["--jobs", str(f)]
    subprocess.run(cmd, env=env, check=True, timeout=WORKER_TIMEOUT_S)
    return json.loads(out.read_text(encoding="utf-8"))


def write_jobs(workload: str, seed: int, work: Path) -> tuple[Path, int]:
    jobs = workloads.build(workload, seed, work / workload)
    path = work / f"{workload}.jobs.json"
    path.write_text(json.dumps({"workload": workload, "jobs": jobs}), encoding="utf-8")
    return path, len(jobs)


def _fmt(name: str, value, unit: str, note: str = "") -> str:
    v = f"{value:.6g}" if isinstance(value, float) else str(value)
    return f"  {name:<64} {v:>14} {unit:<6} {note}"


def end_to_end(args, work: Path, env: dict) -> dict:
    job_file, per_pass = write_jobs(args.workload, args.seed, work)
    setup = measure_setup(env)
    res = run_worker([job_file], args.seconds, 0, work / "result.json", env)
    passes = res["passes"]
    # a job's time is its median over the passes, which repeat the same job
    # list, each pass timed at the reference host speed (hostspeed.py)
    per_job = [statistics.median(times) for times in zip(*passes)]
    wall_job = [statistics.median(times) for times in zip(*res["wall_passes"])]
    attempted = per_pass * len(passes)
    failed = len(res["failures"])
    metrics = {
        "latency_p50_s": statistics.median_high(per_job),
        "latency_tail_s": tail_value(per_job, per_pass),
        "jobs_per_s": per_pass / sum(per_job),
        "peak_rss_mb": res["peak_rss_kb"] / 1024,
        "setup_s": statistics.median(setup),
        "success_rate": 1 - failed / attempted,
    }
    print(f"workload {args.workload}  seed {args.seed}  {len(passes)} passes "
          f"of {per_pass} jobs in {res['wall_s']:.1f} s")
    n = f"n={per_pass} jobs, each the median of {len(passes)} passes"
    notes = {
        "latency_p50_s": f"upper median, {n}",
        "latency_tail_s": f"p{100 * tail_percentile(per_pass):.1f}, {n}",
        "jobs_per_s": f"{n}, over their summed times",
        "peak_rss_mb": "ru_maxrss of the worker after its first pass",
        "setup_s": f"median of n={len(setup)} fresh interpreters",
        "success_rate": f"error_rate {failed / attempted:.6g}: "
                        f"{failed} of {attempted} jobs run were wrong",
    }
    for name, value in metrics.items():
        print(_fmt(name, value, END_TO_END[name][0], notes[name]))
    print(_fmt("wall_latency_p50_s", statistics.median_high(wall_job), "s",
               "as measured, not normalised to the reference host speed"))
    print(_fmt("wall_jobs_per_s", per_pass / sum(wall_job), "1/s",
               "as measured, not normalised to the reference host speed"))
    for f in res["failures"][:10]:
        print(f"  FAILED {f}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": END_TO_END[k][0]}
                        for k, v in metrics.items()}}


def per_layer(args, work: Path, env: dict) -> dict:
    files = [write_jobs(w, args.seed, work)[0] for w in workloads.WORKLOADS]
    res = run_worker(files, args.seconds, 1, work / "result.json", env)
    trace_dir = ROOT / ".bench_work" / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_file = trace_dir / f"spans-seed{args.seed}.json"
    trace_file.write_text(json.dumps(res["spans"]), encoding="utf-8")
    metrics, attempted, failed = {}, 0, 0
    for w in workloads.WORKLOADS:
        data = res["workloads"][w]
        attempted += len(data["latencies"])
        failed += len(data["failures"])
        print(f"workload {w}: {len(data['latencies'])} traced jobs, "
              f"{data['job_s']:.2f} s of job time")
        if data["absent"]:
            print(f"  absent (not wrapped): {', '.join(data['absent'])}")
        for stat in LAYERS[w]:
            name = f"{w}.{stat}"
            unit, _ = layer_unit(stat)
            metrics[name] = {"value": layer_value(data, stat), "unit": unit}
            print(_fmt(name, metrics[name]["value"], unit))
        for f in data["failures"][:10]:
            print(f"  FAILED {f}")
    print(f"spans written to {trace_file.relative_to(ROOT)}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "evtforge" / "cli.py").is_file() \
            or not (ROOT / workloads.FIXTURES).is_dir():
        print(f"error: {ROOT} holds no evtforge sources (src/evtforge) "
              "and fixtures (tests/fixtures)", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    work = ROOT / ".bench_work" / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    env = worker_env()
    try:
        work.mkdir(parents=True, exist_ok=True)
        if args.trace:
            result = per_layer(args, work, env)
        else:
            result = end_to_end(args, work, env)
    except subprocess.SubprocessError as e:
        print(f"error: worker did not finish: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
