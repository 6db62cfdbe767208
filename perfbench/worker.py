"""Run workload job lists in a fresh process and write what was measured.

Timed mode runs whole passes over one job list, at least two and more
while the time left allows another pass; it reports the peak resident
memory after the first pass, so the number does not depend on how many
passes fitted.  Traced mode runs one pass over each job
list given, with the tracer installed.  Each job is one closed-loop call:
an ``evtforge`` command through the click entry point, or one
``amalgamate`` library call; the next job starts when it has finished.
Per-job preparation and output checks are outside the timed call.

    python3 perfbench/worker.py --jobs J.json [--jobs K.json ...] \
        --seconds S --trace 0|1 --out result.json
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402
import workloads  # noqa: E402


def _amalgam_inputs(job: dict):
    from evtforge.fopeq import make_algebra
    from evtforge.institution import make_model
    from evtforge.sugar import parse_signature_document

    spans = []
    for f in job["files"]:
        _, morphisms = parse_signature_document(Path(f).read_text(encoding="utf-8"))
        spans.append(morphisms[-1][1])
    d, models = job["span"], job["models"]
    out = []
    for side, span in enumerate(spans):
        sig = span.target
        data = workloads.side_model(d, models, side)
        alg = make_algebra(sig.fopeq, 1, {"U": tuple(models["carrier"])},
                           {d["const"]: {(): models["k"]}})
        out.append(make_model(sig, alg, data["init"], data["rel"]))
    return out[0], out[1], spans[0], spans[1]


class Runner:
    def __init__(self):
        from click.testing import CliRunner
        from evtforge.cli import main

        self.cli = CliRunner()
        self.main = main

    def prepare(self, job: dict):
        return _amalgam_inputs(job) if job["kind"] == "amalgamate" else None

    def call(self, job: dict, prep):
        """The timed part of a job."""
        if job["kind"] == "cli":
            return self.cli.invoke(self.main, job["args"])
        m1, m2, s1, s2 = prep
        from evtforge.institution import amalgamate
        return amalgamate(m1, m2, s1, s2)

    def check(self, job: dict, prep, result) -> tuple[str | None, int]:
        """(failure reason or None, characters written to stdout)."""
        if job["kind"] == "cli":
            exc = result.exception
            if exc is not None and not isinstance(exc, SystemExit):
                return f"unexpected {type(exc).__name__}: {exc}", 0
            out = result.stdout
            return workloads.check_job(job, result.exit_code, out, result.stderr), len(out)
        from evtforge.institution import evt_pushout
        m1, m2, s1, s2 = prep
        merged, j1, j2 = evt_pushout(s1, s2)
        return workloads.check_amalgam(job, merged, j1, j2, result[0]), 0


def _run_one(runner: Runner, job: dict, tracer=None):
    """Run and check one job: (wall seconds, seconds at the reference host
    speed, failure reason or None, stdout chars)."""
    try:
        prep = runner.prepare(job)
    except Exception as e:  # a broken input builder is a failed job, not a crash
        return 0.0, 0.0, f"preparation failed: {type(e).__name__}: {e}", 0
    gc.collect()
    before = hostspeed.sample()
    t0 = perf_counter()
    try:
        if tracer is None:
            result = runner.call(job, prep)
        else:
            result = tracer.run_job(job["id"], runner.call, job, prep)
    except Exception as e:  # the program raised out of a library call
        dt = perf_counter() - t0
        return dt, dt, f"unexpected {type(e).__name__}: {e}", 0
    dt = perf_counter() - t0
    ref = hostspeed.normalise(dt, before, hostspeed.sample())
    try:
        reason, chars = runner.check(job, prep, result)
    except Exception as e:  # malformed output the checker could not read
        reason, chars = f"output unreadable: {type(e).__name__}: {e}", 0
    return dt, ref, reason, chars


def timed(jobs: list[dict], seconds: float) -> dict:
    """Whole passes over the job list: at least two, then more while the
    time left allows one more.  Latencies are kept per pass, in job order,
    at the reference host speed and as measured."""
    runner = Runner()
    passes, wall, failures = [], [], []
    rss_first_pass = 0
    start = perf_counter()
    while True:
        lat, raw = [], []
        for job in jobs:
            dt, ref, reason, _ = _run_one(runner, job)
            lat.append(ref)
            raw.append(dt)
            if reason:
                failures.append(f"{job['id']}: {reason}")
        passes.append(lat)
        wall.append(raw)
        if len(passes) == 1:
            rss_first_pass = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        elapsed = perf_counter() - start
        if len(passes) >= 2 and elapsed + elapsed / len(passes) > seconds:
            break
    return {"passes": passes, "wall_passes": wall, "failures": failures,
            "wall_s": perf_counter() - start, "peak_rss_kb": rss_first_pass}


# groups of layers whose combined share of job time the traced run reports
SHARES = {
    "maximal_model": {"institution.maximal_model"},
    "front_end": {"eventb.parse_text", "rodin.parse_rodin_paths", "translate.translate",
                  "sugar.print_library", "sugar.parse_document", "specs.sig_of"},
    "morphisms": {"institution.evt_pushout", "institution.amalgamate",
                  "institution.model_reduct", "sugar.parse_signature_document"},
}


def traced(job_lists: list[tuple[str, list[dict]]]) -> dict:
    from tracer import Tracer

    runner = Runner()
    out = {}
    spans = []
    for workload, jobs in job_lists:
        tracer = Tracer()
        tracer.install()
        lat, failures, chars = [], [], 0
        try:
            for job in jobs:
                _, ref, reason, n = _run_one(runner, job, tracer)
                lat.append(ref)
                chars += n
                if reason:
                    failures.append(f"{job['id']}: {reason}")
        finally:
            tracer.uninstall()
        job_total = tracer.totals().get("job", 0.0)
        out[workload] = {
            "latencies": lat, "failures": failures, "job_s": job_total,
            "self_s": tracer.self_times(), "total_s": tracer.totals(),
            "counts": dict(tracer.counts), "output_chars": chars,
            "absent": tracer.absent,
            "covered": {k: tracer.covered(v) for k, v in SHARES.items()},
        }
        spans.extend({"workload": workload, **s} for s in tracer.span_records())
    return {"workloads": out, "spans": spans}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--jobs", action="append", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    lists = []
    for p in args.jobs:
        spec = json.loads(Path(p).read_text(encoding="utf-8"))
        lists.append((spec["workload"], spec["jobs"]))
    if args.trace:
        result = traced(lists)
    else:
        result = timed(lists[0][1], args.seconds)
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
