"""One workload in one fresh process: set up, run passes, check, summarize.

Started by `run.py`, never by hand. Prints its result as one JSON line.
With `--setup-only` it stops after set-up and prints only the set-up
times, so that `run.py` can time several fresh starts.

Set-up is everything from the top of this file to the first pass, timed
on the speed meter's clock and calibrated: importing numpy, scipy and
loggas, drawing the inputs from the seed, building the reference values,
and one warm-up pass over the probe jobs (one tiny call per layer).
Interpreter start-up before this file runs is not counted. A pass then
runs the probe jobs and the workload's jobs once, in order; jobs marked
`traced_only` join only in traced runs. Passes repeat while
the next one still fits in `--seconds`; at least one runs, and a traced
run alternates traced and untraced passes, at least one of each.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

T0 = time.perf_counter()

from speed import SETUP_INTERVAL_S, SpeedMeter  # noqa: E402  (numpy import counts as set-up)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# a run must end within 180 s; stop starting passes well before that
PASS_BUDGET_S = 120.0


def run_job(job, tracer, records: list, pass_no: int, traced: bool) -> None:
    """Run one job behind a guard, so a failure is counted and the pass goes on.

    A job that fails only a statistical test is repeated once with a fresh
    random stream and fails if the repeat fails too. With the standard error
    taken from 8 chain means, a 3-SE band misses a correct sampler about
    twice in a hundred runs; over many seeded runs that would report
    failures the program does not have, while a real bias still fails both
    attempts. Deterministic checks are never repeated.
    """
    from workloads import StatisticalMiss

    error, kind, obs, attempts = None, None, {}, 0
    start = tracer.clock()
    with tracer.span("job", job.name):
        for attempt in range(2):
            attempts += 1
            try:
                obs = job.run(attempt)
                error = kind = None
                break
            except StatisticalMiss as exc:
                error, kind = exc, "statistical"
            except Exception as exc:  # the job boundary: record, count, carry on
                error, kind = exc, _failure_kind(exc)
                break
    end = tracer.clock()
    if error is not None:
        print(f"perfbench: {job.name} failed ({kind}): {error}", file=sys.stderr)
        if kind == "other":
            traceback.print_exception(error, file=sys.stderr)
    records.append({"pass": pass_no, "traced": traced, "job": job.name, "e2e": job.e2e,
                    "start": start, "seconds": end - start, "ok": error is None, "kind": kind,
                    "attempts": attempts, "obs": obs})


def _failure_kind(exc: BaseException) -> str:
    from loggas import errors
    from workloads import CheckFailed

    if isinstance(exc, CheckFailed):
        return "check"
    if isinstance(exc, (errors.DegenerateConfigError, errors.BracketError, errors.ConvergenceError)):
        return "typed"
    if isinstance(exc, RuntimeError) and "energy cache drifted" in str(exc):
        return "cache-drift"
    return "other"


def env_block(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = sorted((ROOT / "src" / "loggas").glob("*.py"))
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in src)).hexdigest()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_sha": _git_sha(),
        "src_sha256": digest,
        "workload": workload,
        "seed": seed,
    }


def _git_sha() -> str | None:
    """HEAD of the checkout read from .git, or None outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _median(values):
    return statistics.median(values) if values else None


def summarize(records: list, passes: list, tracer, meter) -> dict:
    """Named metrics of the run; the traced part only when spans exist.

    Every time is calibrated by the speed meter (`speed.py`): scaled by
    the meter's factor over its own window, or over its pass when no
    sample fell inside it.
    """
    from spans import call_counts, self_times
    from workloads import LAYERS, derived

    def calibrated(seconds, start, pass_no):
        return seconds * (meter.factor(start, start + seconds) or passes[pass_no]["factor"])

    ok_records = [r for r in records if r["ok"]]
    out: dict = {}

    # job timings behind the named end-to-end metrics
    by_e2e: dict = {}
    steps = []
    for r in ok_records:
        if r["traced"]:
            continue
        t = calibrated(r["seconds"], r["start"], r["pass"])
        if r["e2e"]:
            by_e2e.setdefault(r["e2e"], []).append(t)
        if "chain_steps" in r["obs"]:
            steps.append((r["obs"]["chain_steps"], t))
    for name, secs in by_e2e.items():
        out[name] = _median(secs)
    if steps:
        out["chain_steps_per_s"] = sum(s for s, _ in steps) / sum(t for _, t in steps)

    # observations: per pass (max for *_max names), then median over passes
    per_pass: dict = {}
    for r in ok_records:
        for k, v in r["obs"].items():
            if k == "chain_steps":
                continue
            slot = per_pass.setdefault(k, {})
            slot[r["pass"]] = max(slot.get(r["pass"], -math.inf), v) if k.endswith("_max") else v
    for k, slot in per_pass.items():
        out[k] = _median(list(slot.values()))

    spans = [s for s in tracer.spans if s.pass_no >= 0]
    if spans:
        self_s = self_times(spans)
        traced_passes = sorted({s.pass_no for s in spans})
        # median duration of each layer call, by function and input tag
        durations: dict = {}
        for s in spans:
            if s.name.split(".")[0] in LAYERS:
                durations.setdefault(f"{s.name}_s.{s.tag}", []).append(
                    calibrated(s.seconds, s.start, s.pass_no))
        for k, v in durations.items():
            out[k] = _median(v)
        for layer in LAYERS:
            mine = [s for s in spans if s.name.split(".")[0] == layer]
            out[f"{layer}.self_s"] = _median([
                sum(calibrated(self_s[s.id], s.start, p) for s in mine if s.pass_no == p)
                for p in traced_passes])
            out[f"{layer}.calls"] = len(mine) / len(traced_passes)
        out["trace.spans"] = len(spans) / len(traced_passes)
        out["trace.overhead_s"] = (_median([p["wall"] for p in passes if p["traced"]])
                                   - _median([p["wall"] for p in passes if not p["traced"]]))
        out["calls"] = {k: v / len(traced_passes) for k, v in sorted(call_counts(spans).items())}
        out.update(derived(out))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "loggas" / "__init__.py").is_file():
        print(f"perfbench: no loggas package under {src}", file=sys.stderr)
        return 2
    meter = SpeedMeter()
    meter.start(SETUP_INTERVAL_S)
    sys.path.insert(0, str(src))
    import loggas

    if Path(loggas.__file__).resolve().parent != (src / "loggas").resolve():
        meter.stop()
        print(f"perfbench: imported loggas from {loggas.__file__}, not {src}", file=sys.stderr)
        return 2

    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        meter.stop()
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    tracer = Tracer(args.workload, clock=meter.clock)
    tracer.enabled = bool(args.trace)
    ctx = workloads.Context(loggas=loggas, tracer=tracer, seed=args.seed)
    probes = workloads.probe_jobs(ctx)
    jobs = probes + [j for j in workloads.WORKLOADS[args.workload](ctx) if args.trace or not j.traced_only]
    records: list = []
    for job in probes:
        run_job(job, tracer, records, -1, tracer.enabled)
    # T0 is on the meter's clock too: the meter had spent nothing then
    setup_raw_s = meter.clock() - T0
    setup = {"setup_s": setup_raw_s * (meter.factor(T0, T0 + setup_raw_s) or 1.0),
             "setup_raw_s": setup_raw_s,
             "setup_failed": sum(not r["ok"] for r in records)}
    if args.setup_only:
        meter.stop()
        print(json.dumps(setup))
        return 0

    passes: list = []
    start = time.perf_counter()
    meter.start()
    try:
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 0
            tracer.enabled, tracer.pass_no = traced, len(passes)
            t = meter.clock()
            for job in jobs:
                run_job(job, tracer, records, len(passes), traced)
            raw = meter.clock() - t
            factor = meter.factor(t, t + raw) or 1.0
            passes.append({"traced": traced, "raw": raw, "factor": factor, "wall": raw * factor})
            if args.trace and len(passes) < 2:
                continue
            longest = max(p["raw"] for p in passes)
            if time.perf_counter() - start + longest > min(args.seconds, PASS_BUDGET_S):
                break
    finally:
        meter.stop()
    tracer.enabled = False

    measured = [r for r in records if r["pass"] >= 0]
    failed = sum(not r["ok"] for r in measured)
    untraced = [p for p in passes if not p["traced"]]
    detail = summarize(measured, passes, tracer, meter)
    detail.update({
        "wall_s": _median([p["wall"] for p in untraced]),
        "wall_raw_s": _median([p["raw"] for p in untraced]),
        "speed_factor": _median([p["factor"] for p in passes]),
        "meter_share": meter.spent / (time.perf_counter() - start),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": failed / len(measured),
        "passes": len(passes),
        "retried_jobs": sum(r["attempts"] > 1 for r in measured),
    })
    result = {
        "attempted": len(measured),
        "failed": failed,
        "setup": setup,
        "detail": detail,
        "failures": [{"pass": r["pass"], "job": r["job"], "kind": r["kind"]} for r in records if not r["ok"]],
        "env": env_block(args.workload, args.seed),
    }
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        jobs_run = [{k: r[k] for k in ("pass", "job", "start", "seconds", "ok")} for r in records]
        record = {**result, "passes": passes, "jobs": jobs_run, "spans": tracer.to_json(), "meter": meter.samples}
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
