#!/usr/bin/env python3
"""loggas benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload ground-state --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from `src/` of the checkout
that holds this file. Every input is drawn from `--seed`. The workload
runs in a fresh process with at most `nproc` BLAS threads. Set-up time
is the median over that process and two more that only set up.

Standard output, one JSON object per line:
  1. `{"env": ...}`    cores, library versions, BLAS, git sha, seed;
  2. `{"detail": ...}` every named metric of the workload with its unit
     (the per-layer ones, call counts and tracing overhead with --trace 1);
  3. the result: `correct`, `attempted`, `failed` and `metrics`, which
     holds the `end_to_end` metrics of BENCHMARK.json with --trace 0
     and its `per_layer` metrics with --trace 1.
The worker's full record, spans included, goes to
`.perfbench_out/<workload>-seed<seed>-trace<0|1>.json` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ground-state", "gibbs", "confinement", "oracles")
SETUP_ONLY_RUNS = 2  # plus the worker's own set-up: setup_s is a median of 3
DEADLINE_S = 175.0  # the whole run, set-up samples included


def _child_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def _worker(args, extra: list[str], env: dict, timeout: float) -> dict:
    """Run worker.py to completion and return its last line of output."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"perfbench: worker exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _unit(name: str, units: dict) -> str:
    if name in units:
        return units[name]
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith((".calls", ".spans")) or ".iterations." in name or ".accepted_steps." in name:
        return "count"
    return "1"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one loggas benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "loggas" / "__init__.py").is_file():
        print(f"perfbench: no loggas source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    named = json.loads((HERE / "metrics.json").read_text())
    start = time.perf_counter()
    env = _child_env()

    setups = [_worker(args, ["--setup-only"], env, 60.0) for _ in range(SETUP_ONLY_RUNS)]
    out = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    res = _worker(args, ["--out", str(out)], env, DEADLINE_S - (time.perf_counter() - start))
    setups.append(res["setup"])

    detail = {"setup_s": statistics.median(s["setup_s"] for s in setups),
              "setup_raw_s": statistics.median(s["setup_raw_s"] for s in setups),
              **res["detail"]}
    calls = detail.pop("calls", None)
    wanted = named["workloads"][args.workload]["trace" if args.trace else "untraced"]
    missing = [m for m in wanted if detail.get(m) is None]
    if missing:
        print(f"perfbench: named metrics not measured: {missing}", file=sys.stderr)
        return 3
    units = {m: spec["unit"] for m, spec in named["metrics"].items()}
    print(json.dumps({"env": res["env"]}))
    shown = {k: {"value": v, "unit": _unit(k, units)} for k, v in detail.items()}
    print(json.dumps({"detail": shown, **({"calls": calls} if calls else {})}))

    contract = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": detail[m["name"]], "unit": m["unit"]} for m in contract}
    print(json.dumps({
        "correct": res["failed"] == 0 and all(s["setup_failed"] == 0 for s in setups),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
