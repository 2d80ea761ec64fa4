"""Command-line front door: each `_cmd_*` subcommand returns a `Result`
(its files as {name: text}, manifest seed, stdout text and exit code),
and `_emit` applies the one output rule. Without --out it prints the
stdout text, or else the first file; with --out it writes every file and
`manifest-<command>.json`, and still prints the stdout text.

Numerical outputs are deterministic given the manifest (seeded RNG
everywhere, shortest round-trip float formatting); timestamps live only
in the manifest sidecar so repeated runs produce byte-identical data.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .errors import BracketError, ConvergenceError, DegenerateConfigError
from . import fekete as fekete_mod
from . import model as model_mod
from . import partition as partition_mod
from . import renorm as renorm_mod
from . import sampler as sampler_mod
from . import verify as verify_mod


class Result(NamedTuple):
    """What a subcommand hands to `_emit`."""

    files: dict[str, str]
    seed: int | None = None
    stdout: str | None = None
    code: int = 0


def _fmt(x) -> str:
    # shortest round-trip decimal
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _csv(header: list, rows: list) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *rows])
    return buf.getvalue()


def _json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _resolve_potential(args) -> model_mod.Potential:
    if args.coeffs:
        return model_mod.polynomial([float(t) for t in args.coeffs.split(",")])
    return model_mod.BUILTIN_POTENTIALS[args.potential or "quadratic"]()


def _given(args, **names) -> dict:
    """{keyword: value} of each given flag in {keyword: flag}; the library's defaults fill the rest."""
    return {kw: getattr(args, flag) for kw, flag in names.items() if getattr(args, flag) is not None}


def _emit(args, res: Result) -> int:
    out = getattr(args, "out", None)
    if out:
        manifest = {
            "command": args.command,
            "parameters": {k: v for k, v in sorted(vars(args).items())
                           if k not in ("func", "out") and v is not None},
            "seed": res.seed,
            "tool_version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(),
        }
        Path(out).mkdir(parents=True, exist_ok=True)
        for name, text in {**res.files, f"manifest-{args.command}.json": _json(manifest)}.items():
            with (Path(out) / name).open("w", newline="") as fh:
                fh.write(text)
    if res.stdout is not None:
        sys.stdout.write(res.stdout)
    elif not out:
        sys.stdout.write(next(iter(res.files.values())))
    return res.code


# ---------------------------------------------------------------------------
# subcommands


def _solve_equilibrium(V: model_mod.Potential, n_nodes: int = 2000, tol: float = 1e-3):
    """Equilibrium measure of V on linspace(x0 - R, x0 + R, n_nodes), and its constants. One solve:
    x0 = -c_{d-1}/(d c_d), the mean of the roots of V', is 0 for an even V, and the
    `growth_check_radius` R of V(x0 + y) bounds the support about x0, however far from 0 it lies."""
    c = V.coeffs
    x0 = -c[-2] / ((len(c) - 1) * c[-1])
    P = np.polynomial.Polynomial
    R = model_mod.polynomial(P(c)(P([x0, 1.0])).coef).growth_check_radius
    mu = model_mod.solve_equilibrium(V, np.linspace(x0 - R, x0 + R, n_nodes), tol=tol)
    return mu, model_mod.model_constants(mu, V)


def _cmd_equilibrium(args) -> Result:
    mu, consts = _solve_equilibrium(_resolve_potential(args), **_given(args, n_nodes="n", tol="tol"))
    return Result({"measure.json": model_mod.measure_to_json(mu, consts) + "\n"})


def _cmd_fekete(args) -> Result:
    res = fekete_mod.minimize(args.n, _resolve_potential(args), seed=args.seed or 0, tol=args.tol)
    payload = {
        "n": args.n,
        "points": [float(v) for v in res.config.points],
        "grad_norm": res.grad_norm,
        "iterations": res.iterations,
        "converged": res.converged,
        "mirrored": res.mirrored,
        "cholesky_tests": res.cholesky_tests,
        "breakdown": None if res.breakdown is None else asdict(res.breakdown),
    }
    rows = [[i, _fmt(float(x))] for i, x in enumerate(res.config.points)]
    return Result({"fekete.json": _json(payload), "fekete.csv": _csv(["index", "x"], rows)},
                  seed=args.seed or 0)


def _cmd_sample(args) -> Result:
    cfg = sampler_mod.SamplerConfig(n=args.n, beta=args.beta, V=_resolve_potential(args),
                                    **_given(args, steps="steps", chains="chains", seed="seed"))
    stats = sampler_mod.run(cfg)
    provenance = {
        "n": cfg.n,
        "beta": cfg.beta,
        "potential": cfg.V.label,
        "steps": cfg.steps,
        "burn_in": cfg.burn_in,
        "thinning": cfg.thinning,
        "chains": cfg.chains,
        "seed": cfg.seed,
        "step_scale": cfg.initial_step_scale,
    }
    summary = {
        "config": provenance,
        "mean_energy": stats.mean_energy,
        "mean_energy_se": stats.mean_energy_se,
        "r_hat": stats.r_hat,
        "converged": stats.converged,
        "acceptance": stats.acceptance,
        "chain_acceptance": [float(a) for a in stats.chain_acceptance],
        "step_scales": [float(h) for h in stats.step_scales],
        "cache_drift": [float(d) for d in stats.cache_drift],
        "steps_per_s": stats.steps_per_s,
        "windows": {
            f"{x0},{R}": {
                "mean_count": float(np.mean(trace)),
                "var_count": float(np.var(trace)),
            }
            for (x0, R), trace in stats.count_traces.items()
        },
        "spacing_variance": float(np.var(stats.spacing_samples))
        if stats.spacing_samples.size
        else None,
    }
    # "\n" line ends, not the csv module's "\r\n"
    rows = ["sample," + ",".join(f"x{i}" for i in range(cfg.n))]
    rows += [str(k) + "," + ",".join(_fmt(v) for v in row) for k, row in enumerate(stats.samples)]
    return Result({"stats.json": _json(summary), "samples.csv": "\n".join(rows) + "\n"}, seed=cfg.seed)


def _cmd_renorm(args) -> Result:
    if args.lattice:
        cfg = renorm_mod.lattice(args.N)
    else:
        data = json.load(sys.stdin)
        cfg = renorm_mod.PeriodicConfig(int(data["N"]), np.asarray(data["points"], dtype=float))
    w = renorm_mod.periodic_w(cfg)
    payload = {"N": cfg.period, "points": [float(v) for v in cfg.points], "w": w}
    return Result({"renorm.json": _json(payload)}, stdout=f"{w:.12f}\n")


def _cmd_verify_field(args) -> Result:
    cases = verify_mod.field_cases(np.random.default_rng(args.seed or 0), 5 if args.n is None else args.n)
    rows = verify_mod.field_errors(cases)
    worst = max(row[-1] for row in rows)
    header = ["config_id", "N", "periodic_w", "w_quadrature", "eta", "y_cut", "rel_err"]
    text = _csv(header, [[_fmt(v) for v in row] for row in rows])
    tol = verify_mod.FIELD_RTOL if args.tol is None else args.tol
    return Result({"verify_field.csv": text}, seed=args.seed or 0, code=0 if worst <= tol else 1)


def _cmd_partition(args) -> Result:
    V = _resolve_potential(args)
    method, n, beta = args.method or "exact-quadratic", args.n, args.beta
    err = 0.0
    if method == "exact-quadratic":
        if V != model_mod.quadratic():
            raise ValueError("exact-quadratic method requires the quadratic potential")
        log_z = partition_mod.mehta_log_z(n, beta)
    elif method == "quadrature":
        log_z = partition_mod.quadrature_log_z(n, beta, V)
    else:
        log_z, err = partition_mod.thermo_log_z(n, beta, V)
    _, consts = model_mod.equilibrium_for(V) or _solve_equilibrium(V)
    report = partition_mod.next_order_report(n, beta, consts, log_z, method=method, error_bar=err)
    return Result({"partition.json": _json(asdict(report))})


def _cmd_partition_sweep(args) -> Result:
    reports = partition_mod.next_order_sweep([int(t) for t in args.n.split(",")],
                                             [float(t) for t in args.beta.split(",")])
    rows = [[r.n, _fmt(r.beta), _fmt(r.log_z), _fmt(r.next_order), r.method] for r in reports]
    return Result({"partition_sweep.csv": _csv(["n", "beta", "log_z", "next_order", "method"], rows)})


def _cmd_verify(args) -> Result:
    results = verify_mod.run_all(fast=args.fast)
    width = max(len(r.name) for r in results)
    ok = all(r.passed for r in results)
    lines = [f"[{'PASS' if r.passed else 'FAIL'}] {r.name:<{width}}  {r.detail}  ({r.seconds:.1f}s)\n"
             for r in results]
    lines.append("all checks passed\n" if ok else "some checks FAILED\n")
    return Result({}, stdout="".join(lines), code=0 if ok else 1)


# ---------------------------------------------------------------------------
# parser


#: every flag's type, help and choices, declared once
FLAGS = {
    "n": dict(type=int, help="particles (fekete, sample, partition), grid nodes (equilibrium)"
              " or random configurations (verify-field)"),
    "beta": dict(type=float, help="inverse temperature"),
    "N": dict(type=int, help="periodic configuration size"),
    "potential": dict(choices=sorted(model_mod.BUILTIN_POTENTIALS), help="built-in potential"),
    "coeffs": dict(help="polynomial coefficients, ascending, comma separated"),
    "seed": dict(type=int, help="master RNG seed"),
    "steps": dict(type=int, help="post burn-in steps per chain"),
    "chains": dict(type=int, help="independent chains"),
    "tol": dict(type=float, help="gradient target (fekete), solver residual (equilibrium)"
                " or largest relative error for exit 0 (verify-field)"),
    "method": dict(choices=("exact-quadratic", "quadrature", "thermo"),
                   help="how to get log Z (default: exact-quadratic)"),
    "out": dict(help="output directory (default: print to stdout)"),
}

#: (command, function, help, required flags, optional flags)
COMMANDS = (
    ("equilibrium", _cmd_equilibrium, "solve the equilibrium measure on a grid",
     (), ("n", "potential", "coeffs", "tol", "out")),
    ("fekete", _cmd_fekete, "minimize w_n; CSV of points plus JSON result",
     ("n",), ("potential", "coeffs", "seed", "tol", "out")),
    ("sample", _cmd_sample, "Metropolis sampling of the Gibbs law",
     ("n", "beta"), ("potential", "coeffs", "seed", "steps", "chains", "out")),
    ("renorm", _cmd_renorm, "renormalized energy of a periodic configuration", ("N",), ("out",)),
    ("verify-field", _cmd_verify_field, "field quadrature vs closed form, CSV report",
     (), ("n", "seed", "tol", "out")),
    ("partition", _cmd_partition, "log partition function and next-order report",
     ("n", "beta"), ("potential", "coeffs", "method", "out")),
    ("partition-sweep", _cmd_partition_sweep, "next-order over an (n, beta) grid, CSV", (), ("out",)),
    ("verify", _cmd_verify, "run the acceptance cross-check suite", (), ()),
)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="loggas",
        description="Numerical laboratory for one-dimensional log gases.",
    )
    p.add_argument("--version", action="version", version=f"loggas {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    parsers = {}
    for name, func, help_, required, optional in COMMANDS:
        sp = parsers[name] = sub.add_parser(name, help=help_)
        for flag in required + optional:
            sp.add_argument(f"--{flag}", required=flag in required, **FLAGS[flag])
        sp.set_defaults(func=func)
    parsers["renorm"].add_argument("--lattice", action="store_true", help="use the integer lattice")
    parsers["partition-sweep"].add_argument("--n", required=True, help="comma-separated particle counts")
    parsers["partition-sweep"].add_argument("--beta", required=True, help="comma-separated inverse temperatures")
    parsers["verify"].add_argument("--fast", action="store_true", help="reduced sampling budgets")
    return p


def dispatch(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        res = args.func(args)
    except (ValueError, BracketError, ConvergenceError, DegenerateConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return _emit(args, res)


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
