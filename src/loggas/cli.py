"""Command-line front door: subcommands, manifests, CSV/JSON emission.

Numerical outputs are deterministic given the manifest (seeded RNG
everywhere, shortest round-trip float formatting); timestamps live only
in the manifest sidecar so repeated runs produce byte-identical data.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import BracketError, ConvergenceError, DegenerateConfigError
from . import fekete as fekete_mod
from . import field as field_mod
from . import model as model_mod
from . import partition as partition_mod
from . import renorm as renorm_mod
from . import sampler as sampler_mod
from . import verify as verify_mod


def _fmt(x) -> str:
    # shortest round-trip decimal
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _resolve_potential(args) -> model_mod.Potential:
    if getattr(args, "coeffs", None):
        coeffs = [float(t) for t in args.coeffs.split(",")]
        return model_mod.polynomial(coeffs)
    name = getattr(args, "potential", "quadratic") or "quadratic"
    if name not in model_mod.BUILTIN_POTENTIALS:
        raise ValueError(
            f"unknown potential {name!r}; choose from {sorted(model_mod.BUILTIN_POTENTIALS)}"
        )
    return model_mod.BUILTIN_POTENTIALS[name]()


def _out_dir(args) -> Path | None:
    if getattr(args, "out", None):
        p = Path(args.out)
        p.mkdir(parents=True, exist_ok=True)
        return p
    return None


def _write_manifest(out: Path | None, command: str, args, seed) -> None:
    if out is None:
        return
    params = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "out") and v is not None
    }
    manifest = {
        "command": command,
        "parameters": params,
        "seed": seed,
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    (out / f"manifest-{command}.json").write_text(json.dumps(manifest, indent=2) + "\n")


# ---------------------------------------------------------------------------
# subcommands


#: times `_solve_equilibrium` doubles a bracket that the support overflows
BRACKET_DOUBLINGS = 3


def _solve_equilibrium(V: model_mod.Potential, n_nodes: int = 2000, tol: float = 1e-3):
    """Equilibrium measure of V on [-R, R] and its constants.

    R starts at V's growth-check radius. While mass piles up on the grid
    ends (BracketError), R doubles, at most BRACKET_DOUBLINGS times, with
    the same node count; the last BracketError propagates.
    """
    R = V.growth_check_radius
    for doublings in range(BRACKET_DOUBLINGS + 1):
        try:
            mu = model_mod.solve_equilibrium(V, np.linspace(-R, R, n_nodes), tol=tol)
            break
        except BracketError:
            if doublings == BRACKET_DOUBLINGS:
                raise
            R *= 2.0
    return mu, model_mod.model_constants(mu, V)


def _write_csv(out: Path | None, name: str, header: list, rows: list) -> None:
    """Write a CSV file `name` under `out`, or to stdout when there is no --out."""
    if out is None:
        csv.writer(sys.stdout).writerows([header, *rows])
        return
    with (out / name).open("w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


def _cmd_equilibrium(args) -> int:
    V = _resolve_potential(args)
    mu, consts = _solve_equilibrium(V, args.n or 2000, args.tol or 1e-3)
    text = model_mod.measure_to_json(mu, consts)
    out = _out_dir(args)
    if out:
        (out / "measure.json").write_text(text + "\n")
        _write_manifest(out, "equilibrium", args, None)
    else:
        print(text)
    return 0


def _cmd_fekete(args) -> int:
    V = _resolve_potential(args)
    res = fekete_mod.minimize(args.n, V, seed=args.seed or 0, tol=args.tol)
    payload = {
        "n": args.n,
        "points": [float(v) for v in res.config.points],
        "grad_norm": res.grad_norm,
        "iterations": res.iterations,
        "converged": res.converged,
        "breakdown": None if res.breakdown is None else json.loads(res.breakdown.to_json()),
    }
    out = _out_dir(args)
    if out:
        (out / "fekete.json").write_text(json.dumps(payload, indent=2) + "\n")
        _write_csv(out, "fekete.csv", ["index", "x"],
                   [[i, _fmt(float(x))] for i, x in enumerate(res.config.points)])
        _write_manifest(out, "fekete", args, args.seed or 0)
    else:
        print(json.dumps(payload, indent=2))
    return 0


def _cmd_sample(args) -> int:
    V = _resolve_potential(args)
    cfg = sampler_mod.SamplerConfig(
        n=args.n,
        beta=args.beta,
        V=V,
        steps=args.steps or 100_000,
        chains=args.chains or 4,
        seed=args.seed or 0,
    )
    stats = sampler_mod.run(cfg)
    out = _out_dir(args)
    provenance = {
        "n": cfg.n,
        "beta": cfg.beta,
        "potential": V.label,
        "steps": cfg.steps,
        "burn_in": cfg.burn_in,
        "thinning": cfg.thinning,
        "chains": cfg.chains,
        "seed": cfg.seed,
        "init": cfg.init,
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
    if out:
        (out / "stats.json").write_text(json.dumps(summary, indent=2) + "\n")
        header = "sample," + ",".join(f"x{i}" for i in range(cfg.n))
        rows = [header]
        for k, row in enumerate(stats.samples):
            rows.append(str(k) + "," + ",".join(_fmt(v) for v in row))
        (out / "samples.csv").write_text("\n".join(rows) + "\n")
        _write_manifest(out, "sample", args, cfg.seed)
    else:
        print(json.dumps(summary, indent=2))
    return 0


def _cmd_renorm(args) -> int:
    if args.lattice:
        cfg = renorm_mod.lattice(args.N)
    else:
        data = json.load(sys.stdin)
        cfg = renorm_mod.PeriodicConfig(int(data["N"]), np.asarray(data["points"], dtype=float))
    w = renorm_mod.periodic_w(cfg)
    print(f"{w:.12f}")
    out = _out_dir(args)
    if out:
        (out / "renorm.json").write_text(
            json.dumps({"N": cfg.period, "points": [float(v) for v in cfg.points], "w": w}, indent=2)
            + "\n"
        )
        _write_manifest(out, "renorm", args, None)
    return 0


def _cmd_verify_field(args) -> int:
    rows = []
    cases = verify_mod.field_cases(np.random.default_rng(args.seed or 0), 5 if args.n is None else args.n)
    tol = args.tol or 0.01
    worst = 0.0
    eta, npu = 1e-3, 8
    for name, cfg in cases:
        w_exact = renorm_mod.periodic_w(cfg)
        y_cut = float(max(cfg.period, 4.0))
        w_quad = field_mod.w_quadrature(
            field_mod.make_field(cfg), eta=eta, y_cut=y_cut, nodes_per_unit=npu
        )
        rel = abs(w_quad - w_exact) / abs(w_exact)
        worst = max(worst, rel)
        rows.append([name, cfg.period, _fmt(w_exact), _fmt(w_quad), _fmt(eta), _fmt(y_cut), _fmt(rel)])
    out = _out_dir(args)
    _write_csv(out, "verify_field.csv",
               ["config_id", "N", "periodic_w", "w_quadrature", "eta", "y_cut", "rel_err"], rows)
    if out:
        _write_manifest(out, "verify-field", args, args.seed or 0)
    return 0 if worst <= tol else 1


def _cmd_partition(args) -> int:
    V = _resolve_potential(args)
    method = args.method or "exact-quadratic"
    n, beta = args.n, args.beta
    err = 0.0
    if method == "exact-quadratic":
        if model_mod.equilibrium_for(V) is None:
            raise ValueError("exact-quadratic method requires the quadratic potential")
        log_z = partition_mod.mehta_log_z(n, beta)
    elif method == "quadrature":
        log_z = partition_mod.quadrature_log_z(n, beta, V)
    elif method == "thermo":
        log_z, err = partition_mod.thermo_log_z(n, beta, V)
    else:
        raise ValueError(f"unknown method {method!r}")
    _, consts = model_mod.equilibrium_for(V) or _solve_equilibrium(V)
    report = partition_mod.next_order_report(n, beta, consts, log_z, method=method, error_bar=err)
    text = json.dumps(report.to_json_dict(), indent=2)
    out = _out_dir(args)
    if out:
        (out / "partition.json").write_text(text + "\n")
        _write_manifest(out, "partition", args, None)
    else:
        print(text)
    return 0


def _cmd_partition_sweep(args) -> int:
    ns = [int(t) for t in str(args.n).split(",")]
    betas = [float(t) for t in str(args.beta).split(",")]
    _, consts = model_mod.equilibrium_for(model_mod.quadratic())
    rows = []
    for n in ns:
        for beta in betas:
            log_z = partition_mod.mehta_log_z(n, beta)
            rep = partition_mod.next_order_report(n, beta, consts, log_z)
            rows.append([n, _fmt(beta), _fmt(rep.log_z), _fmt(rep.next_order), rep.method])
    out = _out_dir(args)
    _write_csv(out, "partition_sweep.csv", ["n", "beta", "log_z", "next_order", "method"], rows)
    if out:
        _write_manifest(out, "partition-sweep", args, None)
    return 0


def _cmd_verify(args) -> int:
    results = verify_mod.run_all(fast=bool(args.fast))
    width = max(len(r.name) for r in results)
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        ok &= r.passed
        print(f"[{status}] {r.name:<{width}}  {r.detail}  ({r.seconds:.1f}s)")
    print("all checks passed" if ok else "some checks FAILED")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="loggas",
        description="Numerical laboratory for one-dimensional log gases.",
    )
    p.add_argument("--version", action="version", version=f"loggas {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, *flags):
        if "n" in flags:
            sp.add_argument("--n", type=int, help="particle count / node count")
        if "beta" in flags:
            sp.add_argument("--beta", type=float, help="inverse temperature")
        if "N" in flags:
            sp.add_argument("--N", type=int, help="periodic configuration size")
        if "potential" in flags:
            sp.add_argument("--potential", choices=sorted(model_mod.BUILTIN_POTENTIALS), help="built-in potential")
            sp.add_argument("--coeffs", help="polynomial coefficients, ascending, comma separated")
        if "seed" in flags:
            sp.add_argument("--seed", type=int, help="master RNG seed")
        if "steps" in flags:
            sp.add_argument("--steps", type=int, help="post burn-in steps per chain")
        if "chains" in flags:
            sp.add_argument("--chains", type=int, help="independent chains")
        if "tol" in flags:
            sp.add_argument("--tol", type=float, help="tolerance")
        if "out" in flags:
            sp.add_argument("--out", help="output directory (default: print to stdout)")
        if "threads" in flags:
            sp.add_argument("--threads", type=int, help="ignored: chains run in lockstep in one thread")
        if "method" in flags:
            sp.add_argument("--method", help="method tag")

    sp = sub.add_parser("equilibrium", help="solve the equilibrium measure on a grid")
    common(sp, "n", "potential", "tol", "out")
    sp.set_defaults(func=_cmd_equilibrium)

    sp = sub.add_parser("fekete", help="minimize w_n; CSV of points plus JSON result")
    common(sp, "n", "potential", "seed", "tol", "out")
    sp.set_defaults(func=_cmd_fekete)
    sp = sub.add_parser("sample", help="Metropolis sampling of the Gibbs law")
    common(sp, "n", "beta", "potential", "seed", "steps", "chains", "out", "threads")
    sp.set_defaults(func=_cmd_sample)

    sp = sub.add_parser("renorm", help="renormalized energy of a periodic configuration")
    common(sp, "N", "out")
    sp.add_argument("--lattice", action="store_true", help="use the integer lattice")
    sp.set_defaults(func=_cmd_renorm)

    sp = sub.add_parser("verify-field", help="field quadrature vs closed form, CSV report")
    common(sp, "n", "seed", "tol", "out")
    sp.set_defaults(func=_cmd_verify_field)

    sp = sub.add_parser("partition", help="log partition function and next-order report")
    common(sp, "n", "beta", "potential", "method", "out")
    sp.set_defaults(func=_cmd_partition)

    sp = sub.add_parser("partition-sweep", help="next-order over an (n, beta) grid, CSV")
    sp.add_argument("--n", required=True, help="comma-separated particle counts")
    sp.add_argument("--beta", required=True, help="comma-separated inverse temperatures")
    sp.add_argument("--out", help="output directory")
    sp.set_defaults(func=_cmd_partition_sweep)

    sp = sub.add_parser("verify", help="run the acceptance cross-check suite")
    sp.add_argument("--fast", action="store_true", help="reduced sampling budgets")
    sp.set_defaults(func=_cmd_verify)
    return p


def dispatch(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    required = {
        "fekete": ("n",), "sample": ("n", "beta"), "renorm": ("N",),
        "partition": ("n", "beta"),
    }
    for flag in required.get(args.command, ()):
        if getattr(args, flag, None) is None:
            parser.error(f"--{flag} is required for {args.command!r}")
    try:
        return args.func(args)
    except (ValueError, BracketError, ConvergenceError, DegenerateConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
