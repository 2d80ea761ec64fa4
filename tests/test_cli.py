import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from loggas import BracketError, mehta_log_z, polynomial, quartic, solve_equilibrium
from loggas.cli import dispatch
from loggas.model import measure_from_json

SRC = Path(__file__).resolve().parents[1] / "src"


def test_renorm_lattice_stdout(capsys):
    assert dispatch(["renorm", "--lattice", "--N", "8"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == f"{-math.pi * math.log(2.0 * math.pi):.12f}"


def test_renorm_from_stdin(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"N": 2, "points": [0.0, 0.5]})))
    assert dispatch(["renorm", "--N", "2"]) == 0
    val = float(capsys.readouterr().out.strip())
    assert val == pytest.approx(-math.pi * math.log(math.pi * math.sqrt(2.0)), abs=1e-9)


def test_renorm_bad_period():
    assert dispatch(["renorm", "--lattice", "--N", "0"]) == 1


def test_missing_required_flag_exits_two():
    with pytest.raises(SystemExit) as e:
        dispatch(["fekete"])
    assert e.value.code == 2


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as e:
        dispatch(["no-such-command"])
    assert e.value.code == 2


@pytest.mark.parametrize("module", ["loggas.cli", "loggas"])
def test_module_runs(module):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    ok = subprocess.run([sys.executable, "-m", module, "renorm", "--help"], capture_output=True, text=True, env=env)
    assert ok.returncode == 0
    assert "--lattice" in ok.stdout
    bad = subprocess.run([sys.executable, "-m", module, "no-such-command"], capture_output=True, text=True, env=env)
    assert bad.returncode == 2


def test_fekete_outputs_and_determinism(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for d in (a, b):
        assert dispatch(["fekete", "--n", "6", "--seed", "3", "--out", str(d)]) == 0
    assert (a / "fekete.csv").read_bytes() == (b / "fekete.csv").read_bytes()
    payload = json.loads((a / "fekete.json").read_text())
    assert payload["n"] == 6
    assert payload["converged"] is True
    assert len(payload["points"]) == 6
    assert payload["grad_norm"] <= 1e-8 * 6
    manifest = json.loads((a / "manifest-fekete.json").read_text())
    assert manifest["command"] == "fekete"
    assert manifest["seed"] == 3
    # csv: header plus one row per point
    lines = (a / "fekete.csv").read_text().strip().splitlines()
    assert lines[0] == "index,x"
    assert len(lines) == 7


def test_equilibrium_output(tmp_path):
    out = tmp_path / "eq"
    assert dispatch(["equilibrium", "--n", "600", "--out", str(out)]) == 0
    mu, consts = measure_from_json((out / "measure.json").read_text())
    assert consts is not None
    assert mu.interval_mass(-3.0, 3.0) == pytest.approx(1.0, abs=1e-8)
    assert consts.mean_field_energy == pytest.approx(0.75, abs=2e-2)
    assert mu.support[0][0] == pytest.approx(-2.0, abs=0.1)


def test_equilibrium_doubles_a_bracket_the_support_overflows(tmp_path, capsys):
    # the support of 1e-4 x^4 is about [-10.7, 10.7], past the bracket [-8, 8] of polynomial()
    V = polynomial([0.0, 0.0, 0.0, 0.0, 1e-4])
    with pytest.raises(BracketError):
        solve_equilibrium(V, np.linspace(-8.0, 8.0, 600))
    assert dispatch(["equilibrium", "--coeffs", "0,0,0,0,0.0001", "--n", "600", "--out", str(tmp_path)]) == 0
    mu, consts = measure_from_json((tmp_path / "measure.json").read_text())
    assert (mu.nodes[0], mu.nodes[-1]) == (-16.0, 16.0)
    assert mu.support[0][0] == pytest.approx(-10.7, abs=0.2) and mu.support[0][1] == pytest.approx(10.7, abs=0.2)
    assert mu.residual < 1e-3 and mu.iterations > 0
    # a V whose support fits keeps its bracket and its output bit for bit
    assert dispatch(["equilibrium", "--potential", "quartic", "--n", "600"]) == 0
    mu, _ = measure_from_json(capsys.readouterr().out)
    direct = solve_equilibrium(quartic(), np.linspace(-4.0, 4.0, 600))
    assert np.array_equal(mu.nodes, direct.nodes) and np.array_equal(mu.weights, direct.weights)


def test_sample_outputs(tmp_path):
    out = tmp_path / "s"
    rc = dispatch(
        ["sample", "--n", "4", "--beta", "2", "--steps", "2000", "--chains", "2", "--seed", "1", "--out", str(out)]
    )
    assert rc == 0
    stats = json.loads((out / "stats.json").read_text())
    assert stats["config"]["n"] == 4
    assert stats["config"]["potential"] == "quadratic"
    assert 0.0 < stats["acceptance"] < 1.0
    assert len(stats["chain_acceptance"]) == len(stats["step_scales"]) == len(stats["cache_drift"]) == 2
    # burn-in 10,000 + 2,000 steps pass one energy audit
    assert all(0.0 <= d <= 1e-8 for d in stats["cache_drift"])
    assert math.isfinite(stats["steps_per_s"]) and stats["steps_per_s"] > 0.0
    lines = (out / "samples.csv").read_text().strip().splitlines()
    assert lines[0] == "sample,x0,x1,x2,x3"
    # 2 chains x 2000 steps / default thinning 50
    assert len(lines) == 1 + 2 * (2000 // 50)
    row = np.array([float(v) for v in lines[1].split(",")[1:]])
    assert np.all(np.diff(row) > 0)


def test_partition_json(capsys):
    assert dispatch(["partition", "--n", "8", "--beta", "2"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["method"] == "exact-quadratic"
    assert rep["log_z"] == pytest.approx(mehta_log_z(8, 2.0), rel=1e-12)
    assert "next_order" in rep and "error_bar" in rep


def test_partition_quartic_uses_quartic_constants(capsys):
    argv = ["partition", "--n", "2", "--beta", "2", "--potential", "quartic", "--method", "quadrature"]
    assert dispatch(argv) == 0
    rep = json.loads(capsys.readouterr().out)
    # invert next_order = (log Z + n^2 F - n log n) / (2 n) at n = 2, beta = 2 for F(mu0)
    F = (4.0 * rep["next_order"] - rep["log_z"] + 2.0 * math.log(2.0)) / 4.0
    # the quartic equilibrium (solve_equilibrium) has F = 0.6497; the semicircle's is 0.75
    assert F == pytest.approx(0.6497, abs=1e-3)


def test_partition_polynomial_half_x_squared_is_exact(capsys):
    assert dispatch(["partition", "--n", "2", "--beta", "2", "--coeffs", "0,0,0.5"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["method"] == "exact-quadratic"
    assert rep["log_z"] == mehta_log_z(2, 2.0)


def test_sample_rejects_a_v_that_does_not_confine(capsys):
    # V = 1 - 2x grows linearly: the chains would run off to -infinity
    assert dispatch(["sample", "--n", "4", "--beta", "2", "--coeffs", "1,-2", "--steps", "200", "--chains", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "does not confine" in captured.err


def test_fekete_rejects_non_finite_coefficients(capsys):
    assert dispatch(["fekete", "--n", "4", "--coeffs", "0,0,nan"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "finite" in captured.err


def test_partition_sweep_csv(capsys):
    assert dispatch(["partition-sweep", "--n", "4,8", "--beta", "1,2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,beta,log_z,next_order,method"
    assert len(lines) == 5


def test_verify_field_csv(tmp_path):
    out = tmp_path / "vf"
    rc = dispatch(["verify-field", "--n", "0", "--out", str(out)])
    assert rc == 0
    lines = (out / "verify_field.csv").read_text().strip().splitlines()
    assert lines[0] == "config_id,N,periodic_w,w_quadrature,eta,y_cut,rel_err"
    assert len(lines) == 4  # three lattice rows, no random configs
    for ln in lines[1:]:
        assert float(ln.split(",")[-1]) <= 0.01


def test_verify_field_skips_configs_near_w_zero(tmp_path):
    # seed 64 first draws a configuration with w = 0.0006, where a 4e-5
    # absolute error reads as 6.8 percent
    out = tmp_path / "vf"
    assert dispatch(["verify-field", "--seed", "64", "--n", "1", "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in (out / "verify_field.csv").read_text().strip().splitlines()[1:]]
    assert [r[0] for r in rows] == ["lattice-1", "lattice-2", "lattice-8", "random-0"]
    assert abs(float(rows[-1][2])) >= 0.5


def test_outputs_have_no_float_repr_leak(tmp_path):
    out = tmp_path / "clean"
    dispatch(["fekete", "--n", "4", "--seed", "0", "--out", str(out)])
    text = (out / "fekete.csv").read_text()
    assert "np.float" not in text and "nan" not in text
