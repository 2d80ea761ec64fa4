"""Smoke tests: each experiment script runs on tiny arguments and writes its
CSV, and the benchmark's selftest passes."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

CASES = [
    ("fekete_convergence.py", ["--ns", "4,8"],
     ["n", "f_n", "exact_f_n", "gap_to_half", "oracle_sup_gap", "oracle_grad_sup", "seconds"]),
    ("crystallization_sweep.py", ["--n", "4", "--betas", "1,2", "--seeds", "1", "--steps", "2000"],
     ["beta", "seed", "spacing_var", "acceptance", "r_hat"]),
]


@pytest.mark.parametrize("script, args, header", CASES, ids=[c[0] for c in CASES])
def test_script_writes_csv(tmp_path, script, args, header):
    out = tmp_path / "out.csv"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args, "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    with out.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == header
    assert len(rows) > 1


def test_perfbench_selftest_passes():
    # the benchmark's own checks, among them hermite_oracle against scipy's
    # Hermite roots to 1e-12 for n <= 64
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
