"""What the benchmark under perfbench/ reads of the package, read the way it reads it."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from todalab.solution import log_det_k, sample_params

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def test_benchmark_oracle_agrees_with_log_det_k():
    # perfbench/oracle.py builds its mpmath Gram matrix from p.coeffs of each
    # polynomial of a SolutionParams and compares log_det_k on circles of
    # radius 1e2 and 1e3; the benchmark gates on 1e-10 (LOGDET_TOL).
    spec = importlib.util.spec_from_file_location("benchmark_oracle", PERFBENCH / "oracle.py")
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    assert oracle.logdet_error([("n2", sample_params(2, 3, 0.3))], log_det_k) <= 1e-10


def test_benchmark_setup_runs_without_error(tmp_path):
    # A workload process in setup-only mode imports todalab from src/ and
    # builds the workload's parameter sets, then writes its result file.
    result = tmp_path / "result.json"
    spec = {"src": str(ROOT / "src"), "config": {"seed": 3, "n": 5, "count": 2,
                                                 "suites": ["asymptotics", "mass"]},
            "argv": [], "setup_only": True, "trace": False, "result": str(result)}
    proc = subprocess.run([sys.executable, str(PERFBENCH / "child.py"), json.dumps(spec)],
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(result.read_text())
    assert "error" not in out and out["setup_s"] > 0
