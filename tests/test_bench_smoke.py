"""A short traced run of the benchmark harness, as part of the unit tests.

The traced run wraps nilbch functions and operators by name, checks every
op's output and fails a layer that a workload must bypass, so a traced name
that moves, is aliased or is skipped shows up here rather than only in the
long benchmark suite under ``bench/``.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _assert_traced_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stdout
    assert result["failed"] == 0
    assert result["attempted"] > 0


def test_traced_catalog_free_run_is_correct():
    _assert_traced_run_is_correct("catalog-free")


def test_traced_catalog_matrix_run_is_correct():
    _assert_traced_run_is_correct("catalog-matrix")


def test_traced_oracle_classical_run_is_correct():
    _assert_traced_run_is_correct("oracle-classical")
