"""The benchmark's traced run still times the homogenization layers it names, and its untraced run still works.

``test_tracer_names.py`` checks that every traced name resolves; this runs
the tracer end to end, so a traced function whose signature or return value
changed still has to time a real call.  The untraced runs cover what no
traced name reaches: the setup task (``rcto.cli.parse_config`` and
``build_problem``) and the verify child (``io.verify`` and its
``io.mcs_evaluate`` lookup).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.slow
def test_traced_dcto_3d_run_times_the_cell_solve_and_the_effective_elasticity():
    cmd = [sys.executable, "perfbench/run.py", "--workload", "dcto_3d", "--seed", "1", "--seconds", "2", "--trace", "1"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["homogenization.cell_solve_s"]["value"] > 0.0
    assert metrics["homogenization.effective_s"]["value"] > 0.0


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["rcto_2d", "dcto_3d", "verify_small"])
def test_untraced_run_of_each_workload_is_correct(workload):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
