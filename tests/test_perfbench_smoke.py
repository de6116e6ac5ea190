"""One untraced session of each benchmark workload whose output checks tier-1
does not already run: the 18 trace files, `ensemble.bin` against
`simulate_paths`, and the FFT convolution against `method="direct"`."""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


@pytest.mark.parametrize("workload", ["paper_cli", "long_series", "monte_carlo"])
def test_session_passes_output_checks(tmp_path, workload):
    # a copy, so the run's work directory never lands in the checkout
    for name in ("src", "perfbench"):
        shutil.copytree(os.path.join(ROOT, name), tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert (last["correct"], last["failed"]) == (True, 0), proc.stdout
