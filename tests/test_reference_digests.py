"""Every artifact bit of the benchmark workloads, against the recorded digests.

perfbench/reference.json holds the sha256 of each artifact that the
benchmark workloads write at seed 2023 (a report without its wall-clock
timing block). This test runs the literal-grid and fir-20 cells through
harness.run_experiment the way a benchmark pass does and compares every
digest, so a speedup that moves any output bit fails here. A change meant
to move bits re-records the reference with
``python3 perfbench/run.py --record-reference`` and says so in CHANGES.md.
perfbench/ is only read here.
"""

import json
import os
import runpy
from pathlib import Path

import pytest

from qdds import harness

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# run_path compiles from source, so no bytecode cache is written under perfbench/
WORKER = runpy.run_path(str(PERFBENCH / "worker.py"))
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


@pytest.mark.parametrize("workload", ["literal-grid", "fir-20"])
def test_artifacts_match_reference(tmp_path, monkeypatch, workload):
    # reports echo out_dir, so it is the relative directory a pass writes to
    monkeypatch.chdir(tmp_path)
    out_dir = os.path.join(WORKER["OUT_ROOT"], workload)
    for config in WORKER["workload_configs"](workload, REFERENCE["seed"], out_dir):
        harness.run_experiment(config)
    names = os.listdir(out_dir)
    digests = {name: WORKER["digest"](os.path.join(out_dir, name)) for name in names}
    assert digests == REFERENCE["workloads"][workload]
