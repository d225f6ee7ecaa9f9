"""Smoke test of the benchmark at tiny sizes.

Runs every workload of ``BENCHMARK.json`` untraced and traced on tiny inputs
and checks the result line: every declared metric is emitted with its unit,
and nothing else.  Also checks that the benchmark refuses to run without the
package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(script, workload, trace, cwd=None):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "3",
           "--seconds", "0.2", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=cwd)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    out = _run(HERE / "run.py", workload, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    report = json.loads(lines[-2])["report"]
    result = json.loads(lines[-1])

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = SPEC["end_to_end" if trace == 0 else "per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"], m["name"]
        assert isinstance(emitted["value"], (int, float)), m["name"]
    env = report["environment"]
    assert env["blas_threads"] == 1
    assert {"cores", "python", "numpy", "scipy"} <= set(env)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path / HERE.name / "run.py", "four_small", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
