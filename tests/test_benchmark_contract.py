"""The benchmark's contract with the package: `perfbench/traced.py` wraps
package functions by name and checks what they compute, and
`perfbench/test_checks.py` imports and calls them. A refactor that unhooks
a wrapped name or changes a call shape fails here, not only when the
benchmark runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PERFBENCH = REPO / "perfbench"
ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join([str(REPO / "src"), str(PERFBENCH)]),
    "PYTHONDONTWRITEBYTECODE": "1",
}
TRACED_FLAGS = [
    "--dataset", str(REPO / "data" / "synthetic-50.tsv"), "--rounds", "2", "--reps", "1",
    "--lr", "0.01", "--eval-negatives", "49", "--seed", "1", "--workers", "1",
]


def perfbench_files():
    """Every path under perfbench/ but the work/ directory, where a benchmark
    run in progress keeps its inputs and outputs."""
    paths = (p.relative_to(PERFBENCH) for p in PERFBENCH.rglob("*"))
    return sorted(str(p) for p in paths if p.parts[0] != "work")


@pytest.fixture
def leaves_perfbench_alone():
    before = perfbench_files()
    yield
    assert perfbench_files() == before


@pytest.mark.parametrize("flags, noise_check", [
    (["--public-ratio", "0.5"], "no_noise"),
    (["--public-ratio", "1.0", "--ldp-delta", "0.01"], "ldp_noise["),
], ids=["p50", "p100-ldp"])
def test_traced_run_is_correct_and_sees_every_phase(tmp_path, leaves_perfbench_alone, flags, noise_check):
    trace = tmp_path / "trace.json"
    argv = [sys.executable, str(PERFBENCH / "traced.py"), str(trace),
            *TRACED_FLAGS, *flags, "--out", str(tmp_path / "out")]
    proc = subprocess.run(argv, cwd=REPO, env=ENV, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(trace.read_text())
    assert result["correct"] is True, result.get("problem")
    names = result["checks"]
    assert "server_step" in names
    assert any(name.startswith("ranking[") for name in names)
    assert any(name.startswith(noise_check) for name in names), names
    # model.train_s is not asserted: the tracer wraps train_local, which
    # the round loop no longer calls, so it reads 0
    metrics = {name: value for name, (value, _unit) in result["metrics"].items()}
    phases = ["model.init_s", "graph.server_s", "graph.distribute_s", "evaluation.eval_s"]
    if noise_check != "no_noise":
        phases.append("federation.ldp_s")
    assert {name: metrics[name] > 0 for name in phases} == dict.fromkeys(phases, True)


def test_benchmark_checks_pass(leaves_perfbench_alone):
    argv = [sys.executable, "-m", "pytest", "perfbench", "-q", "-p", "no:cacheprovider"]
    proc = subprocess.run(argv, cwd=REPO, env=ENV, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:]
