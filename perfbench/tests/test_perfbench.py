"""Tests of the benchmark itself; they are not part of the package's suite.

Run from the root of the repository:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, check_output  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _spec(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _units(result: dict) -> dict[str, str]:
    return {name: entry["unit"] for name, entry in result["metrics"].items()}


def test_spec_lists_the_workloads():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_op_untraced(name):
    result = run.run_workload(name, seed=5, seconds=0, trace=False, setup_runs=1)
    assert result["correct"], result["detail"]["problems"]
    assert (result["attempted"], result["failed"]) == (1, 0)
    assert _units(result) == _spec("end_to_end")
    assert result["metrics"]["ok_frac"]["value"] == 1.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_traced_op_gives_a_well_formed_span_tree(name):
    result = run.run_workload(name, seed=5, seconds=0, trace=True, setup_runs=1)
    assert result["correct"], result["detail"]["problems"]
    assert result["detail"]["traced_ops"] == 1
    assert _units(result) == _spec("per_layer")

    spans = np.load(run.SCRATCH / name / "spans.npz")
    names = spans["names"][spans["name"]]
    duration = spans["end"] - spans["start"]
    own = tracing.self_times(spans["parent"], duration)
    roots = spans["parent"] == -1
    assert (own >= -1e-9).all()
    assert list(names[roots]) == ["cli.main"]
    metrics = {m: e["value"] for m, e in result["metrics"].items()}
    module_self = sum(metrics[f"{m}.self_s"] for m in tracing.MODULES)
    assert module_self == pytest.approx(duration[roots].sum(), rel=1e-9)
    assert all(metrics[f"{m}.errors"] == 0 for m in tracing.MODULES)
    # calls made inside the package are seen, not only the entry point
    assert metrics["gates.apply_cnot.calls"] > 0
    assert metrics["statevector.ctor.calls"] > 0
    expected_teleports = 288 if name == "verify_n5" else 1
    assert metrics["teleport.teleport.calls"] == expected_teleports


def test_missing_function_reports_zero_calls(monkeypatch, tmp_path):
    import qteleport
    import qteleport.cli as cli
    import qteleport.statevector as statevector

    monkeypatch.delattr(sys.modules["qteleport.teleport"], "replay_schedule")
    monkeypatch.delattr(qteleport, "replay_schedule")
    main, init = cli.main, statevector.StateVector.__init__
    metrics = dict(tracing.LAYER_METRICS)
    metrics["teleport.replay_schedule.calls"] = ("count", "calls", ("teleport.replay_schedule",))
    tracer = tracing.Tracer()
    tracer.install(0)
    try:
        code = cli.main(["teleport", "--n", "1", "--seed", "3", "--out", str(tmp_path / "t.json")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert (cli.main, statevector.StateVector.__init__) == (main, init)
    values = tracer.layer_metrics(metrics)
    assert values["teleport.replay_schedule.calls"] == 0
    assert values["teleport.teleport.calls"] == 1


def test_json_check_catches_a_sign_the_fidelity_misses(tmp_path):
    import qteleport.cli as cli

    workload = WORKLOADS["trace_json_n6"]
    out = tmp_path / "trace.json"
    assert cli.main(workload.argv(11, str(out))) == 0
    trace = json.loads(out.read_text())
    assert check_output(workload, out.read_bytes()) is None
    post = trace["states"]["bob_post_correction"]
    post["amplitudes"] = [[-re, -im] for re, im in post["amplitudes"]]
    problem = check_output(workload, json.dumps(trace).encode())
    assert problem and "deviates" in problem
    assert check_output(workload, b"{").startswith("unreadable output")


def test_tail_is_the_highest_sample_with_ten_above_it():
    assert run.tail_latency([3.0, 1.0, 2.0]) == (2.0, 2)
    samples = [float(v) for v in range(1, 31)]
    assert run.tail_latency(samples) == (20.0, 20)
    assert run.tail_latency(samples[:20]) == (10.5, 10)


def _bench(cwd: Path, env: dict[str, str], *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def test_command_prints_the_result_line_on_a_second_seed():
    proc = _bench(ROOT, dict(os.environ), "--workload", "verify_n5", "--seed", "2",
                  "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert _units(result) == _spec("end_to_end")
    assert all(isinstance(e["value"], float) for e in result["metrics"].values())


def test_refuses_a_capacity_override():
    env = dict(os.environ, QTELEPORT_MAX_QUBITS="21")
    proc = _bench(ROOT, env, "--workload", "verify_n5", "--seconds", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench(tmp_path, dict(os.environ), "--workload", "verify_n5", "--seconds", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
