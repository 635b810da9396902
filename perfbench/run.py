"""qteleport benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in fresh worker processes with one client in a closed
loop: one ``qteleport.cli.main(argv)`` call at a time, the next started
when the previous returns.  Per-op seeds derive from ``--seed``.  Every op
is checked outside the timed region.  Without ``--workload`` all workloads
run in turn.  ``--trace 0`` reports end-to-end metrics; ``--trace 1`` is a
separate traced run that reports per-layer metrics.  The last line of
stdout is one JSON object; the exit code is 0 only if every check passed.
See perfbench/README.md for the workloads, metrics and baseline numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS, check_output

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_scratch"
SETUP_RUNS = 3
CAPACITY_ENV_VAR = "QTELEPORT_MAX_QUBITS"
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
BLAS_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKER_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
    "out_bytes": "B",
    "ok_frac": "frac",
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in BLAS_ENV_VARS})
    return env


def _inspect(workload, event: dict) -> None:
    """Check the output an event names, record its size and digest, delete it."""
    path = Path(event.pop("path"))
    problem = event.get("error")
    if problem is None and event["code"] != 0:
        problem = f"exit code {event['code']}"
    data = path.read_bytes() if path.is_file() else b""
    if problem is None:
        problem = check_output(workload, data) if data else "no output file"
    path.unlink(missing_ok=True)
    event.update(problem=problem, bytes=len(data), digest=hashlib.sha256(data).hexdigest())


def _drive_worker(workload, seed: int, seconds: float, trace: bool, outdir: Path,
                  tag: str, setup_only: bool) -> list[dict]:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload.name, "--seed", str(seed), "--seconds", repr(float(seconds)),
        "--trace", str(int(trace)), "--outdir", str(outdir), "--tag", tag,
    ] + (["--setup-only"] if setup_only else [])
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                            env=_worker_env(), cwd=ROOT)
    events = []
    try:
        for line in proc.stdout:
            event = json.loads(line)
            if "path" in event:
                _inspect(workload, event)
                proc.stdin.write("\n")
                proc.stdin.flush()
            events.append(event)
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdin.close()
        proc.stdout.close()
    if code != 0 or not events or events[-1]["kind"] != "done":
        raise BenchError(f"{workload.name} worker {tag} exited with code {code}")
    return events


def tail_latency(latencies: list[float]) -> tuple[float, int]:
    """The highest sample with at least ten samples above it, but never
    below the median; returns (seconds, 1-based rank in ascending order).

    With 20 or fewer samples no sample at or above the median has ten
    above it, so the tail is the median itself.
    """
    ordered = sorted(latencies)
    median = statistics.median(ordered)
    if len(ordered) > 10 and ordered[-11] >= median:
        return ordered[-11], len(ordered) - 10
    return median, (len(ordered) + 1) // 2


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 setup_runs: int = SETUP_RUNS) -> dict:
    """Run one workload; returns the result object plus a ``detail`` entry."""
    workload = WORKLOADS[name]
    outdir = SCRATCH / name
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    events = []
    for probe in range(setup_runs - 1):
        events += _drive_worker(workload, seed, seconds, trace, outdir, f"probe{probe}", True)
    events += _drive_worker(workload, seed, seconds, trace, outdir, "main", False)

    setups = [e for e in events if e["kind"] == "setup"]
    ops = [e for e in events if e["kind"] == "op"]
    (repeat,) = [e for e in events if e["kind"] == "repeat"]
    done = events[-1]
    problems = [f"{e['kind']}: {e['problem']}" for e in setups + [repeat] if e["problem"]]
    digests = {e["digest"] for e in setups + [repeat]}
    if len(digests) != 1:
        problems.append("ops with the same seed wrote different bytes")
    failed = sum(1 for e in ops if e["problem"])
    problems += [f"op: {e['problem']}" for e in ops if e["problem"]]

    if trace:
        plain = [e["seconds"] for e in ops if not e["traced"]]
        traced = [e["seconds"] for e in ops if e["traced"]]
        values = {metric: entry["value"] for metric, entry in done["layers"].items()}
        values["trace_overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
        units = {metric: entry["unit"] for metric, entry in done["layers"].items()}
        units["trace_overhead_frac"] = "frac"
        tail_rank = None
    else:
        latencies = [e["seconds"] for e in ops]
        tail, tail_rank = tail_latency(latencies)
        values = {
            "ops_per_s": len(latencies) / sum(latencies),
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": tail,
            "peak_rss_mib": done["peak_rss_mib"],
            "setup_s": statistics.median(e["seconds"] for e in setups),
            "out_bytes": statistics.fmean(e["bytes"] for e in ops),
            "ok_frac": (len(ops) - failed) / len(ops),
        }
        units = END_TO_END_UNITS
    return {
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
        "detail": {
            "workload": name,
            "seed": seed,
            "ops": len(ops),
            "traced_ops": sum(1 for e in ops if e.get("traced")),
            "tail_rank": tail_rank,
            "setup_runs_s": [e["seconds"] for e in setups],
            "working_set_bytes_computed": workload.working_set_bytes,
            "python": done["python"],
            "numpy": done["numpy"],
            "problems": problems[:10],
        },
    }


def last_level_cache() -> tuple[int | None, str]:
    """Size in bytes of the highest cache level of CPU 0, and where it was read."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    best = (0, None)
    for index in sorted(base.glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
        best = max(best, (level, int(size.rstrip("KMG")) * scale))
    return best[1], str(base) if best[1] else "unavailable"


def environment() -> dict:
    llc_bytes, llc_source = last_level_cache()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "blas_env_vars": list(BLAS_ENV_VARS),
        "llc_bytes": llc_bytes,
        "llc_source": llc_source,
    }


def _print_result(result: dict) -> None:
    detail = result["detail"]
    print(f"workload {detail['workload']} seed {detail['seed']}: {detail['ops']} ops "
          f"({detail['traced_ops']} traced), tail rank {detail['tail_rank']}, setup runs "
          f"{', '.join(f'{s:.3f}' for s in detail['setup_runs_s'])} s, "
          f"working set {detail['working_set_bytes_computed']} B (computed), "
          f"python {detail['python']}, numpy {detail['numpy']}, "
          f"checks {'passed' if result['correct'] else 'FAILED'}")
    for problem in detail["problems"]:
        print(f"  problem: {problem}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:<34} {entry['value']:<24.10g} {entry['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all of them in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if CAPACITY_ENV_VAR in os.environ:
        print(f"error: {CAPACITY_ENV_VAR} is set; it would change the register cap "
              "the teleport_n7_text workload sits on", file=sys.stderr)
        return 2
    if not (SRC / "qteleport" / "cli.py").is_file():
        print(f"error: no qteleport sources under {SRC}", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            _print_result(results[name])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("environment " + json.dumps(environment()))
    if args.workload:
        summary = {k: results[args.workload][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": entry for name, r in results.items()
                        for metric, entry in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
