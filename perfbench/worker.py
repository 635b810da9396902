"""One benchmark process: import qteleport, warm up, then run ops in a closed loop.

Started by ``run.py``, never by hand.  Each event goes to the parent as a
JSON line on the original stdout; after an event that names an output file
the worker waits for the parent's acknowledgement on stdin, so the parent
checks every op outside the timed region and outside this process's
memory.  Anything the program itself prints goes to stderr.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"


def run_op(cli, argv: list[str]) -> tuple[float, int | None, str | None]:
    """Time one ``cli.main`` call; returns (seconds, exit code, exception)."""
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        return time.perf_counter() - start, exc.code, None
    except Exception as exc:  # a crashing op counts as failed, never as dropped
        elapsed = time.perf_counter() - start
        traceback.print_exc()
        return elapsed, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--tag", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    channel = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)

    def send(event: dict, wait: bool = True) -> None:
        channel.write(json.dumps(event) + "\n")
        if wait and not sys.stdin.readline():
            raise SystemExit("parent closed the channel")

    workload = WORKLOADS[args.workload]
    outdir = Path(args.outdir)
    seeds = random.Random(f"{workload.name}:{args.seed}")
    warm_seed = seeds.randrange(1 << 31)

    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("qteleport.cli")
    if Path(cli.__file__).resolve().parent != SRC / "qteleport":
        raise SystemExit(f"imported qteleport from {cli.__file__}, not from {SRC}")
    warm_out = outdir / f"warm-{args.tag}.out"
    _, code, error = run_op(cli, workload.argv(warm_seed, str(warm_out)))
    setup = time.perf_counter() - start
    send({"kind": "setup", "seconds": setup, "code": code, "error": error, "path": str(warm_out)})

    tracer = None
    if args.trace and not args.setup_only:
        from tracer import LAYER_METRICS, Tracer

        tracer = Tracer()
    if not args.setup_only:
        # A traced run alternates untraced and traced ops, so the tracing
        # overhead is measured against ops run under the same conditions.
        min_ops = 2 if tracer else 1
        op_out = str(outdir / "op.out")
        index = 0
        measured = 0.0
        while index < min_ops or measured < args.seconds:
            traced = tracer is not None and index % 2 == 1
            if traced:
                tracer.install(index)
            try:
                seconds, code, error = run_op(cli, workload.argv(seeds.randrange(1 << 31), op_out))
            finally:
                if traced:
                    tracer.uninstall()
            measured += seconds
            send({"kind": "op", "seconds": seconds, "traced": traced, "code": code,
                  "error": error, "path": op_out})
            index += 1
        repeat_out = outdir / "repeat.out"
        _, code, error = run_op(cli, workload.argv(warm_seed, str(repeat_out)))
        send({"kind": "repeat", "code": code, "error": error, "path": str(repeat_out)})

    import numpy

    done = {
        "kind": "done",
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        tracer.save(outdir / "spans.npz")
        done["layers"] = {
            metric: {"value": value, "unit": LAYER_METRICS[metric][0]}
            for metric, value in tracer.layer_metrics().items()
        }
    send(done, wait=False)
    return 0


if __name__ == "__main__":
    sys.exit(main())
