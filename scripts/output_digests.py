"""Digest the CLI's output over a fixed set of runs.

Usage, from the root of the repository:

    python scripts/output_digests.py [--src DIR]

Each run calls ``qteleport.cli.main(argv)`` in this process, imported from
``--src`` (default: the ``src/`` beside this script), and prints one line:
the argv, the exit code, and the sha256 of stdout, a NUL byte and stderr.
A run that raises prints the exception's type and message in place of its
exit code and digest, and the other runs go on.  Run it on two trees, each
in its own process, and compare the output to show that a change leaves
every run's bytes and exit code alone.  The exit code is 0 only if every
run exited 0.

``scripts/output_digests.txt`` holds the output for the committed tree,
and CI diffs a fresh run against it.  A change that moves bytes on
purpose regenerates it:

    python scripts/output_digests.py > scripts/output_digests.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import shlex
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SEEDS = ("1", "2", "3")
LITERALS = (
    (1, "1,0"),
    (1, "0.6,0.8i"),
    (1, "0,1"),
    (2, "1,0,0,0"),
    (2, "0,0.6,0,0.8"),
    (2, "0,0,0,1"),
    (3, "0,0,0,0,0,0,0,1"),
)


def runs() -> list[list[str]]:
    """The 69 argvs, in print order."""
    out = [
        ["verify", "--n", str(n), "--format", fmt, "--seed", seed]
        for n in range(1, 6)
        for fmt in ("json", "text")
        for seed in ("0", "7")
    ]
    out += [
        ["teleport", "--state", "random", "--n", str(n), "--seed", seed]
        for n in range(1, 7)
        for seed in SEEDS
    ]
    out += [
        ["teleport", "--n", "7", "--state", "random", "--format", "text", "--seed", seed]
        for seed in SEEDS
    ]
    out += [["circuit", "--n", str(n)] for n in range(1, 8)]
    out += [
        ["teleport", "--n", str(n), "--state", literal, "--seed", seed]
        for n, literal in LITERALS
        for seed in SEEDS
    ]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=SRC, help="directory holding the qteleport package")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    from qteleport.cli import main as cli_main

    failed = False
    for argv in runs():
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli_main(argv)
        except Exception as exc:
            message = " ".join(str(exc).split())
            print(f"{shlex.join(argv)}  raised {type(exc).__name__}: {message}", flush=True)
            failed = True
            continue
        digest = hashlib.sha256(
            stdout.getvalue().encode() + b"\0" + stderr.getvalue().encode()
        ).hexdigest()
        print(f"{shlex.join(argv)}  exit {code}  {digest}", flush=True)
        failed = failed or code != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
