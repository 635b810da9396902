"""The golden-digest script, run against a stub ``qteleport`` package, and
the golden file's ``circuit`` runs, checked against the package in-process."""

import contextlib
import hashlib
import io
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from qteleport.cli import main

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "output_digests.py"
GOLDEN = SCRIPT.with_suffix(".txt")
# the circuit text makes no floating-point call, so these lines hold on every BLAS build
CIRCUIT_LINES = [
    line for line in GOLDEN.read_text(encoding="utf-8").splitlines() if line.startswith("circuit ")
]

STUB_CLI = '''
def main(argv):
    if argv == ["circuit", "--n", "3"]:
        raise RuntimeError("stub failure\\non two lines")
    print(" ".join(argv))
    return 0
'''


def test_a_run_that_raises_is_reported_and_the_rest_still_run(tmp_path):
    package = tmp_path / "qteleport"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(STUB_CLI)
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "--src", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 1
    lines = result.stdout.splitlines()
    assert len(lines) == 69
    raised = [line for line in lines if "  raised " in line]
    assert raised == ["circuit --n 3  raised RuntimeError: stub failure on two lines"]
    assert all("  exit 0  " in line for line in lines if line not in raised)
    assert lines[-1].startswith("teleport --n 3 --state 0,0,0,0,0,0,0,1 --seed 3  exit 0  ")


def test_the_golden_file_has_seven_circuit_runs():
    assert [shlex.split(line.split("  ")[0]) for line in CIRCUIT_LINES] == [
        ["circuit", "--n", str(n)] for n in range(1, 8)
    ]


@pytest.mark.parametrize("line", CIRCUIT_LINES, ids=lambda line: line.split("  ")[0])
def test_circuit_run_matches_its_golden_line(line):
    command, code, digest = re.fullmatch(r"(.+)  exit (\d+)  ([0-9a-f]{64})", line).groups()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        got = main(shlex.split(command))
    assert got == int(code)
    assert hashlib.sha256(
        stdout.getvalue().encode() + b"\0" + stderr.getvalue().encode()
    ).hexdigest() == digest
