"""The golden-digest script, run against a stub ``qteleport`` package."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "output_digests.py"

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
