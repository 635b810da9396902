import json
import os
import subprocess
import sys
import tracemalloc

import pytest

import qteleport.cli as cli
from qteleport.cli import EX_FAIL, EX_FILE, EX_OK, EX_STATE, EX_USAGE, main
from qteleport.statevector import random_state, state_to_dict


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTeleportCommand:
    def test_literal_basis_state(self, capsys):
        code, out, _ = run_cli(capsys, "teleport", "--n", "1", "--state", "1,0", "--seed", "7")
        assert code == EX_OK
        assert out.endswith("\n")
        payload = json.loads(out)
        assert payload["fidelity"] == pytest.approx(1.0, abs=1e-10)
        assert payload["states"]["input"]["amplitudes"] == [[1.0, 0.0], [0.0, 0.0]]

    def test_random_state(self, capsys):
        code, out, _ = run_cli(capsys, "teleport", "--n", "2", "--state", "random", "--seed", "42")
        assert code == EX_OK
        payload = json.loads(out)
        assert payload["outcome"] in {format(v, "04b") for v in range(16)}
        assert payload["probability"] == pytest.approx(0.0625, abs=1e-10)

    def test_uniform_literal(self, capsys):
        code, out, _ = run_cli(
            capsys, "teleport", "--n", "2", "--state", "0.5,0.5,0.5,0.5", "--seed", "1"
        )
        assert code == EX_OK
        assert json.loads(out)["fidelity"] == pytest.approx(1.0, abs=1e-10)

    def test_complex_literal_tokens(self, capsys):
        code, out, _ = run_cli(
            capsys, "teleport", "--n", "1", "--state", "0.6,0+0.8i", "--seed", "3"
        )
        assert code == EX_OK
        assert json.loads(out)["states"]["input"]["amplitudes"][1] == [0.0, 0.8]

    def test_text_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "teleport", "--n", "1", "--state", "1,0", "--seed", "7", "--format", "text"
        )
        assert code == EX_OK
        assert out.startswith("n: 1\n")
        assert "fidelity: 1.0" in out

    def test_renormalization_note(self, capsys):
        code, out, err = run_cli(
            capsys, "teleport", "--n", "1", "--state", "0.6000001,0.8", "--seed", "2"
        )
        assert code == EX_OK
        assert "renormalized" in err
        assert json.loads(out)["fidelity"] == pytest.approx(1.0, abs=1e-10)

    def test_unnormalized_literal_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "teleport", "--n", "1", "--state", "1,1", "--seed", "2")
        assert code == EX_STATE
        assert "norm" in err

    def test_bad_token_exits_64(self, capsys):
        code, _, err = run_cli(capsys, "teleport", "--n", "1", "--state", "1,zebra", "--seed", "2")
        assert code == EX_USAGE
        assert "zebra" in err

    def test_wrong_amplitude_count_exits_64(self, capsys):
        code, _, _ = run_cli(capsys, "teleport", "--n", "2", "--state", "1,0", "--seed", "2")
        assert code == EX_USAGE

    def test_n_zero_exits_64(self, capsys):
        code, _, _ = run_cli(capsys, "teleport", "--n", "0", "--state", "random", "--seed", "2")
        assert code == EX_USAGE

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "teleport", "--n", "1", "--state", str(tmp_path / "nope.json"), "--seed", "1"
        )
        assert code == EX_FILE
        assert "cannot read" in err

    def test_invalid_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n_qubits": 1}')
        code, _, _ = run_cli(capsys, "teleport", "--n", "1", "--state", str(path), "--seed", "1")
        assert code == EX_FILE

    def test_deeply_nested_file_exits_2(self, capsys, tmp_path):
        # too deep for the JSON reader, which raises RecursionError
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, _, err = run_cli(capsys, "teleport", "--n", "1", "--state", str(path), "--seed", "1")
        assert code == EX_FILE
        assert "not a valid state" in err

    def test_amplitude_too_large_for_a_float_exits_2(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"n_qubits": 1, "amplitudes": [[1%s, 0], [0, 0]]}' % ("0" * 400))
        code, _, err = run_cli(capsys, "teleport", "--n", "1", "--state", str(path), "--seed", "1")
        assert code == EX_FILE
        assert "not a valid state" in err

    def test_state_file_round_trip(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state_to_dict(random_state(2, 17))) + "\n")
        code, out, _ = run_cli(capsys, "teleport", "--n", "2", "--state", str(path), "--seed", "4")
        assert code == EX_OK
        assert json.loads(out)["fidelity"] == pytest.approx(1.0, abs=1e-10)

    def test_unnormalized_file_exits_3(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"n_qubits": 1, "amplitudes": [[0.6, 0.0], [0.8 + 2e-6, 0.0]]}))
        code, out, err = run_cli(capsys, "teleport", "--n", "1", "--state", str(path), "--seed", "4")
        assert code == EX_STATE
        assert out == ""
        assert err.startswith(f"error: state in {str(path)!r} has norm ")
        assert err.endswith(", off by more than 1e-06\n")

    def test_slightly_unnormalized_file_is_renormalized(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"n_qubits": 1, "amplitudes": [[0.6000001, 0.0], [0.0, 0.8]]}))
        code, out, err = run_cli(capsys, "teleport", "--n", "1", "--state", str(path), "--seed", "4")
        assert code == EX_OK
        assert err.startswith("note: input renormalized (norm was ")
        assert json.loads(out)["fidelity"] == 1.0

    def test_file_qubit_mismatch_exits_64(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state_to_dict(random_state(2, 17))))
        code, _, _ = run_cli(capsys, "teleport", "--n", "1", "--state", str(path), "--seed", "4")
        assert code == EX_USAGE

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        code, out, _ = run_cli(
            capsys, "teleport", "--n", "1", "--state", "1,0", "--seed", "7",
            "--out", str(out_path),
        )
        assert code == EX_OK
        assert out == ""
        payload = json.loads(out_path.read_text())
        assert payload["n"] == 1

    def test_capacity_override_exits_64(self, capsys, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("random_state called before the capacity check")

        monkeypatch.setattr(cli, "random_state", no_sampling)
        monkeypatch.setenv("QTELEPORT_MAX_QUBITS", "5")
        code, _, err = run_cli(capsys, "teleport", "--n", "2", "--state", "random", "--seed", "1")
        assert code == EX_USAGE
        assert "capacity" in err

    def test_boolean_qubit_count_in_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text('{"n_qubits": true, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}')
        code, out, _ = run_cli(capsys, "teleport", "--n", "1", "--state", str(path), "--seed", "1")
        assert code == EX_FILE
        assert out == ""

    def test_boolean_amplitude_in_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text('{"n_qubits": 1, "amplitudes": [[true, 0], [0, 0]]}')
        code, out, err = run_cli(capsys, "teleport", "--n", "1", "--state", str(path), "--seed", "1")
        assert code == EX_FILE
        assert str(path) in err
        assert out == ""

    @pytest.mark.parametrize("n_qubits", [22, 10**30])
    def test_qubit_count_over_the_capacity_in_file_exits_2(self, capsys, tmp_path, n_qubits):
        path = tmp_path / "state.json"
        path.write_text('{"n_qubits": %d, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}' % n_qubits)
        code, out, err = run_cli(capsys, "teleport", "--n", "1", "--state", str(path), "--seed", "1")
        assert code == EX_FILE
        assert str(path) in err
        assert out == ""


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("teleport", "--n", "1", "--state", "random"),
            ("teleport", "--n", "abc", "--seed", "1"),
            ("teleport", "--n", "1", "--seed", "-1"),
            ("verify", "--n", "1", "--seed", "-1"),
            ("circuit",),
            (),
        ],
        ids=["missing-seed", "non-integer-n", "negative-seed", "verify-negative-seed",
             "missing-n", "missing-command"],
    )
    def test_exits_64(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == EX_USAGE
        assert out == ""
        assert err.startswith("error: ") and "usage: qteleport" in err

    @pytest.mark.parametrize(
        "argv",
        [("teleport", "--n", "1", "--seed", "1"), ("verify", "--n", "1"), ("circuit", "--n", "1")],
    )
    def test_malformed_capacity_setting_exits_64(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("QTELEPORT_MAX_QUBITS", "many")
        code, out, err = run_cli(capsys, *argv)
        assert code == EX_USAGE
        assert out == ""
        assert "QTELEPORT_MAX_QUBITS" in err


class TestVerifyCommand:
    def test_single_qubit_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "1")
        assert code == EX_OK
        assert "overall: PASS" in out

    def test_two_qubit_reports_fixture_rows(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "2")
        assert code == EX_OK
        assert "fixture rows 16/16" in out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "1", "--format", "json")
        assert code == EX_OK
        assert out.endswith("\n")
        assert json.loads(out)["passed"] is True

    def test_n_zero_exits_64(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--n", "0")
        assert code == EX_USAGE

    def test_n_too_large_exits_64(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--n", "6")
        assert code == EX_USAGE

    def test_the_n_cap_is_read_from_verify(self, capsys, monkeypatch):
        # the range check and the --n help text both follow verify.VERIFY_MAX_N
        assert run_cli(capsys, "verify", "--n", "6")[2] == (
            "error: --n must be between 1 and 5, got 6\n"
        )
        monkeypatch.setattr(cli, "VERIFY_MAX_N", 4)
        code, _, err = run_cli(capsys, "verify", "--n", "5")
        assert code == EX_USAGE
        assert err == "error: --n must be between 1 and 4, got 5\n"
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        assert "(1-3 exhaustive, 4-4 sampled)" in capsys.readouterr().out

    def test_five_qubit_json_reports_the_sampled_branch_count(self, capsys):
        # the count the verify_n5 benchmark workload requires of each op
        code, out, _ = run_cli(capsys, "verify", "--n", "5", "--format", "json", "--seed", "0")
        assert code == EX_OK
        report = json.loads(out)
        assert report["passed"] is True
        assert report["branches_checked"] == 288


class TestCircuitCommand:
    def test_single_qubit_line_counts(self, capsys):
        code, out, _ = run_cli(capsys, "circuit", "--n", "1")
        assert code == EX_OK
        lines = out.splitlines()
        gate_lines = [l for l in lines if l and not l.startswith(("M", "#"))]
        assert len(gate_lines) == 4
        assert sum(l.startswith("M ") for l in lines) == 1

    def test_two_qubit_line_counts(self, capsys):
        code, out, _ = run_cli(capsys, "circuit", "--n", "2")
        assert code == EX_OK
        lines = out.splitlines()
        gate_lines = [l for l in lines if l and not l.startswith(("M", "#"))]
        assert len(gate_lines) == 8
        assert "M q1..q4" in lines

    def test_byte_identical_output(self, capsys):
        _, first, _ = run_cli(capsys, "circuit", "--n", "3")
        _, second, _ = run_cli(capsys, "circuit", "--n", "3")
        assert first == second

    def test_unwritable_path_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing_dir" / "schedule.txt"
        code, _, err = run_cli(capsys, "circuit", "--n", "1", "--out", str(target))
        assert code == EX_FILE
        assert "cannot write" in err

    def test_n_zero_exits_64(self, capsys):
        code, _, _ = run_cli(capsys, "circuit", "--n", "0")
        assert code == EX_USAGE

    def test_capacity_exits_64(self, capsys, monkeypatch):
        monkeypatch.setenv("QTELEPORT_MAX_QUBITS", "8")
        assert run_cli(capsys, "circuit", "--n", "2")[0] == EX_OK
        code, out, err = run_cli(capsys, "circuit", "--n", "3")
        assert code == EX_USAGE
        assert out == ""
        assert "capacity" in err


def _stdout_env(buffered: bool) -> dict[str, str]:
    """This environment with the child's stdout buffered, Python's default,
    or unbuffered, whatever PYTHONUNBUFFERED is set to here."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


class TestBlackBox:
    """True subprocess runs through the module entry point."""

    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "qteleport", *argv],
            capture_output=True,
            timeout=120,
        )

    def test_deterministic_trace_bytes(self):
        argv = ("teleport", "--n", "2", "--state", "random", "--seed", "42")
        first = self._run(*argv)
        second = self._run(*argv)
        assert first.returncode == EX_OK
        assert first.stdout == second.stdout
        assert first.stdout.endswith(b"\n")

    def test_verify_exit_codes(self):
        assert self._run("verify", "--n", "1").returncode == EX_OK
        assert self._run("verify", "--n", "0").returncode == EX_USAGE

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    def test_closed_stdout_pipe_exits_2_with_one_error_line(self, buffered):
        proc = subprocess.Popen(
            [sys.executable, "-m", "qteleport", "teleport", "--n", "6", "--seed", "1"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=_stdout_env(buffered),
        )
        try:
            assert len(proc.stdout.read(100)) == 100  # 100 of the trace's 12.8 MB
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
        assert proc.returncode == EX_FILE
        assert err.decode() == "error: cannot write to stdout: [Errno 32] Broken pipe\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    def test_full_stdout_exits_2_with_one_error_line(self, buffered):
        # buffered, the schedule fits in stdout's buffer, so the write fails
        # only on flush, and its bytes stay there for the flush at exit
        with open("/dev/full", "wb") as full:
            result = subprocess.run(
                [sys.executable, "-m", "qteleport", "circuit", "--n", "1"],
                stdout=full,
                stderr=subprocess.PIPE,
                timeout=120,
                env=_stdout_env(buffered),
            )
        assert result.returncode == EX_FILE
        assert result.stderr.decode() == (
            "error: cannot write to stdout: [Errno 28] No space left on device\n"
        )

    def test_fidelity_gate_is_exit_contract(self):
        result = self._run("teleport", "--n", "1", "--state", "1,0", "--seed", "0")
        assert result.returncode in (EX_OK, EX_FAIL)
        assert json.loads(result.stdout)["fidelity"] >= 1 - 1e-10
        assert result.returncode == EX_OK


class TestMemory:
    def test_json_trace_is_written_without_holding_the_document(self, tmp_path):
        # At n = 6 a 3n-qubit register is 4 MiB; the 12.8 MB document, or its
        # floats as Python lists, would be several times more.
        out = str(tmp_path / "trace.json")
        argv = ["teleport", "--n", "6", "--format", "json", "--out", out]
        assert main([*argv, "--seed", "0"]) == EX_OK  # warm up: slice plans, lazy imports
        tracemalloc.start()
        try:
            code = main([*argv, "--seed", "1"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EX_OK
        assert peak < 16 << 20, f"peak of {peak / (1 << 20):.1f} MiB"
