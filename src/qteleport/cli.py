"""Command-line front end: run teleportations, verify, export circuits."""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from typing import Iterable, NoReturn

import numpy as np

from .statevector import (
    CapacityError,
    StateVector,
    max_qubits,
    random_state,
    state_from_dict,
)
from .teleport import circuit_schedule, render_schedule, teleport, trace_json_chunks
from .verify import (
    EXHAUSTIVE_MAX_N,
    VERIFY_MAX_N,
    report_to_json,
    report_to_text,
    verify_protocol,
)

EX_OK = 0
EX_FAIL = 1
EX_FILE = 2
EX_STATE = 3
EX_USAGE = 64

FIDELITY_THRESHOLD = 1.0 - 1e-10
LITERAL_NORM_ATOL = 1e-6


class CommandError(Exception):
    """Carries the exit code for a failed command."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as exit-64 command errors, not argparse's exit 2 (a file error here)."""

    def error(self, message: str) -> NoReturn:
        raise CommandError(EX_USAGE, f"{message}\n{self.format_usage().rstrip()}")


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qteleport",
        description="Simulate and verify teleportation of n-qubit states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("teleport", help="run one teleportation and emit its trace")
    t.add_argument("--n", type=int, required=True, help="number of qubits to teleport")
    t.add_argument(
        "--seed", type=_seed, required=True, help="seed for state sampling and measurement"
    )
    t.add_argument(
        "--state",
        default="random",
        help='"random", a comma-separated amplitude list (re or re+imi), or a state file '
        'path; write a value that begins with "-" as --state=VALUE',
    )
    t.add_argument("--out", help="write output here instead of stdout")
    t.add_argument("--format", choices=("json", "text"), default="json")

    v = sub.add_parser("verify", help="cross-check the gate pipeline against the closed forms")
    sweep = f"1-{EXHAUSTIVE_MAX_N} exhaustive, {EXHAUSTIVE_MAX_N + 1}-{VERIFY_MAX_N} sampled"
    v.add_argument("--n", type=int, required=True, help=f"qubits to teleport ({sweep})")
    v.add_argument("--seed", type=_seed, default=0)
    v.add_argument("--out", help="write output here instead of stdout")
    v.add_argument("--format", choices=("json", "text"), default="text")

    c = sub.add_parser("circuit", help="export the gate schedule as text")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--out", help="write output here instead of stdout")

    return parser


def main(argv: list[str] | None = None) -> int:
    handlers = {"teleport": _cmd_teleport, "verify": _cmd_verify, "circuit": _cmd_circuit}
    try:
        args = build_parser().parse_args(argv)
        return handlers[args.command](args)
    except SystemExit as done:  # -h, after argparse printed the help
        return done.code
    except CommandError as err:
        print(f"error: {err.message}", file=sys.stderr)
        return err.code
    except CapacityError as err:
        print(f"error: {err}", file=sys.stderr)
        return EX_USAGE


def _cmd_teleport(args: argparse.Namespace) -> int:
    _check_register_size(args.n)
    psi = _resolve_state(args.state, args.n, args.seed)
    trace = teleport(psi, args.seed)
    if args.format == "json":
        chunks = itertools.chain(trace_json_chunks(trace), ["\n"])
    else:
        chunks = [
            f"n: {trace.n}\n"
            f"outcome: {trace.outcome.bits}\n"
            f"probability: {trace.outcome.probability!r}\n"
            f"fidelity: {trace.fidelity_to_input!r}\n"
        ]
    _emit(chunks, args.out)
    return EX_OK if trace.fidelity_to_input >= FIDELITY_THRESHOLD else EX_FAIL


def _cmd_verify(args: argparse.Namespace) -> int:
    if not 1 <= args.n <= VERIFY_MAX_N:
        raise CommandError(EX_USAGE, f"--n must be between 1 and {VERIFY_MAX_N}, got {args.n}")
    _check_register_size(args.n)
    report = verify_protocol(args.n, seed=args.seed)
    payload = report_to_json(report) + "\n" if args.format == "json" else report_to_text(report)
    _emit([payload], args.out)
    return EX_OK if report.passed else EX_FAIL


def _cmd_circuit(args: argparse.Namespace) -> int:
    _check_register_size(args.n)
    _emit([render_schedule(circuit_schedule(args.n))], args.out)
    return EX_OK


def _check_register_size(n: int) -> None:
    """Reject an n whose 3n-qubit register exceeds the capacity, before any work."""
    if n < 1:
        raise CommandError(EX_USAGE, f"--n must be >= 1, got {n}")
    try:
        limit = max_qubits()
    except ValueError as exc:
        raise CommandError(EX_USAGE, str(exc)) from exc
    if 3 * n > limit:
        raise CommandError(
            EX_USAGE, f"--n {n} needs {3 * n} qubits, exceeding the capacity of {limit}"
        )


def _resolve_state(source: str, n: int, seed: int) -> StateVector:
    if source == "random":
        return random_state(n, np.random.default_rng(seed))
    if "," in source:
        return _state_from_literal(source, n)
    return _state_from_file(source, n)


def _state_from_literal(text: str, n: int) -> StateVector:
    values = []
    for token in text.split(","):
        token = token.strip()
        try:
            values.append(complex(token.replace("i", "j")))
        except ValueError as exc:
            raise CommandError(EX_USAGE, f"bad amplitude token {token!r}") from exc
    if len(values) != 1 << n:
        raise CommandError(
            EX_USAGE, f"--n {n} needs {1 << n} amplitudes, got {len(values)}"
        )
    amps = np.array(values, dtype=np.complex128)
    if not np.all(np.isfinite(amps)):
        raise CommandError(EX_USAGE, "amplitudes must be finite")
    return _renormalized(n, amps, "input state norm is")


def _state_from_file(path: str, n: int) -> StateVector:
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        state = state_from_dict(payload)
    except OSError as exc:
        raise CommandError(EX_FILE, f"cannot read state file {path!r}: {exc}") from exc
    except (ValueError, TypeError, OverflowError, RecursionError, CapacityError) as exc:
        # nesting too deep for the JSON reader, an amplitude too large for a
        # float, or more qubits than the capacity allows
        raise CommandError(EX_FILE, f"state file {path!r} is not a valid state: {exc}") from exc
    if state.n_qubits != n:
        raise CommandError(
            EX_USAGE, f"--n {n} does not match the {state.n_qubits}-qubit state in {path!r}"
        )
    return _renormalized(n, state.amplitudes, f"state in {path!r} has norm")


def _renormalized(n: int, amps: np.ndarray, subject: str) -> StateVector:
    """The given amplitudes divided by their norm, noted on stderr when that
    changes them; a norm off by more than LITERAL_NORM_ATOL exits 3, its
    message starting with ``subject``."""
    with np.errstate(over="ignore"):  # a norm too large for a float is inf: exit 3
        norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) > LITERAL_NORM_ATOL:
        raise CommandError(EX_STATE, f"{subject} {norm!r}, off by more than {LITERAL_NORM_ATOL}")
    if norm != 1.0:
        print(f"note: input renormalized (norm was {norm!r})", file=sys.stderr)
    return StateVector(n, amps / norm)


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write the chunks to ``out``, or to stdout; a failed write exits 2."""
    if out is None:
        stdout = sys.stdout
        try:
            stdout.writelines(chunks)
            stdout.flush()
        except OSError as exc:
            _discard(stdout)
            raise CommandError(EX_FILE, f"cannot write to stdout: {exc}") from exc
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
    except OSError as exc:
        raise CommandError(EX_FILE, f"cannot write {out!r}: {exc}") from exc


def _discard(stream) -> None:
    """Point a stream whose write failed at the null device.  A failed flush
    leaves its bytes in the buffer, and the interpreter's flush at exit would
    fail on them again, print "Exception ignored" and exit 120."""
    try:
        fd = stream.fileno()
    except (OSError, ValueError):  # an in-memory stream has no descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
