"""Dense amplitude vectors over qubit registers.

Qubits are numbered 1..n with qubit 1 the most significant bit of a basis
index, so ``|i>`` for a chain ``i`` sits at array position ``i.value``.
Operations return fresh vectors; amplitude arrays are frozen on
construction, which makes states safe to share across threads.  The one
exception is the teleport runner's register: it starts as a working state
over the payload tensor Bell product, the layer kernels overwrite it in
place, and the runner freezes it once it is final (see
:meth:`StateVector._publish`) and never hands it out before that.

Measurement acts on the leading qubits 1..k only, so a measurement takes
the span length k (a collapse reads it off the outcome's width) rather
than a qubit list.  Reshaped to (2^k, 2^(n-k)), the state's row r holds
the unnormalized state of the n-k unmeasured qubits given outcome r: the
outcome probabilities are the row sums of |amplitude|^2, returned as one
array indexed by r, and collapsing onto r returns that row divided by the
square root of its probability.

Normalization is deliberately not enforced by the type: protocol stages
re-check it explicitly (see :meth:`StateVector.require_normalized`) so a
drifting pipeline fails loudly instead of being silently renormalized, and
sub-normalized vectors (e.g. the closed-form outcome branches in
``qteleport.verify``) remain representable.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .bitchain import BitChain

DEFAULT_MAX_QUBITS = 21
CAPACITY_ENV_VAR = "QTELEPORT_MAX_QUBITS"

# Mass below this is treated as "no probability left", i.e. a broken state.
_ZERO_MASS = 1e-12
NORM_ATOL = 1e-8

# Rows of (re, im) amplitude pairs formatted per JSON chunk: 4096 rows are
# 64 KiB of floats.
_SLICE_ROWS = 4096
# Amplitudes squared per block of rows for the Born probabilities: 256 KiB.
_BORN_BLOCK = 1 << 15


class CapacityError(RuntimeError):
    """A register would exceed the configured qubit capacity."""


class NormalizationError(RuntimeError):
    """A state that must be normalized has drifted beyond tolerance."""


def max_qubits() -> int:
    """Largest allowed register size.

    Defaults to 21 qubits (~32 MiB of amplitudes); the QTELEPORT_MAX_QUBITS
    environment variable overrides it.
    """
    raw = os.environ.get(CAPACITY_ENV_VAR)
    if raw is None:
        return DEFAULT_MAX_QUBITS
    try:
        limit = int(raw)
    except ValueError as exc:
        raise ValueError(f"{CAPACITY_ENV_VAR} must be an integer, got {raw!r}") from exc
    if limit < 1:
        raise ValueError(f"{CAPACITY_ENV_VAR} must be >= 1, got {limit}")
    return limit


def _require_capacity(n_qubits: int) -> None:
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
    limit = max_qubits()
    if n_qubits > limit:
        raise CapacityError(f"{n_qubits} qubits exceeds the capacity of {limit}")


@dataclass(frozen=True)
class MeasurementOutcome:
    """Classical bits read off a measured subset, with their Born probability."""

    bits: BitChain
    probability: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability {self.probability} outside [0, 1]")


class StateVector:
    """Complex amplitudes over an n-qubit register, indexed big-endian."""

    __slots__ = ("n_qubits", "amplitudes", "_norm", "__weakref__")

    def __init__(self, n_qubits: int, amplitudes: Sequence[complex] | np.ndarray) -> None:
        self._adopt(n_qubits, np.array(amplitudes, dtype=np.complex128).reshape(-1))

    @classmethod
    def _owned(cls, n_qubits: int, amps: np.ndarray, *, frozen: bool = True) -> StateVector:
        """Wrap a fresh ``complex128`` array a kernel allocated, without copying it.

        The array is frozen in place, so it must not be a view of any other
        state's buffer.  With ``frozen=False`` it stays writable: the state is
        a working register, which a layer kernel given it overwrites in place,
        so it must not leave its owner until :meth:`_publish` freezes it.
        """
        state = object.__new__(cls)
        state._adopt(n_qubits, amps, frozen)
        return state

    def _adopt(self, n_qubits: int, amps: np.ndarray, frozen: bool = True) -> None:
        """Check ``amps``, freeze it unless told not to, and store it; both
        constructors end here."""
        _require_capacity(n_qubits)
        if amps.dtype != np.complex128:
            raise ValueError(f"amplitudes must be complex128, got {amps.dtype}")
        if amps.shape != (1 << n_qubits,):
            got = amps.size if amps.ndim == 1 else f"shape {amps.shape}"
            raise ValueError(f"expected {1 << n_qubits} amplitudes for {n_qubits} qubits, got {got}")
        # the squared norm as np.linalg.norm forms it; a finite sum means every
        # amplitude is finite, so the element check runs only when it is not
        # (finite amplitudes above ~1e154 overflow it, which is not an error)
        with np.errstate(over="ignore"):
            sqnorm = float(amps.real.dot(amps.real) + amps.imag.dot(amps.imag))
        if not math.isfinite(sqnorm) and not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite (no NaN/Inf)")
        if frozen:
            amps.setflags(write=False)
        object.__setattr__(self, "n_qubits", n_qubits)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "_norm", math.sqrt(sqnorm))

    def _publish(self) -> StateVector:
        """Freeze a working state's array in place and return the state.

        The norm was formed when the kernel that wrote the array returned;
        the caller must not have written the array since.
        """
        self.amplitudes.setflags(write=False)
        return self

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("StateVector is immutable")

    def norm(self) -> float:
        """Euclidean norm, equal to ``np.linalg.norm(self.amplitudes)``; computed once."""
        return self._norm

    def require_normalized(self, context: str = "state") -> None:
        """Raise :class:`NormalizationError` if the norm drifted beyond ``NORM_ATOL``."""
        drift = abs(self.norm() - 1.0)
        if drift > NORM_ATOL:
            raise NormalizationError(f"{context} has norm drift {drift:.3e} (> {NORM_ATOL:.0e})")

    def __repr__(self) -> str:
        return f"StateVector(n_qubits={self.n_qubits}, norm={self.norm():.6f})"


def basis_state(label: BitChain) -> StateVector:
    """The computational basis state carrying the given label."""
    _require_capacity(label.width)
    amps = np.zeros(1 << label.width, dtype=np.complex128)
    amps[label.value] = 1.0
    return StateVector._owned(label.width, amps)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product; ``a`` supplies the high-order qubits."""
    return _working_tensor(a, b)._publish()


def _working_tensor(a: StateVector, b: StateVector) -> StateVector:
    """:func:`tensor` as a working state over a fresh array, which the layer
    kernels may then overwrite in place; the capacity is checked before the
    array is allocated."""
    combined = a.n_qubits + b.n_qubits
    _require_capacity(combined)
    out = np.empty(1 << combined, dtype=np.complex128)
    np.multiply.outer(a.amplitudes, b.amplitudes, out=out.reshape(a.amplitudes.size, -1))
    return StateVector._owned(combined, out, frozen=False)


def fidelity(a: StateVector, b: StateVector) -> float:
    """Squared overlap |<a|b>|^2; 1 means equal up to a global phase."""
    _check_same_size(a, b, "fidelity")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def probabilities_of_subset(state: StateVector, k: int) -> np.ndarray:
    """Born probabilities of the outcomes on the leading qubits ``1..k``
    (1 <= k <= n) as a float64 array indexed by outcome value: the row sums
    of |amplitude|^2 over the state reshaped to (2^k, 2^(n-k)), a block of
    rows at a time; bit m of an outcome is qubit m."""
    if not 1 <= k <= state.n_qubits:
        raise ValueError(f"cannot measure {k} leading qubits of {state.n_qubits}")
    rows = state.amplitudes.reshape(1 << k, -1)
    step = max(1, _BORN_BLOCK // rows.shape[1])
    probs = np.empty(len(rows))
    for start in range(0, len(rows), step):
        np.sum(np.abs(rows[start : start + step]) ** 2, axis=1, out=probs[start : start + step])
    if float(probs.sum()) < _ZERO_MASS:
        raise NormalizationError("state carries no probability mass; it was not normalized")
    return probs


def project_onto_outcome(
    state: StateVector, bits: BitChain
) -> tuple[MeasurementOutcome, StateVector]:
    """Deterministically collapse the leading qubits ``1..k`` onto ``bits``,
    where k = ``bits.width`` < n.

    The amplitudes carrying that prefix are row ``bits.value`` of the state
    reshaped to (2^k, 2^(n-k)).  Returns the outcome with its true Born
    probability and the renormalized state of the n-k unmeasured qubits.
    """
    k = bits.width
    if k >= state.n_qubits:
        raise ValueError(
            f"collapsing {k} qubits of {state.n_qubits} leaves no unmeasured state to return"
        )
    row = state.amplitudes.reshape(1 << k, -1)[bits.value]
    prob = float(np.sum(np.abs(row) ** 2))
    if prob < _ZERO_MASS:
        raise NormalizationError(f"outcome {bits} has no probability mass to collapse onto")
    return MeasurementOutcome(bits, min(prob, 1.0)), StateVector(
        state.n_qubits - k, row / math.sqrt(prob)
    )


def measure_subset(
    state: StateVector, k: int, rng: np.random.Generator | int
) -> tuple[MeasurementOutcome, StateVector]:
    """Measure the leading qubits ``1..k`` (k < n) with Born-rule sampling and
    collapse, returning the state of the unmeasured qubits as
    :func:`project_onto_outcome` does.

    The outcome is drawn by cumulative-probability inversion over outcomes
    in ascending label order from a seeded generator, so runs repeat
    bit-for-bit given the same seed.
    """
    generator = np.random.default_rng(rng)
    probs = probabilities_of_subset(state, k)
    cumulative = np.cumsum(probs)
    chosen = int(np.searchsorted(cumulative, generator.random(), side="right"))
    if chosen == len(probs):
        # cumulative fell short of 1 by rounding; take the last live outcome
        chosen = int(np.flatnonzero(probs > 0.0)[-1])
    return project_onto_outcome(state, BitChain(k, chosen))


def random_state(n_qubits: int, rng: np.random.Generator | int) -> StateVector:
    """Haar-adjacent random state: 2^(n+1) independent standard normals form
    the real then imaginary parts, then the vector is normalized."""
    _require_capacity(n_qubits)
    generator = np.random.default_rng(rng)
    half = 1 << n_qubits
    draws = generator.standard_normal(2 * half)
    amps = draws[:half] + 1j * draws[half:]
    return StateVector._owned(n_qubits, amps / np.linalg.norm(amps))


def state_to_dict(state: StateVector) -> dict:
    """JSON-ready form: {"n_qubits": n, "amplitudes": [[re, im], ...]}.

    Floats serialize with round-trip-exact decimal representations.
    """
    return {
        "n_qubits": state.n_qubits,
        "amplitudes": state.amplitudes.view(np.float64).reshape(-1, 2).tolist(),
    }


def state_json_chunks(state: StateVector) -> Iterator[str]:
    """The bytes ``json.dumps(state_to_dict(state))`` gives, in chunks: the
    wrapper, then the amplitude pairs ``_SLICE_ROWS`` rows at a time, so no
    chunk holds more than one slice of formatted floats."""
    yield f'{{"n_qubits": {state.n_qubits}, "amplitudes": ['
    pairs = state.amplitudes.view(np.float64).reshape(-1, 2)
    for start in range(0, len(pairs), _SLICE_ROWS):
        rows = json.dumps(pairs[start : start + _SLICE_ROWS].tolist())[1:-1]
        yield f", {rows}" if start else rows
    yield "]}"


def state_from_dict(payload: dict) -> StateVector:
    """Inverse of :func:`state_to_dict`; round-trips amplitudes exactly."""
    try:
        n = payload["n_qubits"]
        pairs = payload["amplitudes"]
    except (TypeError, KeyError) as exc:
        raise ValueError(f"not a state-vector document: missing {exc}") from exc
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"n_qubits must be an integer, got {n!r}")
    # JSON's true and false are not numbers, though Python counts them as ints
    if any(isinstance(part, bool) for pair in pairs for part in pair):
        raise ValueError("amplitude parts must be numbers, got a boolean")
    amps = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
    return StateVector(n, amps)


def _check_same_size(a: StateVector, b: StateVector, op: str) -> None:
    if a.n_qubits != b.n_qubits:
        raise ValueError(f"{op} needs equal registers, got {a.n_qubits} and {b.n_qubits} qubits")

