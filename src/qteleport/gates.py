"""The Hadamard layer, CNOT, and measured-bit Pauli products.

``hadamard_closed_form`` builds the transform of a basis state directly
from the AND-parity sign, without touching a matrix; it is the independent
twin of ``hadamard_layer`` and the two are cross-checked in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .bitchain import BitChain, iverson_delta
from .statevector import StateVector

_SQRT_HALF = 1.0 / math.sqrt(2.0)
_H = np.array([[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]], dtype=np.complex128)
_H.setflags(write=False)


def apply_cnot(state: StateVector, control: int, target: int) -> StateVector:
    """Flip the target qubit wherever the control qubit is 1."""
    n = state.n_qubits
    if control == target:
        raise ValueError(f"control and target must differ, both are {control}")
    for q in (control, target):
        if not 1 <= q <= n:
            raise ValueError(f"qubit {q} outside 1..{n}")
    source = state.amplitudes.reshape((2,) * n)
    out = source.copy()
    # where the control is 1, the target-0 and target-1 halves trade places
    half_0, half_1 = ([slice(None)] * n for _ in range(2))
    half_0[control - 1] = half_1[control - 1] = 1
    half_0[target - 1], half_1[target - 1] = 0, 1
    out[tuple(half_0)] = source[tuple(half_1)]
    out[tuple(half_1)] = source[tuple(half_0)]
    return StateVector._owned(n, out.reshape(-1))


def hadamard_layer(state: StateVector, qubits: Iterable[int]) -> StateVector:
    """Fold a Hadamard over each listed qubit (1-based; they commute on distinct qubits).

    An empty layer returns ``state`` itself.
    """
    n = state.n_qubits
    t = start = state.amplitudes.reshape((2,) * n)
    for q in qubits:
        if not 1 <= q <= n:
            raise ValueError(f"target qubit {q} outside 1..{n}")
        t = np.moveaxis(np.tensordot(_H, np.moveaxis(t, q - 1, 0), axes=([1], [0])), 0, q - 1)
    if t is start:
        return state
    # tensordot made t, so its one C-order copy (or t itself) belongs to no other state
    return StateVector._owned(n, t.reshape(-1))


def hadamard_closed_form(i: BitChain) -> StateVector:
    """The Hadamard transform of basis state ``|i>``, built without matrices.

    Every label k receives amplitude (-1)^delta(i, k) / sqrt(2^n) where
    delta is the AND-parity of the two labels.
    """
    n = i.width
    scale = 1.0 / math.sqrt(2.0**n)
    amps = np.empty(1 << n, dtype=np.complex128)
    for k in range(1 << n):
        sign = -1.0 if iverson_delta(i, BitChain(n, k)) else 1.0
        amps[k] = sign * scale
    return StateVector(n, amps)


@dataclass(frozen=True)
class PauliCorrection:
    """Exponent bits for products of X and Z over an n-qubit register.

    Bit m of each chain is the exponent on the gate acting on qubit m
    (M^0 = I, M^1 = M).
    """

    n: int
    x_exponents: BitChain
    z_exponents: BitChain

    def __post_init__(self) -> None:
        if self.x_exponents.width != self.n or self.z_exponents.width != self.n:
            raise ValueError(
                f"exponent widths ({self.x_exponents.width}, {self.z_exponents.width}) "
                f"must equal n={self.n}"
            )


def apply_pauli_correction(state: StateVector, corr: PauliCorrection) -> StateVector:
    """Apply (X products)(Z products) to an n-qubit state, n = ``corr.n``.

    The Z-exponent factors act first, then the X factors; qubit m carries
    the m-th exponent bit of each chain.  Label b receives
    (-1)^parity((b XOR x) AND z) times the amplitude at b XOR x.
    """
    return _signed_permutation(state, corr, sign_on_source=True)


def apply_pauli_correction_inverse(state: StateVector, corr: PauliCorrection) -> StateVector:
    """Exact inverse of :func:`apply_pauli_correction`: X factors first, then Z.

    Composing the forward operator with this one is the identity including
    sign, not merely up to a global phase.  Label b receives
    (-1)^parity(b AND z) times the amplitude at b XOR x.
    """
    return _signed_permutation(state, corr, sign_on_source=False)


def _signed_permutation(
    state: StateVector, corr: PauliCorrection, *, sign_on_source: bool
) -> StateVector:
    """Both Pauli products: a sign-flipped permutation of the state's labels."""
    if corr.n != state.n_qubits:
        raise ValueError(
            f"correction on {corr.n} qubits does not fit a {state.n_qubits}-qubit state"
        )
    z = corr.z_exponents.value
    source = np.arange(1 << corr.n) ^ corr.x_exponents.value
    signed = source if sign_on_source else range(1 << corr.n)
    negate = np.array([(int(v) & z).bit_count() & 1 for v in signed], dtype=bool)
    moved = state.amplitudes[source]
    # adding 0.0 turns -0.0 into 0.0, so exact zeros print unsigned
    return StateVector._owned(state.n_qubits, np.where(negate, -moved, moved) + 0.0)
