"""Single-gate and finite-shot helpers for the simulator tests.

The solver applies gates only through ``state_sim.turn`` over the gate
program's tables and samples shots as binomial draws on exact
expectations; these helpers build the same gates one at a time, and a
rotated-basis shot measurement, so the tests can compare them with dense
linear algebra.
"""

from __future__ import annotations

import numpy as np

from pcelabs.pauli_algebra import PauliString
from pcelabs.state_sim import _AXIS_MASKS, _tables, turn

_HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)
_S_DAGGER = np.array([[1, 0], [0, -1j]], dtype=np.complex128)


def _as_batch(state: np.ndarray) -> tuple[np.ndarray, bool]:
    if state.ndim == 1:
        return state[None, :], True
    return state, False


def _mix_pair(states: np.ndarray, qubit: int, m00, m01, m10, m11) -> None:
    """Apply a 2x2 matrix to one qubit of a (B, 2^n) array, in place."""
    b, dim = states.shape
    lo = 1 << qubit
    hi = dim >> (qubit + 1)
    view = states.reshape(b, hi, 2, lo)
    v0 = view[:, :, 0, :].copy()
    v1 = view[:, :, 1, :]
    view[:, :, 0, :] = m00 * v0 + m01 * v1
    view[:, :, 1, :] = m10 * v0 + m11 * v1


def _apply_generator(state: np.ndarray, x_mask: int, z_mask: int, theta: float) -> np.ndarray:
    out, single = _as_batch(np.array(state, dtype=np.complex128))
    perms, coeffs = _tables(np.array([x_mask]), np.array([z_mask]), out.shape[1])
    turn(out, perms[0], 1j * np.sin(theta / 2.0) * coeffs[0], np.cos(theta / 2.0))
    return out[0] if single else out


def apply_rotation(state: np.ndarray, axis: str, qubit: int, theta: float) -> np.ndarray:
    """exp(-i theta P_q / 2) applied to a state; returns a new array."""
    x, z = _AXIS_MASKS[axis.upper()]
    return _apply_generator(state, x << qubit, z << qubit, theta)


def apply_ms(state: np.ndarray, q1: int, q2: int, theta: float) -> np.ndarray:
    """exp(-i theta X_q1 X_q2 / 2) applied to a state; returns a new array."""
    if q1 == q2:
        raise ValueError("MS gate needs two distinct qubits")
    return _apply_generator(state, (1 << q1) | (1 << q2), 0, theta)


def apply_single_qubit(state: np.ndarray, mat: np.ndarray, qubit: int) -> np.ndarray:
    """Apply an arbitrary 2x2 matrix to one qubit; returns a new array."""
    out, single = _as_batch(np.array(state, dtype=np.complex128))
    _mix_pair(out, qubit, mat[0, 0], mat[0, 1], mat[1, 0], mat[1, 1])
    return out[0] if single else out


def sampled_expectation(
    state: np.ndarray, pauli: PauliString, shots: int, rng: np.random.Generator
) -> float:
    """Estimate <psi|P|psi> from a finite number of measured shots.

    Rotates each support qubit into the Z eigenbasis (H for X, then
    S-dagger followed by H for Y), reads the parity distribution, and
    draws a binomial sample.  shots = 0 would divide by zero and is
    rejected.
    """
    if shots < 1:
        raise ValueError("shots must be positive")
    rotated = np.array(state, dtype=np.complex128)
    for q in range(pauli.n):
        xb = (pauli.x_mask >> q) & 1
        zb = (pauli.z_mask >> q) & 1
        if xb and zb:
            rotated = apply_single_qubit(rotated, _S_DAGGER, q)
            rotated = apply_single_qubit(rotated, _HADAMARD, q)
        elif xb:
            rotated = apply_single_qubit(rotated, _HADAMARD, q)
    support = pauli.x_mask | pauli.z_mask
    probs = np.abs(rotated) ** 2
    parity = np.bitwise_count((np.arange(probs.size) & support).astype(np.uint64)) & 1
    p_plus = float(probs[parity == 0].sum())
    p_plus = min(max(p_plus, 0.0), 1.0)
    hits = int(rng.binomial(shots, p_plus))
    return (2 * hits - shots) / shots
