"""Single-gate, finite-shot and gradient oracles for the simulator and
solver tests.

The solver applies gates only through ``state_sim.turn``, each RX.RY
pair as one turn, and samples shots as binomial draws on exact
expectations; these helpers build the gates one at a time, and a
rotated-basis shot measurement, so the tests can compare them with dense
linear algebra.  The solver's gradient is one adjoint sweep;
``parameter_shift_gradient`` computes the same gradient from shifted
circuits, through ``relaxed_loss``'s chain rule, as a hardware run would.
"""

from __future__ import annotations

import math

import numpy as np

from pcelabs.pauli_algebra import PauliString
from pcelabs.pce_solver import LossContext, _soft_autocorrelations
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


def relaxed_loss(x_tilde: np.ndarray, beta: float) -> float:
    """L = sum_l C_l(x~)^2 - beta sum_i x~_i^2.

    On a binary +-1 vector with beta = 0 this equals the integer sidelobe
    energy exactly (all intermediate floats are integers below 2^53).
    """
    x_tilde = np.asarray(x_tilde, dtype=np.float64)
    c = _soft_autocorrelations(x_tilde)
    return float(np.dot(c, c) - beta * np.dot(x_tilde, x_tilde))


def parameter_shift_gradient(ctx: LossContext, theta: np.ndarray) -> np.ndarray:
    """dL/dtheta from two exact evaluations per parameter.

    Every gate generator here has eigenvalues +-1/2 scaled into
    exp(-i t G / 2) form, so d<P>/dt = (<P>(t + pi/2) - <P>(t - pi/2)) / 2
    holds exactly; the loss gradient follows by the chain rule through
    x~ = tanh(alpha e).  The solver uses the adjoint sweep; this is its
    test oracle and the cost model a hardware run would pay (2P circuits).
    """
    theta = np.asarray(theta, dtype=np.float64)
    p = theta.size
    batch = np.repeat(theta[None, :], 2 * p + 1, axis=0)
    idx = np.arange(p)
    batch[2 * idx + 1, idx] += math.pi / 2.0
    batch[2 * idx + 2, idx] -= math.pi / 2.0
    ex = ctx.exact_expectations(batch)
    weights = ctx._loss_weights(ex[0])
    shifts = (ex[1::2] - ex[2::2]) / 2.0
    return shifts @ weights
