"""Dense statevector simulation of the brickwork ansatz: the numpy engine.

Conventions, fixed once here and relied on everywhere:

* little-endian basis order: bit q of a basis index is qubit q, so the
  index c = sum_q c_q 2^q and qubit 0 toggles the lowest bit;
* rotations are RX(t) = exp(-i t X / 2), likewise RY and RZ;
* the entangler is the Molmer-Sorensen gate MS(t) = exp(-i t XX / 2),
  which mixes c with c XOR mask where mask covers both qubits;
* states are complex128 numpy arrays of shape (2^n,) or (B, 2^n).

One ansatz layer applies RX then RY on every qubit, then an MS gate on
each brick pair.  Even layers pair (0,1), (2,3), ...; odd layers pair
(1,2), (3,4), ... plus the wrap-around pair (n-1, 0) when n is even.
Every gate carries its own parameter.

Every gate is exp(-i t G / 2) for a Pauli-string generator G, and every
Pauli string P acts on a state through a table pair: (P psi)[c] =
coeff[c] psi[perm[c]], with perm[c] = c XOR x_mask and coeff[c] a unit
(+-1 or +-i).  Gates and measured strings share that one table form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "AnsatzSpec",
    "PauliTables",
    "pauli_tables",
    "turn",
    "run_ansatz_batch",
    "expectations_batch",
    "adjoint_gradient",
]


class PauliTables(NamedTuple):
    """Stacked tables of a Pauli list, measured strings or gate generators:
    (P_i psi)[c] = coeffs[i, c] psi[perms[i, c]]."""

    perms: np.ndarray
    coeffs: np.ndarray


_PHASES = np.array([1, 1j, -1, -1j], dtype=np.complex128)


def _tables(x_masks: np.ndarray, z_masks: np.ndarray, dim: int) -> PauliTables:
    perms = np.arange(dim) ^ x_masks[..., None]
    signs = 1.0 - 2.0 * (np.bitwise_count(perms & z_masks[..., None]) & 1)
    phases = _PHASES[np.bitwise_count(x_masks & z_masks) % 4]
    return PauliTables(perms, phases[..., None] * signs)


def pauli_tables(paulis, dim: int) -> PauliTables:
    """Stacked tables of a sequence of PauliStrings, shape (len(paulis), dim),
    or of a sequence of B equally long such sequences, shape (B, len, dim)."""
    strings = np.array(paulis, dtype=object)
    x_masks = np.array([p.x_mask for p in strings.flat], dtype=np.int64)
    z_masks = np.array([p.z_mask for p in strings.flat], dtype=np.int64)
    return _tables(x_masks.reshape(strings.shape), z_masks.reshape(strings.shape), dim)


@dataclass(frozen=True)
class AnsatzSpec:
    """Brickwork circuit shape: qubit count and layer count."""

    n: int
    layers: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("ansatz needs at least 2 qubits")
        if self.layers < 1:
            raise ValueError("ansatz needs at least 1 layer")

    def brick_pairs(self, layer: int) -> list[tuple[int, int]]:
        n = self.n
        if layer % 2 == 0:
            return [(q, q + 1) for q in range(0, n - 1, 2)]
        pairs = [(q, q + 1) for q in range(1, n - 1, 2)]
        if n % 2 == 0:
            pairs.append((n - 1, 0))
        return pairs

    @property
    def param_count(self) -> int:
        return len(self.gate_program().perms)

    def gate_program(self) -> PauliTables:
        """The generator tables of the gates in circuit order: gate g is
        exp(-i t G_g / 2) with t the angle theta[g]."""
        return _build_program(self.n, self.layers)


# Generator (x_mask, z_mask) of each rotation axis on qubit 0.
_AXIS_MASKS = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}


@lru_cache(maxsize=64)
def _build_program(n: int, layers: int) -> PauliTables:
    spec = AnsatzSpec(n, layers)
    x_masks, z_masks = [], []
    for layer in range(layers):
        for axis in ("X", "Y"):
            x, z = _AXIS_MASKS[axis]
            x_masks.extend(x << q for q in range(n))
            z_masks.extend(z << q for q in range(n))
        for q1, q2 in spec.brick_pairs(layer):
            x_masks.append((1 << q1) | (1 << q2))
            z_masks.append(0)
    return _tables(np.array(x_masks), np.array(z_masks), 1 << n)


def turn(states: np.ndarray, perm: np.ndarray, weight: np.ndarray, cos_half) -> None:
    """psi <- cos_half psi - weight * psi[perm] on every row of a (..., B,
    2^n) array, in place.

    For a generator table (perm, coeff), cos_half = cos(t/2) and weight =
    i sin(t/2) coeff this is psi <- exp(-i t G / 2) psi; t -> -t un-applies
    it.  cos_half is a scalar or a (B, 1) array, weight a (2^n,) or
    (B, 2^n) array, so rows may carry their own angles.
    """
    turned = states.take(perm, axis=-1)
    turned *= weight
    states *= cos_half
    states -= turned


def run_ansatz_batch(spec: AnsatzSpec, thetas: np.ndarray) -> np.ndarray:
    """Run the brickwork circuit for each row of a (B, P) angle matrix; a
    (P,) vector is one row.

    Returns a (B, 2^n) array of statevectors.  All rows share the gate
    sequence; only the angles differ.
    """
    prog = spec.gate_program()
    thetas = np.atleast_2d(np.asarray(thetas, dtype=np.float64))
    if thetas.shape[1] != len(prog.perms):
        raise ValueError(
            f"expected {len(prog.perms)} parameters, got {thetas.shape[1]}"
        )
    states = np.zeros((thetas.shape[0], 1 << spec.n), dtype=np.complex128)
    states[:, 0] = 1.0
    # Gate-major rows, so each gate's angles and weights are contiguous.
    half = np.ascontiguousarray(thetas.T)[:, :, None] / 2.0
    weights = 1j * np.sin(half) * prog.coeffs[:, None, :]
    for perm, weight, c in zip(prog.perms, weights, np.cos(half)):
        turn(states, perm, weight, c)
    norms = np.linalg.norm(states, axis=1)
    if not np.allclose(norms, 1.0, atol=1e-9):
        raise AssertionError("state norm drifted beyond 1e-9")
    return states


def expectations_batch(states: np.ndarray, paulis) -> np.ndarray:
    """<psi_b|P_i|psi_b> for every state row and Pauli; shape (B, N).

    ``paulis`` is a sequence of PauliStrings or their ``PauliTables``,
    shared by every row, or (B, N, 2^n) tables with one Pauli list per row.
    """
    states = np.atleast_2d(states)
    if not isinstance(paulis, PauliTables):
        paulis = pauli_tables(paulis, states.shape[1])
    rows = np.arange(states.shape[0])[:, None, None]
    values = np.einsum("bc,bic->bi", states.conj(), paulis.coeffs * states[rows, paulis.perms])
    if np.any(np.abs(values.imag) >= 1e-9):
        raise AssertionError("expectation has imaginary part above 1e-9")
    return values.real.copy()


def adjoint_gradient(program: PauliTables, thetas, psis, lams, work) -> np.ndarray:
    """(B, P) gradients d<psi_b|A_b|psi_b>/dtheta_b by one reverse sweep
    of every row of the (B, P) angles through the gate ``program``.

    psis[b] is the circuit output at thetas[b] and lams[b] = A_b psis[b]
    for a Hermitian A_b.  All rows are un-applied gate by gate as one (2,
    B, 2^n) array, each at its own angle; gate g, with U_g = exp(-i t G_g
    / 2), contributes Im<lam|G_g|psi> read with both vectors just past it.
    Per row these are the table operations of ``_kernels.adjoint_gradient``
    in the same order.

    ``work`` is a (3P + 2, B, 2^n) complex scratch array for the trail and
    the gate weights.  Reusing one from step to step spares mapping and
    zero-filling its pages: about a fifth of a step at B = 16 (2 CPUs).
    """
    perms, coeffs = program
    rows, count = len(thetas), len(perms)
    trail = work[: 2 * count + 2].reshape(count + 1, 2, rows, -1)
    weights = work[2 * count + 2 :]
    half = np.ascontiguousarray(thetas.T)[:, :, None] / 2.0
    cos = np.cos(half)
    np.multiply(-1j * np.sin(half), coeffs[:, None, :], out=weights)
    trail[count] = psis, lams
    sweep = trail
    if rows == 1:
        # The same memory in a one-row sweep's shapes: scalars and (2^n,)
        # rows broadcast faster than (1, 1) and (1, 2^n) arrays.
        sweep, weights, cos = trail[:, :, 0], weights[:, 0], cos[:, 0, 0]
    for g in range(count - 1, -1, -1):
        sweep[g] = sweep[g + 1]
        turn(sweep[g], perms[g], weights[g], cos[g])
    past = trail[1:]
    g_psi = np.take_along_axis(past[:, 0], perms[:, None, :], axis=2)
    g_psi *= coeffs[:, None, :]
    # Conjugated in place: a fresh (P, B, 2^n) copy costs page faults.
    lam = np.conjugate(past[:, 1], out=past[:, 1])
    return np.einsum("gbc,gbc->bg", lam, g_psi).imag
