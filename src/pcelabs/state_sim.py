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
(1,2), (3,4), ... plus the wrap-around pair (n-1, 0) when n is even, so
every layer has n // 2 bricks.  Every gate carries its own parameter.

Every Pauli string P acts on a state through a table pair: (P psi)[c] =
coeff[c] psi[perm[c]], with perm[c] = c XOR x_mask and coeff[c] a unit
(+-1 or +-i).  Gate generators and measured strings share that form.

Gates are applied as turns psi <- d psi - w psi[perm] with per-amplitude
tables d and w.  MS(t) with generator G is d = cos(t/2), w = i sin(t/2)
coeff_G.  RX(a) then RY(b) on qubit q is one 2x2 unitary U_q, the turn on
qubit q's flip with d = cos(a/2) cos(b/2) + i sin(a/2) sin(b/2) z and w =
i sin(a/2) cos(b/2) + cos(a/2) sin(b/2) z, z[c] = +-1 being Z_q's
eigenvalue: a layer is n + n // 2 turns, not 2n + n // 2.  A turn is
undone by the turn (conj d, conj(w)[perm]).

The adjoint sweep walks back through those inverses and reads each
gate's derivative Im<lam|G|psi> only at sublayer boundaries, after a
layer's U block and after its MS block: the gates of a sublayer act on
disjoint qubits and commute, so reading there equals reading just past
the gate.  RY_q is read as it is.  RX_q sits under RY_q, and RY(b) X
RY(b)^dagger = cos b X - sin b Z, so RX_q reads cos b Im<lam|X_q|psi>
minus sin b Im<lam|Z_q|psi>.
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
    "step_tables",
    "inverse_turns",
    "run_ansatz_batch",
    "expectations_batch",
    "sweep_work",
    "adjoint_gradient",
    "gradient_from_reads",
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

    def sweep_reads(self) -> PauliTables:
        """(layers, 3n + n // 2, 2^n) tables of what the adjoint sweep reads
        in each layer: X_q, Y_q and Z_q after its U block, then its MS
        generators after its MS block."""
        tables = _build_program(self.n, self.layers, "XYZ")
        return PauliTables(*(t.reshape(self.layers, -1, 1 << self.n) for t in tables))


# Generator (x_mask, z_mask) of each rotation axis on qubit 0.
_AXIS_MASKS = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}


@lru_cache(maxsize=64)
def _build_program(n: int, layers: int, axes: str = "XY") -> PauliTables:
    spec = AnsatzSpec(n, layers)
    x_masks, z_masks = [], []
    for layer in range(layers):
        for axis in axes:
            x, z = _AXIS_MASKS[axis]
            x_masks.extend(x << q for q in range(n))
            z_masks.extend(z << q for q in range(n))
        for q1, q2 in spec.brick_pairs(layer):
            x_masks.append((1 << q1) | (1 << q2))
            z_masks.append(0)
    return _tables(np.array(x_masks), np.array(z_masks), 1 << n)


def turn(states: np.ndarray, perm: np.ndarray, weight: np.ndarray, diag) -> None:
    """psi <- diag psi - weight * psi[perm] on every row of a (..., B,
    2^n) array, in place.

    For a generator table (perm, coeff), diag = cos(t/2) and weight = i
    sin(t/2) coeff this is psi <- exp(-i t G / 2) psi; t -> -t un-applies
    it.  diag is a scalar or an array and weight an array that broadcast
    against the rows, so rows and amplitudes may carry their own values.
    """
    turned = states.take(perm, axis=-1)
    turned *= weight
    states *= diag
    states -= turned


def step_tables(spec: AnsatzSpec, thetas: np.ndarray) -> tuple:
    """(perms, diags, weights): the turns at a (B, P) angle matrix in
    circuit order, (T, 2^n) perms and (T, B, 2^n) tables, per layer the n
    fused U_q and then the MS gates.  Each turn has determinant 1 on every
    pair (c, perm[c]), so its inverse (conj d, conj(w)[perm]) is (conj d,
    -w).  A step's forward pass and sweep share them: the last tables are
    returned again while the angles are equal and are overwritten by the
    next angles of their shape, so they hold only until then."""
    last = _last_step.get(spec)
    if last is not None and last[0].shape == thetas.shape:
        if np.array_equal(last[0], thetas):
            return last[1]
        last[0][...] = thetas
        tables = last[1]
    else:
        dim = 1 << spec.n
        # Past the U_q of a layer come its MS gates; U_q turns on RY_q's perm.
        perms = spec.gate_program().perms.reshape(spec.layers, -1, dim)[:, spec.n :]
        perms = perms.reshape(-1, dim)
        diags = np.zeros((len(perms), len(thetas), dim), dtype=np.complex128)
        tables = perms, diags, np.empty_like(diags)
        _last_step.clear()
        _last_step[spec] = (thetas.copy(), tables)
    n, layers, rows = spec.n, spec.layers, len(thetas)
    # (L, 2n + n // 2, B, 1) half angles: RX_q, RY_q, then the MS gates.
    half = np.ascontiguousarray(thetas.T).reshape(layers, -1, rows, 1) / 2.0
    cos, sin = np.cos(half), np.sin(half)
    (ca, cb, cm), (sa, sb, sm) = ((f[:, :n], f[:, n : 2 * n], f[:, 2 * n :]) for f in (cos, sin))
    coeffs = spec.sweep_reads().coeffs
    z = coeffs[0, 2 * n : 3 * n, None].real  # Z_q's eigenvalues
    diags, weights = (t.reshape(layers, -1, rows, t.shape[-1]) for t in tables[1:])
    diags.real[:, :n] = ca * cb
    np.multiply(sa * sb, z, out=diags.imag[:, :n])
    np.multiply(ca * sb, z, out=weights.real[:, :n])
    weights.imag[:, :n] = sa * cb
    diags.real[:, n:] = cm
    np.multiply(1j * sm, coeffs[:, 3 * n :, None], out=weights[:, n:])
    return tables


_last_step: dict = {}  # spec: (angles, tables) of the last angle matrix


def run_ansatz_batch(spec: AnsatzSpec, thetas: np.ndarray) -> np.ndarray:
    """Run the brickwork circuit for each row of a (B, P) angle matrix; a
    (P,) vector is one row.

    Returns a (B, 2^n) array of statevectors.  All rows share the gate
    sequence; only the angles differ.  Each layer is n + n // 2 turns.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=np.float64))
    if thetas.shape[1] != spec.param_count:
        raise ValueError(f"expected {spec.param_count} parameters, got {thetas.shape[1]}")
    states = np.zeros((thetas.shape[0], 1 << spec.n), dtype=np.complex128)
    states[:, 0] = 1.0
    for perm, diag, weight in zip(*step_tables(spec, thetas)):
        turn(states, perm, weight, diag)
    norms = np.linalg.norm(states, axis=1)
    if np.abs(norms - 1.0).max() > 1e-9:
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


def inverse_turns(spec: AnsatzSpec, thetas: np.ndarray, out=None) -> tuple:
    """(perms, inverse): the turns of ``step_tables`` undone one by one,
    inverse[t] = (conj d, -w) of turn t, a (T, 2, B, 2^n) array written to
    ``out`` when given."""
    perms, diags, weights = step_tables(spec, thetas)
    if out is None:
        out = np.empty((len(perms), 2, *diags.shape[1:]), dtype=np.complex128)
    np.conjugate(diags, out=out[:, 0])
    np.negative(weights, out=out[:, 1])
    return perms, out


def sweep_work(spec: AnsatzSpec, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Scratch arrays of ``adjoint_gradient`` at B = rows: the (2L + T, 2,
    B, 2^n) sublayer states and inverse turns, and the (B, L, 3n + n // 2,
    2^n) gathered reads.  Reusing them from step to step spares mapping
    and zero-filling their pages."""
    dim, (layers, count) = 1 << spec.n, spec.sweep_reads().perms.shape[:2]
    turns = len(spec.gate_program().perms) - spec.n * layers
    shapes = ((2 * layers + turns, 2, rows, dim), (rows, layers, count, dim))
    return tuple(np.empty(shape, dtype=np.complex128) for shape in shapes)


def adjoint_gradient(spec: AnsatzSpec, thetas, psis, lams, work) -> np.ndarray:
    """(B, P) gradients d<psi_b|A_b|psi_b>/dtheta_b by one reverse sweep
    of every row of the (B, P) angles through the ansatz.

    psis[b] is the circuit output at thetas[b] and lams[b] = A_b psis[b]
    for a Hermitian A_b.  All rows walk back as one (2, B, 2^n) array,
    each at its own angles: every sublayer but the first is un-applied
    turn by turn, last turn first, and the sublayer states are kept.
    ``spec.sweep_reads()`` is then read at them.  Per row these are the
    table operations of ``_kernels.adjoint_reads`` in the same order.
    ``work`` is a ``sweep_work(spec, B)`` pair.
    """
    n, layers, rows = spec.n, spec.layers, len(thetas)
    states, read = work
    slots = states[: 2 * layers]
    perms, inverse = inverse_turns(spec, thetas, states[2 * layers :])
    per = len(perms) // layers
    # Slot 2l: after layer l's U block; slot 2l + 1: after its MS block.
    slots[-1] = psis, lams
    sweep = slots
    if rows == 1:
        # The same memory in a one-row sweep's shapes: (2^n,) rows
        # broadcast faster than (1, 2^n) arrays.
        sweep, inverse = slots[:, :, 0], inverse[:, :, 0]
    for s in range(2 * layers - 1, 0, -1):
        start = s // 2 * per + s % 2 * n
        sweep[s - 1] = sweep[s]
        for t in range(start + (per - n if s % 2 else n) - 1, start - 1, -1):
            turn(sweep[s - 1], perms[t], inverse[t, 1], inverse[t, 0])
    # Each read gathered from its slot, with the states laid out (B, 2L 2^n).
    psi = slots[:, 0].transpose(1, 0, 2).reshape(rows, -1)
    # mode="clip" lets take write into ``read`` unbuffered; no index clips.
    psi.take(_read_index(n, layers), axis=1, out=read, mode="clip")
    read *= spec.sweep_reads().coeffs
    # Conjugated in place: a fresh copy costs page faults.
    lam = np.conjugate(slots[:, 1], out=slots[:, 1]).reshape(layers, 2, rows, -1)
    reads = [np.einsum("lbc,blrc->blr", lam[:, 0], read[:, :, : 3 * n])]
    reads.append(np.einsum("lbc,blrc->blr", lam[:, 1], read[:, :, 3 * n :]))
    return gradient_from_reads(spec, thetas, np.concatenate(reads, axis=-1).imag)


@lru_cache(maxsize=64)
def _read_index(n: int, layers: int) -> np.ndarray:
    """Index of each read's gathered amplitude in the sweep's sublayer
    states laid out (2L, 2^n): slot 2l for a U read, 2l + 1 for an MS read."""
    perms = AnsatzSpec(n, layers).sweep_reads().perms
    slots = 2 * np.arange(layers)[:, None] + (np.arange(perms.shape[1]) >= 3 * n)
    return (slots[..., None] << n) + perms


def gradient_from_reads(spec: AnsatzSpec, thetas: np.ndarray, reads: np.ndarray) -> np.ndarray:
    """The (B, P) gradient from a sweep's (B, layers, 3n + n // 2) reads of
    ``spec.sweep_reads()``: RX_q takes cos b_q X_q - sin b_q Z_q, RY_q
    takes Y_q and each MS gate its generator."""
    n = spec.n
    b = thetas.reshape(len(thetas), spec.layers, -1)[..., n : 2 * n]
    x, z = reads[..., :n], reads[..., 2 * n : 3 * n]
    return np.concatenate(
        [np.cos(b) * x - np.sin(b) * z, reads[..., n : 2 * n], reads[..., 3 * n :]], axis=-1
    ).reshape(thetas.shape)
