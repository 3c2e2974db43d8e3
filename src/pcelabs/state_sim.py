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

At the few rows of a lockstep batch a turn is a handful of small array
operations, so Python overhead counts: a step indexes its turns once.
The forward pass walks a list of (perm, diag, weight) views of the
step's tables, and the sweep walks a plan of views that ``sweep_work``
builds once per scratch buffer.  The sweep holds each inverse table once
for psi and once for lam, so a turn's operands all have one shape and no
operation broadcasts.
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
    next angles of their shape, so they hold only until then.

    A turn's d and w take one value where z = +1 and one where z = -1
    (an MS turn just one), so they are worked out per turn and row and
    spread over the amplitudes by one gather."""
    n, layers, rows = spec.n, spec.layers, len(thetas)
    last = _last_step.get(spec)
    if last is not None and last[0].shape == thetas.shape:
        if np.array_equal(last[0], thetas):
            return last[1]
        last[0][...] = thetas
    else:
        perms = _turn_perms(n, layers)
        both = np.empty((2, len(perms), rows, perms.shape[1]), dtype=np.complex128)
        _last_step.clear()
        last = _last_step[spec] = (thetas.copy(), (perms, *both), both, _table_index(n, layers, rows))
    _, tables, both, index = last
    # (L, 2n + n // 2, B) half angles: RX_q, RY_q, then the MS gates.
    half = np.ascontiguousarray(thetas.T).reshape(layers, -1, rows) / 2.0
    cos, sin = np.cos(half), np.sin(half)
    (ca, cb, cm), (sa, sb, sm) = ((f[:, :n], f[:, n : 2 * n], f[:, 2 * n :]) for f in (cos, sin))
    # (L, n + n // 2, B, z = +1 or -1, d or w) values of each turn.
    values = np.empty((layers, len(tables[0]) // layers, rows, 2, 2), dtype=np.complex128)
    u, ms = values[:, :n], values[:, n:, :, 0]
    u.real[..., 0] = (ca * cb)[..., None]
    u.imag[..., 0, 0] = sa * sb
    np.negative(u.imag[..., 0, 0], out=u.imag[..., 1, 0])
    u.real[..., 0, 1] = ca * sb
    np.negative(u.real[..., 0, 1], out=u.real[..., 1, 1])
    u.imag[..., 1] = (sa * cb)[..., None]
    ms[..., 0] = cm
    # An MS generator's coefficient is the same on every amplitude.
    np.multiply(1j * sm, spec.sweep_reads().coeffs[:, 3 * n :, :1], out=ms[..., 1])
    # mode="clip" lets take write into the tables unbuffered; no index clips.
    np.take(values.reshape(-1), index, out=both, mode="clip")
    return tables


# spec: (angles, tables, both tables as one array, their gather index) of
# the last angle matrix
_last_step: dict = {}


@lru_cache(maxsize=64)
def _turn_perms(n: int, layers: int) -> np.ndarray:
    """(T, 2^n) perms of a step's turns: per layer, U_q turns on RY_q's
    perm, and past the U_q come the MS gates'."""
    dim = 1 << n
    perms = AnsatzSpec(n, layers).gate_program().perms.reshape(layers, -1, dim)[:, n:]
    return perms.reshape(-1, dim)


def _table_index(n: int, layers: int, rows: int) -> np.ndarray:
    """(2, T, B, 2^n) index of each d and w table entry in the flattened
    (L, n + n // 2, B, 2, 2) values of ``step_tables``: the U_q turns read
    the pair of z = -1 where bit q of the amplitude is set."""
    dim, per = 1 << n, n + n // 2
    flips = np.zeros((per, dim), dtype=np.intp)
    flips[:n] = np.arange(dim) >> np.arange(n)[:, None] & 1
    pairs = np.arange(layers * per * rows).reshape(layers, per, rows, 1)
    index = (pairs * 2 + flips[:, None]) * 2
    return np.stack([index, index + 1]).reshape(2, layers * per, rows, dim)


_bound: list = [None, []]  # a step_tables tuple and its turns


def _bind(tables: tuple) -> list:
    """The turns of a ``step_tables`` tuple as (perm, diag, weight) views,
    listed once per tuple: its tables are rewritten in place from step to
    step, so the views stay bound to the current angles."""
    if _bound[0] is not tables:
        _bound[:] = tables, list(zip(*tables))
    return _bound[1]


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
    for perm, diag, weight in _bind(step_tables(spec, thetas)):
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
    ``out`` when given.  An ``out`` with more axes between the pair and the
    rows, (T, 2, ..., B, 2^n), gets the same tables in every copy."""
    perms, diags, weights = step_tables(spec, thetas)
    if out is None:
        out = np.empty((len(perms), 2, *diags.shape[1:]), dtype=np.complex128)
    shape = (len(perms), *[1] * (out.ndim - 4), *diags.shape[1:])
    np.conjugate(diags.reshape(shape), out=out[:, 0])
    np.negative(weights.reshape(shape), out=out[:, 1])
    return perms, out


def sweep_work(spec: AnsatzSpec, rows: int) -> tuple:
    """(states, read, plan): the scratch arrays of ``adjoint_gradient`` at
    B = rows and its plan over them.

    ``states`` is (2L + 2T, 2, B, 2^n): the 2L (psi, lam) sublayer states,
    then each turn's (conj d, -w) pair laid out (T, 2, 2, B, 2^n), once
    for psi and once for lam.  ``read`` holds the (B, L, 3n + n // 2, 2^n)
    gathered reads.  ``plan`` has one entry per sublayer but the first,
    last first: (target slot, source slot, [(perm, -w, conj d), ...]),
    views into ``states`` that un-apply the sublayer, last turn first.
    Reusing the arrays from step to step spares mapping and zero-filling
    their pages, and the plan indexes them once."""
    n, dim, (layers, count) = spec.n, 1 << spec.n, spec.sweep_reads().perms.shape[:2]
    perms = _turn_perms(n, layers)
    shapes = ((2 * layers + 2 * len(perms), 2, rows, dim), (rows, layers, count, dim))
    states, read = (np.empty(shape, dtype=np.complex128) for shape in shapes)
    # Slot 2l: after layer l's U block; slot 2l + 1: after its MS block.
    slots, inverse = states[: 2 * layers], states[2 * layers :].reshape(-1, 2, 2, rows, dim)
    per = len(perms) // layers
    plan = []
    for s in range(2 * layers - 1, 0, -1):
        start = s // 2 * per + s % 2 * n
        stop = start + (per - n if s % 2 else n)
        turns = [(perms[t], inverse[t, 1], inverse[t, 0]) for t in range(stop - 1, start - 1, -1)]
        plan.append((slots[s - 1], slots[s], turns))
    return states, read, plan


def adjoint_gradient(spec: AnsatzSpec, thetas, psis, lams, work) -> np.ndarray:
    """(B, P) gradients d<psi_b|A_b|psi_b>/dtheta_b by one reverse sweep
    of every row of the (B, P) angles through the ansatz.

    psis[b] is the circuit output at thetas[b] and lams[b] = A_b psis[b]
    for a Hermitian A_b.  All rows walk back as one (2, B, 2^n) array,
    each at its own angles.  ``work`` is a ``sweep_work(spec, B)`` triple:
    the step's inverse turns are written where its plan reads them, and
    each planned sublayer is un-applied by copying its slot down and
    turning the copy back.  ``spec.sweep_reads()`` is then read at the
    sublayer states.  Per row these are the table operations of
    ``_kernels.adjoint_reads`` in the same order.
    """
    n, layers, rows = spec.n, spec.layers, len(thetas)
    states, read, plan = work
    slots = states[: 2 * layers]
    inverse_turns(spec, thetas, states[2 * layers :].reshape(-1, 2, 2, rows, 1 << n))
    slots[-1] = psis, lams
    for target, source, turns in plan:
        target[...] = source
        for perm, weight, diag in turns:
            turn(target, perm, weight, diag)
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
