"""Jitted hot loops for the variational solver: the numba engine.

Numba compilations of the three whole-batch operations that ``state_sim``
gives the numpy engine: the statevector evolution, the Pauli
expectations and the reads of the reverse-mode (adjoint) gradient sweep,
each over B rows with the row loop inside the kernel.  They read the
numpy engine's tables (a step's ``state_sim.step_tables``, the measured
strings' and the sweep's ``PauliTables``) and do its operations in its
order; every turn goes through ``_turn``, ``state_sim.turn`` on one row.
Without numba the ``njit`` shim below leaves them plain Python, and the
tests run them that way against the numpy engine.
"""

from __future__ import annotations

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover
    HAVE_NUMBA = False

    def njit(**kwargs):
        return lambda fn: fn


@njit(cache=True)
def _turn(psi, perm, diag, weight, turned):
    """psi <- diag psi - weight psi[perm], in place, through the scratch
    array ``turned``.  The products stay array operations: numpy
    multiplies complex arrays with fused multiply-adds, which scalar
    products would not reproduce."""
    for c in range(psi.size):
        turned[c] = psi[perm[c]]
    turned *= weight
    psi *= diag
    psi -= turned


@njit(cache=True)
def evolve_batch(perms, diags, weights):
    """(B, 2^n) states: |0..0> turned by the (T, 2^n) perms and the (T, B,
    2^n) tables of ``state_sim.step_tables``, row b by its own tables."""
    count, batch, dim = diags.shape
    out = np.zeros((batch, dim), dtype=np.complex128)
    turned = np.empty(dim, dtype=np.complex128)
    for b in range(batch):
        psi = out[b]
        psi[0] = 1.0
        for t in range(count):
            _turn(psi, perms[t], diags[t, b], weights[t, b], turned)
    return out


@njit(cache=True)
def pauli_expectations(states, perms, coeffs):
    """(B, N) real expectations of each row's Paulis in its (B, 2^n) state.

    The (B, N, 2^n) tables encode (P_bi psi_b)[c] = coeffs[b, i, c]
    psi_b[perms[b, i, c]]; a list shared by every row is a broadcast view.
    Only the real part of the quadratic form is accumulated, which equals
    the full Hermitian expectation.
    """
    batch, count, dim = perms.shape
    out = np.empty((batch, count), dtype=np.float64)
    for b in range(batch):
        psi = states[b]
        for i in range(count):
            acc = 0.0
            for c in range(dim):
                term = np.conj(psi[c]) * coeffs[b, i, c] * psi[perms[b, i, c]]
                acc += term.real
            out[b, i] = acc
    return out


@njit(cache=True)
def adjoint_reads(perms, inverse, read_perms, read_coeffs, psis, lams, n):
    """(B, L, R) reads Im<lam_b|P|psi_b> of one reverse sweep per row.

    psis[b] is the circuit output and lams[b] = A_b psis[b]; neither (B,
    2^n) input is modified.  The (T, 2, B, 2^n) ``inverse`` holds each
    turn's (conj d, -w) (``state_sim.inverse_turns``): L layers of equal
    length whose first n turns are the U block.  The (L, R, 2^n) read tables give each layer's
    first 3n reads after its U block and the rest after its MS block.
    Walking back from the output, each sublayer is read and then
    un-applied, last turn first; the first is only read.
    """
    layers, count, dim = read_perms.shape
    per = perms.shape[0] // layers
    out = np.zeros((psis.shape[0], layers, count), dtype=np.float64)
    turned = np.empty(dim, dtype=np.complex128)
    for b in range(psis.shape[0]):
        psi = psis[b].copy()
        lam = lams[b].copy()
        for s in range(2 * layers - 1, -1, -1):
            layer = s // 2
            first, last = (3 * n, count) if s % 2 else (0, 3 * n)
            for r in range(first, last):
                acc = 0.0 + 0.0j
                for c in range(dim):
                    j = read_perms[layer, r, c]
                    acc += np.conj(lam[c]) * (psi[j] * read_coeffs[layer, r, c])
                out[b, layer, r] = acc.imag
            if s > 0:
                start = layer * per + (n if s % 2 else 0)
                for t in range(start + (per - n if s % 2 else n) - 1, start - 1, -1):
                    _turn(psi, perms[t], inverse[t, 0, b], inverse[t, 1, b], turned)
                    _turn(lam, perms[t], inverse[t, 0, b], inverse[t, 1, b], turned)
    return out
