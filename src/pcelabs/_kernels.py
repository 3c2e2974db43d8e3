"""Jitted hot loops for the variational solver: the numba engine.

Numba compilations of the three whole-batch operations that ``state_sim``
gives the numpy engine: the statevector evolution, the Pauli
expectations and the reverse-mode (adjoint) gradient sweep, each over B
rows with the row loop inside the kernel.  They read the same
``state_sim.PauliTables`` as the numpy engine, for the gates and the
measured strings alike, and apply every gate through one loop,
``_turn``, which computes ``state_sim.turn`` element by element in the
same operation order.  Without numba the ``njit`` shim below leaves them
plain Python, and the tests run them that way against the numpy engine.
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
def _turn(psi, perm, coeff, cos_half, sin_half):
    """psi <- cos_half psi - i sin_half coeff psi[perm], in place.

    With cos_half = cos(t/2) and sin_half = sin(t/2) this applies
    exp(-i t G / 2) for the generator table (perm, coeff); -t un-applies
    it.  perm is an involution, so each pair (c, perm[c]) is updated from
    its old values once; perm[c] == c covers diagonal generators.
    """
    for c in range(psi.size):
        j = perm[c]
        if c <= j:
            a = psi[c]
            b = psi[j]
            psi[c] = a * cos_half - b * (1j * sin_half * coeff[c])
            psi[j] = b * cos_half - a * (1j * sin_half * coeff[j])


@njit(cache=True)
def evolve_batch(perms, coeffs, thetas):
    """(B, 2^n) states: |0..0> evolved through the gate tables for each row
    of (B, G) angles; gate g turns by thetas[b, g]."""
    out = np.zeros((thetas.shape[0], perms.shape[1]), dtype=np.complex128)
    for b in range(thetas.shape[0]):
        psi = out[b]
        psi[0] = 1.0
        for g in range(perms.shape[0]):
            half = thetas[b, g] / 2.0
            _turn(psi, perms[g], coeffs[g], np.cos(half), np.sin(half))
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
def adjoint_gradient(perms, coeffs, thetas, psis, lams):
    """(B, G) gradients d<psi_b|A_b|psi_b>/dtheta_b by one reverse sweep
    per row of (B, G) angles.

    psis[b] is the circuit output for thetas[b] and lams[b] = A_b psis[b]
    for a Hermitian A_b; neither (B, 2^n) input is modified.  Walking back
    from the last gate, gate g with U_g = exp(-i t G_g / 2) contributes
    Im<lam|G_g|psi> read with both vectors just past it, and is then
    un-applied from both.
    """
    grad = np.zeros(thetas.shape, dtype=np.float64)
    for b in range(thetas.shape[0]):
        psi = psis[b].copy()
        lam = lams[b].copy()
        for g in range(perms.shape[0] - 1, -1, -1):
            perm = perms[g]
            coeff = coeffs[g]
            acc = 0.0 + 0.0j
            for c in range(psi.size):
                acc += np.conj(lam[c]) * (coeff[c] * psi[perm[c]])
            grad[b, g] = acc.imag
            half = thetas[b, g] / 2.0
            cos_half = np.cos(half)
            sin_half = -np.sin(half)
            _turn(psi, perm, coeff, cos_half, sin_half)
            _turn(lam, perm, coeff, cos_half, sin_half)
    return grad
