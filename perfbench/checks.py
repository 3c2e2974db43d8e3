"""Output checks for the benchmark, sharing no code with ``pcelabs``.

Every reference value here is computed from first principles: a
pure-Python autocorrelation energy, the 8-element symmetry orbit, a dense
ansatz unitary multiplied out of Kronecker products, and the optimal
energies published by Packebusch & Mertens (arXiv:1512.02475).  Each
``check_*`` function returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import math

import numpy as np

# Optimal sidelobe energies for the sizes the workloads use, as published
# in Packebusch & Mertens, "Low autocorrelation binary sequences" (2016).
PUBLISHED_OPTIMA = {13: 6, 24: 36, 28: 50, 45: 118}


def energy(seq) -> int:
    """Sidelobe energy sum_k C_k^2, in plain Python integers."""
    s = [int(v) for v in seq]
    n = len(s)
    return sum(sum(s[i] * s[i + k] for i in range(n - k)) ** 2 for k in range(1, n))


def orbit(seq) -> list[tuple[int, ...]]:
    """The 8 images of ``seq`` under negation, reversal and alternation."""
    s = tuple(int(v) for v in seq)
    images = []
    for base in (s, s[::-1]):
        alternated = tuple(v if i % 2 == 0 else -v for i, v in enumerate(base))
        for y in (base, alternated):
            images.append(y)
            images.append(tuple(-v for v in y))
    return images


def canonical(seq) -> tuple[int, ...]:
    """Lexicographically smallest orbit member, +1 ordered before -1."""
    return min(orbit(seq), key=lambda y: tuple(0 if v > 0 else 1 for v in y))


def _check_sequence(seq, claimed_energy: int, n: int, label: str) -> list[str]:
    s = tuple(int(v) for v in seq)
    if len(s) != n or any(v not in (-1, 1) for v in s):
        return [f"{label}: not a +-1 sequence of length {n}"]
    problems = []
    if energy(s) != claimed_energy:
        problems.append(f"{label}: rescores to {energy(s)}, claimed {claimed_energy}")
    if canonical(s) != s:
        problems.append(f"{label}: not the canonical member of its orbit")
    return problems


def check_solve(result, n: int, expected_evals: int) -> list[str]:
    """Checks on one ``SolveResult`` from a fixed-work solve."""
    problems = []
    if result.n != n:
        problems.append(f"result is for N = {result.n}, asked for {n}")
    problems += _check_sequence(result.best_sequence, result.best_energy, n, "best")
    if result.best_energy < PUBLISHED_OPTIMA[n]:
        problems.append(
            f"best energy {result.best_energy} is below the published optimum "
            f"{PUBLISHED_OPTIMA[n]}"
        )
    if result.total_evals != expected_evals:
        problems.append(f"total_evals {result.total_evals}, fixed work is {expected_evals}")
    return problems


def check_exact(result, n: int, levels: int) -> list[str]:
    """Checks on one ``ExactResult``: optimum, level structure, optima."""
    problems = []
    found = list(result.level_energies)
    if result.optimal_energy != PUBLISHED_OPTIMA[n] or found[:1] != [PUBLISHED_OPTIMA[n]]:
        problems.append(
            f"optimum {result.optimal_energy} (levels {found}) differs from the "
            f"published {PUBLISHED_OPTIMA[n]}"
        )
    if len(found) != levels or any(a >= b for a, b in zip(found, found[1:])):
        problems.append(f"levels {found} are not {levels} rising values")
    # Every C_k has the parity of N - k, and an odd square is 1 mod 8, so
    # E = floor(N / 2) mod 4 for every sequence of length N.
    if any(e % 4 != (n // 2) % 4 for e in found):
        problems.append(f"levels {found} are not all {(n // 2) % 4} mod 4")
    optima = [tuple(int(v) for v in x) for x in result.canonical_optima]
    if not optima:
        problems.append("no optimal sequence returned")
    for i, x in enumerate(optima):
        problems += _check_sequence(x, PUBLISHED_OPTIMA[n], n, f"optimum {i}")
    if len(set(map(canonical, optima))) != len(optima):
        problems.append("two returned optima are equivalent under the symmetry group")
    return problems


# ---------------------------------------------------------------------------
# Dense reference for the brickwork ansatz, built from its documented
# conventions: little-endian qubits, RX(t) = exp(-i t X / 2), likewise RY,
# MS(t) = exp(-i t X X / 2); each layer is RX on every qubit, RY on every
# qubit, then MS on the brick pairs, and every gate has its own angle.

_I2 = np.eye(2, dtype=np.complex128)
_PAULI = {
    "I": _I2,
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def _on_qubits(ops: dict[int, np.ndarray], n_qubits: int) -> np.ndarray:
    """Kronecker product with qubit 0 as the lowest bit of the index."""
    out = np.ones((1, 1), dtype=np.complex128)
    for q in reversed(range(n_qubits)):
        out = np.kron(out, ops.get(q, _I2))
    return out


def _brick_pairs(n_qubits: int, layer: int) -> list[tuple[int, int]]:
    if layer % 2 == 0:
        return [(q, q + 1) for q in range(0, n_qubits - 1, 2)]
    pairs = [(q, q + 1) for q in range(1, n_qubits - 1, 2)]
    if n_qubits % 2 == 0:
        pairs.append((n_qubits - 1, 0))
    return pairs


def ansatz_generators(n_qubits: int, layers: int) -> list[np.ndarray]:
    """Dense generator G of each gate exp(-i t G / 2), in angle order."""
    gens = []
    for layer in range(layers):
        for axis in ("X", "Y"):
            gens += [_on_qubits({q: _PAULI[axis]}, n_qubits) for q in range(n_qubits)]
        for q1, q2 in _brick_pairs(n_qubits, layer):
            gens.append(_on_qubits({q1: _PAULI["X"], q2: _PAULI["X"]}, n_qubits))
    return gens


def _gate(generator: np.ndarray, t: float) -> np.ndarray:
    # Each generator squares to the identity.
    return math.cos(t / 2) * np.eye(len(generator)) - 1j * math.sin(t / 2) * generator


def pauli_matrix(label: str) -> np.ndarray:
    """Dense matrix of a Pauli label whose leftmost letter is qubit 0."""
    return _on_qubits({q: _PAULI[ch] for q, ch in enumerate(label)}, len(label))


class DenseAnsatz:
    """Statevectors and expectations from the dense ansatz unitary."""

    def __init__(self, n_qubits: int, layers: int, labels: list[str]):
        self.generators = ansatz_generators(n_qubits, layers)
        self.paulis = [pauli_matrix(lbl) for lbl in labels]

    def state(self, theta) -> np.ndarray:
        unitary = np.eye(len(self.generators[0]), dtype=np.complex128)
        for g, t in zip(self.generators, theta):
            unitary = _gate(g, t) @ unitary
        return unitary[:, 0]

    def expectations(self, psi: np.ndarray) -> np.ndarray:
        return np.array([np.vdot(psi, p @ psi).real for p in self.paulis])

    def shifted_states(self, theta, h: float) -> tuple[np.ndarray, np.ndarray]:
        """States with angle j moved by +h and by -h, for every j.

        Uses prefix states and suffix products, so all 2P states cost
        O(P) dense multiplies.
        """
        gates = [_gate(g, t) for g, t in zip(self.generators, theta)]
        dim = len(gates[0])
        prefix = [np.eye(dim, dtype=np.complex128)[:, 0]]
        for gate in gates[:-1]:
            prefix.append(gate @ prefix[-1])
        suffix = [np.eye(dim, dtype=np.complex128)]
        for gate in reversed(gates[1:]):
            suffix.append(suffix[-1] @ gate)
        suffix.reverse()
        plus = np.empty((len(gates), dim), dtype=np.complex128)
        minus = np.empty_like(plus)
        for j, g in enumerate(self.generators):
            plus[j] = suffix[j] @ (_gate(g, theta[j] + h) @ prefix[j])
            minus[j] = suffix[j] @ (_gate(g, theta[j] - h) @ prefix[j])
        return plus, minus


def relaxed_loss(expectations: np.ndarray, alpha: float, beta: float) -> float:
    """sum_k C_k(x~)^2 - beta sum_i x~_i^2 with x~ = tanh(alpha e)."""
    x = np.tanh(alpha * np.asarray(expectations))
    n = x.size
    c = [float(np.dot(x[: n - k], x[k:])) for k in range(1, n)]
    return float(sum(v * v for v in c) - beta * np.dot(x, x))


def check_expectations(program: np.ndarray, reference: np.ndarray, tol: float = 1e-10) -> list[str]:
    diff = float(np.max(np.abs(np.asarray(program) - reference)))
    if not diff <= tol:
        return [f"expectations differ from the dense unitary by {diff:.3e} > {tol:.0e}"]
    return []


def central_difference_gradient(
    dense: DenseAnsatz, theta, alpha: float, beta: float, h: float = 1e-5
) -> np.ndarray:
    plus, minus = dense.shifted_states(np.asarray(theta, dtype=np.float64), h)
    return np.array(
        [
            relaxed_loss(dense.expectations(p), alpha, beta)
            - relaxed_loss(dense.expectations(m), alpha, beta)
            for p, m in zip(plus, minus)
        ]
    ) / (2 * h)


def check_gradient(program: np.ndarray, reference: np.ndarray, rtol: float = 1e-6) -> list[str]:
    scale = max(1.0, float(np.max(np.abs(reference))))
    diff = float(np.max(np.abs(np.asarray(program) - reference)))
    if not diff <= rtol * scale:
        return [f"gradient differs from central differences by {diff:.3e} (scale {scale:.3e})"]
    return []
