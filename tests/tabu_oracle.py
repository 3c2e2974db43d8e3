"""The convolution ``FlipWorkspace`` and the tabu move loop it served, kept
as the reference that ``pcelabs.labs_core.FlipWorkspace`` and
``pcelabs.baselines._tabu_core`` are compared to.

Each move here probes every flip, then picks the best allowed one from a
masked argmin; the workspace scores a sweep with two length-N
convolutions and commits a flip from a padded copy of the sequence.
``tests/test_baselines.py`` runs ``tabu_search`` and ``memetic_tabu`` on
both and requires the same records.
"""

from __future__ import annotations

import numpy as np

from pcelabs.labs_core import as_spin_array, autocorrelations
from pcelabs.pce_solver import EvalCounter

_NO_MOVE = np.iinfo(np.int64).max  # masks tabu flips out of the argmin


def _padded(x: np.ndarray) -> np.ndarray:
    """``x`` in the middle of a zero buffer of length 3N - 2.

    Out-of-range neighbours then read as 0, so the terms of a flip are
    plain slices (``_padded_terms``).
    """
    n = x.size
    xp = np.zeros(3 * n - 2, dtype=np.int64)
    xp[n - 1 : 2 * n - 1] = x
    return xp


def _padded_terms(xp: np.ndarray, i: int) -> np.ndarray:
    """Per-lag change terms d_l for flipping position ``i`` (0-based).

    d_l collects the autocorrelation terms that contain x_i:
    d_l = x_i * (x_{i+l} + x_{i-l}) with out-of-range neighbours dropped,
    so that flipping x_i maps C_l to C_l - 2 d_l.  ``xp`` is ``_padded(x)``.
    """
    n = (xp.size + 2) // 3
    return xp[n - 1 + i] * (xp[n + i : 2 * n - 1 + i] + xp[i : n - 1 + i][::-1])


class FlipWorkspace:
    """Incremental single-flip evaluation of the sidelobe energy.

    Keeps the sequence, its autocorrelations, and its energy in sync so a
    flip can be committed in O(N).  ``propose_all`` scores every position
    in one O(N^2) pass of length-N convolutions, which is what a tabu
    sweep wants.
    """

    def __init__(self, x: np.ndarray):
        x = as_spin_array(x)
        self._xp = _padded(x)
        self._x = self._xp[x.size - 1 : 2 * x.size - 1]  # a view: flips write through
        self._c = autocorrelations(x)
        self._energy = int(np.dot(self._c, self._c))

    @property
    def n(self) -> int:
        return self._x.size

    @property
    def sequence(self) -> np.ndarray:
        return self._x.copy()

    @property
    def energy(self) -> int:
        return self._energy

    def propose_all(self) -> np.ndarray:
        """Energy change for every single flip, as an int64 array of length N.

        Summed over lags, d_l^2 gives N - 2 + (x * x)_{2i} and d_l C_l gives
        x_i (x * k)_i, where * is convolution and k = [C_{N-1} .. C_1, 0,
        C_1 .. C_{N-1}] is the symmetric autocorrelation kernel.
        """
        x, c = self._x, self._c
        kernel = np.concatenate((c[::-1], [0], c))
        squares = np.convolve(x, x)[::2]
        return 4 * (squares + (x.size - 2) - x * np.convolve(x, kernel, "valid"))

    def commit(self, i: int) -> int:
        """Flip ``x[i]``, update the caches, and return the new energy."""
        self._c -= 2 * _padded_terms(self._xp, i)
        self._x[i] = -self._x[i]
        self._energy = int(np.dot(self._c, self._c))
        return self._energy


def _tabu_core(
    ws: FlipWorkspace,
    counter: EvalCounter,
    rng: np.random.Generator,
    tenure: tuple[int, int],
    stagnation_limit: int,
    max_moves: int | None = None,
) -> None:
    """Run tabu moves on ``ws`` until stagnation, budget, exact, or cap.

    Each move probes all N single flips in index order (one evaluation
    each, counters firing on probe values), then commits the best
    non-tabu flip, where a tabu flip is allowed if it would improve the
    global best.  Ties break toward the lowest index.
    """
    n = ws.n
    tabu_until = np.zeros(n, dtype=np.int64)
    move = 0
    since_improvement = 0
    while since_improvement < stagnation_limit:
        if max_moves is not None and move >= max_moves:
            return
        move += 1
        deltas = ws.propose_all()
        energies = ws.energy + deltas
        start = counter.evals
        count = min(n, counter.budget - start)
        # The start of the run has been observed, so there is a limit.  It
        # only falls while the probes are observed, so every probe that can
        # fire is among these; each is checked again in index order.
        for i in (energies[:count] <= counter.limit()).nonzero()[0].tolist():
            energy = int(energies[i])
            if energy <= counter.limit():
                seq = ws.sequence
                seq[i] = -seq[i]
                if counter.observe(seq, energy, start + i + 1):
                    counter.evals = start + i + 1
                    return
        counter.evals = start + count
        if count < n:
            return
        # tenure_max < N: at least one flip is free of tabu.
        allowed = (tabu_until <= move) | (energies < counter.best_energy)
        best_idx = int(np.where(allowed, deltas, _NO_MOVE).argmin())
        previous_best = counter.best_energy
        ws.commit(best_idx)
        tabu_until[best_idx] = move + int(rng.integers(tenure[0], tenure[1] + 1))
        if ws.energy < previous_best:
            since_improvement = 0
        else:
            since_improvement += 1
