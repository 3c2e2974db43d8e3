"""Exact arithmetic for the low-autocorrelation binary sequence (LABS) objective.

A sequence x lives in {-1, +1}^N.  Its aperiodic autocorrelations are

    C_l(x) = sum_{i=1}^{N-l} x_i x_{i+l},        1 <= l <= N - 1,

the sidelobe energy is E(x) = sum_l C_l(x)^2, and the merit factor is
F(x) = N^2 / (2 E(x)).  Everything in this module is integer-exact.  The
merit factor is a float, and ``FlipWorkspace`` keeps small integers in
float64 arrays so that a sweep of flips is one BLAS product: every entry
and every partial sum there is an integer far below 2^53, where float64
arithmetic is exact.

Sequences are numpy int arrays.  Indices into a sequence are 0-based.
"""

from __future__ import annotations

import functools
from typing import Iterable

import numpy as np

__all__ = [
    "as_spin_array",
    "parse_sequence",
    "format_sequence",
    "autocorrelations",
    "sidelobe_energy",
    "merit_factor",
    "energy_report",
    "FlipWorkspace",
    "symmetry_images",
    "canonicalize",
    "expand_skew_symmetric",
]

MIN_LENGTH = 3


def as_spin_array(x: Iterable[int] | np.ndarray) -> np.ndarray:
    """Validate and convert ``x`` to an int64 array of +-1 entries.

    Raises ``ValueError`` on entries outside {-1, +1} or length < 3.
    """
    arr = np.asarray(x)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-d sequence, got shape {arr.shape}")
    if arr.size < MIN_LENGTH:
        raise ValueError(f"sequence length must be >= {MIN_LENGTH}, got {arr.size}")
    if not np.issubdtype(arr.dtype, np.number):
        raise ValueError(f"sequence entries must be numeric, got dtype {arr.dtype}")
    out = arr.astype(np.int64)
    if not np.array_equal(out, arr) or not np.all(np.abs(out) == 1):
        raise ValueError("sequence entries must be -1 or +1")
    return out


def parse_sequence(text: str) -> np.ndarray:
    """Parse ``+-++`` or ``1011`` style strings into a spin array.

    ``+`` and ``1`` map to +1, ``-`` and ``0`` map to -1.  Whitespace and
    commas are ignored.
    """
    cleaned = text.replace(",", "")
    cleaned = "".join(cleaned.split())
    mapping = {"+": 1, "1": 1, "-": -1, "0": -1}
    try:
        values = [mapping[ch] for ch in cleaned]
    except KeyError as err:
        raise ValueError(f"unexpected character {err.args[0]!r} in sequence") from None
    return as_spin_array(values)


def format_sequence(x: np.ndarray) -> str:
    """Render a spin array as a ``+``/``-`` string."""
    x = as_spin_array(x)
    return "".join("+" if v > 0 else "-" for v in x)


def autocorrelations(x: np.ndarray) -> np.ndarray:
    """All aperiodic autocorrelations ``C_l`` for ``l = 1 .. N-1``.

    Parameters
    ----------
    x : array_like
        Spin sequence of length N.

    Returns
    -------
    numpy.ndarray
        int64 array of length N - 1; entry ``l - 1`` holds ``C_l``.
    """
    x = as_spin_array(x)
    # np.correlate of a sequence with itself puts C_l at offset N-1+l.
    full = np.correlate(x, x, mode="full")
    return full[x.size :]


def sidelobe_energy(x: np.ndarray) -> int | list[int]:
    """Sidelobe energy ``E(x) = sum_l C_l(x)^2`` as an exact int.

    A (B, N) numpy array of sequences is checked once as a whole and gives
    a list of B exact ints.
    """
    if getattr(x, "ndim", 1) != 2:
        c = autocorrelations(x)
        return int(np.dot(c, c))
    rows = as_spin_array(x.ravel()).reshape(x.shape)
    if rows.shape[1] < MIN_LENGTH:
        raise ValueError(f"sequence length must be >= {MIN_LENGTH}, got {rows.shape[1]}")
    c = np.einsum("bk,bkl->bl", rows, lag_windows(rows)[..., rows.shape[1] :])
    return np.einsum("bl,bl->b", c, c).tolist()


def lag_windows(x: np.ndarray) -> np.ndarray:
    """(..., N, 2N - 1) view of the last axis of x: windows[..., k, j] =
    x_{k + j - (N - 1)}, and 0 past either end.  Entry k of column N - 1 + l
    is x_{k+l}, so sum_k x_k windows[..., k, N - 1 + l] is C_l."""
    n = x.shape[-1]
    zeros = np.zeros(x.shape[:-1] + (n - 1,), dtype=x.dtype)
    padded = np.concatenate([zeros, x, zeros], axis=-1)
    # A plain strided view: sliding_window_view's route through
    # __array_interface__ kept about 1 MB alive over 100 perfbench pce
    # rounds (tracemalloc, numpy 2.4).
    strides = padded.strides + padded.strides[-1:]
    windows = np.ndarray(x.shape + (2 * n - 1,), padded.dtype, padded, 0, strides)
    windows.flags.writeable = False
    return windows


def merit_factor(x: np.ndarray) -> float:
    """Merit factor ``F(x) = N^2 / (2 E(x))``.

    Raises ``ZeroDivisionError`` for E = 0, which cannot occur for N >= 3.
    """
    x = as_spin_array(x)
    energy = sidelobe_energy(x)
    if energy == 0:
        raise ZeroDivisionError("zero sidelobe energy")
    return x.size**2 / (2.0 * energy)


def energy_report(x: np.ndarray) -> dict:
    """Bundle length, energy, merit factor, and autocorrelations as a dict."""
    x = as_spin_array(x)
    c = autocorrelations(x)
    energy = int(np.dot(c, c))
    return {
        "n": int(x.size),
        "energy": energy,
        "merit_factor": x.size**2 / (2.0 * energy),
        "autocorrelations": [int(v) for v in c],
    }


@functools.lru_cache(maxsize=None)
def _flip_plan(n: int) -> tuple[np.ndarray, np.ndarray, list[tuple]]:
    """Index arrays shared by every ``FlipWorkspace`` of length ``n``.

    ``plus[r, l - 1]`` and ``minus[r, l - 1]`` index x_{r+l} and x_{r-l}
    in the workspace buffer, an out-of-range neighbour its final 0.
    ``commit[i]`` is ``(dst, src, up, down)`` for flipping x_i: entry
    ``dst[k]`` of the workspace buffer gains ``up[k]`` (x_i = +1) or
    ``down[k]`` (x_i = -1) times entry ``src[k]``, all read before the
    flip (see ``FlipWorkspace.commit``).
    """
    at_c, at_x = n * n, n * n + n
    rows = np.arange(n)[:, None]
    lags = np.arange(1, n)
    plus = at_x + np.minimum(rows + lags, n)  # at_x + n is the final 0
    minus = at_x + np.where(rows >= lags, rows - lags, n)
    commit = []
    for i in range(n):
        row = i * n + lags - 1
        others = np.delete(np.arange(n), i)
        mirrored = others[(2 * others - i >= 0) & (2 * others - i < n)]
        # Segments: C from row i, row i itself, the lag |r - i| entry of every
        # other row, the squared sums with a mirror position, and x_i.
        lag_entries = others * n + np.abs(others - i) - 1
        dst = np.concatenate((at_c + lags - 1, row, lag_entries, mirrored * n + n - 1, [at_x + i]))
        src = np.concatenate((row, row, at_x + others, at_x + 2 * mirrored - i, [at_x + i]))
        up = np.repeat([0.5, -2.0, 8.0, -16.0, -2.0], [n - 1, n - 1, n - 1, mirrored.size, 1])
        down = up.copy()
        down[2 * n - 2 : -1] *= -1  # the two middle segments carry a factor x_i
        commit.append((dst, src, up, down))
    return plus, minus, commit


class FlipWorkspace:
    """Incremental single-flip evaluation of the sidelobe energy.

    With d_l(i) = x_i (x_{i+l} + x_{i-l}), out-of-range neighbours dropped,
    flipping x_i maps C_l to C_l - 2 d_l(i), so it changes the energy by
    4 sum_l d_l(i) (d_l(i) - C_l).  The workspace keeps that as a product:
    row i of the (N, N) flip matrix holds -4 d_l(i) for l = 1 .. N - 1
    and 4 sum_l d_l(i)^2 last, and the vector beside it holds
    (C_1 .. C_{N-1}, 1).  ``propose_all`` is then one matrix-vector
    product.  The matrix, the vector and the spins share one float64
    buffer, and ``commit`` moves the O(N) entries that contain the
    flipped spin in one scatter; handed the flip's proposed delta, it
    adds that to the energy rather than recompute C.C.  So a tabu move
    costs a constant number of numpy calls.
    """

    def __init__(self, x: np.ndarray):
        x = np.asarray(x)
        n = x.size
        if x.ndim != 1 or n < MIN_LENGTH or not ((x == 1) | (x == -1)).all():
            raise ValueError(f"expected a 1-d sequence of at least {MIN_LENGTH} entries, each -1 or +1")
        plus, minus, self._plan = _flip_plan(n)
        self._buf = np.empty(n * n + 2 * n + 1)  # flip matrix | C_1 .. C_{N-1}, 1 | x | 0
        self._m = self._buf[: n * n].reshape(n, n)
        self._v = self._buf[n * n : n * n + n]
        self._c = self._v[:-1]
        self._x = self._buf[n * n + n : -1]
        self._x[:] = x
        self._buf[-1] = 0
        self._v[-1] = 1
        self._c[:] = np.correlate(self._x, self._x, "full")[n:]  # autocorrelations(x)
        pair = self._buf[plus] + self._buf[minus]  # d_l(r) = x_r pair[r, l - 1]
        np.multiply(pair, -4 * self._x[:, None], out=self._m[:, :-1])
        self._m[:, -1] = 4 * np.einsum("ij,ij->i", pair, pair)
        self._energy = int(self._c @ self._c)

    @property
    def n(self) -> int:
        return self._x.size

    @property
    def sequence(self) -> np.ndarray:
        return self._x.astype(np.int64)

    @property
    def energy(self) -> int:
        return self._energy

    def propose_all(self) -> np.ndarray:
        """Energy change for every single flip, as a float64 array of length N.

        Every entry is an integer: the flip matrix holds integers of
        magnitude at most 16N and the vector at most N, so every partial
        sum of the product is an integer below 16 N^2 in magnitude, and
        the product is exact whatever order BLAS sums in.
        """
        return self._m @ self._v

    def commit(self, i: int, delta: float | None = None) -> int:
        """Flip ``x[i]``, update the caches, and return the new energy.

        Half of row i's lag entries turns C_l into C_l - 2 d_l(i), and
        flipping x_i negates those entries.  In another row r only the lag
        l = |r - i| contains x_i: -4 d_l(r) moves by 8 x_r x_i, and
        4 d_l(r)^2 by -16 x_i x_s when the mirror position s = 2r - i is in
        range (x_i is the old spin).  All of it, and the flip itself, is
        one gather and one scatter over the buffer.  ``delta``, entry i of
        the last ``propose_all``, is exact; without it C.C is recomputed.
        """
        dst, src, up, down = self._plan[i]
        self._buf[dst] += (up if self._x[i] > 0 else down) * self._buf[src]
        self._energy = int(self._c @ self._c) if delta is None else self._energy + int(delta)
        return self._energy


def _alternation_signs(n: int) -> np.ndarray:
    signs = np.ones(n, dtype=np.int64)
    signs[1::2] = -1
    return signs


def symmetry_images(x: np.ndarray) -> list[np.ndarray]:
    """The orbit of ``x`` under negation, reversal, and alternation.

    Alternation multiplies entry i by (-1)^i; together with negation and
    reversal this generates a group of order 8 that leaves every C_l^2
    invariant.  Duplicates are kept so the list always has 8 entries.
    """
    x = as_spin_array(x)
    alt = _alternation_signs(x.size)
    images = []
    for base in (x, x[::-1]):
        for y in (base, base * alt):
            images.append(y.copy())
            images.append(-y)
    return images


def _lex_key(x: np.ndarray) -> tuple:
    # +1 sorts before -1.
    return tuple((1 - x) // 2)


def canonicalize(x: np.ndarray) -> np.ndarray:
    """Lexicographically smallest symmetry image, with +1 ordered before -1.

    Two sequences have the same canonical form iff they are related by
    some combination of negation, reversal, and alternation, so canonical
    forms identify degenerate optima.
    """
    return min(symmetry_images(x), key=_lex_key)


def expand_skew_symmetric(half: np.ndarray, n: int | None = None) -> np.ndarray:
    """Expand the first (N+1)/2 entries of a skew-symmetric sequence.

    A skew-symmetric sequence of odd length N satisfies, with c = (N+1)/2
    in 1-based terms, x_{c+l} = (-1)^l x_{c-l}.  The first half therefore
    determines the rest; this builds the full sequence.

    Parameters
    ----------
    half : array_like
        Entries 1 .. (N+1)/2, each +-1, at least 2 of them.
    n : int, optional
        Expected full length; validated against ``2 * len(half) - 1``.

    Returns
    -------
    numpy.ndarray
        The full sequence of odd length ``2 * len(half) - 1``.
    """
    half = np.asarray(half)
    if half.ndim != 1 or half.size < 2:
        raise ValueError("half sequence needs at least 2 entries")
    if not np.all(np.abs(half) == 1):
        raise ValueError("sequence entries must be -1 or +1")
    half = half.astype(np.int64)
    m = half.size
    full_len = 2 * m - 1
    if n is not None:
        if n % 2 == 0:
            raise ValueError("skew-symmetric sequences have odd length")
        if n != full_len:
            raise ValueError(f"half of length {m} expands to {full_len}, not {n}")
    out = np.empty(full_len, dtype=np.int64)
    out[:m] = half
    signs = (-1) ** np.arange(1, m, dtype=np.int64)
    out[m:] = signs * half[m - 2 :: -1]
    return out
