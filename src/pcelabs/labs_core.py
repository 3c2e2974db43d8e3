"""Exact arithmetic for the low-autocorrelation binary sequence (LABS) objective.

A sequence x lives in {-1, +1}^N.  Its aperiodic autocorrelations are

    C_l(x) = sum_{i=1}^{N-l} x_i x_{i+l},        1 <= l <= N - 1,

the sidelobe energy is E(x) = sum_l C_l(x)^2, and the merit factor is
F(x) = N^2 / (2 E(x)).  Everything in this module is integer-exact; floats
appear only in the merit factor.

Sequences are numpy int arrays.  Indices into a sequence are 0-based.
"""

from __future__ import annotations

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


def sidelobe_energy(x: np.ndarray) -> int:
    """Sidelobe energy ``E(x) = sum_l C_l(x)^2`` as an exact int."""
    c = autocorrelations(x)
    return int(np.dot(c, c))


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
