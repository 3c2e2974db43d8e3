"""Single-flip scoring for the ``FlipWorkspace`` tests.

The solvers score flips only through ``FlipWorkspace.propose_all``; this
scores one flip from its definition, so the tests can check the
vectorised scan and ``commit`` against it.
"""

from __future__ import annotations

import numpy as np


def flip_delta(x: np.ndarray, cache: np.ndarray, i: int) -> int:
    """``E(x with x[i] flipped) - E(x)`` from the cached ``C_l = cache``.

    Flipping x_i maps C_l to C_l - 2 d_l with d_l = x_i (x_{i+l} + x_{i-l}),
    out-of-range neighbours dropped, so the change is 4 sum_l d_l (d_l - C_l).
    """
    x = np.asarray(x, dtype=np.int64)
    n = x.size
    padded = np.concatenate((np.zeros(n, dtype=np.int64), x, np.zeros(n, dtype=np.int64)))
    lags = np.arange(1, n)
    d = x[i] * (padded[n + i + lags] + padded[n + i - lags])
    return int(4 * np.dot(d, d - np.asarray(cache, dtype=np.int64)))
