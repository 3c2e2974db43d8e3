"""Synthetic time-to-solution records and the paper's sizes, for the
fitting tests."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from pcelabs.bench import RunRecord

PAPER_SIZES_EVEN = (20, 24, 28, 32, 34, 36, 38, 40, 42, 44)
PAPER_SIZES_ODD = (13, 21, 27, 41, 43, 45)


def synthetic_tts(
    b: float,
    c: float,
    sizes: Sequence[int],
    runs_per_size: int,
    sigma: float,
    seed: int = 0,
) -> list[RunRecord]:
    """Records drawn from TTS = c * b^N * exp(sigma * Z), Z standard normal.

    The lognormal noise model matches what the scaling fits assume, so
    these records calibrate the fitting pipeline against known ground
    truth.  Synthetic tts values stay real-valued (no rounding to
    counter integers); with sigma = 0 the fit must recover b and c to
    floating-point accuracy.
    """
    if b <= 0 or c <= 0 or sigma < 0:
        raise ValueError("need b > 0, c > 0, sigma >= 0")
    rng = np.random.default_rng(seed)
    records = []
    for n in sizes:
        for run_index in range(runs_per_size):
            value = c * b**n * math.exp(sigma * rng.standard_normal())
            records.append(
                RunRecord(
                    solver="synthetic",
                    n=int(n),
                    run_index=run_index,
                    seed=seed,
                    best_energy=0,
                    total_evals=int(math.ceil(value)),
                    tts=value,
                )
            )
    return records
