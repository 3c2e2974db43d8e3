"""Regenerate src/pcelabs/data/reference_energies.json.

Levels for N <= 36 come from exhaustive enumeration.  Larger sizes get
the best known optimum; for odd sizes within reach of skew-symmetric
enumeration the script checks that a skew-symmetric sequence attains
the tabled value.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pcelabs.baselines import exact_solve

ENUM_MAX = 36

# Best known sidelobe energies.  Entries up to 36 are checked against
# enumeration below; the rest are the published optimal values
# (Packebusch & Mertens, arXiv:1512.02475).
KNOWN_OPTIMA = {
    3: 1, 4: 2, 5: 2, 6: 7, 7: 3, 8: 8, 9: 12, 10: 13, 11: 5, 12: 10,
    13: 6, 14: 19, 15: 15, 16: 24, 17: 32, 18: 25, 19: 29, 20: 26,
    21: 26, 22: 39, 23: 47, 24: 36, 25: 36, 26: 45, 27: 37, 28: 50,
    29: 62, 30: 59, 31: 67, 32: 64, 33: 64, 34: 65, 35: 73, 36: 82,
    37: 86, 38: 87, 39: 99, 40: 108, 41: 108, 42: 101, 43: 109,
    44: 122, 45: 118,
}
SKEW_CHECK = (41, 43, 45)


def best_skew_energy(n: int) -> int:
    """Lowest energy over the skew-symmetric sequences of odd length n,
    scored 2^16 at a time: each chunk is one position-major float32 array
    (every autocorrelation is a small integer, so float32 is exact)."""
    half = (n + 1) // 2
    signs = (-1.0) ** np.arange(1, half)[:, None]
    best = None
    chunk = 1 << 16
    for start in range(0, 1 << half, chunk):
        codes = np.arange(start, min(start + chunk, 1 << half))
        x = np.empty((n, codes.size), dtype=np.float32)
        x[:half] = 1 - 2 * ((codes >> np.arange(half)[:, None]) & 1)
        x[half:] = signs * x[half - 2 :: -1]  # as expand_skew_symmetric
        energies = np.zeros(codes.size, dtype=np.float32)
        for lag in range(1, n):
            corr = np.einsum("ij,ij->j", x[:-lag], x[lag:])
            energies += corr * corr
        if best is None or energies.min() < best:
            best = energies.min()
    return int(best)


def main() -> None:
    table = {}
    for n in range(3, ENUM_MAX + 1):
        t0 = time.time()
        result = exact_solve(n)
        table[n] = {"levels": result.level_energies, "source": "enumeration"}
        print(f"N={n}: levels={result.level_energies} ({time.time() - t0:.1f}s)", flush=True)
        assert result.level_energies[0] == KNOWN_OPTIMA[n], n
    for n in sorted(KNOWN_OPTIMA):
        if n <= ENUM_MAX:
            continue
        entry = {"levels": [KNOWN_OPTIMA[n]], "source": "table"}
        if n in SKEW_CHECK:
            t0 = time.time()
            skew = best_skew_energy(n)
            print(f"N={n}: skew best={skew} table={KNOWN_OPTIMA[n]} ({time.time() - t0:.1f}s)", flush=True)
            if skew == KNOWN_OPTIMA[n]:
                entry["source"] = "table+skew-check"
        table[n] = entry
    out = Path(__file__).resolve().parents[1] / "src/pcelabs/data/reference_energies.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({str(k): v for k, v in sorted(table.items())}, indent=1) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
