"""Reference Pauli set sampler, one candidate string per draw, and the
commutation and mutually-unbiased-partition oracles.

``grow_set`` is the sampler ``pauli_algebra._grow_set`` replaced.  It
draws each candidate with two scalar ``rng.integers`` calls and maps it
to a string by a GF(2^n) product and a bit-matrix product, then tests it
against the accepted strings one by one.  The block sampler must give
the same set, raise the same errors and leave the generator in the same
state.  ``mub_partition`` reads the classes out of the sampler's cached
code table, so the tests can check the table's structure.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from pcelabs import pauli_algebra as pa
from pcelabs.pauli_algebra import PauliSet, PauliString, SetSamplingError


def commutes(p: PauliString, q: PauliString) -> bool:
    """True iff the two strings commute (symplectic form evaluates to 0)."""
    sym = (p.x_mask & q.z_mask).bit_count() + (p.z_mask & q.x_mask).bit_count()
    return sym % 2 == 0


def mub_partition(n: int) -> list[PauliSet]:
    """Partition all 4^n - 1 traceless strings into 2^n + 1 commuting classes.

    Returns the classes in a fixed order: the Z-type class {(0, z)} first,
    then the classes labelled by field elements 0 .. 2^n - 1 (the label-0
    class is the X-type one).  Each class has 2^n - 1 strings.
    """
    if not 1 <= n <= pa.MAX_QUBITS:
        raise ValueError(f"qubit count must be in [1, {pa.MAX_QUBITS}], got {n}")
    table = pa._mub_codes(n)
    low = (1 << n) - 1
    return [
        PauliSet(
            n=n,
            mode="commuting",
            paulis=[PauliString(n, int(c) >> n, int(c) & low) for c in table[row, 1:]],
        )
        for row in [len(table) - 1, *range(len(table) - 1)]
    ]


def _apply_bit_matrix(rows: Sequence[int], v: int) -> int:
    out = 0
    for i, row in enumerate(rows):
        out |= ((row & v).bit_count() & 1) << i
    return out


def _draw_code(n: int, rng: np.random.Generator, rows: Sequence[int]) -> tuple[int, int]:
    """Uniformly random traceless string, drawn as (MUB class, member)."""
    size = 1 << n
    cls = int(rng.integers(size + 1))
    a = int(rng.integers(1, size))
    if cls == size:
        return 0, a
    return a, _apply_bit_matrix(rows, pa._gf_mul(cls, a, n))


def grow_set(n: int, count: int, rng: np.random.Generator, mode: str) -> PauliSet:
    if count < 1:
        raise ValueError("set size must be positive")
    if count > (1 << (2 * n)) - 1:
        raise ValueError("more strings requested than exist")
    want = 0 if mode == "commuting" else 1
    strict_cap = (1 << n) - 1 if mode == "commuting" else 2 * n + 1
    rows = pa._trace_gram_rows(n)
    rejection_limit = 512

    accepted: list[tuple[int, int]] = []
    attempts = 0
    rejects_since_accept = 0
    while len(accepted) < min(count, strict_cap):
        if attempts >= pa.ATTEMPT_CAP:
            raise SetSamplingError(
                f"no pairwise {mode} extension found within {pa.ATTEMPT_CAP} attempts"
            )
        attempts += 1
        if rejects_since_accept >= rejection_limit:
            valid = pa._scan_candidates(n, accepted, want)
            if valid.size:
                code = int(valid[int(rng.integers(valid.size))])
                accepted.append((code >> n, code & ((1 << n) - 1)))
            elif mode == "anticommuting":
                accepted.clear()
            else:
                raise SetSamplingError("commuting extension scan came up empty")
            rejects_since_accept = 0
            continue
        x_mask, z_mask = _draw_code(n, rng, rows)
        if (x_mask, z_mask) in accepted:
            rejects_since_accept += 1
            continue
        ok = True
        for ax, az in accepted:
            par = ((x_mask & az).bit_count() + (z_mask & ax).bit_count()) % 2
            if par != want:
                ok = False
                break
        if ok:
            accepted.append((x_mask, z_mask))
            rejects_since_accept = 0
        else:
            rejects_since_accept += 1

    strict_count = len(accepted)
    while len(accepted) < count:
        if attempts >= pa.ATTEMPT_CAP:
            raise SetSamplingError(
                f"fallback phase exhausted {pa.ATTEMPT_CAP} attempts"
            )
        if n <= 8:
            codes = np.arange(1, 1 << (2 * n), dtype=np.int64)
        else:
            codes = rng.integers(1, 1 << (2 * n), size=4096, dtype=np.int64)
        attempts += codes.size
        taken = np.fromiter(
            (pa._code(x, z, n) for x, z in accepted), dtype=np.int64, count=len(accepted)
        )
        codes = codes[~np.isin(codes, taken)]
        if codes.size == 0:
            continue
        score = pa._score_candidates(n, accepted, want, codes)
        best = codes[score == score.max()]
        code = int(best[int(rng.integers(best.size))])
        accepted.append((code >> n, code & ((1 << n) - 1)))

    paulis = [PauliString(n, x, z) for x, z in accepted]
    return PauliSet(n=n, mode=mode, paulis=paulis, strict_count=strict_count)
