"""Reference Pauli set sampler, one rejected candidate string at a time, and
the commutation and mutually-unbiased-partition oracles.

``grow_set`` is the rejection sampler that ``pauli_algebra._grow_set``
replaced: it draws uniformly random strings until one has the wanted
relation to every accepted string, and after 32 misses in a row it
enumerates the valid extensions with ``scan_candidates``.  Each draw
picks a mutually unbiased class and a member of it, and maps the pair to
a string by a GF(2^n) product and a bit-matrix product.  Its sets follow
the distribution the solving sampler must keep, though not its random
stream.

The 4^n - 1 traceless strings split into 2^n + 1 classes of 2^n - 1
mutually commuting strings, one class per mutually unbiased basis.  The
construction runs over GF(2^n): writing field elements in a polynomial
basis b_0 .. b_{n-1}, the class labelled by a field element m contains
the strings (a, G(m*a)) for all a != 0, where G is the (invertible,
symmetric) bit matrix G_ij = Tr(b_i b_j) and Tr is the field trace.  G
turns bit-parity of a mask product into the trace form, which makes each
class symplectically self-orthogonal, i.e. commuting.  The class at
"slope infinity" is {(0, z) : z != 0}.  ``mub_partition`` reads the
classes out of ``mub_codes``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from pcelabs import pauli_algebra as pa
from pcelabs.pauli_algebra import PauliSet, PauliString

# Irreducible polynomials over GF(2), one per degree, lowest bit = x^0.
IRREDUCIBLE = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011011,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
}


def commutes(p: PauliString, q: PauliString) -> bool:
    """True iff the two strings commute (symplectic form evaluates to 0)."""
    sym = (p.x_mask & q.z_mask).bit_count() + (p.z_mask & q.x_mask).bit_count()
    return sym % 2 == 0


# ---------------------------------------------------------------------------
# GF(2^n) arithmetic on int bit masks.


def gf_mul(a, b, n: int):
    """Product in GF(2^n) of two ints, or elementwise of int arrays."""
    poly = IRREDUCIBLE[n]
    out = a & 0
    for _ in range(n):
        out = out ^ (a * (b & 1))
        b = b >> 1
        a = a << 1
        a = a ^ (poly * (a >> n & 1))
    return out


def _gf_trace(a: int, n: int) -> int:
    # Tr(a) = a + a^2 + ... + a^(2^(n-1)); lands in {0, 1}.
    acc = 0
    cur = a
    for _ in range(n):
        acc ^= cur
        cur = gf_mul(cur, cur, n)
    if acc not in (0, 1):
        raise AssertionError("field trace left GF(2)")
    return acc


def _pow_x(k: int, n: int) -> int:
    out = 1
    for _ in range(k):
        out = gf_mul(out, 2, n)
    return out


def trace_gram_rows(n: int) -> list[int]:
    """Row masks of G_ij = Tr(b_i b_j) for the polynomial basis b_k = x^k."""
    rows = []
    powers = [_gf_trace(_pow_x(k, n), n) for k in range(2 * n - 1)]
    for i in range(n):
        row = 0
        for j in range(n):
            row |= powers[i + j] << j
        rows.append(row)
    return rows


def apply_bit_matrix(rows: Sequence[int], v: int) -> int:
    out = 0
    for i, row in enumerate(rows):
        out |= ((row & v).bit_count() & 1) << i
    return out


@lru_cache(maxsize=pa.MAX_QUBITS)
def mub_codes(n: int) -> np.ndarray:
    """(2^n + 1, 2^n) table of string codes: row m < 2^n, column a holds
    (a, G(m * a)), the member a of the class labelled m; row 2^n holds the
    Z-type member (0, a).  Column 0 is the identity and never used."""
    size = 1 << n
    a = np.arange(size, dtype=np.int64)
    table = np.empty((size + 1, size), dtype=np.int64)
    table[size] = a
    rows = trace_gram_rows(n)
    for slope in range(size):
        product = gf_mul(slope, a, n)
        z = np.zeros(size, dtype=np.int64)
        for i, row in enumerate(rows):
            z |= (np.bitwise_count(product & row).astype(np.int64) & 1) << i
        table[slope] = pa._code(a, z, n)
    table.flags.writeable = False
    return table


def mub_partition(n: int) -> list[PauliSet]:
    """Partition all 4^n - 1 traceless strings into 2^n + 1 commuting classes.

    Returns the classes in a fixed order: the Z-type class {(0, z)} first,
    then the classes labelled by field elements 0 .. 2^n - 1 (the label-0
    class is the X-type one).  Each class has 2^n - 1 strings.
    """
    if not 1 <= n <= pa.MAX_QUBITS:
        raise ValueError(f"qubit count must be in [1, {pa.MAX_QUBITS}], got {n}")
    table = mub_codes(n)
    low = (1 << n) - 1
    return [
        PauliSet(
            n=n,
            mode="commuting",
            paulis=[PauliString(n, int(c) >> n, int(c) & low) for c in table[row, 1:]],
        )
        for row in [len(table) - 1, *range(len(table) - 1)]
    ]


# ---------------------------------------------------------------------------
# The rejection sampler.


def scan_candidates(n: int, accepted: list[tuple[int, int]], want: int) -> np.ndarray:
    """All codes whose symplectic parity against every accepted pair is ``want``.

    Chunked so that a chunk scores at most 2^16 (code, pair) cells and the
    intermediate arrays stay small; accepted codes are excluded from the
    result.
    """
    total = 1 << (2 * n)
    taken = {pa._code(x, z, n) for x, z in accepted}
    keep_chunks = []
    chunk = (1 << 16) // max(1, len(accepted))
    for start in range(1, total, chunk):
        codes = np.arange(start, min(start + chunk, total), dtype=np.int64)
        good = codes[pa._score_candidates(n, accepted, want, codes) == len(accepted)]
        if taken:
            good = good[~np.isin(good, np.fromiter(taken, dtype=np.int64))]
        if good.size:
            keep_chunks.append(good)
    if not keep_chunks:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(keep_chunks)


def _draw_code(n: int, rng: np.random.Generator, rows: Sequence[int]) -> tuple[int, int]:
    """Uniformly random traceless string, drawn as (MUB class, member)."""
    size = 1 << n
    cls = int(rng.integers(size + 1))
    a = int(rng.integers(1, size))
    if cls == size:
        return 0, a
    return a, apply_bit_matrix(rows, gf_mul(cls, a, n))


def grow_set(n: int, count: int, rng: np.random.Generator, mode: str) -> PauliSet:
    if count < 1:
        raise ValueError("set size must be positive")
    if count > (1 << (2 * n)) - 1:
        raise ValueError("more strings requested than exist")
    want = 0 if mode == "commuting" else 1
    strict_cap = (1 << n) - 1 if mode == "commuting" else 2 * n + 1
    rows = trace_gram_rows(n)
    # An accepted draw and the scan's draw are both uniform over the valid
    # extensions, so the limit sets only how soon the scan takes over.
    rejection_limit = 32

    accepted: list[tuple[int, int]] = []
    rejects_since_accept = 0
    while len(accepted) < min(count, strict_cap):
        if rejects_since_accept >= rejection_limit:
            valid = scan_candidates(n, accepted, want)
            if valid.size:
                code = int(valid[int(rng.integers(valid.size))])
                accepted.append((code >> n, code & ((1 << n) - 1)))
            elif mode == "anticommuting":
                accepted.clear()
            else:
                raise AssertionError("commuting extension scan came up empty")
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
        if n <= 8:
            codes = np.arange(1, 1 << (2 * n), dtype=np.int64)
        else:
            codes = rng.integers(1, 1 << (2 * n), size=4096, dtype=np.int64)
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
