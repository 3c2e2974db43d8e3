"""Pauli strings, mutually unbiased bases, and Pauli set sampling.

A Pauli string on n qubits is stored symplectically as two n-bit masks
(x_mask, z_mask): bit q of x_mask applies X on qubit q, bit q of z_mask
applies Z, both together give Y (phases are irrelevant here, only
commutation and expectation values matter).  Two strings commute iff
parity(x1 & z2) == parity(z1 & x2).

The 4^n - 1 traceless strings split into 2^n + 1 classes of 2^n - 1
mutually commuting strings, one class per mutually unbiased basis.  The
construction runs over GF(2^n): writing field elements in a polynomial
basis b_0 .. b_{n-1}, the class labelled by a field element m contains
the strings (a, G(m*a)) for all a != 0, where G is the (invertible,
symmetric) bit matrix G_ij = Tr(b_i b_j) and Tr is the field trace.  G
turns bit-parity of a mask product into the trace form, which makes each
class symplectically self-orthogonal, i.e. commuting.  The class at
"slope infinity" is {(0, z) : z != 0}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator

import numpy as np

__all__ = [
    "PauliString",
    "PauliSet",
    "sample_commuting_set",
    "sample_anticommuting_set",
]

MAX_QUBITS = 12
ATTEMPT_CAP = 10**6
# Rejected draws in a row before the strict phase enumerates extensions.
_REJECTION_LIMIT = 512
# Most candidate strings drawn and tested in one call.
_DRAW_BLOCK = 128

# Irreducible polynomials over GF(2), one per degree, lowest bit = x^0.
_IRREDUCIBLE = {
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

_LABELS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_MASKS = {v: k for k, v in _LABELS.items()}


@dataclass(frozen=True)
class PauliString:
    """A traceless n-qubit Pauli string in symplectic mask form."""

    n: int
    x_mask: int
    z_mask: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_QUBITS:
            raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {self.n}")
        top = 1 << self.n
        if not (0 <= self.x_mask < top and 0 <= self.z_mask < top):
            raise ValueError("mask out of range for qubit count")
        if self.x_mask == 0 and self.z_mask == 0:
            raise ValueError("identity is not a valid Pauli string here")

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Build from a label like ``"XIZY"``; leftmost letter is qubit 0."""
        x_mask = z_mask = 0
        for q, ch in enumerate(label):
            try:
                xb, zb = _MASKS[ch]
            except KeyError:
                raise ValueError(f"unexpected Pauli letter {ch!r}") from None
            x_mask |= xb << q
            z_mask |= zb << q
        return cls(len(label), x_mask, z_mask)

    def to_label(self) -> str:
        return "".join(
            _LABELS[((self.x_mask >> q) & 1, (self.z_mask >> q) & 1)]
            for q in range(self.n)
        )

    def __str__(self) -> str:
        return self.to_label()


@dataclass
class PauliSet:
    """An ordered collection of Pauli strings with a declared relation.

    ``mode`` records what the set promises: ``"commuting"`` for pairwise
    commutation, ``"anticommuting"`` for pairwise anticommutation, either
    possibly only on a strict prefix when the target size exceeds what the
    relation admits (``strict_count`` marks how far the promise holds).
    """

    n: int
    mode: str
    paulis: list[PauliString] = field(default_factory=list)
    strict_count: int | None = None

    def __post_init__(self):
        if self.mode not in ("commuting", "anticommuting"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.strict_count is None:
            self.strict_count = len(self.paulis)

    def __len__(self) -> int:
        return len(self.paulis)

    def __iter__(self) -> Iterator[PauliString]:
        return iter(self.paulis)

    def __getitem__(self, idx):
        return self.paulis[idx]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "mode": self.mode,
            "strict_count": self.strict_count,
            "paulis": [p.to_label() for p in self.paulis],
        }


# ---------------------------------------------------------------------------
# GF(2^n) arithmetic on int bit masks.


def _gf_mul(a, b, n: int):
    """Product in GF(2^n) of two ints, or elementwise of int arrays."""
    poly = _IRREDUCIBLE[n]
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
        cur = _gf_mul(cur, cur, n)
    if acc not in (0, 1):
        raise AssertionError("field trace left GF(2)")
    return acc


def _trace_gram_rows(n: int) -> list[int]:
    """Row masks of G_ij = Tr(b_i b_j) for the polynomial basis b_k = x^k."""
    rows = []
    powers = [_gf_trace(_pow_x(k, n), n) for k in range(2 * n - 1)]
    for i in range(n):
        row = 0
        for j in range(n):
            row |= powers[i + j] << j
        rows.append(row)
    return rows


def _pow_x(k: int, n: int) -> int:
    out = 1
    for _ in range(k):
        out = _gf_mul(out, 2, n)
    return out


@lru_cache(maxsize=MAX_QUBITS)
def _mub_codes(n: int) -> np.ndarray:
    """(2^n + 1, 2^n) table of string codes: row m < 2^n, column a holds
    (a, G(m * a)), the member a of the class labelled m; row 2^n holds the
    Z-type member (0, a).  Column 0 is the identity and never used.  Codes
    have 2n <= 24 bits, so int32 holds them.  The table takes about 4^n * 4
    bytes and stays cached for the process: 263 KB at 8 qubits, 67 MB at
    the 12-qubit maximum."""
    size = 1 << n
    a = np.arange(size, dtype=np.int64)
    table = np.empty((size + 1, size), dtype=np.int32)
    table[size] = a
    rows = _trace_gram_rows(n)
    for slope in range(size):
        product = _gf_mul(slope, a, n)
        z = np.zeros(size, dtype=np.int64)
        for i, row in enumerate(rows):
            z |= (np.bitwise_count(product & row).astype(np.int64) & 1) << i
        table[slope] = _code(a, z, n)
    table.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# Random Pauli set growth.


def _code(x_mask: int, z_mask: int, n: int) -> int:
    return (x_mask << n) | z_mask


def _sym_parity_array(codes: np.ndarray, x_mask, z_mask, n: int) -> np.ndarray:
    """Symplectic form of (x_mask, z_mask) against an array of codes; 0/1.

    The masks may be ints or arrays that broadcast against ``codes``.
    """
    xs = codes >> n
    zs = codes & ((1 << n) - 1)
    a = np.bitwise_count((xs & z_mask).astype(np.uint64))
    b = np.bitwise_count((zs & x_mask).astype(np.uint64))
    return ((a + b) & 1).astype(np.int64)


def _scan_candidates(
    n: int, accepted: list[tuple[int, int]], want: int
) -> np.ndarray:
    """All codes whose symplectic parity against every accepted pair is ``want``.

    Chunked so that a chunk scores at most 2^16 (code, pair) cells and the
    intermediate arrays stay small; accepted codes are excluded from the
    result.
    """
    total = 1 << (2 * n)
    taken = {_code(x, z, n) for x, z in accepted}
    keep_chunks = []
    chunk = (1 << 16) // max(1, len(accepted))
    for start in range(1, total, chunk):
        codes = np.arange(start, min(start + chunk, total), dtype=np.int64)
        good = codes[_score_candidates(n, accepted, want, codes) == len(accepted)]
        if taken:
            good = good[~np.isin(good, np.fromiter(taken, dtype=np.int64))]
        if good.size:
            keep_chunks.append(good)
    if not keep_chunks:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(keep_chunks)


def _score_candidates(
    n: int, accepted: list[tuple[int, int]], want: int, codes: np.ndarray
) -> np.ndarray:
    """How many accepted pairs each code satisfies the relation against."""
    x_masks, z_masks = np.array(accepted, dtype=np.int64).reshape(-1, 2).T
    parity = _sym_parity_array(codes, x_masks[:, None], z_masks[:, None], n)
    return (parity == want).sum(axis=0)


class SetSamplingError(RuntimeError):
    """Raised when the attempt budget runs out before the set is complete."""


def _draw_candidates(table: np.ndarray, bounds, rng: np.random.Generator, k: int) -> np.ndarray:
    """k uniformly random traceless strings, each drawn as (MUB class,
    member): the stream of k scalar draw pairs, taken in one call.
    ``bounds`` are the interleaved (low, high) arrays of a full block."""
    low, high = bounds
    pairs = rng.integers(low[: 2 * k], high[: 2 * k])
    return table[pairs[0::2], pairs[1::2]]


def _grow_set(n: int, count: int, rng: np.random.Generator, mode: str) -> PauliSet:
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {n}")
    if count < 1:
        raise ValueError("set size must be positive")
    if count > (1 << (2 * n)) - 1:
        raise ValueError("more strings requested than exist")
    want = 0 if mode == "commuting" else 1
    strict_cap = (1 << n) - 1 if mode == "commuting" else 2 * n + 1
    table = _mub_codes(n)
    size = 1 << n
    bounds = np.tile([0, 1], _DRAW_BLOCK), np.tile([size + 1, size], _DRAW_BLOCK)
    low = size - 1

    accepted: list[tuple[int, int]] = []
    attempts = 0
    rejects_since_accept = 0
    while len(accepted) < min(count, strict_cap):
        if attempts >= ATTEMPT_CAP:
            raise SetSamplingError(
                f"no pairwise {mode} extension found within {ATTEMPT_CAP} attempts"
            )
        if rejects_since_accept >= _REJECTION_LIMIT:
            # Rejection sampling is stalling; enumerate valid extensions.
            attempts += 1
            valid = _scan_candidates(n, accepted, want)
            if valid.size:
                code = int(valid[int(rng.integers(valid.size))])
                accepted.append((code >> n, code & low))
            elif mode == "anticommuting":
                # Greedy anticommuting growth can wedge below 2n + 1
                # (e.g. {XI, YI, ZI} admits no further anticommuter);
                # restarting the chain keeps the draw unbiased.
                accepted.clear()
            else:
                raise SetSamplingError("commuting extension scan came up empty")
            rejects_since_accept = 0
            continue
        # Draw a block of candidates and test them together.  The block
        # never crosses a stall scan or the attempt cap, so it stands for
        # the same draws taken one at a time; on a hit the generator is
        # rewound and advanced by exactly the draws up to the hit.
        k = min(_DRAW_BLOCK, _REJECTION_LIMIT - rejects_since_accept, ATTEMPT_CAP - attempts)
        state = rng.bit_generator.state
        codes = _draw_candidates(table, bounds, rng, k)
        taken = np.array([_code(x, z, n) for x, z in accepted], dtype=np.int64)
        ok = _score_candidates(n, accepted, want, codes) == len(accepted)
        hits = np.flatnonzero(ok & (codes[:, None] != taken).all(axis=1))
        if hits.size == 0:
            attempts += k
            rejects_since_accept += k
            continue
        hit = int(hits[0])
        rng.bit_generator.state = state
        _draw_candidates(table, bounds, rng, hit + 1)
        attempts += hit + 1
        code = int(codes[hit])
        accepted.append((code >> n, code & low))
        rejects_since_accept = 0

    strict_count = len(accepted)
    # Past the strict cap: fall back to candidates that satisfy the
    # relation against as many accepted strings as possible.  Up to 8
    # qubits every string is a candidate, and its score is kept up to date
    # as strings are accepted.
    pool = None
    if n <= 8 and strict_count < count:
        pool = np.arange(1, 1 << (2 * n), dtype=np.int64)
        pool_score = _score_candidates(n, accepted, want, pool)
        free = np.ones(pool.size, dtype=bool)
        free[[_code(x, z, n) - 1 for x, z in accepted]] = False
    while len(accepted) < count:
        if attempts >= ATTEMPT_CAP:
            raise SetSamplingError(
                f"fallback phase exhausted {ATTEMPT_CAP} attempts"
            )
        if pool is not None:
            attempts += pool.size
            codes, score = pool[free], pool_score[free]
        else:
            codes = rng.integers(1, 1 << (2 * n), size=4096, dtype=np.int64)
            attempts += codes.size
            taken = np.array([_code(x, z, n) for x, z in accepted], dtype=np.int64)
            codes = codes[~np.isin(codes, taken)]
            score = _score_candidates(n, accepted, want, codes)
        if codes.size == 0:
            continue
        best = codes[score == score.max()]
        code = int(best[int(rng.integers(best.size))])
        accepted.append((code >> n, code & low))
        if pool is not None:
            pool_score += _sym_parity_array(pool, code >> n, code & low, n) == want
            free[code - 1] = False

    paulis = [PauliString(n, x, z) for x, z in accepted]
    return PauliSet(n=n, mode=mode, paulis=paulis, strict_count=strict_count)


def sample_commuting_set(n: int, count: int, rng: np.random.Generator) -> PauliSet:
    """Grow a random set of ``count`` strings, pairwise commuting while possible.

    Strict pairwise commutation is achievable up to 2^n - 1 strings; past
    that the growth switches to maximizing how many accepted strings each
    new candidate commutes with.  ``strict_count`` on the result marks the
    boundary.
    """
    return _grow_set(n, count, rng, "commuting")


def sample_anticommuting_set(n: int, count: int, rng: np.random.Generator) -> PauliSet:
    """Grow a random set of ``count`` strings, pairwise anticommuting while possible.

    Strict pairwise anticommutation caps at 2n + 1 strings; greedy growth
    can wedge earlier, in which case the chain restarts.  Past the cap the
    growth maximizes anticommutation count per candidate.
    """
    return _grow_set(n, count, rng, "anticommuting")
