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
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "PauliString",
    "PauliSet",
    "commutes",
    "mub_partition",
    "sample_commuting_set",
    "sample_anticommuting_set",
    "max_anticommuting_size",
]

MAX_QUBITS = 12
ATTEMPT_CAP = 10**6

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

    def y_count(self) -> int:
        return (self.x_mask & self.z_mask).bit_count()

    def weight(self) -> int:
        return (self.x_mask | self.z_mask).bit_count()

    def commutes_with(self, other: "PauliString") -> bool:
        if self.n != other.n:
            raise ValueError("qubit counts differ")
        return commutes(self, other)

    def __str__(self) -> str:
        return self.to_label()


def commutes(p: PauliString, q: PauliString) -> bool:
    """True iff the two strings commute (symplectic form evaluates to 0)."""
    sym = (p.x_mask & q.z_mask).bit_count() + (p.z_mask & q.x_mask).bit_count()
    return sym % 2 == 0


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

    def mask_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(x_masks, z_masks) as int64 arrays, in set order."""
        xs = np.array([p.x_mask for p in self.paulis], dtype=np.int64)
        zs = np.array([p.z_mask for p in self.paulis], dtype=np.int64)
        return xs, zs

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "mode": self.mode,
            "strict_count": self.strict_count,
            "paulis": [p.to_label() for p in self.paulis],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "PauliSet":
        paulis = [PauliString.from_label(lbl) for lbl in doc["paulis"]]
        return cls(
            n=doc["n"],
            mode=doc["mode"],
            paulis=paulis,
            strict_count=doc.get("strict_count"),
        )


# ---------------------------------------------------------------------------
# GF(2^n) arithmetic on int bit masks.


def _gf_mul(a: int, b: int, n: int) -> int:
    poly = _IRREDUCIBLE[n]
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a >> n & 1:
            a ^= poly
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


def _apply_bit_matrix(rows: Sequence[int], v: int) -> int:
    out = 0
    for i, row in enumerate(rows):
        out |= ((row & v).bit_count() & 1) << i
    return out


def mub_partition(n: int) -> list[PauliSet]:
    """Partition all 4^n - 1 traceless strings into 2^n + 1 commuting classes.

    Returns the classes in a fixed order: the Z-type class {(0, z)} first,
    then the classes labelled by field elements 0 .. 2^n - 1 (the label-0
    class is the X-type one).  Each class has 2^n - 1 strings.
    """
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {n}")
    rows = _trace_gram_rows(n)
    size = 1 << n
    classes = []
    z_class = [PauliString(n, 0, z) for z in range(1, size)]
    classes.append(PauliSet(n=n, mode="commuting", paulis=z_class))
    for slope in range(size):
        members = []
        for a in range(1, size):
            z = _apply_bit_matrix(rows, _gf_mul(slope, a, n))
            members.append(PauliString(n, a, z))
        classes.append(PauliSet(n=n, mode="commuting", paulis=members))
    return classes


# ---------------------------------------------------------------------------
# Random Pauli set growth.


def max_anticommuting_size(n: int) -> int:
    """Largest pairwise anticommuting set on n qubits: 2n + 1."""
    return 2 * n + 1


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

    Chunked so the intermediate arrays stay small; accepted codes are
    excluded from the result.
    """
    total = 1 << (2 * n)
    taken = {_code(x, z, n) for x, z in accepted}
    keep_chunks = []
    chunk = 1 << 16
    for start in range(1, total, chunk):
        codes = np.arange(start, min(start + chunk, total), dtype=np.int64)
        ok = np.ones(codes.size, dtype=bool)
        for x_mask, z_mask in accepted:
            ok &= _sym_parity_array(codes, x_mask, z_mask, n) == want
        good = codes[ok]
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


def _draw_code(n: int, rng: np.random.Generator, rows: Sequence[int]) -> tuple[int, int]:
    """Uniformly random traceless string, drawn as (MUB class, member)."""
    size = 1 << n
    cls = int(rng.integers(size + 1))
    a = int(rng.integers(1, size))
    if cls == size:
        return 0, a
    return a, _apply_bit_matrix(rows, _gf_mul(cls, a, n))


def _grow_set(n: int, count: int, rng: np.random.Generator, mode: str) -> PauliSet:
    if count < 1:
        raise ValueError("set size must be positive")
    if count > (1 << (2 * n)) - 1:
        raise ValueError("more strings requested than exist")
    want = 0 if mode == "commuting" else 1
    strict_cap = (1 << n) - 1 if mode == "commuting" else 2 * n + 1
    rows = _trace_gram_rows(n)
    rejection_limit = 512

    accepted: list[tuple[int, int]] = []
    attempts = 0
    rejects_since_accept = 0
    while len(accepted) < min(count, strict_cap):
        if attempts >= ATTEMPT_CAP:
            raise SetSamplingError(
                f"no pairwise {mode} extension found within {ATTEMPT_CAP} attempts"
            )
        attempts += 1
        if rejects_since_accept >= rejection_limit:
            # Rejection sampling is stalling; enumerate valid extensions.
            valid = _scan_candidates(n, accepted, want)
            if valid.size:
                code = int(valid[int(rng.integers(valid.size))])
                accepted.append((code >> n, code & ((1 << n) - 1)))
            elif mode == "anticommuting":
                # Greedy anticommuting growth can wedge below 2n + 1
                # (e.g. {XI, YI, ZI} admits no further anticommuter);
                # restarting the chain keeps the draw unbiased.
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
        # Past the strict cap: fall back to candidates that satisfy the
        # relation against as many accepted strings as possible.
        if attempts >= ATTEMPT_CAP:
            raise SetSamplingError(
                f"fallback phase exhausted {ATTEMPT_CAP} attempts"
            )
        if n <= 8:
            codes = np.arange(1, 1 << (2 * n), dtype=np.int64)
        else:
            codes = rng.integers(1, 1 << (2 * n), size=4096, dtype=np.int64)
        attempts += codes.size
        taken = np.fromiter(
            (_code(x, z, n) for x, z in accepted), dtype=np.int64, count=len(accepted)
        )
        codes = codes[~np.isin(codes, taken)]
        if codes.size == 0:
            continue
        score = _score_candidates(n, accepted, want, codes)
        best = codes[score == score.max()]
        code = int(best[int(rng.integers(best.size))])
        accepted.append((code >> n, code & ((1 << n) - 1)))

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
