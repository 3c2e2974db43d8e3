"""Pauli strings and random Pauli set sampling.

A Pauli string on n qubits is stored symplectically as two n-bit masks
(x_mask, z_mask): bit q of x_mask applies X on qubit q, bit q of z_mask
applies Z, both together give Y (phases are irrelevant here, only
commutation and expectation values matter).  Two strings commute iff
parity(x1 & z2) == parity(z1 & x2).

A random set grows one string at a time, each drawn uniformly from the
strings that have the wanted relation to every string accepted so far.
Those strings solve a linear system over GF(2), one symplectic parity
equation per accepted string (Aaronson & Gottesman, arXiv:quant-ph/0406196),
so each is drawn by solving the system rather than by rejection.  Past
the most strings the relation admits, each new string is one of those
with the relation to the most strings accepted so far.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

__all__ = [
    "PauliString",
    "PauliSet",
    "sample_commuting_set",
    "sample_anticommuting_set",
]

MAX_QUBITS = 12

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


def _score_candidates(
    n: int, accepted: list[tuple[int, int]], want: int, codes: np.ndarray
) -> np.ndarray:
    """How many accepted pairs each code satisfies the relation against."""
    x_masks, z_masks = np.array(accepted, dtype=np.int64).reshape(-1, 2).T
    parity = _sym_parity_array(codes, x_masks[:, None], z_masks[:, None], n)
    return (parity == want).sum(axis=0)


def _add_row(pivots: dict[int, tuple[int, int]], row: int, rhs: int) -> bool:
    """Add the equation parity(row & v) == rhs to a reduced row-echelon form.

    ``pivots`` maps each pivot bit to its (row, rhs); a row holds its own
    pivot bit and no other.  Returns False if the equation contradicts
    the system, which is then left as it was.
    """
    for bit, (r, b) in pivots.items():
        if row >> bit & 1:
            row ^= r
            rhs ^= b
    if row == 0:
        return rhs == 0
    pivot = row.bit_length() - 1
    for bit, (r, b) in pivots.items():
        if r >> pivot & 1:
            pivots[bit] = (r ^ row, b ^ rhs)
    pivots[pivot] = (row, rhs)
    return True


def _solve_draw(pivots: dict[int, tuple[int, int]], bits: int, rng: np.random.Generator) -> int:
    """A uniformly random solution of the system: one draw fills the free
    bits, and back-substitution sets each pivot bit."""
    free = [bit for bit in range(bits) if bit not in pivots]
    draw = int(rng.integers(1 << len(free)))
    v = 0
    for i, bit in enumerate(free):
        v |= (draw >> i & 1) << bit
    for bit, (row, rhs) in pivots.items():
        v |= (rhs ^ (row & v).bit_count() & 1) << bit
    return v


_TAKEN = -(1 << 62)  # pool score of an accepted string: never the best


def _grow_set(n: int, count: int, rng: np.random.Generator, mode: str) -> PauliSet:
    """``count`` strings on ``n`` qubits: up to the strict cap each is drawn
    uniformly from the valid extensions, past it uniformly from the
    strings with the relation to the most accepted strings.  Up to 8
    qubits that pick scores the pool of every string with one popcount
    per accepted string; above, it scores 4096 random candidates."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {n}")
    if count < 1:
        raise ValueError("set size must be positive")
    if count > (1 << (2 * n)) - 1:
        raise ValueError("more strings requested than exist")
    want = 0 if mode == "commuting" else 1
    strict_cap = (1 << n) - 1 if mode == "commuting" else 2 * n + 1
    strict = min(count, strict_cap)
    low = (1 << n) - 1

    # Strict phase: each accepted code (x, z) adds the row (z, x), whose
    # parity against a code is their symplectic form, with right-hand side
    # ``want``.  The valid extensions are the system's solutions, less the
    # identity and the accepted strings, which solve the empty system and
    # every commuting one and are drawn again.
    codes: dict[int, None] = {}  # accepted codes, in order
    pivots: dict[int, tuple[int, int]] = {}
    while len(codes) < strict:
        code = _solve_draw(pivots, 2 * n, rng)
        if code == 0 or code in codes:
            continue
        codes[code] = None
        if len(codes) < strict and not _add_row(pivots, (code & low) << n | code >> n, want):
            # Greedy anticommuting growth can wedge below 2n + 1 (e.g.
            # {XI, YI, ZI} admits no further anticommuter): the system has
            # no solution, and restarting the chain keeps the draw unbiased.
            codes.clear()
            pivots.clear()
    accepted = [(code >> n, code & low) for code in codes]

    # Past the strict cap: fall back to candidates that satisfy the
    # relation against as many accepted strings as possible.  Up to 8
    # qubits every string is a candidate: pool[i] = i + 1, and swapped[i]
    # is its row (z, x), so popcount(swapped & code) & 1 is the symplectic
    # form of ``code`` against every pool entry at once.  Each entry's
    # score counts the accepted strings it has the relation to and is
    # kept up to date as strings are accepted; a taken string's score is
    # pushed below any other.  Ties go in code order, as the draw expects.
    pool_score = None
    if n <= 8 and strict < count:
        pool = np.arange(1, 1 << (2 * n), dtype=np.uint16)
        swapped = (pool & low) << n | pool >> n
        taken = np.array(list(codes), dtype=np.uint16)
        pool_score = (np.bitwise_count(swapped & taken[:, None]) & 1 == want).sum(axis=0)
        pool_score[taken - 1] = _TAKEN
    while len(accepted) < count:
        if pool_score is not None:
            best = np.flatnonzero(pool_score == pool_score.max())
            code = int(best[int(rng.integers(best.size))]) + 1
            pool_score += np.bitwise_count(swapped & code) & 1 == want
            pool_score[code - 1] = _TAKEN
        else:
            candidates = rng.integers(1, 1 << (2 * n), size=4096, dtype=np.int64)
            taken = np.array([_code(x, z, n) for x, z in accepted], dtype=np.int64)
            candidates = candidates[~np.isin(candidates, taken)]
            if candidates.size == 0:
                continue
            score = _score_candidates(n, accepted, want, candidates)
            best = candidates[score == score.max()]
            code = int(best[int(rng.integers(best.size))])
        accepted.append((code >> n, code & low))

    paulis = [PauliString(n, x, z) for x, z in accepted]
    return PauliSet(n=n, mode=mode, paulis=paulis, strict_count=strict)


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
