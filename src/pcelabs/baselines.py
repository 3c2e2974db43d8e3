"""Classical reference solvers: exhaustive search, tabu, memetic tabu.

The exhaustive solver is the ground truth for small N and feeds the
reference energy levels that the time-to-solution counters trigger on.
Tabu search is the classical baseline the variational solver is scaled
against; the memetic variant wraps tabu in a generational loop and can
be seeded from variational solutions (``pce_warm_start``).

Evaluation counting is uniform across solvers: scoring one candidate
sequence costs one evaluation, whether it happens through a full energy
computation or an O(N) incremental flip probe, and every solver counts
on one ``EvalCounter``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from pcelabs.labs_core import (
    FlipWorkspace,
    as_spin_array,
    canonicalize,
    format_sequence,
    sidelobe_energy,
)
from pcelabs.pce_solver import (
    EnergyReferences,
    EvalCounter,
    PceConfig,
    SolveResult,
    _descend,
)

__all__ = [
    "ExactResult",
    "exact_solve",
    "TabuConfig",
    "tabu_search",
    "MemeticConfig",
    "memetic_tabu",
    "WarmStartConfig",
    "pce_warm_start",
]

EXACT_LIMIT = 36
# exact_solve walks blocks of 2^EXACT_BLOCK_BITS rows and scores about half of
# each.  Measured with dead columns packed away, at N = 24, 28 and 30 on one
# BLAS thread: 11 is 25-30% slower than 12, 13 up to 8% slower, and 14 about
# 40% slower.
EXACT_BLOCK_BITS = 12
# exact_solve works out the high spins, c_h and weights of this many blocks
# at a time, with a few vectorised calls; at N = 28, 2^6 to 2^10 time within
# a few percent of each other, and 2^4 is about 15% slower.
_EXACT_CHUNK = 1 << 8
_NO_MOVE = np.inf  # masks tabu flips out of the argmin
_TENURE_BLOCK = 1024  # the most tenures one draw takes; a walk stagnates sooner


@dataclass
class ExactResult:
    """Exhaustive-search outcome: distinct low energy levels and the
    canonical form of every optimal sequence."""

    n: int
    optimal_energy: int
    optimal_merit: float
    level_energies: list[int]
    canonical_optima: list[np.ndarray]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "optimal_energy": self.optimal_energy,
            "optimal_merit": self.optimal_merit,
            "level_energies": self.level_energies,
            "canonical_optima": [format_sequence(x) for x in self.canonical_optima],
        }


def exact_solve(N: int, levels: int = 3) -> ExactResult:
    """Enumerate the sequences with x_0 = x_1 = +1, one of each reversal pair.

    Negation fixes x_0, and alternation (x_i -> (-1)^i x_i) keeps x_0 and
    fixes x_1; both keep every C_l^2.  Reversal followed by the same
    renormalisation, R(x)_i = s a^i x_{N-1-i} with s = x_{N-1} and
    a = x_{N-1} x_{N-2}, maps the x_0 = x_1 = +1 set onto itself and is an
    involution, so every orbit of the full symmetry group meets that set in
    exactly {x, R(x)}.  About half of that set is scored, at least one
    member of every pair, and the level energies and canonical optima are
    those of all 2^N sequences.

    The last k free positions are the low block, which runs over the 2^k
    rows of a block; the other positions are the high block h, fixed per
    block.  Then C = T + G M_h + c_h: T is the low block's own
    autocorrelations, G its spins, M_h[j, l] = h[p_j + l] + h[p_j - l] =
    h[p_j - l] the cross terms with the low spin at position p_j (p_j + l
    is never in h), and c_h the high block's own autocorrelations.
    T + G M_h is kept lag-major, (N-1) x 2^k, and built once, by one
    matmul, for the first block, and so are its squares.  The blocks run
    in Gray-code order, so the next block flips one high spin x_p, which
    moves lags high-p .. N-1-p by -2 x_p G^T: one in-place add on those k
    rows, and only they are squared again.  A block's energies are
    ones.(T + G M_h)^2 + 2 c_h.(T + G M_h) + c_h.c_h, one float32 gemv over
    the squares and the lags below high, where c_h is not zero, plus
    c_h.c_h, which is added to the rows at or below the pool only.  The
    high spins, (ones, 2 c_h) and c_h.c_h of _EXACT_CHUNK blocks at a time
    come from a few vectorised calls.  Every partial sum and every energy is
    an integer below 2^24 (E <= N^3 / 3), so float32 is exact in any
    order.

    The pair member to score is chosen by a key, positions 2 .. m+1 with
    m = min(high, k) - 2, read as a binary number v and ranked by its Gray
    rank v ^ v>>1 ^ v>>2 ... .  In R(x) the key comes from the low row
    alone.  The rows are sorted by rank(R(x)) once, and a block scores the
    suffix of rows whose rank is at least rank(x), so x is scored when
    rank(R(x)) >= rank(x), and R(x) when rank(x) >= rank(R(x)).  The key
    positions are the slowest bits of the Gray-code walk and positions
    m+2 .. high-1 its fastest, so the block at step i has rank
    i >> (high-2-m), and the suffix only ever shrinks.  Columns below it
    are never read again: once they are more than an eighth of the live
    width, the live columns of the lags and of 2 G^T are moved to the
    front of their own buffers, so the add, the square and the gemv run on
    contiguous arrays of live columns.  Only the rows at or below
    the running pool of lowest levels go on to be merged into it.  Memory
    is a few 2^k x N float32 arrays whatever N is.  Refuses N beyond 36,
    where enumeration stops being a desk job (N = 36 walks 2^22 blocks).
    """
    if not 3 <= N <= EXACT_LIMIT:
        raise ValueError(f"exact enumeration supports 3 <= N <= {EXACT_LIMIT}")
    if levels < 1:
        raise ValueError("need at least one level")
    k = min(EXACT_BLOCK_BITS, N - 2)
    high = N - k
    m = max(0, min(high, k) - 2)
    fast = high - 2 - m  # the walk's fast bits, positions m+2 .. high-1
    # Bit i of a row is 1 where the spin at position high + i is -1.  Since
    # s a^j = x_{N-1-j%2}, bit j of the key, R(x) at position 2 + j, is the
    # XOR of row bits k-3-j and k-1-j%2.
    rows = np.arange(1 << k)
    key = np.zeros_like(rows)
    for j in range(m):
        key |= ((rows >> (k - 3 - j) ^ rows >> (k - 1 - j % 2)) & 1) << j
    rank = key.copy()
    for j in range(1, m):
        rank ^= key >> j
    rows = np.argsort(rank, kind="stable")  # the rows in rank order
    starts = np.searchsorted(rank[rows], np.arange(1 << m))
    spins = (1 - 2 * ((rows >> np.arange(k)[:, None]) & 1)).astype(np.float32)  # G^T
    gap = np.arange(1, N)[:, None] - np.arange(k)  # lag minus low position
    # Rows 0 .. N-2 hold the squares of T + G M_h, rows N-1 .. 2N-3 T + G M_h
    # itself, both lag-major.  c_h is zero from lag high on, so the gemv
    # stops at row N-3+high and skips the last k lags of T + G M_h.
    both = np.empty((2 * (N - 1), rows.size), dtype=np.float32)
    squares, corr, scored = both[: N - 1], both[N - 1 :], both[: N - 2 + high]
    np.matmul(((gap > 0) & (gap <= high)).astype(np.float32), spins, out=corr)  # all h = +1
    for lag in range(1, k):
        corr[lag - 1] += np.einsum("ij,ij->j", spins[:-lag], spins[lag:])
    np.square(corr, out=squares)
    twice_spins = 2 * spins
    base = 0  # both and twice_spins hold columns base .. 2^k - 1
    # Gray-code bit b flips position position[b]; h column 2 + j reads bit shift[j].
    position = [*range(m + 2, high), *range(2, m + 2)]
    shift = np.concatenate((np.arange(fast, high - 2), np.arange(fast)))
    blocks = 1 << (high - 2)
    chunk = min(_EXACT_CHUNK, blocks)
    weights = np.ones((chunk, scored.shape[0]), dtype=np.float32)  # rows (ones, 2 c_h)
    c_h = weights[:, N - 1 :]
    pool = np.empty(0, dtype=np.float32)  # lowest distinct energies so far
    cutoff = np.inf
    at_best: list[tuple[np.ndarray, np.ndarray]] = []  # (h, rows) at pool[0]
    for first in range(0, blocks, chunk):
        steps = np.arange(first, first + chunk)
        h = np.ones((chunk, high), dtype=np.float32)  # the blocks' high spins
        h[:, 2:] -= 2 * ((steps ^ steps >> 1)[:, None] >> shift & 1)
        for lag in range(1, high):
            c_h[:, lag - 1] = np.einsum("ij,ij->i", h[:, :-lag], h[:, lag:])
        own = np.einsum("ij,ij->i", c_h, c_h).tolist()  # c_h.c_h
        c_h *= 2
        start = starts[steps >> fast].tolist()
        for i, step in enumerate(range(first, first + chunk)):
            if 8 * (start[i] - base) > both.shape[1]:
                both = _pack(both, start[i] - base)
                twice_spins = _pack(twice_spins, start[i] - base)
                base = start[i]
                squares, corr, scored = both[: N - 1], both[N - 1 :], both[: N - 2 + high]
            if step:
                p = position[(step & -step).bit_length() - 1]
                moved = slice(high - p - 1, N - 1 - p)
                if h[i, p] < 0:
                    corr[moved] -= twice_spins
                else:
                    corr[moved] += twice_spins
                np.square(corr[moved], out=squares[moved])
            partial = weights[i] @ scored[:, start[i] - base :]
            bound = cutoff - own[i]
            if partial.min() > bound:
                continue
            hits = np.flatnonzero(partial <= bound)
            found = partial[hits] + own[i]
            if pool.size == 0 or found.min() < pool[0]:
                at_best = []
            pool = np.union1d(pool, found)[:levels]
            if pool.size == levels:
                cutoff = pool[-1]
            if found.min() == pool[0]:
                at_best.append((h[i].copy(), start[i] + hits[found == pool[0]]))
    canonical: dict[tuple, np.ndarray] = {}
    for high_spins, hit_rows in at_best:
        for row in hit_rows:
            canon = canonicalize(np.concatenate((high_spins, spins[:, row])).astype(np.int64))
            canonical[tuple(canon)] = canon
    optima = sorted(canonical.values(), key=lambda s: tuple((1 - s) // 2))
    level_energies = [int(e) for e in pool]
    return ExactResult(
        n=N,
        optimal_energy=level_energies[0],
        optimal_merit=N * N / (2.0 * level_energies[0]),
        level_energies=level_energies,
        canonical_optima=optima,
    )


def _pack(array: np.ndarray, dead: int) -> np.ndarray:
    """Drop the first ``dead`` columns of a C-contiguous 2-D ``array``: move
    the rest, row by row, to the front of its own buffer and return them
    as a contiguous view.  A row never lands on a later row's columns."""
    live = array.shape[1] - dead
    packed = array.reshape(-1)[: array.shape[0] * live].reshape(-1, live)
    for row in range(array.shape[0]):
        packed[row] = array[row, dead:]
    return packed


# ---------------------------------------------------------------------------
# Tabu search.


def _require_at_least(least: int, config, *names: str) -> None:
    for name in names:
        value = getattr(config, name)
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")


@dataclass(frozen=True)
class TabuConfig:
    """Single-flip tabu search settings.

    Tenure bounds default to ceil(N/10) and ceil(N/2) when left as None;
    a restart rerandomizes the sequence after stagnation_factor * N moves
    without improving the global best.
    """

    tenure_min: int | None = None
    tenure_max: int | None = None
    eval_budget: int = 10**7
    stagnation_factor: int = 10
    seed: int = 0

    def __post_init__(self):
        _require_at_least(1, self, "eval_budget", "stagnation_factor")

    def resolved_tenure(self, N: int) -> tuple[int, int]:
        lo = math.ceil(N / 10) if self.tenure_min is None else self.tenure_min
        hi = math.ceil(N / 2) if self.tenure_max is None else self.tenure_max
        if not 1 <= lo <= hi < N:
            raise ValueError(f"need 1 <= tenure_min <= tenure_max < N, got [{lo}, {hi}]")
        return lo, hi


def _tabu_core(
    ws: FlipWorkspace,
    counter: EvalCounter,
    rng: np.random.Generator,
    tenure: tuple[int, int],
    stagnation_limit: int,
    max_moves: int | None = None,
) -> None:
    """Run tabu moves on ``ws`` until stagnation, budget, exact, or cap.

    Each move probes all N single flips in index order (one evaluation
    each, counters firing on probe values), then commits the best
    non-tabu flip, where a tabu flip is allowed if it would improve the
    global best.  Ties break toward the lowest index.  Tenures are drawn
    in blocks; every exit rewinds the generator and advances it by the
    draws used, where one draw per move leaves it (int64 block and scalar
    draws are one stream).
    """
    def flipped(i: int) -> np.ndarray:
        seq = ws.sequence
        seq[i] = -seq[i]
        return seq

    low, high = tenure[0], tenure[1] + 1
    block = min(stagnation_limit, max_moves or stagnation_limit, _TENURE_BLOCK)
    bitgen = rng.bit_generator
    saved, tenures, used = None, [], 0
    tabu_until = np.zeros(ws.n, dtype=np.int64)
    energy = ws.energy
    move = 0
    since_improvement = 0
    try:
        while since_improvement < stagnation_limit:
            if max_moves is not None and move >= max_moves:
                return
            move += 1
            deltas = ws.propose_all()
            best_idx = int(deltas.argmin())
            lowest = energy + int(deltas[best_idx])
            # When even the best flip lands above the counter's limit, no
            # probe can fire, and the counter bills the move without a scan.
            if counter.observe_run(deltas, lowest, flipped, energy):
                return
            if tabu_until[best_idx] > move:
                # Unless the best flip is tabu it is the move: argmin breaks
                # ties toward the lowest index, as the masked argmin would.
                # tenure_max < N: at least one flip is free of tabu.
                tabu = tabu_until > move
                if lowest < counter.best_energy:  # else no flip can aspire
                    tabu &= deltas >= counter.best_energy - energy
                np.putmask(deltas, tabu, _NO_MOVE)
                best_idx = int(deltas.argmin())
            previous_best = counter.best_energy
            energy = ws.commit(best_idx, deltas[best_idx])
            if used == len(tenures):
                saved, tenures, used = bitgen.state, rng.integers(low, high, block).tolist(), 0
            tabu_until[best_idx] = move + tenures[used]
            used += 1
            if energy < previous_best:
                since_improvement = 0
            else:
                since_improvement += 1
    finally:
        if used < len(tenures):
            bitgen.state = saved
            rng.integers(low, high, used)


def tabu_search(
    N: int,
    config: TabuConfig,
    references: EnergyReferences | None = None,
) -> SolveResult:
    """Tabu-driven single-flip search with aspiration and random restarts.

    Runs until the exact reference level is reached (when references are
    given) or the evaluation budget runs out, restarting from a fresh
    random sequence whenever the global best stagnates.  Identical
    (N, config) pairs give identical results.
    """
    if N < 3:
        raise ValueError("sequence length must be >= 3")
    tenure = config.resolved_tenure(N)
    rng = np.random.default_rng(config.seed)
    counter = EvalCounter(N, references, config.eval_budget)
    restarts = 0
    spins = np.array([-1, 1])
    while not counter.done:
        restarts += 1
        ws = FlipWorkspace(rng.choice(spins, N))
        if counter.observe(ws.sequence, ws.energy, counter.tick()):
            break
        _tabu_core(ws, counter, rng, tenure, stagnation_limit=config.stagnation_factor * N)
    return counter.result("tabu", config.seed, restarts)


# ---------------------------------------------------------------------------
# Memetic tabu search.


@dataclass(frozen=True)
class MemeticConfig:
    """Generational loop settings for the memetic tabu solver.

    Steady-state reproduction: every generation selects two parents by
    tournament, produces one offspring by uniform crossover and per-bit
    mutation (rate 1/N when None), improves it with a bounded tabu run,
    and replaces the worst member if the offspring beats it.
    """

    eval_budget: int = 10**7
    tournament_size: int = 3
    mutation_rate: float | None = None
    local_moves: int = 100
    local_stagnation: int = 30
    tenure_min: int | None = None
    tenure_max: int | None = None
    seed: int = 0

    def __post_init__(self):
        _require_at_least(
            1, self, "eval_budget", "tournament_size", "local_moves", "local_stagnation"
        )
        if self.mutation_rate is not None and not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError(f"mutation_rate must be in [0, 1], got {self.mutation_rate}")

    def resolved_tenure(self, N: int) -> tuple[int, int]:
        return TabuConfig(self.tenure_min, self.tenure_max).resolved_tenure(N)

    def resolved_mutation_rate(self, N: int) -> float:
        return 1.0 / N if self.mutation_rate is None else self.mutation_rate


def memetic_tabu(
    N: int,
    population: list[np.ndarray],
    config: MemeticConfig,
    references: EnergyReferences | None = None,
) -> SolveResult:
    """Memetic search over an explicit starting population."""
    if len(population) < 2:
        raise ValueError("population needs at least 2 members")
    members = [as_spin_array(x) for x in population]
    if any(m.size != N for m in members):
        raise ValueError("population member length differs from N")
    counter = EvalCounter(N, references, config.eval_budget)
    generations = _evolve(N, members, config, counter)
    return counter.result("memetic-tabu", config.seed, generations)


def _evolve(
    N: int, members: list[np.ndarray], config: MemeticConfig, counter: EvalCounter
) -> int:
    """The generational loop of ``memetic_tabu`` over the validated
    ``members``, observing into ``counter`` from its current evaluation
    count on; returns the generations run."""
    tenure = config.resolved_tenure(N)
    mutation_rate = config.resolved_mutation_rate(N)
    rng = np.random.default_rng(config.seed)
    energies = np.array([sidelobe_energy(member) for member in members])
    # A stop inside the population leaves the counter done: no generation runs.
    counter.observe_run(energies, energies.min(), members.__getitem__)
    generations = 0
    while not counter.done:
        generations += 1
        child = _crossover(
            _tournament(members, energies, config.tournament_size, rng),
            _tournament(members, energies, config.tournament_size, rng),
            rng,
        )
        flips = rng.random(N) < mutation_rate
        child[flips] = -child[flips]
        ws = FlipWorkspace(child)
        if counter.observe(ws.sequence, ws.energy, counter.tick()):
            break
        _tabu_core(
            ws,
            counter,
            rng,
            tenure,
            stagnation_limit=config.local_stagnation,
            max_moves=config.local_moves,
        )
        improved = ws.sequence
        improved_energy = ws.energy
        worst = int(np.argmax(energies))
        if improved_energy < energies[worst]:
            members[worst] = improved
            energies[worst] = improved_energy
    return generations


def _tournament(
    members: list[np.ndarray], energies: np.ndarray, size: int, rng: np.random.Generator
) -> np.ndarray:
    picks = rng.integers(len(members), size=max(1, size))
    return members[picks[energies[picks].argmin()]]


def _crossover(a: np.ndarray, b: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    take_a = rng.random(a.size) < 0.5
    return np.where(take_a, a, b)


# ---------------------------------------------------------------------------
# Variational warm start.


@dataclass(frozen=True)
class WarmStartConfig:
    """How many short variational solves feed the memetic population."""

    pce_runs: int = 150
    population_copies: int = 50

    def __post_init__(self):
        _require_at_least(1, self, "pce_runs")
        _require_at_least(2, self, "population_copies")


def pce_warm_start(
    N: int,
    pce_config: PceConfig,
    mt_config: MemeticConfig,
    references: EnergyReferences | None = None,
    warm: WarmStartConfig = WarmStartConfig(),
) -> SolveResult:
    """Short variational solves seeding a memetic tabu run.

    Runs ``warm.pce_runs`` independent short-budget variational solves,
    fewer once the budget left is less than one billed step (one
    evaluation, plus the gradient's 2P circuits when
    ``count_gradient_evals`` is set), copies the best decoded sequence
    ``warm.population_copies`` times as the memetic starting population,
    and continues with memetic tabu.
    Every phase observes into one counter, so the counters end up on one
    shared time axis under ``mt_config.eval_budget``.  The run
    short-circuits as soon as the exact level triggers.
    """
    if N < 3:
        raise ValueError("sequence length must be >= 3")
    counter = EvalCounter(N, references, mt_config.eval_budget)
    step = 1 + (2 * pce_config.ansatz().param_count if pce_config.count_gradient_evals else 0)
    for run in range(warm.pce_runs):
        _descend(N, replace(pce_config, seed=_derive_seed(pce_config.seed, run)), counter)
        if counter.done:
            return counter.result("pce+memetic-tabu", pce_config.seed, run + 1)
        if counter.evals + step > counter.budget:
            break
    best = canonicalize(counter.best_sequence)
    population = [best.copy() for _ in range(warm.population_copies)]
    generations = _evolve(N, population, mt_config, counter)
    return counter.result("pce+memetic-tabu", mt_config.seed, generations)


def _derive_seed(base: int, index: int) -> int:
    return int(np.random.SeedSequence([base, index]).generate_state(1, np.uint64)[0])
