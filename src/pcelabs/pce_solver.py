"""Variational LABS solver through Pauli correlation encoding.

Each sequence entry is carried by one Pauli string: x_i = sign(<P_i>)
on an n-qubit state with n much smaller than N.  Training relaxes the
sign through x~_i = tanh(alpha <P_i>) and descends

    L(theta) = sum_l C_l(x~)^2 - beta * sum_i x~_i^2,

whose first term is the sidelobe energy of the relaxation (so L equals
the integer energy exactly on binary points when beta = 0) and whose
second term pushes the correlations toward +-1.  After every loss
evaluation the current state is decoded to integers and scored, which is
what the time-to-solution counters measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from pcelabs import _kernels, state_sim
from pcelabs.labs_core import canonicalize, format_sequence, lag_windows, sidelobe_energy
from pcelabs.pauli_algebra import (
    MAX_QUBITS,
    PauliString,
    sample_anticommuting_set,
    sample_commuting_set,
)
from pcelabs.state_sim import AnsatzSpec

# Largest number of restarts run in lockstep, one angle row each, and
# the most amplitudes (rows x 2^n) a lockstep batch holds.  Past about
# 2^11 amplitudes the arithmetic outweighs the per-gate overhead that
# lockstep shares: per row, a 15-layer step at 10 qubits is fastest at 2
# rows and at 8 qubits at 8-16, while the adjoint sweep's memory grows
# with the batch.
LOCKSTEP_ROWS = 32
LOCKSTEP_AMPLITUDES = 1 << 11

__all__ = [
    "PceConfig",
    "EnergyReferences",
    "SolveResult",
    "EvalCounter",
    "LossContext",
    "relax",
    "relaxed_loss_gradient",
    "decode",
    "resolve_engine",
    "solve",
]


def relax(expectations: np.ndarray, alpha: float) -> np.ndarray:
    """Soft sign x~ = tanh(alpha * e); keeps values strictly inside (-1, 1)."""
    return np.tanh(alpha * np.asarray(expectations, dtype=np.float64))


def _soft_autocorrelations(x_tilde: np.ndarray) -> np.ndarray:
    """C_l = sum_k x~_k x~_{k+l} for l = 1 .. N-1 along the last axis."""
    return np.einsum("...k,...kl->...l", x_tilde, lag_windows(x_tilde)[..., x_tilde.shape[-1] :])


def relaxed_loss_gradient(x_tilde: np.ndarray, beta: float) -> np.ndarray:
    """dL/dx~ for the relaxed loss, of an (N,) vector or of each row of a
    (B, N) matrix: dL/dx~_k = 2 sum_l C_l (x~_{k+l} + x~_{k-l}) - 2 beta x~_k,
    as two einsums over one window view."""
    x_tilde = np.asarray(x_tilde, dtype=np.float64)
    n = x_tilde.shape[-1]
    windows = lag_windows(x_tilde)
    c = np.einsum("...k,...kl->...l", x_tilde, windows[..., n:])
    # Entry j weighs lag |j - (N - 1)|, the middle one lag 0.
    lags = np.concatenate([c[..., ::-1], np.zeros_like(c[..., :1]), c], axis=-1)
    return 2.0 * np.einsum("...kj,...j->...k", windows, lags) - 2.0 * beta * x_tilde


def decode(expectations: np.ndarray) -> np.ndarray:
    """Hard sign readout; ties at exactly 0 go to +1."""
    e = np.asarray(expectations)
    return np.where(e >= 0, 1, -1).astype(np.int64)


class EnergyReferences(NamedTuple):
    """Energy levels that trigger the time-to-solution counters."""

    exact: int
    first: int | None = None
    second: int | None = None

    @classmethod
    def from_levels(cls, levels: Sequence[int]) -> "EnergyReferences":
        """References from ascending levels [exact, first, second, ...];
        levels the list lacks are None."""
        return cls(*levels[:3])


@dataclass(frozen=True)
class PceConfig:
    """Solver settings; defaults follow the N = 13 working point."""

    n_qubits: int = 4
    layers: int = 15
    pauli_mode: str = "anticommuting"
    alpha: float | None = None
    beta: float = 15.0
    optimizer: str = "adam"
    step_size: float = 0.3
    iters_per_restart: int = 200
    restart_cap: int = 1000
    shots: int = 0
    seed: int = 0
    count_gradient_evals: bool = False

    def __post_init__(self):
        if not 2 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must be in [2, {MAX_QUBITS}], got {self.n_qubits}")
        if self.layers < 1:
            raise ValueError("need at least 1 layer")
        if self.pauli_mode not in ("anticommuting", "commuting"):
            raise ValueError(f"unknown pauli_mode {self.pauli_mode!r}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.resolved_alpha() <= 1.0:
            raise ValueError("alpha must exceed 1 so decoding can saturate")
        if not self.step_size > 0:
            raise ValueError(f"step_size must be > 0, got {self.step_size}")
        if self.shots < 0:
            raise ValueError("shots must be >= 0 (0 means exact expectations)")
        if self.iters_per_restart < 0:
            raise ValueError("iters_per_restart must be >= 0")
        if self.restart_cap < 1:
            raise ValueError("restart_cap must be >= 1")

    def resolved_alpha(self) -> float:
        return 1.5 * self.n_qubits if self.alpha is None else float(self.alpha)

    def ansatz(self) -> AnsatzSpec:
        return AnsatzSpec(self.n_qubits, self.layers)


@dataclass
class SolveResult:
    """Outcome of one solver run, counters included.

    ``evals_to_exact`` (and the first/second-level variants) hold the
    1-based index of the loss evaluation whose decoded energy first
    reached the corresponding reference level, or None if never reached.
    """

    solver: str
    n: int
    seed: int
    best_sequence: np.ndarray
    best_energy: int
    merit_factor: float
    total_evals: int
    restarts_used: int
    evals_to_exact: int | None = None
    evals_to_first: int | None = None
    evals_to_second: int | None = None

    def to_dict(self) -> dict:
        return {
            "solver": self.solver,
            "n": self.n,
            "seed": self.seed,
            "best_sequence": format_sequence(self.best_sequence),
            "best_energy": self.best_energy,
            "merit_factor": self.merit_factor,
            "total_evals": self.total_evals,
            "restarts_used": self.restarts_used,
            "evals_to_exact": self.evals_to_exact,
            "evals_to_first": self.evals_to_first,
            "evals_to_second": self.evals_to_second,
        }


def resolve_engine() -> str:
    """The engine that runs: numba when it imports, numpy otherwise."""
    return "numba" if _kernels.HAVE_NUMBA else "numpy"


class LossContext:
    """Expectations and loss gradients for one ansatz and its Pauli sets:
    the forward pass, shot sampling and the adjoint sweep, on either
    engine.  It counts nothing; the restart loop bills its steps.

    Either engine evolves, measures and sweeps all rows in one call each;
    the context adds only the loss and its seeds.

    ``paulis`` is one Pauli list shared by every angle row, or a list of
    B Pauli lists, one per row of a (B, P) angle matrix: B restarts run
    in lockstep.  Gradients are always computed from exact expectations;
    finite shots affect only the expectations a step returns.
    """

    def __init__(
        self,
        spec: AnsatzSpec,
        paulis: Sequence,
        alpha: float,
        beta: float,
        shots: int = 0,
        rng: np.random.Generator | None = None,
    ):
        self.spec = spec
        self.paulis = list(paulis)
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.shots = int(shots)
        self.rng = rng if rng is not None else np.random.default_rng()
        self.tables = state_sim.pauli_tables(self.paulis, 1 << spec.n)
        self.engine = resolve_engine()
        self._work = None  # adjoint scratch arrays, kept from step to step

    def _forward(self, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(B, 2^n) states and (B, N) exact expectations for (B, P) angles."""
        if self.engine == "numba":
            states = _kernels.evolve_batch(*state_sim.step_tables(self.spec, thetas))
            shape = (len(states), *self.tables.perms.shape[-2:])
            perms, coeffs = (np.broadcast_to(t, shape) for t in self.tables)
            return states, _kernels.pauli_expectations(states, perms, coeffs)
        states = state_sim.run_ansatz_batch(self.spec, thetas)
        return states, state_sim.expectations_batch(states, self.tables)

    def exact_expectations(self, thetas: np.ndarray) -> np.ndarray:
        """(B, N) exact expectation matrix for a (B, P) angle matrix."""
        return self._forward(np.atleast_2d(np.asarray(thetas, dtype=np.float64)))[1]

    def _sample(self, exact: np.ndarray) -> np.ndarray:
        """Finite-shot estimate of an exact expectation array.

        A parity measurement is a Bernoulli draw with success probability
        (1 + e) / 2, so sampling the binomial directly is distributed
        identically to simulating the rotated-basis measurement.
        """
        p = np.clip((1.0 + exact) / 2.0, 0.0, 1.0)
        hits = self.rng.binomial(self.shots, p)
        return (2.0 * hits - self.shots) / self.shots

    def step(
        self, thetas: np.ndarray, gradient: bool = True
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """One loss evaluation per row of a (B, P) angle matrix, from a
        single forward pass: the (B, N) expectations (sampled when shots
        > 0) and, if ``gradient``, the (B, P) loss gradient, else None."""
        states, exact = self._forward(thetas)
        e = self._sample(exact) if self.shots > 0 else exact
        return e, self.gradient(thetas, (states, exact)) if gradient else None

    def gradient(
        self, theta: np.ndarray, forward: tuple[np.ndarray, np.ndarray] | None = None
    ) -> np.ndarray:
        """Analytic dL/dtheta by one adjoint sweep on either engine; equal to
        parameter shift.  ``theta`` is (P,) or (B, P), one gradient per
        row.  ``forward`` is the (states, exact expectations) pair at the
        (B, P) angles when the caller has already evolved them."""
        thetas = np.atleast_2d(np.asarray(theta, dtype=np.float64))
        states, exact = self._forward(thetas) if forward is None else forward
        # lams[b] = sum_i w_bi P_bi psi_b, the loss seed of each row.
        perms, coeffs = self.tables
        rows = np.arange(len(states))[:, None, None]
        seeds = self._loss_weights(exact)[:, None, :]
        lams = np.matmul(seeds, coeffs * states[rows, perms])[:, 0]
        spec = self.spec
        if self.engine == "numba":
            turns = state_sim.inverse_turns(spec, thetas)
            reads = _kernels.adjoint_reads(*turns, *spec.sweep_reads(), states, lams, spec.n)
            grad = state_sim.gradient_from_reads(spec, thetas, reads)
        else:
            if self._work is None or self._work[1].shape[0] != len(thetas):
                self._work = state_sim.sweep_work(spec, len(thetas))
            grad = state_sim.adjoint_gradient(spec, thetas, states, lams, self._work)
        return grad if np.ndim(theta) == 2 else grad[0]

    def _loss_weights(self, exact_e: np.ndarray) -> np.ndarray:
        """dL/de for each row of a (B, N) expectation matrix, or for an (N,) vector."""
        x_tilde = relax(exact_e, self.alpha)
        gx = relaxed_loss_gradient(x_tilde, self.beta)
        return gx * self.alpha * (1.0 - x_tilde**2)


class _Adam:
    """Adam on an angle array of any shape; the update is elementwise, so
    each row of a (B, P) array moves as it would alone."""

    def __init__(self, shape, step: float, b1=0.9, b2=0.999, eps=1e-8):
        self.step = step
        self.b1, self.b2, self.eps = b1, b2, eps
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0

    def update(self, theta: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = self.b1 * self.m + (1 - self.b1) * grad
        self.v = self.b2 * self.v + (1 - self.b2) * grad**2
        m_hat = self.m / (1 - self.b1**self.t)
        v_hat = self.v / (1 - self.b2**self.t)
        return theta - self.step * m_hat / (np.sqrt(v_hat) + self.eps)


class _Sgd:
    def __init__(self, shape, step: float):
        self.step = step

    def update(self, theta: np.ndarray, grad: np.ndarray) -> np.ndarray:
        return theta - self.step * grad


def _make_optimizer(config: PceConfig, shape):
    if config.optimizer == "adam":
        return _Adam(shape, config.step_size)
    return _Sgd(shape, config.step_size)


def _sample_pauli_set(
    config: PceConfig, count: int, rng: np.random.Generator
) -> list[PauliString]:
    """Draw a correlator set and return its strings in random positions.

    The growth procedures return strict-relation strings first; leaving
    them clustered at the low sequence positions measurably slows the
    search, so the assignment is permuted.
    """
    if config.pauli_mode == "anticommuting":
        drawn = sample_anticommuting_set(config.n_qubits, count, rng)
    else:
        drawn = sample_commuting_set(config.n_qubits, count, rng)
    return [drawn.paulis[i] for i in rng.permutation(count)]


class EvalCounter:
    """The evaluation axis of one run: evaluations spent against an
    optional budget, the best sequence so far, and the first crossing of
    each reference level.

    Every solver builds one and hands it to its loops; the warm start
    passes the same one through every phase.  It bills every evaluation:
    ``tick`` one step at a time, ``observe_run`` a run of them.
    """

    def __init__(self, n: int, references: EnergyReferences | None, budget: int | None = None):
        self.n = n
        self.references = references
        self.budget = budget  # None: no budget
        self.evals = 0
        self.best_energy: int | None = None
        self.best_sequence: np.ndarray | None = None
        self.evals_to_exact: int | None = None
        self.evals_to_first: int | None = None
        self.evals_to_second: int | None = None
        self._limit = math.inf  # limit(), kept up to date by observe

    def tick(self, cost: int = 1) -> int:
        """Spend ``cost`` evaluations; returns the 1-based index of the
        last one."""
        self.evals += cost
        return self.evals

    @property
    def exhausted(self) -> bool:
        return self.budget is not None and self.evals >= self.budget

    @property
    def done(self) -> bool:
        return self.exhausted or self.evals_to_exact is not None

    def limit(self) -> float:
        """The largest energy whose observation could change any recorded
        state (improve the best or trigger a counter); infinite before the
        first observation, when every energy could.

        Observing can only lower it: the best energy falls and reference
        levels retire once they fire.  ``observe`` keeps a copy for
        ``observe_run``; this computes it from the fields.
        """
        if self.best_energy is None:
            return math.inf
        limit = self.best_energy - 1
        if self.references is not None:
            fired = (self.evals_to_exact, self.evals_to_first, self.evals_to_second)
            for level, hit in zip(self.references, fired):
                if hit is None and level is not None and level > limit:
                    limit = level
        return limit

    def observe_run(self, energies: np.ndarray, lowest, sequence_at, base: int = 0) -> bool:
        """Bill a run of consecutive evaluations in index order, up to the
        budget; True when it must stop at the exact level or the budget.

        Entry i is ``base + energies[i]`` (a tabu move passes deltas and
        its energy).  Only entries at or below the limit, read again after
        each observation, are observed, with ``sequence_at(i)`` building
        entry i's sequence; none, and no array, when ``lowest``, the least
        entry, is above it.  An exact crossing leaves ``evals`` there.
        """
        start, size = self.evals, len(energies)
        count = size if self.budget is None else min(size, self.budget - start)
        limit = self._limit
        if lowest <= limit:
            # The limit only falls while entries are observed, so every entry
            # that can fire is among these.
            for i in (energies[:count] <= limit - base).nonzero()[0].tolist():
                energy = base + int(energies[i])
                if energy <= limit:
                    if self.observe(sequence_at(i), energy, start + i + 1):
                        self.evals = start + i + 1
                        return True
                    limit = self._limit
        self.evals = start + count
        return count < size

    def observe(self, sequence: np.ndarray, energy: int, eval_index: int) -> bool:
        """Record one decoded sequence; True once the exact level is hit."""
        if energy <= self._limit:  # above it nothing changes
            if self.best_energy is None or energy < self.best_energy:
                self.best_energy = energy
                self.best_sequence = sequence.copy()
            refs = self.references
            if refs is not None:
                if refs.second is not None and self.evals_to_second is None:
                    if energy <= refs.second:
                        self.evals_to_second = eval_index
                if refs.first is not None and self.evals_to_first is None:
                    if energy <= refs.first:
                        self.evals_to_first = eval_index
                if self.evals_to_exact is None and energy <= refs.exact:
                    self.evals_to_exact = eval_index
            self._limit = self.limit()
        return self.evals_to_exact is not None

    def result(self, solver: str, seed: int, restarts_used: int) -> SolveResult:
        """The run's outcome, with the best sequence in canonical form."""
        if self.best_sequence is None:
            raise RuntimeError("no evaluations performed; increase the budget")
        return SolveResult(
            solver=solver,
            n=self.n,
            seed=seed,
            best_sequence=canonicalize(self.best_sequence),
            best_energy=self.best_energy,
            merit_factor=self.n * self.n / (2.0 * self.best_energy),
            total_evals=self.evals,
            restarts_used=restarts_used,
            evals_to_exact=self.evals_to_exact,
            evals_to_first=self.evals_to_first,
            evals_to_second=self.evals_to_second,
        )


def solve(
    N: int,
    config: PceConfig,
    references: EnergyReferences | None = None,
) -> SolveResult:
    """Run the variational solver until the exact level or the restart cap.

    Each restart draws a fresh Pauli set and fresh uniform angles in
    [-pi, pi), then descends the relaxed loss.  After every counted loss
    evaluation the expectations are decoded and scored; counters record
    the first eval index at which each reference level was met.  Without
    references the solver runs its full budget and reports the best
    sequence seen.  Identical (N, config) pairs give identical results.

    With exact expectations a restart draws nothing after its first
    evaluation, so on the numpy engine restarts run in lockstep, in
    batches of 2, 4, ..., LOCKSTEP_ROWS drawn in order (fewer once the
    batch would pass LOCKSTEP_AMPLITUDES), and are observed restart by
    restart afterwards: the result does not depend on the batch size.
    With shots, under a budget, or on the numba engine, whose kernels
    have no per-gate overhead to share, batches hold one restart.
    """
    if N < 3:
        raise ValueError("sequence length must be >= 3")
    counter = EvalCounter(N, references)
    restarts_used = _descend(N, config, counter)
    return counter.result("pce", config.seed, restarts_used)


def _descend(N: int, config: PceConfig, counter: EvalCounter) -> int:
    """The restart loop of ``solve``, observing into ``counter`` from its
    current evaluation count on; returns the restarts used.

    Every step costs each restart 1 evaluation, plus the 2P circuits of a
    parameter-shift pass when it takes a gradient and
    ``count_gradient_evals`` is set.  Under a budget the run ends, without
    a gradient, on the evaluation after which a further step would not
    fit.
    """
    rng = np.random.default_rng(config.seed)
    spec = config.ansatz()
    iters = config.iters_per_restart
    gradient_cost = 2 * spec.param_count if config.count_gradient_evals else 0
    budget = counter.budget
    lockstep = config.shots == 0 and budget is None and resolve_engine() == "numpy"
    most = min(LOCKSTEP_ROWS, max(1, LOCKSTEP_AMPLITUDES >> spec.n)) if lockstep else 1
    restarts_used = 0
    rows = 1
    while restarts_used < config.restart_cap:
        rows = min(2 * rows, most)
        batch = min(rows, config.restart_cap - restarts_used)
        pauli_sets, thetas = [], []
        for _ in range(batch):
            pauli_sets.append(_sample_pauli_set(config, N, rng))
            thetas.append(rng.uniform(-math.pi, math.pi, spec.param_count))
        ctx = LossContext(
            spec,
            pauli_sets,
            alpha=config.resolved_alpha(),
            beta=config.beta,
            shots=config.shots,
            rng=rng,
        )
        thetas = np.array(thetas)
        optimizer = _make_optimizer(config, thetas.shape)
        trail = []  # (energies, sequences, cost) of the batch, per step
        # The initial angles are evaluated and decoded too, so a restart
        # costs iters_per_restart + 1 loss evaluations.
        for it in range(iters + 1):
            last = budget is not None and counter.evals + 1 + gradient_cost >= budget
            e, grad = ctx.step(thetas, gradient=it < iters and not last)
            cost = 1 if grad is None else 1 + gradient_cost
            sequences = decode(e)
            energies = sidelobe_energy(sequences)
            trail.append((energies, sequences, cost))
            # The batch's first restart comes first in the count, so it is
            # observed as it runs and the exact level stops it at once.
            if counter.observe(sequences[0], energies[0], counter.tick(cost)) or last:
                return restarts_used + 1
            if grad is not None:
                thetas = optimizer.update(thetas, grad)
        # The others follow it restart by restart, billed as they replay.
        for k in range(1, batch):
            for energies, sequences, cost in trail:
                if counter.observe(sequences[k], energies[k], counter.tick(cost)):
                    return restarts_used + k + 1
        restarts_used += batch
    return restarts_used
