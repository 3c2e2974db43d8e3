"""Campaign running, scaling fits, and resource estimates.

A campaign runs one solver over a set of sequence lengths, many seeded
runs per length, and records the evaluation counts at which each run
first reached the exact, first-excited, and second-excited reference
energies.  Fitting TTS = c * b^N by least squares on ln(TTS) then gives
the scaling base b; the crossover and shot-budget helpers turn fitted
scalings into hardware-facing estimates.

All randomness flows from one base seed through a stable per-run hash,
so rerunning a campaign reproduces it bit for bit.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import itertools
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache
from importlib import resources
from typing import Iterable, Sequence

import numpy as np

from pcelabs import pce_solver
from pcelabs.pce_solver import EnergyReferences, PceConfig, SolveResult
from pcelabs.baselines import (
    MemeticConfig,
    TabuConfig,
    WarmStartConfig,
    pce_warm_start,
    tabu_search,
)

__all__ = [
    "RunRecord",
    "CampaignConfig",
    "FitResult",
    "KsResult",
    "ShotBudgetQuery",
    "ShotBudget",
    "stable_seed",
    "reference_levels",
    "run_campaign",
    "write_records",
    "read_records",
    "records_to_csv",
    "fit_exponential",
    "ks_two_sample",
    "tune_sweep",
    "shot_bound",
    "crossover",
]

SCHEMA_VERSION = 1


def stable_seed(base_seed: int, n: int, run_index: int) -> int:
    """Deterministic per-run seed, stable across platforms and sessions."""
    key = f"{base_seed}:{n}:{run_index}".encode()
    digest = hashlib.sha256(key).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@lru_cache(maxsize=1)
def _reference_table() -> dict[int, list[int]]:
    text = resources.files("pcelabs").joinpath("data/reference_energies.json").read_text()
    return {int(k): v["levels"] for k, v in json.loads(text).items()}


def reference_levels(n: int) -> list[int]:
    """Reference energy levels for one size: [exact, first, second...].

    Read from the packaged table ``data/reference_energies.json``:
    enumerated levels up to N = 28 and best known optima up to N = 45.
    ``scripts/build_reference_table.py`` writes it.
    """
    table = _reference_table()
    if n not in table:
        raise ValueError(f"no reference energies available for N = {n}")
    return list(table[n])


_COUNT = ((int,), "an integer")
# Solvers write integer counters; synthetic fitting records carry real tts.
_OPTIONAL_NUMBER = ((int, float, type(None)), "a number or null")
# The JSON type each record field must have; true and false count as none.
_FIELD_TYPES = {
    "solver": ((str,), "a string"),
    "n": _COUNT,
    "run_index": _COUNT,
    "seed": _COUNT,
    "best_energy": _COUNT,
    "total_evals": _COUNT,
    "tts": _OPTIONAL_NUMBER,
    "tts_1st": _OPTIONAL_NUMBER,
    "tts_2nd": _OPTIONAL_NUMBER,
    "wall_time": _OPTIONAL_NUMBER,
    "config": ((dict,), "an object"),
}


@dataclass
class RunRecord:
    """One campaign run: counters, outcome, and the config that made it."""

    solver: str
    n: int
    run_index: int
    seed: int
    best_energy: int
    total_evals: int
    tts: int | None = None
    tts_1st: int | None = None
    tts_2nd: int | None = None
    wall_time: float | None = None
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        doc = {"schema_version": SCHEMA_VERSION}
        doc.update(asdict(self))
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "RunRecord":
        if not isinstance(doc, dict):
            raise TypeError(f"expected a JSON object, got {type(doc).__name__}")
        doc = {k: v for k, v in doc.items() if k != "schema_version"}
        record = cls(**doc)
        for name, (kinds, expected) in _FIELD_TYPES.items():
            value = getattr(record, name)
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise ValueError(f"field {name!r} must be {expected}, got {value!r}")
        return record

    @classmethod
    def from_solve_result(
        cls,
        result: SolveResult,
        run_index: int,
        config: dict,
        wall_time: float | None = None,
    ) -> "RunRecord":
        return cls(
            solver=result.solver,
            n=result.n,
            run_index=run_index,
            seed=result.seed,
            best_energy=result.best_energy,
            total_evals=result.total_evals,
            tts=result.evals_to_exact,
            tts_1st=result.evals_to_first,
            tts_2nd=result.evals_to_second,
            wall_time=wall_time,
            config=config,
        )


# The solver settings sections each campaign solver reads.
_SECTIONS = {"pce": ("pce",), "tabu": ("tabu",), "warm": ("pce", "memetic", "warm")}


@dataclass
class CampaignConfig:
    """Everything a campaign needs, loadable from one JSON document.

    ``per_size`` holds solver-setting overrides keyed by N (budgets grow
    with the instance).  ``references`` can pin explicit energy levels;
    sizes without an entry fall back to ``reference_levels``.  Timing is
    off by default so record files stay byte-identical across reruns.
    """

    solver: str
    sizes: tuple[int, ...]
    runs_per_size: int
    base_seed: int = 0
    pce: dict = field(default_factory=dict)
    tabu: dict = field(default_factory=dict)
    memetic: dict = field(default_factory=dict)
    warm: dict = field(default_factory=dict)
    per_size: dict = field(default_factory=dict)
    references: dict = field(default_factory=dict)
    timing: bool = False

    def __post_init__(self):
        if self.solver not in _SECTIONS:
            raise ValueError(f"unknown solver {self.solver!r}")
        self.sizes = tuple(int(n) for n in self.sizes)
        if not self.sizes:
            raise ValueError("campaign needs at least one size")
        if self.runs_per_size < 1:
            raise ValueError("runs_per_size must be >= 1")
        self.per_size = {int(k): dict(v) for k, v in self.per_size.items()}
        self.references = {int(k): list(v) for k, v in self.references.items()}
        # Settings no run would read are a mistake in the document.
        stray = sorted(set(self.per_size) - set(self.sizes))
        if stray:
            raise ValueError(f"per_size has sizes the campaign does not run: {stray}")
        for section in dict.fromkeys(itertools.chain(*_SECTIONS.values())):
            if getattr(self, section) and section not in _SECTIONS[self.solver]:
                raise ValueError(f"a {self.solver} campaign does not use {section} settings")
        # Bad settings for any size fail here, before a run starts.
        for n in self.sizes:
            try:
                settings = self.solver_settings(n, self.base_seed)
                if self.solver != "pce":
                    (settings if self.solver == "tabu" else settings[1]).resolved_tenure(n)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{self.solver} settings for N = {n}: {exc}") from None

    @classmethod
    def from_dict(cls, doc: dict) -> "CampaignConfig":
        try:
            return cls(**doc)
        except TypeError as exc:
            raise ValueError(f"campaign config: {exc}") from None

    def levels_for(self, n: int) -> list[int]:
        if n in self.references:
            return list(self.references[n])
        return reference_levels(n)

    def solver_settings(self, n: int, seed: int):
        override = self.per_size.get(n, {})
        if self.solver == "pce":
            return PceConfig(**{**self.pce, **override, "seed": seed})
        if self.solver == "tabu":
            return TabuConfig(**{**self.tabu, **override, "seed": seed})
        pce = PceConfig(**{**self.pce, "seed": seed})
        memetic = MemeticConfig(**{**self.memetic, **override, "seed": seed})
        warm = WarmStartConfig(**self.warm)
        return pce, memetic, warm


def _pce_echo(settings: PceConfig) -> dict:
    """PCE settings as a record echoes them, naming the engine that ran."""
    return {**asdict(settings), "engine": pce_solver.resolve_engine()}


def _run_one(config: CampaignConfig, n: int, run_index: int) -> RunRecord:
    seed = stable_seed(config.base_seed, n, run_index)
    levels = config.levels_for(n)
    references = EnergyReferences.from_levels(levels)
    settings = config.solver_settings(n, seed)
    started = time.perf_counter() if config.timing else None
    if config.solver == "pce":
        result = pce_solver.solve(n, settings, references)
        echo = _pce_echo(settings)
    elif config.solver == "tabu":
        result = tabu_search(n, settings, references)
        echo = asdict(settings)
    else:
        pce, memetic, warm = settings
        result = pce_warm_start(n, pce, memetic, references, warm)
        echo = {"pce": _pce_echo(pce), "memetic": asdict(memetic), "warm": asdict(warm)}
    wall = time.perf_counter() - started if started is not None else None
    if result.best_energy < references.exact:
        raise RuntimeError(
            f"run N={n} found energy {result.best_energy} below the reference "
            f"{references.exact}; the reference table is wrong"
        )
    return RunRecord.from_solve_result(result, run_index, echo, wall)


def run_campaign(
    config: CampaignConfig,
    workers: int = 1,
    progress=None,
) -> list[RunRecord]:
    """Run the full grid of (size, run_index) jobs in deterministic order.

    Reference energies for every size are resolved before any run
    starts, so a size without references refuses the whole campaign.
    Results come back ordered by (N, run_index) regardless of worker
    scheduling; per-run seeds depend only on (base_seed, N, run_index).
    """
    config = replace(config, references={n: config.levels_for(n) for n in config.sizes})
    sizes, runs = zip(*((n, r) for n in config.sizes for r in range(config.runs_per_size)))
    records: list[RunRecord] = []
    # Both maps yield in (N, run_index) order and raise at the first failed run.
    with ProcessPoolExecutor(workers) if workers > 1 else contextlib.nullcontext() as pool:
        for record in (pool.map if pool else map)(_run_one, itertools.repeat(config), sizes, runs):
            records.append(record)
            if progress is not None:
                progress(record)
    return records


def write_records(records: Iterable[RunRecord], path) -> None:
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record.to_dict()) + "\n")


def read_records(path) -> list[RunRecord]:
    records = []
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            if line.strip():
                try:
                    records.append(RunRecord.from_dict(json.loads(line)))
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"{path} line {number}: not a run record: {exc}") from None
    return records


_TARGET_FIELD = {"exact": "tts", "first": "tts_1st", "second": "tts_2nd"}


def records_to_csv(records: Iterable[RunRecord], path, target: str = "exact") -> None:
    field_name = _TARGET_FIELD[target]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["N", "tts", "solver", "seed", "target"])
        for record in records:
            value = getattr(record, field_name)
            if value is not None:
                writer.writerow([record.n, value, record.solver, record.seed, target])


@dataclass
class FitResult:
    """Exponential scaling fit TTS = c * b^N on a natural-log scale."""

    b: float
    c: float
    ci_b: tuple[float, float]
    ci_c: tuple[float, float]
    r2: float
    mode: str
    parity: str
    target: str
    points: list[tuple[float, float]]
    censored: int

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "b": self.b,
            "c": self.c,
            "ci_b": list(self.ci_b),
            "ci_c": list(self.ci_c),
            "r2": self.r2,
            "mode": self.mode,
            "parity": self.parity,
            "target": self.target,
            "log_base": "natural",
            "points": [list(p) for p in self.points],
            "censored": self.censored,
        }


def _parity_label(sizes: Iterable[int]) -> str:
    sizes = set(sizes)
    if all(n % 2 == 0 for n in sizes):
        return "even"
    if all(n % 2 == 1 for n in sizes):
        return "odd"
    return "all"


def fit_exponential(
    records: Sequence[RunRecord],
    mode: str = "median",
    target: str = "exact",
    parity: str = "all",
) -> FitResult:
    """Least squares of ln(TTS) against N.

    Median mode regresses one point per size (the median TTS of its
    successful runs); ensemble mode regresses every successful run.
    Runs without the requested counter are censored: excluded from the
    fit and reported in the result.  ``parity`` restricts the fit to
    even or odd sizes; even and odd instances scale differently enough
    that mixing them inflates the residuals.
    """
    if mode not in ("median", "ensemble"):
        raise ValueError(f"unknown mode {mode!r}")
    if parity not in ("all", "even", "odd"):
        raise ValueError(f"unknown parity {parity!r}")
    field_name = _TARGET_FIELD[target]
    keep = {"all": (0, 1), "even": (0,), "odd": (1,)}[parity]
    by_size: dict[int, list[int]] = {}
    censored = 0
    for record in records:
        if record.n % 2 not in keep:
            continue
        value = getattr(record, field_name)
        if value is None:
            censored += 1
        else:
            by_size.setdefault(record.n, []).append(value)
    if len(by_size) < 3:
        raise ValueError(
            f"need >= 3 distinct sizes with a successful run, got {len(by_size)}"
        )
    if mode == "median":
        points = [(float(n), float(np.median(v))) for n, v in sorted(by_size.items())]
    else:
        points = [
            (float(n), float(v))
            for n in sorted(by_size)
            for v in by_size[n]
        ]
    xs = np.array([p[0] for p in points])
    ys = np.log([p[1] for p in points])
    slope, intercept, se_slope, se_intercept, r2 = _ols_line(xs, ys)
    dof = max(xs.size - 2, 1)
    # scipy loads here, not at import: the solvers never need it
    from scipy.special import stdtrit

    tcrit = float(stdtrit(dof, 0.975))
    return FitResult(
        b=math.exp(slope),
        c=math.exp(intercept),
        ci_b=(math.exp(slope - tcrit * se_slope), math.exp(slope + tcrit * se_slope)),
        ci_c=(
            math.exp(intercept - tcrit * se_intercept),
            math.exp(intercept + tcrit * se_intercept),
        ),
        r2=r2,
        mode=mode,
        parity=_parity_label(by_size),
        target=target,
        points=points,
        censored=censored,
    )


def _ols_line(xs: np.ndarray, ys: np.ndarray):
    n = xs.size
    x_mean = xs.mean()
    y_mean = ys.mean()
    sxx = float(np.sum((xs - x_mean) ** 2))
    if sxx == 0.0:
        raise ValueError("all sizes identical; cannot fit a slope")
    slope = float(np.sum((xs - x_mean) * (ys - y_mean)) / sxx)
    intercept = y_mean - slope * x_mean
    residuals = ys - (intercept + slope * xs)
    ssr = float(np.sum(residuals**2))
    sst = float(np.sum((ys - y_mean) ** 2))
    r2 = 1.0 if sst == 0.0 else 1.0 - ssr / sst
    sigma2 = ssr / max(n - 2, 1)
    se_slope = math.sqrt(sigma2 / sxx)
    se_intercept = math.sqrt(sigma2 * (1.0 / n + x_mean**2 / sxx))
    return slope, intercept, se_slope, se_intercept, r2


@dataclass
class KsResult:
    d: float
    p: float

    def to_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, "d": self.d, "p": self.p}


def ks_two_sample(a: Sequence[float], b: Sequence[float]) -> KsResult:
    """Two-sample Kolmogorov-Smirnov test with the asymptotic p-value.

    D is the supremum distance between empirical CDFs; the p-value is
    Q(sqrt(en) * D) with en = n_a n_b / (n_a + n_b) and Q the Kolmogorov
    tail series 2 * sum_j (-1)^(j-1) exp(-2 j^2 lambda^2).
    """
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be nonempty")
    everything = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, everything, side="right") / a.size
    cdf_b = np.searchsorted(b, everything, side="right") / b.size
    d = float(np.abs(cdf_a - cdf_b).max())
    en = a.size * b.size / (a.size + b.size)
    return KsResult(d=d, p=_kolmogorov_tail(math.sqrt(en) * d))


def _kolmogorov_tail(lam: float) -> float:
    if lam < 1e-10:
        return 1.0
    total = 0.0
    for j in range(1, 101):
        term = 2.0 * (-1.0) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam)
        total += term
        if abs(term) < 1e-16:
            break
    return float(min(max(total, 0.0), 1.0))


def tune_sweep(samples_by_setting, threshold: float = 0.05):
    """Smallest setting whose distribution no larger setting improves on.

    ``samples_by_setting`` maps an orderable setting (depth, alpha, ...)
    to its metric sample.  Returns the first setting s, in ascending
    order, for which every larger setting's sample is KS-indistinct
    (p >= threshold); the largest setting if none qualifies earlier.
    """
    items = sorted(samples_by_setting.items(), key=lambda kv: kv[0])
    if len(items) < 2:
        raise ValueError("need at least 2 settings to compare")
    for idx, (setting, sample) in enumerate(items[:-1]):
        if all(
            ks_two_sample(sample, later_sample).p >= threshold
            for _, later_sample in items[idx + 1 :]
        ):
            return setting
    return items[-1][0]


@dataclass(frozen=True)
class ShotBudgetQuery:
    """Inputs for the measurement-count bound.

    eta is the per-correlator precision implied by a loss precision of
    eps: eta = eps / (2 alpha [N(N-1) + beta]).
    """

    n: int
    alpha: float
    beta: float
    eps: float
    delta: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("N must be positive")
        if self.alpha <= 0 or self.beta < 0:
            raise ValueError("need alpha > 0 and beta >= 0")
        if not 0 < self.eps <= 1 or not 0 < self.delta <= 1:
            raise ValueError("eps and delta must lie in (0, 1]")

    @property
    def eta(self) -> float:
        return self.eps / (2.0 * self.alpha * (self.n * (self.n - 1) + self.beta))


@dataclass
class ShotBudget:
    samples: int
    eta: float
    query: ShotBudgetQuery

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "samples": self.samples,
            "eta": self.eta,
            "query": asdict(self.query),
        }


def shot_bound(query: ShotBudgetQuery) -> ShotBudget:
    """Measurement shots per expectation so the loss error stays below eps.

    S = ceil(8 alpha^2 N^2 [N(N-1) + beta]^2 ln(2N/delta) / eps^2),
    evaluated at 50 decimal digits.  Values within 1e-9 (relative) of an
    integer are snapped before the ceiling so analytically-integer cases
    come out exact instead of one too high.
    """
    import mpmath

    with mpmath.workdps(50):
        n = mpmath.mpf(query.n)
        alpha = mpmath.mpf(query.alpha)
        beta = mpmath.mpf(query.beta)
        eps = mpmath.mpf(query.eps)
        delta = mpmath.mpf(query.delta)
        bracket = n * (n - 1) + beta
        value = 8 * alpha**2 * n**2 * bracket**2 * mpmath.log(2 * n / delta) / eps**2
        nearest = mpmath.nint(value)
        if abs(value - nearest) <= 1e-9 * max(1, abs(nearest)):
            value = nearest
        samples = int(mpmath.ceil(value))
    return ShotBudget(samples=samples, eta=query.eta, query=query)


def _fit_constants(fit) -> tuple[float, float]:
    if isinstance(fit, FitResult):
        return fit.b, fit.c
    if isinstance(fit, dict):
        return float(fit["b"]), float(fit["c"])
    b, c = fit
    return float(b), float(c)


CROSSOVER_RANGE = (3, 10**5)


def crossover(fit_q, fit_c, k: float = 1.0, p: float = 0.0) -> int | None:
    """Smallest N in [3, 1e5] where quantum cost undercuts classical cost.

    Compares c_q * b_q^N * k * N^p against c_c * b_c^N in log space.
    Accepts FitResult objects, {"b": .., "c": ..} dicts, or (b, c)
    pairs.  Returns None when no crossing happens in range.
    """
    b_q, c_q = _fit_constants(fit_q)
    b_c, c_c = _fit_constants(fit_c)
    if min(b_q, c_q, b_c, c_c) <= 0 or k <= 0:
        raise ValueError("scaling constants and overhead must be positive")
    ns = np.arange(CROSSOVER_RANGE[0], CROSSOVER_RANGE[1] + 1, dtype=np.float64)
    lhs = math.log(c_q) + ns * math.log(b_q) + math.log(k) + p * np.log(ns)
    rhs = math.log(c_c) + ns * math.log(b_c)
    hits = np.nonzero(lhs <= rhs)[0]
    if hits.size == 0:
        return None
    return int(ns[hits[0]])
