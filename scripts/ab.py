"""Compare two pcelabs trees on one workload inside one process.

Run from the root of a checkout:

    python3 scripts/ab.py --parent ../other/src --workload tabu --rounds 30

Both ``pcelabs`` packages, this checkout's ``src`` and ``--parent`` (the
``src`` directory of another checkout), are imported into this process:
each is imported with its directory first on the path, and the modules
it leaves in ``sys.modules`` are kept aside and put back before each of
its rounds.  ``perfbench/worker.py`` is imported once per tree, so the
workload's ``*_ops`` call that tree; the file is read, never changed.

A round calls every op of the workload once, as one perfbench round
does, then checks each result with the op's own check, untimed.  Besides
perfbench's workloads there are:

- ``exact-sizes``: one ``exact_solve(N, 3)`` for each N of
  ``EXACT_SIZES``, billed and recorded as the worker's ``exact`` op; its
  levels must be the packaged table's, and where perfbench knows the
  published optimum it passes the worker's checks too.
- ``slice``: one lockstep PCE solve at N = 20, 32 restarts of 200
  iterations, without references.
- ``campaign`` and ``tabu_campaign``: one op per run, through
  ``bench._run_one``, for the first runs at each N of the reduced PCE and
  tabu campaigns that ``CAMPAIGNS`` names, with reference levels.

These three check their records against the packaged table: no energy
below the optimum, and ``tts`` set exactly when a run with references
reached it.  Rounds of the two trees interleave, and the tree that goes
first alternates.  Every round must give the same records on both trees.
The last line printed is one JSON object: the change/parent ratio of the
median round walls, the median of the per-round ratios with a seeded
bootstrap interval and per op, the rounds each side won and the failed
checks.  The exit code is 1 if any records differed or any check failed.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import sys
import time
from pathlib import Path

# One BLAS thread, as perfbench's workers run; numpy reads these on import.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
# Each workload and the perfbench workload whose warm-up it runs.
WORKLOADS = {
    "pce": "pce",
    "tabu": "tabu",
    "memetic": "memetic",
    "exact": "exact",
    "exact-sizes": "exact",
    "slice": "pce",
    "campaign": "pce",
    "tabu_campaign": "tabu",
}
EXACT_SIZES = (24, 26, 28)
SLICE_N, SLICE = 20, {"restart_cap": 32, "iters_per_restart": 200, "seed": 0}
CAMPAIGNS = {  # workload: (config, runs per N)
    "campaign": (ROOT / "configs" / "reduced_pce.json", {13: 20, 20: 6}),
    "tabu_campaign": (ROOT / "configs" / "reduced_tabu.json", {20: 20, 28: 10}),
}
BOOTSTRAP = 2000


def _package_names() -> list[str]:
    return [name for name in sys.modules if name == "pcelabs" or name.startswith("pcelabs.")]


def exact_size_ops(worker) -> list:
    """The ``exact-sizes`` ops, built from one tree's copy of the worker."""
    levels = worker.EXACT_LEVELS

    def check(result, n: int) -> list[str]:
        table = worker.bench.reference_levels(n)[:levels]
        problems = [] if result.level_energies == table else [f"levels differ from the packaged {table}"]
        if n in worker.checks.PUBLISHED_OPTIMA:
            problems += worker.checks.check_exact(result, n, levels)
        return problems

    return [
        worker.Op(
            f"exact N={n}",
            lambda n=n: worker.baselines.exact_solve(n, levels),
            1 << (n - 1),
            lambda r, n=n: check(r, n),
            {"levels": levels},
        )
        for n in EXACT_SIZES
    ]


def table_check(worker, record, referenced: bool = True) -> list[str]:
    """A record's problems against the packaged table: an energy below the
    optimum, or ``tts`` set other than exactly when a run with references
    reached the optimum."""
    optimum = worker.bench.reference_levels(record.n)[0]
    problems = [] if record.best_energy >= optimum else [f"energy below the optimum {optimum}"]
    if (record.tts is not None) != (referenced and record.best_energy == optimum):
        problems.append(f"tts {record.tts} at energy {record.best_energy}, optimum {optimum}")
    return problems


def slice_ops(worker) -> list:
    """The ``slice`` op, built from one tree's copy of the worker; it
    returns its run's record."""
    config = worker.pce_solver.PceConfig(**SLICE)

    def run():
        result = worker.pce_solver.solve(SLICE_N, config)
        return worker.bench.RunRecord.from_solve_result(result, 0, SLICE)

    return [worker.Op(f"slice N={SLICE_N}", run, 0, lambda r: table_check(worker, r, False), SLICE)]


def campaign_ops(worker, path: Path, runs: dict) -> list:
    """One op per campaign run, the first ``runs[N]`` at each N of the
    config at ``path``, built from one tree's copy of the worker."""
    config = worker.bench.CampaignConfig.from_dict(json.loads(path.read_text()))
    return [
        worker.Op(
            f"{config.solver} N={n} run {i}",
            lambda n=n, i=i: worker.bench._run_one(config, n, i),
            0,
            lambda r: table_check(worker, r),
            {},
        )
        for n, count in runs.items()
        for i in range(count)
    ]


class Tree:
    """One ``pcelabs`` tree, its modules and its copy of perfbench's worker."""

    def __init__(self, name: str, src: Path, workload: str, seed: int):
        if not (src / "pcelabs" / "__init__.py").is_file():
            raise SystemExit(f"no pcelabs package under {src}")
        self.name = name
        for module in _package_names():
            del sys.modules[module]
        sys.path.insert(0, str(src))
        try:
            spec = importlib.util.spec_from_file_location(f"worker_{name}", PERFBENCH / "worker.py")
            self.worker = importlib.util.module_from_spec(spec)
            sys.modules[spec.name] = self.worker  # dataclasses look their module up
            spec.loader.exec_module(self.worker)
        finally:
            sys.path.remove(str(src))
        self.modules = {module: sys.modules[module] for module in _package_names()}
        origin = Path(self.modules["pcelabs"].__file__).resolve().parent
        if origin != (src / "pcelabs").resolve():
            raise SystemExit(f"{name}: imported pcelabs from {origin}, not {src}")
        worker = self.worker
        self.ops = {
            "pce": lambda: worker.pce_ops(seed, worker.resolved_engine()),
            "tabu": lambda: worker.tabu_ops(seed),
            "memetic": lambda: worker.memetic_ops(seed),
            "exact": lambda: worker.exact_ops(seed),
            "exact-sizes": lambda: exact_size_ops(worker),
            "slice": lambda: slice_ops(worker),
            "campaign": lambda: campaign_ops(worker, *CAMPAIGNS["campaign"]),
            "tabu_campaign": lambda: campaign_ops(worker, *CAMPAIGNS["tabu_campaign"]),
        }[workload]()
        worker.warm_up(WORKLOADS[workload], seed)

    def activate(self) -> None:
        for module in _package_names():
            del sys.modules[module]
        sys.modules.update(self.modules)

    def round(self) -> tuple[list[float], list[str], list[str]]:
        """One call of every op: the ops' wall times, the records as JSON
        and the problems the ops' checks found."""
        self.activate()
        results, walls = [], []
        for op in self.ops:
            started = time.perf_counter()
            results.append(op.run())
            walls.append(time.perf_counter() - started)
        records = [
            result if isinstance(result, self.worker.bench.RunRecord) else self.worker.record_of(op, i, result)
            for i, (op, result) in enumerate(zip(self.ops, results))
        ]
        records = [json.dumps(record.to_dict(), sort_keys=True) for record in records]
        problems = [f"{self.name} {op.label}: {p}" for op, r in zip(self.ops, results) for p in op.check(r)]
        return walls, records, problems


def bootstrap_median(values: np.ndarray, seed: int) -> list[float]:
    """2.5% and 97.5% points of the median over resampled rounds."""
    picks = np.random.default_rng(seed).integers(values.size, size=(BOOTSTRAP, values.size))
    return np.percentile(np.median(values[picks], axis=1), [2.5, 97.5]).tolist()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="src directory of the other checkout")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")

    sys.path.insert(0, str(PERFBENCH))  # worker.py imports checks and tracing
    trees = [
        Tree("change", ROOT / "src", args.workload, args.seed),
        Tree("parent", args.parent.resolve(), args.workload, args.seed),
    ]
    op_walls: dict[str, list[list[float]]] = {tree.name: [] for tree in trees}  # per round, per op
    differing = failed = 0
    for r in range(args.rounds):
        done = {}
        for tree in trees if r % 2 == 0 else trees[::-1]:
            walls, records, problems = tree.round()
            op_walls[tree.name].append(walls)
            done[tree.name] = records
            failed += len(problems)
            for problem in problems:
                print(f"round {r} {problem}", file=sys.stderr)
        same = done["change"] == done["parent"]
        differing += not same
        print(
            f"round {r}: change {sum(op_walls['change'][-1]):.4f} s, "
            f"parent {sum(op_walls['parent'][-1]):.4f} s"
            + ("" if same else ", records differ"),
            file=sys.stderr,
        )

    change, parent = (np.array(op_walls[name]).sum(axis=1).tolist() for name in ("change", "parent"))
    # A round's two runs are next to each other in time, so their ratio
    # cancels the host's drift across rounds.
    round_ratios = np.array(change) / np.array(parent)
    op_ratios = np.median(np.array(op_walls["change"]) / np.array(op_walls["parent"]), axis=0)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": args.rounds,
        "change_median_s": statistics.median(change),
        "parent_median_s": statistics.median(parent),
        "ratio": statistics.median(change) / statistics.median(parent),
        "round_ratio": float(np.median(round_ratios)),
        "round_ratio_interval": bootstrap_median(round_ratios, args.seed),
        "op_round_ratios": dict(zip((op.label for op in trees[0].ops), op_ratios.tolist())),
        "change_won": sum(c < p for c, p in zip(change, parent)),
        "parent_won": sum(p < c for c, p in zip(change, parent)),
        "records_identical": differing == 0,
        "failed_checks": failed,
    }
    print(json.dumps(summary))
    return 0 if differing == 0 and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
