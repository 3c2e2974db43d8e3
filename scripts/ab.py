"""Compare two pcelabs trees on one perfbench workload inside one process.

Run from the root of a checkout:

    python3 scripts/ab.py --parent ../other/src --workload tabu --rounds 30

Both ``pcelabs`` packages, this checkout's ``src`` and ``--parent`` (the
``src`` directory of another checkout), are imported into this process:
each is imported with its directory first on the path, and the modules
it leaves in ``sys.modules`` are kept aside and put back before each of
its rounds.  ``perfbench/worker.py`` is imported once per tree, so the
workload's ``*_ops`` call that tree; the file is read, never changed.

A round calls every op of the workload once, as one perfbench round
does.  Rounds of the two trees interleave, and the tree that goes first
alternates.  Every round must give the same records on both trees.  The
last line printed is one JSON object: the change/parent ratio of the
median round walls, the median of the per-round ratios with a seeded
bootstrap interval, and the rounds each side won.  The exit code is 1
if any records differed.
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
WORKLOADS = ("pce", "tabu", "memetic", "exact")
BOOTSTRAP = 2000


def _package_names() -> list[str]:
    return [name for name in sys.modules if name == "pcelabs" or name.startswith("pcelabs.")]


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
        }[workload]()
        worker.warm_up(workload, seed)

    def activate(self) -> None:
        for module in _package_names():
            del sys.modules[module]
        sys.modules.update(self.modules)

    def round(self) -> tuple[float, list[str]]:
        """One call of every op: the wall time and the records as JSON."""
        self.activate()
        started = time.perf_counter()
        results = [op.run() for op in self.ops]
        wall = time.perf_counter() - started
        records = [
            json.dumps(self.worker.record_of(op, i, result).to_dict(), sort_keys=True)
            for i, (op, result) in enumerate(zip(self.ops, results))
        ]
        return wall, records


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
    walls: dict[str, list[float]] = {tree.name: [] for tree in trees}
    differing = 0
    for r in range(args.rounds):
        done = {}
        for tree in trees if r % 2 == 0 else trees[::-1]:
            wall, records = tree.round()
            walls[tree.name].append(wall)
            done[tree.name] = records
        same = done["change"] == done["parent"]
        differing += not same
        print(
            f"round {r}: change {walls['change'][-1]:.4f} s, parent {walls['parent'][-1]:.4f} s"
            + ("" if same else ", records differ"),
            file=sys.stderr,
        )

    change, parent = walls["change"], walls["parent"]
    # A round's two runs are next to each other in time, so their ratio
    # cancels the host's drift across rounds.
    round_ratios = np.array(change) / np.array(parent)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": args.rounds,
        "change_median_s": statistics.median(change),
        "parent_median_s": statistics.median(parent),
        "ratio": statistics.median(change) / statistics.median(parent),
        "round_ratio": float(np.median(round_ratios)),
        "round_ratio_interval": bootstrap_median(round_ratios, args.seed),
        "change_won": sum(c < p for c, p in zip(change, parent)),
        "parent_won": sum(p < c for c, p in zip(change, parent)),
        "records_identical": differing == 0,
    }
    print(json.dumps(summary))
    return 0 if differing == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
