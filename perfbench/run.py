"""Fixed-work benchmark of the pcelabs solvers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pce --seed 1 --seconds 12 --trace 0

Each workload runs in its own single-threaded worker process (see
``worker.py``).  With ``--trace 0`` two extra workers measure set-up only,
and the end-to-end metrics are printed; with ``--trace 1`` one worker
alternates untraced and traced rounds and the per-layer metrics are
printed.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pce", "tabu", "memetic", "exact")
SETUP_PROBES = 2
# A run must end within 180 s; the worker gets what the probes left.
RUN_LIMIT_S = 170.0

UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "evals_per_s": "evals/s",
    "peak_rss_mb": "MiB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_calls") or name in ("state_sim.evolve_rows", "baselines.memetic_generations"):
        return "count"
    return {
        "state_sim.rows_per_eval": "rows/eval",
        "baselines.observe_per_probe": "seqs/probe",
        "baselines.exact_bytes_computed": "B",
        "trace.overhead": "ratio",
        "trace.accounted": "ratio",
    }[name]


def worker(args, mode: str, timeout: float) -> dict:
    """Run one worker process to its end and return its JSON line."""
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--mode", mode,
        "--out", str(HERE / "out"),
        "--t0", repr(time.monotonic()),
    ]
    # subprocess.run kills the worker and waits for it on timeout.
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "pcelabs" / "__init__.py").is_file():
        print(f"no pcelabs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    try:
        setups = []
        if not args.trace:
            setups = [worker(args, "setup", 60.0)["setup_s"] for _ in range(SETUP_PROBES)]
        left = RUN_LIMIT_S - (time.monotonic() - started)
        out = worker(args, "run", left)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1

    metrics = out["metrics"]
    if args.trace:
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics["setup_s"] = statistics.median(setups + [metrics["setup_s"]])
        units = UNITS
    print(json.dumps({"env": out["env"], "round_walls": out["round_walls"]}), file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": out["correct"],
                "attempted": out["attempted"],
                "failed": out["failed"],
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
