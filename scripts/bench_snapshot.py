"""Write a committed benchmark snapshot: the environment, every perfbench
workload end to end, and one ``scripts/ab.py`` comparison per part.

Run from the root of a checkout:

    python3 scripts/bench_snapshot.py --out BENCH_snapshot.json --parent ../other/src

The parts are ``ab.py``'s workloads.  ``--part NAME``, given once or
more, runs only those parts; without it every part runs.  A part that is
a perfbench workload runs once as ``perfbench/run.py --trace 0``, for
``correct`` and the absolute metrics.  With ``--parent``, the ``src``
directory of another checkout, every part then runs as ``ab.py --parent
DIR --workload NAME --rounds R``, and its summary line goes into the
snapshot.  The environment block names the resolved engine, numba
availability, versions, CPU count and host.  The exit code is 1 if any
``ab.py`` run exited 1: its trees gave other records or a check failed.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import ab

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ("pce", "tabu", "memetic", "exact")


def run_workload(workload: str, seed: int, seconds: float) -> dict:
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: m["value"] for name, m in out["metrics"].items()},
    }


def run_ab(workload: str, parent: Path, rounds: int, seed: int) -> tuple[int, dict]:
    """``ab.py``'s exit code and summary line; its rounds go to stderr."""
    cmd = [
        sys.executable, str(ROOT / "scripts" / "ab.py"), "--parent", str(parent),
        "--workload", workload, "--rounds", str(rounds), "--seed", str(seed),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode not in (0, 1):
        raise subprocess.CalledProcessError(proc.returncode, cmd, proc.stdout)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    """The engine this checkout resolves, and the host; ``sys.path`` is
    left as it was."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from pcelabs import pce_solver
    finally:
        sys.path.remove(str(ROOT / "src"))

    return {
        "engine": pce_solver.resolve_engine(),
        "numba": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "host": platform.node(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--parent", type=Path, help="src directory of the checkout to compare with")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--rounds", type=int, default=10, help="ab.py rounds per part")
    parser.add_argument("--part", action="append", choices=ab.WORKLOADS, help="a part to run; repeatable")
    args = parser.parse_args(argv)

    doc, code = {"environment": environment(), "perfbench": {}, "ab": {}}, 0
    for part in [p for p in ab.WORKLOADS if p in (args.part or ab.WORKLOADS)]:
        if part in PERFBENCH:
            doc["perfbench"][part] = run_workload(part, args.seed, args.seconds)
            print(f"{part}: {doc['perfbench'][part]['metrics']}", file=sys.stderr)
        if args.parent is not None:
            exit_code, doc["ab"][part] = run_ab(part, args.parent.resolve(), args.rounds, args.seed)
            code = max(code, exit_code)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
