"""Write a committed benchmark snapshot: every perfbench workload end to
end, then four paired-run parts.

Run from the root of a checkout:

    python3 scripts/bench_snapshot.py --out BENCH_snapshot.json --parent ../other/src

``--part NAME``, given once or more, runs only the workloads and parts of
those names (``exact`` names both); without it everything runs.  Each
workload runs once as ``perfbench/run.py --trace 0``.  A part is a
job script and a list of jobs; ``alternate`` runs each job once on every
variant, in fresh single-threaded processes, alternating which goes first.
The variants are this checkout (``checkout``) and, with ``--parent``, the
``src`` directory of another checkout (``parent``).  The parts:

- ``slice``: ``solve`` at N = 20, 32 restarts of 200 iterations, no
  references, ``--repeats`` times; also on this checkout with one restart
  per batch (``one_restart_per_batch``).
- ``campaign``: the first ``CAMPAIGN_RUNS[N]`` runs of
  ``configs/reduced_pce.json`` as the campaign runs them, with reference
  levels.  A row also has the restart that hit, its place in its lockstep
  batch, and the rows evolved (counted at ``LossContext.step``, which both
  engines call once per step): those past ``total_evals`` are discarded.
- ``tabu_campaign``: the first ``TABU_CAMPAIGN_RUNS[N]`` runs of
  ``configs/reduced_tabu.json``, with reference levels.
- ``exact``: ``exact_solve(N)`` at each N in ``EXACT_SIZES``, ``--repeats``
  times.

A part is added as a job script and one more entry in ``main``'s
``parts``.  The environment block names the resolved engine, numba
availability, versions, CPU count and host.  The exit code is 1 if any
variant printed another record or result than this checkout.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("pce", "tabu", "memetic", "exact")
SLICE = {"N": 20, "restart_cap": 32, "iters_per_restart": 200, "seed": 0}
CAMPAIGN = ROOT / "configs" / "reduced_pce.json"
CAMPAIGN_RUNS = {13: 20, 20: 6}
TABU_CAMPAIGN = ROOT / "configs" / "reduced_tabu.json"
TABU_CAMPAIGN_RUNS = {20: 20, 28: 10}
EXACT_SIZES = (24, 26, 28)

# One slice run: prints its wall time and record as one JSON line.
SLICE_RUN = """
import json, sys, time
from pcelabs import pce_solver
slice, rows = json.loads(sys.argv[1]), int(sys.argv[2])
if rows:
    pce_solver.LOCKSTEP_ROWS = rows
config = pce_solver.PceConfig(
    restart_cap=slice["restart_cap"], iters_per_restart=slice["iters_per_restart"], seed=slice["seed"]
)
started = time.perf_counter()
result = pce_solver.solve(slice["N"], config)
wall = time.perf_counter() - started
print(json.dumps({"wall_s": wall, "record": result.to_dict()}))
"""

# One campaign run: prints its wall time, record and the rows it evolved.
# A batch takes iters_per_restart + 1 steps, each with one angle row per
# restart, so every (iters_per_restart + 1)-th count is a batch size.
CAMPAIGN_RUN = """
import json, sys, time
from pcelabs import bench, pce_solver
doc, n, index = json.loads(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
step, solve, rows, results = pce_solver.LossContext.step, pce_solver.solve, [], []
def counted(ctx, thetas, gradient=True):
    rows.append(len(thetas))
    return step(ctx, thetas, gradient)
def kept(*args):
    results.append(solve(*args))
    return results[-1]
pce_solver.LossContext.step, pce_solver.solve = counted, kept
config = bench.CampaignConfig.from_dict({**doc, "timing": False})
started = time.perf_counter()
record = bench._run_one(config, n, index)
wall = time.perf_counter() - started
iters = config.solver_settings(n, record.seed).iters_per_restart
print(json.dumps({
    "wall_s": wall,
    "record": record.to_dict(),
    "restarts_used": results[0].restarts_used,
    "rows_evolved": sum(rows),
    "rows_discarded": sum(rows) - record.total_evals,
    "batch_sizes": rows[:: iters + 1],
}))
"""

# One tabu campaign run: prints its wall time and record.
TABU_CAMPAIGN_RUN = """
import json, sys, time
from pcelabs import bench
doc, n, index = json.loads(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
config = bench.CampaignConfig.from_dict({**doc, "timing": False})
started = time.perf_counter()
record = bench._run_one(config, n, index)
wall = time.perf_counter() - started
print(json.dumps({"wall_s": wall, "record": record.to_dict()}))
"""

# One exhaustive enumeration: prints its wall time and result.
EXACT_RUN = """
import json, sys, time
from pcelabs import baselines
n = int(sys.argv[1])
started = time.perf_counter()
result = baselines.exact_solve(n)
wall = time.perf_counter() - started
print(json.dumps({"wall_s": wall, "result": result.to_dict()}))
"""


def single_thread_env(src: Path) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(src),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


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


def run_job(script: str, src: Path, *args) -> dict:
    """Run ``script`` on ``src`` in a fresh single-threaded process and
    return the JSON line it prints last."""
    cmd = [sys.executable, "-c", script, *map(str, args)]
    proc = subprocess.run(cmd, env=single_thread_env(src), capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_campaign_job(script: str, config: Path, src: Path, n: int, index: int) -> dict:
    return run_job(script, src, config.read_text(), n, index)


def alternate(name: str, script: str, jobs: list, variants: dict, result: str, fields) -> list:
    """Run each job once on every variant, alternating which goes first.

    ``jobs`` holds (key, arguments) pairs and ``variants`` maps a name to
    (src directory, *arguments after the job's).  A row holds the key, the
    ``checkout`` output but its wall time and ``result``, plus ``fields``
    of it, every variant's wall time, and ``identical``: whether every
    variant printed the same ``result``.
    """
    rows = []
    for step, (key, args) in enumerate(jobs):
        order = list(variants) if step % 2 == 0 else list(reversed(variants))
        done = {v: run_job(script, variants[v][0], *args, *variants[v][1:]) for v in order}
        this = done["checkout"]
        identical = all(d[result] == this[result] for d in done.values())
        row = {**key, **{k: x for k, x in this.items() if k not in ("wall_s", result)}}
        row.update(fields(this), identical=identical)
        row.update({f"{v}_wall_s": done[v]["wall_s"] for v in variants})
        rows.append(row)
        print(f"{name} {key}: {row}", file=sys.stderr)
    return rows


def summarize(rows: list[dict], variants: dict) -> dict:
    """Per size, the runs' wall-time totals and medians, evaluations per
    second where the runs count evaluations, and this checkout's speed-ups
    over every other variant: in total, in the median run and run by run."""
    out = {}
    for n in dict.fromkeys(row["N"] for row in rows):
        runs = [row for row in rows if row["N"] == n]
        summary = {"runs": len(runs), "identical": all(run["identical"] for run in runs)}
        for v in variants:
            walls = [run[f"{v}_wall_s"] for run in runs]
            summary[f"{v}_total_wall_s"] = sum(walls)
            summary[f"{v}_median_wall_s"] = statistics.median(walls)
        if "total_evals" in runs[0]:
            summary["total_evals"] = sum(run["total_evals"] for run in runs)
            for v in variants:
                summary[f"{v}_evals_per_s"] = summary["total_evals"] / summary[f"{v}_total_wall_s"]
        for v in [v for v in variants if v != "checkout"]:
            ratios = [run[f"{v}_wall_s"] / run["checkout_wall_s"] for run in runs]
            summary[f"speedup_over_{v}_total"] = (
                summary[f"{v}_total_wall_s"] / summary["checkout_total_wall_s"]
            )
            summary[f"speedup_over_{v}_median_run"] = statistics.median(ratios)
            summary[f"runs_faster_than_{v}"] = sum(r > 1 for r in ratios)
        out[f"N{n}"] = summary
    return out


def exit_code(doc: dict) -> int:
    """1 if a variant printed another record or result than this checkout."""
    runs = [run for part in doc.values() for run in part.get("runs", ())]
    return 0 if all(run["identical"] for run in runs) else 1


def evals_fields(run: dict) -> dict:
    return {"total_evals": run["record"]["total_evals"]}


def record_fields(run: dict) -> dict:
    return {**evals_fields(run), "hit": run["record"]["tts"] is not None}


def campaign_fields(run: dict) -> dict:
    # The run ends in its last batch, at the restart that hit or at the
    # restart cap.
    sizes = run["batch_sizes"]
    return {
        **record_fields(run),
        "batch_size": sizes[-1],
        "position_in_batch": run["restarts_used"] - 1 - sum(sizes[:-1]),
    }


def campaign_jobs(config: Path, counts: dict) -> tuple[str, list]:
    """A campaign part's config name and its jobs: the first counts[N]
    runs at each N."""
    text = config.read_text()
    jobs = [
        ({"N": n, "run_index": i}, (text, n, i)) for n, count in counts.items() for i in range(count)
    ]
    return str(config.relative_to(ROOT)), jobs


def environment() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from pcelabs import pce_solver

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
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--part", action="append", help="a workload or part to run; repeatable")
    args = parser.parse_args(argv)

    # A slice job's last argument sets LOCKSTEP_ROWS; 0 keeps the checkout's.
    checkouts = {"checkout": (ROOT / "src",)}
    slices = {"checkout": (ROOT / "src", 0), "one_restart_per_batch": (ROOT / "src", 1)}
    if args.parent is not None:
        checkouts["parent"] = (args.parent.resolve(),)
        slices["parent"] = (args.parent.resolve(), 0)
    repeats = range(args.repeats)
    slice_jobs = [({"N": SLICE["N"], "repeat": r}, (json.dumps(SLICE),)) for r in repeats]
    exact_jobs = [({"N": n, "repeat": r}, (n,)) for n in EXACT_SIZES for r in repeats]
    parts = {  # name: (config, jobs, job script, variants, result, row fields)
        "slice": (SLICE, slice_jobs, SLICE_RUN, slices, "record", evals_fields),
        "campaign": (
            *campaign_jobs(CAMPAIGN, CAMPAIGN_RUNS),
            CAMPAIGN_RUN, checkouts, "record", campaign_fields,
        ),
        "tabu_campaign": (
            *campaign_jobs(TABU_CAMPAIGN, TABU_CAMPAIGN_RUNS),
            TABU_CAMPAIGN_RUN, checkouts, "record", record_fields,
        ),
        "exact": (EXACT_SIZES, exact_jobs, EXACT_RUN, checkouts, "result", lambda run: {}),
    }
    chosen = set(args.part or (*WORKLOADS, *parts))
    if chosen - set(WORKLOADS) - set(parts):
        parser.error(f"unknown parts {sorted(chosen - set(WORKLOADS) - set(parts))}")

    doc = {"environment": environment(), "perfbench": {}}
    for workload in [w for w in WORKLOADS if w in chosen]:
        doc["perfbench"][workload] = run_workload(workload, args.seed, args.seconds)
        print(f"{workload}: {doc['perfbench'][workload]['metrics']}", file=sys.stderr)
    for name, (config, jobs, script, variants, result, fields) in parts.items():
        if name not in chosen:
            continue
        runs = alternate(name, script, jobs, variants, result, fields)
        doc[name] = {"config": config, "runs": runs, **summarize(runs, variants)}
    for n in CAMPAIGN_RUNS if "campaign" in doc else ():
        runs = [run for run in doc["campaign"]["runs"] if run["N"] == n]
        doc["campaign"][f"N{n}"]["hits_inside_a_batch"] = sum(
            run["hit"] and run["position_in_batch"] > 0 for run in runs
        )
        evolved = sum(run["rows_evolved"] for run in runs)
        discarded = sum(run["rows_discarded"] for run in runs)
        doc["campaign"][f"N{n}"]["rows_discarded_share"] = discarded / evolved
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return exit_code(doc)


if __name__ == "__main__":
    sys.exit(main())
