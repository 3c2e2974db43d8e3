"""Write a committed benchmark snapshot: every perfbench workload end to
end, a lockstep PCE campaign slice, timed runs of the reduced PCE and
tabu campaigns, and timed exhaustive enumerations.

Run from the root of a checkout:

    python3 scripts/bench_snapshot.py --out BENCH_snapshot.json --parent ../other/src

For each workload this runs ``perfbench/run.py --trace 0`` once and keeps
its metrics.  The slice is ``solve`` at N = 20 with ``restart_cap=32``,
200 iterations per restart and no references, each run in a fresh
single-threaded process: on this checkout as it stands (restarts in
lockstep), on this checkout with one restart per batch, and, with
``--parent``, on the ``src`` directory of another checkout.  Runs
alternate between the variants; medians are reported, and the slice's
record must be the same in every run.

The campaign part times runs of ``configs/reduced_pce.json`` as the
campaign runs them, with reference levels, so each run ends at its first
exact hit: the first ``CAMPAIGN_RUNS[N]`` runs at N = 13 and 20, on this
checkout and, with ``--parent``, alternating with the other one.  For
each run it reports the wall time, the record (which must match), the
restart that hit and where it sat in its lockstep batch, and the rows
evolved: those past ``total_evals`` are the discarded rest of a batch.
Rows and batches are counted at ``LossContext.step``, which both engines
call once per step, so the counts hold on either engine.

The tabu campaign part does the same for ``configs/reduced_tabu.json``:
the first ``TABU_CAMPAIGN_RUNS[N]`` runs at N = 20 and 28, with reference
levels, on this checkout and, with ``--parent``, alternating with the
other one, each run's record required to match.  It reports the wall
time of every run and the evaluations per second of each size.

The exact part runs ``exact_solve(N)`` at each N in ``EXACT_SIZES``,
``--repeats`` times per checkout, each in a fresh single-threaded process,
alternating this checkout with ``--parent``.  Every run's
``ExactResult.to_dict()`` must be the same.

The environment block names the resolved engine, numba availability,
versions, CPU count and host.  The exit code is 1 if any record or exact
result differs between runs or checkouts.
"""

from __future__ import annotations

import argparse
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


def run_slice(src: Path, rows: int) -> dict:
    return run_job(SLICE_RUN, src, json.dumps(SLICE), rows)


def run_campaign_job(script: str, config: Path, src: Path, n: int, index: int) -> dict:
    return run_job(script, src, config.read_text(), n, index)


def campaign(variants: dict) -> dict:
    """Alternating timed runs of the reduced PCE campaign; see the module
    docstring."""
    out = {"config": str(CAMPAIGN.relative_to(ROOT)), "runs": []}
    step = 0
    for n, count in CAMPAIGN_RUNS.items():
        for index in range(count):
            order = list(variants) if step % 2 == 0 else list(reversed(variants))
            step += 1
            done = {
                name: run_campaign_job(CAMPAIGN_RUN, CAMPAIGN, variants[name], n, index)
                for name in order
            }
            run = done["lockstep"]
            record = run["record"]
            # The run ends in its last batch, at the restart that hit or at
            # the restart cap.
            sizes = run["batch_sizes"]
            row = {
                "N": n,
                "run_index": index,
                "total_evals": record["total_evals"],
                "restarts_used": run["restarts_used"],
                "hit": record["tts"] is not None,
                "batch_size": sizes[-1],
                "position_in_batch": run["restarts_used"] - 1 - sum(sizes[:-1]),
                "rows_evolved": run["rows_evolved"],
                "rows_discarded": run["rows_discarded"],
                "records_identical": all(d["record"] == record for d in done.values()),
            }
            row.update({f"{name}_wall_s": d["wall_s"] for name, d in done.items()})
            out["runs"].append(row)
            print(f"campaign N={n} run {index}: {row}", file=sys.stderr)
    for n in CAMPAIGN_RUNS:
        runs = [run for run in out["runs"] if run["N"] == n]
        evolved = sum(run["rows_evolved"] for run in runs)
        summary = {
            "runs": len(runs),
            "hits_inside_a_batch": sum(run["hit"] and run["position_in_batch"] > 0 for run in runs),
            "rows_discarded_share": sum(run["rows_discarded"] for run in runs) / evolved,
            "records_identical": all(run["records_identical"] for run in runs),
        }
        summary.update(wall_summary(runs, variants, "lockstep"))
        out[f"N{n}"] = summary
    return out


def tabu_campaign(variants: dict) -> dict:
    """Alternating timed runs of the reduced tabu campaign; see the module
    docstring."""
    out = {"config": str(TABU_CAMPAIGN.relative_to(ROOT)), "runs": []}
    step = 0
    for n, count in TABU_CAMPAIGN_RUNS.items():
        for index in range(count):
            order = list(variants) if step % 2 == 0 else list(reversed(variants))
            step += 1
            done = {
                name: run_campaign_job(TABU_CAMPAIGN_RUN, TABU_CAMPAIGN, variants[name], n, index)
                for name in order
            }
            record = done["checkout"]["record"]
            row = {
                "N": n,
                "run_index": index,
                "total_evals": record["total_evals"],
                "hit": record["tts"] is not None,
                "records_identical": all(d["record"] == record for d in done.values()),
            }
            row.update({f"{name}_wall_s": d["wall_s"] for name, d in done.items()})
            out["runs"].append(row)
            print(f"tabu campaign N={n} run {index}: {row}", file=sys.stderr)
    for n in TABU_CAMPAIGN_RUNS:
        runs = [run for run in out["runs"] if run["N"] == n]
        evals = sum(run["total_evals"] for run in runs)
        summary = {
            "runs": len(runs),
            "total_evals": evals,
            "records_identical": all(run["records_identical"] for run in runs),
        }
        summary.update(wall_summary(runs, variants, "checkout"))
        for name in variants:
            summary[f"{name}_evals_per_s"] = evals / summary[f"{name}_total_wall_s"]
        out[f"N{n}"] = summary
    return out


def exact(variants: dict, repeats: int) -> dict:
    """Alternating timed runs of ``exact_solve``; see the module docstring."""
    out = {"runs": []}
    step = 0
    for n in EXACT_SIZES:
        for repeat in range(repeats):
            order = list(variants) if step % 2 == 0 else list(reversed(variants))
            step += 1
            done = {name: run_job(EXACT_RUN, variants[name], n) for name in order}
            result = done["checkout"]["result"]
            row = {
                "N": n,
                "repeat": repeat,
                "results_identical": all(d["result"] == result for d in done.values()),
            }
            row.update({f"{name}_wall_s": d["wall_s"] for name, d in done.items()})
            out["runs"].append(row)
            print(f"exact N={n} repeat {repeat}: {row}", file=sys.stderr)
    for n in EXACT_SIZES:
        runs = [run for run in out["runs"] if run["N"] == n]
        summary = {
            "runs": len(runs),
            "results_identical": all(run["results_identical"] for run in runs),
        }
        for name in variants:
            summary[f"{name}_median_wall_s"] = statistics.median(run[f"{name}_wall_s"] for run in runs)
        summary.update(wall_summary(runs, variants, "checkout"))
        out[f"N{n}"] = summary
    return out


def wall_summary(runs: list[dict], variants: dict, this: str) -> dict:
    """Total wall time per variant and, with a parent, this checkout's
    speed-up over it in total, in the median run and run by run."""
    summary = {
        f"{name}_total_wall_s": sum(run[f"{name}_wall_s"] for run in runs) for name in variants
    }
    if "parent" in variants:
        ratios = [run["parent_wall_s"] / run[f"{this}_wall_s"] for run in runs]
        summary["speedup_over_parent_total"] = (
            summary["parent_total_wall_s"] / summary[f"{this}_total_wall_s"]
        )
        summary["speedup_over_parent_median_run"] = statistics.median(ratios)
        summary["runs_faster_than_parent"] = sum(r > 1 for r in ratios)
    return summary


def environment() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import scipy

    from pcelabs import pce_solver

    return {
        "engine": pce_solver.resolve_engine(),
        "numba": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
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
    args = parser.parse_args(argv)

    doc = {"environment": environment(), "perfbench": {}, "slice": {"config": SLICE}}
    for workload in WORKLOADS:
        doc["perfbench"][workload] = run_workload(workload, args.seed, args.seconds)
        print(f"{workload}: {doc['perfbench'][workload]['metrics']}", file=sys.stderr)

    variants = {"lockstep": (ROOT / "src", 0), "one_restart_per_batch": (ROOT / "src", 1)}
    if args.parent is not None:
        variants["parent"] = (args.parent.resolve(), 0)
    runs = {name: [] for name in variants}
    for repeat in range(args.repeats):
        order = list(variants) if repeat % 2 == 0 else list(reversed(variants))
        for name in order:
            runs[name].append(run_slice(*variants[name]))
            print(f"slice {name}: {runs[name][-1]['wall_s']:.2f} s", file=sys.stderr)
    records = [run["record"] for name in runs for run in runs[name]]
    evals = records[0]["total_evals"]
    for name, done in runs.items():
        walls = [run["wall_s"] for run in done]
        wall = statistics.median(walls)
        doc["slice"][name] = {"wall_s": walls, "median_wall_s": wall, "evals_per_s": evals / wall}
    doc["slice"]["total_evals"] = evals
    doc["slice"]["records_identical"] = all(record == records[0] for record in records)
    for name in runs:
        if name != "lockstep":
            ratio = doc["slice"][name]["median_wall_s"] / doc["slice"]["lockstep"]["median_wall_s"]
            doc["slice"][f"speedup_over_{name}"] = ratio
    campaign_variants = {"lockstep": ROOT / "src"}
    if args.parent is not None:
        campaign_variants["parent"] = args.parent.resolve()
    doc["campaign"] = campaign(campaign_variants)
    checkouts = {"checkout": ROOT / "src"}
    if args.parent is not None:
        checkouts["parent"] = args.parent.resolve()
    doc["tabu_campaign"] = tabu_campaign(checkouts)
    doc["exact"] = exact(checkouts, args.repeats)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    identical = (
        doc["slice"]["records_identical"]
        and all(doc["campaign"][f"N{n}"]["records_identical"] for n in CAMPAIGN_RUNS)
        and all(doc["tabu_campaign"][f"N{n}"]["records_identical"] for n in TABU_CAMPAIGN_RUNS)
        and all(doc["exact"][f"N{n}"]["results_identical"] for n in EXACT_SIZES)
    )
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
