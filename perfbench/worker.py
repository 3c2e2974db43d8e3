"""One workload in one process: set-up, timed rounds, checks, outputs.

``run.py`` starts this script with the checkout's ``src`` on the path and
one BLAS thread.  With ``--mode setup`` it stops at the first timed call
and prints the set-up time; with ``--mode run`` it runs whole rounds of
the workload's solver calls until ``--seconds`` have passed, checks every
output, writes the records, the environment block and (traced) the spans,
and prints one JSON line of measurements.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

from pcelabs import baselines, bench, pauli_algebra, pce_solver
from pcelabs.state_sim import AnsatzSpec

import checks
from tracing import Tracer

# The paper's ansatz: 4 qubits, 15 layers, 150 angles, 30 MS gates.
QUBITS, LAYERS = 4, 15
ALPHA, BETA = 1.5 * QUBITS, 15.0
PCE_CALLS = [(13, "anticommuting"), (13, "commuting"), (45, "anticommuting"), (45, "commuting")]
PCE_RESTARTS, PCE_ITERS = 2, 9
TABU_CALLS = [(28, 150_000), (45, 150_000)]
MEMETIC_CALLS = [(28, 100_000), (45, 100_000)]
MEMETIC_POPULATION = 20
EXACT_N, EXACT_LEVELS = 24, 3
WORKLOADS = ("pce", "tabu", "memetic", "exact")


@dataclass
class Op:
    """One solver call with fixed work; ``run`` returns its result."""

    label: str
    run: Callable
    evals: int
    check: Callable
    echo: dict


def _seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence([seed, *key]).generate_state(1, np.uint64)[0] >> 1)


def pce_ops(seed: int, engine: str) -> list[Op]:
    ops = []
    for i, (n, mode) in enumerate(PCE_CALLS):
        config = pce_solver.PceConfig(
            n_qubits=QUBITS,
            layers=LAYERS,
            pauli_mode=mode,
            iters_per_restart=PCE_ITERS,
            restart_cap=PCE_RESTARTS,
            seed=_seed(seed, 0, i),
        )
        evals = PCE_RESTARTS * (PCE_ITERS + 1)
        ops.append(
            Op(
                f"pce N={n} {mode}",
                lambda n=n, c=config: pce_solver.solve(n, c),
                evals,
                lambda r, n=n, e=evals: checks.check_solve(r, n, e),
                {**asdict(config), "engine": engine},
            )
        )
    return ops


def tabu_ops(seed: int) -> list[Op]:
    ops = []
    for i, (n, budget) in enumerate(TABU_CALLS):
        config = baselines.TabuConfig(eval_budget=budget, seed=_seed(seed, 1, i))
        ops.append(
            Op(
                f"tabu N={n}",
                lambda n=n, c=config: baselines.tabu_search(n, c),
                budget,
                lambda r, n=n, e=budget: checks.check_solve(r, n, e),
                asdict(config),
            )
        )
    return ops


def memetic_ops(seed: int) -> list[Op]:
    ops = []
    for i, (n, budget) in enumerate(MEMETIC_CALLS):
        rng = np.random.default_rng(_seed(seed, 2, i))
        population = list(rng.choice(np.array([-1, 1]), (MEMETIC_POPULATION, n)))
        config = baselines.MemeticConfig(eval_budget=budget, seed=_seed(seed, 3, i))
        ops.append(
            Op(
                f"memetic N={n}",
                lambda n=n, p=population, c=config: baselines.memetic_tabu(n, p, c),
                budget,
                lambda r, n=n, e=budget: checks.check_solve(r, n, e),
                {**asdict(config), "population": ["".join("+" if v > 0 else "-" for v in x) for x in population]},
            )
        )
    return ops


def exact_ops(seed: int) -> list[Op]:
    # Enumeration has no random input: the seed changes nothing here.
    return [
        Op(
            f"exact N={EXACT_N}",
            lambda: baselines.exact_solve(EXACT_N, EXACT_LEVELS),
            1 << (EXACT_N - 1),
            lambda r: checks.check_exact(r, EXACT_N, EXACT_LEVELS),
            {"levels": EXACT_LEVELS},
        )
    ]


def warm_up(workload: str, seed: int) -> None:
    """One small untimed call of the workload's solver."""
    if workload == "pce":
        pce_solver.solve(13, pce_solver.PceConfig(restart_cap=1, iters_per_restart=1, seed=seed))
    elif workload == "tabu":
        baselines.tabu_search(13, baselines.TabuConfig(eval_budget=2000, seed=seed))
    elif workload == "memetic":
        rng = np.random.default_rng(seed)
        population = list(rng.choice(np.array([-1, 1]), (MEMETIC_POPULATION, 13)))
        baselines.memetic_tabu(13, population, baselines.MemeticConfig(eval_budget=2000, seed=seed))
    else:
        baselines.exact_solve(13)


def resolved_engine() -> str:
    paulis = pauli_algebra.sample_anticommuting_set(QUBITS, 3, np.random.default_rng(0)).paulis
    return pce_solver.LossContext(AnsatzSpec(QUBITS, 1), paulis, ALPHA, BETA).engine


def environment(engine: str) -> dict:
    return {
        "engine": engine,
        "numba": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "host": platform.node(),
    }


def record_of(op: Op, index: int, result) -> bench.RunRecord:
    if isinstance(result, baselines.ExactResult):
        return bench.RunRecord(
            solver="exact",
            n=result.n,
            run_index=index,
            seed=0,
            best_energy=result.optimal_energy,
            total_evals=op.evals,
            config={**op.echo, **result.to_dict()},
        )
    return bench.RunRecord.from_solve_result(result, index, op.echo)


def pce_module_checks(seed: int) -> list[str]:
    """Simulator and gradient against the dense unitary, one Pauli set per call."""
    problems = []
    spec = AnsatzSpec(QUBITS, LAYERS)
    for i, (n, mode) in enumerate(PCE_CALLS):
        rng = np.random.default_rng(_seed(seed, 4, i))
        sample = (
            pauli_algebra.sample_anticommuting_set
            if mode == "anticommuting"
            else pauli_algebra.sample_commuting_set
        )
        paulis = sample(QUBITS, n, rng).paulis
        thetas = rng.uniform(-math.pi, math.pi, (3, spec.param_count))
        dense = checks.DenseAnsatz(QUBITS, LAYERS, [p.to_label() for p in paulis])
        reference = np.array([dense.expectations(dense.state(t)) for t in thetas])
        ctx = pce_solver.LossContext(spec, paulis, ALPHA, BETA)
        problems += checks.check_expectations(ctx.exact_expectations(thetas), reference)
        gradient = ctx.gradient(thetas[0])
        problems += checks.check_gradient(
            gradient, checks.central_difference_gradient(dense, thetas[0], ALPHA, BETA)
        )
    return [f"pce module check: {p}" for p in problems]


def run_round(ops: list[Op], tracer: Tracer | None, first_solve: int) -> tuple[float, list]:
    """Call every op once; returns the wall time and the results (or errors)."""
    results = []
    started = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.solve = first_solve + i
        try:
            results.append(op.run())
        except Exception as err:  # one failed solve must not end the run
            results.append(err)
    return time.perf_counter() - started, results


def per_layer(workload: str, ops, traced, untraced_walls, traced_walls) -> dict:
    """Per-round medians of self times, and per-round counts."""
    times = {}
    for key in {k for self_s, _ in traced for k in self_s}:
        times[key] = statistics.median(self_s[key] for self_s, _ in traced)
    counts = traced[0][1]
    evals = sum(op.evals for op in ops)
    probes = evals if workload in ("tabu", "memetic") else 0
    pce_evals = evals if workload == "pce" else 0
    tabu_self = times.get("baselines.tabu", 0.0) + times.get("baselines.memetic", 0.0)
    layer = {
        "state_sim.evolve_s": times.get("state_sim.evolve", 0.0),
        "state_sim.evolve_rows": counts["state_sim.evolve_rows"],
        "state_sim.rows_per_eval": counts["state_sim.evolve_rows"] / pce_evals if pce_evals else 0.0,
        "state_sim.expect_s": times.get("state_sim.expect", 0.0),
        "pce_solver.gradient_self_s": times.get("pce_solver.gradient", 0.0),
        "pce_solver.gradient_calls": counts["pce_solver.gradient_calls"],
        "pce_solver.score_s": times.get("pce_solver.score", 0.0),
        "pce_solver.self_s": times.get("pce_solver.solve", 0.0),
        "pce_solver.restart_setup_s": times.get("pce_solver.restart_setup", 0.0),
        "pauli_algebra.sample_s": times.get("pauli_algebra.sample", 0.0),
        "pauli_algebra.sample_calls": counts["pauli_algebra.sample_calls"],
        "labs_core.propose_all_s": times.get("labs_core.propose_all", 0.0),
        "labs_core.propose_all_calls": counts["labs_core.propose_all_calls"],
        "labs_core.commit_s": times.get("labs_core.commit", 0.0),
        "labs_core.commit_calls": counts["labs_core.commit_calls"],
        "baselines.tabu_self_s": tabu_self,
        "baselines.observe_per_probe": counts["labs_core.sequence_reads"] / probes if probes else 0.0,
        "labs_core.workspace_init_s": times.get("labs_core.workspace_init", 0.0),
        "labs_core.workspace_init_calls": counts["labs_core.workspace_init_calls"],
        "baselines.memetic_generations": counts["baselines.memetic_generations"],
        "baselines.exact_enum_s": times.get("baselines.exact", 0.0),
        "baselines.exact_bytes_computed": counts["baselines.exact_bytes_computed"],
        "labs_core.canonicalize_s": times.get("labs_core.canonicalize", 0.0),
    }
    traced_wall = statistics.median(traced_walls)
    accounted = sum(v for k, v in layer.items() if k.endswith("_s")) / traced_wall
    layer["trace.overhead"] = traced_wall / statistics.median(untraced_walls) - 1.0
    layer["trace.accounted"] = accounted
    return layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    engine = resolved_engine()
    ops = {
        "pce": lambda: pce_ops(args.seed, engine),
        "tabu": lambda: tabu_ops(args.seed),
        "memetic": lambda: memetic_ops(args.seed),
        "exact": lambda: exact_ops(args.seed),
    }[args.workload]()
    warm_up(args.workload, args.seed)
    setup_s = time.monotonic() - args.t0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = Tracer() if args.trace else None
    walls = {False: [], True: []}
    rounds = []
    traced_layers = []
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        try:
            wall, results = run_round(ops, tracer if traced else None, len(rounds) * len(ops))
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            traced_layers.append(tracer.take_round())
        walls[traced].append(wall)
        rounds.append(results)
        if time.perf_counter() >= deadline and (tracer is None or walls[True]):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = pce_module_checks(args.seed) if args.workload == "pce" else []
    raised = wrong = 0
    first_records = None
    for round_index, results in enumerate(rounds):
        records = []
        for i, (op, result) in enumerate(zip(ops, results)):
            if isinstance(result, Exception):
                raised += 1
                problems.append(f"round {round_index} {op.label}: raised {result!r}")
                records.append(None)
                continue
            found = op.check(result)
            record = record_of(op, i, result)
            records.append(record)
            if first_records is not None and record != first_records[i]:
                found.append("differs from the same call in round 0")
            if found:
                wrong += 1
                problems += [f"round {round_index} {op.label}: {p}" for p in found]
        if first_records is None:
            first_records = records

    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    bench.write_records([r for r in first_records if r is not None], args.out / f"{stem}.records.jsonl")
    env = environment(engine)
    (args.out / f"{stem}.env.json").write_text(json.dumps(env, indent=1) + "\n")
    if tracer is not None:
        tracer.write_spans(args.out / f"{stem}.spans.jsonl")
    for problem in problems:
        print(problem, file=sys.stderr)
    correct = len(problems) == raised

    evals = sum(op.evals for op in ops)
    wall_s = statistics.median(walls[False])
    if tracer is None:
        metrics = {"setup_s": setup_s, "wall_s": wall_s, "evals_per_s": evals / wall_s, "peak_rss_mb": peak_rss_mb}
    else:
        metrics = per_layer(args.workload, ops, traced_layers, walls[False], walls[True])
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(rounds) * len(ops),
                "failed": raised + wrong,
                "round_walls": walls[False],
                "env": env,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
