"""Command line front end.

Every subcommand prints one JSON document (records streams are JSON
lines) carrying a schema_version field.  Outputs are byte-identical
for identical inputs and seeds; timing is opt-in for that reason.

Exit codes: 0 on success, 2 on invalid input, 1 on runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from pcelabs import bench, labs_core, pce_solver
from pcelabs.baselines import (
    MemeticConfig,
    TabuConfig,
    WarmStartConfig,
    exact_solve,
    pce_warm_start,
    tabu_search,
)
from pcelabs.pauli_algebra import sample_anticommuting_set, sample_commuting_set
from pcelabs.pce_solver import EnergyReferences, PceConfig

ENV_OUT_DIR = "PCELABS_OUT"
ENV_WORKERS = "PCELABS_WORKERS"


def _emit(doc: dict) -> None:
    doc.setdefault("schema_version", bench.SCHEMA_VERSION)
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _out_path(raw: str) -> Path:
    """Resolve an output path, honoring the output-directory override."""
    path = Path(raw)
    base = os.environ.get(ENV_OUT_DIR)
    if base and not path.is_absolute():
        path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _workers(flag: int | None) -> int:
    """The ``--workers`` flag, else the environment override, else 1;
    below 1 is invalid input from either source."""
    name, raw = "--workers", flag
    if raw is None:
        name, raw = ENV_WORKERS, os.environ.get(ENV_WORKERS, "1")
    workers = int(raw)
    if workers < 1:
        raise ValueError(f"{name} must be >= 1, got {raw}")
    return workers


def _load_references(n: int, enabled: bool) -> EnergyReferences | None:
    """The packaged reference levels for N, or None with ``--no-refs``.

    A size the table lacks raises ``ValueError`` (exit code 2), so a run
    never goes without a target unless asked to."""
    if not enabled:
        return None
    return EnergyReferences.from_levels(bench.reference_levels(n))


def _config(cls, args):
    """A ``cls`` config from the flags whose destination is one of its
    fields; a flag left unset keeps the field's default."""
    given = {}
    for field in dataclasses.fields(cls):
        value = getattr(args, field.name, None)
        if value is not None:
            given[field.name] = value
    return cls(**given)


def _is_number(value) -> bool:
    """A JSON number; true and false are not numbers."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numbers(values, error: str) -> list[float]:
    """A JSON array of numbers as floats; anything else raises
    ``ValueError(error)``."""
    if not isinstance(values, list) or not all(map(_is_number, values)):
        raise ValueError(error)
    return [float(v) for v in values]


def cmd_eval(args) -> int:
    x = labs_core.parse_sequence(args.sequence)
    doc = dict(labs_core.energy_report(x))
    doc["sequence"] = labs_core.format_sequence(x)
    doc["canonical"] = labs_core.format_sequence(labs_core.canonicalize(x))
    _emit(doc)
    return 0


def cmd_exact(args) -> int:
    result = exact_solve(args.n, levels=args.levels)
    _emit(result.to_dict())
    return 0


def cmd_skew(args) -> int:
    half = labs_core.parse_sequence(args.half)
    full = labs_core.expand_skew_symmetric(half)
    report = labs_core.energy_report(full)
    doc = {
        "half": labs_core.format_sequence(half),
        "n": report["n"],
        "sequence": labs_core.format_sequence(full),
        "energy": report["energy"],
        "merit_factor": report["merit_factor"],
    }
    _emit(doc)
    return 0


def cmd_solve_pce(args) -> int:
    config = _config(PceConfig, args)
    references = _load_references(args.n, not args.no_refs)
    result = pce_solver.solve(args.n, config, references)
    _emit(result.to_dict())
    return 0


def cmd_solve_tabu(args) -> int:
    config = _config(TabuConfig, args)
    references = _load_references(args.n, not args.no_refs)
    result = tabu_search(args.n, config, references)
    _emit(result.to_dict())
    return 0


def cmd_warm_start(args) -> int:
    pce = _config(PceConfig, args)
    memetic = _config(MemeticConfig, args)
    warm = _config(WarmStartConfig, args)
    references = _load_references(args.n, not args.no_refs)
    result = pce_warm_start(args.n, pce, memetic, references, warm)
    _emit(result.to_dict())
    return 0


def cmd_bench(args) -> int:
    with open(args.config) as fh:
        config = bench.CampaignConfig.from_dict(json.load(fh))
    if args.timing:
        config.timing = True
    workers = _workers(args.workers)
    records = bench.run_campaign(config, workers=workers)
    out = _out_path(args.out)
    bench.write_records(records, out)
    if args.csv:
        bench.records_to_csv(records, _out_path(args.csv), target=args.target)
    solved = sum(1 for r in records if r.tts is not None)
    _emit(
        {
            "records": str(out),
            "runs": len(records),
            "solved": solved,
            "solver": config.solver,
            "sizes": list(config.sizes),
        }
    )
    return 0


def cmd_fit(args) -> int:
    records = bench.read_records(args.records)
    fit = bench.fit_exponential(
        records, mode=args.mode, target=args.target, parity=args.parity
    )
    _emit(fit.to_dict())
    return 0


def _load_sample(path: str):
    """Load a TTS sample: a JSON array of numbers, or a records file
    (JSONL) whose uncensored tts values form the sample."""
    with open(path) as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        data = None
    if data is None or isinstance(data, dict):  # records, one or more lines
        records = bench.read_records(path)
        data = [r.tts for r in records if r.tts is not None]
        if not data:
            raise ValueError(f"{path}: no uncensored tts values")
    return _numbers(data, f"{path}: expected a JSON array of numbers")


def cmd_ks(args) -> int:
    result = bench.ks_two_sample(_load_sample(args.a), _load_sample(args.b))
    _emit(result.to_dict())
    return 0


def cmd_tune(args) -> int:
    with open(args.samples) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"{args.samples}: expected a JSON object of samples")
    samples = {}
    for key, values in raw.items():
        error = f"{args.samples}: the sample of {key!r} is not a JSON array of numbers"
        try:
            setting = int(key)
        except ValueError:
            setting = float(key)
        samples[setting] = _numbers(values, error)
    choice = bench.tune_sweep(samples, threshold=args.threshold)
    _emit({"setting": choice, "threshold": args.threshold})
    return 0


def cmd_shot_bound(args) -> int:
    query = bench.ShotBudgetQuery(
        n=args.n, alpha=args.alpha, beta=args.beta, eps=args.eps, delta=args.delta
    )
    _emit(bench.shot_bound(query).to_dict())
    return 0


def _load_fit_constants(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not all(_is_number(doc.get(k)) for k in "bc"):
        raise ValueError(f"{path}: fit document needs numbers 'b' and 'c'")
    return doc


def cmd_crossover(args) -> int:
    fit_q = _load_fit_constants(args.quantum)
    fit_c = _load_fit_constants(args.classical)
    n_star = bench.crossover(fit_q, fit_c, k=args.k, p=args.p)
    _emit(
        {
            "crossover_n": n_star,
            "in_range": n_star is not None,
            "range": list(bench.CROSSOVER_RANGE),
            "overhead_k": args.k,
            "overhead_p": args.p,
        }
    )
    return 0


def cmd_pauli_gen(args) -> int:
    sampler = (
        sample_anticommuting_set
        if args.mode == "anticommuting"
        else sample_commuting_set
    )
    import numpy as np

    rng = np.random.default_rng(args.seed)
    pauli_set = sampler(args.qubits, args.count, rng)
    _emit(pauli_set.to_dict())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcelabs",
        description="Low autocorrelation binary sequences via Pauli correlation encoding",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="score a binary sequence")
    p.add_argument("--sequence", required=True, help="signs as +-/10 characters")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("exact", help="enumerate the exact optimum")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--levels", type=int, default=3)
    p.set_defaults(fn=cmd_exact)

    p = sub.add_parser("skew", help="expand a skew-symmetric half sequence")
    p.add_argument("--half", required=True)
    p.set_defaults(fn=cmd_skew)

    # Each solver flag's destination is its config field (``_config``).
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--n", type=int, required=True)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--no-refs", action="store_true", help="skip reference counters")
    tabu = argparse.ArgumentParser(add_help=False)
    tabu.add_argument("--budget", dest="eval_budget", type=int)
    tabu.add_argument("--tenure-min", type=int)
    tabu.add_argument("--tenure-max", type=int)
    pce = argparse.ArgumentParser(add_help=False)
    pce.add_argument("--qubits", dest="n_qubits", type=int)
    pce.add_argument("--layers", type=int)
    pce.add_argument("--pauli-mode", choices=["anticommuting", "commuting"])
    pce.add_argument("--alpha", type=float)
    pce.add_argument("--beta", type=float)
    pce.add_argument("--optimizer", choices=["adam", "sgd"])
    pce.add_argument("--step-size", type=float)
    pce.add_argument("--iters", dest="iters_per_restart", type=int)
    pce.add_argument("--restarts", dest="restart_cap", type=int)
    pce.add_argument("--shots", type=int)

    p = sub.add_parser("solve-pce", help="variational solve", parents=[run, pce])
    p.set_defaults(fn=cmd_solve_pce)

    p = sub.add_parser("solve-tabu", help="tabu search", parents=[run, tabu])
    p.add_argument("--stagnation", dest="stagnation_factor", type=int)
    p.set_defaults(fn=cmd_solve_tabu)

    p = sub.add_parser(
        "warm-start", help="variational seeds feeding memetic tabu", parents=[run, tabu, pce]
    )
    p.add_argument("--pce-runs", type=int)
    p.add_argument("--copies", dest="population_copies", type=int)
    p.set_defaults(fn=cmd_warm_start)

    p = sub.add_parser("bench", help="run a campaign from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="records.jsonl")
    p.add_argument("--csv", default=None)
    p.add_argument("--target", choices=["exact", "first", "second"], default="exact")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--timing", action="store_true", help="record wall times (breaks byte-identical reruns)")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("fit", help="fit TTS = c * b^N from records")
    p.add_argument("--records", required=True)
    p.add_argument("--mode", choices=["median", "ensemble"], default="median")
    p.add_argument("--target", choices=["exact", "first", "second"], default="exact")
    p.add_argument("--parity", choices=["all", "even", "odd"], default="all")
    p.set_defaults(fn=cmd_fit)

    p = sub.add_parser("ks", help="two-sample Kolmogorov-Smirnov test")
    p.add_argument("--a", required=True, help="JSON array file")
    p.add_argument("--b", required=True, help="JSON array file")
    p.set_defaults(fn=cmd_ks)

    p = sub.add_parser("tune", help="pick the smallest sufficient setting")
    p.add_argument("--samples", required=True, help="JSON object: setting -> sample array")
    p.add_argument("--threshold", type=float, default=0.05)
    p.set_defaults(fn=cmd_tune)

    p = sub.add_parser("shot-bound", help="measurement budget for a loss precision")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.set_defaults(fn=cmd_shot_bound)

    p = sub.add_parser("crossover", help="first size where one scaling beats another")
    p.add_argument("--quantum", required=True, help="fit JSON for the scaling with overhead")
    p.add_argument("--classical", required=True, help="fit JSON to beat")
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--p", type=float, default=0.0)
    p.set_defaults(fn=cmd_crossover)

    p = sub.add_parser("pauli-gen", help="sample a commuting or anticommuting set")
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument(
        "--mode", choices=["anticommuting", "commuting"], default="anticommuting"
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_pauli_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
