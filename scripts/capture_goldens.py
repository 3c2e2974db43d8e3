"""Re-capture the golden records of the variational solver and the warm start.

Re-runs every case held in ``tests/data/pce_golden.json`` (its ``solve``
and ``sampler`` sections) and ``tests/data/warm_golden.json`` (its
``warm`` and ``solve`` sections) on the numpy engine, writes the new
results over the old ones, and prints the test id of every case whose
result changed.  A warm case labelled ``exact`` is named by the phase its
record exits in, so a moved exit renames it; such an id is printed as
``old -> new``.  The cases, their labels and the ``about`` texts are
kept as they are: a case is added or relabelled by editing the file.

    PYTHONPATH=src python3 scripts/capture_goldens.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from pcelabs import _kernels
from pcelabs.baselines import MemeticConfig, WarmStartConfig, pce_warm_start
from pcelabs.pauli_algebra import sample_anticommuting_set, sample_commuting_set
from pcelabs.pce_solver import EnergyReferences, PceConfig, solve

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"
SAMPLERS = {"anticommuting": sample_anticommuting_set, "commuting": sample_commuting_set}


def pce_sampler(case: dict) -> dict:
    """A sampler case draws on ``n`` qubits, 4 when the case has no ``n``."""
    rng = np.random.default_rng(case["seed"])
    pauli_set = SAMPLERS[case["mode"]](case.get("n", 4), case["N"], rng).to_dict()
    return {"set": pauli_set, "next_draw": int(rng.integers(2**62))}


def pce_sampler_id(index: int, case: dict) -> str:
    qubits = f"n{case['n']}-" if "n" in case else ""
    return f"test_samplers_match_golden_sets[{qubits}N{case['N']}-{case['mode']}-seed{case['seed']}]"


def pce_solve(case: dict) -> dict:
    config = PceConfig(
        pauli_mode=case["mode"],
        shots=case["shots"],
        seed=case["seed"],
        restart_cap=2,
        iters_per_restart=9,
    )
    return {"result": solve(case["N"], config).to_dict()}


def pce_solve_id(index: int, case: dict) -> str:
    return (
        f"test_solve_matches_golden_records"
        f"[N{case['N']}-{case['mode']}-shots{case['shots']}-seed{case['seed']}]"
    )


def warm_run(case: dict) -> dict:
    levels = case["references"]
    result = pce_warm_start(
        case["N"],
        PceConfig(**case["pce"]),
        MemeticConfig(**case["memetic"]),
        None if levels is None else EnergyReferences(*levels),
        WarmStartConfig(**case["warm"]),
    )
    return {"result": result.to_dict()}


def warm_run_id(index: int, case: dict) -> str:
    """As ``tests/test_baselines.py`` names it: an ``exact`` case by the
    phase its record exits in, which the record's seed tells."""
    label = case["label"]
    if label == "exact":
        phases = {case["pce"]["seed"]: "pce", case["memetic"]["seed"]: "memetic"}
        label = f"exact in the {phases[case['result']['seed']]} phase"
    return f"test_warm_start_matches_golden_records[{index}-N{case['N']}-{label.replace(' ', '-')}]"


def warm_solve(case: dict) -> dict:
    refs = EnergyReferences.from_levels(case["references"])
    return {"result": solve(case["N"], PceConfig(**case["pce"]), refs).to_dict()}


def warm_solve_id(index: int, case: dict) -> str:
    return (
        f"test_solve_with_references_matches_golden_records"
        f"[N{case['N']}-iters{case['pce']['iters_per_restart']}-seed{case['pce']['seed']}]"
    )


def recapture(cases: list[dict], run, name) -> list[str]:
    """Update each case in place with ``run(case)``; the ids of the cases
    that changed, as ``old -> new`` where the change renames one."""
    changed = []
    for index, case in enumerate(cases):
        fields = run(case)
        if any(case[key] != value for key, value in fields.items()):
            old = name(index, case)
            case.update(fields)
            new = name(index, case)
            changed.append(old if new == old else f"{old} -> {new}")
    return changed


def main() -> None:
    _kernels.HAVE_NUMBA = False
    changed = []

    path = DATA / "pce_golden.json"
    golden = json.loads(path.read_text())
    changed += recapture(golden["solve"], pce_solve, pce_solve_id)
    changed += recapture(golden["sampler"], pce_sampler, pce_sampler_id)
    path.write_text(json.dumps(golden, indent=1) + "\n")

    path = DATA / "warm_golden.json"
    golden = json.loads(path.read_text())
    changed += recapture(golden["warm"], warm_run, warm_run_id)
    changed += recapture(golden["solve"], warm_solve, warm_solve_id)
    sections = ",\n".join(
        f' "{key}": [\n' + ",\n".join(f"  {json.dumps(case)}" for case in golden[key]) + "\n ]"
        for key in ("warm", "solve")
    )
    path.write_text("{\n" + f' "about": {json.dumps(golden["about"])},\n' + sections + "\n}\n")

    for test_id in changed:
        print(test_id)
    print(f"{len(changed)} cases changed")


if __name__ == "__main__":
    main()
