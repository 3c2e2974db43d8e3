"""Re-capture the golden records that depend on the Pauli sampler's stream.

Re-runs every case held in ``tests/data/pce_golden.json`` (its ``solve``
and ``sampler`` sections) and ``tests/data/warm_golden.json`` (its
``warm`` and ``solve`` sections) on the numpy engine, writes the new
results over the old ones, and prints the test id of every case whose
result changed.  The cases, their labels and the ``about`` texts are
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


def pce_sampler(index: int, case: dict) -> tuple[str, dict]:
    rng = np.random.default_rng(case["seed"])
    pauli_set = SAMPLERS[case["mode"]](4, case["N"], rng).to_dict()
    test_id = f"test_samplers_match_golden_sets[N{case['N']}-{case['mode']}-seed{case['seed']}]"
    return test_id, {"set": pauli_set, "next_draw": int(rng.integers(2**62))}


def pce_solve(index: int, case: dict) -> tuple[str, dict]:
    config = PceConfig(
        pauli_mode=case["mode"],
        shots=case["shots"],
        seed=case["seed"],
        restart_cap=2,
        iters_per_restart=9,
    )
    test_id = (
        f"test_solve_matches_golden_records"
        f"[N{case['N']}-{case['mode']}-shots{case['shots']}-seed{case['seed']}]"
    )
    return test_id, {"result": solve(case["N"], config).to_dict()}


def warm_run(index: int, case: dict) -> tuple[str, dict]:
    levels = case["references"]
    result = pce_warm_start(
        case["N"],
        PceConfig(**case["pce"]),
        MemeticConfig(**case["memetic"]),
        None if levels is None else EnergyReferences(*levels),
        WarmStartConfig(**case["warm"]),
    )
    test_id = (
        f"test_warm_start_matches_golden_records"
        f"[{index}-N{case['N']}-{case['label'].replace(' ', '-')}]"
    )
    return test_id, {"result": result.to_dict()}


def warm_solve(index: int, case: dict) -> tuple[str, dict]:
    refs = EnergyReferences.from_levels(case["references"])
    result = solve(case["N"], PceConfig(**case["pce"]), refs)
    test_id = (
        f"test_solve_with_references_matches_golden_records"
        f"[N{case['N']}-iters{case['pce']['iters_per_restart']}-seed{case['pce']['seed']}]"
    )
    return test_id, {"result": result.to_dict()}


def recapture(cases: list[dict], run) -> list[str]:
    """Update each case in place with ``run(index, case)``; the ids that changed."""
    changed = []
    for index, case in enumerate(cases):
        test_id, fields = run(index, case)
        if any(case[key] != value for key, value in fields.items()):
            changed.append(test_id)
        case.update(fields)
    return changed


def main() -> None:
    _kernels.HAVE_NUMBA = False
    changed = []

    path = DATA / "pce_golden.json"
    golden = json.loads(path.read_text())
    changed += recapture(golden["solve"], pce_solve)
    changed += recapture(golden["sampler"], pce_sampler)
    path.write_text(json.dumps(golden, indent=1) + "\n")

    path = DATA / "warm_golden.json"
    golden = json.loads(path.read_text())
    changed += recapture(golden["warm"], warm_run)
    changed += recapture(golden["solve"], warm_solve)
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
