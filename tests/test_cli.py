import hashlib
import io
import json
import math
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from pcelabs import bench
from pcelabs.baselines import TabuConfig, tabu_search
from pcelabs.cli import main

TABU_RECORDS = Path(__file__).resolve().parents[1] / "bench_out" / "reduced_tabu.jsonl"


def run_cli(argv, env=None, monkeypatch=None):
    if env:
        for key, value in env.items():
            monkeypatch.setenv(key, value)
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


def run_json(argv, **kw):
    rc, out = run_cli(argv, **kw)
    assert rc == 0, out
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    return doc


def test_eval_reports_energy_and_merit():
    doc = run_json(["eval", "--sequence", "+++++--++-+-+"])
    assert doc["energy"] == 6
    assert doc["merit_factor"] == pytest.approx(169 / 12)
    assert doc["canonical"] == "+++++--++-+-+"


def test_eval_accepts_bit_alphabet():
    doc = run_json(["eval", "--sequence", "1111100110101"])
    assert doc["energy"] == 6


def test_exact_subcommand():
    doc = run_json(["exact", "--n", "13"])
    assert doc["optimal_energy"] == 6
    assert doc["level_energies"] == [6, 14, 18]
    assert doc["canonical_optima"] == ["+++++--++-+-+"]


def test_skew_subcommand():
    doc = run_json(["skew", "--half", "+++++--"])
    assert doc["n"] == 13
    assert doc["energy"] == 6


def test_solve_pce_subcommand():
    doc = run_json(["solve-pce", "--n", "7", "--seed", "1", "--restarts", "30"])
    assert doc["best_energy"] == 3
    assert doc["n"] == 7
    assert doc["evals_to_exact"] is not None


def test_solve_pce_identical_seeds_identical_bytes():
    _, first = run_cli(["solve-pce", "--n", "7", "--seed", "3", "--restarts", "10"])
    _, second = run_cli(["solve-pce", "--n", "7", "--seed", "3", "--restarts", "10"])
    assert hashlib.sha256(first.encode()).digest() == hashlib.sha256(second.encode()).digest()


def test_solve_tabu_subcommand():
    doc = run_json(["solve-tabu", "--n", "13", "--seed", "2"])
    assert doc["best_energy"] == 6
    assert doc["solver"] == "tabu"


def test_warm_start_subcommand():
    doc = run_json(
        ["warm-start", "--n", "11", "--seed", "0", "--pce-runs", "2",
         "--copies", "4", "--iters", "30", "--restarts", "2"]
    )
    assert doc["best_energy"] == 5


def test_solve_tabu_passes_stagnation_to_the_search():
    doc = run_json(["solve-tabu", "--n", "13", "--seed", "2", "--no-refs",
                    "--budget", "3000", "--stagnation", "1"])
    want = tabu_search(13, TabuConfig(eval_budget=3000, stagnation_factor=1, seed=2))
    assert doc == {**json.loads(json.dumps(want.to_dict())), "schema_version": 1}
    assert doc != run_json(["solve-tabu", "--n", "13", "--seed", "2", "--no-refs",
                            "--budget", "3000"])


def test_warm_start_has_no_stagnation_flag():
    with pytest.raises(SystemExit) as exc:
        main(["warm-start", "--n", "11", "--stagnation", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["solve-pce", "--engine", "numba", "--iters", "2", "--restarts", "1"],
        ["warm-start", "--engine", "numpy", "--pce-runs", "1", "--copies", "2",
         "--iters", "2", "--restarts", "1", "--budget", "500"],
    ],
    ids=" ".join,
)
def test_engine_flag_exits_2(argv):
    """The engine is numba exactly when numba imports; no flag picks it."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--n", "7"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["solve-tabu", "--budget", "0"],
        ["solve-tabu", "--budget", "-5"],
        ["solve-tabu", "--stagnation", "0"],
        ["solve-tabu", "--stagnation", "-1"],
        ["warm-start", "--budget", "0", "--pce-runs", "1", "--copies", "2"],
    ],
    ids=" ".join,
)
def test_bad_search_settings_exit_2(argv, capsys):
    rc, out = run_cli([*argv, "--n", "13"])
    assert rc == 2
    assert out == ""
    assert "must be >= 1" in capsys.readouterr().err


def test_pauli_gen_subcommand():
    doc = run_json(["pauli-gen", "--qubits", "4", "--count", "13", "--seed", "0"])
    assert len(doc["paulis"]) == 13
    assert doc["strict_count"] == 9
    assert doc["mode"] == "anticommuting"


def test_pauli_gen_fills_a_large_set_past_the_strict_cap():
    """At 8 qubits an anticommuting set holds at most 17 strings; the
    other 23 come from the fallback phase, which scores all 65 535 strings
    for each of them."""
    doc = run_json(["pauli-gen", "--qubits", "8", "--count", "40"])
    assert len(doc["paulis"]) == len(set(doc["paulis"])) == 40
    assert doc["strict_count"] == 17


@pytest.mark.parametrize(
    "argv",
    [
        ["pauli-gen", "--qubits", "13", "--count", "5"],
        ["solve-pce", "--n", "7", "--qubits", "13"],
    ],
    ids=" ".join,
)
def test_qubit_count_above_the_maximum_exits_2(argv, capsys):
    rc, out = run_cli(argv)
    assert rc == 2
    assert out == ""
    assert capsys.readouterr().err.startswith("error: ")


def test_shot_bound_subcommand():
    doc = run_json(
        ["shot-bound", "--n", "1", "--alpha", "1", "--beta", "1",
         "--eps", "1", "--delta", str(2 / math.e)]
    )
    assert doc["samples"] == 8
    assert doc["eta"] == pytest.approx(0.5)


def test_ks_subcommand(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(list(range(50))))
    b.write_text(json.dumps([v + 40 for v in range(50)]))
    doc = run_json(["ks", "--a", str(a), "--b", str(b)])
    assert doc["d"] == 0.8
    assert doc["p"] < 1e-6


def test_tune_subcommand(tmp_path):
    samples = tmp_path / "samples.json"
    samples.write_text(json.dumps({
        "1": [0.1 * k for k in range(40)],
        "2": [5 + 0.1 * k for k in range(40)],
        "3": [5.05 + 0.1 * k for k in range(40)],
    }))
    doc = run_json(["tune", "--samples", str(samples)])
    assert doc["setting"] == 2


def test_crossover_subcommand(tmp_path):
    q = tmp_path / "q.json"
    c = tmp_path / "c.json"
    q.write_text(json.dumps({"b": 1.3, "c": 100.0}))
    c.write_text(json.dumps({"b": 1.4, "c": 1.0}))
    doc = run_json(["crossover", "--quantum", str(q), "--classical", str(c)])
    assert doc["crossover_n"] == 63
    assert doc["in_range"] is True


def test_bench_fit_round_trip(tmp_path, monkeypatch):
    config = tmp_path / "campaign.json"
    config.write_text(json.dumps({
        "solver": "tabu",
        "sizes": [5, 7, 9, 11],
        "runs_per_size": 3,
        "base_seed": 11,
    }))
    out = tmp_path / "records.jsonl"
    doc = run_json(["bench", "--config", str(config), "--out", str(out),
                    "--csv", str(tmp_path / "records.csv")])
    assert doc["runs"] == 12
    assert doc["solved"] == 12
    fit = run_json(["fit", "--records", str(out), "--mode", "median"])
    assert fit["parity"] == "odd"
    assert fit["b"] > 1.0
    assert (tmp_path / "records.csv").read_text().splitlines()[0] == "N,tts,solver,seed,target"


def test_bench_reruns_are_byte_identical(tmp_path):
    config = tmp_path / "campaign.json"
    config.write_text(json.dumps({
        "solver": "tabu", "sizes": [5, 6], "runs_per_size": 2, "base_seed": 4,
    }))
    out1, out2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    run_json(["bench", "--config", str(config), "--out", str(out1)])
    run_json(["bench", "--config", str(config), "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_bench_worker_count_does_not_change_bytes(tmp_path):
    config = tmp_path / "campaign.json"
    config.write_text(json.dumps({
        "solver": "tabu", "sizes": [5, 6], "runs_per_size": 2, "base_seed": 4,
    }))
    serial, pooled = tmp_path / "serial.jsonl", tmp_path / "pooled.jsonl"
    run_json(["bench", "--config", str(config), "--out", str(serial)])
    run_json(["bench", "--config", str(config), "--out", str(pooled), "--workers", "2"])
    assert serial.read_bytes() == pooled.read_bytes()


def test_bench_env_overrides(tmp_path, monkeypatch):
    config = tmp_path / "campaign.json"
    config.write_text(json.dumps({
        "solver": "tabu", "sizes": [5], "runs_per_size": 1, "base_seed": 0,
    }))
    outdir = tmp_path / "outdir"
    run_json(["bench", "--config", str(config), "--out", "r.jsonl"],
             env={"PCELABS_OUT": str(outdir), "PCELABS_WORKERS": "1"},
             monkeypatch=monkeypatch)
    assert (outdir / "r.jsonl").exists()


@pytest.mark.parametrize("source", ["flag", "env"])
def test_bench_fewer_than_one_worker_exits_2(source, tmp_path, capsys, monkeypatch):
    config = tmp_path / "campaign.json"
    config.write_text(json.dumps({
        "solver": "tabu", "sizes": [5], "runs_per_size": 1, "base_seed": 0,
    }))
    out = tmp_path / "r.jsonl"
    argv = ["bench", "--config", str(config), "--out", str(out)]
    if source == "flag":
        argv += ["--workers", "0"]
    rc, stdout = run_cli(argv, env={"PCELABS_WORKERS": "0"} if source == "env" else None,
                         monkeypatch=monkeypatch)
    assert rc == 2
    assert stdout == ""
    assert "must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_records_without_timing_by_default(tmp_path):
    config = tmp_path / "campaign.json"
    config.write_text(json.dumps({
        "solver": "tabu", "sizes": [5], "runs_per_size": 1, "base_seed": 0,
    }))
    out = tmp_path / "r.jsonl"
    run_json(["bench", "--config", str(config), "--out", str(out)])
    record = json.loads(out.read_text().splitlines()[0])
    assert record["wall_time"] is None
    run_json(["bench", "--config", str(config), "--out", str(out), "--timing"])
    record = json.loads(out.read_text().splitlines()[0])
    assert record["wall_time"] > 0


BAD_CAMPAIGNS = {
    "unknown-key": {"tabu": {"budget": 5}},
    "unknown-key-at-a-later-size": {"per_size": {"7": {"budget": 5}}},
    "non-positive-at-a-later-size": {"per_size": {"7": {"eval_budget": 0}}},
    "unknown-warm-key": {
        "solver": "warm", "pce": {"restart_cap": 1}, "warm": {"runs": 2}
    },
    "misspelt-top-level-key": {"base_sed": 3},
    "per-size-for-a-size-not-run": {"sizes": [5], "per_size": {"7": {"budget": 5}}},
    "another-solvers-settings": {"solver": "pce", "tabu": {"budget": 5}, "memetic": {"x": 1}},
    "pce-qubits-above-the-maximum": {"solver": "pce", "pce": {"n_qubits": 13}},
    "pce-engine-setting": {"solver": "pce", "pce": {"engine": "numpy"}},
    "tenure-at-a-later-size": {"per_size": {"7": {"tenure_max": 7}}},
    "memetic-mutation-rate-above-one": {"solver": "warm", "memetic": {"mutation_rate": 2.0}},
    "pce-step-size-not-positive": {"solver": "pce", "pce": {"step_size": 0.0}},
}


@pytest.mark.parametrize("bad", sorted(BAD_CAMPAIGNS))
def test_bad_campaign_settings_exit_2_before_any_run(bad, tmp_path, capsys, monkeypatch):
    def no_run(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(bench, "_run_one", no_run)
    config = tmp_path / "campaign.json"
    config.write_text(json.dumps({
        "solver": "tabu", "sizes": [5, 7], "runs_per_size": 1, "base_seed": 0,
        **BAD_CAMPAIGNS[bad],
    }))
    out = tmp_path / "r.jsonl"
    rc, stdout = run_cli(["bench", "--config", str(config), "--out", str(out), "--workers", "1"])
    assert rc == 2
    assert stdout == ""
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


# Small runs at N = 50, a size the packaged reference table lacks.
UNLISTED_SIZE_RUNS = {
    "solve-pce": ["--iters", "2", "--restarts", "1"],
    "solve-tabu": ["--budget", "500"],
    "warm-start": ["--pce-runs", "1", "--copies", "2", "--iters", "2", "--restarts", "1",
                   "--budget", "500"],
}


@pytest.mark.parametrize("command", sorted(UNLISTED_SIZE_RUNS))
def test_size_without_references_exits_2(command, capsys):
    rc, out = run_cli([command, "--n", "50", *UNLISTED_SIZE_RUNS[command]])
    assert rc == 2
    assert out == ""
    assert "no reference energies available for N = 50" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(UNLISTED_SIZE_RUNS))
def test_size_without_references_runs_with_no_refs(command):
    doc = run_json([command, "--n", "50", "--no-refs", *UNLISTED_SIZE_RUNS[command]])
    assert doc["n"] == 50
    assert doc["evals_to_exact"] is None


def test_invalid_input_exits_2():
    assert run_cli(["eval", "--sequence", "+q-"])[0] == 2
    assert run_cli(["exact", "--n", "2"])[0] == 2
    assert run_cli(["fit", "--records", "/does/not/exist.jsonl"])[0] == 2
    assert run_cli(["shot-bound", "--n", "0", "--alpha", "1", "--beta", "1",
                    "--eps", "0.5", "--delta", "0.5"])[0] == 2


# Each command reads its document from one file, which holds this text.
MALFORMED_DOCUMENTS = {
    "fit-unknown-field": (["fit", "--records"], '{"foo": 1}\n'),
    "fit-array-line": (["fit", "--records"], "[1, 2, 3]\n"),
    "fit-missing-fields": (["fit", "--records"], '{"solver": "pce", "n": 13}\n'),
    "ks-records-missing-fields": (
        ["ks", "--b", "{sample}", "--a"], '{"solver": "pce", "n": 13}\n' * 2
    ),
    "ks-null-in-the-sample": (["ks", "--b", "{sample}", "--a"], "[1, 2, null]"),
    "ks-array-in-the-sample": (["ks", "--b", "{sample}", "--a"], "[1, [2]]"),
    "ks-string-in-the-sample": (["ks", "--b", "{sample}", "--a"], '["1.5"]'),
    "ks-bool-in-the-sample": (["ks", "--b", "{sample}", "--a"], "[true]"),
    "tune-number-for-a-sample": (["tune", "--samples"], '{"1": 5, "2": [1.0, 2.0]}'),
    "tune-null-in-a-sample": (["tune", "--samples"], '{"1": [1, null], "2": [1, 2]}'),
    "tune-bool-in-a-sample": (["tune", "--samples"], '{"1": [1, false], "2": [1, 2]}'),
    "crossover-array-for-b": (
        ["crossover", "--classical", "{fit}", "--quantum"], '{"b": [1], "c": 1.0}'
    ),
    "crossover-bool-for-c": (
        ["crossover", "--classical", "{fit}", "--quantum"], '{"b": 1.3, "c": true}'
    ),
}


@pytest.mark.parametrize("bad", sorted(MALFORMED_DOCUMENTS))
def test_malformed_document_exits_2(bad, tmp_path, capsys):
    argv, text = MALFORMED_DOCUMENTS[bad]
    sample, fit = tmp_path / "sample.json", tmp_path / "fit.json"
    sample.write_text(json.dumps([1.0, 2.0, 3.0]))
    fit.write_text(json.dumps({"b": 1.3, "c": 1.0}))
    document = tmp_path / "document"
    document.write_text(text)
    argv = [arg.format(sample=sample, fit=fit) for arg in argv]
    rc, stdout = run_cli([*argv, str(document)])
    assert rc == 2
    assert stdout == ""
    assert capsys.readouterr().err.startswith("error: ")


# A field of a committed tabu record, and a value of the wrong JSON type.
WRONGLY_TYPED_FIELDS = {
    "n-string": ("n", "13"),
    "run_index-float": ("run_index", 0.0),
    "seed-bool": ("seed", True),
    "best_energy-null": ("best_energy", None),
    "total_evals-string": ("total_evals", "5096"),
    "tts-string": ("tts", "5096"),
    "tts_2nd-object": ("tts_2nd", {"evals": 61}),
    "tts_1st-bool": ("tts_1st", False),
    "wall_time-string": ("wall_time", "0.5"),
    "solver-number": ("solver", 1),
    "config-array": ("config", []),
}


@pytest.mark.parametrize("command", ["fit", "ks"])
@pytest.mark.parametrize("bad", sorted(WRONGLY_TYPED_FIELDS))
def test_wrongly_typed_record_field_exits_2(bad, command, tmp_path, capsys):
    name, value = WRONGLY_TYPED_FIELDS[bad]
    record = {**json.loads(TABU_RECORDS.read_text().splitlines()[0]), name: value}
    records = tmp_path / "records.jsonl"
    records.write_text((json.dumps(record) + "\n") * 3)
    sample = tmp_path / "sample.json"
    sample.write_text(json.dumps([1.0, 2.0, 3.0]))
    argv = {"fit": ["fit", "--records"], "ks": ["ks", "--b", str(sample), "--a"]}[command]
    rc, stdout = run_cli([*argv, str(records)])
    assert rc == 2
    assert stdout == ""
    assert f"field {name!r} must be" in capsys.readouterr().err


def test_ks_reads_a_one_line_records_file(tmp_path):
    line = TABU_RECORDS.read_text().splitlines()[0]
    records = tmp_path / "records.jsonl"
    records.write_text(line + "\n")
    sample = tmp_path / "sample.json"
    sample.write_text(json.dumps([1.0, 2.0, 3.0]))
    doc = run_json(["ks", "--a", str(records), "--b", str(sample)])
    expected = bench.ks_two_sample([float(json.loads(line)["tts"])], [1.0, 2.0, 3.0])
    assert doc == {"schema_version": 1, **expected.to_dict()}


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
