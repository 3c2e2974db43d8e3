"""Span tracing of ``pcelabs`` by attribute substitution.

The program is not instrumented.  ``Tracer.install`` replaces public
functions and methods of each module with wrappers that record a span
(name, start, end, parent, solve id) and the counts the per-layer
metrics need; ``Tracer.uninstall`` puts the originals back.  Self time of
a span is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

import numpy as np


class _EinsumBytes:
    """Stands in for ``numpy`` inside ``baselines``: forwards every name,
    and adds the operand and result sizes of each ``einsum`` to a count."""

    def __init__(self, counts: Counter):
        self._counts = counts

    def __getattr__(self, name):
        value = getattr(np, name)
        setattr(self, name, value)  # later lookups skip __getattr__
        return value

    def einsum(self, *operands, **kwargs):
        out = np.einsum(*operands, **kwargs)
        moved = sum(op.nbytes for op in operands if isinstance(op, np.ndarray))
        self._counts["baselines.exact_bytes_computed"] += moved + out.nbytes
        return out


def _evolve_rows(counts: Counter, args, result) -> None:
    counts["state_sim.evolve_rows"] += result.shape[0]


def _generations(counts: Counter, args, result) -> None:
    counts["baselines.memetic_generations"] += result.restarts_used


class Tracer:
    """Collects spans and counts while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.solve = -1
        self._open: list[list] = []  # [span index, child ns] per open span
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn, count=None):
        spans, opened, self_ns, counts = self.spans, self._open, self.self_ns, self.counts
        clock = time.perf_counter_ns
        calls = name + "_calls"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = opened[-1][0] if opened else -1
            frame = [len(spans), 0]
            spans.append(None)
            opened.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                opened.pop()
                duration = end - start
                if opened:
                    opened[-1][1] += duration
                self_ns[name] += duration - frame[1]
                spans[frame[0]] = (name, start, end, parent, tracer.solve)
            counts[calls] += 1
            if count is not None:
                count(counts, args, result)
            return result

        return wrapper

    def _substitute(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        from pcelabs import baselines, labs_core, pce_solver, state_sim

        spans = [
            (pce_solver, "solve", "pce_solver.solve", None),
            (baselines, "tabu_search", "baselines.tabu", None),
            (baselines, "memetic_tabu", "baselines.memetic", _generations),
            (baselines, "exact_solve", "baselines.exact", None),
            (state_sim, "run_ansatz_batch", "state_sim.evolve", _evolve_rows),
            (state_sim, "expectations_batch", "state_sim.expect", None),
            (pce_solver.LossContext, "__init__", "pce_solver.restart_setup", None),
            (pce_solver.LossContext, "gradient", "pce_solver.gradient", None),
            (pce_solver, "decode", "pce_solver.score", None),
            (pce_solver, "sidelobe_energy", "pce_solver.score", None),
            (pce_solver, "sample_anticommuting_set", "pauli_algebra.sample", None),
            (pce_solver, "sample_commuting_set", "pauli_algebra.sample", None),
            (pce_solver, "canonicalize", "labs_core.canonicalize", None),
            (baselines, "canonicalize", "labs_core.canonicalize", None),
            (labs_core.FlipWorkspace, "__init__", "labs_core.workspace_init", None),
            (labs_core.FlipWorkspace, "propose_all", "labs_core.propose_all", None),
            (labs_core.FlipWorkspace, "commit", "labs_core.commit", None),
        ]
        for owner, attr, name, count in spans:
            self._substitute(owner, attr, self._wrap(name, owner.__dict__[attr], count))

        counts = self.counts
        read = labs_core.FlipWorkspace.__dict__["sequence"].fget

        def counted_read(ws):
            counts["labs_core.sequence_reads"] += 1
            return read(ws)

        self._substitute(labs_core.FlipWorkspace, "sequence", property(counted_read))
        self._substitute(baselines, "np", _EinsumBytes(counts))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take_round(self) -> tuple[Counter, Counter]:
        """Self times (s) and counts since the last call, then reset them."""
        self_s = Counter({k: v / 1e9 for k, v in self.self_ns.items()})
        counts = self.counts.copy()
        self.self_ns.clear()
        self.counts.clear()
        return self_s, counts

    def write_spans(self, path) -> None:
        """One JSON line per span: [name, start_ns, end_ns, parent, solve]."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
