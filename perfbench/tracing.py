"""Spans around the calls into each layer of the package, recorded from outside it.

``Tracer.install`` wraps every public function of the layer modules and
rebinds each module attribute that refers to one, so ``from .x import f``
imports and calls within a module both pass through the wrapper. Spans
(name, start, end, parent, operation id) and counts stay in memory until
``write``.

A span's self time is its duration minus that of its child spans. Each layer's
self time is split into metrics: a span named in ``OPENS`` starts a metric,
other spans inherit the metric of their nearest ancestor in the same layer,
and spans with no such ancestor fall to their layer's default.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import Counter
from pathlib import Path
from time import perf_counter

LAYERS = ("database", "operators", "evolve", "spectrum", "nmr", "reporting")

OPENS = {
    "database.load_rows": "database.load_s",
    "database.load_rows_csv": "database.load_s",
    "database.load_rows_json": "database.load_s",
    "database.decode_outcome": "database.decode_s",
    "operators.pauli_decompose": "operators.pauli_s",
    "operators.pauli_compose": "operators.pauli_s",
    "operators.operator_to_json": "operators.pauli_s",
    "operators.operator_from_json": "operators.pauli_s",
    "evolve.evolve_continuous": "evolve.continuous_s",
    "evolve.evolve_discrete_exact": "evolve.discrete_s",
    "evolve.evolve_trotter": "evolve.trotter_s",
    "evolve.trotter_fidelity_audit": "evolve.audit_s",
    "spectrum.trace_spectrum": "spectrum.trace_s",
    "spectrum.min_gap": "spectrum.gap_s",
    "spectrum.time_to_success": "spectrum.tts_s",
    "nmr.simulate_sequence": "nmr.simulate_s",
    "nmr.sequence_unitary_with_phase": "nmr.simulate_s",
}

DEFAULT = {
    "cli": "cli.self_s",
    "database": "database.encode_s",
    "operators": "operators.build_s",
    "evolve": "evolve.other_s",
    "spectrum": "spectrum.sweep_s",
    "nmr": "nmr.compile_s",
    "reporting": "reporting.write_s",
}

TIME_METRICS = sorted(set(OPENS.values()) | set(DEFAULT.values()))


def _count(counts: Counter, name: str, args: tuple, result) -> None:
    """Work counts taken from a call's arguments and result."""
    if name == "operators.pauli_decompose":
        counts["operators.pauli_strings"] += 4 ** args[0].n_qubits  # computed: the 4^n loop
        counts["operators.pauli_terms"] += len(result)
    elif name in ("evolve.exact_step", "evolve.trotter_step"):
        counts["evolve.steps"] += 1
    elif name == "spectrum.trace_spectrum":
        counts["spectrum.eigh_calls"] += len(result.s_grid)
    elif name == "nmr.compile_full":
        counts["nmr.pulse_ops"] += sum(len(seq.ops) for seq in result)
    elif name == "reporting.atomic_write_text":
        counts["reporting.bytes"] += len(args[1].encode("utf-8"))


# Errors counted where they are raised; outer spans see the same exception pass.
ERRORS = {
    ("evolve.evolve_continuous", "StepTooLarge"): "evolve.drift_failures",
    ("spectrum.time_to_success", "SweepTimeout"): "spectrum.timeouts",
}

COUNT_METRICS = ["evolve.drift_failures", "evolve.steps", "nmr.pulse_ops", "operators.pauli_strings",
                 "operators.pauli_terms", "reporting.bytes", "spectrum.eigh_calls", "spectrum.timeouts"]

# Units of every per-layer metric, the tracing overhead included.
UNITS = {
    **{m: "s" for m in TIME_METRICS},
    **{m: "count" for m in COUNT_METRICS},
    "reporting.bytes": "bytes",
    "operators.pauli_yield": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, operation id]
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, self._stack[-1] if self._stack else -1, self.op_id])
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            metric = ERRORS.get((name, type(exc).__name__))
            if metric:
                self.counts[metric] += 1
            raise
        finally:
            self.spans[index][2] = perf_counter()
            self._stack.pop()
        _count(self.counts, name, args, result)
        return result

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer module, wherever they are bound."""
        modules = [importlib.import_module(f"adiasearch.{m}") for m in LAYERS + ("cli",)]
        wrapped = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])
                    self._restore.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Self time per layer metric, the counts, and the Pauli yield."""
        metric: list[str] = []
        own = [end - start for _, start, end, _, _ in self.spans]
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                own[parent] -= end - start
            layer = name.split(".", 1)[0]
            chosen = OPENS.get(name)
            p = parent
            while chosen is None and p >= 0:
                if self.spans[p][0].split(".", 1)[0] == layer:
                    chosen = metric[p]
                p = self.spans[p][3]
            metric.append(chosen or DEFAULT[layer])
        out = {m: 0.0 for m in TIME_METRICS}
        for m, t in zip(metric, own):
            out[m] += t
        out.update({m: float(self.counts[m]) for m in COUNT_METRICS})
        strings = self.counts["operators.pauli_strings"]
        out["operators.pauli_yield"] = self.counts["operators.pauli_terms"] / strings if strings else 0.0
        return out

    def write(self, path: Path, t0: float) -> None:
        """Spans as JSON lines (times in seconds from ``t0``), then one line of counts."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0, "end": end - t0, "parent": parent, "op": op}) + "\n")
            fh.write(json.dumps({"counts": dict(sorted(self.counts.items()))}) + "\n")
