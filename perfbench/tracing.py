"""Spans around the public functions of ``reflectwalk``, and the layer metrics.

The tracer measures each module from outside.  ``Tracer.install`` replaces a
public function by a wrapper wherever it is looked up: on its class for
methods, and in every ``reflectwalk`` module namespace that binds it for
functions (``reflect_core`` reaches ``exact_1d.classify_positive_recurrence``
through the module, the benchmark reaches most functions through the package).
A wrapper records one span per call (name, start, end, parent) in memory, plus
a few numbers read from the call's result.  ``Tracer.uninstall`` restores the
originals, so untraced runs execute unmodified library code.

A span's self time is its duration minus the durations of its direct children;
children of one span never overlap because the benchmark is single-threaded.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int            # index of the enclosing span, -1 for a root
    stats: dict | None = None


def _draws(out):
    return {"draws": int(np.size(out))}


def _joint_draws(out):
    return {"draws": int(np.shape(out)[0])}


def _jump_steps(out):
    """Jump walkers: replicas x horizon, as echoed by the result."""
    horizon = out["budget"] if "budget" in out else out["grid"][-1]
    return {"replica_steps": int(out["replicas"]) * int(horizon)}


def _converged(out):
    return {"converged": int(np.count_nonzero(out.converged)),
            "samples": int(out.converged.size)}


def _capped(out):
    return {"capped": int(out.capped_excursions),
            "excursions": int(out.samples) + int(out.capped_excursions)}


# (module, attribute path, stats read from the result).  The metric name is
# the module's last component followed by the attribute path.
TARGETS = [
    ("reflectwalk.measures", "Measure1D.sample", _draws),
    ("reflectwalk.measures", "JointMeasure.sample", _joint_draws),
    ("reflectwalk.measures", "SubordinatorAlpha.sample", _draws),
    ("reflectwalk.measures", "SubordinatorAlpha.conditional_tail_sample", _draws),
    ("reflectwalk.measures", "wiener_hopf_log_tail", None),
    ("reflectwalk.measures", "subordinated", None),
    ("reflectwalk.reflect_core", "simulate", None),
    ("reflectwalk.reflect_core", "parity_return_times", None),
    ("reflectwalk.reflect_core", "induced_word", None),
    ("reflectwalk.reflect_core", "backward_sample", _converged),
    ("reflectwalk.reflect_core", "contraction_distance_profile", None),
    ("reflectwalk.diagnostics", "occupation_vs_invariant", None),
    ("reflectwalk.diagnostics", "return_time_stats", None),
    ("reflectwalk.diagnostics", "reflected_plus_free_experiment", None),
    ("reflectwalk.diagnostics", "cesaro_lower_bound", None),
    ("reflectwalk.diagnostics", "subordinated_return_exponent", _jump_steps),
    ("reflectwalk.diagnostics", "dimension_transience_probe", _jump_steps),
    ("reflectwalk.diagnostics", "product_null_recurrence_probe", _jump_steps),
    ("reflectwalk.diagnostics", "SubordinatorSumSampler.__init__", None),
    ("reflectwalk.diagnostics", "SubordinatorSumSampler.sample_sum", None),
    ("reflectwalk.diagnostics", "symmetrization_check", None),
    ("reflectwalk.exact_1d", "ladder_monte_carlo", _capped),
    ("reflectwalk.exact_1d", "symmetric_equivalence_check", None),
    ("reflectwalk.exact_1d", "invariant_measure_nonneg", None),
    ("reflectwalk.exact_1d", "reflected_kernel_matrix", None),
    ("reflectwalk.exact_1d", "recurrence_criteria", None),
    ("reflectwalk.exact_1d", "classify_positive_recurrence", None),
    ("reflectwalk.exact_1d", "ladder_exact_skip_free", None),
    ("reflectwalk.exact_1d", "wiener_hopf_construct", None),
    ("reflectwalk.lattice_structure", "parity_group", None),
    ("reflectwalk.lattice_structure", "essential_classes", None),
    ("reflectwalk.lattice_structure", "constant_map_witness", None),
]


def span_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr.replace('__init__', 'init')}"


SAMPLERS = [span_name(m, a) for m, a, s in TARGETS if s in (_draws, _joint_draws)]
STEP_WALKERS = [
    "reflect_core.simulate", "reflect_core.parity_return_times",
    "reflect_core.induced_word", "reflect_core.backward_sample",
    "reflect_core.contraction_distance_profile",
    "diagnostics.occupation_vs_invariant", "diagnostics.return_time_stats",
    "diagnostics.reflected_plus_free_experiment", "diagnostics.cesaro_lower_bound",
    "exact_1d.ladder_monte_carlo",
]
JUMP_WALKERS = [span_name(m, a) for m, a, s in TARGETS if s is _jump_steps]


class Tracer:
    """Records spans of wrapped library calls while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """A span around benchmark code, for example one round of jobs."""
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def _wrap(self, name, fn, stats):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(s)
            if stats is not None:
                s.stats = stats(out)
            return out
        return traced

    def install(self):
        """Wrap every target; call :meth:`uninstall` to restore them."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for module, attr, stats in TARGETS:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            wrapped = self._wrap(span_name(module, attr), original, stats)
            holders = [owner] if path else [
                mod for key, mod in list(sys.modules.items())
                if (key == "reflectwalk" or key.startswith("reflectwalk."))
                and mod.__dict__.get(leaf) is original]
            for holder in holders:
                setattr(holder, leaf, wrapped)
                self._restore.append((holder, leaf, original))

    def uninstall(self):
        for holder, leaf, original in reversed(self._restore):
            setattr(holder, leaf, original)
        self._restore.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def _subtree(spans: list[Span], root: int) -> list[int]:
    """Indices of ``root`` and its descendants (children follow parents)."""
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i].parent in inside:
            inside.add(i)
    return sorted(inside)


def layer_metrics(spans: list[Span], root: int) -> dict[str, float]:
    """Per-layer metrics of the span tree under ``root`` (a benchmark span).

    ``<name>.calls``, ``<name>.self_s`` for every target; ``draws`` for the
    samplers; ``replica_steps`` for walkers (per-step walkers: draws of the
    outermost sampler spans beneath them; jump walkers: replicas x horizon);
    plus the ratios named in the README.
    """
    idx = _subtree(spans, root)
    own = self_times(spans)
    out: dict[str, float] = {}
    names = [span_name(m, a) for m, a, _ in TARGETS]
    for name in names:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    for name in SAMPLERS:
        out[f"{name}.draws"] = 0
    for name in STEP_WALKERS + JUMP_WALKERS:
        out[f"{name}.replica_steps"] = 0
    converged = [0, 0]
    capped = [0, 0]
    outer = {"draws": 0, "calls": 0, "seconds": 0.0}
    walker_time = {"reflect_core": 0.0, "diagnostics": 0.0}
    sampler_of = {root: -1}   # nearest enclosing sampler span, or -1
    walker_of = {root: -1}    # nearest enclosing per-step walker span, or -1
    for i in idx[1:]:
        s = spans[i]
        sampler_of[i] = i if s.name in SAMPLERS else sampler_of[s.parent]
        walker_of[i] = i if s.name in STEP_WALKERS else walker_of[s.parent]
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.self_s"] += own[i]
        stats = s.stats or {}
        if "draws" in stats:
            out[f"{s.name}.draws"] += stats["draws"]
            if sampler_of[s.parent] == -1:       # outermost sampling call
                outer["draws"] += stats["draws"]
                outer["calls"] += 1
                outer["seconds"] += s.end - s.start
                if walker_of[s.parent] != -1:
                    w = spans[walker_of[s.parent]].name
                    out[f"{w}.replica_steps"] += stats["draws"]
        if "replica_steps" in stats:
            out[f"{s.name}.replica_steps"] += stats["replica_steps"]
        if "converged" in stats:
            converged[0] += stats["converged"]
            converged[1] += stats["samples"]
        if "capped" in stats:
            capped[0] += stats["capped"]
            capped[1] += stats["excursions"]
        module = s.name.split(".", 1)[0]
        if module in walker_time and (s.name in STEP_WALKERS or s.name in JUMP_WALKERS):
            walker_time[module] += s.end - s.start
    for module, seconds in walker_time.items():
        steps = sum(out[f"{w}.replica_steps"] for w in STEP_WALKERS + JUMP_WALKERS
                    if w.startswith(module + "."))
        out[f"{module}.replica_steps_per_s"] = steps / seconds if seconds else 0.0
    out["measures.draws_per_call"] = (outer["draws"] / outer["calls"]
                                      if outer["calls"] else 0.0)
    out["measures.draws_per_s"] = (outer["draws"] / outer["seconds"]
                                   if outer["seconds"] else 0.0)
    out["reflect_core.backward_sample.converged_frac"] = (
        converged[0] / converged[1] if converged[1] else 0.0)
    out["exact_1d.ladder_monte_carlo.capped_frac"] = (
        capped[0] / capped[1] if capped[1] else 0.0)
    out["bench.self_s"] = own[root]
    out["trace.wall_s"] = spans[root].end - spans[root].start
    return out
