"""Outside-in tracer for the qdds layers.

Spans are recorded from outside the package: each layer function is
replaced, in the module namespace its caller looks it up in, by a
wrapper that appends (name, start, end, parent) to in-memory lists.
The engine binds the well functions with ``from .well import``, so they
are wrapped as ``qdds.engine.<name>``; ``Objective.evaluate`` is wrapped
through ``dataclasses.replace`` on the objective the traced
``build_problem`` returns. ``restore`` puts every original back.

A span's self time is its duration minus the time its direct children
cover. Work counts (elements solved, gate branches fired, computed FIR
multiply-adds) are taken at the same boundaries from argument and
result sizes.
"""

from __future__ import annotations

import collections
import functools
import time
from dataclasses import replace

import numpy as np


def _count_solve(counts, args, out):
    n = np.size(args[0])
    counts["well.solve.elems"] += n
    counts["well.solve.fallbacks"] += int(out[2])
    counts["well.solve.unsolved"] += n - int(np.count_nonzero(out[1]))


def _count_gate(counts, args, out):
    counts["well.gate.elems"] += np.size(args[0])
    counts["well.gate.fired"] += int(np.count_nonzero(out[1]))


def _count_response(counts, args, out):
    # one complex128 basis element exp(-j w n) and one multiply-add per (w, n)
    macs = np.size(args[0]) * np.size(args[1])
    counts["filters.response.macs"] += macs
    counts["filters.response.basis_bytes"] += 16 * macs


def _count_points(counts, args, out):
    counts["svg.line_plot.points"] += sum(len(xs) for xs, _ in args[0])


# (module, attribute, span name, work counter); the module is where the
# caller looks the function up
LAYERS = (
    ("engine", "delta_update_arrays", "well.gate", _count_gate),
    ("engine", "solve_r_batch", "well.solve", _count_solve),
    ("engine", "delta_of_r", "well.rebind", None),
    ("engine", "blend_with_gbest", "engine.blend", None),
    ("engine", "init_swarm", "engine.init", None),
    ("engine", "step", "engine.step", None),
    ("filters", "fir_response_magnitude", "filters.response", _count_response),
    ("filters", "stopband_attenuation_db", "filters.attenuation", None),
    ("harness", "run_experiment", "harness.run_experiment", None),
    ("harness", "run_trial", "harness.run_trial", None),
    ("harness", "emit_plot", "harness.emit_plot", None),
    ("harness", "build_report", "harness.build_report", None),
    ("harness", "line_plot", "svg.line_plot", _count_points),
    ("svg", "line_plot", "svg.line_plot", _count_points),
)


class Tracer:
    """In-memory span recorder with patch/restore of module attributes."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: collections.Counter = collections.Counter()
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, count=None):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, out)
            return out

        return traced

    def _patch(self, module, attr, replacement):
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self, qdds_modules):
        """Wrap every layer function; qdds_modules maps short name -> module."""
        wrapped = {}
        for mod_name, attr, name, count in LAYERS:
            orig = getattr(qdds_modules[mod_name], attr)
            if orig not in wrapped:
                wrapped[orig] = self.wrap(name, orig, count)
            self._patch(qdds_modules[mod_name], attr, wrapped[orig])

        harness = qdds_modules["harness"]
        build = harness.build_problem
        wrap = self.wrap

        def build_problem(config):
            objective, spec = build(config)
            evaluate = wrap("objectives.evaluate", objective.evaluate)
            return replace(objective, evaluate=evaluate), spec

        self._patch(harness, "build_problem", wrap("harness.build_problem", build_problem))

    def restore(self):
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    def arrays(self):
        """Span table as numpy arrays: (name table, codes, start, end, parent)."""
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        codes = np.fromiter((index[n] for n in self.names), dtype=np.int32, count=len(self.names))
        return (
            table,
            codes,
            np.asarray(self.starts),
            np.asarray(self.ends),
            np.asarray(self.parents, dtype=np.int64),
        )

    def save(self, path):
        table, codes, start, end, parent = self.arrays()
        np.savez(path, names=np.asarray(table), code=codes, start=start, end=end, parent=parent)


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """Per-layer counts and times of one traced pass that took wall seconds."""
    table, codes, start, end, parent = tracer.arrays()
    dur = end - start
    n = dur.size
    has_parent = parent >= 0
    cover = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - cover

    def code(name):
        return table.index(name) if name in table else -1

    def mask(name):
        return codes == code(name)

    def calls(name):
        return int(mask(name).sum())

    def self_s(name):
        return float(self_time[mask(name)].sum())

    def total_s(name):
        return float(dur[mask(name)].sum())

    def children_of(child, parent_name):
        m = mask(child) & has_parent
        return int((codes[parent[m]] == code(parent_name)).sum())

    c = tracer.counts

    trial_mask = mask("harness.run_trial") & has_parent
    trial_cover = np.bincount(parent[trial_mask], weights=dur[trial_mask], minlength=n)
    run = mask("harness.run_experiment")
    emit_s = float((dur[run] - trial_cover[run]).sum())

    def per(x, y, scale=1.0):
        return scale * x / y if y else 0.0

    solve_elems = c["well.solve.elems"]
    gate_elems = c["well.gate.elems"]
    evaluate_calls = calls("objectives.evaluate")
    return {
        "well.solve.calls": calls("well.solve"),
        "well.solve.elems": solve_elems,
        "well.solve.self_s": self_s("well.solve"),
        "well.solve.us_per_elem": per(self_s("well.solve"), solve_elems, 1e6),
        "well.solve.fallbacks": c["well.solve.fallbacks"],
        "well.solve.unsolved": c["well.solve.unsolved"],
        "well.gate.calls": calls("well.gate"),
        "well.gate.elems": gate_elems,
        "well.gate.self_s": self_s("well.gate"),
        "well.gate.fired_ratio": per(c["well.gate.fired"], gate_elems),
        "well.rebind.calls": calls("well.rebind"),
        "well.rebind.self_s": self_s("well.rebind"),
        "engine.step.calls": calls("engine.step"),
        "engine.step.self_s": self_s("engine.step"),
        "engine.init.self_s": self_s("engine.init"),
        "engine.init.evals": children_of("objectives.evaluate", "engine.init"),
        "engine.blend.self_s": self_s("engine.blend"),
        "engine.updates": calls("engine.blend"),
        "objectives.evaluate.calls": evaluate_calls,
        "objectives.evaluate.self_s": self_s("objectives.evaluate"),
        "objectives.evaluate.us_per_call": per(total_s("objectives.evaluate"), evaluate_calls, 1e6),
        "filters.response.calls": calls("filters.response"),
        "filters.response.self_s": self_s("filters.response"),
        "filters.response.macs": c["filters.response.macs"],
        "filters.response.basis_bytes": c["filters.response.basis_bytes"],
        "filters.attenuation.self_s": self_s("filters.attenuation"),
        "harness.build_problem.calls": calls("harness.build_problem"),
        "harness.build_problem.s": total_s("harness.build_problem"),
        "harness.emit_s": emit_s,
        "svg.line_plot.calls": calls("svg.line_plot"),
        "svg.line_plot.self_s": self_s("svg.line_plot"),
        "svg.line_plot.points": c["svg.line_plot.points"],
        "trace.wall_s": wall,
        "trace.self_share": per(float(self_time.sum()), wall),
    }
