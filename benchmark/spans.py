"""Per-module timing of difftrack from outside the package.

``Tracer.installed()`` replaces each public function the run goes through
with a timing wrapper, at the name its caller looks it up by (for example
``difftrack.engine.inverse_spd``, which the engine imported from
``numerics``), and puts every original object back when the block ends.
Spans nest: a wrapper's time is also charged to the enclosing wrapper's
children, so self time is a span's time minus its wrapped children's.
Outside that block no name in difftrack is wrapped and tracing costs
nothing.
"""

from __future__ import annotations

import functools
import math
import os
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("calls", "total_s", "child_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.child_s = 0.0


def _count_matrices(tracer, args, kwargs, result):
    a = args[0]
    tracer.counts["numerics.inverse_spd.matrices"] += math.prod(a.shape[:-2])


def _count_pruned(tracer, args, kwargs, result):
    net = args[0]
    if result is not net:
        tracer.counts["topology.prune_cross_links.useful"] += 1
        removed = int(net.adjacency.sum()) - int(result.adjacency.sum())
        tracer.counts["topology.edges_pruned"] += removed // 2


def _count_bytes(tracer, args, kwargs, result):
    out_dir = args[1]
    tracer.counts["harness.write_outputs.bytes"] += sum(
        entry.stat().st_size for entry in os.scandir(out_dir) if entry.is_file()
    )


def difftrack_targets(harness):
    """(owner, attribute, span name, counting hook) for every traced name."""
    import difftrack.dynamics as dynamics
    import difftrack.engine as engine
    import difftrack.metrics as metrics

    return [
        (engine, "inverse_spd", "numerics.inverse_spd", _count_matrices),
        (engine, "symmetrize", "numerics.symmetrize", None),
        (dynamics, "symmetrize", "numerics.symmetrize", None),
        (engine.DiffusionKalmanEngine, "run_step", "engine.run_step", None),
        (engine, "consistent_pairs", "combiners.consistent_pairs", None),
        (metrics, "consistent_pairs", "combiners.consistent_pairs", None),
        (engine, "validate_combination_matrix", "combiners.validate_combination_matrix", None),
        (engine, "static_weights", "combiners.static_weights", None),
        (engine, "prune_cross_links", "topology.prune_cross_links", _count_pruned),
        (harness, "generate_geometric", "topology.generate_geometric", None),
        (harness, "initial_partition", "topology.initial_partition", None),
        (harness, "step_truth", "dynamics.step_truth", None),
        (harness, "msd_accumulate", "metrics.msd_accumulate", None),
        (harness, "read_clusters", "metrics.read_clusters", None),
        (harness, "cluster_recovery_score", "metrics.cluster_recovery_score", None),
        (harness, "run_experiment", "harness.run_experiment", None),
        (harness, "write_outputs", "harness.write_outputs", _count_bytes),
    ]


class Tracer:
    """Collects spans and counts while installed; reset between operations."""

    def __init__(self, targets):
        self.targets = targets
        self._stack = []
        self.reset()

    def reset(self) -> None:
        self.spans = {}
        self.counts = {
            "numerics.inverse_spd.matrices": 0,
            "topology.prune_cross_links.useful": 0,
            "topology.edges_pruned": 0,
            "harness.write_outputs.bytes": 0,
        }

    def _wrap(self, fn, name, hook):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.spans.get(name)
            if span is None:
                span = self.spans[name] = Span()
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                span.calls += 1
                span.total_s += elapsed
                span.child_s += frame[0]
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, hook in self.targets:
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(original, name, hook))
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_metrics(self) -> dict:
        """The per-layer figures of everything recorded since reset()."""
        spans = self.spans

        def calls(name):
            return spans[name].calls if name in spans else 0

        def total(name):
            return spans[name].total_s if name in spans else 0.0

        def self_s(name):
            return spans[name].total_s - spans[name].child_s if name in spans else 0.0

        matrices = self.counts["numerics.inverse_spd.matrices"]
        prunes = calls("topology.prune_cross_links")
        return {
            "numerics.inverse_spd.calls": calls("numerics.inverse_spd"),
            "numerics.inverse_spd.matrices": matrices,
            "numerics.inverse_spd.s": total("numerics.inverse_spd"),
            "numerics.inverse_spd.us_per_matrix": (
                1e6 * total("numerics.inverse_spd") / matrices if matrices else 0.0
            ),
            "numerics.symmetrize.calls": calls("numerics.symmetrize"),
            "numerics.symmetrize.s": total("numerics.symmetrize"),
            "engine.run_step.calls": calls("engine.run_step"),
            "engine.run_step.s": total("engine.run_step"),
            "engine.run_step.self_s": self_s("engine.run_step"),
            "combiners.consistent_pairs.calls": calls("combiners.consistent_pairs"),
            "combiners.consistent_pairs.s": total("combiners.consistent_pairs"),
            "combiners.validate_combination_matrix.calls": calls(
                "combiners.validate_combination_matrix"
            ),
            "combiners.validate_combination_matrix.s": total(
                "combiners.validate_combination_matrix"
            ),
            "combiners.static_weights.calls": calls("combiners.static_weights"),
            "topology.prune_cross_links.calls": prunes,
            "topology.prune_cross_links.s": total("topology.prune_cross_links"),
            "topology.prune_cross_links.useful_ratio": (
                self.counts["topology.prune_cross_links.useful"] / prunes if prunes else 0.0
            ),
            "topology.edges_pruned": self.counts["topology.edges_pruned"],
            "topology.generate_geometric.s": total("topology.generate_geometric"),
            "topology.initial_partition.s": total("topology.initial_partition"),
            "dynamics.step_truth.calls": calls("dynamics.step_truth"),
            "dynamics.step_truth.s": total("dynamics.step_truth"),
            "metrics.msd_accumulate.s": total("metrics.msd_accumulate"),
            "metrics.read_clusters.s": total("metrics.read_clusters"),
            "metrics.cluster_recovery_score.s": total("metrics.cluster_recovery_score"),
            "harness.run_experiment.self_s": self_s("harness.run_experiment"),
            "harness.write_outputs.s": total("harness.write_outputs"),
            "harness.write_outputs.bytes": self.counts["harness.write_outputs.bytes"],
        }
