"""The benchmark's tracer must find every name it wraps.

``benchmark/spans.py`` times difftrack by replacing functions at the names
their callers look them up by. A name that a cleanup removes or moves
would make ``benchmark/run.py --trace 1`` fail, so every one of them is
checked here, and a traced run must count what the run did and leave
every name as it found it.
"""

import importlib.util
import os

from difftrack import harness
from difftrack.harness import ExperimentConfig, run_experiment

SPANS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmark", "spans.py"
)


def load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_name_exists():
    targets = load_spans().difftrack_targets(harness)
    assert targets
    for owner, attr, name, _ in targets:
        assert attr in vars(owner), f"{owner.__name__}.{attr}, traced as {name}, is gone"


def test_traced_run_counts_its_prunes_and_restores_every_name():
    spans = load_spans()
    targets = spans.difftrack_targets(harness)
    originals = [owner.__dict__[attr] for owner, attr, _, _ in targets]
    tracer = spans.Tracer(targets)
    cfg = ExperimentConfig(n_trials=1, n_iterations=30, seed=1)
    with tracer.installed():
        detail = run_experiment(cfg).detail
    figures = tracer.layer_metrics()
    removed = int(detail["adjacency_initial"].sum()) - int(detail["adjacency_final"].sum())
    assert removed > 0
    assert figures["topology.edges_pruned"] == removed // 2
    assert figures["topology.prune_cross_links.calls"] == cfg.n_iterations - cfg.prune_window + 1
    for (owner, attr, name, _), original in zip(targets, originals):
        assert owner.__dict__[attr] is original, f"{name} is still wrapped"
