"""Fast tests of the benchmark itself: each output check rejects a corrupted
result, and tracing leaves difftrack as it found it.

Run from the repository root with ``python3 -m pytest benchmark``.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import workloads
from spans import Tracer, difftrack_targets

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
harness = workloads.load_difftrack(ROOT)


@pytest.fixture(scope="module")
def adaptive_run():
    return harness.run_experiment(harness.ExperimentConfig(n_trials=2, seed=1))


@pytest.fixture()
def sweep_dir(tmp_path):
    cfg = harness.ExperimentConfig(n_trials=1, n_iterations=10, seed=1)
    sweep = harness.policy_sweep(cfg, workloads.SWEEP_POLICIES, weights_every=1)
    harness.write_outputs(sweep, tmp_path)
    return sweep, tmp_path


def test_adaptive_run_passes_every_check(adaptive_run):
    assert workloads.check_adaptive_run(adaptive_run) == []


def test_recovery_check_allows_one_miss_in_twenty_not_two():
    scores = np.ones(20)
    scores[3] = 0.9
    assert workloads.check_recovery(scores) == []
    scores[7] = 0.8
    assert workloads.check_recovery(scores)


def test_wrong_cluster_labels_are_rejected(adaptive_run):
    detail = adaptive_run.detail
    adjacency = detail["adjacency_final"]
    labels = detail["cluster_of"].copy()
    node = int(np.flatnonzero(adjacency.any(axis=0))[0])
    labels[node] = 3 - labels[node]
    assert workloads.check_cross_task_links(adjacency, labels)


def test_weight_column_off_by_1e_6_is_rejected(adaptive_run):
    c = adaptive_run.detail["final_C"].copy()
    c[0, 0] += 1e-6
    assert workloads.check_combination_matrix(c, adaptive_run.detail["adjacency_final"])


def test_weight_off_the_final_links_is_rejected(adaptive_run):
    detail = adaptive_run.detail
    c = detail["final_C"].copy()
    n, m = np.argwhere(~detail["adjacency_final"] & ~np.eye(c.shape[0], dtype=bool))[0]
    c[n, m] += 0.01
    c[m, m] -= 0.01
    assert workloads.check_combination_matrix(c, detail["adjacency_final"])


def test_msd_above_the_bound_is_rejected(adaptive_run):
    cfg = adaptive_run.config
    msd = adaptive_run.series.msd_linear.copy()
    tail = msd.shape[0] - msd.shape[0] // 5
    msd[tail:, 1] = 1.01 * workloads.msd_bound(cfg)
    assert workloads.check_steady_msd(msd, cfg)


def test_adaptive_not_below_static_is_rejected():
    steady = {"uniform": [1.0, 2.0], "relvar": [0.5, 3.0], "adaptive": [0.1, 0.2]}
    assert workloads.check_adaptive_beats_static(steady) == []
    steady["adaptive"] = [0.1, 2.5]
    assert workloads.check_adaptive_beats_static(steady)


def test_sweep_artifacts_pass_the_file_checks(sweep_dir):
    sweep, out = sweep_dir
    first = sweep.runs["uniform"].config
    assert workloads.check_msd_csv(out / "msd.csv", sweep.records, harness.read_msd_csv) == []
    for name in workloads.SWEEP_POLICIES:
        assert workloads.check_weights_csv(out / f"weights_{name}.csv", 30, 10) == []
    assert workloads.check_run_meta(out / "run_meta.json", first, harness.load_config) == []


def _edit_line(path, index, edit):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[index] = edit(lines[index])
    path.write_text("".join(lines), encoding="utf-8")


def test_weights_csv_column_off_by_1e_6_is_rejected(sweep_dir):
    _, out = sweep_dir
    path = out / "weights_adaptive.csv"

    def nudge(line):
        *head, weight = line.rstrip("\n").split(",")
        return ",".join(head + [repr(float(weight) + 1e-6)]) + "\n"

    _edit_line(path, 1, nudge)
    assert workloads.check_weights_csv(path, 30, 10)


def test_msd_csv_that_differs_from_the_records_is_rejected(sweep_dir):
    sweep, out = sweep_dir

    def bump(line):
        parts = line.rstrip("\n").split(",")
        parts[3] = repr(float(parts[3]) * 2.0)
        return ",".join(parts) + "\n"

    _edit_line(out / "msd.csv", 5, bump)
    assert workloads.check_msd_csv(out / "msd.csv", sweep.records, harness.read_msd_csv)


def test_run_meta_of_another_config_is_rejected(sweep_dir):
    sweep, out = sweep_dir
    other = dataclasses.replace(sweep.runs["uniform"].config, seed=2)
    assert workloads.check_run_meta(out / "run_meta.json", other, harness.load_config)


def test_tracing_restores_every_wrapped_name(tmp_path):
    targets = difftrack_targets(harness)
    originals = [owner.__dict__[attr] for owner, attr, _, _ in targets]
    tracer = Tracer(targets)
    cfg = harness.ExperimentConfig(n_trials=2, n_iterations=10, seed=1)
    with tracer.installed():
        assert all(
            owner.__dict__[attr] is not original
            for (owner, attr, _, _), original in zip(targets, originals)
        )
        run = harness.run_experiment(cfg)
        harness.write_outputs(run, tmp_path)
    for (owner, attr, _, _), original in zip(targets, originals):
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} still wrapped"
    figures = tracer.layer_metrics()
    assert figures["engine.run_step.calls"] == 20
    assert figures["numerics.inverse_spd.matrices"] >= figures["numerics.inverse_spd.calls"] > 0
    assert figures["harness.write_outputs.bytes"] > 0
    assert 0.0 <= figures["engine.run_step.self_s"] <= figures["engine.run_step.s"]


def test_tracing_restores_names_when_the_call_raises():
    targets = difftrack_targets(harness)
    originals = [owner.__dict__[attr] for owner, attr, _, _ in targets]
    with pytest.raises(harness.ConfigError):
        with Tracer(targets).installed():
            harness.policy_sweep(harness.ExperimentConfig(), [])
    assert [owner.__dict__[attr] for owner, attr, _, _ in targets] == originals


def test_run_without_the_program_sources_fails(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "benchmark/run.py", "--workload", "default-adaptive",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

