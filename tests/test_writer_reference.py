"""The column-by-column artifact writer against its row-by-row reference.

The reference is the form ``write_outputs`` once took: every line built
from one tuple of Python objects (a ``MetricsRecord`` per msd.csv row),
written through ``csv.writer``, which writes a float as its repr, and each
weights body formatted entry by entry with an f-string. The writer must
produce the same files, byte for byte, on every case below.
"""

import csv
import dataclasses
import json
import math
import os

import numpy as np
import pytest

from difftrack import __version__
from difftrack.combiners import POLICIES
from difftrack.harness import (
    MSD_HEADER,
    ExperimentConfig,
    RunResult,
    SweepResult,
    policy_sweep,
    write_outputs,
)


def write_rows(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        csv.writer(fh, lineterminator="\n").writerows(rows)


def write_topology_reference(prefix, positions, cluster_of, adjacency, alive):
    write_rows(
        f"{prefix}.csv",
        "node_id,x,y,cluster",
        zip(range(len(positions)), *positions.T.tolist(), cluster_of.tolist()),
    )
    a, b = np.nonzero(np.triu(adjacency, 1))
    rows = zip(a.tolist(), b.tolist(), alive[a, b].astype(int).tolist())
    write_rows(f"{prefix}_edges.csv", "node_a,node_b,alive", rows)


def write_outputs_reference(result, out_dir):
    """The artifact file set, written row by row."""
    if isinstance(result, RunResult):
        result = SweepResult({result.config.policy: result})
    os.makedirs(out_dir, exist_ok=True)
    runs = result.runs
    cfg = next(iter(runs.values())).config
    write_rows(
        os.path.join(out_dir, "msd.csv"),
        MSD_HEADER,
        (
            (r.iteration, r.cluster_id, r.policy, r.msd_linear, r.msd_db, r.n_trials)
            for r in result.records
        ),
    )

    rows = []
    for name, run in runs.items():
        truths = run.detail["truths"]
        est = run.detail["est_mean"]
        for j in range(truths.shape[0]):
            for i in range(truths.shape[1]):
                e = est[j, i] if i < est.shape[1] else (math.nan, math.nan)
                rows.append(
                    (j, i + 1, float(truths[j, i, 0]), float(truths[j, i, 1]),
                     name, float(e[0]), float(e[1]))
                )
    write_rows(
        os.path.join(out_dir, "trajectory.csv"),
        "iteration,target_id,x,y,policy,est_x,est_y",
        rows,
    )

    topo_policy = "adaptive" if "adaptive" in runs else next(iter(runs))
    detail = runs[topo_policy].detail
    adj0 = detail["adjacency_initial"]
    for stage, alive in (("initial", adj0), ("final", detail["adjacency_final"])):
        write_topology_reference(
            os.path.join(out_dir, f"topology_{stage}"),
            detail["positions"], detail["cluster_of"], adj0, alive,
        )

    for name, run in runs.items():
        snaps = run.detail["snapshots"]
        if not snaps:
            continue
        path = os.path.join(out_dir, f"weights_{name}.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("iteration,n,m,weight\n")
            for iteration, c in snaps:
                nn, mm = np.nonzero(c)
                for n, m, w in zip(nn.tolist(), mm.tolist(), c[nn, mm].tolist()):
                    fh.write(f"{iteration},{n},{m},{w!r}\n")

    meta = {
        "artifact_version": __version__,
        "seed": cfg.seed,
        "config": dataclasses.asdict(cfg),
        "policies": list(runs),
        "topology_final_policy": topo_policy,
        "head_radius": cfg.effective_head_radius,
        "convergence_iteration": {name: list(run.convergence) for name, run in runs.items()},
        "recovery": {
            name: {
                "mean": float(run.recovery_scores.mean()),
                "perfect_trials": int((run.recovery_scores == 1.0).sum()),
                "n_trials": int(run.recovery_scores.shape[0]),
            }
            for name, run in runs.items()
        },
        "msd_normalization": "per-cluster mean over member nodes, then over trials",
    }
    with open(os.path.join(out_dir, "run_meta.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def assert_same_files(got, want):
    names = sorted(os.listdir(want))
    assert sorted(os.listdir(got)) == names
    for name in names:
        with open(os.path.join(got, name), "rb") as a, open(os.path.join(want, name), "rb") as b:
            assert a.read() == b.read(), name


ALL = list(POLICIES)
CASES = {
    # The benchmark's policy-sweep operation.
    "policy-sweep": (dict(n_trials=5), ALL, dict(weights_every=1)),
    "every-third": (dict(n_trials=5), ALL, dict(weights_every=3)),
    # One node forms one cluster of two targets: est_x and est_y of
    # target 2 are NaN.
    "one-node": (dict(n_nodes=1, n_trials=3), ALL, dict(weights_every=1)),
    "no-snapshots": (dict(n_trials=3), ALL, {}),
    "large": (
        dict(n_nodes=200, comm_radius=0.15, n_trials=2), ["relvar", "adaptive"],
        dict(weights_every=5),
    ),
    "two-workers": (dict(n_trials=6), ALL, dict(weights_every=4, workers=2)),
}


@pytest.mark.parametrize("case", CASES)
def test_writer_equals_the_row_by_row_reference(case, tmp_path):
    overrides, policies, kwargs = CASES[case]
    sweep = policy_sweep(ExperimentConfig(seed=7, **overrides), policies, **kwargs)
    write_outputs(sweep, tmp_path / "got")
    write_outputs_reference(sweep, tmp_path / "want")
    assert_same_files(tmp_path / "got", tmp_path / "want")
    if case == "one-node":
        assert ",adaptive,nan,nan\n" in (tmp_path / "got" / "trajectory.csv").read_text()


def test_a_single_run_equals_the_reference(tmp_path):
    run = policy_sweep(ExperimentConfig(n_trials=2, seed=3), ["uniform"], weights_every=2)
    run = run.runs["uniform"]
    write_outputs(run, tmp_path / "got")
    write_outputs_reference(run, tmp_path / "want")
    assert_same_files(tmp_path / "got", tmp_path / "want")
