"""The benchmark's workloads and the output checks for each operation.

An operation is one call into ``difftrack.harness`` (``run_experiment`` or
``policy_sweep``, plus ``write_outputs`` where the workload writes
artifacts) together with the checks on what that call returned. Every
check compares the program's output against a computation made here or
against a property the method must have; none compares against a stored
copy of earlier output.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import os
import shutil
import sys
import time
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("default-adaptive", "policy-sweep", "large-network")
SWEEP_POLICIES = ("uniform", "metropolis", "relvar", "adaptive")

# Trials per operation. Each call carries many trials, as the default
# 200-trial run does, yet one operation stays short enough that a run of
# the benchmark holds several of them.
ADAPTIVE_TRIALS = 20
SWEEP_TRIALS = 5
LARGE_TRIALS = 4

# The warm-up call before timing: one short trial of the same scenario.
# Ten iterations is the shortest series convergence_iteration accepts.
WARMUP_ITERATIONS = 10

# Share of trials whose cluster readout must be perfect (gate c5's bar).
RECOVERY_BAR = 0.95

# Steady-state MSD must lie this factor below the raw-measurement error
# 4 E[sigma^2] (10 dB under it; see README.md for the margin).
MSD_MARGIN = 0.1

# Column-sum slack of a combination matrix (the engine's own combine-time
# tolerance).
COLUMN_TOL = 1e-9


def load_difftrack(root: str):
    """Import difftrack.harness from ``root``/src, never from elsewhere."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "difftrack", "__init__.py")):
        raise FileNotFoundError(f"no difftrack sources under {src}")
    sys.path.insert(0, src)
    import difftrack.harness as harness

    found = os.path.realpath(harness.__file__)
    if not found.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"difftrack was imported from {found}, not from {src}")
    return harness


@dataclass
class Timing:
    """What one operation cost."""

    call_s: float  # inside run_experiment / policy_sweep
    wall_s: float  # the whole timed part, artifact writing included
    cpu_s: float  # user+sys CPU of this process over the same interval
    trial_steps: int


# -- checks -------------------------------------------------------------


def steady_msd(msd_linear: np.ndarray) -> np.ndarray:
    """Per-cluster mean over the last 20% of iterations."""
    n = msd_linear.shape[0]
    return np.asarray(msd_linear[n - max(1, n // 5):]).mean(axis=0)


def msd_bound(cfg) -> float:
    """MSD_MARGIN times the raw-measurement error 4 E[sigma^2]."""
    return MSD_MARGIN * 4.0 * (cfg.sigma_min + cfg.sigma_span / 2.0)


def check_recovery(scores) -> list:
    scores = np.asarray(scores, dtype=np.float64)
    perfect = int((scores == 1.0).sum())
    need = math.ceil(RECOVERY_BAR * scores.size)
    if perfect < need:
        return [f"perfect cluster recovery in {perfect}/{scores.size} trials, need {need}"]
    return []


def check_steady_msd(msd_linear, cfg) -> list:
    steady = steady_msd(np.asarray(msd_linear, dtype=np.float64))
    bound = msd_bound(cfg)
    if not (np.isfinite(steady).all() and (steady < bound).all()):
        return [f"steady-state MSD {steady.tolist()} not below {bound!r}"]
    return []


def check_combination_matrix(c, adjacency) -> list:
    """Nonnegative, columns summing to 1, support on adjacency + diagonal."""
    c = np.asarray(c, dtype=np.float64)
    support = np.asarray(adjacency, dtype=bool) | np.eye(c.shape[0], dtype=bool)
    problems = []
    if (c < 0.0).any():
        problems.append("final combination matrix has negative entries")
    col_err = float(np.abs(c.sum(axis=0) - 1.0).max())
    if col_err > COLUMN_TOL:
        problems.append(f"final combination matrix column off 1 by {col_err:.3e}")
    if (c[~support] != 0.0).any():
        problems.append("final combination matrix has weight off the final links")
    return problems


def check_cross_task_links(adjacency, cluster_of) -> list:
    """No link between nodes of different tasks survives the run.

    The adaptive policy gives zero weight to a neighbor whose measurement
    fails the consistency test, and once the two targets have separated
    every cross-task pair fails it, so the prune cuts every such link.
    """
    adjacency = np.asarray(adjacency, dtype=bool)
    labels = np.asarray(cluster_of)
    cross = adjacency & (labels[:, None] != labels[None, :])
    if cross.any():
        return [f"{int(cross.sum()) // 2} cross-task links survive the run"]
    return []


def check_adaptive_run(result) -> list:
    detail = result.detail
    return (
        check_recovery(result.recovery_scores)
        + check_steady_msd(result.series.msd_linear, result.config)
        + check_combination_matrix(detail["final_C"], detail["adjacency_final"])
        + check_cross_task_links(detail["adjacency_final"], detail["cluster_of"])
    )


def check_adaptive_beats_static(steady_by_policy: dict) -> list:
    """The adaptive policy's steady MSD is below every static policy's."""
    adaptive = np.asarray(steady_by_policy["adaptive"])
    problems = []
    for name, steady in steady_by_policy.items():
        if name != "adaptive" and not (adaptive < np.asarray(steady)).all():
            problems.append(
                f"adaptive steady MSD {adaptive.tolist()} not below {name} {list(steady)}"
            )
    return problems


def check_msd_csv(path, records, read_msd_csv) -> list:
    if tuple(read_msd_csv(path)) != tuple(records):
        return [f"{os.path.basename(path)} does not read back to the run's records"]
    return []


def check_weights_csv(path, n_nodes: int, n_iterations: int) -> list:
    """Every (iteration, m) column is present, nonnegative and sums to 1."""
    sums = np.zeros((n_iterations, n_nodes))
    negative = False
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            weight = float(row["weight"])
            negative = negative or weight < 0.0
            sums[int(row["iteration"]), int(row["m"])] += weight
    name = os.path.basename(path)
    problems = []
    if negative:
        problems.append(f"{name} has negative weights")
    col_err = float(np.abs(sums - 1.0).max())
    if col_err > COLUMN_TOL:
        problems.append(f"{name}: a weight column is off 1 by {col_err:.3e}")
    return problems


def check_run_meta(path, cfg, load_config) -> list:
    loaded = load_config(path)
    if loaded != cfg:
        return [f"run_meta.json loads back to {loaded}, not to {cfg}"]
    return []


def check_sweep(harness, sweep, out_dir) -> list:
    steady = {name: steady_msd(run.series.msd_linear) for name, run in sweep.runs.items()}
    first = next(iter(sweep.runs.values())).config
    problems = check_adaptive_beats_static(steady)
    problems += check_msd_csv(os.path.join(out_dir, "msd.csv"), sweep.records, harness.read_msd_csv)
    for name in sweep.runs:
        problems += check_weights_csv(
            os.path.join(out_dir, f"weights_{name}.csv"), first.n_nodes, first.n_iterations
        )
    problems += check_run_meta(os.path.join(out_dir, "run_meta.json"), first, harness.load_config)
    return problems


# -- operations ---------------------------------------------------------


class AdaptiveRun:
    """One run_experiment call with the adaptive policy."""

    def __init__(self, harness, cfg):
        self.harness = harness
        self.cfg = cfg

    def warm_up(self) -> None:
        short = dataclasses.replace(self.cfg, n_trials=1, n_iterations=WARMUP_ITERATIONS)
        self.harness.run_experiment(short)

    def execute(self):
        t0, c0 = time.perf_counter(), time.process_time()
        result = self.harness.run_experiment(self.cfg)
        t1, c1 = time.perf_counter(), time.process_time()
        steps = self.cfg.n_trials * self.cfg.n_iterations
        return Timing(t1 - t0, t1 - t0, c1 - c0, steps), result

    def check(self, result) -> list:
        return check_adaptive_run(result)


class PolicySweep:
    """policy_sweep over the four policies, then write_outputs with a
    weight snapshot at every iteration."""

    def __init__(self, harness, cfg, out_dir):
        self.harness = harness
        self.cfg = cfg
        self.out_dir = out_dir

    def _sweep(self, cfg):
        return self.harness.policy_sweep(cfg, SWEEP_POLICIES, weights_every=1)

    def warm_up(self) -> None:
        short = dataclasses.replace(self.cfg, n_trials=1, n_iterations=WARMUP_ITERATIONS)
        self.harness.write_outputs(self._sweep(short), self.out_dir)
        shutil.rmtree(self.out_dir)

    def execute(self):
        t0, c0 = time.perf_counter(), time.process_time()
        sweep = self._sweep(self.cfg)
        t1 = time.perf_counter()
        self.harness.write_outputs(sweep, self.out_dir)
        t2, c2 = time.perf_counter(), time.process_time()
        steps = len(SWEEP_POLICIES) * self.cfg.n_trials * self.cfg.n_iterations
        return Timing(t1 - t0, t2 - t0, c2 - c0, steps), sweep

    def check(self, sweep) -> list:
        try:
            return check_sweep(self.harness, sweep, self.out_dir)
        finally:
            shutil.rmtree(self.out_dir, ignore_errors=True)


def build(harness, workload: str, seed: int, out_dir: str):
    """The operation a workload repeats, with inputs made from ``seed``."""
    base = harness.ExperimentConfig(seed=seed)
    if workload == "default-adaptive":
        return AdaptiveRun(harness, dataclasses.replace(base, n_trials=ADAPTIVE_TRIALS))
    if workload == "policy-sweep":
        return PolicySweep(harness, dataclasses.replace(base, n_trials=SWEEP_TRIALS), out_dir)
    if workload == "large-network":
        cfg = dataclasses.replace(base, n_trials=LARGE_TRIALS, n_nodes=200, comm_radius=0.15)
        return AdaptiveRun(harness, cfg)
    raise ValueError(f"unknown workload '{workload}'; expected one of {', '.join(WORKLOADS)}")
