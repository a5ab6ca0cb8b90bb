"""Acceptance gate: nine end-to-end checks at pinned tolerances.

Each test prints one PASS/FAIL line with the measured value. The
full-scale policy sweep (four policies, 200 trials, default scenario)
is computed once and shared by the checks that need it.
"""

import os

import numpy as np
import pytest

from difftrack.combiners import (
    POLICIES,
    adaptive_weight_row,
    static_weights,
    validate_combination_matrix,
)
from difftrack.harness import ExperimentConfig, policy_sweep, run_experiment, write_outputs
from difftrack.metrics import steady_state_db
from difftrack.selftest import (
    discretization_max_error,
    sequential_vs_batch_max_relative,
    single_node_max_deviation,
)
from difftrack.topology import generate_geometric

STATIC_POLICIES = ("uniform", "metropolis", "relvar")


def _gate(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def sweep():
    # Default scenario: 30 nodes, 200 trials, 100 iterations, seed 1.
    return policy_sweep(ExperimentConfig(), list(POLICIES))


def _steady_db(run):
    db = run.series.msd_db
    return np.array([steady_state_db(db[:, l]) for l in range(run.series.n_clusters)])


def test_c1_single_node_matches_reference_filter():
    """Single-node engine equals a textbook Kalman filter, 1e-10/coordinate."""
    worst = max(single_node_max_deviation(p, n_iterations=100) for p in POLICIES)
    _gate(
        "c1 single-node oracle equivalence",
        worst <= 1e-10,
        f"max deviation {worst:.3e} over {len(POLICIES)} policies (tol 1e-10)",
    )


def test_c2_sequential_adaptation_matches_batch_update():
    """Per-neighbor sequential updates equal one stacked update, 1e-8 rel."""
    worst = sequential_vs_batch_max_relative(n_cases=1000, seed=7)
    _gate(
        "c2 sequential/batch equivalence",
        worst <= 1e-8,
        f"max relative deviation {worst:.3e} over 1000 cases (tol 1e-8)",
    )


def test_c3_weight_matrices_are_left_stochastic_on_random_networks():
    """All policies: column sums 1 +/- 1e-12, nonnegative, support-limited."""
    rng = np.random.default_rng(20240816)
    violations = 0
    for _ in range(100):
        n = int(rng.integers(8, 33))
        net = generate_geometric(n, 0.5 + 0.2 * rng.random(), int(rng.integers(1, 4)), rng)
        sigma2 = 0.01 + 0.5 * rng.random(n)
        support = net.adjacency | np.eye(n, dtype=bool)
        psi = 10.0 * rng.standard_normal((n, 4))
        for policy in POLICIES:
            if policy == "adaptive":
                c = np.zeros((n, n))
                for m in range(n):
                    target = psi[m] + rng.standard_normal(4)
                    c[:, m] = adaptive_weight_row(m, psi, target, support[:, m])
            else:
                c = np.zeros((n, n))
                c.ravel()[net.edges.flat] = static_weights(policy, net, sigma2)
            try:
                validate_combination_matrix(c, net, col_tol=1e-12)
            except Exception:
                violations += 1
    _gate(
        "c3 stochasticity on random networks",
        violations == 0,
        f"{violations} violations over 100 networks x {len(POLICIES)} policies",
    )


def test_c4_covariances_stay_positive_semidefinite_full_run(sweep):
    """Every predicted/updated covariance: min sym eigenvalue >= -1e-9."""
    floor = min(run.min_psd_eigenvalue for run in sweep.runs.values())
    _gate(
        "c4 covariance positive semidefiniteness",
        floor >= -1e-9,
        f"min symmetrized eigenvalue {floor:.3e} across full default sweep (tol -1e-9)",
    )


def test_c5_pruning_recovers_true_clusters(sweep):
    """Adaptive policy with pruning: perfect cluster recovery in >= 95/100 seeds."""
    scores = sweep.runs["adaptive"].recovery_scores[:100]
    perfect = int((scores == 1.0).sum())
    _gate(
        "c5 cluster recovery",
        perfect >= 95,
        f"perfect recovery in {perfect}/100 seeds, mean score {scores.mean():.4f} (need >= 95)",
    )


def test_c6_adaptive_policy_dominates_static_policies(sweep):
    """Adaptive steady-state MSD <= every static's per cluster; statics within 3 dB."""
    adaptive = _steady_db(sweep.runs["adaptive"])
    statics = {p: _steady_db(sweep.runs[p]) for p in STATIC_POLICIES}
    margins = {p: db - adaptive for p, db in statics.items()}
    worst_margin = min(m.min() for m in margins.values())
    spread = max(
        np.abs(statics[a] - statics[b]).max()
        for i, a in enumerate(STATIC_POLICIES)
        for b in STATIC_POLICIES[i + 1 :]
    )
    detail = (
        f"min adaptive margin {worst_margin:+.2f} dB (need >= 0), "
        f"max static spread {spread:.2f} dB (need <= 3)"
    )
    _gate("c6 policy ordering", worst_margin >= 0.0 and spread <= 3.0, detail)


def test_c7_adaptive_policy_converges_within_bound(sweep):
    """Adaptive MSD enters its 3 dB steady-state band by iteration 80."""
    conv = sweep.runs["adaptive"].convergence
    ok = all(c is not None and c <= 80 for c in conv)
    _gate(
        "c7 convergence speed",
        ok,
        f"per-cluster convergence iterations {conv} (need each <= 80)",
    )


def test_c8_discretized_dynamics_match_closed_form():
    """Noiseless propagation equals the analytic parabola, 1e-9 over 100 steps."""
    worst = discretization_max_error(n_steps=100)
    _gate(
        "c8 exact discretization",
        worst <= 1e-9,
        f"max deviation from closed form {worst:.3e} over 100 steps (tol 1e-9)",
    )


def test_c9_runs_are_byte_deterministic(tmp_path):
    """Same config+seed twice, and 1 vs 8 workers, give byte-identical CSVs."""
    cfg = ExperimentConfig(n_trials=16)
    out = {}
    for name, workers in (("a", 1), ("b", 1), ("p8", 8)):
        write_outputs(run_experiment(cfg, workers=workers), tmp_path / name)
        out[name] = {
            f: (tmp_path / name / f).read_bytes()
            for f in os.listdir(tmp_path / name)
            if f.endswith(".csv")
        }
    repeat_ok = out["a"] == out["b"]
    parallel_ok = out["a"] == out["p8"]
    _gate(
        "c9 byte determinism",
        repeat_ok and parallel_ok,
        f"repeat identical: {repeat_ok}, workers 1 vs 8 identical: {parallel_ok} "
        f"({len(out['a'])} CSV files compared)",
    )
