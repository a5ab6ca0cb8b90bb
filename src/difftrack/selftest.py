"""Built-in oracle checks runnable from the CLI.

The reference filter here is an independent textbook Kalman filter in gain
form, solving against the innovation covariance with LU factorization. It
shares no linear algebra helpers with the engine, so agreement between the
two is evidence about the engine rather than about a common bug. The
determinism check runs the harness itself, twice, on one small config.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import MotionModel, initial_state, step_truth
from .engine import DiffusionKalmanEngine, adapt
from .harness import ExperimentConfig, run_experiment
from .topology import Network


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def reference_kf_predict(
    x: np.ndarray,
    p: np.ndarray,
    model: MotionModel,
    knows_gravity: bool,
) -> tuple[np.ndarray, np.ndarray]:
    x = model.F @ x
    if knows_gravity:
        x = x + model.u_g
    g = model.g_scale * np.eye(4)
    p = model.F @ p @ model.F.T + g @ (model.q_scale * np.eye(4)) @ g.T
    return x, 0.5 * (p + p.T)


def batch_adapt_reference(
    x: np.ndarray,
    p: np.ndarray,
    messages: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """All measurements at once: stacked H, block-diagonal R. With one
    message this is the textbook measurement update (gain form, LU solve)."""
    k = len(messages)
    dim = x.size
    h_stk = np.vstack([h for _, h, _ in messages])
    y_stk = np.concatenate([y for y, _, _ in messages])
    r_stk = np.zeros((k * dim, k * dim))
    for i, (_, _, r) in enumerate(messages):
        r_stk[i * dim : (i + 1) * dim, i * dim : (i + 1) * dim] = r
    s = h_stk @ p @ h_stk.T + r_stk
    gain = np.linalg.solve(s, h_stk @ p).T
    psi = x + gain @ (y_stk - h_stk @ x)
    p_out = p - gain @ h_stk @ p
    return psi, 0.5 * (p_out + p_out.T)


def single_node_max_deviation(
    policy: str,
    n_iterations: int = 100,
    seed: int = 12345,
    sigma2: float = 0.2,
) -> float:
    """Worst per-coordinate gap between engine and reference KF, for one
    isolated node under the default config with the given policy."""
    cfg = ExperimentConfig(policy=policy)
    model = cfg.model
    truth_noise = np.random.default_rng(seed).standard_normal((n_iterations - 1, 4))
    truth = initial_state(cfg.x0, cfg.y0, cfg.v0, cfg.angles[0])
    truths = [truth]
    for w in truth_noise:
        truths.append(step_truth(truths[-1], model, w))

    net = Network(positions=np.array([[[0.5, 0.5]]]), adjacency=np.zeros((1, 1, 1), dtype=bool))
    engine = DiffusionKalmanEngine(net, np.array([[sigma2]]), cfg)
    meas_rng = np.random.default_rng(seed + 1)
    x = np.zeros(4)
    p = cfg.P0_scale * np.eye(4)
    h = np.eye(4)
    r = sigma2 * np.eye(4)
    worst = 0.0
    for j in range(n_iterations):
        y = truths[j] + np.sqrt(sigma2) * meas_rng.standard_normal((1, 4))[0]
        engine.run_step(y[None, None, :])
        x, p = batch_adapt_reference(x, p, [(y, h, r)])
        worst = max(worst, np.abs(engine.x_hat[0, 0] - x).max())
        x, p = reference_kf_predict(x, p, model, cfg.filter_knows_gravity)
    return worst


def sequential_vs_batch_max_relative(n_cases: int = 100, seed: int = 7) -> float:
    """Worst relative gap between sequential and stacked-batch adaptation."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_cases):
        k = int(rng.integers(1, 11))
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        p = (q * rng.uniform(0.1, 10.0, 4)) @ q.T
        p = 0.5 * (p + p.T)
        x = rng.standard_normal(4) * 10.0
        messages = []
        for _ in range(k):
            h = rng.standard_normal((4, 4))
            qr_, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            r = (qr_ * rng.uniform(0.05, 2.0, 4)) @ qr_.T
            r = 0.5 * (r + r.T)
            y = rng.standard_normal(4) * 5.0
            messages.append((y, h, r))
        psi_s, p_s = adapt(x, p, messages)
        psi_b, p_b = batch_adapt_reference(x, p, messages)
        err_psi = np.abs(psi_s - psi_b).max() / max(np.abs(psi_b).max(), 1e-300)
        err_p = np.abs(p_s - p_b).max() / max(np.abs(p_b).max(), 1e-300)
        worst = max(worst, err_psi, err_p)
    return worst


def discretization_max_error(n_steps: int = 100) -> float:
    """Worst gap between stepped and closed-form vertical position."""
    cfg = ExperimentConfig(Q_scale=0.0)
    model = cfg.model
    state = initial_state(cfg.x0, cfg.y0, cfg.v0, cfg.angles[0])
    y0, vy0 = state[1], state[3]
    worst = 0.0
    for k in range(1, n_steps + 1):
        state = step_truth(state, model, np.zeros(4))
        t = k * model.delta
        worst = max(worst, abs(state[1] - (y0 + vy0 * t - 0.5 * model.g * t * t)))
    return worst


def determinism_check(seed: int = 3) -> bool:
    """Two identically seeded small harness runs must match bit for bit:
    the MSD series, the recovery scores, the min-PSD value and every array
    of trial 0's detail record, weight snapshots included."""
    cfg = ExperimentConfig(
        n_nodes=8, comm_radius=0.6, min_degree=2, n_trials=2, n_iterations=20, seed=seed
    )

    def arrays(run):
        detail = run.detail
        return [
            run.series.msd_linear,
            run.recovery_scores,
            run.min_psd_eigenvalue,
            *(value for key, value in detail.items() if key != "snapshots"),
            *(c for _, c in detail["snapshots"]),
        ]

    first, again = (arrays(run_experiment(cfg, weights_every=1)) for _ in range(2))
    return all(map(np.array_equal, first, again))


def run_selftest() -> list[CheckResult]:
    checks: list[CheckResult] = []

    worst = max(single_node_max_deviation(p) for p in ("uniform", "adaptive"))
    checks.append(
        CheckResult(
            "single-node engine matches reference Kalman filter",
            worst <= 1e-10,
            f"max deviation {worst:.3e} (tolerance 1e-10)",
        )
    )

    rel = sequential_vs_batch_max_relative()
    checks.append(
        CheckResult(
            "sequential adaptation matches stacked batch update",
            rel <= 1e-8,
            f"max relative error {rel:.3e} (tolerance 1e-8)",
        )
    )

    disc = discretization_max_error()
    checks.append(
        CheckResult(
            "discretization reproduces closed-form trajectory",
            disc <= 1e-9,
            f"max error {disc:.3e} (tolerance 1e-9)",
        )
    )

    det = determinism_check()
    checks.append(
        CheckResult(
            "identical seeds give identical trajectories",
            det,
            "bitwise equal" if det else "trajectories diverged",
        )
    )
    return checks
