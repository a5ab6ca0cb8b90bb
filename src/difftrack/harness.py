"""Experiment configuration, Monte Carlo orchestration, and artifact emission."""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import __version__
from .combiners import POLICIES
from .dynamics import STATE_DIM, discretize_projectile, initial_state, step_truth
from .engine import DiffusionKalmanEngine
from .errors import ConfigError, NumericError
from .metrics import (
    MIN_SERIES_LENGTH,
    MsdSeries,
    cluster_recovery_score,
    convergence_iteration,
    msd_accumulate,
    read_clusters,
)
from .topology import (
    ClusterAssignment,
    Network,
    generate_geometric,
    initial_partition,
    stack_scenes,
)

_INT_FIELDS = ("n_nodes", "min_degree", "n_trials", "n_iterations", "prune_window", "seed")
_BOOL_FIELDS = ("pruning_enabled", "filter_knows_gravity")
# Real-valued keys, each required to be finite; head_radius may be None,
# and angles holds a tuple of them.
_FLOAT_FIELDS = (
    "comm_radius", "head_radius", "delta", "g", "x0", "y0", "v0",
    "sigma_min", "sigma_span", "G_scale", "Q_scale", "P0_scale", "eps", "prune_tau",
)
_TRUE_WORDS = {"true", "1", "yes", "on"}
_FALSE_WORDS = {"false", "0", "no", "off"}


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete, explicit description of one tracking experiment."""

    n_nodes: int = 30
    comm_radius: float = 0.35
    # Radius of the ball around the cluster head that forms cluster 1;
    # None means comm_radius.
    head_radius: float | None = None
    min_degree: int = 4
    n_trials: int = 200
    n_iterations: int = 100
    delta: float = 0.1
    g: float = 10.0
    x0: float = 1.0
    y0: float = 30.0
    v0: float = 15.0
    angles: tuple = (math.pi / 3, math.pi / 4)
    sigma_min: float = 0.01
    sigma_span: float = 0.5
    G_scale: float = 0.625
    Q_scale: float = 0.001
    P0_scale: float = 1.0
    policy: str = "adaptive"
    eps: float = 1e-12
    prune_tau: float = 0.05
    prune_window: int = 10
    pruning_enabled: bool = True
    filter_knows_gravity: bool = True
    seed: int = 1

    def __post_init__(self):
        # Types are checked here, for library callers and config files alike.
        for name in _FLOAT_FIELDS:
            if getattr(self, name) is not None or name != "head_radius":
                object.__setattr__(self, name, _real(name, getattr(self, name)))
        try:
            angles = tuple(self.angles)
        except TypeError:
            raise ConfigError(f"key 'angles' expects real numbers, got {self.angles!r}") from None
        object.__setattr__(self, "angles", tuple(_real("angles", a) for a in angles))
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"key '{name}' expects an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        for name in _BOOL_FIELDS:
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"key '{name}' expects a boolean, got {getattr(self, name)!r}")
        for name in ("n_nodes", "n_trials", "n_iterations", "prune_window"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be a positive count")
        if self.n_iterations < MIN_SERIES_LENGTH:
            raise ConfigError(
                f"n_iterations must be at least {MIN_SERIES_LENGTH} for "
                f"steady-state detection, got {self.n_iterations}"
            )
        for name in ("head_radius", "delta", "sigma_min", "P0_scale", "eps"):
            if getattr(self, name) is not None and getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("min_degree", "g", "v0", "sigma_span", "G_scale", "Q_scale"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative")
        if not 0.0 < self.comm_radius <= math.sqrt(2.0) + 1e-12:
            raise ConfigError("comm_radius must lie in (0, sqrt(2)]")
        if len(self.angles) != 2:
            raise ConfigError("angles must list exactly two launch angles")
        if self.policy not in POLICIES:
            raise ConfigError(
                f"policy must be one of {', '.join(POLICIES)}; got '{self.policy}'"
            )
        if not 0.0 <= self.prune_tau <= 1.0:
            raise ConfigError("prune_tau must lie in [0, 1]")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in 64 bits")

    @property
    def n_targets(self) -> int:
        return len(self.angles)

    @property
    def effective_head_radius(self) -> float:
        return self.comm_radius if self.head_radius is None else self.head_radius


@dataclass(frozen=True)
class MetricsRecord:
    """One row of the long-format MSD table."""

    iteration: int
    cluster_id: int
    policy: str
    msd_linear: float
    msd_db: float
    n_trials: int


def _real(key: str, value) -> float:
    """A finite real config value as a float; anything else is refused by key."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"key '{key}' expects a real number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return float(value)


def _coerce(key: str, value):
    """Parse a text value by its key's type; ExperimentConfig checks the rest."""
    if not isinstance(value, str):
        return value
    text = value.strip()
    if key in _BOOL_FIELDS:
        if text.lower() in _TRUE_WORDS:
            return True
        if text.lower() in _FALSE_WORDS:
            return False
        raise ConfigError(f"cannot parse boolean value '{value}' for key '{key}'")
    if key in _INT_FIELDS:
        try:
            return int(text, 0)
        except ValueError as exc:
            raise ConfigError(f"cannot parse integer value '{value}' for key '{key}'") from exc
    if key == "angles":
        parts = [p for p in text.strip("[]()").replace(",", " ").split() if p]
        try:
            return tuple(float(p) for p in parts)
        except ValueError as exc:
            raise ConfigError(f"cannot parse angle list '{value}'") from exc
    if key == "policy":
        return text
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"cannot parse numeric value '{value}' for key '{key}'") from exc


def _build_config(mapping: dict) -> ExperimentConfig:
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    resolved = {}
    for key, value in mapping.items():
        if key not in known:
            raise ConfigError(f"unknown configuration key '{key}'")
        resolved[key] = _coerce(key, value)
    return ExperimentConfig(**resolved)


def load_config(path) -> ExperimentConfig:
    """Parse a flat key = value document, or JSON (including run_meta.json)."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON configuration: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("JSON configuration must be an object")
        if isinstance(doc.get("config"), dict):
            doc = doc["config"]
        return _build_config(doc)
    mapping = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got '{raw.strip()}'")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in mapping:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        mapping[key] = value.strip()
    return _build_config(mapping)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """The per-trial random stream; adding trials never perturbs earlier ones."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))


def draw_scene(cfg: ExperimentConfig, rng: np.random.Generator):
    """One trial's network and task assignment, drawn from its stream."""
    if cfg.n_nodes == 1:
        net = Network(np.array([[0.5, 0.5]]), np.zeros((1, 1), dtype=bool))
        part = ClusterAssignment(np.array([1], dtype=np.int64), 1)
    else:
        net = generate_geometric(cfg.n_nodes, cfg.comm_radius, cfg.min_degree, rng)
        part = initial_partition(net, cfg.effective_head_radius, rng)
    return net, part


@contextmanager
def _naming(trial: int):
    """Prefix an error raised inside the block with the trial it hit."""
    try:
        yield
    except (ConfigError, NumericError) as exc:
        raise type(exc)(f"trial {trial}: {exc}") from exc
    except OSError:
        raise
    except Exception as exc:
        raise RuntimeError(f"trial {trial}: {exc}") from exc


def run_trials(cfg: ExperimentConfig, trials: range, *, weights_every: int = 0):
    """Run a contiguous range of trials in lockstep; one result per trial.

    Trial t draws everything from ``trial_rng(cfg.seed, t)`` in a fixed
    order: its scene, its noise levels and its whole truth-noise block at
    setup, then one (n_nodes, 4) measurement-noise block per step. Its
    results are therefore the same whichever trials share the batch. The
    truths of every trial advance together, one ``step_truth`` call per
    step, and the step's measurements, y = truth[target] + sqrt(sigma2) *
    noise at each node, go to the engine. Each result holds the trial's MSD rows,
    recovery score and min-PSD eigenvalue; trial 0's also holds the
    ``detail`` record the artifacts are written from.
    """
    model = discretize_projectile(cfg.delta, cfg.g, g_scale=cfg.G_scale, q_scale=cfg.Q_scale)
    rngs, nets, parts, sigma2, truth_noise = [], [], [], [], []
    for trial in trials:
        with _naming(trial):
            rng = trial_rng(cfg.seed, trial)
            net, part = draw_scene(cfg, rng)
            sigma2.append(cfg.sigma_min + cfg.sigma_span * rng.random(cfg.n_nodes))
            truth_noise.append(
                rng.standard_normal((cfg.n_iterations - 1, cfg.n_targets, STATE_DIM))
            )
        rngs.append(rng)
        nets.append(net)
        parts.append(part)
    truth_noise = np.stack(truth_noise, axis=1)
    sigma2 = np.stack(sigma2)
    net, part = stack_scenes(nets, parts)
    engine = DiffusionKalmanEngine(
        net,
        model,
        sigma2,
        cfg.policy,
        first_trial=trials.start,
        eps=cfg.eps,
        prune_tau=cfg.prune_tau,
        prune_window=cfg.prune_window,
        pruning_enabled=cfg.pruning_enabled,
        filter_knows_gravity=cfg.filter_knows_gravity,
        p0_scale=cfg.P0_scale,
    )
    n_clusters = part.s
    keep_detail = trials.start == 0
    msd = np.empty((len(trials), cfg.n_iterations, n_clusters))
    truths = np.empty((cfg.n_iterations, cfg.n_targets, STATE_DIM)) if keep_detail else None
    est_mean = np.empty((cfg.n_iterations, n_clusters, 2)) if keep_detail else None
    snapshots = [] if keep_detail and weights_every > 0 else None
    members = [np.flatnonzero(part.cluster_of[0] == l + 1) for l in range(n_clusters)]
    # Node m of trial t measures target cluster_of[t, m].
    targets = (np.arange(len(trials))[:, None], part.cluster_of - 1)
    sd = np.sqrt(sigma2)[:, :, None]
    truth = np.stack([initial_state(cfg.x0, cfg.y0, cfg.v0, a) for a in cfg.angles])
    truth = np.broadcast_to(truth, (len(trials),) + truth.shape)
    for j in range(cfg.n_iterations):
        if j:
            truth = step_truth(truth, model, truth_noise[j - 1])
            bad = np.flatnonzero(~np.isfinite(truth).all(axis=(1, 2)))
            if bad.size:
                raise NumericError(
                    f"trial {trials[bad[0]]}: step_truth produced a non-finite state"
                )
        noise = np.stack([rng.standard_normal((cfg.n_nodes, STATE_DIM)) for rng in rngs])
        engine.run_step(truth[targets] + sd * noise)
        msd[:, j] = msd_accumulate(truth, engine.x_hat, part)
        if keep_detail:
            truths[j] = truth[0]
            for l, idx in enumerate(members):
                est_mean[j, l] = engine.x_hat[0, idx, :2].mean(axis=0)
            if snapshots is not None and j % weights_every == 0:
                snapshots.append((j, engine.C[0].copy()))
    results = []
    for t, trial in enumerate(trials):
        with _naming(trial):
            inferred = read_clusters(engine.C[t], cfg.prune_tau, engine.x_hat[t], engine.sigma2[t])
            score = cluster_recovery_score(inferred, parts[t])
        results.append(
            {"msd": msd[t], "recovery": score, "min_psd": float(engine.min_psd_eigenvalue[t])}
        )
    if keep_detail:
        results[0]["detail"] = {
            "positions": net.positions[0].copy(),
            "cluster_of": part.cluster_of[0].copy(),
            "adjacency_initial": net.adjacency[0].copy(),
            "adjacency_final": engine.net.adjacency[0].copy(),
            "truths": truths,
            "est_mean": est_mean,
            "final_C": engine.C[0].copy(),
            "snapshots": snapshots or [],
        }
    return results


@dataclass(frozen=True)
class RunResult:
    """Merged output of one run_experiment call: what the run measured,
    and the summaries derived from it."""

    config: ExperimentConfig
    series: MsdSeries
    recovery_scores: np.ndarray
    min_psd_eigenvalue: float
    detail: dict = field(repr=False, default_factory=dict)

    @property
    def records(self) -> tuple:
        """The long-format MSD rows, one per (iteration, cluster)."""
        series, cfg = self.series, self.config
        return tuple(
            MetricsRecord(
                iteration=j,
                cluster_id=l + 1,
                policy=cfg.policy,
                msd_linear=float(series.msd_linear[j, l]),
                msd_db=float(series.msd_db[j, l]),
                n_trials=cfg.n_trials,
            )
            for j in range(series.n_iterations)
            for l in range(series.n_clusters)
        )

    @property
    def convergence(self) -> tuple:
        """Per-cluster convergence iteration of the mean MSD curve."""
        return tuple(
            convergence_iteration(self.series.msd_db[:, l])
            for l in range(self.series.n_clusters)
        )

    @property
    def head_radius(self) -> float:
        """The radius the initial cluster assignment used."""
        return self.config.effective_head_radius


def run_experiment(
    cfg: ExperimentConfig,
    *,
    workers: int = 1,
    weights_every: int = 0,
) -> RunResult:
    """Run cfg.n_trials independent trials and merge metrics in trial order.

    All trials advance together in one engine. With ``workers > 1`` the
    trials are split into that many contiguous chunks, each advanced in
    its own process; the results do not depend on the split.
    ``weights_every`` K > 0 snapshots trial 0's combination matrix every K
    iterations; 0 takes none.
    """
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    if weights_every < 0:
        raise ConfigError(f"weights_every must be nonnegative, got {weights_every}")
    run = partial(run_trials, cfg, weights_every=weights_every)
    if workers > 1 and cfg.n_trials > 1:
        bounds = [cfg.n_trials * k // workers for k in range(workers + 1)]
        chunks = [range(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            results = [res for chunk in pool.map(run, chunks) for res in chunk]
    else:
        results = run(range(cfg.n_trials))
    stacked = np.stack([res["msd"] for res in results])
    return RunResult(
        config=cfg,
        series=MsdSeries(stacked.mean(axis=0), n_trials=cfg.n_trials),
        recovery_scores=np.array([res["recovery"] for res in results]),
        min_psd_eigenvalue=min(res["min_psd"] for res in results),
        detail=results[0].get("detail", {}),
    )


@dataclass(frozen=True)
class SweepResult:
    """Per-policy runs over common random numbers."""

    runs: dict

    @property
    def records(self) -> tuple:
        """Every run's MSD rows, policy after policy."""
        return tuple(rec for run in self.runs.values() for rec in run.records)


def policy_sweep(cfg: ExperimentConfig, policies, **kwargs) -> SweepResult:
    """Run each policy with identical seeds so the curves are comparable."""
    policies = list(policies)
    if not policies:
        raise ConfigError("policy sweep needs at least one policy")
    for i, name in enumerate(policies):
        if name not in POLICIES:
            raise ConfigError(f"unknown policy '{name}' in sweep")
        if name in policies[:i]:
            raise ConfigError(f"policy '{name}' appears more than once in sweep")
    runs = {}
    for name in policies:
        runs[name] = run_experiment(dataclasses.replace(cfg, policy=name), **kwargs)
    return SweepResult(runs)


def _write_lines(path, header, rows):
    """Write a header line, then one comma-separated line per row; csv
    writes a float as its repr, so the value reads back exactly."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        csv.writer(fh, lineterminator="\n").writerows(rows)


MSD_HEADER = "iteration,cluster_id,policy,msd_linear,msd_db,n_trials"


def write_msd_csv(records, path) -> None:
    rows = (
        (r.iteration, r.cluster_id, r.policy, r.msd_linear, r.msd_db, r.n_trials)
        for r in records
    )
    _write_lines(path, MSD_HEADER, rows)


def read_msd_csv(path):
    """Inverse of write_msd_csv; returns MetricsRecord tuples."""
    records = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != MSD_HEADER:
            raise ConfigError(f"unexpected MSD header '{header}'")
        for raw in fh:
            parts = raw.rstrip("\n").split(",")
            if len(parts) != 6:
                raise ConfigError(f"malformed MSD row '{raw.strip()}'")
            records.append(
                MetricsRecord(
                    iteration=int(parts[0]),
                    cluster_id=int(parts[1]),
                    policy=parts[2],
                    msd_linear=float(parts[3]),
                    msd_db=float(parts[4]),
                    n_trials=int(parts[5]),
                )
            )
    return tuple(records)


def write_topology(prefix, positions, cluster_of, adjacency, alive):
    """Write ``prefix``.csv (nodes) and ``prefix``_edges.csv (edges of
    ``adjacency``, each flagged alive where ``alive`` still holds it)."""
    _write_lines(
        f"{prefix}.csv",
        "node_id,x,y,cluster",
        zip(range(len(positions)), *positions.T.tolist(), cluster_of.tolist()),
    )
    a, b = np.nonzero(np.triu(adjacency, 1))
    rows = zip(a.tolist(), b.tolist(), alive[a, b].astype(int).tolist())
    _write_lines(f"{prefix}_edges.csv", "node_a,node_b,alive", rows)


def write_outputs(result, out_dir) -> None:
    """Emit the artifact file set for a RunResult or SweepResult."""
    if isinstance(result, RunResult):
        result = SweepResult({result.config.policy: result})
    os.makedirs(out_dir, exist_ok=True)
    runs = result.runs
    first = next(iter(runs.values()))
    cfg = first.config
    write_msd_csv(result.records, os.path.join(out_dir, "msd.csv"))

    rows = []
    for name, run in runs.items():
        detail = run.detail
        if not detail:
            continue
        truths = detail["truths"]
        est = detail["est_mean"]
        for j in range(truths.shape[0]):
            for i in range(truths.shape[1]):
                e = est[j, i] if i < est.shape[1] else (math.nan, math.nan)
                rows.append(
                    (j, i + 1, float(truths[j, i, 0]), float(truths[j, i, 1]),
                     name, float(e[0]), float(e[1]))
                )
    _write_lines(
        os.path.join(out_dir, "trajectory.csv"),
        "iteration,target_id,x,y,policy,est_x,est_y",
        rows,
    )

    topo_policy = "adaptive" if "adaptive" in runs else next(iter(runs))
    detail = runs[topo_policy].detail
    if detail:
        adj0 = detail["adjacency_initial"]
        write_topology(
            os.path.join(out_dir, "topology_initial"),
            detail["positions"], detail["cluster_of"], adj0, adj0,
        )
        write_topology(
            os.path.join(out_dir, "topology_final"),
            detail["positions"], detail["cluster_of"], adj0, detail["adjacency_final"],
        )

    for name, run in runs.items():
        snaps = run.detail.get("snapshots") or []
        if not snaps:
            continue
        rows = []
        for iteration, c in snaps:
            nn, mm = np.nonzero(c)
            rows.extend(
                zip([iteration] * nn.size, nn.tolist(), mm.tolist(), c[nn, mm].tolist())
            )
        _write_lines(
            os.path.join(out_dir, f"weights_{name}.csv"),
            "iteration,n,m,weight",
            rows,
        )

    meta = {
        "artifact_version": __version__,
        "seed": cfg.seed,
        "config": {
            **{k: v for k, v in dataclasses.asdict(cfg).items()},
            "angles": list(cfg.angles),
        },
        "policies": list(runs),
        "topology_final_policy": topo_policy if detail else None,
        "head_radius": first.head_radius,
        "convergence_iteration": {
            name: list(run.convergence) for name, run in runs.items()
        },
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
