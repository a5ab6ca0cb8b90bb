"""Experiment configuration, Monte Carlo orchestration, and artifact emission."""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os
import typing
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import repeat

import numpy as np

from . import __version__
from .combiners import POLICIES
from .dynamics import STATE_DIM, MotionModel, initial_state, step_truth
from .engine import DiffusionKalmanEngine, policy_configs
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

_TRUE_WORDS = {"true", "1", "yes", "on"}
_FALSE_WORDS = {"false", "0", "no", "off"}


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete, explicit description of one tracking experiment, and the
    one home of its defaults: the engine and the motion model are built
    from it."""

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
            if getattr(self, name) is not None or _HINTS[name] is float:
                object.__setattr__(self, name, _real(name, getattr(self, name)))
        try:
            angles = tuple(self.angles)
        except TypeError:
            raise ConfigError(f"key 'angles' expects real numbers, got {self.angles!r}") from None
        object.__setattr__(self, "angles", tuple(_real("angles", a) for a in angles))
        for name in _INT_FIELDS:
            object.__setattr__(self, name, _integer(f"key '{name}'", getattr(self, name)))
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
        for name in ("delta", "sigma_min", "P0_scale", "eps"):
            if getattr(self, name) is not None and getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        # An adaptive weight is 1/max(d^2, eps^2), bounded by 1/eps^2 only
        # when eps^2 neither underflows to 0 nor overflows.
        floor = self.eps * self.eps
        if not (0.0 < floor and math.isfinite(floor) and math.isfinite(1.0 / floor)):
            raise ConfigError(
                f"eps = {self.eps!r}: eps^2 and 1/eps^2 must both be finite and positive"
            )
        for name in ("min_degree", "g", "v0", "sigma_span", "G_scale", "Q_scale"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative")
        # Every noise level lies in [sigma_min, sigma_min + sigma_span], so
        # a finite sum keeps each of them finite.
        if not math.isfinite(self.sigma_min + self.sigma_span):
            raise ConfigError(
                f"sigma_min = {self.sigma_min!r} and sigma_span = {self.sigma_span!r} "
                f"give a non-finite largest measurement variance"
            )
        if not 0.0 < self.comm_radius <= math.sqrt(2.0):
            raise ConfigError("comm_radius must lie in (0, sqrt(2)]")
        # A head ball of radius sqrt(2) or more holds the whole square, so
        # it can never leave a node for cluster 2.
        if self.head_radius is not None and not 0.0 < self.head_radius < math.sqrt(2.0):
            raise ConfigError("head_radius must lie in (0, sqrt(2))")
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

    @cached_property
    def model(self) -> MotionModel:
        """The motion model; built on first use, which refuses values that
        make it non-finite."""
        return MotionModel(self.delta, self.g, self.G_scale, self.Q_scale)


# Each key's type, from its annotation; head_radius alone may be None.
_HINTS = typing.get_type_hints(ExperimentConfig)
_INT_FIELDS = tuple(name for name, hint in _HINTS.items() if hint is int)
_BOOL_FIELDS = tuple(name for name, hint in _HINTS.items() if hint is bool)
_FLOAT_FIELDS = tuple(name for name, hint in _HINTS.items() if hint in (float, float | None))


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


def _integer(name: str, value) -> int:
    """An integer as an int; a bool or a non-integral value is refused by name."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} expects an integer, got {value!r}")
    return int(value)


def _coerce(key: str, value):
    """Parse a text value by its key's type, refusing an unknown key;
    ExperimentConfig checks the rest."""
    if key not in _HINTS:
        raise ConfigError(f"unknown configuration key '{key}'")
    if not isinstance(value, str):
        return value
    text = value.strip()
    hint = _HINTS[key]
    if hint is bool:
        if text.lower() in _TRUE_WORDS:
            return True
        if text.lower() in _FALSE_WORDS:
            return False
        raise ConfigError(f"cannot parse boolean value '{value}' for key '{key}'")
    if hint is int:
        try:
            return int(text, 0)
        except ValueError as exc:
            raise ConfigError(f"cannot parse integer value '{value}' for key '{key}'") from exc
    if hint is tuple:
        parts = [p for p in text.strip("[]()").replace(",", " ").split() if p]
        try:
            return tuple(float(p) for p in parts)
        except ValueError as exc:
            raise ConfigError(f"cannot parse angle list '{value}'") from exc
    if hint is str:
        return text
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"cannot parse numeric value '{value}' for key '{key}'") from exc


def _build_config(mapping: dict) -> ExperimentConfig:
    return ExperimentConfig(**{key: _coerce(key, value) for key, value in mapping.items()})


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


def run_trials(cfgs, trials: range, *, weights_every: int = 0):
    """Run a contiguous range of trials in lockstep under each of ``cfgs``,
    configs that differ only in policy; one result per config. Configs
    that differ in anything else, or none at all, are refused with a
    ``ConfigError`` (``engine.policy_configs``).

    Trial t draws everything from ``trial_rng(cfg.seed, t)`` once, in a
    fixed order: its scene, its noise levels and its whole truth-noise
    block at setup, then one (n_nodes, 4) measurement-noise block per
    step. Its results are therefore the same whichever trials share the
    batch. The truths of every trial advance together, one ``step_truth``
    call per step, and the step's measurements, y = truth[target] +
    sqrt(sigma2) * noise at each node, go to each engine. The static
    policies share one engine, on whose policy axis they run, so the
    covariance recursion, the information sums and the min-PSD record,
    which do not depend on the policy, run once per step for all of them;
    the adaptive policy has an engine of its own. The engines step in the
    order of their first policy. Every engine output is read over the
    engine's policy axis: each step, one ``msd_accumulate`` call scores
    all its policies and trials, and one ``np.bincount`` forms trial 0's
    cluster means under each policy; after the last step one
    ``read_clusters`` and one ``cluster_recovery_score`` call read out and
    score every (policy, trial) pair. Each policy's result holds slices of
    its engine's arrays: the stacked MSD rows ("msd", one (iterations,
    clusters) block per trial), recovery scores ("recovery") and min-PSD
    eigenvalues ("min_psd"), in trial order. When the range starts at
    trial 0 it also holds the ``detail`` record the artifacts are written
    from, whose ``snapshots`` list of (iteration, C) pairs is empty when
    ``weights_every`` is 0; the trial-0 scene and truths in it are one set
    of arrays shared by every policy of the run.
    """
    cfgs = policy_configs(cfgs)
    cfg = cfgs[0]
    # Built before any scene draw, so a model that overflows fails first.
    model = cfg.model
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
    # Each engine's policies, as indices into cfgs: every static policy in
    # one, each adaptive one alone, in the order of their first policy.
    static = [k for k, c in enumerate(cfgs) if c.policy != "adaptive"]
    groups = sorted([[k] for k, c in enumerate(cfgs) if c.policy == "adaptive"] + [static])
    groups = [ks for ks in groups if ks]
    engines = [
        DiffusionKalmanEngine(net, sigma2, [cfgs[k] for k in ks], first_trial=trials.start)
        for ks in groups
    ]
    keep_detail = trials.start == 0
    truths = np.empty((cfg.n_iterations, cfg.n_targets, STATE_DIM))
    # Per engine, over its policy axis: the trials' assignment repeated
    # along it, the MSD rows, trial 0's cluster means, trial 0's C and its
    # snapshots. An adaptive step overwrites C, so its snapshots copy it;
    # a frozen C never changes, so all its snapshots share one view.
    assign = [
        ClusterAssignment(np.broadcast_to(part.cluster_of, engine.x_hat.shape[:-1]), part.s)
        for engine in engines
    ]
    msd = [np.empty((len(ks), len(trials), cfg.n_iterations, part.s)) for ks in groups]
    est_mean = [np.empty((len(ks), cfg.n_iterations, part.s, 2)) for ks in groups]
    trial0_c = [engine.C[:, 0] for engine in engines]
    snapshots = [[] for _ in groups]
    # Trial 0's cluster l sums its nodes' positions under policy p in bins
    # 2(p s + l) and 2(p s + l) + 1.
    mean_bins = (2 * part.cluster_of[0, :, None] - 2 + np.arange(2)).ravel()
    mean_bins = [(2 * part.s * np.arange(len(ks))[:, None] + mean_bins).ravel() for ks in groups]
    # Node m of trial t measures target cluster_of[t, m], row
    # t * n_targets + cluster_of[t, m] - 1 of the trials' stacked truths.
    targets = cfg.n_targets * np.arange(len(trials))[:, None] + part.cluster_of - 1
    # Each node's noise scale at the state width, so the step's
    # measurements are one contiguous product.
    sd = np.repeat(np.sqrt(sigma2)[:, :, None], STATE_DIM, axis=2)
    noise = np.empty((len(trials), cfg.n_nodes, STATE_DIM))
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
        for t, rng in enumerate(rngs):
            rng.standard_normal(out=noise[t])
        rows = np.take(truth.reshape(-1, STATE_DIM), targets, axis=0)
        y = rows + sd * noise
        truths[j] = truth[0]
        for e, engine in enumerate(engines):
            x_hat = engine.run_step(y).x_hat
            msd[e][:, :, j] = msd_accumulate(np.broadcast_to(rows, x_hat.shape), x_hat, assign[e])
            if not np.isfinite(msd[e][:, :, j]).all():
                p, t, l = np.argwhere(~np.isfinite(msd[e][:, :, j]))[0]
                raise NumericError(
                    f"trial {trials[t]}: iteration {j}: MSD of cluster {l + 1} is not finite "
                    f"({float(msd[e][p, t, j, l])!r}) under policy '{engine.policies[p]}'"
                )
            if keep_detail:
                sums = np.bincount(mean_bins[e], x_hat[:, 0, :, :2].ravel())
                est_mean[e][:, j] = sums.reshape(-1, part.s, 2) / part.sizes[0, :, None]
            if keep_detail and weights_every and j % weights_every == 0:
                snapshots[e].append((j, trial0_c[e].copy() if engine.adaptive else trial0_c[e]))
    runs = [None] * len(cfgs)
    for e, (engine, ks) in enumerate(zip(engines, groups)):
        sigma2_p = np.broadcast_to(sigma2, engine.x_hat.shape[:-1])
        inferred = read_clusters(engine.C, cfg.prune_tau, engine.x_hat, sigma2_p)
        recovery = cluster_recovery_score(inferred, assign[e].cluster_of)
        min_psd, adjacency_final = engine.min_psd_eigenvalue, engine.net.adjacency[0].copy()
        # One view per policy of each distinct snapshot, so a frozen C's
        # snapshots stay one object.
        views = {id(c): list(c) for _, c in snapshots[e]}
        for p, k in enumerate(ks):
            runs[k] = {"msd": msd[e][p], "recovery": recovery[p], "min_psd": min_psd}
            if keep_detail:
                # Trial 0's own scene arrays are frozen, so every policy
                # shares them.
                runs[k]["detail"] = dict(
                    positions=nets[0].positions, cluster_of=parts[0].cluster_of,
                    adjacency_initial=nets[0].adjacency, adjacency_final=adjacency_final,
                    truths=truths, est_mean=est_mean[e][p], final_C=trial0_c[e][p].copy(),
                    snapshots=[(j, views[id(c)][p]) for j, c in snapshots[e]],
                )
    return runs


@dataclass(frozen=True)
class RunResult:
    """Merged output of one policy's trials: what the run measured, and
    the summaries derived from it."""

    config: ExperimentConfig
    series: MsdSeries
    recovery_scores: np.ndarray
    min_psd_eigenvalue: float
    detail: dict = field(repr=False)

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

    @cached_property
    def convergence(self) -> tuple:
        """Per-cluster convergence iteration of the mean MSD curve."""
        return tuple(
            convergence_iteration(self.series.msd_db[:, l])
            for l in range(self.series.n_clusters)
        )


@dataclass(frozen=True)
class SweepResult:
    """Per-policy runs over common random numbers."""

    runs: dict

    @property
    def records(self) -> tuple:
        """Every run's MSD rows, policy after policy."""
        return tuple(rec for run in self.runs.values() for rec in run.records)


def policy_sweep(
    cfg: ExperimentConfig, policies, *, workers: int = 1, weights_every: int = 0
) -> SweepResult:
    """Run cfg.n_trials trials once under every policy, and merge each
    policy's metrics in trial order. All policies filter the same draws
    and measurements (see ``run_trials``): common random numbers hold by
    construction, and the policy-independent half of each step runs once
    per engine, one for the static policies and one for the adaptive. The
    engines step in the order of their first policy, so a failing sweep
    names the earliest failing iteration, and in it the first engine.
    ``workers`` > 1 splits the trials into that many contiguous chunks,
    each run in its own process; the results do not depend on the split.
    ``weights_every`` K > 0 snapshots trial 0's combination matrix every K
    iterations; 0 takes none.
    """
    if isinstance(policies, str):
        raise ConfigError(f"policy sweep needs a list of policies, got the string '{policies}'")
    policies = list(policies)
    if not policies:
        raise ConfigError("policy sweep needs at least one policy")
    for i, name in enumerate(policies):
        if name in policies[:i]:
            raise ConfigError(f"policy '{name}' appears more than once in sweep")
    workers = _integer("workers", workers)
    weights_every = _integer("weights_every", weights_every)
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    if weights_every < 0:
        raise ConfigError(f"weights_every must be nonnegative, got {weights_every}")
    cfgs = [dataclasses.replace(cfg, policy=name) for name in policies]
    run = partial(run_trials, cfgs, weights_every=weights_every)
    if workers > 1 and cfg.n_trials > 1:
        bounds = [cfg.n_trials * k // workers for k in range(workers + 1)]
        chunks = [range(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]
        # Imported here: a run in one process should not pay for it.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            parts = list(pool.map(run, chunks))
    else:
        parts = [run(range(cfg.n_trials))]
    runs = {}
    for k, run_cfg in enumerate(cfgs):
        chunks = [part[k] for part in parts]
        runs[run_cfg.policy] = RunResult(
            config=run_cfg,
            series=MsdSeries(np.concatenate([chunk["msd"] for chunk in chunks]).mean(axis=0)),
            recovery_scores=np.concatenate([chunk["recovery"] for chunk in chunks]),
            min_psd_eigenvalue=min(
                np.concatenate([chunk["min_psd"] for chunk in chunks]).tolist()
            ),
            detail=chunks[0]["detail"],
        )
    return SweepResult(runs)


def run_experiment(cfg: ExperimentConfig, **kwargs) -> RunResult:
    """cfg.policy's run: a one-policy ``policy_sweep``, with its keywords."""
    return policy_sweep(cfg, [cfg.policy], **kwargs).runs[cfg.policy]


def _ints(values):
    """Each integer of an array, in C order, as text."""
    return map(str, np.ravel(values).tolist())


def _floats(values):
    """Each float of an array, in C order, as its repr: the text that
    reads back to the same bits."""
    return map(repr, np.ravel(values).tolist())


def _lines(*columns) -> str:
    """One comma-separated line per row, the columns' items taken in step
    as its cells; every column is an iterable of strings."""
    text = "\n".join(map(",".join, zip(*columns)))
    return text + "\n" if text else ""


def _write_lines(path, header, blocks):
    """Write a header line, then each block of lines in turn."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for block in blocks:
            fh.write(block)


MSD_HEADER = "iteration,cluster_id,policy,msd_linear,msd_db,n_trials"


def _msd_lines(run) -> str:
    """A run's ``records`` as msd.csv lines, one per (iteration, cluster)."""
    series, cfg = run.series, run.config
    iteration, cluster = np.indices(series.msd_linear.shape).reshape(2, -1)
    return _lines(
        _ints(iteration), _ints(cluster + 1), repeat(cfg.policy),
        _floats(series.msd_linear), _floats(series.msd_db), repeat(str(cfg.n_trials)),
    )


def write_msd_csv(runs, path) -> None:
    """Write every run's ``records`` to ``path``, run after run, each
    float as its repr, so ``read_msd_csv`` returns the records exactly."""
    _write_lines(path, MSD_HEADER, map(_msd_lines, runs))


def read_msd_csv(path):
    """Inverse of write_msd_csv; returns MetricsRecord tuples."""
    records = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != MSD_HEADER:
            raise ConfigError(f"unexpected MSD header '{header}'")
        for raw in fh:
            try:
                iteration, cluster_id, policy, linear, db, n_trials = raw.rstrip("\n").split(",")
                records.append(
                    MetricsRecord(
                        iteration=int(iteration),
                        cluster_id=int(cluster_id),
                        policy=policy,
                        msd_linear=float(linear),
                        msd_db=float(db),
                        n_trials=int(n_trials),
                    )
                )
            except ValueError:
                raise ConfigError(f"malformed MSD row '{raw.strip()}'") from None
    return tuple(records)


def write_topology(prefix, positions, cluster_of, adjacency, alive):
    """Write ``prefix``.csv (nodes) and ``prefix``_edges.csv (edges of
    ``adjacency``, each flagged alive where ``alive`` still holds it)."""
    nodes = _lines(
        _ints(range(len(positions))), _floats(positions[:, 0]), _floats(positions[:, 1]),
        _ints(cluster_of),
    )
    _write_lines(f"{prefix}.csv", "node_id,x,y,cluster", [nodes])
    a, b = np.nonzero(np.triu(adjacency, 1))
    edges = _lines(_ints(a), _ints(b), _ints(alive[a, b].astype(int)))
    _write_lines(f"{prefix}_edges.csv", "node_a,node_b,alive", [edges])


def _trajectory_blocks(runs):
    """trajectory.csv's lines, one block per policy: each (iteration,
    target) row's truth cells, then the policy's mean estimate of the
    cluster of the same number, NaN where no such cluster exists. Runs
    that share their truths share the formatted truth cells."""
    prev = None
    for name, run in runs.items():
        truths, est = run.detail["truths"], run.detail["est_mean"]
        if prev is None or not (truths is prev or np.array_equal(truths, prev)):
            iteration, target = np.indices(truths.shape[:2]).reshape(2, -1)
            heads = list(
                map(",".join, zip(
                    _ints(iteration), _ints(target + 1),
                    _floats(truths[..., 0]), _floats(truths[..., 1]),
                ))
            )
            prev = truths
        cells = np.full(truths.shape[:2] + (2,), math.nan)
        cells[:, : est.shape[1]] = est[:, : truths.shape[1]]
        yield _lines(heads, repeat(name), _floats(cells[..., 0]), _floats(cells[..., 1]))


def _weight_blocks(snapshots, numbers):
    """weights_<policy>.csv's lines, one block per snapshot: the nonzero
    entries of its C, n-major, as ``iteration,n,m,repr(weight)``. A
    snapshot equal to the one before it reuses that one's body, the
    entries' ``n,m,weight`` cells, with its own iteration prefixed to each.
    ``numbers`` holds each node index as text."""
    prev = None
    for iteration, c in snapshots:
        # Static matrices repeat one after another and adaptive ones do
        # not come back, so only the previous body is kept.
        if prev is None or not (c is prev or np.array_equal(c, prev)):
            nn, mm = np.nonzero(c)
            body = list(
                map(",".join, zip(
                    map(numbers.__getitem__, nn.tolist()),
                    map(numbers.__getitem__, mm.tolist()),
                    _floats(c[nn, mm]),
                ))
            )
            prev = c
        if body:
            head = f"{iteration},"
            yield head + f"\n{head}".join(body) + "\n"


def write_outputs(result, out_dir) -> None:
    """Emit the artifact file set for a RunResult or SweepResult.

    Each file is formatted column by column, every float column by one
    ``repr`` pass over its values and the node indices of the weights from
    one table of texts per call, and written block by block: one policy's
    rows of msd.csv and trajectory.csv, one snapshot's rows of a weights
    file.
    ``weights_<policy>.csv`` holds the header ``iteration,n,m,weight``,
    then one block per snapshot: the nonzero entries of its C, n-major,
    each as ``iteration,n,m,repr(weight)``, so the weights read back
    exactly. A snapshot equal to the one before it reuses that one's
    formatted body, with its own iteration prefixed to every line.
    """
    if isinstance(result, RunResult):
        result = SweepResult({result.config.policy: result})
    os.makedirs(out_dir, exist_ok=True)
    runs = result.runs
    cfg = next(iter(runs.values())).config
    write_msd_csv(runs.values(), os.path.join(out_dir, "msd.csv"))
    _write_lines(
        os.path.join(out_dir, "trajectory.csv"),
        "iteration,target_id,x,y,policy,est_x,est_y",
        _trajectory_blocks(runs),
    )

    topo_policy = "adaptive" if "adaptive" in runs else next(iter(runs))
    detail = runs[topo_policy].detail
    adj0 = detail["adjacency_initial"]
    for stage, alive in (("initial", adj0), ("final", detail["adjacency_final"])):
        write_topology(
            os.path.join(out_dir, f"topology_{stage}"),
            detail["positions"], detail["cluster_of"], adj0, alive,
        )

    numbers = list(_ints(range(len(adj0))))
    for name in POLICIES:
        path = os.path.join(out_dir, f"weights_{name}.csv")
        snaps = runs[name].detail["snapshots"] if name in runs else None
        if snaps:
            _write_lines(path, "iteration,n,m,weight", _weight_blocks(snaps, numbers))
        else:
            # A weights file this run did not write is an earlier run's.
            with suppress(FileNotFoundError):
                os.remove(path)

    meta = {
        "artifact_version": __version__,
        "seed": cfg.seed,
        "config": dataclasses.asdict(cfg),
        "policies": list(runs),
        "topology_final_policy": topo_policy,
        "head_radius": cfg.effective_head_radius,
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
