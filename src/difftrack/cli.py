"""Command-line interface: run, sweep, topology, selftest.

``run`` is a one-policy ``sweep``: both go through ``policy_sweep`` and
write the same files and summary lines.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .combiners import POLICIES
from .errors import ConfigError, NumericError
from .harness import (
    ExperimentConfig,
    draw_scene,
    load_config,
    policy_sweep,
    trial_rng,
    write_outputs,
    write_topology,
)
from .metrics import steady_state_db


def _scene_args(p) -> None:
    """Options every subcommand that draws a scene shares; _load reads them."""
    p.add_argument("--config", help="configuration file (flat key = value, or JSON)")
    p.add_argument("--seed", type=int, help="override the experiment seed")
    p.add_argument(
        "--head-radius",
        type=float,
        help="override the cluster-head ball radius (config key head_radius)",
    )
    p.add_argument("--out-dir", default="difftrack-out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="difftrack",
        description="Distributed multitask tracking simulator over sensor networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_policy=False, with_policies=False):
        _scene_args(p)
        if with_policy:
            p.add_argument("--policy", choices=POLICIES, help="override the combination policy")
        if with_policies:
            p.add_argument(
                "--policies",
                default=",".join(POLICIES),
                help="comma-separated policies to sweep (default: all)",
            )
        p.add_argument("--workers", type=int, default=1, help="parallel trial workers")
        p.add_argument(
            "--weights-every",
            type=int,
            default=0,
            metavar="K",
            help="snapshot combination weights every K iterations (0 = off)",
        )

    common(sub.add_parser("run", help="run one experiment"), with_policy=True)
    common(sub.add_parser("sweep", help="run a common-random-number policy sweep"), with_policies=True)
    _scene_args(sub.add_parser("topology", help="generate and export one topology draw"))

    sub.add_parser("selftest", help="run the oracle-equivalence checks")
    return parser


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.head_radius is not None:
        cfg = dataclasses.replace(cfg, head_radius=args.head_radius)
    return cfg


def _summarize(run) -> None:
    series = run.series
    for l in range(series.n_clusters):
        steady = steady_state_db(series.msd_db[:, l])
        conv = run.convergence[l]
        print(
            f"policy={run.config.policy} cluster={l + 1} "
            f"steady_msd_db={steady:.2f} convergence_iteration={conv}"
        )
    scores = run.recovery_scores
    print(
        f"policy={run.config.policy} recovery_mean={scores.mean():.4f} "
        f"perfect_trials={int((scores == 1.0).sum())}/{scores.shape[0]}"
    )


def _cmd_sweep(args) -> int:
    cfg = _load(args)
    if args.command == "run":
        policies = [args.policy or cfg.policy]
    else:
        policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    result = policy_sweep(
        cfg, policies, workers=args.workers, weights_every=args.weights_every
    )
    write_outputs(result, args.out_dir)
    for run in result.runs.values():
        _summarize(run)
    print(f"artifacts written to {args.out_dir}")
    return 0


def _cmd_topology(args) -> int:
    cfg = _load(args)
    rng = trial_rng(cfg.seed, 0)
    net, part = draw_scene(cfg, rng)
    os.makedirs(args.out_dir, exist_ok=True)
    adjacency = net.adjacency
    write_topology(
        os.path.join(args.out_dir, "topology_initial"),
        net.positions,
        part.cluster_of,
        adjacency,
        adjacency,
    )
    print(f"topology written to {args.out_dir}")
    return 0


def _cmd_selftest() -> int:
    from .selftest import run_selftest

    ok = True
    for check in run_selftest():
        status = "ok" if check.passed else "FAIL"
        print(f"{status:4s} {check.name}: {check.detail}")
        ok = ok and check.passed
    return 0 if ok else 3


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in ("run", "sweep"):
            return _cmd_sweep(args)
        if args.command == "topology":
            return _cmd_topology(args)
        return _cmd_selftest()
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
