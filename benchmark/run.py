"""Benchmark of difftrack's Monte Carlo runs.

Usage, from the root of a source checkout:

    python3 benchmark/run.py --workload default-adaptive --seed 1 --seconds 30 --trace 0

One process runs one workload with ``workers=1``: after the set-up (import,
configs and one short untimed warm-up call) it repeats one operation, a
many-trial call into ``difftrack.harness`` with its output checks, as long
as another operation still fits in ``--seconds``. Every operation of a run
uses the same inputs, made from ``--seed``.

With ``--trace 0`` it reports the end-to-end metrics, with no name in
difftrack wrapped. With ``--trace 1`` it alternates an untraced and a
traced operation and reports the per-module figures of the traced ones
(see spans.py) and the tracing overhead. Each figure is the median over
the operations of the run, and every time is scaled to a nominal host
speed measured around each operation (see hostspeed.py). The last line of
standard output is one JSON object: correct, attempted, failed and the
metrics with their units.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".bench_out")

# Fresh processes timed through set-up per untraced run; setup_s is their
# median.
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 60

E2E_UNITS = {
    "trial_steps_per_s": "1/s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

LAYER_UNITS = {
    "numerics.inverse_spd.calls": "count",
    "numerics.inverse_spd.matrices": "count",
    "numerics.inverse_spd.s": "s",
    "numerics.inverse_spd.us_per_matrix": "us",
    "numerics.symmetrize.calls": "count",
    "numerics.symmetrize.s": "s",
    "engine.run_step.calls": "count",
    "engine.run_step.s": "s",
    "engine.run_step.self_s": "s",
    "combiners.consistent_pairs.calls": "count",
    "combiners.consistent_pairs.s": "s",
    "combiners.validate_combination_matrix.calls": "count",
    "combiners.validate_combination_matrix.s": "s",
    "combiners.static_weights.calls": "count",
    "topology.prune_cross_links.calls": "count",
    "topology.prune_cross_links.s": "s",
    "topology.prune_cross_links.useful_ratio": "ratio",
    "topology.edges_pruned": "count",
    "topology.generate_geometric.s": "s",
    "topology.initial_partition.s": "s",
    "dynamics.step_truth.calls": "count",
    "dynamics.step_truth.s": "s",
    "metrics.msd_accumulate.s": "s",
    "metrics.read_clusters.s": "s",
    "metrics.cluster_recovery_score.s": "s",
    "harness.run_experiment.self_s": "s",
    "harness.write_outputs.s": "s",
    "harness.write_outputs.bytes": "bytes",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--probe-setup",
        action="store_true",
        help="set up, print 'ready' and exit (used to time set-up in a fresh process)",
    )
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        p.error("--seed must lie in [0, 2**64)")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def set_up(args, out_dir):
    """Import difftrack, build the workload and make one warm-up call."""
    import workloads

    harness = workloads.load_difftrack(ROOT)
    op = workloads.build(harness, args.workload, args.seed, out_dir)
    op.warm_up()
    return harness, op


def time_setup(args) -> list:
    """Scaled set-up time of SETUP_PROBES fresh processes, from spawn to
    'ready'. Each probe then runs the host-speed reference once."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--probe-setup",
    ]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            rest = proc.stdout.read()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        ref = float(rest)
        print(f"set-up probe: {elapsed:.3f} s, reference {ref:.3f} s", file=sys.stderr)
        samples.append(elapsed * hostspeed.scale(ref, ref))
    return samples


class Counter:
    """Operations attempted and failed, and the problems the checks found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []


def run_op(op, counter, tracer=None):
    """One operation: the timed call (traced if a tracer is given), then the
    checks. Returns the Timing, or None if the call raised."""
    counter.attempted += 1
    try:
        if tracer is None:
            timing, output = op.execute()
        else:
            tracer.reset()
            with tracer.installed():
                timing, output = op.execute()
    except Exception:
        counter.failed += 1
        print(f"operation {counter.attempted} failed:", file=sys.stderr)
        traceback.print_exc()
        return None
    try:
        problems = op.check(output)
    except Exception as exc:
        problems = [f"output check raised {type(exc).__name__}: {exc}"]
    for problem in problems:
        print(f"operation {counter.attempted}: {problem}", file=sys.stderr)
    counter.problems += problems
    return timing


def measure(op, seconds, counter, tracer=None):
    """Repeat whole rounds while another round still fits in ``seconds``.

    A round is one operation, or with a tracer one untraced and one traced
    operation. The host-speed reference runs before the first operation
    and after each one. Returns (timing, scale) for the untraced and
    (timing, scale, figures) for the traced operations.
    """
    plain, traced = [], []
    ref = hostspeed.reference_s()
    start = time.perf_counter()
    rounds = []
    while not rounds or time.perf_counter() - start + statistics.median(rounds) <= seconds:
        t0 = time.perf_counter()
        for use in (None, tracer) if tracer else (None,):
            timing = run_op(op, counter, use)
            after = hostspeed.reference_s()
            if timing is not None:
                factor = hostspeed.scale(ref, after)
                print(
                    f"op {counter.attempted}{' traced' if use else ''}: call {timing.call_s:.3f} s, "
                    f"wall {timing.wall_s:.3f} s, cpu {timing.cpu_s:.3f} s, scale {factor:.3f}",
                    file=sys.stderr,
                )
                if use is None:
                    plain.append((timing, factor))
                else:
                    traced.append((timing, factor, tracer.layer_metrics()))
            ref = after
        rounds.append(time.perf_counter() - t0)
    return plain, traced


def end_to_end(plain, setup_samples) -> dict:
    return {
        "trial_steps_per_s": statistics.median(t.trial_steps / (t.call_s * k) for t, k in plain),
        "wall_s": statistics.median(t.wall_s * k for t, k in plain),
        "cpu_s": statistics.median(t.cpu_s * k for t, k in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_samples),
    }


def per_layer(plain, traced) -> dict:
    """Median of each traced figure; times are scaled like end-to-end ones."""
    figures = {}
    for name in traced[0][2]:
        timed = LAYER_UNITS[name] in ("s", "us")
        figures[name] = statistics.median(
            metrics[name] * (k if timed else 1) for _, k, metrics in traced
        )
    figures["trace.overhead_s"] = statistics.median(
        t.wall_s * k for t, k, _ in traced
    ) - statistics.median(t.wall_s * k for t, k in plain)
    return figures


def main(argv=None) -> int:
    args = parse_args(argv)
    out_dir = os.path.join(OUT_ROOT, f"{args.workload}-{os.getpid()}")
    try:
        harness, op = set_up(args, out_dir)
        if args.probe_setup:
            print("ready", flush=True)
            print(hostspeed.reference_s())
            return 0
        tracer = None
        if args.trace:
            from spans import Tracer, difftrack_targets

            tracer = Tracer(difftrack_targets(harness))
        counter = Counter()
        plain, traced = measure(op, args.seconds, counter, tracer)
    except (FileNotFoundError, ImportError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            os.rmdir(OUT_ROOT)
        except OSError:
            pass
    if not plain or (args.trace and not traced):
        print("error: every operation failed", file=sys.stderr)
        return 1
    if args.trace:
        metrics, units = per_layer(plain, traced), LAYER_UNITS
    else:
        metrics, units = end_to_end(plain, time_setup(args)), E2E_UNITS
    for name, value in metrics.items():
        print(f"{name:45s} {value:>16.6f} {units[name]}")
    print(f"operations attempted {counter.attempted}, failed {counter.failed}")
    result = {
        "correct": not counter.problems,
        "attempted": counter.attempted,
        "failed": counter.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
