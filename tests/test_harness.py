"""Configuration parsing, experiment orchestration, artifact emission, CLI."""

import dataclasses
import json
import math
import os
import pickle
import re
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

from difftrack import cli, harness
from difftrack.cli import main
from difftrack.combiners import POLICIES
from difftrack.dynamics import initial_state, step_truth
from difftrack.engine import DiffusionKalmanEngine
from difftrack.errors import ConfigError, NumericError
from difftrack.harness import (
    ExperimentConfig,
    MetricsRecord,
    RunResult,
    draw_scene,
    load_config,
    policy_sweep,
    read_msd_csv,
    run_experiment,
    trial_rng,
    write_msd_csv,
    write_outputs,
)
from difftrack.metrics import MsdSeries, convergence_iteration
from difftrack.selftest import batch_adapt_reference, reference_kf_predict

SMALL = dict(n_nodes=12, comm_radius=0.55, min_degree=2, n_trials=3, n_iterations=25)
README = Path(__file__).resolve().parents[1] / "README.md"


class TestExperimentConfig:
    def test_defaults_match_published_scenario(self):
        cfg = ExperimentConfig()
        assert cfg.n_nodes == 30
        assert cfg.comm_radius == 0.35
        assert cfg.min_degree == 4
        assert cfg.n_trials == 200
        assert cfg.n_iterations == 100
        assert cfg.delta == 0.1
        assert cfg.g == 10.0
        assert (cfg.x0, cfg.y0, cfg.v0) == (1.0, 30.0, 15.0)
        assert cfg.angles == pytest.approx((math.pi / 3, math.pi / 4))
        assert (cfg.sigma_min, cfg.sigma_span) == (0.01, 0.5)
        assert (cfg.G_scale, cfg.Q_scale, cfg.P0_scale) == (0.625, 0.001, 1.0)
        assert cfg.policy == "adaptive"
        assert (cfg.prune_tau, cfg.prune_window) == (0.05, 10)
        assert cfg.pruning_enabled and cfg.filter_knows_gravity

    def test_model_is_built_from_the_config_and_is_not_a_field(self):
        cfg = ExperimentConfig(delta=0.2, g=9.0, G_scale=0.5, Q_scale=0.01)
        m = cfg.model
        assert (m.delta, m.g, m.g_scale, m.q_scale) == (0.2, 9.0, 0.5, 0.01)
        assert cfg.model is m
        assert "model" not in {f.name for f in dataclasses.fields(cfg)}
        assert "model" not in dataclasses.asdict(cfg)
        assert cfg == ExperimentConfig(delta=0.2, g=9.0, G_scale=0.5, Q_scale=0.01)
        assert dataclasses.replace(cfg, delta=0.1).model.delta == 0.1
        clone = pickle.loads(pickle.dumps(cfg))
        assert clone == cfg and clone.model == m
        # A model that overflows is refused when it is first built.
        bad = ExperimentConfig(delta=1e200)
        with pytest.raises(ConfigError, match="non-finite motion model"):
            bad.model

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n_trials", 0),
            ("n_iterations", 0),
            ("n_nodes", 0),
            ("comm_radius", 0.0),
            ("comm_radius", 2.0),
            # Just above sqrt(2), which generate_geometric refuses.
            ("comm_radius", 1.4142135623731),
            ("delta", 0.0),
            ("sigma_min", 0.0),
            ("sigma_span", -0.1),
            ("policy", "fastest"),
            ("angles", (1.0,)),
            ("angles", 1.0),
            ("prune_tau", 1.5),
            ("prune_window", 0),
            ("eps", 0.0),
            ("P0_scale", 0.0),
            ("G_scale", -0.625),
            ("seed", -1),
            ("seed", 2**64),
            ("n_iterations", 9),
            ("head_radius", 0.0),
            ("head_radius", -0.2),
            ("head_radius", math.inf),
            ("head_radius", math.nan),
            ("head_radius", math.sqrt(2.0)),
            ("head_radius", 2.0),
        ],
    )
    def test_invariant_violations_rejected(self, field, value):
        with pytest.raises(ConfigError):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize("radius", [0.0, -0.2, math.sqrt(2.0), 2.0])
    def test_head_radius_outside_the_square_is_named(self, radius):
        with pytest.raises(ConfigError, match=r"^head_radius must lie in \(0, sqrt\(2\)\)$"):
            ExperimentConfig(head_radius=radius)
        # Just below sqrt(2) the ball can still miss a corner.
        assert ExperimentConfig(head_radius=1.414).head_radius == 1.414

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field",
        [
            "comm_radius", "head_radius", "delta", "g", "x0", "y0", "v0", "angles",
            "sigma_min", "sigma_span", "G_scale", "Q_scale", "P0_scale", "eps", "prune_tau",
        ],
    )
    def test_non_finite_values_rejected_by_name(self, field, value):
        if field == "angles":
            value = (value, 1.0)
        with pytest.raises(ConfigError, match=rf"^{field} must be finite"):
            ExperimentConfig(**{field: value})

    def test_overflowing_noise_range_rejected_by_both_keys(self):
        # Each trial's noise levels lie in [sigma_min, sigma_min + sigma_span];
        # a sum that overflows is bad input, named before any trial runs.
        with pytest.raises(
            ConfigError,
            match=r"^sigma_min = 1e\+308 and sigma_span = 1e\+308 give a non-finite "
            r"largest measurement variance$",
        ):
            ExperimentConfig(sigma_min=1e308, sigma_span=1e308)
        assert ExperimentConfig(sigma_min=1.0, sigma_span=1.7e308).sigma_span == 1.7e308

    # A library caller meets the same type checks as a config file.
    @pytest.mark.parametrize(
        "field,value",
        [
            (field, value)
            for field in (
                "comm_radius", "head_radius", "delta", "g", "x0", "y0", "v0", "angles",
                "sigma_min", "sigma_span", "G_scale", "Q_scale", "P0_scale", "eps", "prune_tau",
            )
            for value in (True, False, "0.1", None, np.True_)
            # head_radius None means comm_radius.
            if (field, value) != ("head_radius", None)
        ],
    )
    def test_non_number_for_real_key_rejected_by_name(self, field, value):
        if field == "angles":
            value = (1.0, value)
        with pytest.raises(ConfigError, match=rf"^key '{field}' expects a real number"):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize("value", [True, False, 10.0, "10", None])
    @pytest.mark.parametrize(
        "field", ["n_nodes", "min_degree", "n_trials", "n_iterations", "prune_window", "seed"]
    )
    def test_non_integer_for_integer_key_rejected_by_name(self, field, value):
        with pytest.raises(ConfigError, match=rf"^key '{field}' expects an integer"):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None, np.True_])
    @pytest.mark.parametrize("field", ["pruning_enabled", "filter_knows_gravity"])
    def test_non_bool_for_bool_key_rejected_by_name(self, field, value):
        with pytest.raises(ConfigError, match=rf"^key '{field}' expects a boolean"):
            ExperimentConfig(**{field: value})

    def test_every_key_is_of_a_kind_the_checks_and_the_parser_handle(self):
        # __post_init__ checks and _coerce parses keys annotated int, bool,
        # str, tuple, float or float | None; a key of another kind would
        # pass both unchecked.
        hints = typing.get_type_hints(ExperimentConfig)
        assert list(hints) == [f.name for f in dataclasses.fields(ExperimentConfig)]
        kinds = (int, bool, str, tuple, float, float | None)
        assert [name for name, hint in hints.items() if hint not in kinds] == []

    def test_readme_names_every_key(self):
        text = README.read_text(encoding="utf-8")
        start = text.index("Keys (defaults in parentheses):")
        paragraph = text[start : text.index("\n\n", start)]
        named = set(re.findall(r"`(\w+)`", paragraph))
        fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert [name for name in fields if name not in named] == []
        count = re.search(r"These (\d+) keys", paragraph)
        assert count and int(count.group(1)) == len(fields)

    def test_numpy_and_integer_values_stored_as_plain_types(self, tmp_path):
        cfg = ExperimentConfig(
            **{**SMALL, "n_trials": np.int64(2), "n_iterations": 10},
            delta=1, angles=[1, np.float64(0.5)], head_radius=np.float32(0.25), seed=np.uint64(7),
        )
        assert type(cfg.n_trials) is int and type(cfg.seed) is int
        assert type(cfg.delta) is float and cfg.delta == 1.0
        assert cfg.angles == (1.0, 0.5) and type(cfg.head_radius) is float
        # So its run_meta.json is plain JSON that loads back to the same config.
        write_outputs(run_experiment(cfg), tmp_path)
        assert load_config(tmp_path / "run_meta.json") == cfg


class TestLoadConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        assert load_config(path) == ExperimentConfig()

    def test_flat_document_with_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# two-trial check\n"
            "n_trials = 2\n"
            "policy = metropolis\n"
            "angles = 1.0, 0.5\n"
            "pruning_enabled = false\n"
            "seed = 42  # inline comment\n"
        )
        cfg = load_config(path)
        assert cfg.n_trials == 2
        assert cfg.policy == "metropolis"
        assert cfg.angles == (1.0, 0.5)
        assert cfg.pruning_enabled is False
        assert cfg.seed == 42

    def test_unknown_key_named_in_error(self, tmp_path):
        path = tmp_path / "typo.cfg"
        path.write_text("n_trails = 10\n")
        with pytest.raises(ConfigError, match="n_trails"):
            load_config(path)

    def test_invariant_violation_raises_config_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("n_trials = 0\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text("seed = 1\nseed = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(path)


    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            load_config(tmp_path / "nope.cfg")

    def test_json_document(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"n_trials": 4, "policy": "uniform"}))
        cfg = load_config(path)
        assert cfg.n_trials == 4
        assert cfg.policy == "uniform"

    def test_head_radius_key(self, tmp_path):
        flat = tmp_path / "run.cfg"
        flat.write_text("head_radius = 0.2\n")
        assert load_config(flat).head_radius == 0.2
        doc = tmp_path / "run.json"
        doc.write_text(json.dumps({"head_radius": 0.25}))
        assert load_config(doc).head_radius == 0.25
        doc.write_text(json.dumps({"head_radius": None}))
        cfg = load_config(doc)
        assert cfg.head_radius is None
        assert cfg == ExperimentConfig()
        assert cfg.effective_head_radius == cfg.comm_radius

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize(
        "field",
        [
            "comm_radius", "head_radius", "delta", "g", "x0", "y0", "v0", "angles",
            "sigma_min", "sigma_span", "G_scale", "Q_scale", "P0_scale", "eps", "prune_tau",
        ],
    )
    def test_json_boolean_for_real_key_rejected_by_name(self, tmp_path, field, value):
        if field == "angles":
            value = [1.0, value]
        path = tmp_path / "bool.json"
        path.write_text(json.dumps({field: value}))
        with pytest.raises(ConfigError, match=rf"^key '{field}' expects "):
            load_config(path)

    def test_boolean_words_hex_integers_and_bracketed_angles(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "pruning_enabled = yes\nfilter_knows_gravity = ON\nseed = 0x10\nangles = [1.0, 0.5]\n"
        )
        cfg = load_config(path)
        assert cfg.pruning_enabled is True and cfg.filter_knows_gravity is True
        assert cfg.seed == 16
        assert cfg.angles == (1.0, 0.5)
        path.write_text("pruning_enabled = no\nfilter_knows_gravity = OFF\n")
        cfg = load_config(path)
        assert cfg.pruning_enabled is False and cfg.filter_knows_gravity is False

    @pytest.mark.parametrize(
        "text,message",
        [
            ("n_trials = three\n", "cannot parse integer value 'three' for key 'n_trials'"),
            (
                "pruning_enabled = maybe\n",
                "cannot parse boolean value 'maybe' for key 'pruning_enabled'",
            ),
            ("angles = 1.0, pi\n", "cannot parse angle list '1.0, pi'"),
            ("delta = fast\n", "cannot parse numeric value 'fast' for key 'delta'"),
            ("seed = 1\nn_trials 2\n", "line 2: expected 'key = value', got 'n_trials 2'"),
            ('{"n_trials": 2,\n', "invalid JSON configuration"),
        ],
        ids=["integer", "boolean", "angles", "number", "no-equals", "json"],
    )
    def test_unparseable_value_rejected(self, tmp_path, text, message):
        path = tmp_path / "garbage.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            load_config(path)

    def test_json_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n_trails": 4}))
        with pytest.raises(ConfigError, match="n_trails"):
            load_config(path)


def loaded_on_import(package):
    """The modules of ``package`` loaded once a fresh interpreter has
    imported ``difftrack.harness`` and ``difftrack.cli``."""
    import difftrack

    src = os.path.dirname(os.path.dirname(difftrack.__file__))
    code = (
        "import sys, difftrack.harness, difftrack.cli; "
        f"print(sorted(m for m in sys.modules if m == {package!r} "
        f"or m.startswith({package + '.'!r})))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def test_harness_import_leaves_scipy_stats_unloaded():
    # scipy is a test-only dependency: no CLI entry point may load any of it.
    assert loaded_on_import("scipy") == "[]"


def test_harness_import_leaves_process_pools_unloaded():
    # Only a run with workers > 1 needs a process pool.
    assert loaded_on_import("concurrent.futures.process") == "[]"


class TestTrialStreams:
    def test_trial_streams_are_stable_under_trial_count(self):
        # Adding trials must never perturb earlier trials' draws.
        a = trial_rng(9, 3).random(8)
        b = trial_rng(9, 3).random(8)
        assert np.array_equal(a, b)
        assert not np.array_equal(trial_rng(9, 3).random(8), trial_rng(9, 4).random(8))
        assert not np.array_equal(trial_rng(9, 3).random(8), trial_rng(10, 3).random(8))

    def test_noiseless_truths_draw_the_same_stream(self, monkeypatch):
        # Stream alignment: Q = 0 consumes the truth-noise block like Q > 0,
        # so the scene, the noise levels and every step's measurement noise
        # come from the same draws.
        streams, seen = [], []

        def spy_rng(seed, trial):
            streams.append(trial_rng(seed, trial))
            return streams[-1]

        class Recording(DiffusionKalmanEngine):
            def run_step(self, y):
                # Each trial's stream position once the step's noise is drawn.
                seen[-1].append([rng.bit_generator.state for rng in streams])
                return super().run_step(y)

        monkeypatch.setattr(harness, "trial_rng", spy_rng)
        monkeypatch.setattr(harness, "DiffusionKalmanEngine", Recording)
        cfg = ExperimentConfig(seed=5, **SMALL)
        runs = []
        for q_scale in (cfg.Q_scale, 0.0):
            streams.clear()
            seen.append([])
            runs.extend(harness.run_trials([dataclasses.replace(cfg, Q_scale=q_scale)], range(3)))
        noisy, noiseless = (run["detail"] for run in runs)
        for key in ("positions", "cluster_of", "adjacency_initial"):
            assert np.array_equal(noisy[key], noiseless[key]), key
        assert not np.array_equal(noisy["truths"], noiseless["truths"])
        assert len(seen[0]) == cfg.n_iterations
        assert seen[0] == seen[1]


class TestRunExperiment:
    def test_single_node_uniform_matches_centralized_kf(self):
        # One node forms one cluster, but the run draws two targets: the
        # harness scores the node's MSD against its own target's row.
        cfg = ExperimentConfig(
            n_nodes=1, policy="uniform", n_trials=1, n_iterations=40, seed=123
        )
        result = run_experiment(cfg)
        rng = trial_rng(cfg.seed, 0)
        sigma2 = cfg.sigma_min + cfg.sigma_span * rng.random(1)
        truth_noise = rng.standard_normal((cfg.n_iterations - 1, cfg.n_targets, 4))
        model = cfg.model
        truth = initial_state(cfg.x0, cfg.y0, cfg.v0, cfg.angles[0])
        x = np.zeros(4)
        p = np.eye(4) * cfg.P0_scale
        h = np.eye(4)
        r = sigma2[0] * np.eye(4)
        oracle = np.empty(cfg.n_iterations)
        for j in range(cfg.n_iterations):
            if j:
                truth = step_truth(truth, model, truth_noise[j - 1, 0])
            noise = rng.standard_normal((1, 4))
            y = truth + math.sqrt(sigma2[0]) * noise[0]
            x, p = batch_adapt_reference(x, p, [(y, h, r)])
            oracle[j] = np.sum((truth - x) ** 2)
            x, p = reference_kf_predict(x, p, model, knows_gravity=True)
        assert result.series.msd_linear[:, 0] == pytest.approx(oracle, abs=1e-10)

    def test_same_seed_twice_identical_records(self):
        cfg = ExperimentConfig(seed=5, **SMALL)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.records == b.records
        assert np.array_equal(a.recovery_scores, b.recovery_scores)

    def test_parallel_equals_serial(self, tmp_path):
        cfg = ExperimentConfig(seed=5, **{**SMALL, "n_trials": 4})
        serial = run_experiment(cfg, workers=1)
        parallel = run_experiment(cfg, workers=4)
        write_outputs(serial, tmp_path / "a")
        write_outputs(parallel, tmp_path / "b")
        for name in os.listdir(tmp_path / "a"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes(), name

    def test_failed_trial_reports_index(self):
        # Impossible degree constraint at this node count: topology draw fails.
        cfg = ExperimentConfig(
            n_nodes=3, comm_radius=0.05, min_degree=2, n_trials=2, n_iterations=10
        )
        with pytest.raises(ConfigError, match="trial 0"):
            run_experiment(cfg)

    def test_detail_captured_for_first_trial(self):
        cfg = ExperimentConfig(seed=5, **SMALL)
        res = run_experiment(cfg, weights_every=10)
        detail = res.detail
        assert detail["positions"].shape == (cfg.n_nodes, 2)
        assert detail["truths"].shape == (cfg.n_iterations, 2, 4)
        assert detail["adjacency_initial"].sum() >= detail["adjacency_final"].sum()
        iterations = [it for it, _ in detail["snapshots"]]
        assert iterations == [0, 10, 20]

    def test_detail_is_trial_zeros_whole_record_across_workers(self):
        cfg = ExperimentConfig(seed=5, **SMALL)
        detail = run_experiment(cfg, workers=2).detail
        assert set(detail) == {
            "positions", "cluster_of", "adjacency_initial", "adjacency_final",
            "truths", "est_mean", "final_C", "snapshots",
        }
        assert detail["snapshots"] == []
        serial = run_experiment(cfg).detail
        assert all(np.array_equal(detail[k], serial[k]) for k in detail if k != "snapshots")

    def test_convergence_is_computed_once(self):
        run = run_experiment(ExperimentConfig(seed=5, **SMALL))
        assert run.convergence is run.convergence
        assert run.convergence == tuple(
            convergence_iteration(run.series.msd_db[:, l]) for l in range(run.series.n_clusters)
        )
        # The cached value is no field: it leaves equality and copies alone.
        assert dataclasses.replace(run) == run


class TestPolicySweep:
    def test_common_random_numbers_share_scene(self):
        cfg = ExperimentConfig(seed=11, **SMALL)
        sweep = policy_sweep(cfg, ["uniform", "adaptive"])
        du = sweep.runs["uniform"].detail
        da = sweep.runs["adaptive"].detail
        assert np.array_equal(du["positions"], da["positions"])
        assert np.array_equal(du["adjacency_initial"], da["adjacency_initial"])
        assert np.array_equal(du["truths"], da["truths"])
        assert np.array_equal(du["cluster_of"], da["cluster_of"])

    def test_singleton_sweep_equals_run(self, tmp_path):
        # The engines of a sweep share its draws, each step's y and the
        # policy-independent half of each step: each policy's run writes
        # the bytes of its one-policy sweep, with weights every step and
        # two workers.
        cfg = ExperimentConfig(seed=11, **SMALL)
        kwargs = dict(workers=2, weights_every=1)
        sweep = policy_sweep(cfg, POLICIES, **kwargs)
        for name in POLICIES:
            single = run_experiment(dataclasses.replace(cfg, policy=name), **kwargs)
            write_outputs(sweep.runs[name], tmp_path / name / "sweep")
            write_outputs(single, tmp_path / name / "run")
            files = os.listdir(tmp_path / name / "run")
            assert f"weights_{name}.csv" in files
            for file in files:
                assert (tmp_path / name / "run" / file).read_bytes() == (
                    tmp_path / name / "sweep" / file
                ).read_bytes(), (name, file)

    def test_empty_sweep_rejected(self):
        with pytest.raises(ConfigError):
            policy_sweep(ExperimentConfig(**SMALL), [])

    # A bare string is refused by name, not split into one-letter policies.
    @pytest.mark.parametrize(
        "policies,named", [(["fastest"], "'fastest'"), ("adaptive", "string 'adaptive'")]
    )
    def test_unknown_policy_rejected(self, policies, named):
        with pytest.raises(ConfigError, match=named):
            policy_sweep(ExperimentConfig(**SMALL), policies)

    @pytest.mark.parametrize(
        "argument,value",
        [
            ("weights_every", 0.5),
            ("weights_every", True),
            ("workers", True),
            ("workers", 2.5),
            ("workers", "2"),
        ],
    )
    def test_non_integer_argument_rejected_by_name(self, monkeypatch, argument, value):
        def no_run(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "run_trials", no_run)
        message = re.escape(f"{argument} expects an integer, got {value!r}")
        with pytest.raises(ConfigError, match=rf"^{message}$"):
            policy_sweep(ExperimentConfig(**SMALL), ["uniform"], **{argument: value})

    def test_numpy_integer_arguments_accepted(self):
        cfg = ExperimentConfig(**{**SMALL, "n_trials": 1, "n_iterations": 10})
        sweep = policy_sweep(cfg, ["uniform"], workers=np.int64(1), weights_every=np.int64(3))
        assert [j for j, _ in sweep.runs["uniform"].detail["snapshots"]] == [0, 3, 6, 9]

    def test_repeated_policy_rejected_before_any_trial(self, monkeypatch, tmp_path, capsys):
        def no_run(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "run_trials", no_run)
        with pytest.raises(ConfigError, match="'adaptive' appears more than once"):
            policy_sweep(ExperimentConfig(**SMALL), ["adaptive", "uniform", "adaptive"])
        out = tmp_path / "out"
        assert main(["sweep", "--policies", "adaptive,adaptive", "--out-dir", str(out)]) == 2
        assert "adaptive" in capsys.readouterr().err
        assert not out.exists()


class TestArtifacts:
    def test_zero_records_header_only(self, tmp_path):
        path = tmp_path / "msd.csv"
        write_msd_csv([], path)
        assert path.read_text() == "iteration,cluster_id,policy,msd_linear,msd_db,n_trials\n"

    def test_records_round_trip_identically(self, tmp_path):
        # Each float is written as its repr, so it reads back to the same bits.
        cfg = ExperimentConfig()
        runs = [
            RunResult(
                dataclasses.replace(cfg, policy=policy), MsdSeries(np.array(linear)),
                np.ones(cfg.n_trials), 1.0, {},
            )
            for policy, linear in (
                ("adaptive", [[1.2345678901234567, 0.1 + 0.2]]),
                ("uniform", [[3e-17, 5e-324], [1e300, 0.0]]),
            )
        ]
        path = tmp_path / "msd.csv"
        write_msd_csv(runs, path)
        records = read_msd_csv(path)
        assert records == tuple(rec for run in runs for rec in run.records)
        assert records[1].msd_linear == 0.30000000000000004
        assert records[-1].msd_db == -300.0

    def test_full_artifact_set_and_meta_reload(self, tmp_path):
        cfg = ExperimentConfig(seed=3, **SMALL)
        res = run_experiment(cfg, weights_every=10)
        out = tmp_path / "out"
        write_outputs(res, out)
        expected = {
            "msd.csv",
            "trajectory.csv",
            "topology_initial.csv",
            "topology_initial_edges.csv",
            "topology_final.csv",
            "topology_final_edges.csv",
            "weights_adaptive.csv",
            "run_meta.json",
        }
        assert set(os.listdir(out)) == expected
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["seed"] == 3
        assert meta["config"] == {**dataclasses.asdict(cfg), "angles": list(cfg.angles)}
        # An unset head_radius is comm_radius.
        assert meta["head_radius"] == cfg.comm_radius
        assert load_config(out / "run_meta.json") == cfg
        # initial edge list marks every edge alive; final marks pruned ones dead
        initial = (out / "topology_initial_edges.csv").read_text().splitlines()[1:]
        assert all(row.endswith(",1") for row in initial)
        final = (out / "topology_final_edges.csv").read_text().splitlines()[1:]
        assert len(final) == len(initial)

    @pytest.mark.parametrize(
        "policies,expected",
        [(["uniform", "adaptive"], "adaptive"), (["relvar", "uniform"], "relvar")],
    )
    def test_meta_names_the_topology_policy(self, tmp_path, policies, expected):
        cfg = ExperimentConfig(**{**SMALL, "n_trials": 1, "n_iterations": 10})
        write_outputs(policy_sweep(cfg, policies), tmp_path)
        meta = json.loads((tmp_path / "run_meta.json").read_text())
        assert meta["topology_final_policy"] == expected

    def test_weight_snapshot_rows(self, tmp_path):
        # Nonzero entries only, n-major, each weight written as its repr.
        res = run_experiment(ExperimentConfig(**{**SMALL, "n_trials": 1, "n_iterations": 10}))
        c0 = np.zeros((12, 12))
        c0[0, 0], c0[3, 1], c0[1, 3] = 1.0, 1 / 3, 2 / 3
        c1 = np.zeros((12, 12))
        c1[11, 0], c1[2, 5] = 0.1 + 0.2, 5e-324
        detail = {**res.detail, "snapshots": [(0, c0), (40, c1)]}
        write_outputs(dataclasses.replace(res, detail=detail), tmp_path)
        assert (tmp_path / "weights_adaptive.csv").read_bytes() == (
            b"iteration,n,m,weight\n"
            b"0,0,0,1.0\n"
            b"0,1,3,0.6666666666666666\n"
            b"0,3,1,0.3333333333333333\n"
            b"40,2,5,5e-324\n"
            b"40,11,0,0.30000000000000004\n"
        )

    def test_weight_snapshot_repeats_and_alternations(self, tmp_path):
        # Each iteration's block is its own matrix's body, whether that
        # matrix repeats the previous one, comes back after another, or is
        # an equal array that is not the same object.
        res = run_experiment(ExperimentConfig(**{**SMALL, "n_trials": 1, "n_iterations": 10}))
        c0 = np.zeros((12, 12))
        c0[0, 0], c0[4, 2] = 0.25, 0.75
        c1 = np.zeros((12, 12))
        c1[1, 1] = 1.0
        c0_equal = c0.copy()
        snaps = [(0, c0), (1, c0), (2, c1), (3, c1), (4, c0), (5, c0_equal)]
        detail = {**res.detail, "snapshots": snaps}
        write_outputs(dataclasses.replace(res, detail=detail), tmp_path)
        assert (tmp_path / "weights_adaptive.csv").read_bytes() == (
            b"iteration,n,m,weight\n"
            b"0,0,0,0.25\n0,4,2,0.75\n"
            b"1,0,0,0.25\n1,4,2,0.75\n"
            b"2,1,1,1.0\n"
            b"3,1,1,1.0\n"
            b"4,0,0,0.25\n4,4,2,0.75\n"
            b"5,0,0,0.25\n5,4,2,0.75\n"
        )

    def test_weights_read_back_exactly(self, tmp_path):
        # A weight is written as its repr, so every snapshot parses back
        # to the same bits, with zeros off the written entries.
        cfg = ExperimentConfig(seed=11, **SMALL)
        sweep = policy_sweep(cfg, POLICIES, weights_every=1)
        write_outputs(sweep, tmp_path)
        for name, run in sweep.runs.items():
            snaps = run.detail["snapshots"]
            lines = (tmp_path / f"weights_{name}.csv").read_text().splitlines()
            assert lines[0] == "iteration,n,m,weight"
            iterations, entries = [], []
            for line in lines[1:]:
                iteration, n, m, weight = line.split(",")
                if not iterations or iterations[-1] != int(iteration):
                    iterations.append(int(iteration))
                entries.append((len(iterations) - 1, int(n), int(m), float(weight)))
            assert iterations == [it for it, _ in snaps] == list(range(cfg.n_iterations))
            parsed = np.zeros((len(iterations), cfg.n_nodes, cfg.n_nodes))
            for i, n, m, weight in entries:
                parsed[i, n, m] = weight
            assert parsed.tobytes() == np.stack([c for _, c in snaps]).tobytes(), name

    def test_bad_msd_header_rejected(self, tmp_path):
        path = tmp_path / "msd.csv"
        path.write_text("wrong,header\n")
        with pytest.raises(ConfigError):
            read_msd_csv(path)

    @pytest.mark.parametrize(
        "row", ["0,1,adaptive,0.5,-3.0", "0,1,adaptive,half,-3.0,20", "0,1,adaptive,0.5,-3.0,20,9"]
    )
    def test_malformed_msd_row_rejected(self, tmp_path, row):
        # A short row, a non-numeric field and a long row fail alike.
        path = tmp_path / "msd.csv"
        path.write_text(harness.MSD_HEADER + "\n" + row + "\n")
        with pytest.raises(ConfigError, match=rf"^malformed MSD row '{row}'$"):
            read_msd_csv(path)


SMALL_CFG = "n_trials = 2\nn_iterations = 15\nn_nodes = 12\ncomm_radius = 0.55\nmin_degree = 2\n"


class TestCli:
    def test_run_writes_artifacts_and_exits_zero(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(SMALL_CFG)
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg_path), "--out-dir", str(out), "--seed", "4"])
        assert code == 0
        assert (out / "msd.csv").exists()
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["seed"] == 4

    def test_run_is_a_one_policy_sweep(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(SMALL_CFG)
        common = ["--config", str(cfg_path), "--weights-every", "5"]
        outputs = {}
        for command, flag in (("run", "--policy"), ("sweep", "--policies")):
            out = tmp_path / command
            assert main([command, flag, "relvar", "--out-dir", str(out), *common]) == 0
            outputs[command] = capsys.readouterr().out.replace(str(out), "OUT")
        assert outputs["run"] == outputs["sweep"]
        names = sorted(os.listdir(tmp_path / "run"))
        assert names == sorted(os.listdir(tmp_path / "sweep"))
        assert "weights_relvar.csv" in names
        for name in names:
            assert (tmp_path / "run" / name).read_bytes() == (
                tmp_path / "sweep" / name
            ).read_bytes(), name

    def test_unknown_config_key_exits_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "typo.cfg"
        cfg_path.write_text("n_trails = 5\n")
        code = main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert "n_trails" in capsys.readouterr().err

    def test_too_few_iterations_exits_two(self, tmp_path, capsys):
        # convergence_iteration needs 10 points; the config must say so
        # before any trial runs.
        cfg_path = tmp_path / "short.cfg"
        cfg_path.write_text("n_iterations = 5\n")
        code = main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "n_iterations" in err
        assert "Traceback" not in err

    def test_nan_config_value_exits_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "nan.cfg"
        cfg_path.write_text(SMALL_CFG + "sigma_min = nan\n")
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg_path), "--out-dir", str(out)])
        assert code == 2
        assert "sigma_min must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_boolean_real_value_exits_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "bool.json"
        cfg_path.write_text(json.dumps({"n_trials": 2, "delta": True}))
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg_path), "--out-dir", str(out)])
        assert code == 2
        assert "'delta'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("--workers", "0"), ("--weights-every", "-1")])
    def test_bad_run_option_exits_two(self, tmp_path, capsys, flag, value):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(SMALL_CFG)
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg_path), "--out-dir", str(out), flag, value])
        assert code == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not out.exists()

    def test_a_run_removes_the_weights_files_it_does_not_write(self, tmp_path):
        # A directory reused by a later run keeps no earlier run's weights
        # file, and no file the runs do not write is touched.
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(SMALL_CFG)
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("kept\n")
        base = ["--config", str(cfg_path), "--out-dir", str(out)]

        def weights_files():
            return sorted(name for name in os.listdir(out) if name.startswith("weights_"))

        assert main(["sweep", "--weights-every", "5", *base]) == 0
        assert weights_files() == sorted(f"weights_{name}.csv" for name in POLICIES)
        assert main(["run", "--policy", "uniform", *base]) == 0
        assert weights_files() == []
        assert json.loads((out / "run_meta.json").read_text())["policies"] == ["uniform"]
        assert main(["run", "--policy", "adaptive", "--weights-every", "5", *base]) == 0
        assert weights_files() == ["weights_adaptive.csv"]
        assert main(["run", "--policy", "adaptive", "--weights-every", "0", *base]) == 0
        assert weights_files() == []
        assert (out / "notes.txt").read_text() == "kept\n"

    @pytest.mark.parametrize("radius", ["2", "1.4142135623730951"])
    def test_head_radius_that_holds_the_square_exits_two_before_any_draw(
        self, radius, monkeypatch, tmp_path, capsys
    ):
        # Every node lies within sqrt(2) of the head, so cluster 2 would
        # stay empty at every draw; the config refuses the radius first.
        def no_draw(*args):
            raise AssertionError("a scene was drawn")

        monkeypatch.setattr(cli, "draw_scene", no_draw)
        out = tmp_path / "topo"
        assert main(["topology", "--out-dir", str(out), "--head-radius", radius]) == 2
        assert "head_radius must lie in (0, sqrt(2))" in capsys.readouterr().err
        assert not out.exists()

    def test_head_radius_flag_reaches_the_scene(self, tmp_path):
        out = tmp_path / "topo"
        assert main(["topology", "--out-dir", str(out), "--seed", "2", "--head-radius", "0.2"]) == 0
        rows = (out / "topology_initial.csv").read_text().splitlines()[1:]
        labels = [int(row.rsplit(",", 1)[1]) for row in rows]
        cfg = ExperimentConfig(seed=2)
        _, part = draw_scene(dataclasses.replace(cfg, head_radius=0.2), trial_rng(2, 0))
        _, default = draw_scene(cfg, trial_rng(2, 0))
        assert labels == part.cluster_of.tolist()
        assert labels != default.cluster_of.tolist()

    def test_run_meta_reproduces_a_head_radius_run(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(SMALL_CFG)
        first, again = tmp_path / "first", tmp_path / "again"
        args = ["--head-radius", "0.2", "--weights-every", "5"]
        assert main(["run", "--config", str(cfg_path), "--out-dir", str(first), *args]) == 0
        meta = first / "run_meta.json"
        doc = json.loads(meta.read_text())
        assert doc["config"]["head_radius"] == doc["head_radius"] == 0.2
        argv = ["run", "--config", str(meta), "--out-dir", str(again), "--weights-every", "5"]
        assert main(argv) == 0
        names = sorted(os.listdir(first))
        assert names == sorted(os.listdir(again))
        for name in names:
            assert (first / name).read_bytes() == (again / name).read_bytes(), name

    def test_non_finite_truth_exits_three(self, tmp_path, capsys, monkeypatch):
        # A fault no config check can see: the truth step overflows.
        def overflowing(states, model, w):
            return np.full(np.shape(states), np.inf)

        monkeypatch.setattr(harness, "step_truth", overflowing)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(SMALL_CFG)
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg_path), "--out-dir", str(out)])
        assert code == 3
        assert (
            "numeric failure: trial 0: step_truth produced a non-finite state"
            in capsys.readouterr().err
        )
        assert not out.exists()

    def test_non_finite_motion_model_exits_two(self, tmp_path, capsys):
        # delta^2 overflows, so u_g would be NaN: bad input, named.
        cfg_path = tmp_path / "huge.cfg"
        cfg_path.write_text(SMALL_CFG + "delta = 1e200\n")
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg_path), "--out-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "delta = 1e+200 gives a non-finite motion model" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_non_finite_process_noise_exits_two(self, tmp_path, capsys, recwarn):
        # g_scale^2 * q_scale overflows: bad input, named before any warning.
        cfg_path = tmp_path / "noisy.cfg"
        cfg_path.write_text(SMALL_CFG + "Q_scale = 1e308\nG_scale = 10\n")
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg_path), "--out-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "G_scale = 10.0 and Q_scale = 1e+308 give a non-finite process noise variance" in err
        assert "Warning" not in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()

    def test_overflowing_noise_range_exits_two(self, tmp_path, capsys, recwarn):
        cfg_path = tmp_path / "noisy.cfg"
        cfg_path.write_text(SMALL_CFG + "sigma_min = 1e308\nsigma_span = 1e308\n")
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg_path), "--out-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "sigma_min = 1e+308 and sigma_span = 1e+308 give a non-finite" in err
        assert "Traceback" not in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize(
        "line,iteration", [("P0_scale = 1e308", 0), ("Q_scale = 1e200", 1)]
    )
    def test_overflowing_innovation_covariance_exits_three(
        self, tmp_path, capsys, recwarn, line, iteration, command
    ):
        # The closed-form update's denominator, s^2 det(M_pred + I/s),
        # overflows; the step names it before the weights see it, and before
        # numpy warns. A sweep's engines step in policy order, so it names
        # the earliest failing iteration, and in it the first policy's
        # failure.
        cfg_path = tmp_path / "huge.cfg"
        cfg_path.write_text(SMALL_CFG + line + "\n")
        out = tmp_path / "out"
        code = main([command, "--config", str(cfg_path), "--out-dir", str(out)])
        assert code == 3
        assert re.search(
            rf"numeric failure: trial 0: iteration {iteration}: "
            r"innovation covariance at node \d+ overflows",
            capsys.readouterr().err,
        )
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()

    def test_overflowing_squared_error_exits_three(self, tmp_path, capsys, recwarn):
        # x0 = 1e300 keeps every state finite, but its squared error from
        # the truth overflows; the run names it instead of writing an
        # infinite MSD.
        cfg_path = tmp_path / "huge.cfg"
        cfg_path.write_text(SMALL_CFG + "x0 = 1e300\n")
        out = tmp_path / "out"
        args = ["run", "--config", str(cfg_path), "--out-dir", str(out), "--policy", "uniform"]
        code = main(args)
        assert code == 3
        assert re.search(
            r"^numeric failure: trial 0: iteration 0: MSD of cluster \d is not finite \(inf\) "
            r"under policy 'uniform'$",
            capsys.readouterr().err,
        )
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()

    def test_missing_config_file_exits_four(self, tmp_path):
        code = main(["run", "--config", str(tmp_path / "absent.cfg")])
        assert code == 4

    def test_topology_subcommand_writes_nodes_and_edges(self, tmp_path):
        out = tmp_path / "topo"
        code = main(["topology", "--out-dir", str(out), "--seed", "2"])
        assert code == 0
        nodes = (out / "topology_initial.csv").read_text().splitlines()
        assert nodes[0] == "node_id,x,y,cluster"
        assert len(nodes) == 31
        edges = (out / "topology_initial_edges.csv").read_text().splitlines()
        assert edges[0] == "node_a,node_b,alive"

    def test_selftest_subcommand_passes(self, capsys):
        code = main(["selftest"])
        assert code == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out


# Configs at the edge of the float range, each with what it must end in:
# None for a finished run, or the message of the named error it must raise.
EXTREME_CONFIGS = [
    (
        dict(sigma_min=1e307, sigma_span=0.0),
        r"^trial 1: iteration 7: every squared distance at node 3 overflows, "
        r"leaving it no weight$",
    ),
    (
        dict(sigma_min=1e308, sigma_span=0.0),
        r"^trial 0: iteration 0: every squared distance at node 0 overflows",
    ),
    (
        dict(sigma_min=1.0, sigma_span=1.7e308),
        r"^trial 0: iteration 0: every squared distance at node 3 overflows",
    ),
    (
        dict(sigma_min=1e308, sigma_span=1e308),
        r"^sigma_min = 1e\+308 and sigma_span = 1e\+308 give a non-finite",
    ),
    (dict(x0=1e300), r"^trial 0: iteration 0: MSD of cluster 1 is not finite"),
    (dict(v0=1e200), r"^trial 0: iteration 0: MSD of cluster 1 is not finite"),
    (dict(y0=1e155), None),
    (dict(P0_scale=1e300), r"^trial 0: iteration 0: innovation covariance at node 0 overflows$"),
    (dict(Q_scale=1e300), r"^trial 0: iteration 1: innovation covariance at node 0 overflows$"),
    (dict(sigma_min=1e-300), None),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "extreme,message", EXTREME_CONFIGS, ids=[str(kw) for kw, _ in EXTREME_CONFIGS]
)
def test_an_extreme_config_finishes_or_fails_by_name_without_a_warning(extreme, message):
    def sweep():
        cfg = ExperimentConfig(n_trials=2, n_iterations=10, **extreme)
        return policy_sweep(cfg, ["uniform", "adaptive"])

    if message is None:
        result = sweep()
        for run in result.runs.values():
            assert np.isfinite(run.series.msd_linear).all()
    else:
        with pytest.raises((ConfigError, NumericError), match=message):
            sweep()
