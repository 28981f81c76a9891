import json
import math
import re
import types
import typing
from dataclasses import asdict, fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from gawm.cli import main as cli_main
from gawm.config import (
    DatasetConfig,
    EncoderConfig,
    ExperimentConfig,
    GarSuiteConfig,
    ProbeSuiteConfig,
    benchmark_config,
    load_config,
    save_config,
    stage_seed,
)
from gawm.data import (
    ActionDistribution, Dataset, generate_records, load_dataset, sample_sequences, write_dataset,
)
from gawm.harness import (
    UnknownModelRefError,
    cmd_gar,
    cmd_gen_data,
    cmd_probe,
    cmd_report,
    cmd_train,
    cmd_ablate,
    file_sha256,
    parse_model_ref,
    sweep_points,
)
from gawm.latent import DynamicsNet, LearnedWorldModel, make_encoder, save_checkpoint
from gawm.models import ExactModel, PerturbedModel, is_deterministic
from gawm.training import NonFiniteLossError, TrainRunConfig, train_group


def tiny_config(out_dir, steps=25) -> ExperimentConfig:
    return ExperimentConfig(
        seed=3,
        out_dir=str(out_dir),
        dataset=DatasetConfig(n_trajectories=10, length=32),
        encoder=EncoderConfig(latent_dim=8),
        train=TrainRunConfig(steps=steps, batch_size=8, learning_rate=3e-3, hidden_dim=16),
        probes=ProbeSuiteConfig(n_sequences=4, sequence_length=12),
        gar=GarSuiteConfig(n_rollouts=3, horizons=(8, 16), n_sequences=4),
    )


def test_config_round_trip(tmp_path):
    cfg = tiny_config(tmp_path / "run")
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
    path = tmp_path / "cfg.json"
    save_config(path, cfg)
    assert load_config(path) == cfg


def test_config_hash_ignores_out_dir(tmp_path):
    cfg = tiny_config(tmp_path / "a")
    other = replace(cfg, out_dir=str(tmp_path / "b"))
    assert cfg.config_hash() == other.config_hash()
    changed = replace(cfg, seed=4)
    assert changed.config_hash() != cfg.config_hash()


def test_config_hash_takes_run_paths_relative_to_out_dir(tmp_path):
    def with_paths(out_dir, dataset, ckpt):
        cfg = tiny_config(out_dir)
        train = replace(cfg.train, dataset_path=dataset, init_checkpoint=ckpt)
        return replace(cfg, train=train, pretrain=replace(cfg.train, dataset_path=dataset))

    a = with_paths(tmp_path / "a" / "run", str(tmp_path / "a" / "data"), str(tmp_path / "a" / "c"))
    b = with_paths(tmp_path / "b" / "run", str(tmp_path / "b" / "data"), str(tmp_path / "b" / "c"))
    assert a.config_hash() == b.config_hash()
    other_data = with_paths(tmp_path / "a" / "run", str(tmp_path / "a" / "other"),
                            str(tmp_path / "a" / "c"))
    assert other_data.config_hash() != a.config_hash()
    assert with_paths(tmp_path / "a" / "run", None, None).config_hash() != a.config_hash()


def test_ablate_manifests_hash_the_same_in_any_directory(tmp_path):
    def manifest_hashes(name):
        cfg = tiny_config(tmp_path / name, steps=4)
        cmd_ablate(replace(cfg, pretrain=replace(cfg.train, steps=6)), "constraints")
        return {str(p.relative_to(cfg.out_dir)): json.loads(p.read_text())["config_hash"]
                for p in sorted(Path(cfg.out_dir).rglob("manifest.json"))}

    first = manifest_hashes("first")
    assert len(first) == 7  # the ablation, base/ and five sweep points
    assert first == manifest_hashes("second")


@pytest.mark.parametrize("path", [
    ("pretrian",), ("probes", "n_seqs"), ("gar", "action_dist", "mean_dy"),
    ("ga", "dirichlet", "alpha"), ("train", "stpes"), ("encoder", "dim"),
    ("dataset", "action_dist", "sigma"),
    # seeds that no stage read; training derives its seed from the master seed
    ("ga", "dirichlet", "seed"), ("train", "seed"), ("pretrain", "seed"),
])
def test_config_rejects_unknown_keys_at_every_level(tmp_path, path):
    d = tiny_config(tmp_path / "keys").to_dict()
    d["pretrain"] = {"steps": 5}
    section = d
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = {}
    with pytest.raises(ValueError, match=f"^unknown config key: {'.'.join(path)}$"):
        ExperimentConfig.from_dict(d)
    d = tiny_config(tmp_path / "keys").to_dict()
    d["pretrain"] = {"steps": 5, "stpes": 6}
    with pytest.raises(ValueError, match="^unknown config key: pretrain.stpes$"):
        ExperimentConfig.from_dict(d)


def test_cli_rejects_unknown_config_key_with_typed_error(tmp_path):
    d = tiny_config(tmp_path / "cli_keys").to_dict()
    d["pretrian"] = {"steps": 10}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(d))
    bad = CliRunner().invoke(cli_main, ["gen-data", "--config", str(cfg_path)])
    assert bad.exit_code == 1
    err = json.loads(bad.output.strip().splitlines()[-1])
    assert err == {"type": "ValueError", "error": "unknown config key: pretrian"}
    assert not (tmp_path / "cli_keys").exists()


def test_stage_seeds_are_distinct():
    seeds = {stage_seed(7, s) for s in range(6)}
    assert len(seeds) == 6


def test_generate_records_shapes_and_determinism():
    r1 = generate_records(ExactModel(), 10, 32, ActionDistribution(), seed=5)
    r2 = generate_records(ExactModel(), 10, 32, ActionDistribution(), seed=5)
    assert len(r1) == 10 and r1.length == 32
    assert r1.poses.shape == (10, 33, 3) and r1.actions.shape == (10, 32, 3)
    assert r1.features.shape == (10, 33, 4)
    assert np.array_equal(r1.poses, r2.poses) and np.array_equal(r1.actions, r2.actions)


def test_forward_biased_action_mean():
    dist = ActionDistribution(mean_dx=0.1, sigma_dx=0.05)
    records = generate_records(ExactModel(), 40, 32, dist, seed=6)
    dx = records.actions[:, :, 0].ravel()
    # sample mean within 3 sigma of the configured mean
    assert abs(dx.mean() - 0.1) <= 3.0 * 0.05 / math.sqrt(dx.size)


def test_dataset_write_load_round_trip(tmp_path):
    records = generate_records(ExactModel(), 4, 8, ActionDistribution(), seed=7)
    write_dataset(tmp_path / "ds", records, {"seed": 7, "model": "exact"})
    ds = load_dataset(tmp_path / "ds")
    assert len(ds) == 4 and ds.length == 8
    assert np.array_equal(ds.poses, records.poses)
    assert np.array_equal(ds.actions, records.actions)
    assert np.array_equal(ds.features, records.features)
    assert np.array_equal(ds.segment(2, 3, 2), records.actions[2, 3:5])


def test_parse_model_ref_named_forms():
    model, name = parse_model_ref("exact")
    assert isinstance(model, ExactModel) and name == "exact"
    model, _ = parse_model_ref("drift:0.1,0,0")
    assert isinstance(model, PerturbedModel)
    assert model.cfg.drift_bias.dx == 0.1
    model, _ = parse_model_ref("noise:0.05")
    assert model.cfg.noise_sigma == 0.05
    model, _ = parse_model_ref("sat:1.5")
    assert model.cfg.saturation_scale == 1.5
    model, _ = parse_model_ref("asym:1.2,1.0")
    assert model.cfg.asym_gain == (1.2, 1.0)
    model, _ = parse_model_ref('perturbed:{"noise_sigma": 0.01, "saturation_scale": 2.0}')
    assert model.cfg.noise_sigma == 0.01 and model.cfg.saturation_scale == 2.0


class _StepOnlyModel:
    """A third-party model with only ``step``."""

    def step(self, state, action, rng):
        return state


@pytest.mark.parametrize("ref, eval_noise, expected", [
    ("exact", 0.0, True),
    ("drift:0.1,0,0", 0.0, True),
    ("sat:1.5", 0.0, True),
    ("asym:1.2,1.0", 0.0, True),
    ("checkpoint", 0.0, True),
    ("noise:0.02", 0.0, False),
    ('perturbed:{"noise_sigma": 0.01, "saturation_scale": 2.0}', 0.0, False),
    ("checkpoint", 0.01, False),
    ("step-only", 0.0, False),
])
def test_model_declares_whether_it_draws_noise(tmp_path, ref, eval_noise, expected):
    if ref == "step-only":
        model = _StepOnlyModel()
    else:
        if ref == "checkpoint":
            ref = str(tmp_path / "ckpt.json")
            save_checkpoint(ref, DynamicsNet(8, 4), make_encoder(8, 3))
        model, _ = parse_model_ref(ref, eval_noise)
    assert is_deterministic(model) is expected


def test_parse_model_ref_rejects_non_finite_gains():
    for ref in ("asym:nan,1", "asym:1,nan", "asym:inf,1", "asym:1,-inf", "asym:0,1"):
        with pytest.raises(ValueError, match="asym_gain"):
            parse_model_ref(ref)
    with pytest.raises(ValueError, match="asym_gain"):
        parse_model_ref('perturbed:{"asym_gain": [NaN, 1.0]}')


@pytest.mark.parametrize("json_text, message", [
    ('{"noise_sigm": 0.02}', "^unknown config key: perturbed.noise_sigm$"),
    ('{"saturation_scale": true}', "^config value perturbed.saturation_scale must be float, got True$"),
    ('{"drift_bias": [0.01, 0.0]}',
     r"^config value perturbed.drift_bias must be an object or an array of 3, got \[0.01, 0.0\]$"),
    ('[0.02]', r"^config value perturbed must be an object, got \[0.02\]$"),
])
def test_parse_model_ref_checks_perturbed_keys_and_types(json_text, message):
    with pytest.raises(ValueError, match=message):
        parse_model_ref(f"perturbed:{json_text}")


def test_parse_model_ref_perturbed_takes_records_as_arrays_or_objects():
    by_array, _ = parse_model_ref('perturbed:{"drift_bias": [0.01, 0, 0.005], "asym_gain": [1.2, 1]}')
    by_object, _ = parse_model_ref(
        'perturbed:{"drift_bias": {"dx": 0.01, "dy": 0.0, "dtheta": 0.005}, "asym_gain": [1.2, 1.0]}')
    assert by_array.cfg == by_object.cfg
    assert by_array.cfg.drift_bias.dy == 0.0 and isinstance(by_array.cfg.drift_bias.dy, float)
    with pytest.raises(ValueError, match="^config value perturbed.drift_bias.dtheta is missing$"):
        parse_model_ref('perturbed:{"drift_bias": {"dx": 0.01, "dy": 0.0}}')


@pytest.mark.parametrize("ref, fields", [
    ("drift:0.01,0,0.005", {"drift_bias": [0.01, 0, 0.005]}),
    ("drift:-0.1,0.02,1e-3", {"drift_bias": [-0.1, 0.02, 1e-3]}),
    ("noise:0.02", {"noise_sigma": 0.02}),
    ("noise:0", {"noise_sigma": 0}),
    ("sat:0.05", {"saturation_scale": 0.05}),
    ("sat:inf", {"saturation_scale": None}),
    ("asym:1.2,0.8", {"asym_gain": [1.2, 0.8]}),
    ("asym:1,1", {"asym_gain": [1, 1]}),
])
def test_parse_model_ref_shorthand_is_its_perturbed_spelling(ref, fields):
    model, name = parse_model_ref(ref)
    spelled, _ = parse_model_ref(f"perturbed:{json.dumps(fields)}")
    assert isinstance(model, PerturbedModel) and model.cfg == spelled.cfg
    assert name == model.name == ref


@pytest.mark.parametrize("ref, message", [
    ("drift:0.01", "^config value drift.drift_bias must be an object or an array of 3, got 0.01$"),
    ("drift:0.01,0", r"^config value drift.drift_bias must be an object or an array of 3, got \[0.01, 0.0\]$"),
    ("asym:1.2", "^config value asym.asym_gain must be an array, got 1.2$"),
    ("asym:1.2,0.8,1", r"^config value asym.asym_gain must be an array of 2, got \[1.2, 0.8, 1.0\]$"),
    ("noise:0.1,0.2", r"^config value noise.noise_sigma must be float, got \[0.1, 0.2\]$"),
    ("sat:0.1,0.2", r"^config value sat.saturation_scale must be float, got \[0.1, 0.2\]$"),
])
def test_parse_model_ref_shorthand_arity_fails_in_the_typed_loader(ref, message):
    with pytest.raises(ValueError, match=message):
        parse_model_ref(ref)


def test_parse_model_ref_unknown():
    with pytest.raises(UnknownModelRefError):
        parse_model_ref("nonsense")
    with pytest.raises(UnknownModelRefError):
        parse_model_ref("missing/checkpoint.json")


def test_gen_data_writes_expected_files(tmp_path):
    cfg = tiny_config(tmp_path / "run")
    data_dir = cmd_gen_data(cfg)
    trajs = sorted(data_dir.glob("traj_*.jsonl"))
    assert len(trajs) == 10
    first = trajs[0].read_text().strip().splitlines()
    assert len(first) == 1 + 33  # header + poses
    assert (data_dir / "summary.json").exists()
    assert (Path(cfg.out_dir) / "manifest.json").exists()


def test_gen_data_is_byte_reproducible(tmp_path):
    cfg_a = tiny_config(tmp_path / "a")
    cfg_b = replace(tiny_config(tmp_path / "b"), out_dir=str(tmp_path / "b"))
    dir_a = cmd_gen_data(cfg_a)
    dir_b = cmd_gen_data(cfg_b)
    for pa in sorted(dir_a.iterdir()):
        pb = dir_b / pa.name
        assert pa.read_bytes() == pb.read_bytes()


def _with_trajectories(cfg, n, **changes):
    return replace(cfg, dataset=replace(cfg.dataset, n_trajectories=n), **changes)


def test_gen_data_replaces_an_earlier_dataset_in_its_directory(tmp_path):
    # a rerun with fewer trajectories must not leave the earlier run's extra
    # files behind, nor the temp file of a killed write
    cfg = tiny_config(tmp_path / "regen")
    data_dir = cmd_gen_data(_with_trajectories(cfg, 12))
    (data_dir / "traj_0003.jsonl.tmp").write_text('{"half": ')
    assert cmd_gen_data(_with_trajectories(cfg, 5)) == data_dir
    fresh = cmd_gen_data(_with_trajectories(cfg, 5, out_dir=str(tmp_path / "fresh")))
    assert sorted(p.name for p in data_dir.iterdir()) == sorted(p.name for p in fresh.iterdir())
    for path in fresh.iterdir():
        assert (data_dir / path.name).read_bytes() == path.read_bytes(), path.name
    assert len(load_dataset(data_dir)) == 5


@pytest.mark.parametrize("left", ("partial", "foreign"))
def test_ablate_regenerates_a_dataset_no_gen_data_entry_vouches_for(tmp_path, monkeypatch, left):
    # a partial directory (as a gen-data killed mid-write leaves it) or one
    # another config wrote is not this config's dataset
    import gawm.harness as harness

    loaded, generated = [], []

    def recording_load(path):
        loaded.append(load_dataset(path))
        return loaded[-1]

    def recording_gen_data(c):
        generated.append(c)
        return cmd_gen_data(c)

    monkeypatch.setattr(harness, "load_dataset", recording_load)
    monkeypatch.setattr(harness, "cmd_gen_data", recording_gen_data)
    cfg = tiny_config(tmp_path / left, steps=4)
    if left == "partial":  # this config's first 3 trajectories, with no manifest entry
        full = load_dataset(cmd_gen_data(replace(cfg, out_dir=str(tmp_path / "full"))))
        write_dataset(Path(cfg.out_dir) / "dataset", Dataset(full.poses[:3], full.actions[:3]),
                      {"seed": 0, "model": "exact"})
    else:
        cmd_gen_data(_with_trajectories(cfg, 12))
        cfg = _with_trajectories(cfg, 7, seed=99)
    want = load_dataset(cmd_gen_data(replace(cfg, out_dir=str(tmp_path / "want"))))
    cmd_ablate(cfg, "mode")
    assert len(generated) == 1
    assert np.array_equal(loaded[0].poses, want.poses)
    assert np.array_equal(loaded[0].actions, want.actions)
    # a finished gen-data of this config vouches for the directory: no rerun
    cmd_ablate(cfg, "mode")
    assert len(generated) == 1 and len(loaded) == 2
    assert np.array_equal(loaded[1].poses, want.poses)


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    cfg = tiny_config(out)
    cmd_gen_data(cfg)
    ckpt = cmd_train(cfg)
    return cfg, ckpt


def test_train_outputs(trained_run):
    cfg, ckpt = trained_run
    out = Path(cfg.out_dir)
    assert ckpt.exists()
    rows = (out / "loss_curve.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + cfg.train.steps
    metrics = json.loads((out / "train_metrics.json").read_text())
    assert metrics["eval_prediction_loss"] > 0.0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_hash"] == cfg.config_hash()
    assert manifest["stages"]["train"]["train_steps"] == cfg.train.steps


def test_train_reproduces_checkpoint_hash(tmp_path, trained_run):
    cfg, ckpt = trained_run
    rerun_cfg = replace(cfg, out_dir=str(tmp_path / "rerun"))
    cmd_gen_data(rerun_cfg)
    ckpt2 = cmd_train(rerun_cfg)
    assert file_sha256(ckpt) == file_sha256(ckpt2)


def test_train_baseline_label(tmp_path):
    cfg = tiny_config(tmp_path / "base", steps=5)
    cfg = replace(cfg, ga=replace(cfg.ga, lambda_ga=0.0))
    cmd_gen_data(cfg)
    cmd_train(cfg)
    meta = json.loads((Path(cfg.out_dir) / "checkpoint.json").read_text())["meta"]
    assert meta["label"] == "baseline"


def test_stage_removes_stale_temp_files_of_its_directory(tmp_path):
    # a write killed before its os.replace leaves <name>.tmp behind; gen-data
    # writes no checkpoint, so only the stage's clean-up can remove this one
    cfg = tiny_config(tmp_path / "stale", steps=5)
    out = Path(cfg.out_dir)
    (out / "point").mkdir(parents=True)
    stale = out / "checkpoint.json.tmp"
    stale.write_text('{"half": ')
    nested = out / "point" / "checkpoint.json.tmp"
    nested.write_text('{"half": ')
    cmd_gen_data(cfg)
    assert not stale.exists()
    assert list(out.glob("*.tmp")) == []
    assert "gen-data" in _manifest(cfg)["stages"]
    # only the stage's own directory is cleared, not the directories below it
    assert nested.exists()


def test_interrupted_train_leaves_no_manifest(tmp_path):
    out = tmp_path / "broken"
    cfg = replace(
        tiny_config(out),
        train=TrainRunConfig(steps=5, dataset_path=str(tmp_path / "nowhere")),
    )
    with pytest.raises(FileNotFoundError):
        cmd_train(cfg)
    assert not (out / "manifest.json").exists()


def _manifest(cfg):
    return json.loads((Path(cfg.out_dir) / "manifest.json").read_text())


def test_manifest_merges_stages_of_one_config(tmp_path):
    cfg = tiny_config(tmp_path / "merge", steps=5)
    cmd_gen_data(cfg)
    cmd_train(cfg)
    assert set(_manifest(cfg)["stages"]) == {"gen-data", "train"}
    cmd_probe(cfg, "exact")
    cmd_gar(cfg, "noise:0.02")
    stages = _manifest(cfg)["stages"]
    assert set(stages) == {"gen-data", "train", "probe", "gar"}
    out = Path(cfg.out_dir)
    assert stages["train"]["paths"] == sorted(
        str(out / n) for n in ("checkpoint.json", "loss_curve.csv", "train_metrics.json"))
    assert stages["gar"]["paths"] == sorted(str(out / n) for n in ("gar.csv", "gar_report.json"))


def test_manifest_starts_fresh_for_another_config(tmp_path):
    cfg = tiny_config(tmp_path / "fresh")
    cmd_probe(cfg, "exact")
    cmd_gar(cfg, "exact")
    other = replace(cfg, seed=cfg.seed + 1)
    cmd_gar(other, "exact")
    manifest = _manifest(other)
    assert manifest["config_hash"] == other.config_hash() != cfg.config_hash()
    assert set(manifest["stages"]) == {"gar"}


def test_stage_rerun_drops_its_entry_until_it_finishes(tmp_path, monkeypatch):
    import gawm.harness as harness

    cfg = tiny_config(tmp_path / "rerun_probe")
    cmd_probe(cfg, "exact")
    cmd_gar(cfg, "exact")

    def broken(*args, **kwargs):
        raise RuntimeError("interrupted")

    monkeypatch.setattr(harness, "evaluate_gac", broken)
    with pytest.raises(RuntimeError):
        cmd_probe(cfg, "exact")
    assert set(_manifest(cfg)["stages"]) == {"gar"}
    other = replace(cfg, seed=cfg.seed + 1)
    with pytest.raises(RuntimeError):
        cmd_probe(other, "exact")
    assert not (Path(cfg.out_dir) / "manifest.json").exists()


def test_manifest_records_evaluation_counts(tmp_path):
    cfg = tiny_config(tmp_path / "counts")
    report = cmd_probe(cfg, "exact")
    cmd_gar(cfg, "noise:0.02")
    stages = _manifest(cfg)["stages"]
    probe, gar = stages["probe"], stages["gar"]
    n_configs = len(cfg.probes.identity_lengths) + len(cfg.probes.inverse_lengths) \
        + len(cfg.probes.composition_lengths)
    assert probe["probe_instances"] == cfg.probes.n_sequences * n_configs
    assert probe["probe_instances"] == sum(r.n_instances for r in report.per_config)
    assert gar["rollouts"] == cfg.gar.n_sequences * cfg.gar.n_rollouts
    for entry, key in ((probe, "probe_instances"), (gar, "rollouts")):
        assert entry["wall_clock_s"] > 0.0
        assert entry[f"{key}_per_s"] == entry[key] / entry["wall_clock_s"]


def test_manifest_counts_the_gar_rollouts_that_ran(tmp_path):
    cfg = tiny_config(tmp_path / "rolled")
    cmd_gar(cfg, "exact")
    assert _manifest(cfg)["stages"]["gar"]["rollouts"] == cfg.gar.n_sequences
    cmd_gar(cfg, "noise:0.02")
    assert _manifest(cfg)["stages"]["gar"]["rollouts"] == cfg.gar.n_sequences * cfg.gar.n_rollouts


def test_probe_exact_is_clean(tmp_path):
    cfg = tiny_config(tmp_path / "probe")
    report = cmd_probe(cfg, "exact")
    assert report.delta_id <= 1e-9
    assert report.delta_inv <= 1e-9
    assert report.delta_comp <= 1e-9
    per_config = (Path(cfg.out_dir) / "gac_per_config.csv").read_text().strip().splitlines()
    assert len(per_config) == 1 + 9


def test_probe_learned_checkpoint(trained_run, tmp_path):
    cfg, ckpt = trained_run
    probe_cfg = replace(cfg, out_dir=str(tmp_path / "probe_ckpt"))
    report = cmd_probe(probe_cfg, str(ckpt))
    assert math.isfinite(report.e_gac) and report.e_gac > 0.0


def test_gar_exact_zero_with_note(tmp_path):
    cfg = tiny_config(tmp_path / "gar")
    report = cmd_gar(cfg, "exact")
    assert report.note is not None
    for e in report.entries:
        assert e.aligned_mean == 0.0 and e.nonaligned_mean == 0.0


def test_gar_noise_rows_ordered(tmp_path):
    cfg = tiny_config(tmp_path / "gar_noise")
    report = cmd_gar(cfg, "noise:0.02")
    assert [e.horizon for e in report.entries] == [8, 16]
    for e in report.entries:
        assert e.aligned_mean <= e.nonaligned_mean


def test_sweep_points_structure(tmp_path):
    cfg = tiny_config(tmp_path / "sweep")
    labels = [label for label, _ in sweep_points(cfg, "constraints")]
    assert labels == ["baseline", "id-only", "inv-only", "comp-only", "full"]
    lam = dict(sweep_points(cfg, "lambda"))
    assert "lambda=0" in lam and lam["lambda=0"].ga.lambda_ga == 0.0
    assert {label for label, _ in sweep_points(cfg, "mode")} == {"free-running", "teacher-forced"}
    with pytest.raises(ValueError):
        sweep_points(cfg, "other")


def test_ablate_constraints_tiny(tmp_path):
    cfg = tiny_config(tmp_path / "ablate", steps=8)
    rows = cmd_ablate(cfg, "constraints")
    assert [r["label"] for r in rows] == ["baseline", "id-only", "inv-only", "comp-only", "full"]
    table = Path(cfg.out_dir) / "ablation_constraints.csv"
    assert table.exists()
    manifest = json.loads((Path(cfg.out_dir) / "ablation_constraints_manifest.json").read_text())
    assert all(r["checkpoint_hash"] for r in manifest["rows"])


def test_probe_drift_ref_matches_stepwise_oracle(tmp_path):
    from gawm.config import STAGE_PROBE, stage_seed
    from oracles import oracle_probe_identity, oracle_probe_inverse

    cfg = tiny_config(tmp_path / "probe_drift")
    report = cmd_probe(cfg, "drift:0.1,0,0")
    seed = stage_seed(cfg.seed, STAGE_PROBE)
    starts, actions, _ = sample_sequences(
        cfg.probes.n_sequences, cfg.probes.sequence_length, cfg.probes.action_dist, seed
    )
    for r in report.per_config:
        if r.kind == "identity":
            want = oracle_probe_identity(starts, actions, r.k, r.l, cfg.probes.alpha_rot, drift=(0.1, 0, 0))
        elif r.kind == "inverse":
            want = oracle_probe_inverse(starts, actions, r.k, r.l, cfg.probes.alpha_rot, drift=(0.1, 0, 0))
        else:
            continue
        assert r.mean == pytest.approx(want, abs=1e-12)


def test_ablate_mode_axis_tiny(tmp_path):
    cfg = tiny_config(tmp_path / "mode_ablate", steps=6)
    rows = cmd_ablate(cfg, "mode")
    assert [r["label"] for r in rows] == ["free-running", "teacher-forced"]
    assert rows[0]["checkpoint_hash"] != rows[1]["checkpoint_hash"]


def test_ablate_span_axis_tiny(tmp_path):
    cfg = tiny_config(tmp_path / "span_ablate", steps=6)
    rows = cmd_ablate(cfg, "span")
    assert [r["label"] for r in rows] == ["span=2", "span=4", "span=6"]


def _output_hashes(root) -> dict[str, str]:
    """SHA-256 of every file under ``root`` but those that name the run
    directory or its timings (configs and manifests)."""
    skip = ("manifest.json", "resolved_config.json")
    return {str(p.relative_to(root)): file_sha256(p) for p in sorted(Path(root).rglob("*"))
            if p.is_file() and not p.name.endswith(skip)}


def test_ablate_worker_count_does_not_change_rows(tmp_path):
    # one worker runs every lockstep group in-process; two run span's three
    # groups in a pool; every output file must be the same bytes
    for axis in ("mode", "constraints", "span"):
        cfg1 = tiny_config(tmp_path / axis / "serial", steps=6)
        cfg2 = tiny_config(tmp_path / axis / "workers", steps=6)
        rows1 = cmd_ablate(cfg1, axis)
        rows2 = cmd_ablate(cfg2, axis, threads=2)
        for a, b in zip(rows1, rows2):
            assert a["checkpoint_hash"] == b["checkpoint_hash"]
            assert a["e_gac"] == b["e_gac"]
        hashes = _output_hashes(cfg1.out_dir)
        assert sum(name.endswith("loss_curve.csv") for name in hashes) == len(rows1)
        assert hashes == _output_hashes(cfg2.out_dir)


def test_ablate_calls_train_probe_gar_per_point_in_grid_order(tmp_path, monkeypatch):
    # every stage call stays a seam: one cmd_train per point, in grid
    # order, and all training happens inside cmd_train calls
    import gawm.harness as harness

    calls, inside, groups = [], [], []

    def recorded(name, fn):
        def wrapped(cfg, *args, **kwargs):
            calls.append((name, Path(cfg.out_dir).name))
            inside.append(name)
            try:
                return fn(cfg, *args, **kwargs)
            finally:
                inside.pop()
        return wrapped

    def group(run, cfgs, *args, **kwargs):
        assert inside == ["cmd_train"]
        groups.append(len(cfgs))
        return train_group(run, cfgs, *args, **kwargs)

    for name in ("cmd_train", "cmd_probe", "cmd_gar"):
        monkeypatch.setattr(harness, name, recorded(name, getattr(harness, name)))
    monkeypatch.setattr(harness, "train_group", group)
    cfg = tiny_config(tmp_path / "seam", steps=6)
    cfg = replace(cfg, pretrain=replace(cfg.train, steps=10))
    cmd_ablate(cfg, "constraints")
    labels = ["baseline", "id-only", "inv-only", "comp-only", "full"]
    assert calls == [("cmd_train", "base")] + [
        (name, label) for label in labels for name in ("cmd_train", "cmd_probe", "cmd_gar")]
    assert groups == [1, len(labels)]


@pytest.fixture
def group_sizes(monkeypatch):
    """Sizes of the lockstep groups the harness trains, in order."""
    import gawm.harness as harness

    sizes = []

    def group(run, cfgs, *args, **kwargs):
        sizes.append(len(cfgs))
        return train_group(run, cfgs, *args, **kwargs)

    monkeypatch.setattr(harness, "train_group", group)
    return sizes


@pytest.mark.parametrize("axis, groups", [
    ("constraints", [5]),
    ("lambda", [4]),
    ("mode", [2]),
    ("span", [1, 1, 1]),
])
def test_ablate_groups_points_that_differ_only_in_loss_weights_and_mode(
        tmp_path, group_sizes, axis, groups):
    cfg = tiny_config(tmp_path / axis, steps=4)
    rows = cmd_ablate(cfg, axis)
    assert group_sizes == groups
    # every point records its own steps and the training its group shared,
    # with its rate over the seconds that trained rather than its own wall clock
    entries = [json.loads((Path(r["out_dir"]) / "manifest.json").read_text())["stages"]["train"]
               for r in rows]
    firsts = [sum(groups[:g]) for g, k in enumerate(groups) for _ in range(k)]
    shared = [e["shared_training"] for e in entries]
    assert shared == [shared[i] for i in firsts]
    assert [s["rows"] for s in shared] == [k for k in groups for _ in range(k)]
    assert all(set(s) == {"rows", "row_steps", "train_s"} for s in shared)
    assert all(s["row_steps"] == s["rows"] * cfg.train.steps for s in shared)
    assert all(0.0 < s["train_s"] < entries[i]["wall_clock_s"] for s, i in zip(shared, firsts))
    for entry in entries:
        assert entry["train_steps"] == cfg.train.steps
        assert entry["train_steps_per_s"] == cfg.train.steps / entry["shared_training"]["train_s"]


def test_a_solo_run_records_itself_as_its_one_row_training(trained_run):
    cfg, _ = trained_run
    entry = _manifest(cfg)["stages"]["train"]
    assert entry["shared_training"]["rows"] == 1
    assert entry["shared_training"]["row_steps"] == entry["train_steps"] == cfg.train.steps
    assert entry["train_steps_per_s"] == cfg.train.steps / entry["shared_training"]["train_s"]


def test_ablate_groups_only_consecutive_points(tmp_path, monkeypatch, group_sizes):
    # a group is trained and evaluated as one unit, so points of one key
    # split by another point form two groups and keep their grid order
    import gawm.harness as harness

    def grid(cfg, axis):
        return [("a", replace(cfg, ga=replace(cfg.ga, lambda_ga=0.0))),
                ("b", replace(cfg, ga=replace(cfg.ga, max_span=2))),
                ("c", cfg)]

    monkeypatch.setattr(harness, "sweep_points", grid)
    rows = cmd_ablate(tiny_config(tmp_path / "split", steps=4), "lambda")
    assert [row["label"] for row in rows] == ["a", "b", "c"]
    assert group_sizes == [1, 1, 1]


def test_ablate_non_finite_point_fails_as_the_sequential_run(tmp_path, monkeypatch):
    # the first point still writes every output; the failing point raises
    # the error its own run raises, at the same step
    import gawm.harness as harness

    base = tiny_config(tmp_path / "nf", steps=12)
    base = replace(base, train=replace(base.train, optimizer="sgd", learning_rate=1e-3))

    def grid(cfg, axis):
        return [("ok", replace(cfg, ga=replace(cfg.ga, lambda_ga=0.0))),
                ("bad", replace(cfg, ga=replace(cfg.ga, lambda_ga=1e30)))]

    def first_only(cfg, axis):
        return grid(cfg, axis)[:1]

    monkeypatch.setattr(harness, "sweep_points", grid)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteLossError, match=r"^non-finite loss at step \d+$") as err:
            cmd_ablate(base, "lambda")
        alone = tiny_config(tmp_path / "alone", steps=12)
        alone = replace(alone, train=replace(base.train, dataset_path=str(
            Path(base.out_dir) / "dataset")), ga=replace(base.ga, lambda_ga=1e30))
        with pytest.raises(NonFiniteLossError) as alone_err:
            cmd_train(alone)
    assert str(err.value) == str(alone_err.value)
    assert err.value.step > 0

    point = Path(base.out_dir) / "sweep_lambda" / "ok"
    stages = json.loads((point / "manifest.json").read_text())["stages"]
    assert set(stages) == {"train", "probe", "gar"}
    assert not (Path(base.out_dir) / "sweep_lambda" / "bad" / "checkpoint.json").exists()
    monkeypatch.setattr(harness, "sweep_points", first_only)
    ref = tiny_config(tmp_path / "ref", steps=12)
    cmd_ablate(replace(ref, train=base.train), "lambda")
    assert _output_hashes(point) == _output_hashes(Path(ref.out_dir) / "sweep_lambda" / "ok")


@pytest.mark.parametrize("threads", (1, 2))
def test_ablate_hands_grid_points_their_config_objects(tmp_path, monkeypatch, threads):
    # a per-point reload from the dict form would run outside every stage's span
    def no_reload(d):
        raise AssertionError("a grid point reloaded its config")

    monkeypatch.setattr(ExperimentConfig, "from_dict", staticmethod(no_reload))
    rows = cmd_ablate(tiny_config(tmp_path / "objects", steps=4), "mode", threads=threads)
    assert [row["label"] for row in rows] == ["free-running", "teacher-forced"]


@pytest.mark.parametrize("threads", (0, -3))
def test_ablate_rejects_non_positive_threads(tmp_path, threads):
    cfg = tiny_config(tmp_path / "threads", steps=4)
    with pytest.raises(ValueError, match=f"threads must be >= 1, got {threads}"):
        cmd_ablate(cfg, "mode", threads=threads)
    assert not Path(cfg.out_dir).exists()
    bad = CliRunner().invoke(cli_main, ["ablate", "--axis", "mode", "--threads", str(threads),
                                        "--out", str(tmp_path / "cli")])
    assert bad.exit_code == 1
    err = json.loads(bad.output.strip().splitlines()[-1])
    assert err == {"type": "ValueError", "error": f"threads must be >= 1, got {threads}"}
    assert not (tmp_path / "cli").exists()


@pytest.fixture
def recording_pools(monkeypatch):
    """Sizes of the worker pools the harness starts. No real pool starts:
    the stand-in records its size and runs its tasks in-process. The
    harness imports the pool class when it starts one, so the stand-in
    replaces it in ``concurrent.futures``."""
    import concurrent.futures

    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return [fn(*args) for args in zip(*iterables)]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return pools


@pytest.mark.parametrize("axis, threads, pools, groups", [
    ("mode", 64, [], [2]),
    ("constraints", 3, [], [5]),
    ("span", 8, [3], [1, 1, 1]),
], ids=("mode-64", "constraints-3", "span-8"))
def test_ablate_pool_has_at_most_one_worker_per_group(tmp_path, recording_pools, group_sizes,
                                                      axis, threads, pools, groups):
    cmd_ablate(tiny_config(tmp_path / "pool", steps=4), axis, threads=threads)
    assert recording_pools == pools
    # each group trains in lockstep, in a worker or in-process
    assert group_sizes == groups


def test_ablate_loads_the_dataset_once(tmp_path, monkeypatch, recording_pools):
    # pool workers are handed the loaded dataset instead of reading it again
    import gawm.harness as harness

    loads = []

    def counting_load(path):
        loads.append(path)
        return load_dataset(path)

    monkeypatch.setattr(harness, "load_dataset", counting_load)
    cmd_ablate(tiny_config(tmp_path / "loads", steps=4), "span", threads=8)
    assert recording_pools == [3]
    assert len(loads) == 1


def test_report_collects_metrics(tmp_path):
    cfg = tiny_config(tmp_path / "rep")
    cmd_probe(cfg, "exact")
    cmd_gar(cfg, "exact")
    text = cmd_report(cfg.out_dir)
    assert "exact" in text
    assert (Path(cfg.out_dir) / "report.txt").exists()


def test_cli_report_names_a_missing_run_directory(tmp_path):
    missing = tmp_path / "missing"
    result = CliRunner().invoke(cli_main, ["report", "--out", str(missing)])
    assert result.exit_code == 1
    err = json.loads(result.output.strip().splitlines()[-1])
    assert err == {"error": f"run directory not found: {missing}", "type": "FileNotFoundError"}
    assert not missing.exists()


def test_cli_probe_and_errors(tmp_path):
    runner = CliRunner()
    cfg = tiny_config(tmp_path / "cli")
    cfg_path = tmp_path / "cfg.json"
    save_config(cfg_path, cfg)
    ok = runner.invoke(cli_main, ["probe", "exact", "--config", str(cfg_path)])
    assert ok.exit_code == 0, ok.output

    bad = runner.invoke(cli_main, ["probe", "unknown-model", "--config", str(cfg_path)])
    assert bad.exit_code == 1
    err = json.loads(bad.output.strip().splitlines()[-1])
    assert err["type"] == "UnknownModelRefError"


def test_cli_rejects_bad_eval_noise_with_typed_error(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    d = tiny_config(tmp_path / "cli_noise").to_dict()
    d["gar"]["eval_noise_sigma"] = -1.0
    cfg_path.write_text(json.dumps(d))
    bad = CliRunner().invoke(cli_main, ["gar", "exact", "--config", str(cfg_path)])
    assert bad.exit_code == 1
    err = json.loads(bad.output.strip().splitlines()[-1])
    assert err["type"] == "ValueError"
    assert "eval_noise_sigma" in err["error"]


def test_threads_only_on_ablate(tmp_path):
    runner = CliRunner()
    for cmd in (["gen-data"], ["train"], ["probe", "exact"], ["gar", "exact"]):
        result = runner.invoke(cli_main, cmd + ["--threads", "2", "--out", str(tmp_path / "t")])
        assert result.exit_code == 2, cmd
        assert "No such option" in result.output
    assert not (tmp_path / "t").exists()
    assert "--threads" in runner.invoke(cli_main, ["ablate", "--help"]).output


def test_cli_seed_and_out_overrides(tmp_path):
    runner = CliRunner()
    out = tmp_path / "cli_out"
    result = runner.invoke(cli_main, ["gen-data", "--seed", "9", "--out", str(out)])
    assert result.exit_code == 0, result.output
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["seed"] == 9


def test_learned_model_eval_noise_wrapping(trained_run):
    cfg, ckpt = trained_run
    model, _ = parse_model_ref(str(ckpt), eval_noise_sigma=0.1)
    assert isinstance(model, LearnedWorldModel)
    assert model.encoder.obs_noise_sigma == 0.1
    model0, _ = parse_model_ref(str(ckpt))
    assert model0.encoder.obs_noise_sigma == 0.0


@pytest.mark.parametrize("sigma", (math.nan, math.inf, -1.0))
def test_parse_model_ref_rejects_bad_eval_noise(trained_run, sigma):
    _cfg, ckpt = trained_run
    for ref in (str(ckpt), "exact"):
        with pytest.raises(ValueError, match="eval_noise_sigma"):
            parse_model_ref(ref, eval_noise_sigma=sigma)


@pytest.mark.parametrize("sigma", (math.nan, math.inf, -1.0))
def test_suite_configs_reject_bad_eval_noise(sigma):
    with pytest.raises(ValueError, match="eval_noise_sigma"):
        ProbeSuiteConfig(eval_noise_sigma=sigma)
    with pytest.raises(ValueError, match="eval_noise_sigma"):
        GarSuiteConfig(eval_noise_sigma=sigma)
    assert ProbeSuiteConfig(eval_noise_sigma=0.0).eval_noise_sigma == 0.0


@pytest.mark.parametrize("section, key, value, message", [
    ("gar", "n_sequences", 0, "^gar.n_sequences must be >= 1, got 0$"),
    ("gar", "n_rollouts", 1, "^gar.n_rollouts must be >= 2, got 1$"),
    ("gar", "horizons", [], r"^gar.horizons must be one or more lengths >= 1, got \[\]$"),
    ("gar", "horizons", [8, 0], r"^gar.horizons must be one or more lengths >= 1, got \[8, 0\]$"),
    ("gar", "alpha_rot", math.nan, "^alpha_rot must be finite"),
    ("probes", "n_sequences", 0, "^probes.n_sequences must be >= 1, got 0$"),
    ("probes", "identity_lengths", [1, 9], r"^l=9 exceeds the local regime \(<= 8\)$"),
    ("probes", "inverse_k", 0, "^k and l must be >= 1, got k=0, l=1$"),
    ("probes", "composition_lengths", [], "^probes.composition_lengths must not be empty$"),
    ("probes", "sequence_length", 4, "^segment length 5 exceeds stream length 4$"),
    ("probes", "alpha_rot", -1.0, "^alpha_rot must be finite and >= 0, got -1.0$"),
    ("probes", "dirichlet_concentration", 0.0, "^concentration must be > 0, got 0.0$"),
    ("encoder", "obs_noise_sigma", math.nan, "^obs_noise_sigma must be finite and >= 0, got nan$"),
    ("encoder", "latent_dim", 2, "^latent_dim must be >= 4, got 2$"),
    ("probes.action_dist", "sigma_dx", -1.0, "^action_dist.sigma_dx must be finite and >= 0, got -1.0$"),
    ("gar.action_dist", "sigma_dtheta", math.nan, "^action_dist.sigma_dtheta must be finite and >= 0, got nan$"),
    ("dataset.action_dist", "sigma_dy", math.inf, "^action_dist.sigma_dy must be finite and >= 0, got inf$"),
    ("dataset.action_dist", "mean_dx", -math.inf, "^action_dist.mean_dx must be finite, got -inf$"),
    ("dataset", "start_pos_sigma", -0.5, "^dataset.start_pos_sigma must be finite and >= 0, got -0.5$"),
    ("dataset", "start_pos_sigma", math.nan, "^dataset.start_pos_sigma must be finite and >= 0, got nan$"),
    ("train", "hidden_dim", 0, "^hidden_dim must be >= 1, got 0$"),
    ("train", "hidden_dim", -2, "^hidden_dim must be >= 1, got -2$"),
    ("gar", "horizons", [8, 8], r"^gar.horizons must not repeat a horizon, got \[8, 8\]$"),
    ("dataset", "seed", -1, "^dataset.seed must be >= 0, got -1$"),
    ("encoder", "seed", -1, "^encoder.seed must be >= 0, got -1$"),
])
def test_config_rejects_bad_suite_and_encoder_values(tmp_path, section, key, value, message):
    d = tiny_config(tmp_path / "bad").to_dict()
    target = d
    for part in section.split("."):
        target = target[part]
    target[key] = value
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_dict(d)


@pytest.mark.parametrize("section, key, value, needle", [
    ("gar", "n_sequences", 0, "gar.n_sequences"),
    ("probes", "identity_lengths", [9], "l=9"),
    ("encoder", "obs_noise_sigma", math.nan, "obs_noise_sigma"),
    # values of the wrong JSON type fail at load, with their dotted path
    ("train", "steps", 2.5, "config value train.steps must be int, got 2.5"),
    ("train", "batch_size", 4.0, "config value train.batch_size must be int, got 4.0"),
    ("encoder", "latent_dim", 8.5, "config value encoder.latent_dim must be int, got 8.5"),
    ("dataset", "n_trajectories", 6.0, "config value dataset.n_trajectories must be int, got 6.0"),
    ("probes", "identity_lengths", [1.5], "config value probes.identity_lengths[0] must be int, got 1.5"),
    ("gar", "n_rollouts", 2.0, "config value gar.n_rollouts must be int, got 2.0"),
    ("train", "hidden_dim", True, "config value train.hidden_dim must be int, got True"),
    ("ga", "max_span", 2.5, "config value ga.max_span must be int, got 2.5"),
    ("", "seed", 3.9, "config value seed must be int, got 3.9"),
    ("", "seed", "12", "config value seed must be int, got '12'"),
    ("gar", "horizons", [8, 8], "gar.horizons must not repeat a horizon, got [8, 8]"),
])
def test_cli_rejects_bad_suite_config_before_any_stage(tmp_path, section, key, value, needle):
    d = tiny_config(tmp_path / "cli_bad").to_dict()
    (d[section] if section else d)[key] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(d))
    bad = CliRunner().invoke(cli_main, ["ablate", "--config", str(cfg_path)])
    assert bad.exit_code == 1
    err = json.loads(bad.output.strip().splitlines()[-1])
    assert err["type"] == "ValueError"
    assert needle in err["error"]
    assert not (tmp_path / "cli_bad").exists()


SPAN_ERROR = "ga.max_span 500 exceeds dataset.length 32, the trajectory length it trains on"


def _long_span(cfg: ExperimentConfig) -> dict:
    d = cfg.to_dict()
    d["ga"]["max_span"] = 500
    return d


def test_config_load_rejects_a_span_longer_than_the_trajectories(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_long_span(tiny_config(tmp_path / "run"))))
    with pytest.raises(ValueError, match=f"^{re.escape(SPAN_ERROR)}$"):
        load_config(path)
    # a run that trains on a dataset it names is checked when training loads that one
    d = _long_span(tiny_config(tmp_path / "run"))
    d["train"]["dataset_path"] = str(tmp_path / "other")
    path.write_text(json.dumps(d))
    assert load_config(path).ga.max_span == 500


@pytest.mark.parametrize("command",
                         [["gen-data"], ["train"], ["ablate"], ["ablate", "--axis", "span"]])
def test_cli_reports_a_span_longer_than_the_trajectories_before_any_output(tmp_path, command):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_long_span(tiny_config(tmp_path / "run"))))
    result = CliRunner().invoke(cli_main, command + ["--config", str(cfg_path)])
    assert result.exit_code == 1
    assert json.loads(result.output.strip().splitlines()[-1]) == {"error": SPAN_ERROR,
                                                                  "type": "ValueError"}
    assert not (tmp_path / "run").exists()


def test_ablate_checks_every_span_it_trains_on_its_dataset_before_any_output(tmp_path):
    # naming another dataset lets the config load, but ablate trains on its own
    cfg = tiny_config(tmp_path / "run")
    named = replace(cfg, train=replace(cfg.train, dataset_path=str(tmp_path / "other")),
                    ga=replace(cfg.ga, max_span=40))
    with pytest.raises(ValueError, match="^ga.max_span 40 exceeds dataset.length 32"):
        cmd_ablate(named, "constraints")
    # the span axis's points (2, 4, 6) fit, the pretrain's span does not
    with pytest.raises(ValueError, match="^ga.max_span 40 exceeds dataset.length 32"):
        cmd_ablate(replace(named, pretrain=cfg.train), "span")
    # a 5-step dataset holds spans 2 and 4 of the span axis, not 6
    short = replace(cfg, dataset=replace(cfg.dataset, length=5))
    with pytest.raises(ValueError, match="^ga.max_span 6 exceeds dataset.length 5"):
        cmd_ablate(short, "span")
    assert not (tmp_path / "run").exists()


def test_config_load_stores_numbers_as_declared_and_fills_defaults(tmp_path):
    d = tiny_config(tmp_path / "run").to_dict()
    d["train"]["learning_rate"] = 1
    d["pretrain"] = {"batch_size": 4, "hidden_dim": 16}  # a pretrain takes train's width
    cfg = ExperimentConfig.from_dict(d)
    assert cfg.train.learning_rate == 1.0 and isinstance(cfg.train.learning_rate, float)
    d["train"]["learning_rate"] = 1.0
    assert cfg.config_hash() == ExperimentConfig.from_dict(d).config_hash()
    assert cfg.pretrain == TrainRunConfig(steps=5000, batch_size=4, hidden_dim=16)
    d["train"]["learning_rate"] = 10**400
    with pytest.raises(ValueError, match="^config value train.learning_rate must be float, got 1000"):
        ExperimentConfig.from_dict(d)


def test_config_dict_is_asdict_and_hash_is_stable():
    for cfg in (ExperimentConfig(), benchmark_config()):
        assert cfg.to_dict() == asdict(cfg)
    assert ExperimentConfig().config_hash() == \
        "4a07252c68546ed9b6ff4b9e4673674fd5625dd4cba16d53728622010c75d4ce"
    assert benchmark_config().config_hash() == \
        "15b3cc29abc9b4b8f7aff257a38b3a30956a76e8a4897b93716a4de85a3ee060"


def test_train_with_observation_noise_writes_and_reproduces(tmp_path):
    def run(name):
        cfg = replace(tiny_config(tmp_path / name, steps=6),
                      encoder=EncoderConfig(latent_dim=8, obs_noise_sigma=0.01))
        cmd_gen_data(cfg)
        return Path(cfg.out_dir), cmd_train(cfg)

    out1, ckpt1 = run("noisy_a")
    out2, ckpt2 = run("noisy_b")
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert sorted(manifest["stages"]["train"]["paths"]) == sorted(
        str(out1 / name) for name in ("checkpoint.json", "loss_curve.csv", "train_metrics.json"))
    metrics = json.loads((out1 / "train_metrics.json").read_text())
    assert math.isfinite(metrics["eval_prediction_loss"]) and metrics["eval_prediction_loss"] > 0.0
    for name in ("checkpoint.json", "loss_curve.csv", "train_metrics.json"):
        assert file_sha256(out1 / name) == file_sha256(out2 / name), name


def test_finetune_from_checkpoint(trained_run, tmp_path):
    cfg, ckpt = trained_run
    ft_cfg = replace(
        cfg,
        out_dir=str(tmp_path / "ft"),
        train=replace(cfg.train, steps=5, init_checkpoint=str(ckpt),
                      dataset_path=str(Path(cfg.out_dir) / "dataset")),
    )
    ft_ckpt = cmd_train(ft_cfg, label="ft")
    assert ft_ckpt.exists()
    from gawm.latent import load_checkpoint

    net_pre, _, _ = load_checkpoint(ckpt)
    net_post, _, _ = load_checkpoint(ft_ckpt)
    assert not np.array_equal(net_pre.params, net_post.params)


def test_finetune_rejects_mismatched_encoder(trained_run, tmp_path):
    cfg, ckpt = trained_run
    bad = replace(
        cfg,
        seed=cfg.seed + 1,  # different master seed -> different encoder
        out_dir=str(tmp_path / "bad"),
        train=replace(cfg.train, steps=5, init_checkpoint=str(ckpt),
                      dataset_path=str(Path(cfg.out_dir) / "dataset")),
    )
    with pytest.raises(ValueError):
        cmd_train(bad)


def test_finetune_rejects_a_checkpoint_of_another_width_before_its_stage_opens(trained_run,
                                                                               tmp_path):
    cfg, ckpt = trained_run  # trained at train.hidden_dim 16
    narrow = replace(
        cfg,
        out_dir=str(tmp_path / "narrow"),
        train=replace(cfg.train, steps=5, hidden_dim=8, init_checkpoint=str(ckpt),
                      dataset_path=str(Path(cfg.out_dir) / "dataset")),
    )
    with pytest.raises(ValueError, match="^init checkpoint has hidden_dim 16, but "
                                         "train.hidden_dim is 8$"):
        cmd_train(narrow)
    assert not (tmp_path / "narrow").exists()


def test_config_rejects_a_pretrain_of_another_width_than_its_fine_tunes(tmp_path):
    cfg = tiny_config(tmp_path / "widths")
    message = "^pretrain.hidden_dim 8 differs from train.hidden_dim 16"
    with pytest.raises(ValueError, match=message):
        replace(cfg, pretrain=replace(cfg.train, hidden_dim=8))
    d = cfg.to_dict()
    d["pretrain"] = {"hidden_dim": 8}
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_dict(d)
    assert not (tmp_path / "widths").exists()


def test_ablate_rejects_a_dataset_missing_a_trajectory_its_summary_counts(tmp_path):
    cfg = tiny_config(tmp_path / "lost", steps=4)
    data_dir = cmd_gen_data(cfg)
    (data_dir / "traj_0003.jsonl").unlink()
    with pytest.raises(ValueError, match="summary.json counts 10 trajectories, found 9 "):
        cmd_ablate(cfg, "mode")
    assert not (tmp_path / "lost" / "sweep_mode").exists()


def test_ablate_with_pretrain_shares_base(tmp_path, monkeypatch):
    import gawm.harness as harness

    loads = []

    def counting_load(path):
        loads.append(str(path))
        return load_dataset(path)

    monkeypatch.setattr(harness, "load_dataset", counting_load)
    cfg = tiny_config(tmp_path / "pre_ablate", steps=6)
    cfg = replace(cfg, pretrain=replace(cfg.train, steps=10))
    rows = cmd_ablate(cfg, "constraints")
    # one load serves the pretrain and all five in-process grid points
    assert loads == [str(Path(cfg.out_dir) / "dataset")]
    base_ckpt = Path(cfg.out_dir) / "base" / "checkpoint.json"
    assert base_ckpt.exists()
    resolved = json.loads(
        (Path(cfg.out_dir) / "sweep_constraints" / "full" / "resolved_config.json").read_text()
    )
    assert resolved["train"]["init_checkpoint"] == str(base_ckpt)
    assert len(rows) == 5


def test_benchmark_config_round_trips():
    from gawm.config import ExperimentConfig, benchmark_config

    cfg = benchmark_config(out_dir="runs/x", seed=7)
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
    assert cfg.pretrain is not None


def test_evaluate_gar_prefers_native_sampler():
    from gawm.metrics import evaluate_gar
    from gawm.models import Trajectory
    from gawm.se2 import DistanceParams, Pose2

    class Stub:
        def __init__(self):
            self.calls = 0

        def step(self, state, action, rng):
            raise AssertionError("step must not be used when a native sampler exists")

        def sample_trajectory(self, start, actions, rng):
            self.calls += 1
            jitter = rng.normal(0.0, 0.1)
            poses = [start] + [Pose2(0.0, float(i + jitter), 0.0) for i in range(len(actions))]
            return Trajectory(poses)

    stub = Stub()
    starts = np.array([[0.0, 0.0, 0.0], [0.5, 1.0, 1.0]])
    actions = np.tile([0.1, 0.0, 0.0], (2, 4, 1))
    report = evaluate_gar(stub, starts, actions, [4], 3, DistanceParams(1.0), seed=1)
    assert stub.calls == 3 * len(starts)
    assert report.entries[0].nonaligned_mean > 0.0


def test_train_resolves_dataset_model_before_training(tmp_path, monkeypatch):
    # with train.dataset_path set gen-data does not run, so cmd_train is
    # the first stage to see dataset.model
    import gawm.harness as harness

    cfg = tiny_config(tmp_path / "data", steps=5)
    data_dir = cmd_gen_data(cfg)
    calls = []
    monkeypatch.setattr(harness, "train_group", lambda *args: calls.append(args))
    bad = replace(cfg, out_dir=str(tmp_path / "bad"), dataset=replace(cfg.dataset, model="bogus"),
                  train=replace(cfg.train, dataset_path=str(data_dir)))
    with pytest.raises(UnknownModelRefError, match="bogus"):
        cmd_train(bad)
    assert calls == []
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("stage", [cmd_probe, cmd_gar])
def test_checkpoint_with_mismatched_parts_fails_before_the_stage_writes(tmp_path, stage):
    ckpt = tmp_path / "mismatched.json"
    save_checkpoint(ckpt, DynamicsNet(8, 16), make_encoder(16, 5))
    cfg = tiny_config(tmp_path / "run")
    with pytest.raises(ValueError, match=f"^checkpoint {re.escape(str(ckpt))}: encoder projection"):
        stage(cfg, str(ckpt))
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("edit, needle", [
    (lambda payload: payload.update(params=payload["params"][:-1]),
     "expected 328 parameters, got shape (327,)"),
    (lambda payload: payload.pop("obs_noise_sigma"), "field 'obs_noise_sigma' is missing"),
    (lambda payload: payload.pop("hidden_dim"), "field 'hidden_dim' is missing"),
    (lambda payload: payload.pop("params"), "field 'params' is missing"),
    (lambda payload: payload.update(obs_noise_sigma=None), "field 'obs_noise_sigma' is not float: None"),
], ids=["params-short", "no-obs-noise-sigma", "no-hidden-dim", "no-params",
                          "null-obs-noise-sigma"])
def test_edited_checkpoint_fails_naming_the_file_before_the_stage_writes(tmp_path, edit, needle):
    ckpt = tmp_path / "edited.json"
    save_checkpoint(ckpt, DynamicsNet(8, 16), make_encoder(8, 5))
    payload = json.loads(ckpt.read_text())
    edit(payload)
    ckpt.write_text(json.dumps(payload))
    cfg = tiny_config(tmp_path / "run")
    with pytest.raises(ValueError, match=f"^checkpoint {re.escape(str(ckpt))}: {re.escape(needle)}$"):
        cmd_gar(cfg, str(ckpt))
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("text, kind", [("[1]", "list"), ("null", "NoneType"), ('"x"', "str")])
def test_checkpoint_that_is_not_an_object_fails_naming_the_file_before_the_stage_writes(
        tmp_path, text, kind):
    ckpt = tmp_path / "edited.json"
    ckpt.write_text(text)
    cfg = tiny_config(tmp_path / "run")
    with pytest.raises(ValueError, match=f"^checkpoint {re.escape(str(ckpt))}: "
                                         f"the top level is {kind}, not an object$"):
        cmd_gar(cfg, str(ckpt))
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("stage", [cmd_probe, cmd_gar])
def test_bad_model_ref_fails_before_the_stage_writes(tmp_path, stage):
    cfg = tiny_config(tmp_path / "run")
    stage(cfg, "exact")
    manifest = (tmp_path / "run" / "manifest.json").read_bytes()
    with pytest.raises(UnknownModelRefError, match="exat"):
        stage(cfg, "exat")
    assert (tmp_path / "run" / "manifest.json").read_bytes() == manifest
    with pytest.raises(UnknownModelRefError, match="bogus"):
        stage(replace(cfg, out_dir=str(tmp_path / "fresh")), "bogus")
    assert not (tmp_path / "fresh").exists()


def _config_fields(cls, path=""):
    """(dotted path, kind) of every field under config class ``cls``, sections
    included, where kind is a section, an array or a scalar type."""
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        dotted = f"{path}.{f.name}" if path else f.name
        tp = hints[f.name]
        if isinstance(tp, types.UnionType):
            (tp,) = [arg for arg in typing.get_args(tp) if arg is not type(None)]
        if is_dataclass(tp):
            yield dotted, "section"
            yield from _config_fields(tp, dotted)
        else:
            yield dotted, "array" if typing.get_origin(tp) is tuple else tp


_numbers = st.one_of(st.integers(), st.floats())
_WRONG_JSON = {
    int: st.one_of(st.floats(), st.booleans()),
    float: st.one_of(st.text(max_size=4), st.booleans()),
    str: _numbers,
    "array": st.one_of(_numbers, st.text(max_size=4), st.booleans()),
    "section": st.lists(_numbers, max_size=3),
}
# (section path, key, value, error prefix) for a value of the wrong JSON type
_mistyped_edits = st.sampled_from(list(_config_fields(ExperimentConfig))).flatmap(
    lambda leaf: _WRONG_JSON[leaf[1]].map(
        lambda value: (*leaf[0].rpartition(".")[::2], value, f"config value {leaf[0]} must be ")))


def _edited(d: dict, section: str, key: str, value) -> dict:
    """Config dict ``d`` with ``value`` at dotted ``section`` plus ``key``."""
    target = d
    for part in filter(None, section.split(".")):
        if target.get(part) is None:  # pretrain is null in tiny_config
            target[part] = {}
        target = target[part]
    target[key] = value
    return d


def test_config_rejects_a_wrong_json_type_in_every_field(tmp_path):
    for dotted, kind in _config_fields(ExperimentConfig):
        value = {int: 2.0, float: "1", str: 1, "array": 3, "section": []}[kind]
        section, _, key = dotted.rpartition(".")
        d = _edited(tiny_config(tmp_path / "run").to_dict(), section, key, value)
        with pytest.raises(ValueError, match=f"^config value {re.escape(dotted)} must be "):
            ExperimentConfig.from_dict(d)


_SECTIONS = {"": ExperimentConfig, "dataset": DatasetConfig, "encoder": EncoderConfig,
             "train": TrainRunConfig, "probes": ProbeSuiteConfig, "gar": GarSuiteConfig}
_DISTS = ["dataset.action_dist", "probes.action_dist", "gar.action_dist"]
_bad_sigma = st.one_of(st.floats(max_value=-1e-300, allow_infinity=True),
                       st.sampled_from([math.nan, math.inf]))
_gains = st.floats(min_value=0.1, max_value=3.0)
# (section path, key, value, a substring of the error message)
_bad_config_edits = st.one_of(
    st.tuples(st.sampled_from(_DISTS), st.sampled_from(["sigma_dx", "sigma_dy", "sigma_dtheta"]),
              _bad_sigma).map(lambda e: e + (f"action_dist.{e[1]} must be finite and >= 0",)),
    st.tuples(st.sampled_from(_DISTS), st.just("mean_dx"), st.sampled_from([math.nan, -math.inf]),
              st.just("action_dist.mean_dx must be finite")),
    st.tuples(st.just("dataset"), st.just("start_pos_sigma"), _bad_sigma,
              st.just("dataset.start_pos_sigma must be finite and >= 0")),
    st.tuples(st.just("train"), st.just("hidden_dim"), st.integers(max_value=0),
              st.just("hidden_dim must be >= 1")),
    st.tuples(st.sampled_from(["dataset", "encoder"]), st.just("seed"), st.integers(max_value=-1))
    .map(lambda e: e + (f"{e[0]}.seed must be >= 0",)),
    st.tuples(st.sampled_from(["probes", "gar"]), st.just("eval_noise_sigma"), _bad_sigma,
              st.just("eval_noise_sigma must be finite and >= 0")),
    st.tuples(st.just("dataset"), st.just("model"), st.one_of(
        st.lists(_gains, min_size=1, max_size=4).filter(lambda g: len(g) != 2),
        st.tuples(_gains, st.floats(max_value=0.0)),
    ).map(lambda g: "asym:" + ",".join(map(repr, g))), st.just("asym")),
    st.tuples(st.just("dataset"), st.just("model"), st.one_of(
        st.tuples(st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=5).filter(lambda d: len(d) != 3),
                  st.just("drift.drift_bias must be an object or an array of 3")),
        st.tuples(st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.floats(3.15, 100.0)),
                  st.just("|dtheta| must be <= pi")),
        st.tuples(st.just((math.nan, 0.0, 0.0)), st.just("increment components must be finite")),
    )).map(lambda e: (*e[:2], "drift:" + ",".join(map(repr, e[2][0])), e[2][1])),
    st.tuples(st.sampled_from(sorted(_SECTIONS)),
              st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12), st.integers())
    .filter(lambda e: e[1] not in {f.name for f in fields(_SECTIONS[e[0]])})
    .map(lambda e: e + (f"unknown config key: {e[0] + '.' if e[0] else ''}{e[1]}",)),
    _mistyped_edits,
)


@settings(max_examples=60, deadline=None)
@given(_bad_config_edits)
def test_cli_ablate_rejects_invalid_config_values_before_any_output(edit):
    import tempfile

    section, key, value, needle = edit
    with tempfile.TemporaryDirectory() as tmp:
        d = _edited(tiny_config(Path(tmp) / "run").to_dict(), section, key, value)
        cfg_path = Path(tmp) / "cfg.json"
        cfg_path.write_text(json.dumps(d))
        out = Path(tmp) / "out"
        result = CliRunner().invoke(cli_main, ["ablate", "--config", str(cfg_path), "--out", str(out)])
        assert result.exit_code == 1, result.output
        err = json.loads(result.output.strip().splitlines()[-1])
        assert set(err) == {"error", "type"}
        assert err["type"] in ("ValueError", "UnknownModelRefError"), err
        assert needle in err["error"]
        assert not out.exists()
