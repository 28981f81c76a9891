"""The array data path against the per-pose one, bit for bit.

Datasets are arrays generated by stepping every trajectory at once with
``models.step_batch``. The per-pose path in ``oracles`` (Pose2 starts,
ActionSegments of increments, ``models.rollout``) is what they must
reproduce, including the generator draws. Comparisons use ``tobytes``,
so a flipped zero sign counts as a difference.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from gawm.config import STAGE_EVAL, DatasetConfig, ExperimentConfig, stage_seed
from gawm.data import (
    ActionDistribution, Dataset, generate_records, load_dataset, sample_sequences, write_dataset,
)
from gawm.harness import _held_out_prediction_loss, parse_model_ref
from gawm.latent import make_dynamics_net, make_encoder, save_checkpoint
from gawm.models import ExactModel
from gawm.se2 import Pose2, pose_array
from gawm.segments import ActionIncrement, ActionSegment
from gawm.training import GALossConfig, TrainRunConfig, train

from oracles import (
    per_pose_features,
    per_pose_held_out_loss,
    per_pose_records,
    per_pose_sequence,
)

# hard turns, so headings cross the +-pi cut along the way
DIST = ActionDistribution(mean_dx=0.065, sigma_dx=0.05, sigma_dy=0.04, sigma_dtheta=0.4)
COMBINED = ('perturbed:{"drift_bias": [0.01, -0.005, 0.02], "saturation_scale": 0.1, '
            '"asym_gain": [1.2, 0.9], "noise_sigma": 0.015}')


def _model(tmp_path, ref):
    if ref == "learned":
        # a noisy encoder: step draws observation noise on every transition
        path = tmp_path / "learned.json"
        save_checkpoint(path, make_dynamics_net(8, 16, 12, w1_gain=3.0),
                        make_encoder(8, 11, obs_noise_sigma=0.05))
        ref = str(path)
    return parse_model_ref(ref)[0]


@pytest.mark.parametrize("ref", ["exact", "noise:0.02", COMBINED, "learned"])
def test_generate_records_equals_per_pose_rollout(tmp_path, ref):
    # The learned model's own rollout_batch carries its latent across steps,
    # which is not a fold of step; generation must step.
    model = _model(tmp_path, ref)
    got = generate_records(model, 12, 20, DIST, seed=31, start_pos_sigma=2.0)
    want = per_pose_records(model, 12, 20, DIST, 31, start_pos_sigma=2.0)
    assert got.poses.tobytes() == np.stack([pose_array(poses) for poses, _ in want]).tobytes()
    assert got.actions.tobytes() == np.stack([actions.array for _, actions in want]).tobytes()
    features = np.array([[per_pose_features(p) for p in poses] for poses, _ in want])
    assert got.features.tobytes() == features.tobytes()
    if ref in ("exact", "noise:0.02"):  # saturation and the untrained net turn less
        assert np.any(np.abs(np.diff(got.poses[:, :, 0], axis=1)) > math.pi)


def test_eval_sequences_draw_as_the_per_pose_sampler():
    starts, actions, _ = sample_sequences(6, 10, DIST, 77)
    for i in range(6):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=77, spawn_key=(i,))))
        start, segment = per_pose_sequence(rng, 10, DIST)
        assert starts[i].tobytes() == pose_array([start])[0].tobytes()
        assert actions[i].tobytes() == segment.array.tobytes()


@pytest.fixture
def written(tmp_path):
    data = generate_records(ExactModel(), 3, 6, DIST, seed=4)
    root = tmp_path / "ds"
    write_dataset(root, data, {"seed": 4, "model": "exact"})
    return root, data


def _edit_pose(root, i, t, **fields):
    path = root / f"traj_{i:04d}.jsonl"
    lines = path.read_text().splitlines()
    pose = json.loads(lines[1 + t])
    pose.update(fields)
    lines[1 + t] = json.dumps(pose)
    path.write_text("\n".join(lines) + "\n")
    return pose


def test_load_dataset_round_trips_the_arrays(written):
    root, data = written
    ds = load_dataset(root)
    for name in ("poses", "actions", "features"):
        assert getattr(ds, name).tobytes() == getattr(data, name).tobytes(), name


def test_load_dataset_rejects_a_non_finite_pose_as_pose2_does(written):
    root, _ = written
    pose = _edit_pose(root, 1, 3, x=math.nan)
    with pytest.raises(ValueError) as per_pose:
        Pose2.from_dict(pose)
    with pytest.raises(ValueError) as got:
        load_dataset(root)
    assert str(got.value) == str(per_pose.value)


@pytest.mark.parametrize("dtheta", (3.5, -math.pi - 1e-9, math.inf))
def test_load_dataset_rejects_a_bad_action_as_increment_does(written, dtheta):
    root, _ = written
    path = root / "actions_0002.json"
    rows = json.loads(path.read_text())
    rows[4][2] = dtheta
    path.write_text(json.dumps(rows))
    with pytest.raises(ValueError) as per_pose:
        ActionIncrement(*rows[4])
    with pytest.raises(ValueError) as got:
        load_dataset(root)
    assert str(got.value) == str(per_pose.value)


@pytest.mark.parametrize("theta", (1.5 * math.pi, -math.pi, 7.0, -12.25))
def test_load_dataset_wraps_headings_as_pose2_does(written, theta):
    root, _ = written
    pose = _edit_pose(root, 0, 2, theta=theta)
    ds = load_dataset(root)
    want = pose_array([Pose2.from_dict(pose)])[0]
    assert ds.poses[0, 2].tobytes() == want.tobytes()
    assert ds.features[0, 2].tobytes() == per_pose_features(Pose2.from_dict(pose)).tobytes()


def test_load_dataset_rejects_mismatched_lengths(written):
    root, _ = written
    path = root / "actions_0001.json"
    path.write_text(json.dumps(json.loads(path.read_text())[:-1]))
    with pytest.raises(ValueError, match="7 poses for 5 actions"):
        load_dataset(root)


def test_load_dataset_checks_the_trajectories_against_its_summary(written):
    root, _ = written
    summary = json.loads((root / "summary.json").read_text())
    (root / "summary.json").write_text(json.dumps(dict(summary, length=7)))
    with pytest.raises(ValueError, match=r"summary.json gives trajectory length 7, found "
                                         r"lengths \[6\]$"):
        load_dataset(root)
    (root / "summary.json").write_text(json.dumps(summary))
    (root / "traj_0001.jsonl").unlink()
    with pytest.raises(ValueError, match="summary.json counts 3 trajectories, found 2 "):
        load_dataset(root)
    (root / "summary.json").unlink()
    with pytest.raises(FileNotFoundError, match="summary.json"):
        load_dataset(root)


@pytest.mark.parametrize("dtheta", (3.5, -math.pi - 1e-9, math.inf, math.nan))
def test_dataset_checks_its_actions_at_construction(dtheta):
    data = generate_records(ExactModel(), 3, 6, DIST, seed=4)
    actions = data.actions.copy()
    actions[2, 4, 2] = dtheta
    with pytest.raises(ValueError) as per_pose:
        ActionIncrement(*actions[2, 4].tolist())
    with pytest.raises(ValueError) as got:
        Dataset(data.poses, actions)
    assert str(got.value) == str(per_pose.value)


def test_dataset_segments_are_read_only_views_equal_to_checked_copies():
    data = generate_records(ExactModel(), 3, 6, DIST, seed=4)
    for i in range(3):
        for t in range(6):
            for l in range(1, 7 - t):
                seg = data.segment(i, t, l)
                assert np.array_equal(seg, ActionSegment(data.actions[i, t : t + l]).array)
                assert seg.tobytes() == data.actions[i, t : t + l].tobytes()
                assert np.shares_memory(seg, data.actions)
                assert not seg.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        data.actions[0, 0, 0] = 1.0
    with pytest.raises(ValueError, match="exceeds trajectory length"):
        data.segment(0, 4, 3)


def test_training_is_the_same_with_copied_and_rechecked_segments(monkeypatch):
    data = generate_records(ExactModel(), 10, 16, DIST, seed=6)
    run = TrainRunConfig(steps=40, batch_size=8, hidden_dim=16)
    cfg = GALossConfig(max_span=6)
    encoder = make_encoder(8, 13)
    views = train(run, cfg, data, encoder, 21)
    monkeypatch.setattr(Dataset, "segment",
                        lambda self, i, t, l: ActionSegment(self.actions[i, t : t + l]).array)
    copies = train(run, cfg, data, encoder, 21)
    assert views.net.params.tobytes() == copies.net.params.tobytes()
    for name in ("active", "l_pred", "l_ga", "total"):
        assert getattr(views, name).tobytes() == getattr(copies, name).tobytes(), name


def test_dataset_rejects_inconsistent_shapes():
    with pytest.raises(ValueError, match="at least one trajectory"):
        Dataset(np.zeros((0, 3, 3)), np.zeros((0, 2, 3)))
    with pytest.raises(ValueError, match=r"\(N, T\+1, 3\)"):
        Dataset(np.zeros((2, 3, 3)), np.zeros((2, 3, 3)))


@pytest.mark.parametrize("model_ref", ("exact", "noise:0.02"))
def test_held_out_prediction_loss_equals_per_pose(model_ref):
    cfg = replace(ExperimentConfig(seed=9), dataset=DatasetConfig(
        length=18, model=model_ref, action_dist=DIST, start_pos_sigma=1.5))
    encoder = make_encoder(8, 5, obs_noise_sigma=0.05)
    net = make_dynamics_net(8, 16, 6, w1_gain=2.0)
    model = parse_model_ref(model_ref)[0]
    got = _held_out_prediction_loss(cfg, model, net, encoder)
    want = per_pose_held_out_loss(model, net, encoder, 18, DIST, stage_seed(9, STAGE_EVAL), 1.5)
    assert got == want
