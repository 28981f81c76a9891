"""The array data path against the per-pose one, bit for bit.

Datasets are arrays generated by stepping every trajectory at once with
``models.step_batch``. The per-pose path in ``oracles`` (Pose2 starts,
increments of (L, 3) action arrays, a per-pose ``rollout``) is what they must
reproduce, including the generator draws. Comparisons use ``tobytes``,
so a flipped zero sign counts as a difference.
"""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gawm.config import STAGE_EVAL, DatasetConfig, ExperimentConfig, stage_seed
from gawm.data import (
    ActionDistribution, Dataset, generate_records, load_dataset, sample_sequences, write_dataset,
)
from gawm.harness import _held_out_prediction_loss, parse_model_ref
from gawm.latent import make_dynamics_net, make_encoder, save_checkpoint
from gawm.models import ExactModel
from gawm.se2 import Pose2, pose_array
from gawm.segments import ActionIncrement

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
    assert got.actions.tobytes() == np.stack([actions for _, actions in want]).tobytes()
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
        assert actions[i].tobytes() == segment.tobytes()


@pytest.fixture
def written(tmp_path):
    data = generate_records(ExactModel(), 3, 6, DIST, seed=4)
    root = tmp_path / "ds"
    write_dataset(root, data, {"seed": 4, "model": "exact"})
    return root, data


POSE_FIELDS = ("theta", "x", "y")


def _with(name, edit):
    """A text edit of a trajectory file that replaces its ``name`` array
    ("actions" or "poses") by what ``edit`` returns for it."""
    def text_edit(text):
        record = json.loads(text)
        record[name] = edit(record[name])
        return json.dumps(record) + "\n"
    return text_edit


def _set_pose(t, **fields):
    """An edit of the pose rows that sets pose t's ``theta``, ``x`` or ``y``."""
    return lambda rows: [*rows[:t], [fields.get(f, v) for f, v in zip(POSE_FIELDS, rows[t])],
                         *rows[t + 1:]]


def _edit(root, i, name, edit):
    """Rewrite trajectory i's ``name`` array as ``edit`` returns it; the array as written."""
    path = root / f"traj_{i:04d}.jsonl"
    path.write_text(_with(name, edit)(path.read_text()))
    return json.loads(path.read_text())[name]


def _edit_pose(root, i, t, **fields):
    """Set trajectory i's pose t's fields; the pose as a dict."""
    return dict(zip(POSE_FIELDS, _edit(root, i, "poses", _set_pose(t, **fields))[t]))


def _header_and_pose_lines(text: str) -> str:
    """A trajectory file in the earlier layout: an ``{"actions"}`` header
    line, then one ``{"theta", "x", "y"}`` object per pose."""
    record = json.loads(text)
    lines = [json.dumps({"actions": record["actions"]})]
    lines += [json.dumps({"theta": theta, "x": x, "y": y}) for theta, x, y in record["poses"]]
    return "\n".join(lines) + "\n"


def test_load_dataset_round_trips_the_arrays(written):
    root, data = written
    ds = load_dataset(root)
    for name in ("poses", "actions", "features"):
        assert getattr(ds, name).tobytes() == getattr(data, name).tobytes(), name


def test_load_dataset_rejects_a_non_finite_pose_as_pose2_does(written):
    root, _ = written
    pose = _edit_pose(root, 1, 3, x=math.nan)
    with pytest.raises(ValueError) as per_pose:
        Pose2(**pose)
    with pytest.raises(ValueError) as got:
        load_dataset(root)
    assert str(got.value) == f"{root / 'traj_0001.jsonl'}: {per_pose.value}"


@pytest.mark.parametrize("dtheta", (3.5, -math.pi - 1e-9, math.inf))
def test_load_dataset_rejects_a_bad_action_as_increment_does(written, dtheta):
    root, _ = written
    rows = _edit(root, 2, "actions", lambda rows: rows[:4] + [rows[4][:2] + [dtheta]] + rows[5:])
    with pytest.raises(ValueError) as per_pose:
        ActionIncrement(*rows[4])
    with pytest.raises(ValueError) as got:
        load_dataset(root)
    assert str(got.value) == f"{root / 'traj_0002.jsonl'}: {per_pose.value}"


@pytest.mark.parametrize("theta", (1.5 * math.pi, -math.pi, 7.0, -12.25))
def test_load_dataset_wraps_headings_as_pose2_does(written, theta):
    root, _ = written
    pose = _edit_pose(root, 0, 2, theta=theta)
    ds = load_dataset(root)
    want = pose_array([Pose2(**pose)])[0]
    assert ds.poses[0, 2].tobytes() == want.tobytes()
    assert ds.features[0, 2].tobytes() == per_pose_features(Pose2(**pose)).tobytes()


def test_load_dataset_rejects_mismatched_lengths(written):
    root, _ = written
    _edit(root, 1, "actions", lambda rows: rows[:-1])
    with pytest.raises(ValueError, match=f"^{re.escape(str(root / 'traj_0001.jsonl'))}: the poses "
                                         r"must be a \(6, 3\) array for 5 actions, got shape "
                                         r"\(7, 3\)$"):
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


@pytest.mark.parametrize("name, edit, message", [
    pytest.param("summary.json", lambda text: text[:-2], " is not JSON: ", id="summary-not-json"),
    pytest.param("summary.json", lambda text: json.dumps({"n_trajectories": 3}), " lacks length$",
                 id="summary-no-length"),
    pytest.param("summary.json", lambda text: json.dumps({"n_trajectories": 3, "length": "6"}),
                 ": field 'length' is not int: '6'$", id="summary-length-a-string"),
    pytest.param("traj_0001.jsonl", lambda text: text[:-3], " is not JSON: ",
                 id="trajectory-truncated"),
    pytest.param("traj_0001.jsonl", lambda text: text + "{oops\n", " is not JSON: Extra data",
                 id="trajectory-then-a-second-value"),
    pytest.param("traj_0001.jsonl", _with("poses", lambda rows: [rows[0][:2], *rows[1:]]),
                 r": field 'poses' is not array: \[\[",
                 id="pose-two-numbers"),
    pytest.param("traj_0001.jsonl", _with("poses", _set_pose(0, x="0.15")),
                 ": field 'poses' is not array: '0.15'$",
                 id="pose-a-string-number"),
    pytest.param("traj_0001.jsonl", _with("poses", _set_pose(0, x=True)),
                 ": field 'poses' is not array: True$",
                 id="pose-a-bool"),
    pytest.param("traj_0001.jsonl", _with("actions", lambda rows: 5),
                 ": field 'actions' is not array: 5$",
                 id="actions-an-int"),
    pytest.param("traj_0002.jsonl", _with("actions", lambda rows: [[0.1, "x", 0.0]]),
                 ": field 'actions' is not array: 'x'$",
                 id="action-not-a-number"),
    pytest.param("traj_0002.jsonl", _with("actions", lambda rows: [[0.1, "0.15", 0.0]]),
                 ": field 'actions' is not array: '0.15'$",
                 id="action-a-string-number"),
    pytest.param("traj_0002.jsonl", _with("actions", lambda rows: [[0.1, True, 0.0]]),
                 ": field 'actions' is not array: True$",
                 id="action-a-bool"),
    pytest.param("traj_0002.jsonl", _with("actions", lambda rows: [[0.1, 0.0]]),
                 r": the actions must be an \(L, 3\) array, got shape \(1, 2\)$",
                 id="action-two-columns"),
    pytest.param("traj_0002.jsonl", lambda text: json.dumps({"actions": json.loads(text)["actions"]}),
                 " lacks poses$", id="no-poses"),
    # the earlier layouts: a header line, then one pose object per line;
    # before that, the actions in a separate file that the header named
    pytest.param("traj_0000.jsonl", _header_and_pose_lines, " is not JSON: Extra data",
                 id="old-layout"),
    pytest.param("traj_0000.jsonl",
                 lambda text: json.dumps({"actions_file": "actions_0000.json", "model": "exact",
                                          "seed": 4}),
                 " lacks actions, poses$", id="actions-file-layout"),
])
def test_load_dataset_names_the_malformed_file(written, name, edit, message):
    root, _ = written
    path = root / name
    path.write_text(edit(path.read_text()))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}{message}"):
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


def test_dataset_checks_its_poses_at_construction_as_pose2_does():
    data = generate_records(ExactModel(), 3, 6, DIST, seed=4)
    poses = data.poses.copy()
    poses[1, 3, 1] = math.nan
    with pytest.raises(ValueError) as per_pose:
        Pose2(*poses[1, 3].tolist())
    with pytest.raises(ValueError) as got:
        Dataset(poses, data.actions)
    assert str(got.value) == str(per_pose.value)


def test_dataset_wraps_headings_on_a_copy_that_round_trips(tmp_path):
    data = generate_records(ExactModel(), 3, 6, DIST, seed=4)
    poses = data.poses.copy()
    poses[0, 2, 0] = 7.0
    ds = Dataset(poses, data.actions)
    assert poses[0, 2, 0] == 7.0
    assert ds.poses[0, 2].tobytes() == pose_array([Pose2(*poses[0, 2].tolist())])[0].tobytes()
    assert ds.features[0, 2].tobytes() == per_pose_features(Pose2(*poses[0, 2].tolist())).tobytes()
    write_dataset(tmp_path / "ds", ds, {})
    loaded = load_dataset(tmp_path / "ds")
    for name in ("poses", "actions", "features"):
        assert getattr(loaded, name).tobytes() == getattr(ds, name).tobytes(), name


# values whose JSON text is easy to get wrong: a signed zero, the smallest
# subnormal, magnitudes near the float range, and the turn and heading bounds
EDGES = [-0.0, 5e-324, 1e300, -1e300]
FINITE = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=False, allow_infinity=False))
HEADINGS = st.one_of(st.sampled_from([math.pi, float(np.nextafter(-math.pi, 0.0))]), FINITE)
TURNS = st.one_of(st.sampled_from([-0.0, 5e-324, math.pi, -math.pi]), st.floats(-math.pi, math.pi))
EDGE_DATASET = Dataset(
    np.array([[[math.pi, -0.0, 5e-324], [float(np.nextafter(-math.pi, 0.0)), 1e300, -1e300]]]),
    np.array([[[-1e300, 5e-324, -math.pi]]]))


@st.composite
def datasets(draw):
    n, t = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    poses = [[[draw(HEADINGS), draw(FINITE), draw(FINITE)] for _ in range(t + 1)] for _ in range(n)]
    actions = [[[draw(FINITE), draw(FINITE), draw(TURNS)] for _ in range(t)] for _ in range(n)]
    return Dataset(np.array(poses), np.array(actions))


@settings(max_examples=40, deadline=None)
@given(data=datasets())
@example(data=EDGE_DATASET)
def test_write_then_load_returns_the_same_arrays(tmp_path_factory, data):
    root = tmp_path_factory.mktemp("ds")
    write_dataset(root, data, {"seed": 0, "model": "exact"})
    loaded = load_dataset(root)
    for name in ("poses", "actions", "features"):
        assert getattr(loaded, name).tobytes() == getattr(data, name).tobytes(), name


def test_dataset_actions_are_a_read_only_view():
    data = generate_records(ExactModel(), 3, 6, DIST, seed=4)
    with pytest.raises(ValueError, match="read-only"):
        data.actions[0, 0, 0] = 1.0


def test_dataset_rejects_inconsistent_shapes():
    with pytest.raises(ValueError, match="at least one trajectory"):
        Dataset(np.zeros((0, 3, 3)), np.zeros((0, 2, 3)))
    with pytest.raises(ValueError, match=r"\(N, T\+1, 3\)"):
        Dataset(np.zeros((2, 3, 3)), np.zeros((2, 3, 3)))
    # trajectories without actions would be written, and then fail to load
    with pytest.raises(ValueError, match=re.escape("at least one action, got (2, 0, 3) actions")):
        Dataset(np.zeros((2, 1, 3)), np.zeros((2, 0, 3)))
    with pytest.raises(ValueError, match="at least one action"):
        generate_records(ExactModel(), 2, 0, DIST, seed=1)


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
