"""The batched evaluation path against the per-pose path, bit for bit.

Every comparison is exact (``==`` or ``np.array_equal``): the batched
kernels are meant to round every pose the way one-pose-at-a-time
evaluation does, so the metric files stay byte-identical.
"""

import math

import numpy as np
import pytest

from gawm.latent import (
    DynamicsNet,
    HeadingUndefinedError,
    LearnedWorldModel,
    encode,
    make_dynamics_net,
    make_encoder,
)
from gawm.metrics import (
    KIND_IDENTITY,
    KIND_INVERSE,
    ProbeConfig,
    align_trajectory,
    default_probe_grid,
    evaluate_gac,
    evaluate_gar,
)
from gawm.models import (
    ExactModel,
    PerturbedModel,
    ViolationConfig,
    rollout_batch,
    step_batch,
)
from gawm.se2 import (
    DistanceParams,
    Pose2,
    pose_array,
    state_distance,
    state_distances,
    wrap_angle,
    wrap_angles,
)
from gawm.segments import ActionIncrement, ActionSegment

from oracles import (
    per_pose_rollout,
    random_pose,
    reference_align,
    reference_gac,
    reference_gar,
)

DIST = DistanceParams(0.7)


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _learned(obs_noise=0.0):
    enc = make_encoder(8, 11, obs_noise_sigma=obs_noise)
    return LearnedWorldModel(enc, make_dynamics_net(8, 16, 12, w1_gain=3.0))


MODELS = {
    "exact": ExactModel,
    "drift": lambda: PerturbedModel(ViolationConfig(drift_bias=ActionIncrement(0.02, -0.01, 0.03))),
    "sat": lambda: PerturbedModel(ViolationConfig(saturation_scale=0.08)),
    "asym": lambda: PerturbedModel(ViolationConfig(asym_gain=(1.3, 0.7))),
    "noise": lambda: PerturbedModel(ViolationConfig(noise_sigma=0.02)),
    "combined": lambda: PerturbedModel(ViolationConfig(
        drift_bias=ActionIncrement(0.01, 0.005, -0.02), saturation_scale=0.1,
        asym_gain=(1.2, 0.9), noise_sigma=0.015)),
    "learned": _learned,
    "learned-obs-noise": lambda: _learned(0.05),
}


def _turning_sequences(n=5, length=20, seed=0):
    """(n, 3) starts and (n, length, 3) actions of streams that turn hard,
    starting near the heading cut, so that headings cross +-pi on the way."""
    rng = _rng(seed)
    starts, actions = np.empty((n, 3)), np.empty((n, length, 3))
    for i in range(n):
        start = Pose2(math.pi - 0.05 * i if i % 2 else -math.pi + 0.05 * (i + 1),
                      float(rng.normal()), float(rng.normal()))
        turn = 0.3 if i % 2 else -0.3
        starts[i] = pose_array([start])[0]
        actions[i] = ActionSegment([
            ActionIncrement(float(rng.normal(0.08, 0.04)), float(rng.normal(0.0, 0.03)),
                            float(turn + rng.normal(0.0, 0.1)))
            for _ in range(length)
        ]).array
    return starts, actions


def test_turning_sequences_cross_the_heading_cut():
    starts, actions = _turning_sequences()
    theta = rollout_batch(ExactModel(), starts, actions, [None] * len(starts))[:, :, 0]
    assert np.all(np.abs(np.diff(theta, axis=1)).max(axis=1) > math.pi)


@pytest.mark.parametrize("name", MODELS)
def test_rollout_batch_equals_per_pose_rollout(name):
    model = MODELS[name]()
    starts, actions = _turning_sequences()
    got = rollout_batch(model, starts, actions, [_rng(100 + b) for b in range(len(starts))])
    for b, (start, row) in enumerate(zip(starts, actions)):
        want = pose_array(per_pose_rollout(model, Pose2(*start), ActionSegment(row), _rng(100 + b)))
        assert np.array_equal(got[b], want), b
    one = rollout_batch(model, starts[:1], actions[:1], [_rng(100)])
    assert np.array_equal(one[0], got[0])


@pytest.mark.parametrize("name", MODELS)
def test_step_batch_equals_model_step(name):
    model = MODELS[name]()
    rng = _rng(7)
    poses = [random_pose(rng) for _ in range(6)] + [Pose2(math.pi, 0.5, -0.5), Pose2(-3.1, 1.0, 2.0)]
    actions = [ActionIncrement(float(rng.normal(0.1, 0.1)), float(rng.normal(0.0, 0.1)),
                               float(rng.uniform(-math.pi, math.pi))) for _ in poses]
    actions[-1] = ActionIncrement(0.1, 0.0, -math.pi)
    got = step_batch(model, pose_array(poses), ActionSegment(actions).array,
                     [_rng(200 + b) for b in range(len(poses))])
    want = pose_array([model.step(p, a, _rng(200 + b))
                       for b, (p, a) in enumerate(zip(poses, actions))])
    assert np.array_equal(got, want)


GRID = default_probe_grid() + [
    ProbeConfig(KIND_IDENTITY, k=3, l=2),
    ProbeConfig(KIND_INVERSE, k=2, l=4),
]


@pytest.mark.parametrize("name", MODELS)
def test_reports_equal_per_pose_reference(name):
    model = MODELS[name]()
    seqs = _turning_sequences()
    gac_args, gar_args = (GRID, DIST, 5, 0.5), ([6, 20], 9, DIST, 9)
    assert evaluate_gac(model, *seqs, *gac_args) == reference_gac(model, *seqs, *gac_args)
    # nine rollouts make 36 pairs, past numpy's 8-way unrolled summation
    assert evaluate_gar(model, *seqs, *gar_args) == reference_gar(model, *seqs, *gar_args)
    one = [a[:1] for a in seqs]
    assert evaluate_gac(model, *one, GRID, DIST, 5) == reference_gac(model, *one, GRID, DIST, 5)
    assert evaluate_gar(model, *one, [20], 2, DIST, 9) == reference_gar(model, *one, [20], 2, DIST, 9)


class StepOnly:
    """A third-party model with only the per-pose interface."""

    def __init__(self):
        self.inner = MODELS["combined"]()
        self.steps = 0

    def step(self, state, action, rng):
        self.steps += 1
        return self.inner.step(state, action, rng)


def test_step_only_model_goes_through_the_fallback():
    model = StepOnly()
    seqs = _turning_sequences(3, 12)
    gac = evaluate_gac(model, *seqs, GRID, DIST, 3)
    assert model.steps > 0
    assert gac == evaluate_gac(model.inner, *seqs, GRID, DIST, 3)
    assert gac == reference_gac(model, *seqs, GRID, DIST, 3)
    steps = model.steps
    gar = evaluate_gar(model, *seqs, [12], 3, DIST, 3)
    assert model.steps == steps + 3 * 3 * 12
    assert gar == evaluate_gar(model.inner, *seqs, [12], 3, DIST, 3)
    assert gar == reference_gar(model, *seqs, [12], 3, DIST, 3)


def test_batch_path_rejects_non_finite_poses():
    starts = np.array([[0.0, 0.0, 0.0], [0.0, 1.7e308, 0.0]])
    actions = np.tile([1e308, 0.0, 0.0], (2, 2, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="finite"):
            ExactModel().step(Pose2(*starts[1]), ActionIncrement(*actions[1, 0]), None)
        for model in (ExactModel(), MODELS["drift"](), MODELS["noise"]()):
            with pytest.raises(ValueError, match="finite"):
                rollout_batch(model, starts, actions, [_rng(0), _rng(1)])
            with pytest.raises(ValueError, match="finite"):
                step_batch(model, starts, actions[:, 0], [_rng(0), _rng(1)])
        learned = _learned()
        learned.net.weights()[3][:] = 1e308
        start = Pose2(0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="finite"):
            per_pose_rollout(learned, start, ActionSegment([ActionIncrement(0.1, 0, 0)] * 3), None)
        with pytest.raises(ValueError, match="finite"):
            rollout_batch(learned, starts[:1], np.tile([0.1, 0.0, 0.0], (1, 3, 1)), [None])


def test_batch_path_raises_heading_undefined():
    enc = make_encoder(8, 3)
    model = LearnedWorldModel(enc, DynamicsNet(8, 4))
    start = Pose2(0.3, 1.0, -2.0)
    model.net.weights()[3][:] = -encode(start, enc)  # the first step lands on z = 0
    zero = ActionIncrement(0.0, 0.0, 0.0)
    with pytest.raises(HeadingUndefinedError):
        model.step(start, zero, None)
    starts = pose_array([Pose2(0.0, 0.0, 0.0), start])
    with pytest.raises(HeadingUndefinedError):
        step_batch(model, starts, np.zeros((2, 3)), [None, None])
    with pytest.raises(HeadingUndefinedError):
        rollout_batch(model, starts, np.zeros((2, 3, 3)), [None, None])


def test_array_forms_equal_per_pose_forms():
    rng = _rng(5)
    edges = [math.pi, -math.pi, 3 * math.pi, -3 * math.pi, math.nextafter(math.pi, 4.0),
             math.nextafter(-math.pi, -4.0), 0.0, -0.0, 7.5, -12.25]
    theta = np.array(edges + list(rng.uniform(-10.0, 10.0, size=200)))
    assert np.array_equal(wrap_angles(theta), [wrap_angle(t) for t in theta.tolist()])

    a = np.array([[t, x, y] for t, x, y in rng.uniform(-4.0, 4.0, size=(50, 3))])
    b = np.array([[t, x, y] for t, x, y in rng.uniform(-4.0, 4.0, size=(50, 3))])
    want = [state_distance(Pose2(*p), Pose2(*q), DIST) for p, q in zip(a.tolist(), b.tolist())]
    assert np.array_equal(state_distances(pose_array([Pose2(*p) for p in a]),
                                          pose_array([Pose2(*q) for q in b]), DIST), want)

    ref = [random_pose(rng) for _ in range(17)]
    trajs = [[random_pose(rng) for _ in range(17)] for _ in range(4)]
    stacked = align_trajectory(np.stack([pose_array(t) for t in trajs]), pose_array(ref))
    for got, traj in zip(stacked, trajs):
        assert np.array_equal(got, pose_array(reference_align(traj, ref)))
