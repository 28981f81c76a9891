import json
import math

import numpy as np
import pytest

from gawm import se2
from gawm.data import read_trajectory_jsonl, write_trajectory_jsonl
from gawm.models import (
    ExactModel,
    PerturbedModel,
    ViolationConfig,
    exact_step,
    perturbed_step,
    rollout,
)
from gawm.se2 import Pose2, se2_compose, state_distance, wrap_angles
from gawm.segments import ActionIncrement, ZERO_INCREMENT, make_inverse_segment

import oracles
from oracles import compose_matrix, increment_pose, increments, pose_close, pose_list, random_pose


def _rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def _random_segment(rng, length, rot_scale=0.3):
    return np.array([
        [float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.5, 0.5)),
         float(rng.uniform(-rot_scale, rot_scale))]
        for _ in range(length)
    ])


def test_exact_step_zero_action_fixes_state():
    rng = _rng(1)
    for _ in range(50):
        s = random_pose(rng)
        assert exact_step(s, ZERO_INCREMENT) == s


def test_exact_step_matrix_oracle_cases():
    s1 = exact_step(Pose2(0, 0, 0), ActionIncrement(1, 0, math.pi / 2))
    assert pose_close(s1, Pose2(math.pi / 2, 1, 0), 1e-12)
    assert pose_close(s1, compose_matrix(Pose2(0, 0, 0), increment_pose(ActionIncrement(1, 0, math.pi / 2))), 1e-12)

    s2 = exact_step(Pose2(math.pi / 2, 0, 0), ActionIncrement(1, 0, 0))
    assert pose_close(s2, Pose2(math.pi / 2, 0, 1), 1e-12)


def test_exact_model_group_action_conditions():
    # identity, compatibility with single composed motion, inverse for
    # translation-only segments: the three group-action conditions
    rng = _rng(42)
    model = ExactModel()
    for _ in range(1000):
        s = random_pose(rng)
        length = int(rng.integers(1, 9))
        seg = _random_segment(rng, length)
        traj = pose_list(rollout(model, s, seg, 0))
        composed = s
        for a in increments(seg):
            composed = se2_compose(composed, increment_pose(a))
        assert pose_close(traj[-1], composed, 1e-9)
    for _ in range(200):
        s = random_pose(rng)
        seg = _random_segment(rng, int(rng.integers(1, 5)), rot_scale=0.0)
        back = pose_list(rollout(model, s, make_inverse_segment(seg), 0))
        assert state_distance(back[-1], s) <= 1e-9


def test_inverse_cycle_residual_matches_stepwise_oracle():
    # with rotations the elementwise negation is not the exact group
    # inverse; the residual must equal naive stepwise simulation
    rng = _rng(3)
    model = ExactModel()
    residuals = []
    for _ in range(100):
        s = random_pose(rng)
        seg = _random_segment(rng, 3)
        cycle = make_inverse_segment(seg)
        end = pose_list(rollout(model, s, cycle, 0))[-1]
        oracle = s
        for a in increments(cycle):
            oracle = compose_matrix(oracle, increment_pose(a))
        assert pose_close(end, oracle, 1e-12)
        residuals.append(state_distance(end, s))
    print(f"inverse-cycle residual under rotation: mean={np.mean(residuals):.3e} "
          f"max={np.max(residuals):.3e}")


def test_perturbed_all_disabled_is_bit_identical_to_exact():
    rng = _rng(9)
    cfg = ViolationConfig()
    for _ in range(100):
        s = random_pose(rng)
        a = ActionIncrement(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
        exact = exact_step(s, a)
        pert = perturbed_step(s, a, cfg, _rng(0))
        assert (exact.theta, exact.x, exact.y) == (pert.theta, pert.x, pert.y)


def test_public_steps_equal_the_per_pose_oracle_bit_for_bit():
    # exact_step and perturbed_step are one row of their model's step_batch;
    # states start at pi and actions turn by +-pi among random ones
    cfgs = [ViolationConfig(), ViolationConfig(noise_sigma=0.02),
            ViolationConfig(drift_bias=ActionIncrement(0.02, -0.01, 0.05), saturation_scale=0.3,
                            asym_gain=(1.2, 0.8))]
    rng = _rng(10)
    for i in range(400):
        s = random_pose(rng)
        a = ActionIncrement(float(rng.normal(0.0, 0.5)), float(rng.normal(0.0, 0.5)),
                            float(rng.uniform(-math.pi, math.pi)))
        if i % 4 == 1:
            s = Pose2(math.pi, s.x, s.y)
        if i % 4 == 2:
            a = ActionIncrement(a.dx, a.dy, math.pi if i % 8 == 2 else -math.pi)
        assert exact_step(s, a) == oracles.exact_step(s, a)
        for k, cfg in enumerate(cfgs):
            assert perturbed_step(s, a, cfg, _rng(k)) == oracles.perturbed_step(s, a, cfg, _rng(k)), cfg


def test_drift_bias_single_step():
    cfg = ViolationConfig(drift_bias=ActionIncrement(0.1, 0, 0))
    out = perturbed_step(Pose2(0, 0, 0), ZERO_INCREMENT, cfg, _rng(0))
    assert out.x == pytest.approx(0.1, abs=1e-15)
    assert out.y == 0.0 and out.theta == 0.0


def test_drift_matches_stepwise_simulation_exactly():
    cfg = ViolationConfig(drift_bias=ActionIncrement(0.02, -0.01, 0.05))
    model = PerturbedModel(cfg)
    rng = _rng(4)
    for _ in range(20):
        s = random_pose(rng)
        steps = int(rng.integers(1, 6))
        traj = pose_list(rollout(model, s, np.zeros((steps, 3)), 0))
        oracle = s
        for _ in range(steps):
            oracle = oracles.exact_step(oracle, cfg.drift_bias)
        assert state_distance(traj[-1], oracle) <= 1e-12


def test_saturation_spot_value():
    cfg = ViolationConfig(saturation_scale=1.0)
    out = perturbed_step(Pose2(0, 0, 0), ActionIncrement(2, 0, 0), cfg, _rng(0))
    assert out.x == pytest.approx(math.tanh(2.0), abs=1e-15)


def test_asym_gain_forward_back():
    cfg = ViolationConfig(asym_gain=(1.2, 1.0))
    s1 = perturbed_step(Pose2(0, 0, 0), ActionIncrement(1, 0, 0), cfg, _rng(0))
    s2 = perturbed_step(s1, ActionIncrement(-1, 0, 0), cfg, _rng(0))
    assert state_distance(s2, Pose2(0, 0, 0)) == pytest.approx(0.2, abs=1e-12)


def test_rollout_empty_actions():
    s = Pose2(0.5, 1, 2)
    traj = rollout(ExactModel(), s, np.zeros((0, 3)), 0)
    assert traj.shape == (1, 3) and pose_list(traj) == [s]


def test_rollout_lengths_and_stepwise_consistency():
    rng = _rng(5)
    seg = _random_segment(rng, 8)
    model = ExactModel()
    traj = pose_list(rollout(model, Pose2(0, 0, 0), seg, 0))
    assert len(traj) == 9
    for i, a in enumerate(increments(seg)):
        assert traj[i + 1] == oracles.exact_step(traj[i], a)


def test_zero_noise_rollouts_ignore_seed():
    cfg = ViolationConfig(drift_bias=ActionIncrement(0.01, 0, 0))
    model = PerturbedModel(cfg)
    seg = _random_segment(_rng(6), 10)
    t1 = rollout(model, Pose2(0, 0, 0), seg, 1)
    t2 = rollout(model, Pose2(0, 0, 0), seg, 999)
    assert np.array_equal(t1, t2)


def test_same_seed_bit_identical_trajectories():
    model = PerturbedModel(ViolationConfig(noise_sigma=0.05))
    seg = _random_segment(_rng(7), 16)
    t1 = rollout(model, Pose2(0, 0, 0), seg, 1234)
    t2 = rollout(model, Pose2(0, 0, 0), seg, 1234)
    assert t1.tobytes() == t2.tobytes()
    t3 = rollout(model, Pose2(0, 0, 0), seg, 1235)
    assert np.any(t1 != t3)


def test_violation_config_validation():
    with pytest.raises(ValueError):
        ViolationConfig(saturation_scale=0.0)
    with pytest.raises(ValueError):
        ViolationConfig(noise_sigma=-1.0)
    with pytest.raises(ValueError):
        ViolationConfig(asym_gain=(0.0, 1.0))
    # infinite saturation scale means the injector is disabled
    assert ViolationConfig(saturation_scale=math.inf).saturation_scale is None


def test_trajectory_jsonl_round_trip(tmp_path):
    seg = _random_segment(_rng(8), 5)
    traj = rollout(ExactModel(), Pose2(0.3, -1.0, 2.0), seg, 0)
    path = tmp_path / "traj.jsonl"
    write_trajectory_jsonl(path, traj, seg)
    poses, actions = read_trajectory_jsonl(path)
    assert np.array_equal(poses, traj)
    assert np.array_equal(actions, seg)
    # one object on one line: the action rows, then the [theta, x, y] pose rows, the start first
    text = path.read_text()
    assert text == json.dumps({"actions": seg.tolist(), "poses": traj.tolist()}) + "\n"
    assert text.count("\n") == 1 and '"poses": [[0.3, -1.0, 2.0], ' in text


def _stepwise_headings(starts, dtheta):
    """Headings of a per-step rollout: each step's sum wrapped on its own."""
    theta = [starts]
    for i in range(dtheta.shape[1]):
        theta.append(wrap_angles(theta[-1] + dtheta[:, i]))
    return np.stack(theta, axis=1)


def _increment_rows(t, sigma, seed):
    """12 (3,) starts and (12, t, 3) realized increments whose turns are a
    random walk of step sigma, with rows that start at exactly pi, just
    above -pi and outside (-pi, pi] (kept as given), and turns of +-pi,
    +-2pi and 0 at the first and last steps."""
    rng = _rng(seed)
    starts = np.column_stack([rng.uniform(-math.pi, math.pi, 12), rng.normal(size=(12, 2))])
    starts[0, 0], starts[1, 0], starts[2, 0] = math.pi, np.nextafter(-math.pi, 0.0), 4.0
    increments = rng.normal(0.0, 0.1, (12, t, 3))
    increments[..., 2] = rng.normal(0.0, sigma, (12, t))
    special = [math.pi, -math.pi, 2 * math.pi, -2 * math.pi, 0.0]
    increments[:5, 0, 2] = special
    increments[5:10, -1, 2] = special
    increments[10, :, 2] = math.pi
    increments[11, :, 2] = -math.pi
    return starts, increments


@pytest.mark.parametrize("t", [1, 80])
@pytest.mark.parametrize("sigma", [0.0, 0.3, 1.5])
def test_increment_headings_equal_the_stepwise_wrap_loop(t, sigma):
    starts, increments = _increment_rows(t, sigma, seed=t)
    theta = se2.apply_increments(starts, increments)[..., 0]
    want = _stepwise_headings(starts[:, 0], increments[..., 2])
    assert theta.tobytes() == want.tobytes()
    if sigma == 1.5 and t == 80:  # the random walks wrap many times
        assert (np.abs(np.diff(want, axis=1)) > math.pi).sum() > 100


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("t, step", [(1, 0), (80, 0), (80, 40), (80, 79)])
def test_a_non_finite_turn_ends_in_the_finite_pose_error(bad, t, step):
    starts, increments = _increment_rows(t, 1.5, seed=3)
    increments[4, step, 2] = bad
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
        se2.apply_increments(starts, increments)
