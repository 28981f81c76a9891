import math
import re

import numpy as np
import pytest

from gawm.config import ProbeSuiteConfig
from gawm.metrics import (
    KIND_COMPOSITION,
    KIND_IDENTITY,
    KIND_INVERSE,
    ProbeConfig,
    ProbeResult,
    aggregate_gac,
    align_trajectory,
    evaluate_gac,
    evaluate_gar,
    gar_error,
    probe_composition,
    probe_identity,
    probe_inverse,
    probe_positions,
    write_gac_csv,
    write_gac_gnuplot,
    write_gac_json,
    write_gar_csv,
)
from gawm.models import ExactModel, PerturbedModel, ViolationConfig, rollout
from gawm.se2 import DistanceParams, Pose2, pose_array, se2_compose, state_distance
from gawm.segments import (
    ActionIncrement,
    DirichletParams,
    keyed_rng,
    sample_dirichlet_weights,
)

from oracles import (
    oracle_probe_composition,
    oracle_probe_identity,
    oracle_probe_inverse,
    random_pose,
)

DIST = DistanceParams(1.0)


def _rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def _sequences(n, length, seed, rot_scale=0.0):
    """(n, 3) starts and (n, length, 3) actions."""
    rng = _rng(seed)
    starts, actions = np.empty((n, 3)), np.empty((n, length, 3))
    for i in range(n):
        start = random_pose(rng, pos_scale=2.0)
        starts[i] = [start.theta, start.x, start.y]
        actions[i] = [
            [
                float(rng.normal(0.1, 0.05)),
                float(rng.normal(0.0, 0.03)),
                float(np.clip(rng.normal(0.0, rot_scale), -1.0, 1.0)) if rot_scale else 0.0,
            ]
            for _ in range(length)
        ]
    return starts, actions


def test_probe_config_validation():
    with pytest.raises(ValueError):
        ProbeConfig("other")
    with pytest.raises(ValueError):
        ProbeConfig(KIND_IDENTITY, k=0)
    with pytest.raises(ValueError):
        ProbeConfig(KIND_IDENTITY, l=9)
    with pytest.raises(ValueError):
        ProbeConfig(KIND_COMPOSITION, k=2)


def test_default_grid_is_nine_configs():
    grid = ProbeSuiteConfig().probe_grid()
    assert len(grid) == 9
    assert sum(c.kind == KIND_IDENTITY for c in grid) == 3
    assert sum(c.kind == KIND_INVERSE for c in grid) == 3
    assert sum(c.kind == KIND_COMPOSITION for c in grid) == 3


def test_exact_model_identity_probe_is_zero():
    seqs = _sequences(5, 12, 1, rot_scale=0.2)
    for k, l in [(1, 1), (3, 3), (5, 5), (1, 5)]:
        r = probe_identity(ExactModel(), *seqs, ProbeConfig(KIND_IDENTITY, k=k, l=l), DIST, 0)
        assert r.mean <= 1e-9
        assert r.n_instances == 5 * k


def test_exact_model_inverse_probe_translation_only_zero():
    seqs = _sequences(5, 12, 2, rot_scale=0.0)
    for k, l in [(1, 1), (3, 3), (5, 5)]:
        r = probe_inverse(ExactModel(), *seqs, ProbeConfig(KIND_INVERSE, k=k, l=l), DIST, 0)
        assert r.mean <= 1e-9


def test_exact_model_composition_probe_translation_only_zero():
    seqs = _sequences(5, 12, 3, rot_scale=0.0)
    for l in (1, 2, 4, 6):
        r = probe_composition(ExactModel(), *seqs, ProbeConfig(KIND_COMPOSITION, l=l), DIST, 0)
        assert r.mean <= 1e-9


def test_composition_probe_names_a_later_sequence_that_recomposes_beyond_pi():
    # only sequence 2 turns, by pi every action: a recomposed share of its
    # window's summed turn passes pi unless its weights are all exactly 1/l
    starts, actions = _sequences(4, 12, 3, rot_scale=0.0)
    actions[2, :, 2] = math.pi
    cfg = ProbeConfig(KIND_COMPOSITION, l=4)
    with pytest.raises(ValueError, match=f"^composition probe l=4, sequence 2, window at action "
                                         f"{min(probe_positions(cfg, 12))}: the recomposed window "
                                         r"is no valid increment \(\|dtheta\| must be <= pi"):
        probe_composition(ExactModel(), starts, actions, cfg, DIST, 0)


def test_identity_probe_drift_matches_brute_force():
    drift = ActionIncrement(0.1, 0.0, 0.0)
    model = PerturbedModel(ViolationConfig(drift_bias=drift))
    seqs = np.zeros((1, 3)), np.zeros((1, 0, 3))
    r = probe_identity(model, *seqs, ProbeConfig(KIND_IDENTITY, k=1, l=3), DIST, 0)
    assert r.mean == pytest.approx(0.3, abs=1e-12)
    oracle = oracle_probe_identity(*seqs, 1, 3, 1.0, drift=(0.1, 0.0, 0.0))
    assert r.mean == pytest.approx(oracle, abs=1e-12)


def test_identity_probe_rotation_term_scales_with_alpha():
    model = PerturbedModel(ViolationConfig(drift_bias=ActionIncrement(0, 0, 0.05)))
    seqs = _sequences(4, 10, 4)
    cfg = ProbeConfig(KIND_IDENTITY, k=2, l=3)
    r1 = probe_identity(model, *seqs, cfg, DistanceParams(1.0), 0)
    r2 = probe_identity(model, *seqs, cfg, DistanceParams(2.0), 0)
    assert r2.mean == pytest.approx(2.0 * r1.mean, rel=1e-12)


def test_inverse_probe_asym_spot_value():
    model = PerturbedModel(ViolationConfig(asym_gain=(1.2, 1.0)))
    seqs = np.zeros((1, 3)), np.array([[[1.0, 0.0, 0.0]]])
    r = probe_inverse(model, *seqs, ProbeConfig(KIND_INVERSE, k=1, l=1), DIST, 0)
    assert r.mean == pytest.approx(0.2, abs=1e-12)


def test_inverse_probe_rotation_residual_matches_oracle():
    seqs = _sequences(5, 10, 5, rot_scale=0.3)
    cfg = ProbeConfig(KIND_INVERSE, k=2, l=3)
    r = probe_inverse(ExactModel(), *seqs, cfg, DIST, 0)
    oracle = oracle_probe_inverse(*seqs, 2, 3, 1.0)
    assert r.mean > 1e-6  # the elementwise negation is not the group inverse
    assert r.mean == pytest.approx(oracle, abs=1e-12)


def test_composition_spot_value_saturation():
    # canonical decomposition pair measured through the model and metric
    model = PerturbedModel(ViolationConfig(saturation_scale=1.0))
    start = Pose2(0, 0, 0)
    u_a = np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    u_b = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    end_a = Pose2(*rollout(model, start, u_a, 0)[-1])
    end_b = Pose2(*rollout(model, start, u_b, 0)[-1])
    expected = abs(math.tanh(2.0) - 2.0 * math.tanh(1.0))
    assert state_distance(end_a, end_b, DIST) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize(
    "inj_cfg,inj_kwargs",
    [
        (ViolationConfig(drift_bias=ActionIncrement(0.03, -0.01, 0.02)), {"drift": (0.03, -0.01, 0.02)}),
        (ViolationConfig(saturation_scale=0.8), {"sat": 0.8}),
        (ViolationConfig(asym_gain=(1.3, 0.9)), {"gains": (1.3, 0.9)}),
    ],
)
def test_probe_oracle_equivalence_per_injector(inj_cfg, inj_kwargs):
    model = PerturbedModel(inj_cfg)
    seqs = _sequences(4, 12, 6, rot_scale=0.1)
    for k, l in [(1, 2), (3, 3)]:
        r = probe_identity(model, *seqs, ProbeConfig(KIND_IDENTITY, k=k, l=l), DIST, 0)
        assert r.mean == pytest.approx(oracle_probe_identity(*seqs, k, l, 1.0, **inj_kwargs), abs=1e-12)
        r = probe_inverse(model, *seqs, ProbeConfig(KIND_INVERSE, k=k, l=l), DIST, 0)
        assert r.mean == pytest.approx(oracle_probe_inverse(*seqs, k, l, 1.0, **inj_kwargs), abs=1e-12)
    for l in (2, 4):
        cfg = ProbeConfig(KIND_COMPOSITION, l=l)
        r = probe_composition(model, *seqs, cfg, DIST, 0, concentration=1.0)

        def weight_fn(s_idx, length):
            rng = keyed_rng(0, 2, 1, length, s_idx, 1)
            return sample_dirichlet_weights(length, DirichletParams(1.0), rng)

        oracle = oracle_probe_composition(*seqs, l, 1.0, weight_fn, **inj_kwargs)
        assert r.mean == pytest.approx(oracle, abs=1e-12)


def test_probe_rejects_out_of_range_positions():
    seqs = _sequences(2, 4, 7)
    with pytest.raises(ValueError):
        probe_inverse(ExactModel(), *seqs, ProbeConfig(KIND_INVERSE, k=1, l=5), DIST, 0)


def test_aggregate_gac_equal_components():
    rows = [
        ProbeResult(KIND_IDENTITY, 1, 1, 0.7, 0.0, 10, (0,)),
        ProbeResult(KIND_INVERSE, 1, 1, 0.7, 0.0, 10, (0,)),
        ProbeResult(KIND_COMPOSITION, 1, 2, 0.7, 0.0, 10, (0,)),
    ]
    assert aggregate_gac(rows).e_gac == pytest.approx(0.7, abs=1e-15)


def test_aggregate_gac_published_arithmetic():
    def report_for(id_m, inv_m, comp_m):
        rows = [
            ProbeResult(KIND_IDENTITY, 1, 1, id_m, 0.0, 1, (0,)),
            ProbeResult(KIND_INVERSE, 1, 1, inv_m, 0.0, 1, (0,)),
            ProbeResult(KIND_COMPOSITION, 1, 2, comp_m, 0.0, 1, (0,)),
        ]
        return aggregate_gac(rows)

    assert report_for(1.95, 1.95, 0.60).e_gac == pytest.approx(1.50, abs=1e-12)
    r = report_for(2.10, 2.29, 0.79)
    assert f"{r.e_gac:.2f}" == "1.73"


def test_aggregate_gac_is_mean_of_component_means():
    rng = _rng(9)
    rows = []
    for kind in (KIND_IDENTITY, KIND_INVERSE, KIND_COMPOSITION):
        for l in (1, 3):
            rows.append(ProbeResult(kind, 1, l, float(rng.uniform(0, 2)), 0.1, 5, (0,)))
    rep = aggregate_gac(rows)
    assert rep.e_gac == (rep.delta_id + rep.delta_inv + rep.delta_comp) / 3.0


def test_aggregate_gac_rejects_empty_component():
    rows = [ProbeResult(KIND_IDENTITY, 1, 1, 0.5, 0.0, 1, (0,))]
    with pytest.raises(ValueError):
        aggregate_gac(rows)


def test_evaluate_gac_order_independent():
    seqs = _sequences(3, 12, 10)
    model = PerturbedModel(ViolationConfig(drift_bias=ActionIncrement(0.02, 0, 0.01)))
    grid = ProbeSuiteConfig().probe_grid()
    rep1 = evaluate_gac(model, *seqs, grid, DIST, 0)
    rep2 = evaluate_gac(model, *seqs, list(reversed(grid)), DIST, 0)
    assert rep1 == rep2


def _random_trajectory(rng, n, start=None):
    poses = [start if start is not None else random_pose(rng, 2.0)]
    for _ in range(n):
        poses.append(random_pose(rng, 2.0))
    return poses


def test_align_self_is_identity():
    traj = pose_array(_random_trajectory(_rng(11), 6))
    aligned = align_trajectory(traj, traj)
    for a, b in zip(aligned, traj):
        assert state_distance(Pose2(*a), Pose2(*b)) <= 1e-12


def test_align_recovers_rigid_transform():
    rng = _rng(12)
    for _ in range(20):
        traj = _random_trajectory(rng, 8)
        g = random_pose(rng, 3.0)
        moved = pose_array([se2_compose(g, p) for p in traj])
        back = align_trajectory(moved, pose_array(traj))
        for (_, ax, ay), b in zip(back, traj):
            assert math.hypot(ax - b.x, ay - b.y) <= 1e-9


def test_align_matches_grid_search_oracle():
    rng = _rng(13)
    traj = pose_array(_random_trajectory(rng, 10))
    ref = pose_array(_random_trajectory(rng, 10))
    aligned = align_trajectory(traj, ref)
    best = float(np.sum((aligned[:, 1:] - ref[:, 1:]) ** 2))

    p = traj[:, 1:]
    q = ref[:, 1:]
    mu_q = q.mean(axis=0)
    angles = np.arange(-math.pi, math.pi, 1e-4)
    cos, sin = np.cos(angles), np.sin(angles)
    rx = p[:, 0][None, :] * cos[:, None] - p[:, 1][None, :] * sin[:, None]
    ry = p[:, 0][None, :] * sin[:, None] + p[:, 1][None, :] * cos[:, None]
    tx = mu_q[0] - rx.mean(axis=1)
    ty = mu_q[1] - ry.mean(axis=1)
    res = ((rx + tx[:, None] - q[:, 0]) ** 2 + (ry + ty[:, None] - q[:, 1]) ** 2).sum(axis=1)
    grid_best = float(res.min())
    assert best <= grid_best + 1e-9
    assert abs(best - grid_best) <= 1e-6 * max(1.0, grid_best)


def test_align_validates_lengths():
    t1 = pose_array(_random_trajectory(_rng(14), 4))
    t2 = pose_array(_random_trajectory(_rng(15), 5))
    with pytest.raises(ValueError):
        align_trajectory(t1, t2)
    single = pose_array([random_pose(_rng(16))])
    with pytest.raises(ValueError):
        align_trajectory(single, single)


def test_gar_identical_trajectories_zero():
    traj = _random_trajectory(_rng(17), 8)
    rollouts = np.stack([pose_array(traj)] * 3)
    assert gar_error(rollouts, DIST, aligned=False) == 0.0
    assert gar_error(rollouts, DIST, aligned=True) == 0.0


def test_gar_two_rollouts_single_step():
    a = [Pose2(0, 0, 0), Pose2(0, 1, 0)]
    b = [Pose2(0, 0, 0), Pose2(0, 2, 0)]
    assert gar_error(np.stack([pose_array(a), pose_array(b)]), DIST, aligned=False) == \
        pytest.approx(1.0, abs=1e-15)


def test_gar_matches_double_loop_oracle():
    rng = _rng(18)
    trajs = [_random_trajectory(rng, 6) for _ in range(3)]
    got = gar_error(np.stack([pose_array(t) for t in trajs]), DIST, aligned=False)
    total = 0.0
    pairs = 0
    for i in range(3):
        for j in range(i + 1, 3):
            pairs += 1
            acc = 0.0
            for t in range(1, 7):
                acc += state_distance(trajs[i][t], trajs[j][t], DIST)
            total += acc / 6.0
    assert got == pytest.approx(total / pairs, abs=1e-12)


def test_gar_validation():
    traj = pose_array(_random_trajectory(_rng(19), 4))
    with pytest.raises(ValueError, match="at least 2 rollouts"):
        gar_error(traj[None], DIST, aligned=False)
    with pytest.raises(ValueError, match="at least one step"):
        gar_error(np.stack([traj[:1], traj[:1]]), DIST, aligned=False)
    bad = np.stack([traj, traj])
    bad[1, 2, 1] = math.inf
    with pytest.raises(ValueError, match="finite"):
        gar_error(bad, DIST, aligned=False)


def test_evaluate_gar_exact_model_is_exactly_zero():
    seqs = _sequences(4, 16, 21, rot_scale=0.1)
    report = evaluate_gar(ExactModel(), *seqs, [8, 16], 5, DIST, 0)
    for entry in report.entries:
        assert entry.aligned_mean == 0.0
        assert entry.nonaligned_mean == 0.0


def test_evaluate_gar_aligned_leq_nonaligned_under_noise():
    model = PerturbedModel(ViolationConfig(noise_sigma=0.02))
    seqs = _sequences(6, 16, 22, rot_scale=0.1)
    report = evaluate_gar(model, *seqs, [16], 5, DIST, 7)
    entry = report.entries[0]
    assert entry.aligned_mean <= entry.nonaligned_mean
    assert entry.nonaligned_mean > 0.0


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize(
    "cfg",
    [
        ViolationConfig(noise_sigma=0.05),
        ViolationConfig(noise_sigma=0.02, drift_bias=ActionIncrement(0.01, 0, 0.02)),
        ViolationConfig(noise_sigma=0.03, asym_gain=(1.3, 0.8), saturation_scale=0.5),
    ],
)
def test_gar_alignment_never_adds_error(cfg, seed):
    # the aligned variant keeps the raw value when the position fit would
    # inflate the heading term, so this holds for every sequence
    model = PerturbedModel(cfg)
    seqs = _sequences(4, 12, 100 + seed, rot_scale=0.2)
    rng = _rng(seed)
    for start, row in zip(*seqs):
        trajs = np.stack([rollout(model, Pose2(*start), row, int(rng.integers(0, 2**32)))
                          for _ in range(4)])
        assert gar_error(trajs, DIST, aligned=True) <= gar_error(trajs, DIST, aligned=False)


def test_evaluate_gar_is_seeded_and_order_stable():
    model = PerturbedModel(ViolationConfig(noise_sigma=0.05))
    seqs = _sequences(3, 10, 23)
    r1 = evaluate_gar(model, *seqs, [10], 4, DIST, 3)
    r2 = evaluate_gar(model, *seqs, [10], 4, DIST, 3)
    assert r1 == r2


_STARTS, _ACTIONS = np.zeros((2, 3)), np.full((2, 8, 3), 0.1)


def _with_action(value):
    actions = _ACTIONS.copy()
    actions[1, 5, 2] = value
    return actions


# (evaluators, starts, actions, horizons, a substring of the error message)
_BAD_EVALUATION_INPUTS = {
    "no sequences": ("gac gar", _STARTS[:0], _ACTIONS[:0], [4], "no evaluation sequences"),
    "one start row for two streams": ("gac gar", _STARTS[:1], _ACTIONS, [4], "starts must be"),
    "a start vector": ("gac gar", _STARTS[0], _ACTIONS[:1], [4], "starts must be"),
    "one stream as (L, 3)": ("gac gar", _STARTS[:1], _ACTIONS[0], [4], "starts must be"),
    "non-finite action": ("gac gar", _STARTS, _with_action(math.nan), [4], "must be finite"),
    "|dtheta| > pi": ("gac gar", _STARTS, _with_action(-3.2), [4], "|dtheta| must be <= pi"),
    "no horizons": ("gar", _STARTS, _ACTIONS, [], "horizons must not be empty"),
    "repeated horizon": ("gar", _STARTS, _ACTIONS, [4, 8, 4],
                         "horizons must not repeat a horizon, got [4, 8, 4]"),
}


@pytest.mark.parametrize("evaluator,case", [
    (evaluator, case) for case, (evaluators, *_) in _BAD_EVALUATION_INPUTS.items()
    for evaluator in evaluators.split()
])
def test_evaluation_rejects_bad_sequences(evaluator, case):
    _, starts, actions, horizons, needle = _BAD_EVALUATION_INPUTS[case]
    with pytest.raises(ValueError, match=re.escape(needle)):
        if evaluator == "gac":
            evaluate_gac(ExactModel(), starts, actions, ProbeSuiteConfig().probe_grid(), DIST, 0)
        else:
            evaluate_gar(ExactModel(), starts, actions, horizons, 3, DIST, 0)


def test_evaluate_gar_requires_long_enough_sequences():
    seqs = _sequences(2, 8, 24)
    with pytest.raises(ValueError):
        evaluate_gar(ExactModel(), *seqs, [16], 3, DIST, 0)


def test_report_writers(tmp_path):
    seqs = _sequences(3, 12, 25)
    model = PerturbedModel(ViolationConfig(drift_bias=ActionIncrement(0.02, 0, 0)))
    gac = evaluate_gac(model, *seqs, ProbeSuiteConfig().probe_grid(), DIST, 0)
    write_gac_json(tmp_path / "gac.json", gac, "drift")
    write_gac_csv(tmp_path / "gac.csv", gac, "drift")
    write_gac_gnuplot(tmp_path / "gac.dat", gac)
    lines = (tmp_path / "gac.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 9  # header + one row per grid config

    gar = evaluate_gar(PerturbedModel(ViolationConfig(noise_sigma=0.01)), *seqs, [8], 3, DIST, 0)
    write_gar_csv(tmp_path / "gar.csv", gar, "noise")
    rows = (tmp_path / "gar.csv").read_text().strip().splitlines()
    assert len(rows) == 2
