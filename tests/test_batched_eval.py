"""The batched evaluation path against the per-pose path, bit for bit.

Every comparison is exact (``==`` or ``np.array_equal``): the batched
kernels are meant to round every pose the way one-pose-at-a-time
evaluation does, so the metric files stay byte-identical.
"""

import math
import weakref
from dataclasses import asdict

import numpy as np
import pytest

from gawm import metrics, models
from gawm.config import ProbeSuiteConfig
from gawm.harness import parse_model_ref
from gawm.latent import (
    DynamicsNet,
    HeadingUndefinedError,
    LearnedWorldModel,
    make_dynamics_net,
    make_encoder,
)
from gawm.metrics import (
    KIND_COMPOSITION,
    KIND_IDENTITY,
    KIND_INVERSE,
    ProbeConfig,
    _generators,
    align_trajectory,
    evaluate_gac,
    evaluate_gar,
    gar_error,
)
from gawm.models import (
    ExactModel,
    PerturbedModel,
    ViolationConfig,
    fold_steps,
    rollout,
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
from gawm.segments import ActionIncrement, keyed_rng, keyed_rngs

import oracles
from oracles import (
    encode,
    per_pose_rollout,
    per_pose_step,
    random_pose,
    reference_align,
    reference_gac,
    reference_gar,
    reference_gar_error,
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
DETERMINISTIC = ["exact", "drift", "sat", "asym", "learned"]


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
        actions[i] = np.reshape([
            [float(rng.normal(0.08, 0.04)), float(rng.normal(0.0, 0.03)),
             float(turn + rng.normal(0.0, 0.1))]
            for _ in range(length)
        ], (length, 3))
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
        want = pose_array(per_pose_rollout(model, Pose2(*start), row, _rng(100 + b)))
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
    got = step_batch(model, pose_array(poses), np.array([a.as_array() for a in actions]),
                     [_rng(200 + b) for b in range(len(poses))])
    want = pose_array([per_pose_step(model, p, a, _rng(200 + b))
                       for b, (p, a) in enumerate(zip(poses, actions))])
    assert np.array_equal(got, want)
    # the model's own step is one row of step_batch
    own = pose_array([model.step(p, a, _rng(200 + b)) for b, (p, a) in enumerate(zip(poses, actions))])
    assert np.array_equal(own, want)


@pytest.mark.parametrize("name", MODELS)
def test_rollout_is_one_row_of_fold_steps(name):
    model = MODELS[name]()
    starts, actions = _turning_sequences(3, 15)
    for b, (start, row) in enumerate(zip(starts, actions)):
        got = rollout(model, Pose2(*start), row, 40 + b)
        assert got.tobytes() == pose_array(oracles.rollout(model, Pose2(*start), row, 40 + b)).tobytes()
        assert np.array_equal(got,
                              fold_steps(model, starts[b : b + 1], actions[b : b + 1], [_rng(40 + b)])[0])


GRID = ProbeSuiteConfig().probe_grid() + [
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
        return per_pose_step(self.inner, state, action, rng)


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


FOLDED = {**MODELS, "step-only": StepOnly}


@pytest.mark.parametrize("t", [0, 1, 13])
@pytest.mark.parametrize("name", FOLDED)
def test_fold_equals_a_step_batch_loop(name, t):
    model = FOLDED[name]()
    starts, actions = _turning_sequences(4, t)
    rngs = [_rng(300 + b) for b in range(4)]
    got = fold_steps(model, starts, actions, rngs)
    loop_rngs = [_rng(300 + b) for b in range(4)]
    want = [starts]
    for i in range(t):
        want.append(step_batch(model, want[-1], actions[:, i], loop_rngs))
    assert np.array_equal(got, np.stack(want, axis=1))
    assert [rng.bit_generator.state for rng in rngs] == [
        rng.bit_generator.state for rng in loop_rngs]


def _probe_alone(model, starts, actions, cfg, dist, seed, concentration=1.0):
    """One config's walk, through its kind's public ``probe_*`` entry point."""
    if cfg.kind == KIND_IDENTITY:
        return metrics.probe_identity(model, starts, actions, cfg, dist, seed)
    if cfg.kind == KIND_INVERSE:
        return metrics.probe_inverse(model, starts, actions, cfg, dist, seed)
    return metrics.probe_composition(model, starts, actions, cfg, dist, seed, concentration)


def _walk_lengths(cfg, n, stream, shared=False):
    """Action counts of the rollouts ``_walk_probe`` runs for one config, in
    call order: with ``stream``, one per stop after 0 for the stretch that
    reaches it, and after it one per branch at that stop. A ``shared``
    (noiseless) stream folds all its stretches, to the end, before any
    branch, unless the config is an identity config: its stream stops at
    its first pause, and the config folds on from there."""
    positions = metrics.probe_positions(cfg, n)
    branch = {KIND_IDENTITY: [cfg.l], KIND_INVERSE: [2 * cfg.l], KIND_COMPOSITION: [cfg.l] * 2}
    if shared and cfg.kind != KIND_IDENTITY:
        stops = sorted({*positions, n})
        stretches = [b - a for a, b in zip([0, *stops], stops) if b > a]
        return stretches + branch[cfg.kind] * len(positions)
    lengths, t = [], 0
    for stop in sorted({*positions, n}):
        lengths += [stop - t] if stream and stop > 0 else []
        lengths += branch[cfg.kind] * positions.count(stop)
        t = stop
    return lengths


def _recording(monkeypatch, cls, name, lengths):
    inner = getattr(cls, name)

    def record(self, starts, actions, rngs):
        lengths.append(actions.shape[1] if actions.ndim == 3 else None)
        return inner(self, starts, actions, rngs)

    monkeypatch.setattr(cls, name, record)


@pytest.mark.parametrize("name", ["exact", "noise"])
def test_walk_probe_folds_an_increment_stream_once_per_stop(monkeypatch, name):
    lengths = []
    _recording(monkeypatch, models._IncrementModel, "rollout_batch", lengths)
    model = MODELS[name]()
    seqs = _turning_sequences(3, 20)
    for cfg in GRID:
        lengths.clear()
        _probe_alone(model, *seqs, cfg, DIST, 3, 0.5)
        assert lengths == _walk_lengths(cfg, 20, stream=True, shared=name == "exact"), cfg
    assert any(0 in metrics.probe_positions(cfg, 20) for cfg in GRID)


def test_walk_probe_steps_learned_and_third_party_streams(monkeypatch):
    learned_rollouts, learned_steps = [], []
    _recording(monkeypatch, LearnedWorldModel, "rollout_batch", learned_rollouts)
    _recording(monkeypatch, LearnedWorldModel, "step_batch", learned_steps)
    learned, third_party = MODELS["learned"](), Recording(MODELS["exact"]())
    seqs = _turning_sequences(3, 20)
    for cfg in GRID:
        del learned_rollouts[:], learned_steps[:], third_party.calls[:]
        _probe_alone(learned, *seqs, cfg, DIST, 3, 0.5)
        _probe_alone(third_party, *seqs, cfg, DIST, 3, 0.5)
        branches = _walk_lengths(cfg, 20, stream=False)
        assert learned_rollouts == branches, cfg
        assert learned_steps == [None] * 20, cfg
        assert [actions.shape[1] for _, actions, _ in third_party.calls] == branches, cfg


def _float_bytes(value):
    """A report as nested tuples, every float as its IEEE bytes."""
    if isinstance(value, float):
        return np.float64(value).tobytes()
    if isinstance(value, (tuple, list)):
        return tuple(_float_bytes(v) for v in value)
    if isinstance(value, dict):
        return tuple((k, _float_bytes(v)) for k, v in value.items())
    return value


def _per_config_gac(model, starts, actions, grid, *args):
    ordered = sorted(grid, key=lambda c: (metrics._KIND_CODE[c.kind], c.k, c.l))
    return metrics.aggregate_gac([_probe_alone(model, starts, actions, cfg, *args)
                                  for cfg in ordered])


@pytest.mark.parametrize("shape", [(20, 32), (100, 64)], ids=["benchmark", "score-zoo"])
@pytest.mark.parametrize("name", DETERMINISTIC)
def test_shared_probe_walk_equals_one_walk_per_config(name, shape):
    model = MODELS[name]()
    seqs = _turning_sequences(*shape)
    args = (DIST, 5, 0.3)
    got = evaluate_gac(model, *seqs, GRID, *args)
    assert _float_bytes(asdict(got)) == _float_bytes(asdict(_per_config_gac(model, *seqs, GRID, *args)))


def _streams_walked(monkeypatch, model, seqs, grid):
    """The report of ``evaluate_gac`` and how many whole streams it folded."""
    folded = []

    def counting(model, starts, actions, rngs):
        folded.append(actions.shape[1])
        return fold_steps(model, starts, actions, rngs)

    monkeypatch.setattr(metrics, "fold_steps", counting)
    report = evaluate_gac(model, *seqs, grid, DIST, 3, 0.5)
    return report, sum(folded) / seqs[1].shape[1]


@pytest.mark.parametrize("name, streams", [("learned", 2.5), ("noise", 9), ("step-only", 9)])
def test_noiseless_models_walk_one_stream_with_identity_forks(monkeypatch, name, streams):
    # the default grid: 3 identity, 3 inverse and 3 composition configs; a
    # noiseless model folds the base stream once and forks each identity
    # config off it at its pause, halfway: 24 + 3 * 12 steps of 24
    model = FOLDED[name]()
    grid = ProbeSuiteConfig().probe_grid()
    seqs = _turning_sequences(4, 24)
    report, walked = _streams_walked(monkeypatch, model, seqs, grid)
    assert walked == streams
    want = _per_config_gac(model, *seqs, grid, DIST, 3, 0.5)
    assert _float_bytes(asdict(report)) == _float_bytes(asdict(want))


class NoiselessStepOnly:
    """A third-party model that draws no noise and has only ``step``."""

    deterministic = True

    def __init__(self):
        self.inner = MODELS["drift"]()

    def step(self, state, action, rng):
        assert rng is None
        return per_pose_step(self.inner, state, action, rng)


ONE_WALK = {**{name: MODELS[name] for name in DETERMINISTIC}, "step-only": NoiselessStepOnly}

# on 12-action streams; identity k=12 pauses before every action, the first at 0
WALK_GRIDS = {
    "identity-k123": [ProbeConfig(KIND_IDENTITY, k=1, l=2), ProbeConfig(KIND_IDENTITY, k=2, l=1),
                      ProbeConfig(KIND_IDENTITY, k=3, l=3), ProbeConfig(KIND_INVERSE, k=2, l=3),
                      ProbeConfig(KIND_COMPOSITION, l=4)],
    "pause-at-0": [ProbeConfig(KIND_IDENTITY, k=12, l=1), ProbeConfig(KIND_IDENTITY, k=1, l=2),
                   ProbeConfig(KIND_INVERSE, k=3, l=1), ProbeConfig(KIND_COMPOSITION, l=2)],
    "identity-only": [ProbeConfig(KIND_IDENTITY, k=k, l=l) for k, l in [(1, 1), (2, 1), (3, 2)]],
}


@pytest.mark.parametrize("grid", WALK_GRIDS)
@pytest.mark.parametrize("name", ONE_WALK)
def test_one_walk_equals_one_walk_per_config(name, grid):
    model, cfgs = ONE_WALK[name](), WALK_GRIDS[grid]
    seqs = _turning_sequences(5, 12)
    got = metrics._walk_probe(model, *seqs, cfgs, DIST, 7, 0.4)
    want = [_probe_alone(model, *seqs, cfg, DIST, 7, 0.4) for cfg in cfgs]
    assert _float_bytes([asdict(r) for r in got]) == _float_bytes([asdict(r) for r in want])
    full = cfgs + [ProbeConfig(KIND_INVERSE), ProbeConfig(KIND_COMPOSITION)]
    report = evaluate_gac(model, *seqs, full, DIST, 7, 0.4)
    assert _float_bytes(asdict(report)) == _float_bytes(asdict(_per_config_gac(model, *seqs, full,
                                                                                DIST, 7, 0.4)))


@pytest.mark.parametrize("name", ONE_WALK)
def test_a_stream_no_config_reads_is_not_folded(monkeypatch, name):
    # identity k=3 pauses at 6, 12, 18, k=2 at 8, 16 and k=1 at 12 of 24:
    # k=3 forks at 6 and k=2 at 8 while k=1 still reads the base stream,
    # which then carries k=1 on alone, so 24 + 18 + 16 steps of 5 rows
    # are folded, each fork in calls of its own 5 rows
    calls = []

    def counting(model, starts, actions, rngs):
        calls.append(actions.shape[:2])
        return fold_steps(model, starts, actions, rngs)

    monkeypatch.setattr(metrics, "fold_steps", counting)
    model, cfgs = ONE_WALK[name](), WALK_GRIDS["identity-only"]
    seqs = _turning_sequences(5, 24)
    got = metrics._walk_probe(model, *seqs, cfgs, DIST, 7)
    assert {rows for rows, _ in calls} == {5}
    assert sum(rows * steps for rows, steps in calls) == 5 * (24 + 18 + 16)
    calls.clear()
    want = [_probe_alone(model, *seqs, cfg, DIST, 7) for cfg in cfgs]
    assert sum(rows * steps for rows, steps in calls) == 3 * 5 * 24
    assert _float_bytes([asdict(r) for r in got]) == _float_bytes([asdict(r) for r in want])


NOISY_WALK = {"noise": lambda: parse_model_ref("noise:0.02")[0],
              "learned-obs-noise": MODELS["learned-obs-noise"], "step-only": StepOnly}


@pytest.mark.parametrize("grid", WALK_GRIDS)
@pytest.mark.parametrize("name", NOISY_WALK)
def test_a_noisy_grid_walk_equals_its_one_config_walks(name, grid):
    # every config walks its own stream, drawing its own noise, in one walk
    model, cfgs = NOISY_WALK[name](), WALK_GRIDS[grid]
    seqs = _turning_sequences(5, 12)
    got = metrics._walk_probe(model, *seqs, cfgs, DIST, 7, 0.4)
    want = [_probe_alone(model, *seqs, cfg, DIST, 7, 0.4) for cfg in cfgs]
    assert _float_bytes([asdict(r) for r in got]) == _float_bytes([asdict(r) for r in want])
    full = cfgs + [ProbeConfig(KIND_INVERSE), ProbeConfig(KIND_COMPOSITION)]
    report = evaluate_gac(model, *seqs, full, DIST, 7, 0.4)
    assert _float_bytes(asdict(report)) == _float_bytes(asdict(reference_gac(model, *seqs, full,
                                                                               DIST, 7, 0.4)))


def test_a_noisy_walk_holds_a_streams_generators_only_while_a_config_reads_it(monkeypatch):
    # on 12 actions the inverse config's one window starts at 2 and the
    # identity config pauses at 6: the inverse stream folds to the end and
    # is dropped before the identity stream first folds and builds its own
    class Tracked(list):
        pass

    streams, live_at_fold = [], []

    def generators(model, seed, keys):
        rngs = Tracked(_generators(model, seed, keys))
        if keys[0][-1] == 0:  # a stream's, not a branch's
            streams.append(weakref.ref(rngs))
        return rngs

    def counting(model, starts, actions, rngs):
        live_at_fold.append(sum(ref() is not None for ref in streams))
        return fold_steps(model, starts, actions, rngs)

    monkeypatch.setattr(metrics, "_generators", generators)
    monkeypatch.setattr(metrics, "fold_steps", counting)
    model = NOISY_WALK["noise"]()
    cfgs = [ProbeConfig(KIND_INVERSE, k=1, l=8), ProbeConfig(KIND_IDENTITY, k=1, l=1)]
    seqs = _turning_sequences(5, 12)
    got = metrics._walk_probe(model, *seqs, cfgs, DIST, 7)
    assert live_at_fold == [1, 1, 1, 1]  # inverse to 2 and 12, then identity to 6 and 12
    assert len(streams) == 2 and all(ref() is None for ref in streams)
    want = [_probe_alone(model, *seqs, cfg, DIST, 7) for cfg in cfgs]
    assert _float_bytes([asdict(r) for r in got]) == _float_bytes([asdict(r) for r in want])


NOISY_KERNELS = {"noise": (NOISY_WALK["noise"], "action noise"),
                 "learned-obs-noise": (MODELS["learned-obs-noise"], "observation noise")}
# each kernel of model m on starts s, actions a and generators r, directly
# and through the module-level dispatchers
KERNEL_CALLS = {
    "step_batch": lambda m, s, a, r: m.step_batch(s, a[:, 0], r),
    "rollout_batch": lambda m, s, a, r: m.rollout_batch(s, a, r),
    "models.step_batch": lambda m, s, a, r: step_batch(m, s, a[:, 0], r),
    "models.rollout_batch": lambda m, s, a, r: rollout_batch(m, s, a, r),
    "models.fold_steps": lambda m, s, a, r: fold_steps(m, s, a, r),
    "step": lambda m, s, a, r: m.step(Pose2(*s[1]), ActionIncrement(*a[1, 0]), r[1]),
}


@pytest.mark.parametrize("call", KERNEL_CALLS)
@pytest.mark.parametrize("name", NOISY_KERNELS)
def test_a_noisy_kernel_raises_the_named_error_for_a_missing_generator(name, call):
    make, noise = NOISY_KERNELS[name]
    starts, actions = _turning_sequences(2, 4)
    with pytest.raises(ValueError, match=f"^{noise} requires a random generator$"):
        KERNEL_CALLS[call](make(), starts, actions, [_rng(0), None])  # the second row has none


@pytest.mark.parametrize("drift", [1e307, 4e306], ids=["before-the-stop", "after-the-stop"])
def test_stream_overflow_inside_a_folded_stretch_raises(drift):
    # straight streams of 64 actions whose x grows by the drift every step:
    # it overflows at step 18 or 45, inside the stretch before or after the
    # identity stop at 32
    model = PerturbedModel(ViolationConfig(drift_bias=ActionIncrement(drift, 0.0, 0.0)))
    starts, actions = np.zeros((3, 3)), np.tile([0.05, 0.0, 0.0], (3, 64, 1))
    grid = [ProbeConfig(KIND_IDENTITY, k=1, l=1)]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="finite"):
            evaluate_gac(model, starts, actions, grid, DIST, 0)
        with pytest.raises(ValueError, match="finite"):
            reference_gac(model, starts, actions, grid, DIST, 0)
    with pytest.raises(RuntimeWarning, match="overflow"):
        evaluate_gac(model, starts, actions, grid, DIST, 0)


# on 12 straight actions identity k=1 pauses at 6, and the inverse and
# composition windows of length 2 start at 5: every probe stop and branch
# lies before the last two actions, whose dx of 1e308 are valid increments
# that overflow x only on the way to the stream end
LATE_GRID = [ProbeConfig(KIND_IDENTITY, k=1, l=1), ProbeConfig(KIND_INVERSE, k=1, l=2),
             ProbeConfig(KIND_COMPOSITION, l=2)]
LATE_OVERFLOW = {"shared-stream": ("exact", LATE_GRID),
                 "stream-per-config": ("noise:0.02", LATE_GRID),
                 "identity-fold-after-its-pause": ("exact", LATE_GRID[:1])}


@pytest.mark.parametrize("case", LATE_OVERFLOW)
def test_a_stream_that_overflows_after_the_last_probe_stop_raises(case):
    ref, grid = LATE_OVERFLOW[case]
    model = parse_model_ref(ref)[0]
    starts, actions = np.zeros((3, 3)), np.tile([0.1, 0.0, 0.0], (3, 12, 1))
    actions[:, -2:, 0] = 1e308
    assert max(p + cfg.l for cfg in grid for p in metrics.probe_positions(cfg, 12)) <= 10
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="^Pose2 components must be finite"):
            evaluate_gac(model, starts, actions, grid, DIST, 0)
        for cfg in grid:
            with pytest.raises(ValueError, match="^Pose2 components must be finite"):
                _probe_alone(model, starts, actions, cfg, DIST, 0)


@pytest.mark.parametrize("rows", [1, 5, 20, 27])
@pytest.mark.parametrize("name", ["noise", "combined", "learned-obs-noise"])
def test_gar_batch_size_does_not_change_the_report(monkeypatch, name, rows):
    # 5 sequences of 9 rollouts: one sequence per batch (rows 1, and 5,
    # below the 9 rollouts), batches of 2, 2, 1 (20) and of 3, 2 (27)
    monkeypatch.setattr(metrics, "GAR_BATCH_ROWS", rows)
    model = MODELS[name]()
    seqs = _turning_sequences()
    args = ([6, 20], 9, DIST, 9)
    assert evaluate_gar(model, *seqs, *args) == reference_gar(model, *seqs, *args)


@pytest.mark.parametrize("r", range(2, 9))
def test_prefix_mean_dispersion_equals_per_horizon_and_oracle(r):
    # rollouts of streams that cross the heading cut, with noise, so that
    # pair heading differences wrap; the pair distances are taken once
    t_max = 20
    starts, actions = _turning_sequences(3, t_max)
    rngs = keyed_rngs(9, [(3, s, i) for s in range(3) for i in range(r)])
    full = rollout_batch(MODELS["noise"](), np.repeat(starts, r, axis=0),
                         np.repeat(actions, r, axis=0), rngs).reshape(3, r, t_max + 1, 3)
    per_step = metrics._pair_distances(full, DIST)
    assert per_step.shape == (3, r * (r - 1) // 2, t_max)
    for h in range(1, t_max + 1):
        poses = full[:, :, : h + 1]
        got = metrics._mean_pair_distance(per_step[..., :h], r)
        raw = metrics._mean_pair_distance(metrics._pair_distances(poses.copy(), DIST), r)
        assert got.tobytes() == raw.tobytes()
        assert got.tolist() == [
            reference_gar_error([[Pose2(*row) for row in traj] for traj in rollouts.tolist()],
                                DIST.alpha_rot, aligned=False)
            for rollouts in poses]
        assert got.tolist() == [gar_error(rollouts, DIST, aligned=False) for rollouts in poses]


class Recording:
    """A model that records the rows and generator states of every
    ``rollout_batch`` call before passing it on (``None`` for a row
    passed no generator)."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def step(self, state, action, rng):
        return self.inner.step(state, action, rng)

    def rollout_batch(self, starts, actions, rngs):
        self.calls.append((starts.copy(), actions.copy(),
                           [None if rng is None else rng.bit_generator.state for rng in rngs]))
        return rollout_batch(self.inner, starts, actions, rngs)


@pytest.mark.parametrize("rows, n_rollouts", [(1, 3), (2, 3), (7, 3), (32, 3), (32, 9), (32, 40)])
def test_gar_batches_hold_whole_sequences_in_order(monkeypatch, rows, n_rollouts):
    monkeypatch.setattr(metrics, "GAR_BATCH_ROWS", rows)
    model = Recording(MODELS["noise"]())
    starts, actions = _turning_sequences(7, 16)
    report = evaluate_gar(model, starts, actions, [4, 12], n_rollouts, DIST, 5)
    sizes = [len(rows_starts) for rows_starts, _, _ in model.calls]
    per_batch = max(1, rows // n_rollouts)
    assert sizes == [per_batch * n_rollouts] * (len(sizes) - 1) + [sizes[-1]]
    assert all(size % n_rollouts == 0 and (size <= rows or size == n_rollouts) for size in sizes)
    assert np.array_equal(np.concatenate([c[0] for c in model.calls]),
                          np.repeat(starts, n_rollouts, axis=0))
    assert np.array_equal(np.concatenate([c[1] for c in model.calls]),
                          np.repeat(actions[:, :12], n_rollouts, axis=0))
    assert [state for c in model.calls for state in c[2]] == [
        keyed_rng(5, 3, s, i).bit_generator.state for s in range(7) for i in range(n_rollouts)]
    assert report == evaluate_gar(model.inner, starts, actions, [4, 12], n_rollouts, DIST, 5)


class Hidden:
    """The inner model behind the array protocol, without its
    ``deterministic`` attribute, so evaluation takes the full path."""

    def __init__(self, inner):
        self.inner = inner

    def step(self, state, action, rng):
        return self.inner.step(state, action, rng)

    def step_batch(self, states, actions, rngs):
        return step_batch(self.inner, states, actions, rngs)

    def rollout_batch(self, starts, actions, rngs):
        return rollout_batch(self.inner, starts, actions, rngs)


class DeterministicRecording(Recording):
    deterministic = True


def test_deterministic_models_are_the_noiseless_ones():
    assert [name for name in MODELS if models.is_deterministic(MODELS[name]())] == DETERMINISTIC
    assert not any(models.is_deterministic(Hidden(MODELS[name]())) for name in MODELS)


@pytest.mark.parametrize("name", DETERMINISTIC)
def test_deterministic_gar_rolls_each_sequence_once(name):
    # the score-zoo shape: 100 sequences of 64 actions, 8 rollouts
    model = MODELS[name]()
    starts, actions = _turning_sequences(100, 64)
    args = ([16, 64], 8, DIST, 12)
    report = evaluate_gar(model, starts, actions, *args)
    assert report == evaluate_gar(Hidden(model), starts, actions, *args)
    assert all(v == 0.0 for e in report.entries
               for v in (e.aligned_mean, e.aligned_std, e.nonaligned_mean, e.nonaligned_std))
    recording = DeterministicRecording(model)
    assert evaluate_gar(recording, starts, actions, *args) == report
    assert [len(c[0]) for c in recording.calls] == [32, 32, 32, 4]
    assert np.array_equal(np.concatenate([c[0] for c in recording.calls]), starts)
    assert np.array_equal(np.concatenate([c[1] for c in recording.calls]), actions)


def test_deterministic_gar_keeps_its_checks():
    model = DeterministicRecording(MODELS["exact"]())
    starts, actions = _turning_sequences(3, 12)
    with pytest.raises(ValueError, match="n_rollouts must be >= 2"):
        evaluate_gar(model, starts, actions, [4], 1, DIST, 0)
    for horizons, message in [([], "must not be empty"), ([4, 4], "must not repeat"),
                              ([0, 4], "at least one step"), ([13], "need >= 13")]:
        with pytest.raises(ValueError, match=message):
            evaluate_gar(model, starts, actions, horizons, 3, DIST, 0)
    assert model.calls == []
    # x grows by 1e308 every step and overflows at the second
    overflow = PerturbedModel(ViolationConfig(drift_bias=ActionIncrement(1e308, 0.0, 0.0)))
    assert models.is_deterministic(overflow)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="finite"):
            evaluate_gar(overflow, starts, actions, [4], 3, DIST, 0)
    with pytest.raises(RuntimeWarning, match="overflow"):
        evaluate_gar(overflow, starts, actions, [4], 3, DIST, 0)


def test_deterministic_gar_no_longer_aligns_positions_that_overflow():
    # positions reach 1.6e155: the full path's alignment squares them and
    # overflows; a deterministic model's identical rollouts need no alignment
    model = PerturbedModel(ViolationConfig(drift_bias=ActionIncrement(1e154, 0.0, 0.0)))
    starts, actions = np.zeros((3, 3)), np.tile([0.05, 0.0, 0.0], (3, 16, 1))
    with pytest.raises(RuntimeWarning, match="overflow"):
        evaluate_gar(Hidden(model), starts, actions, [16], 3, DIST, 0)
    report = evaluate_gar(model, starts, actions, [16], 3, DIST, 0)
    assert report.entries[0].aligned_mean == report.entries[0].nonaligned_mean == 0.0


def test_generators_are_keyed_per_row_or_none_for_a_deterministic_model():
    keys = [(3, s, i) for s in range(2) for i in range(3)]
    built = _generators(MODELS["noise"](), 4, keys)
    assert [rng.bit_generator.state for rng in built] == [
        keyed_rng(4, *key).bit_generator.state for key in keys]
    assert _generators(Hidden(MODELS["exact"]()), 4, keys)[5].bit_generator.state == \
        built[5].bit_generator.state
    for name in DETERMINISTIC:
        assert _generators(MODELS[name](), 4, keys) == [None] * 6


@pytest.mark.parametrize("name", DETERMINISTIC)
def test_a_deterministic_model_is_passed_no_generators(name):
    model = DeterministicRecording(MODELS[name]())
    starts, actions = _turning_sequences(3, 20)
    report = evaluate_gac(model, starts, actions, GRID, DIST, 3, 0.5)
    assert report == evaluate_gac(MODELS[name](), starts, actions, GRID, DIST, 3, 0.5)
    evaluate_gar(model, starts, actions, [4, 12], 3, DIST, 5)
    assert model.calls and all(states == [None] * len(starts) for *_, states in model.calls)


def test_align_trajectory_with_one_reference_per_row_equals_separate_calls():
    rng = _rng(8)
    refs = np.stack([pose_array([random_pose(rng) for _ in range(19)]) for _ in range(3)])
    poses = np.stack([np.stack([pose_array([random_pose(rng) for _ in range(19)]) for _ in range(4)])
                      for _ in range(3)])
    stacked = align_trajectory(poses, refs)
    assert stacked.shape == poses.shape
    for s in range(3):
        assert np.array_equal(stacked[s], align_trajectory(poses[s], refs[s]))
        for k in range(4):
            assert np.array_equal(stacked[s, k], align_trajectory(poses[s, k], refs[s]))
    assert np.array_equal(align_trajectory(poses[:, 0], refs), stacked[:, 0])
    with pytest.raises(ValueError, match="do not stack over references"):
        align_trajectory(poses[:2], refs)


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
            per_pose_rollout(learned, start, np.tile([0.1, 0.0, 0.0], (3, 1)), None)
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
