import math
import pickle
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gawm import autograd as ag
from gawm.config import benchmark_config
from gawm.data import ActionDistribution, Dataset, generate_records
from gawm.harness import sweep_points
from gawm.latent import (
    DynamicsNet, block_weights, make_dynamics_net, make_encoder, pose_features,
)
from gawm.models import ExactModel
from gawm.se2 import Pose2, pose_array
from gawm.segments import ActionIncrement, DirichletParams
from gawm import training
from gawm.training import (
    AdamOptimizer,
    CONSTRAINT_COMP,
    CONSTRAINT_ID,
    CONSTRAINT_INV,
    CONSTRAINTS,
    FREE_RUNNING,
    GALossConfig,
    NonFiniteLossError,
    ParamStack,
    SgdOptimizer,
    TEACHER_FORCED,
    TrainRunConfig,
    TrainStreams,
    ga_loss_graph,
    make_optimizer,
    prediction_loss,
    prediction_loss_graph,
    train_group,
    train_step,
)

import oracles
from oracles import (
    Batch, batch_columns, central_difference, encode, exact_step, increments, rollout,
    sample_batch, train,
)


def _rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def _one_row(net, cfg):
    """A one-row stack over ``net``'s own parameters, so updates move ``net``."""
    return ParamStack(net, net.params[None], [cfg])


class _InlineStack(ParamStack):
    """A ``ParamStack`` that marks no mode loss-only, so ``train_step``
    rolls every mode out at its own step."""

    def __init__(self, *args):
        super().__init__(*args)
        self.loss_only = dict.fromkeys(self.loss_only, False)


def _one_step_chunk(modes, columns, z_t, base, cfg, active, dirichlet_rng, start_pose, encoder):
    """A one-step ``Chunk`` of the given inputs, each mode's chains as the
    per-step reference builds them."""
    segments = oracles.constraint_segments(base, cfg, active, dirichlet_rng)
    plans = {mode: oracles.rollout_plans(segments, mode, z_t, start_pose, encoder)
             for mode in modes}
    return oracles.pack_chunk([oracles.StepInputs(CONSTRAINTS.index(active), columns, z_t, plans)])


def _step(chunk, k):
    """Step k of a ``Chunk`` as the per-step reference's ``StepInputs``,
    every array a view into the chunk."""
    plans = {}
    for mode, chains in chunk.chains.items():
        rows = range(chains.first[k], chains.first[k] + 1 + chains.paired[k])
        plans[mode] = [(chains.z[i], chains.actions[i, : chains.lengths[i]]) for i in rows]
    columns = (chunk.latents[k, 0], chunk.actions[k], chunk.latents[k, 1])
    return oracles.StepInputs(int(chunk.active[k]), columns, chunk.z_t[k], plans)


def _chunked_steps(dataset, encoder, cfg, modes, batch_size, steps, streams):
    """Every training step's inputs, built ``INPUT_CHUNK_STEPS`` steps at a
    time as training builds them (``training._chunk_inputs``)."""
    for done in range(0, steps, training.INPUT_CHUNK_STEPS):
        chunk = training._chunk_inputs(dataset, encoder, cfg, modes, batch_size,
                                       min(training.INPUT_CHUNK_STEPS, steps - done), streams, done)
        yield from (_step(chunk, k) for k in range(len(chunk.active)))


def _objective_grad(net, columns, z_t, base, cfg, active, dirichlet_rng, start_pose=None,
                    encoder=None):
    """(l_pred, l_ga, gradient) of one finite net through the training objective."""
    stack = _one_row(net, cfg)
    chunk = _one_step_chunk(stack.mode_rows, columns, z_t, base, cfg, active, dirichlet_rng,
                            start_pose, encoder)
    losses, ok = training._stack_objective(stack, chunk, 0)
    assert ok[0]
    return float(losses[0, 0]), float(losses[1, 0]), stack.grad[0]


@pytest.fixture(scope="module")
def dataset():
    return generate_records(ExactModel(), 20, 16, ActionDistribution(), seed=100)


@pytest.fixture(scope="module")
def encoder():
    return make_encoder(8, 200)


def test_prediction_loss_zero_net_nonzero_actions(dataset, encoder):
    net = DynamicsNet(8, 4)
    poses, actions = dataset.poses[0], dataset.actions[0]
    assert prediction_loss(net, encoder, poses[:8], actions[:8], poses[1:9]) > 0.0


def test_prediction_loss_zero_for_stationary_pairs(encoder):
    net = DynamicsNet(8, 4)
    p = np.tile([0.3, 1.0, -2.0], (3, 1))
    assert prediction_loss(net, encoder, p, np.zeros((3, 3)), p) == 0.0


def test_prediction_loss_single_item_is_plain_discrepancy(dataset, encoder):
    net = make_dynamics_net(8, 4, 7)
    s, s2 = Pose2(*dataset.poses[1, 3]), Pose2(*dataset.poses[1, 4])
    a = ActionIncrement(*dataset.actions[1, 3])
    from gawm.latent import net_step

    expected = float(np.sum((net_step(encode(s, encoder), a, net) - encode(s2, encoder)) ** 2))
    got = prediction_loss(net, encoder, dataset.poses[1, 3:4], dataset.actions[1, 3:4],
                          dataset.poses[1, 4:5])
    assert got == pytest.approx(expected, rel=1e-12)


def test_prediction_loss_rejects_empty(encoder):
    with pytest.raises(ValueError):
        prediction_loss(DynamicsNet(8, 4), encoder, *[np.zeros((0, 3))] * 3)


def _ga_value(net, z_t, seg, cfg, active, rng):
    loss = ga_loss_graph(net.param_tensors(), z_t, seg, cfg, active, dirichlet_rng=rng)
    assert loss.value.shape == ()
    return float(loss.value)


def test_ga_losses_zero_net_all_constraints(encoder):
    net = DynamicsNet(8, 4)
    z_t = _rng(1).normal(size=8)
    seg = np.array([[0.1, 0, 0.05], [0.2, -0.1, 0]])
    cfg = GALossConfig(max_span=4)
    for c in CONSTRAINTS:
        assert _ga_value(net, z_t, seg, cfg, c, _rng(2)) == 0.0


def test_ga_losses_comp_length_one_is_exactly_zero(encoder):
    net = make_dynamics_net(8, 16, 3)
    z_t = _rng(4).normal(size=8)
    seg = np.array([[0.3, -0.2, 0.1]])
    assert _ga_value(net, z_t, seg, GALossConfig(), CONSTRAINT_COMP, _rng(5)) == 0.0


def test_ga_losses_id_matches_hand_unrolled_oracle():
    # tiny net, identity constraint over two steps: unroll by hand
    rng = _rng(6)
    d, h = 2, 3
    net = make_dynamics_net(d, h, 7)
    w1, b1, w2, b2 = net.weights()
    z_t = rng.normal(size=d)
    zero = np.zeros(3)

    z = z_t.copy()
    for _ in range(2):
        z = z + w2 @ np.tanh(w1 @ np.concatenate([z, zero]) + b1) + b2
    expected = float(np.sum((z - z_t) ** 2))

    seg = np.array([[0.5, 0, 0], [0, 0.5, 0]])
    value = _ga_value(net, z_t, seg, GALossConfig(), CONSTRAINT_ID, _rng(8))
    assert value == pytest.approx(expected, rel=1e-12)


def test_ga_losses_reports_inactive_as_none(dataset, encoder):
    net = make_dynamics_net(8, 8, 33)
    run = TrainRunConfig(steps=1, batch_size=4, learning_rate=0.0)
    stack = _one_row(net, GALossConfig())
    optimizer = make_optimizer(run, stack.params.shape)
    streams = TrainStreams.from_seed(34)
    seen = set()
    chunk = training._chunk_inputs(dataset, encoder, GALossConfig(), [FREE_RUNNING], 4, 12, streams)
    for k in range(12):
        losses, ok = train_step(stack, chunk, k, optimizer)
        seen.add(CONSTRAINTS[chunk.active[k]])
        assert ok[0] and losses[0, 0] > 0.0 and losses[1, 0] >= 0.0
    assert seen == set(CONSTRAINTS)


def test_ga_losses_rejects_overlong_segment():
    net = DynamicsNet(4, 2)
    seg = np.array([[0.1, 0, 0]] * 5)
    for c in CONSTRAINTS:
        with pytest.raises(ValueError):
            _ga_value(net, np.zeros(4), seg, GALossConfig(max_span=4), c, _rng(0))


def test_ga_loss_gradient_matches_finite_difference():
    net = make_dynamics_net(4, 6, 10)
    z_t = _rng(11).normal(size=4)
    seg = np.array([[0.2, -0.1, 0.1], [0.1, 0.1, -0.2]])
    cfg = GALossConfig()

    for c in CONSTRAINTS:
        def loss_at(params, c=c):
            probe = DynamicsNet(4, 6, params)
            g = ga_loss_graph(probe.param_tensors(), z_t, seg, cfg, c, dirichlet_rng=_rng(12))
            return float(g.value)

        weights = net.param_tensors()
        loss = ga_loss_graph(weights, z_t, seg, cfg, c, dirichlet_rng=_rng(12))
        ag.backward(loss)
        grad = net.pack_grads(weights)
        coords = _rng(13).choice(net.params.size, size=25, replace=False)
        for i in coords:
            fd = central_difference(loss_at, net.params, int(i))
            assert abs(fd - grad[i]) <= 1e-4 * max(1.0, abs(fd)), f"constraint {c}, coord {i}"


def test_detached_anchor_blocks_upstream_gradient():
    # parameters that only influence the anchor latent receive zero gradient
    from gawm.latent import rollout_endpoint_graph

    seg = np.array([[0.1, 0, 0]] * 2)
    net = make_dynamics_net(4, 6, 16)
    for detach in (False, True):
        upstream = make_dynamics_net(4, 6, 14).param_tensors()
        z_raw = ag.residual_mlp(ag.constant(_rng(15).normal(size=4)), np.ones(3), upstream)
        anchor = z_raw.detach() if detach else z_raw
        weights = net.param_tensors()
        end = rollout_endpoint_graph(anchor, seg, weights)
        ag.backward(ag.sumsq(ag.sub(end, ag.constant(np.zeros(4)))))
        assert np.any(net.pack_grads(weights) != 0.0)
        if detach:
            assert all(u.grad is None for u in upstream)
        else:  # control: without the marker the upstream weights do get gradient
            assert all(np.any(u.grad != 0.0) for u in upstream)


def test_free_running_and_teacher_forced_differ_on_inverse(encoder):
    net = make_dynamics_net(8, 16, 17)
    start = np.array([0.3, 0.5, -0.2])
    z_t = encoder.projection @ pose_features(start)
    seg = np.array([[0.2, 0.05, 0.1], [0.15, -0.05, -0.1]])

    grads = {}
    for mode in (FREE_RUNNING, TEACHER_FORCED):
        cfg = GALossConfig(mode=mode)
        weights = net.param_tensors()
        loss = ga_loss_graph(
            weights, z_t, seg, cfg, CONSTRAINT_INV, dirichlet_rng=_rng(18),
            start_pose=start, encoder=encoder,
        )
        ag.backward(loss)
        grads[mode] = net.pack_grads(weights)
    assert not np.allclose(grads[FREE_RUNNING], grads[TEACHER_FORCED])


def test_teacher_forced_loss_matches_exact_state_oracle(encoder):
    # every step after the first starts from the noiseless encoding of the
    # exact simulator's state, so the endpoint is the last step from there
    from gawm.latent import net_step
    from gawm.segments import make_inverse_segment

    net = make_dynamics_net(8, 16, 19)
    start = np.array([0.4, -0.3, 0.8])
    z_t = encoder.projection @ pose_features(start)
    base = np.array([[0.2, 0.05, 0.3], [0.15, -0.05, -0.2]])
    cycle = make_inverse_segment(base)
    state = Pose2(*start)
    *prefix, last = increments(cycle)
    for a in prefix:
        state = exact_step(state, a)
    end = net_step(encoder.projection @ pose_features(pose_array([state])[0]), last, net)
    expected = float(np.sum((end - z_t) ** 2))

    cfg = GALossConfig(mode=TEACHER_FORCED)
    context = dict(dirichlet_rng=_rng(20), start_pose=start, encoder=encoder)
    graph = ga_loss_graph(net.param_tensors(), z_t, base, cfg, CONSTRAINT_INV, **context)
    assert float(graph.value) == pytest.approx(expected, rel=1e-12)
    columns = (z_t[:, None], np.zeros((3, 1)), z_t[:, None])
    _, l_ga, _ = _objective_grad(net, columns, z_t, base, cfg, CONSTRAINT_INV, **context)
    assert l_ga == pytest.approx(expected, rel=1e-12)


def _teacher_forced_block(groups, z_t, starts, encoder):
    """The teacher-forced ``ChunkChains`` of (steps, segment stacks)
    groups, from the steps' (n, d) anchor latents and (n, 3) start poses,
    as a chunk builds it."""
    free, step = training._chunk_chains(groups, z_t)
    return training._teacher_forced(free, starts[step], encoder)


def _random_segments(rng, m, length):
    """(m, length, 3) increments whose turns span (-pi, pi)."""
    return np.stack([np.column_stack([rng.normal(0.1, 0.05, length),
                                      rng.normal(0.0, 0.03, length),
                                      rng.uniform(-math.pi, math.pi, length)])
                     for _ in range(m)])


@pytest.mark.parametrize("length", range(2, 9))
def test_teacher_forced_prefix_equals_the_per_pose_exact_rollout(encoder, length):
    # the prefixes of a stack of segments fold through the exact array
    # kernel; each state must be the per-pose rollout's bit for bit,
    # including every heading wrap
    rng = _rng(70 + length)
    thetas = (math.pi, np.nextafter(-math.pi, 0.0), math.pi - 1e-12, -math.pi + 1e-12, 0.3)
    segs = _random_segments(rng, len(thetas), length)
    segs[:, ::2, 2] = -math.pi  # increment_pose wraps it to +pi
    starts = np.column_stack([thetas, rng.normal(0.0, 1.0, (len(thetas), 2))])
    z_t = rng.normal(size=(len(thetas), 8))
    forced = _teacher_forced_block([(np.arange(len(thetas)), [segs])], z_t, starts, encoder)
    assert forced.lengths.tolist() == [1] * len(thetas)
    assert forced.actions.tobytes() == segs[:, -1:].tobytes()
    for k, (start, seg) in enumerate(zip(starts, segs)):
        state = rollout(ExactModel(), Pose2(*start), seg[:-1], None)[-1]
        want = encoder.projection @ pose_features(pose_array([state])[0])
        assert forced.z[forced.first[k]].tobytes() == want.tobytes(), start[0]
        [(plan_in, plan_last)] = oracles.rollout_plans([seg], TEACHER_FORCED, None, start,
                                                        encoder)
        assert plan_in.tobytes() == want.tobytes() and plan_last.tobytes() == seg[-1:].tobytes()


def test_teacher_forced_stacks_of_every_length_fold_in_one_call(encoder):
    # groups of chains 1 to 8 actions long, a pair of stacks at even
    # lengths, map as one block padded to the longest; each step's chains
    # equal those of its group mapped alone, bit for bit, and a one-action
    # chain keeps its anchor input
    rng = _rng(90)
    groups = [(rows, [_random_segments(rng, 3, l) for _ in range(1 + (l % 2 == 0))])
              for l, rows in zip(range(1, 9), np.split(rng.permutation(24), 8))]
    z_t = rng.normal(size=(24, 8))
    starts = np.column_stack([rng.uniform(-math.pi, math.pi, 24), rng.normal(0.0, 1.0, (24, 2))])
    together = _teacher_forced_block(groups, z_t, starts, encoder)
    assert together.lengths.tolist() == [1] * len(together.lengths)
    for rows, stacks in groups:
        alone = _teacher_forced_block([(np.arange(3), stacks)], z_t[rows], starts[rows], encoder)
        for j, k in enumerate(rows.tolist()):
            assert together.paired[k] == alone.paired[j] == (len(stacks) == 2)
            for s, segs in enumerate(stacks):
                i, i_alone = together.first[k] + s, alone.first[j] + s
                assert together.actions[i].tobytes() == alone.actions[i_alone].tobytes()
                assert together.actions[i].tobytes() == segs[j, -1:].tobytes()
                assert together.z[i].tobytes() == alone.z[i_alone].tobytes()
                if segs.shape[1] == 1:
                    assert together.z[i].tobytes() == z_t[k].tobytes()


def test_a_two_mode_chunk_maps_one_chain_layout(dataset, encoder):
    # the teacher-forced block is the free-running block mapped, so both
    # keep the free-running order: longest chain first
    modes = [FREE_RUNNING, TEACHER_FORCED]
    chunk = training._chunk_inputs(dataset, encoder, GALossConfig(), modes, 4,
                                   training.INPUT_CHUNK_STEPS, TrainStreams.from_seed(7))
    free, forced = chunk.chains[FREE_RUNNING], chunk.chains[TEACHER_FORCED]
    assert len(set(free.lengths.tolist())) > 1
    assert (np.diff(free.lengths) <= 0).all()
    assert free.first.tobytes() == forced.first.tobytes()
    assert free.paired.tobytes() == forced.paired.tobytes()


def test_tape_reference_wraps_a_teacher_forced_start_heading(encoder):
    # a start heading of -pi is the pose at +pi, as Pose2 holds it
    net = make_dynamics_net(8, 16, 19)
    base = np.array([[0.2, 0.05, 0.3], [0.15, -0.05, -0.2]])
    z_t = _rng(3).normal(size=8)
    cfg = GALossConfig(mode=TEACHER_FORCED)
    values = [float(ga_loss_graph(net.param_tensors(), z_t, base, cfg, CONSTRAINT_INV, _rng(0),
                                  start_pose=np.array([theta, 0.5, -0.2]), encoder=encoder).value)
              for theta in (-math.pi, math.pi)]
    assert values[0] == values[1]


def test_teacher_forced_requires_anchor_pose():
    net = DynamicsNet(4, 2)
    seg = np.array([[0.1, 0, 0]])
    with pytest.raises(ValueError):
        ga_loss_graph(
            net.param_tensors(), np.zeros(4), seg,
            GALossConfig(mode=TEACHER_FORCED), CONSTRAINT_ID, dirichlet_rng=_rng(0),
        )


def test_config_validation():
    with pytest.raises(ValueError):
        GALossConfig(lambda_ga=-0.1)
    with pytest.raises(ValueError):
        GALossConfig(max_span=0)
    with pytest.raises(ValueError):
        GALossConfig(mode="other")
    with pytest.raises(ValueError):
        TrainRunConfig(steps=0)
    with pytest.raises(ValueError):
        TrainRunConfig(steps=1, optimizer="lbfgs")


def test_constraint_sampling_is_uniform_and_weight_independent(dataset, encoder):
    # the sampler draws uniformly from all three types; weights only scale
    # the objective, so single-constraint configs see the same batch stream
    run = TrainRunConfig(steps=30, batch_size=4, learning_rate=0.0)
    counts = {c: 0 for c in CONSTRAINTS}
    for cfg in (GALossConfig(), GALossConfig(lambda_inv=0, lambda_comp=0)):
        net = make_dynamics_net(8, 8, 50)
        result = train(run, cfg, dataset, encoder, 0)
        actives = [CONSTRAINTS[i] for i in result.active]
        for c in actives:
            counts[c] += 1
        assert set(actives) == set(CONSTRAINTS)
    assert all(v > 0 for v in counts.values())


def _first_chunk(dataset, encoder, seed=0):
    """The chunk of the first training step alone, from a batch of 8."""
    streams = TrainStreams.from_seed(seed)
    return training._chunk_inputs(dataset, encoder, GALossConfig(), [FREE_RUNNING], 8, 1, streams)


def test_train_step_lambda_zero_equals_pure_prediction(dataset, encoder):
    chunk = _first_chunk(dataset, encoder)

    net_a = make_dynamics_net(8, 8, 30)
    train_step(_one_row(net_a, GALossConfig(lambda_ga=0.0)), chunk, 0, SgdOptimizer(0.05))

    net_b = make_dynamics_net(8, 8, 30)
    weights = net_b.param_tensors()
    pred = prediction_loss_graph(weights, *_step(chunk, 0).columns)
    ag.backward(pred)
    net_b.params -= 0.05 * net_b.pack_grads(weights)

    assert np.array_equal(net_a.params, net_b.params)


def test_train_step_zero_learning_rate_reports_but_does_not_move(dataset, encoder):
    run = TrainRunConfig(steps=1, batch_size=8, learning_rate=0.0)
    net = make_dynamics_net(8, 8, 31)
    before = net.params.copy()
    stack = _one_row(net, GALossConfig())
    losses, ok = train_step(stack, _first_chunk(dataset, encoder), 0,
                            make_optimizer(run, stack.params.shape))
    assert np.array_equal(net.params, before)
    assert ok[0] and losses[0, 0] > 0.0 and losses[1, 0] >= 0.0


def test_train_is_deterministic(dataset, encoder):
    run = TrainRunConfig(steps=5, batch_size=8, learning_rate=1e-3)
    cfg = GALossConfig()
    r1 = train(run, cfg, dataset, encoder, 77)
    r2 = train(run, cfg, dataset, encoder, 77)
    assert np.array_equal(r1.net.params, r2.net.params)
    assert list(r1.row_tuples()) == list(r2.row_tuples())


def test_train_rows_match_steps(dataset, encoder):
    run = TrainRunConfig(steps=3, batch_size=4, learning_rate=1e-3)
    result = train(run, GALossConfig(), dataset, encoder, 5)
    assert [row[0] for row in result.row_tuples()] == [0, 1, 2]


def test_train_single_step_equals_one_train_step(dataset, encoder):
    from gawm.latent import make_dynamics_net as make_net

    run = TrainRunConfig(steps=1, batch_size=4, learning_rate=1e-3)
    cfg = GALossConfig()
    result = train(run, cfg, dataset, encoder, 44)

    init_ss = np.random.SeedSequence(entropy=44, spawn_key=(0,))
    net = make_net(encoder.latent_dim, run.hidden_dim, init_ss)
    streams = TrainStreams.from_seed(44)
    chunk = oracles.chunk_inputs(dataset, encoder, cfg, [cfg.mode], run.batch_size, 1, streams)
    stack = _one_row(net, cfg)
    train_step(stack, chunk, 0, make_optimizer(run, stack.params.shape))
    assert np.array_equal(result.net.params, net.params)


def test_chunk_inputs_equal_per_pose_encoding(dataset, encoder):
    idx, ts, anchor_i, anchor_t, spans = training.sample_batch(
        dataset, 8, 4, TrainStreams.from_seed(46).batch, 40)
    inputs = list(_chunked_steps(dataset, encoder, GALossConfig(), [FREE_RUNNING], 8, 40,
                                 TrainStreams.from_seed(46)))
    assert np.array_equal(anchor_i, idx[:, 0])
    for k, step in enumerate(inputs):
        z_in, actions, z_next = step.columns
        items = list(zip(idx[k].tolist(), ts[k].tolist()))
        assert np.array_equal(z_in, encoder.projection @ np.stack(
            [pose_features(dataset.poses[i, t]) for i, t in items], axis=1))
        assert np.array_equal(z_next, encoder.projection @ np.stack(
            [pose_features(dataset.poses[i, t + 1]) for i, t in items], axis=1))
        assert np.array_equal(actions, np.stack([dataset.actions[i, t] for i, t in items], axis=1))
        assert np.array_equal(step.z_t, encoder.projection @ pose_features(
            dataset.poses[anchor_i[k], anchor_t[k]]))
        base = dataset.actions[anchor_i[k], anchor_t[k] : anchor_t[k] + spans[k]]
        segments = [seg for _, seg in step.plans[FREE_RUNNING]]
        if CONSTRAINTS[step.active] == CONSTRAINT_ID:
            assert [seg.tolist() for seg in segments] == [np.zeros((spans[k], 3)).tolist()]
        else:
            assert np.array_equal(segments[0][:spans[k]], base)
    assert {CONSTRAINTS[step.active] for step in inputs} == set(CONSTRAINTS)


def test_chunk_inputs_draw_noise_for_inputs_then_targets(dataset):
    noisy = make_encoder(8, 200, obs_noise_sigma=0.1)
    clean = make_encoder(8, 200)
    draws = TrainStreams.from_seed(48).noise
    for noisy_step, clean_step in zip(
            _chunked_steps(dataset, noisy, GALossConfig(), [FREE_RUNNING], 8, 40,
                           TrainStreams.from_seed(48)),
            _chunked_steps(dataset, clean, GALossConfig(), [FREE_RUNNING], 8, 40,
                           TrainStreams.from_seed(48))):
        (z_in, _, z_next), (clean_in, _, clean_next) = noisy_step.columns, clean_step.columns
        assert np.array_equal(z_in, clean_in + draws.normal(0.0, 0.1, size=(8, 8)))
        assert np.array_equal(z_next, clean_next + draws.normal(0.0, 0.1, size=(8, 8)))
    with pytest.raises(ValueError, match="requires a random generator"):
        prediction_loss(DynamicsNet(8, 4), noisy, dataset.poses[0, :3], dataset.actions[0, :3],
                        dataset.poses[0, 1:4])


def test_sample_batch_spans_stay_in_range(dataset):
    idx, ts, anchor_i, anchor_t, spans = training.sample_batch(dataset, 2, 4, _rng(45), 200)
    assert set(spans.tolist()) == {1, 2, 3, 4}
    assert idx.min() >= 0 and idx.max() < len(dataset)
    assert ts.min() >= 0 and ts.max() < dataset.length
    assert anchor_t.min() >= 0 and (anchor_t + spans).max() <= dataset.length


@pytest.mark.parametrize("batch_size, max_span", [(1, 1), (3, 4), (32, 16)])
def test_sample_batch_draws_as_the_per_step_calls(dataset, batch_size, max_span):
    # one call over the 2B + 1 bounds, then the anchor time, is the four
    # per-step calls bit for bit, also where a bound admits one value
    one = Dataset(dataset.poses[:1, :max_span + 1], dataset.actions[:1, :max_span])
    for data in (dataset, one):
        rng, reference = _rng(49), _rng(49)
        idx, ts, anchor_i, anchor_t, spans = training.sample_batch(data, batch_size, max_span,
                                                                   rng, 300)
        for k in range(300):
            batch = sample_batch(data, batch_size, max_span, reference)
            assert idx[k].tolist() == batch.idx.tolist() and ts[k].tolist() == batch.ts.tolist()
            assert (anchor_i[k], anchor_t[k]) == (batch.anchor_i, batch.anchor_t)
            assert spans[k] == len(batch.base_segment)
        assert rng.integers(2**62) == reference.integers(2**62)  # both streams end in step


def test_lambda_sweep_diverges_at_first_ga_batch(dataset, encoder):
    run = TrainRunConfig(steps=2, batch_size=8, learning_rate=1e-3)
    base = train(run, GALossConfig(lambda_ga=0.0), dataset, encoder, 6)
    ga = train(run, GALossConfig(lambda_ga=0.5), dataset, encoder, 6)
    run1 = TrainRunConfig(steps=1, batch_size=8, learning_rate=1e-3)
    base1 = train(run1, GALossConfig(lambda_ga=0.0), dataset, encoder, 6)
    ga1 = train(run1, GALossConfig(lambda_ga=0.5), dataset, encoder, 6)
    # same initialization, divergence starts with the first update
    assert not np.array_equal(base.net.params, ga.net.params)
    assert not np.array_equal(base1.net.params, ga1.net.params)
    # the prediction component of step 0 is identical (same batch stream)
    assert base.l_pred[0] == ga.l_pred[0]


def test_stochastic_objective_matches_full_objective(dataset, encoder):
    # enumerating the uniformly sampled constraint reproduces the full
    # three-term objective at one third of the global weight
    net = make_dynamics_net(8, 8, 32)
    cfg = GALossConfig(lambda_ga=0.6)
    streams = TrainStreams.from_seed(9)
    rel_errors = []
    for _ in range(1000):
        batch = sample_batch(dataset, 4, cfg.max_span, streams.batch)
        z_t = encoder.projection @ pose_features(batch.start_pose)
        l_pred = float(prediction_loss_graph(net.param_tensors(), *batch_columns(batch, encoder, None)).value)
        per_constraint = {
            c: _ga_value(net, z_t, batch.base_segment, cfg, c, _rng(40)) for c in CONSTRAINTS
        }
        mean_sampled = np.mean(
            [l_pred + cfg.lambda_ga * cfg.constraint_weight(c) * per_constraint[c] for c in CONSTRAINTS]
        )
        full = l_pred + (cfg.lambda_ga / 3.0) * sum(
            cfg.constraint_weight(c) * per_constraint[c] for c in CONSTRAINTS
        )
        rel_errors.append(abs(mean_sampled - full) / max(abs(full), 1e-30))
    assert max(rel_errors) <= 1e-6


def test_train_aborts_on_non_finite_loss(dataset, encoder):
    run = TrainRunConfig(steps=12, batch_size=4, learning_rate=1e14, optimizer="sgd")
    with np.errstate(over="ignore"), pytest.raises(NonFiniteLossError) as err:
        train(run, GALossConfig(), dataset, encoder, 8)
    assert "step" in str(err.value)


def test_adam_and_sgd_update_shapes():
    run_a = TrainRunConfig(steps=1, learning_rate=0.1, optimizer="adam")
    run_s = TrainRunConfig(steps=1, learning_rate=0.1, optimizer="sgd")
    for run in (run_a, run_s):
        opt = make_optimizer(run, 4)
        params = np.ones(4)
        opt.update(params, np.array([1.0, -1.0, 0.5, 0.0]))
        assert params.shape == (4,)
        assert not np.array_equal(params, np.ones(4))


def _tape_train_step(net, encoder, cfg, batch, optimizer, streams):
    """The training step as the recorded tape computes it (the reference):
    returns (active constraint, l_pred, l_ga)."""
    z_in, actions, z_next = batch_columns(batch, encoder, streams.noise)
    weights = net.param_tensors()
    pred = prediction_loss_graph(weights, z_in, actions, z_next)
    active = CONSTRAINTS[int(streams.constraint.integers(0, len(CONSTRAINTS)))]
    z_t = encoder.projection @ batch.dataset.features[batch.anchor_i, batch.anchor_t]
    ga = ga_loss_graph(weights, z_t, batch.base_segment, cfg, active,
                       dirichlet_rng=streams.dirichlet, start_pose=batch.start_pose,
                       encoder=encoder)
    ag.backward(ag.add(pred, ag.scale(ga, cfg.lambda_ga * cfg.constraint_weight(active))))
    optimizer.update(net.params, net.pack_grads(weights))
    return active, float(pred.value), float(ga.value)


@pytest.mark.parametrize("noise", (0.0, 0.05))
@pytest.mark.parametrize("mode", (FREE_RUNNING, TEACHER_FORCED))
@pytest.mark.parametrize("active", CONSTRAINTS)
def test_closed_form_gradient_equals_tape_bit_for_bit(dataset, active, mode, noise):
    enc = make_encoder(8, 200, obs_noise_sigma=noise)
    net = make_dynamics_net(8, 16, 60, w1_gain=3.0)
    cfg = GALossConfig(lambda_ga=0.7, lambda_inv=1.3, mode=mode)
    rng = _rng(61)
    spans = set()
    for k in range(12):
        batch = sample_batch(dataset, 8, cfg.max_span, rng)
        spans.add(len(batch.base_segment))
        columns = batch_columns(batch, enc, _rng(100 + k))
        z_t = enc.projection @ pose_features(batch.start_pose)
        context = dict(start_pose=batch.start_pose, encoder=enc)

        weights = net.param_tensors()
        pred = prediction_loss_graph(weights, *columns)
        ga = ga_loss_graph(weights, z_t, batch.base_segment, cfg, active,
                           dirichlet_rng=_rng(200 + k), **context)
        ag.backward(ag.add(pred, ag.scale(ga, cfg.lambda_ga * cfg.constraint_weight(active))))

        l_pred, l_ga, grad = _objective_grad(net, columns, z_t, batch.base_segment, cfg, active,
                                             dirichlet_rng=_rng(200 + k), **context)
        assert l_pred == float(pred.value) and l_ga == float(ga.value)
        assert np.array_equal(grad, net.pack_grads(weights))
        assert np.any(grad != 0.0)
    assert spans == {1, 2, 3, 4}


def _tape_train(run, cfg, dataset, encoder, seed):
    """The training loop with the tape's step (the reference): (net, loss rows)."""
    init_ss = np.random.SeedSequence(entropy=seed, spawn_key=(0,))
    net = make_dynamics_net(encoder.latent_dim, run.hidden_dim, init_ss, run.init_w1_gain)
    streams = TrainStreams.from_seed(seed)
    optimizer = make_optimizer(run, net.params.size)
    rows = []
    for step in range(run.steps):
        batch = sample_batch(dataset, run.batch_size, cfg.max_span, streams.batch)
        active, l_pred, l_ga = _tape_train_step(net, encoder, cfg, batch, optimizer, streams)
        weight = cfg.lambda_ga * cfg.constraint_weight(active)
        rows.append((step, active, l_pred, l_ga, l_pred + weight * l_ga))
    return net, rows


@pytest.mark.parametrize("mode", (FREE_RUNNING, TEACHER_FORCED))
@pytest.mark.parametrize("cfg_kwargs", (
    dict(),
    dict(lambda_ga=0.0),
    dict(lambda_inv=0.0, lambda_comp=0.0),
    dict(lambda_id=0.0, lambda_inv=0.0),
))
def test_training_equals_tape_reference_byte_for_byte(dataset, mode, cfg_kwargs):
    # zero-weighted rollouts are skipped in the backward pass; params and
    # loss rows must still equal the tape, which backpropagates them
    enc = make_encoder(8, 200, obs_noise_sigma=0.02)
    cfg = GALossConfig(mode=mode, **cfg_kwargs)
    run = TrainRunConfig(steps=40, batch_size=8, learning_rate=3e-3,
                         hidden_dim=16, init_w1_gain=3.0)
    closed = train(run, cfg, dataset, enc, 62)
    tape_net, tape_rows = _tape_train(run, cfg, dataset, enc, 62)
    assert closed.net.params.tobytes() == tape_net.params.tobytes()
    assert list(closed.row_tuples()) == tape_rows
    assert (closed.l_ga > 0.0).any()


def test_in_place_adam_equals_the_textbook_formula():
    rng = _rng(63)
    n = 50
    opt = AdamOptimizer(1e-3, n)
    params = rng.normal(size=n)
    ref_params, m, v = params.copy(), np.zeros(n), np.zeros(n)
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 1e-3
    for t in range(1, 101):
        grad = rng.normal(size=n) * 10.0 ** rng.integers(-6, 3)
        grad[t % n] = 0.0
        opt.update(params, grad)
        m = b1 * m + (1.0 - b1) * grad
        v = b2 * v + (1.0 - b2) * grad * grad
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        ref_params -= lr * m_hat / (np.sqrt(v_hat) + eps)
        assert params.tobytes() == ref_params.tobytes(), t
        assert opt.m.tobytes() == m.tobytes() and opt.v.tobytes() == v.tobytes()


@pytest.fixture(scope="module")
def far_dataset():
    # trajectory 0 lives near the origin, trajectory 1 at about 1e10
    near = generate_records(ExactModel(), 1, 8, ActionDistribution(), seed=64)
    far = generate_records(ExactModel(), 1, 8, ActionDistribution(), seed=65,
                           start_pos_sigma=1e10)
    return Dataset(np.concatenate([near.poses, far.poses]),
                   np.concatenate([near.actions, far.actions]))


@pytest.mark.parametrize("where", ("prediction", "rollout"))
def test_train_rejects_pre_activation_overflow(far_dataset, monkeypatch, where):
    # a huge input weight on the first latent makes the far trajectory's
    # pre-activations overflow to +-inf, while tanh keeps every output, and
    # so every loss, finite
    enc = make_encoder(8, 200)
    net = make_dynamics_net(8, 8, 66)
    net.weights()[0][:, 0] = 1e305
    pred_i, anchor_i = (1, 0) if where == "prediction" else (0, 1)
    batch = Batch(far_dataset, np.full(4, pred_i), np.arange(4), anchor_i, 2,
                  far_dataset.actions[anchor_i, 2:5])
    cfg = GALossConfig()
    with np.errstate(over="ignore", invalid="ignore"):
        z_t = enc.projection @ pose_features(batch.start_pose)
        weights = net.param_tensors()
        pred = prediction_loss_graph(weights, *batch_columns(batch, enc, None))
        ga = ga_loss_graph(weights, z_t, batch.base_segment, cfg, CONSTRAINT_INV, _rng(66))
        total = ag.add(pred, ag.scale(ga, 1.0))
        assert np.isfinite(total.value)
        with pytest.raises(ag.NonFiniteGraphError):
            ag.backward(total)

        monkeypatch.setattr(training, "sample_batch", _fixed_batches(batch))
        run = TrainRunConfig(steps=3, batch_size=4)
        with pytest.raises(NonFiniteLossError, match="step 0"):
            train(run, cfg, far_dataset, enc, 67, initial_net=net)


def _fixed_batches(batch):
    """A stand-in for ``training.sample_batch`` that draws ``batch`` at every step."""
    def draw(dataset, batch_size, max_span, rng, steps):
        rows = np.ones((steps, 1), dtype=np.int64)
        return (rows * batch.idx, rows * batch.ts, np.full(steps, batch.anchor_i),
                np.full(steps, batch.anchor_t), np.full(steps, len(batch.base_segment)))
    return draw


def _objective(params, net, cfgs, columns, z_t, batch, active, seed, encoder):
    """(losses, ok, grad) of ``_stack_objective`` on a stack of the given
    rows, with every mode rolled out, a loss-only one too."""
    stack = _InlineStack(net, params.copy(), cfgs)
    chunk = _one_step_chunk(stack.mode_rows, columns, z_t, batch.base_segment, cfgs[0], active,
                            _rng(seed), batch.start_pose, encoder)
    losses, ok = training._stack_objective(stack, chunk, 0)
    return losses, ok, stack.grad


@pytest.mark.parametrize("active", CONSTRAINTS)
def test_stacked_rollout_fails_only_the_overflowing_row(far_dataset, monkeypatch, active):
    # row 1's huge input weight overflows its rollout pre-activations from the
    # far anchor; row 0 shares every stacked product with it
    enc = make_encoder(8, 200)
    net = make_dynamics_net(8, 8, 66)
    params = np.stack([net.params, net.params])
    net.views(params[1])[0][:, 0] = 1e305
    batch = Batch(far_dataset, np.full(4, 0), np.arange(4), 1, 2, far_dataset.actions[1, 2:5])
    columns = batch_columns(batch, enc, None)
    z_t = enc.projection @ pose_features(batch.start_pose)
    cfgs = [GALossConfig(), GALossConfig()]
    pred_pre = training._stack_prediction(block_weights(net, params), *columns)[2][1]
    assert np.isfinite(pred_pre).all()  # the prediction batch stays finite on both rows
    with np.errstate(over="ignore", invalid="ignore"):
        losses, ok, grad = _objective(params, net, cfgs, columns, z_t, batch, active, 67, enc)
    alone, alone_ok, alone_grad = _objective(params[:1], net, cfgs[:1], columns, z_t, batch,
                                             active, 67, enc)
    assert ok.tolist() == [True, False] and alone_ok.tolist() == [True]
    assert losses[:, 0].tobytes() == alone[:, 0].tobytes()
    assert grad[0].tobytes() == alone_grad[0].tobytes()

    # train_group silences a failing row's overflow itself: from the huge
    # weight both rows overflow at step 0, and no RuntimeWarning escapes
    net.params[:] = params[1]
    monkeypatch.setattr(training, "sample_batch", _fixed_batches(batch))
    run = TrainRunConfig(steps=3, batch_size=4, hidden_dim=8)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        results = train_group(run, cfgs, far_dataset, enc, 67, initial_net=net)
    assert [(type(r), r.step) for r in results] == [(NonFiniteLossError, 0)] * 2


def test_mixed_stack_equals_one_row_stacks(dataset):
    # three free-running rows roll out as one stack (rows 0, 1 and 3: not
    # contiguous) and the teacher-forced row alone; each row has its own weights
    enc = make_encoder(8, 200, obs_noise_sigma=0.02)
    net = make_dynamics_net(8, 16, 74)
    params = np.stack([make_dynamics_net(8, 16, 75 + k, w1_gain=3.0).params for k in range(4)])
    cfgs = [GALossConfig(lambda_ga=0.0), GALossConfig(lambda_ga=0.5, lambda_inv=0.0),
            GALossConfig(lambda_ga=0.5, mode=TEACHER_FORCED), GALossConfig(lambda_ga=1.3)]
    rng = _rng(79)
    seen = set()
    for k in range(24):
        batch = sample_batch(dataset, 8, 4, rng)
        columns = batch_columns(batch, enc, _rng(300 + k))
        z_t = enc.projection @ pose_features(batch.start_pose)
        active = CONSTRAINTS[k % 3]
        seen.add((active, len(batch.base_segment)))
        losses, ok, grad = _objective(params, net, cfgs, columns, z_t, batch, active, 400 + k, enc)
        rows = [_objective(params[i:i + 1], net, cfgs[i:i + 1], columns, z_t, batch, active,
                           400 + k, enc) for i in range(len(cfgs))]
        assert ok.all()
        # bytes, not values: a zero's sign counts
        assert losses.tobytes() == np.concatenate([r[0] for r in rows], axis=1).tobytes()
        assert grad.tobytes() == np.concatenate([r[2] for r in rows]).tobytes()
    assert {span for _, span in seen} == {1, 2, 3, 4}
    assert {active for active, _ in seen} == set(CONSTRAINTS)


# -- lockstep training ---------------------------------------------------------


def _same_run(result, reference) -> None:
    """Bit-for-bit equality of two training results."""
    assert result.net.params.tobytes() == reference.net.params.tobytes()
    assert list(result.row_tuples()) == list(reference.row_tuples())


weights = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=3.0))
loss_configs = st.builds(GALossConfig, lambda_id=weights, lambda_inv=weights,
                         lambda_comp=weights, lambda_ga=weights,
                         mode=st.sampled_from((FREE_RUNNING, TEACHER_FORCED)))


@settings(max_examples=25, deadline=None)
@given(cfgs=st.lists(loss_configs, min_size=1, max_size=4),
       optimizer=st.sampled_from(("adam", "sgd")), seed=st.integers(0, 2**32 - 1))
def test_lockstep_rows_equal_sequential_runs(dataset, cfgs, optimizer, seed):
    enc = make_encoder(8, 200, obs_noise_sigma=0.02)
    run = TrainRunConfig(steps=12, batch_size=4, learning_rate=3e-3,
                         hidden_dim=8, init_w1_gain=3.0, optimizer=optimizer)
    results = train_group(run, cfgs, dataset, enc, seed)
    assert len(results) == len(cfgs)
    for cfg, result in zip(cfgs, results):
        _same_run(result, train(run, cfg, dataset, enc, seed))


def test_lockstep_constraints_group_at_benchmark_shapes(dataset):
    # d=32, h=64, B=32 and the constraints axis' five configs: BLAS may
    # round differently at these sizes than at the small ones above
    cfg = benchmark_config()
    cfgs = [point.ga for _, point in sweep_points(cfg, "constraints")]
    enc = make_encoder(cfg.encoder.latent_dim, 201)
    run = replace(cfg.pretrain, steps=20)
    assert (run.hidden_dim, run.batch_size, len(cfgs)) == (64, 32, 5)
    results = train_group(run, cfgs, dataset, enc, 76)
    for ga, result in zip(cfgs, results):
        _same_run(result, train(run, ga, dataset, enc, 76))
    assert len({result.net.params.tobytes() for result in results}) == 5


def test_lockstep_fine_tunes_a_copy_of_the_initial_net(dataset, encoder):
    base = make_dynamics_net(8, 8, 70, w1_gain=3.0)
    before = base.params.copy()
    run = TrainRunConfig(steps=10, batch_size=4, learning_rate=1e-3, hidden_dim=8)
    cfgs = [GALossConfig(lambda_ga=0.0), GALossConfig(mode=TEACHER_FORCED)]
    results = train_group(run, cfgs, dataset, encoder, 71, initial_net=base)
    assert base.params.tobytes() == before.tobytes()
    for cfg, result in zip(cfgs, results):
        _same_run(result, train(run, cfg, dataset, encoder, 71, initial_net=base))


@pytest.mark.parametrize("bad_first", (False, True))
def test_lockstep_non_finite_row_leaves_the_others_untouched(dataset, encoder, bad_first):
    run = TrainRunConfig(steps=12, batch_size=4, learning_rate=1e-3, hidden_dim=8,
                         optimizer="sgd")
    good, bad = GALossConfig(lambda_ga=0.0), GALossConfig(lambda_ga=1e30)
    cfgs = [bad, good] if bad_first else [good, bad]
    with np.errstate(over="ignore", invalid="ignore"):
        results = train_group(run, cfgs, dataset, encoder, 8)
        with pytest.raises(NonFiniteLossError) as alone:
            train(run, bad, dataset, encoder, 8)
    failed, trained = (results[0], results[1]) if bad_first else (results[1], results[0])
    assert isinstance(failed, NonFiniteLossError)
    assert str(failed) == str(alone.value)
    assert failed.step == alone.value.step and 0 < failed.step < run.steps
    assert str(failed) == f"non-finite loss at step {failed.step}"
    _same_run(trained, train(run, good, dataset, encoder, 8))


def _failing_run(run, cfg, dataset, encoder, seed, initial_net=None) -> NonFiniteLossError:
    with pytest.raises(NonFiniteLossError) as err:
        train(run, cfg, dataset, encoder, seed, initial_net)
    return err.value


@pytest.mark.parametrize("bad_row", (0, 2, 4))
def test_lockstep_five_row_stack_keeps_a_failed_row_to_itself(dataset, encoder, bad_row):
    # the failed row stays in the stack until the end; the four others match
    # their own runs bit for bit, and no overflow warning escapes train_group
    run = TrainRunConfig(steps=12, batch_size=4, learning_rate=1e-3, hidden_dim=8,
                         optimizer="sgd")
    cfgs = [GALossConfig(lambda_ga=0.0), GALossConfig(lambda_ga=0.5),
            GALossConfig(lambda_ga=1.0, lambda_inv=0.0), GALossConfig(lambda_ga=0.2)]
    cfgs.insert(bad_row, GALossConfig(lambda_ga=1e30))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        results = train_group(run, cfgs, dataset, encoder, 8)
        alone = [_failing_run(run, cfg, dataset, encoder, 8) if k == bad_row
                 else train(run, cfg, dataset, encoder, 8) for k, cfg in enumerate(cfgs)]
    for k, (result, reference) in enumerate(zip(results, alone)):
        if k == bad_row:
            assert isinstance(result, NonFiniteLossError)
            assert (str(result), result.step) == (str(reference), reference.step)
            assert 0 < result.step < run.steps - 1
        else:
            _same_run(result, reference)


def test_lockstep_group_stops_when_its_last_row_fails(dataset, encoder, monkeypatch):
    calls = []
    real_step = training.train_step

    def counting_step(*args):
        calls.append(len(args[0].cfgs))
        return real_step(*args)

    monkeypatch.setattr(training, "train_step", counting_step)
    run = TrainRunConfig(steps=30, batch_size=4, learning_rate=1e-3, hidden_dim=8,
                         optimizer="sgd")
    cfgs = [GALossConfig(lambda_ga=1e30), GALossConfig(lambda_ga=1e12)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        results = train_group(run, cfgs, dataset, encoder, 8)
        group_calls = list(calls)
        alone = [_failing_run(run, cfg, dataset, encoder, 8) for cfg in cfgs]
    steps = [r.step for r in results]
    assert steps == [r.step for r in alone] and steps[0] < steps[1] < run.steps - 1
    assert [str(r) for r in results] == [str(r) for r in alone]
    assert group_calls == [2] * (steps[1] + 1)
    # a pool worker's error reaches the parent with its step
    copy = pickle.loads(pickle.dumps(results[1]))
    assert (type(copy), str(copy), copy.step) == (NonFiniteLossError, str(results[1]), steps[1])


def test_lockstep_rejects_configs_that_draw_differently(dataset, encoder):
    run = TrainRunConfig(steps=2, batch_size=4, hidden_dim=8)
    with pytest.raises(ValueError, match="at least one loss config"):
        train_group(run, [], dataset, encoder, 0)
    with pytest.raises(ValueError, match="loss weights and rollout mode"):
        train_group(run, [GALossConfig(max_span=2), GALossConfig(max_span=3)], dataset, encoder, 0)
    with pytest.raises(ValueError, match="loss weights and rollout mode"):
        train_group(run, [GALossConfig(), GALossConfig(dirichlet=DirichletParams(0.3))],
                    dataset, encoder, 0)


def test_adam_stack_rows_move_like_separate_optimizers():
    rng = _rng(72)
    k, n = 3, 20
    stacked, separate = AdamOptimizer(1e-3, (k, n)), [AdamOptimizer(1e-3, n) for _ in range(k)]
    params = rng.normal(size=(k, n))
    rows = [p.copy() for p in params]
    for _ in range(8):
        grad = rng.normal(size=params.shape)
        stacked.update(params, grad)
        for opt, row, g in zip(separate, rows, grad):
            opt.update(row, g)
        assert params.tobytes() == np.stack(rows).tobytes()


def test_train_rejects_span_longer_than_the_trajectories(dataset, encoder, monkeypatch):
    def no_step(*args):
        raise AssertionError("the check must come before step 0")

    monkeypatch.setattr(training, "sample_batch", no_step)
    run = TrainRunConfig(steps=3, batch_size=4, hidden_dim=8)
    with pytest.raises(ValueError, match="max_span 40 exceeds the dataset trajectory length 16"):
        train(run, GALossConfig(max_span=40), dataset, encoder, 0)


def test_train_accepts_span_equal_to_the_trajectories(dataset, encoder):
    run = TrainRunConfig(steps=20, batch_size=4, hidden_dim=8)
    result = train(run, GALossConfig(max_span=dataset.length), dataset, encoder, 73)
    assert len(result.total) == run.steps


# -- chunked step inputs ---------------------------------------------------------


def _same_inputs(got, want) -> None:
    """Bit-for-bit equality of two steps' inputs (``oracles.StepInputs``)."""
    assert got.active == want.active
    for a, b in zip(got.columns, want.columns):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert got.z_t.tobytes() == want.z_t.tobytes()
    assert list(got.plans) == list(want.plans)
    for mode, chains in got.plans.items():
        assert len(chains) == len(want.plans[mode])
        for (z, seg), (want_z, want_seg) in zip(chains, want.plans[mode]):
            assert z.tobytes() == want_z.tobytes()
            assert seg.shape == want_seg.shape and seg.tobytes() == want_seg.tobytes()


CHUNK = training.INPUT_CHUNK_STEPS


@pytest.mark.parametrize("sigma", (0.0, 0.05))
@pytest.mark.parametrize("modes", ([FREE_RUNNING], [TEACHER_FORCED],
                                   [TEACHER_FORCED, FREE_RUNNING]))
@pytest.mark.parametrize("steps", (1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3))
def test_chunked_inputs_equal_the_per_step_reference(dataset, steps, modes, sigma):
    enc = make_encoder(8, 200, obs_noise_sigma=sigma)
    cfg = GALossConfig(dirichlet=DirichletParams(0.3))
    got = list(_chunked_steps(dataset, enc, cfg, modes, 4, steps, TrainStreams.from_seed(steps)))
    want = oracles.step_inputs(dataset, enc, cfg, modes, 4, steps, TrainStreams.from_seed(steps))
    assert len(got) == steps
    for step, reference in zip(got, want):
        _same_inputs(step, reference)
    if steps > 2 * CHUNK:  # every constraint at every span
        spans = training.sample_batch(dataset, 4, cfg.max_span, TrainStreams.from_seed(steps).batch,
                                      steps)[-1]
        seen = {(step.active, span) for step, span in zip(got, spans.tolist())}
        assert seen == {(a, span) for a in range(3) for span in range(1, 5)}


@pytest.mark.parametrize("max_span", (1, 12))
def test_chunked_inputs_equal_the_per_step_reference_at_any_span(dataset, max_span):
    # spans of 8 and more sum their Dirichlet gammas pairwise
    enc = make_encoder(8, 200, obs_noise_sigma=0.05)
    cfg = GALossConfig(max_span=max_span)
    modes = [FREE_RUNNING, TEACHER_FORCED]
    got = _chunked_steps(dataset, enc, cfg, modes, 4, 3 * CHUNK, TrainStreams.from_seed(5))
    want = oracles.step_inputs(dataset, enc, cfg, modes, 4, 3 * CHUNK, TrainStreams.from_seed(5))
    for step, reference in zip(got, want):
        _same_inputs(step, reference)


@pytest.mark.parametrize("lambda_ga", (0.5, 1e10))
def test_training_on_chunked_inputs_equals_the_per_step_reference(dataset, monkeypatch,
                                                                  lambda_ga):
    # at 1e10 one row fails in the first chunk and the other in the middle
    # of the second, where training stops at the reference's step
    calls = []
    real_step = training.train_step

    def counting_step(*args):
        calls.append(len(args[0].cfgs))
        return real_step(*args)

    monkeypatch.setattr(training, "train_step", counting_step)
    enc = make_encoder(8, 200, obs_noise_sigma=0.02)
    run = TrainRunConfig(steps=2 * CHUNK + 3, batch_size=4, learning_rate=1e-3, hidden_dim=8,
                         optimizer="sgd")
    cfgs = [GALossConfig(lambda_ga=lambda_ga),
            GALossConfig(lambda_ga=lambda_ga, lambda_inv=0.0, mode=TEACHER_FORCED)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        chunked = train_group(run, cfgs, dataset, enc, 8)
        chunked_calls = len(calls)
        monkeypatch.setattr(training, "_chunk_inputs", oracles.chunk_inputs)
        reference = train_group(run, cfgs, dataset, enc, 8)
    assert len(calls) == 2 * chunked_calls
    if lambda_ga < 1.0:
        assert chunked_calls == run.steps
        for result, want in zip(chunked, reference):
            _same_run(result, want)
        return
    steps = [r.step for r in chunked]
    assert steps == [r.step for r in reference]
    assert [str(r) for r in chunked] == [str(r) for r in reference]
    last = max(steps)
    assert CHUNK < last < 2 * CHUNK - 1 and last % CHUNK != 0  # mid-chunk
    assert chunked_calls == last + 1


# -- loss-only rollouts, rolled out once per chunk ---------------------------------


def _recorded_calls(monkeypatch, name):
    """The arguments of every call of ``training.<name>``, as it is called."""
    calls = []
    real = getattr(training, name)

    def record(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(training, name, record)
    return calls


def _per_step_reference(monkeypatch):
    """Training from then on draws its inputs one step at a time and rolls
    every mode out at its step."""
    monkeypatch.setattr(training, "_chunk_inputs", oracles.chunk_inputs)
    monkeypatch.setattr(training, "ParamStack", _InlineStack)


@pytest.mark.parametrize("mode", (FREE_RUNNING, TEACHER_FORCED))
@pytest.mark.parametrize("steps", (1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3))
def test_loss_only_run_equals_the_per_step_reference(dataset, monkeypatch, steps, mode):
    # the one row's rollouts weigh nothing, so they roll out once per
    # chunk; its l_ga and total equal the per-step reference's bit for bit
    enc = make_encoder(8, 200, obs_noise_sigma=0.05)
    cfg = GALossConfig(lambda_ga=0.0, mode=mode, dirichlet=DirichletParams(0.3))
    run = TrainRunConfig(steps=steps, batch_size=4, learning_rate=3e-3, hidden_dim=8,
                         init_w1_gain=3.0)
    rollouts = _recorded_calls(monkeypatch, "_loss_only_rollouts")
    chunked = train(run, cfg, dataset, enc, steps)
    assert [args[1] for args in rollouts] == [mode] * -(-steps // CHUNK)
    _per_step_reference(monkeypatch)
    reference = train(run, cfg, dataset, enc, steps)
    assert len(rollouts) == -(-steps // CHUNK)
    _same_run(chunked, reference)
    assert (chunked.l_ga > 0.0).any() and np.array_equal(chunked.total, chunked.l_pred)


def test_mixed_stack_defers_only_its_loss_only_mode(dataset, monkeypatch):
    enc = make_encoder(8, 200, obs_noise_sigma=0.02)
    cfgs = [GALossConfig(lambda_ga=0.0), GALossConfig(lambda_ga=0.5, mode=TEACHER_FORCED),
            GALossConfig(lambda_id=0.0, lambda_inv=0.0, lambda_comp=0.0)]
    net = make_dynamics_net(8, 8, 80)
    stack = ParamStack(net, np.stack([net.params] * 3), cfgs)
    assert stack.loss_only == {FREE_RUNNING: True, TEACHER_FORCED: False}
    run = TrainRunConfig(steps=CHUNK + 5, batch_size=4, learning_rate=1e-3, hidden_dim=8)
    rollouts = _recorded_calls(monkeypatch, "_loss_only_rollouts")
    results = train_group(run, cfgs, dataset, enc, 82)
    assert [args[1] for args in rollouts] == [FREE_RUNNING] * 2
    assert [list(args[0].chains) for args in rollouts] == [[FREE_RUNNING, TEACHER_FORCED]] * 2
    _per_step_reference(monkeypatch)
    for cfg, result, reference in zip(cfgs, results, train_group(run, cfgs, dataset, enc, 82)):
        _same_run(result, reference)
        _same_run(result, train(run, cfg, dataset, enc, 82))
    assert len(rollouts) == 2


def _far_anchors(far_anchor: int, far_batch: int | None):
    """A stand-in for ``training.sample_batch`` on ``far_dataset``: every
    step's batch and anchor lie on the near trajectory, except the anchor
    of step ``far_anchor`` and the batch of step ``far_batch``."""
    done = []

    def draw(dataset, batch_size, max_span, rng, steps):
        k = np.arange(len(done), len(done) + steps)
        done.extend(k)
        idx = np.repeat((k == far_batch)[:, None], batch_size, axis=1).astype(np.int64)
        ts = np.tile(np.arange(batch_size) % dataset.length, (steps, 1))
        spans = 1 + k % max_span
        return idx, ts, (k == far_anchor).astype(np.int64), np.zeros(steps, np.int64), spans
    return draw


@pytest.mark.parametrize("mode", (FREE_RUNNING, TEACHER_FORCED))
@pytest.mark.parametrize("far_anchor, far_batch, stop", [
    (5, None, CHUNK),  # known at the end of its chunk
    (CHUNK + 3, None, 2 * CHUNK),
    (CHUNK + 3, CHUNK + 9, CHUNK + 10),  # the batch's failure stops the run first
    (CHUNK + 3, 2 * CHUNK + 1, 2 * CHUNK),
])
def test_loss_only_rollout_failure_raises_at_its_step(far_dataset, monkeypatch, mode, far_anchor,
                                                      far_batch, stop):
    # a huge input weight overflows the rollout pre-activations from the far
    # anchor (and the prediction's on the far batch), while every loss stays finite
    enc = make_encoder(8, 200)
    net = make_dynamics_net(8, 8, 66)
    net.weights()[0][:, 0] = 1e305
    cfg = GALossConfig(lambda_ga=0.0, max_span=3, mode=mode)
    run = TrainRunConfig(steps=3 * CHUNK, batch_size=4, optimizer="sgd")
    calls = _recorded_calls(monkeypatch, "train_step")
    errors = []
    for stack_type in (ParamStack, _InlineStack):
        monkeypatch.setattr(training, "ParamStack", stack_type)
        monkeypatch.setattr(training, "sample_batch", _far_anchors(far_anchor, far_batch))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            errors.append(_failing_run(run, cfg, far_dataset, enc, 67, initial_net=net))
    chunked, inline = errors
    assert (str(chunked), chunked.step) == (str(inline), inline.step)
    assert chunked.step == far_anchor
    assert len(calls) == stop + far_anchor + 1  # the inline run stops at the anchor's step


# -- batch draws from raw words ------------------------------------------------------


def _per_step_draws(data, batch_size, max_span, rng, steps):
    """``training.sample_batch``'s arrays, drawn by the per-step reference."""
    batches = [sample_batch(data, batch_size, max_span, rng) for _ in range(steps)]
    return (np.stack([b.idx for b in batches]), np.stack([b.ts for b in batches]),
            np.array([b.anchor_i for b in batches]), np.array([b.anchor_t for b in batches]),
            np.array([len(b.base_segment) for b in batches]))


def _same_draws(got, want) -> None:
    for a, b in zip(got, want):
        assert a.dtype == np.int64 and a.tolist() == b.tolist()


@pytest.mark.parametrize("pending", (False, True))
def test_sample_batch_maps_raw_words_as_the_per_step_calls(dataset, monkeypatch, pending):
    def no_fallback(*args):
        raise AssertionError("no draw here is rejected or has one value")

    monkeypatch.setattr(training, "_per_step_batches", no_fallback)
    rng, reference = _rng(50), _rng(50)
    if pending:  # a 32-bit draw leaves the word's high half pending
        rng.integers(0, 7), reference.integers(0, 7)
    assert rng.bit_generator.state["has_uint32"] == pending
    for steps in (1, 5, CHUNK):
        _same_draws(training.sample_batch(dataset, 5, 4, rng, steps),
                    _per_step_draws(dataset, 5, 4, reference, steps))
        assert rng.bit_generator.state == reference.bit_generator.state


def test_sample_batch_falls_back_to_the_per_step_calls(dataset, monkeypatch):
    # a pending half of 0 scales to a leftover of 0, which Lemire's rule
    # rejects for the 20 trajectories: (2**32 - 20) % 20 = 16 > 0
    assert (2**32 - len(dataset)) % len(dataset) > 0
    fallbacks = []
    real_fallback = training._per_step_batches

    def counting_fallback(*args):
        fallbacks.append(args[-1])
        return real_fallback(*args)

    monkeypatch.setattr(training, "_per_step_batches", counting_fallback)
    rng, reference = _rng(51), _rng(51)
    for generator in (rng, reference):
        state = generator.bit_generator.state
        state.update(has_uint32=1, uinteger=0)
        generator.bit_generator.state = state
    _same_draws(training.sample_batch(dataset, 3, 4, rng, 6),
                _per_step_draws(dataset, 3, 4, reference, 6))
    assert fallbacks == [6] and rng.bit_generator.state == reference.bit_generator.state
    _same_draws(training.sample_batch(dataset, 3, 4, rng, 6),
                _per_step_draws(dataset, 3, 4, reference, 6))
    assert fallbacks == [6]  # the next chunk maps raw words again
    words32, reference = (np.random.Generator(np.random.MT19937(52)) for _ in range(2))
    _same_draws(training.sample_batch(dataset, 3, 4, words32, 6),
                _per_step_draws(dataset, 3, 4, reference, 6))
    assert fallbacks == [6, 6]


# -- composition segments that turn too far ------------------------------------------


def test_a_recomposed_turn_beyond_pi_names_its_step_and_max_span():
    # wide turns: a window's recomposed share of its summed turn can pass pi
    wide = generate_records(ExactModel(), 10, 16, ActionDistribution(sigma_dtheta=1.5), seed=1)
    enc = make_encoder(8, 200)
    cfg = GALossConfig()
    streams = TrainStreams.from_seed(3)
    step = 0
    with pytest.raises(ValueError, match="must be <= pi"):  # the per-step reference's error
        while True:
            oracles.step_inputs(wide, enc, cfg, [cfg.mode], 4, 1, streams)
            step += 1
    assert step > CHUNK
    run = TrainRunConfig(steps=2 * step, batch_size=4, hidden_dim=8)
    with pytest.raises(ValueError, match=f"^training step {step}: .*ga.max_span \\(4\\)"):
        train(run, cfg, wide, enc, 3)


def test_a_recomposed_turn_beyond_pi_names_the_first_failing_step_of_its_group():
    # at this seed an earlier step of the failing step's chunk is a
    # composition of its span, so the failing step is not its group's first
    seed = 10
    wide = generate_records(ExactModel(), 10, 16, ActionDistribution(sigma_dtheta=1.5), seed=1)
    enc = make_encoder(8, 200)
    cfg = GALossConfig()
    streams, step = TrainStreams.from_seed(seed), 0
    with pytest.raises(ValueError, match="must be <= pi"):  # the per-step reference's error
        while True:
            oracles.step_inputs(wide, enc, cfg, [cfg.mode], 4, 1, streams)
            step += 1
    draws = TrainStreams.from_seed(seed)
    for _ in range(step // CHUNK + 1):  # the chunk draws up to the failing step's chunk
        *_, spans = training.sample_batch(wide, 4, cfg.max_span, draws.batch, CHUNK)
        active = draws.constraint.integers(0, len(CONSTRAINTS), size=CHUNK)
    k = step % CHUNK
    assert CONSTRAINTS[active[k]] == CONSTRAINT_COMP
    assert ((active[:k] == active[k]) & (spans[:k] == spans[k])).any()
    run = TrainRunConfig(steps=step + 1, batch_size=4, hidden_dim=8)
    with pytest.raises(ValueError, match=f"^training step {step}: a composition segment "
                                         f"recomposes {spans[k]} actions into turns beyond pi"):
        train(run, cfg, wide, enc, seed)
