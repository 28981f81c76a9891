import math
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
    DynamicsNet, block_weights, make_decoder, make_dynamics_net, make_encoder, pose_features,
)
from gawm.models import ExactModel, rollout
from gawm.se2 import Pose2, pose_array
from gawm.segments import ActionIncrement, ActionSegment, DirichletParams
from gawm import training
from gawm.training import (
    AdamOptimizer,
    Batch,
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
    batch_columns,
    ga_loss_graph,
    make_optimizer,
    prediction_loss,
    prediction_loss_graph,
    sample_batch,
    train,
    train_group,
    train_step,
)

from oracles import central_difference


def _rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def _one_row(net, cfg):
    """A one-row stack over ``net``'s own parameters, so updates move ``net``."""
    return ParamStack(net, net.params[None], [cfg])


def _objective_grad(net, columns, z_t, base, cfg, active, dirichlet_rng, start_pose=None,
                    encoder=None):
    """(l_pred, l_ga, gradient) of one finite net through the training objective."""
    stack = _one_row(net, cfg)
    losses, ok = training._stack_objective(stack, columns, z_t, base, active, dirichlet_rng,
                                           start_pose, encoder)
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
    from gawm.latent import encode, net_step

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
    for _ in range(12):
        batch = sample_batch(dataset, 4, 4, streams.batch)
        stack, a, losses, ok = train_step(stack, encoder, batch, optimizer, streams)
        seen.add(CONSTRAINTS[a])
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
    for a in cycle[:-1]:
        state = ExactModel().step(state, a, None)
    end = net_step(encoder.projection @ pose_features(pose_array([state])[0]), cycle[-1], net)
    expected = float(np.sum((end - z_t) ** 2))

    cfg = GALossConfig(mode=TEACHER_FORCED)
    context = dict(dirichlet_rng=_rng(20), start_pose=start, encoder=encoder)
    graph = ga_loss_graph(net.param_tensors(), z_t, base, cfg, CONSTRAINT_INV, **context)
    assert float(graph.value) == pytest.approx(expected, rel=1e-12)
    columns = (z_t[:, None], np.zeros((3, 1)), z_t[:, None])
    _, l_ga, _ = _objective_grad(net, columns, z_t, base, cfg, CONSTRAINT_INV, **context)
    assert l_ga == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("length", range(2, 9))
def test_teacher_forced_prefix_equals_the_per_pose_exact_rollout(encoder, length):
    # the prefix folds exact_step's arithmetic over float rows; its state must
    # be the per-pose rollout's bit for bit, including every heading wrap
    rng = _rng(70 + length)
    for theta in (math.pi, -math.pi, math.pi - 1e-12, -math.pi + 1e-12, 0.3):
        seg = np.column_stack([rng.normal(0.1, 0.05, length), rng.normal(0.0, 0.03, length),
                               rng.uniform(-math.pi, math.pi, length)])
        seg[::2, 2] = -math.pi  # increment_pose wraps it to +pi
        start = np.array([theta, *rng.normal(0.0, 1.0, 2)])
        [(z_in, last)] = training._rollout_plans([seg], TEACHER_FORCED, start, encoder)
        state = rollout(ExactModel(), Pose2(*start), ActionSegment(seg[:-1]), None)[-1]
        want = encoder.projection @ pose_features(pose_array([state])[0])
        assert z_in.tobytes() == want.tobytes(), theta
        assert last.tobytes() == seg[-1:].tobytes()


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


def _one_batch(dataset, encoder, seed=0):
    streams = TrainStreams.from_seed(seed)
    return sample_batch(dataset, 8, 4, streams.batch), streams


def test_train_step_lambda_zero_equals_pure_prediction(dataset, encoder):
    run = TrainRunConfig(steps=1, batch_size=8, learning_rate=0.05, optimizer="sgd")
    batch, streams = _one_batch(dataset, encoder)

    net_a = make_dynamics_net(8, 8, 30)
    train_step(_one_row(net_a, GALossConfig(lambda_ga=0.0)), encoder, batch, SgdOptimizer(0.05),
               streams)

    net_b = make_dynamics_net(8, 8, 30)
    weights = net_b.param_tensors()
    z_in, acts, z_next = batch_columns(batch, encoder, None)
    pred = prediction_loss_graph(weights, z_in, acts, z_next)
    ag.backward(pred)
    net_b.params -= 0.05 * net_b.pack_grads(weights)

    assert np.array_equal(net_a.params, net_b.params)


def test_train_step_zero_learning_rate_reports_but_does_not_move(dataset, encoder):
    run = TrainRunConfig(steps=1, batch_size=8, learning_rate=0.0)
    batch, streams = _one_batch(dataset, encoder)
    net = make_dynamics_net(8, 8, 31)
    before = net.params.copy()
    stack = _one_row(net, GALossConfig())
    _, _, losses, ok = train_step(stack, encoder, batch, make_optimizer(run, stack.params.shape),
                                  streams)
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
    batch = sample_batch(dataset, run.batch_size, cfg.max_span, streams.batch)
    stack = _one_row(net, cfg)
    train_step(stack, encoder, batch, make_optimizer(run, stack.params.shape), streams)
    assert np.array_equal(result.net.params, net.params)


def test_batch_columns_equal_per_pose_encoding(dataset, encoder):
    streams = TrainStreams.from_seed(46)
    for _ in range(5):
        batch = sample_batch(dataset, 8, 4, streams.batch)
        z_in, actions, z_next = batch_columns(batch, encoder, None)
        items = list(zip(batch.idx.tolist(), batch.ts.tolist()))
        assert np.array_equal(z_in, encoder.projection @ np.stack(
            [pose_features(dataset.poses[i, t]) for i, t in items], axis=1))
        assert np.array_equal(z_next, encoder.projection @ np.stack(
            [pose_features(dataset.poses[i, t + 1]) for i, t in items], axis=1))
        assert np.array_equal(actions, np.stack([dataset.actions[i, t] for i, t in items], axis=1))
        assert np.array_equal(encoder.projection @ dataset.features[batch.anchor_i, batch.anchor_t],
                              encoder.projection @ pose_features(batch.start_pose))
        assert np.array_equal(batch.base_segment, dataset.segment(
            batch.anchor_i, batch.anchor_t, len(batch.base_segment)))


def test_batch_columns_draw_noise_for_inputs_then_targets(dataset):
    noisy = make_encoder(8, 200, obs_noise_sigma=0.1)
    batch = sample_batch(dataset, 8, 4, _rng(47))
    z_in, _, z_next = batch_columns(batch, noisy, _rng(48))
    clean_in, _, clean_next = batch_columns(batch, make_encoder(8, 200), None)
    draws = _rng(48)
    assert np.array_equal(z_in, clean_in + draws.normal(0.0, 0.1, size=(8, 8)))
    assert np.array_equal(z_next, clean_next + draws.normal(0.0, 0.1, size=(8, 8)))
    with pytest.raises(ValueError):
        batch_columns(batch, noisy, None)


def test_sample_batch_spans_stay_in_range(dataset):
    rng = _rng(45)
    spans = {len(sample_batch(dataset, 2, 4, rng).base_segment) for _ in range(200)}
    assert spans == {1, 2, 3, 4}


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
                  far_dataset.segment(anchor_i, 2, 3))
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

        monkeypatch.setattr(training, "sample_batch", lambda *args: batch)
        run = TrainRunConfig(steps=3, batch_size=4)
        with pytest.raises(NonFiniteLossError, match="step 0"):
            train(run, cfg, far_dataset, enc, 67, initial_net=net)


def _objective(params, net, cfgs, columns, z_t, batch, active, seed, encoder):
    """(losses, ok, grad) of ``_stack_objective`` on a stack of the given rows."""
    stack = ParamStack(net, params.copy(), cfgs)
    losses, ok = training._stack_objective(stack, columns, z_t, batch.base_segment, active,
                                           _rng(seed), batch.start_pose, encoder)
    return losses, ok, stack.grad


@pytest.mark.parametrize("active", CONSTRAINTS)
def test_stacked_rollout_fails_only_the_overflowing_row(far_dataset, active):
    # row 1's huge input weight overflows its rollout pre-activations from the
    # far anchor; row 0 shares every stacked product with it
    enc = make_encoder(8, 200)
    net = make_dynamics_net(8, 8, 66)
    params = np.stack([net.params, net.params])
    net.views(params[1])[0][:, 0] = 1e305
    batch = Batch(far_dataset, np.full(4, 0), np.arange(4), 1, 2, far_dataset.segment(1, 2, 3))
    columns = batch_columns(batch, enc, None)
    z_t = enc.projection @ pose_features(batch.start_pose)
    cfgs = [GALossConfig(), GALossConfig()]
    pred_pre = training._stack_prediction(block_weights(net, params), *columns)[2][1]
    assert np.isfinite(pred_pre).all()  # the prediction batch stays finite on both rows
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        losses, ok, grad = _objective(params, net, cfgs, columns, z_t, batch, active, 67, enc)
        alone, alone_ok, alone_grad = _objective(params[:1], net, cfgs[:1], columns, z_t, batch,
                                                 active, 67, enc)
    assert ok.tolist() == [True, False] and alone_ok.tolist() == [True]
    assert losses[:, 0].tobytes() == alone[:, 0].tobytes()
    assert grad[0].tobytes() == alone_grad[0].tobytes()


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
    keep = np.array([True, False, True])
    for t in range(8):
        if t == 4:
            stacked.select(keep)
            params = params[keep]
            separate, rows = [separate[0], separate[2]], [rows[0], rows[2]]
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
