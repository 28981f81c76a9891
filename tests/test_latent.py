import json
import math
import re

import numpy as np
import pytest

from gawm import autograd as ag
from gawm.latent import (
    DynamicsNet,
    FeatureEncoder,
    HeadingUndefinedError,
    LearnedWorldModel,
    _encode_rows,
    _net_rows,
    block_weights,
    decode,
    load_checkpoint,
    make_decoder,
    make_dynamics_net,
    make_encoder,
    net_step,
    residual_step,
    rollout_endpoint_graph,
    save_checkpoint,
)
from gawm.se2 import Pose2, pose_array, state_distance
from gawm.segments import ActionIncrement

import oracles
from oracles import central_difference, encode, latent_rollout_endpoint, random_pose


def _rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def test_encoder_shapes_and_conditioning():
    enc = make_encoder(16, 0)
    assert enc.projection.shape == (16, 4)
    assert np.linalg.cond(enc.projection) <= 1e6
    with pytest.raises(ValueError):
        make_encoder(3, 0)


def test_encoder_rejects_bad_obs_noise():
    for sigma in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            make_encoder(8, 0, obs_noise_sigma=sigma)
        with pytest.raises(ValueError):
            FeatureEncoder(np.eye(4), 0, obs_noise_sigma=sigma)
        with pytest.raises(ValueError):
            LearnedWorldModel(make_encoder(8, 0), DynamicsNet(8, 4)).with_obs_noise(sigma)


def test_encode_plugs_in_features():
    enc = make_encoder(8, 1)
    z = _encode_rows(pose_array([Pose2(0, 0, 0)]), enc)[0]
    assert np.allclose(z, enc.projection @ np.array([0, 0, 1, 0]))
    assert z.tobytes() == encode(Pose2(0, 0, 0), enc).tobytes()


def test_decoder_left_inverse():
    enc = make_encoder(16, 2)
    dec = make_decoder(enc)
    assert np.max(np.abs(dec.pinv @ enc.projection - np.eye(4))) <= 1e-8


def test_round_trip_1000_random_poses():
    enc = make_encoder(16, 3)
    dec = make_decoder(enc)
    rng = _rng(4)
    worst = 0.0
    for _ in range(1000):
        p = random_pose(rng)
        q = decode(encode(p, enc), dec)
        worst = max(worst, state_distance(p, q))
    assert worst <= 1e-8


def test_decode_known_heading():
    enc = make_encoder(16, 5)
    dec = make_decoder(enc)
    z = enc.projection @ np.array([1.0, 2.0, 0.0, 1.0])
    pose = decode(z, dec)
    assert pose.x == pytest.approx(1.0, abs=1e-9)
    assert pose.y == pytest.approx(2.0, abs=1e-9)
    assert pose.theta == pytest.approx(math.pi / 2, abs=1e-9)


def test_decode_equals_the_per_pose_oracle_bit_for_bit():
    # decode is one row of the array decoder; latents near the heading cut
    # included, where the recovered angle is +-pi
    enc = make_encoder(16, 8)
    dec = make_decoder(enc)
    rng = _rng(12)
    latents = list(rng.normal(0.0, 1.0, (500, 16)))
    latents += [enc.projection @ np.array([x, y, -1.0, s])
                for x, y, s in rng.normal(0.0, 1.0, (100, 3)) * [1.0, 1.0, 1e-15]]
    latents.append(enc.projection @ np.array([0.5, -0.5, -1.0, -0.0]))
    for z in latents:
        assert decode(z, dec) == oracles.decode(z, dec)


def test_decode_rejects_zero_heading_features():
    dec = make_decoder(make_encoder(16, 6))
    with pytest.raises(HeadingUndefinedError):
        decode(np.zeros(16), dec)


def test_obs_noise_is_seeded_and_reproducible():
    enc = make_encoder(16, 7, obs_noise_sigma=0.1)
    model = LearnedWorldModel(enc, make_dynamics_net(16, 8, 7))
    p, a = Pose2(0.2, 1.0, -1.0), ActionIncrement(0.1, 0.0, 0.05)
    s1 = model.step(p, a, _rng(99))
    s2 = model.step(p, a, _rng(99))
    assert (s1.theta, s1.x, s1.y) == (s2.theta, s2.x, s2.y)
    assert s1 == oracles.per_pose_step(model, p, a, _rng(99))
    assert s1 != model.step(p, a, _rng(100))
    with pytest.raises(ValueError, match="^observation noise requires a random generator$"):
        model.step(p, a, None)


def test_param_count_formula():
    for d, h in [(4, 1), (16, 64), (8, 32)]:
        net = DynamicsNet(d, h)
        assert net.params.size == (d + 3) * h + h + h * d + d


def test_zero_params_is_identity():
    net = DynamicsNet(16, 64)
    z = _rng(8).normal(size=16)
    a = ActionIncrement(0.3, -0.2, 0.1)
    assert np.array_equal(net_step(z, a, net), z)
    seg = np.stack([a.as_array()] * 3)
    assert np.array_equal(latent_rollout_endpoint(z, seg, net), z)


def test_tiny_net_hand_computed():
    # d=1, H=1: z' = z + w2*tanh(w1.[z, dx, dy, dth] + b1) + b2
    w1 = np.array([0.5, -1.0, 2.0, 0.25])
    b1 = np.array([0.1])
    w2 = np.array([3.0])
    b2 = np.array([-0.2])
    net = DynamicsNet(1, 1, np.concatenate([w1, b1, w2, b2]))
    z = np.array([0.4])
    a = ActionIncrement(0.2, -0.3, 0.5)
    pre = 0.5 * 0.4 + (-1.0) * 0.2 + 2.0 * (-0.3) + 0.25 * 0.5 + 0.1
    expected = 0.4 + 3.0 * math.tanh(pre) - 0.2
    assert net_step(z, a, net)[0] == pytest.approx(expected, abs=1e-15)


def test_net_step_finite_on_wide_inputs():
    net = make_dynamics_net(8, 16, 11)
    rng = _rng(12)
    for _ in range(100):
        z = rng.uniform(-10, 10, size=8)
        a = ActionIncrement(*rng.uniform(-1, 1, size=3))
        assert np.all(np.isfinite(net_step(z, a, net)))


def test_rollout_endpoint_folds():
    net = make_dynamics_net(8, 16, 13)
    z0 = _rng(14).normal(size=8)
    a1 = ActionIncrement(0.1, 0, 0)
    a2 = ActionIncrement(0, 0.1, -0.2)
    end = latent_rollout_endpoint(z0, np.stack([a1.as_array(), a2.as_array()]), net)
    assert np.allclose(end, net_step(net_step(z0, a1, net), a2, net))
    assert np.array_equal(latent_rollout_endpoint(z0, np.zeros((0, 3)), net), z0)


def test_graph_forward_matches_plain_forward():
    net = make_dynamics_net(16, 32, 15)
    z0 = _rng(16).normal(size=16)
    seg = np.array([[0.1, -0.05, 0.2], [0.0, 0.0, 0.0]])
    end_graph = rollout_endpoint_graph(ag.constant(z0), seg, net.param_tensors())
    assert np.allclose(end_graph.value, latent_rollout_endpoint(z0, seg, net), atol=1e-15)


def _random_net(d=6, h=8, seed=40):
    # nonzero biases: with zero ones every association of the residual sum agrees
    return DynamicsNet(d, h, _rng(seed).normal(size=DynamicsNet.n_params(d, h)))


def _tape_forward(z, extra, weights):
    return ag.residual_mlp(ag.constant(z), extra, tuple(ag.Tensor(w) for w in weights)).value


def test_residual_step_on_a_vector_is_the_tape_forward_and_net_step():
    net = _random_net()
    rng = _rng(41)
    for _ in range(20):
        z, a = rng.normal(size=6), ActionIncrement(*rng.uniform(-1, 1, size=3))
        out = residual_step(z, a.as_array(), net.weights())[0]
        assert out.tobytes() == _tape_forward(z, a.as_array(), net.weights()).tobytes()
        assert net_step(z, a, net).tobytes() == out.tobytes()


@pytest.mark.parametrize("b", [1, 32])
def test_residual_step_on_columns_rounds_each_row_as_the_tape_forward(b):
    net = _random_net()
    rng = _rng(42)
    z, actions = rng.normal(size=(b, 6)), rng.uniform(-1, 1, size=(b, 3))
    out = residual_step(z[:, :, None], actions[:, :, None], block_weights(net, net.params))[0]
    rows = _net_rows(z, actions, block_weights(net, net.params))
    assert out.shape == (b, 6, 1) and rows.tobytes() == out[:, :, 0].tobytes()
    for zj, aj, row in zip(z, actions, rows):
        assert row.tobytes() == _tape_forward(zj, aj, net.weights()).tobytes()
        assert row.tobytes() == net_step(zj, ActionIncrement(*aj), net).tobytes()


def test_residual_step_on_a_stack_is_each_rows_tape_forward():
    net = _random_net()
    rng = _rng(43)
    params = rng.normal(size=(3, net.params.size))
    z, actions = rng.normal(size=(6, 16)), rng.uniform(-1, 1, size=(3, 16))
    out = residual_step(z, actions, block_weights(net, params))[0]
    assert out.shape == (3, 6, 16)
    for k in range(3):
        assert out[k].tobytes() == _tape_forward(z, actions, net.views(params[k])).tobytes()


def test_gradient_through_rollout_matches_finite_difference():
    net = make_dynamics_net(6, 8, 17)
    z0 = _rng(18).normal(size=6)
    target = _rng(19).normal(size=6)
    seg = np.tile([0.1, 0.05, -0.1], (4, 1))

    def loss_at(params):
        probe = DynamicsNet(6, 8, params)
        end = latent_rollout_endpoint(z0, seg, probe)
        return float(np.sum((end - target) ** 2))

    weights = net.param_tensors()
    end = rollout_endpoint_graph(ag.constant(z0), seg, weights)
    loss = ag.sumsq(ag.sub(end, ag.constant(target)))
    ag.backward(loss)
    grad = net.pack_grads(weights)

    rng = _rng(20)
    coords = rng.choice(net.params.size, size=40, replace=False)
    for i in coords:
        fd = central_difference(loss_at, net.params, int(i))
        assert abs(fd - grad[i]) <= 1e-4 * max(1.0, abs(fd))


def test_learned_model_with_zero_net_tracks_pose():
    enc = make_encoder(16, 21)
    model = LearnedWorldModel(enc, DynamicsNet(16, 8))
    p = Pose2(0.4, 1.0, 2.0)
    out = model.step(p, ActionIncrement(0.5, 0, 0), _rng(0))
    # identity transition: decode(encode(p)) = p
    assert state_distance(out, p) <= 1e-8


def test_sample_trajectory_latent_chain_deterministic():
    enc = make_encoder(8, 30)
    net = make_dynamics_net(8, 16, 31)
    model = LearnedWorldModel(enc, net)
    start = Pose2(0.2, 0.5, -0.3)
    seg = np.array([[0.1, 0.0, 0.05], [0.05, -0.02, 0.0]])
    traj = model.sample_trajectory(start, seg, _rng(0))
    # noiseless chain: fold the latent transition, decode every state
    z = encode(start, enc)
    expected = [start]
    for a in oracles.increments(seg):
        z = net_step(z, a, net)
        expected.append(oracles.decode(z, model.decoder))
    assert traj.shape == (3, 3)
    for got, want in zip(oracles.pose_list(traj), expected):
        assert state_distance(got, want) == 0.0
    # seeded noise is reproducible
    noisy = model.with_obs_noise(0.05)
    t1 = noisy.sample_trajectory(start, seg, _rng(7))
    t2 = noisy.sample_trajectory(start, seg, _rng(7))
    assert t1.tobytes() == t2.tobytes()
    t3 = noisy.sample_trajectory(start, seg, _rng(8))
    assert np.any(t1 != t3)


def test_w1_gain_scales_first_layer():
    plain = make_dynamics_net(8, 16, 40, w1_gain=1.0)
    boosted = make_dynamics_net(8, 16, 40, w1_gain=2.0)
    n1 = (8 + 3) * 16
    assert np.allclose(boosted.params[:n1], 2.0 * plain.params[:n1])
    assert np.array_equal(boosted.params[n1:], plain.params[n1:])


def test_checkpoint_round_trip(tmp_path):
    enc = make_encoder(16, 22, obs_noise_sigma=0.05)
    net = make_dynamics_net(16, 64, 23)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, net, enc, meta={"label": "test"})
    net2, enc2, meta = load_checkpoint(path)
    assert meta["label"] == "test"
    assert np.array_equal(net2.params, net.params)
    assert np.array_equal(enc2.projection, enc.projection)
    assert enc2.obs_noise_sigma == enc.obs_noise_sigma
    # identical content serializes to identical bytes
    path2 = tmp_path / "ckpt2.json"
    save_checkpoint(path2, net2, enc2, meta={"label": "test"})
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_version_guard(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"version": "other"}')
    with pytest.raises(ValueError):
        load_checkpoint(path)


@pytest.mark.parametrize("name, value, message", [
    ("latent_dim", 8.9, "field 'latent_dim' is not int: 8.9"),
    ("latent_dim", 8.0, "field 'latent_dim' is not int: 8.0"),
    ("latent_dim", "8", "field 'latent_dim' is not int: '8'"),
    ("hidden_dim", True, "field 'hidden_dim' is not int: True"),
    ("encoder_seed", 1.5, "field 'encoder_seed' is not int: 1.5"),
    ("obs_noise_sigma", True, "field 'obs_noise_sigma' is not float: True"),
    ("obs_noise_sigma", "0.1", "field 'obs_noise_sigma' is not float: '0.1'"),
    ("obs_noise_sigma", 10**400, "field 'obs_noise_sigma' is not float: "),
    ("obs_noise_sigma", -0.5, "obs_noise_sigma must be in [0.0, inf), got -0.5"),
    ("projection", "x", "field 'projection' is not array: 'x'"),
    ("projection", [[1.0, 0.0, 0.0, True]] * 8, "field 'projection' is not array: "),
    ("params", [[1.0], [2.0, 3.0]], "field 'params' is not array: [[1.0], [2.0, 3.0]]"),
    ("params", 1.0, "field 'params' is not array: 1.0"),
    ("meta", [], "field 'meta' is not object: []"),
    ("meta", None, "field 'meta' is not object: None"),
])
def test_checkpoint_fields_are_type_checked_naming_the_file(tmp_path, name, value, message):
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, make_dynamics_net(8, 16, 3), make_encoder(8, 2))
    payload = json.loads(path.read_text())
    payload[name] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(message)}"):
        load_checkpoint(path)


def test_checkpoint_numbers_load_as_their_declared_types(tmp_path):
    path = tmp_path / "ckpt.json"
    net = make_dynamics_net(8, 16, 3)
    save_checkpoint(path, net, make_encoder(8, 2))
    payload = json.loads(path.read_text())
    del payload["meta"]
    payload["obs_noise_sigma"] = 0
    payload["params"] = [int(v) if v == int(v) else v for v in payload["params"]]
    path.write_text(json.dumps(payload))
    net2, encoder, meta = load_checkpoint(path)
    assert meta == {}
    assert type(encoder.obs_noise_sigma) is float and encoder.obs_noise_sigma == 0.0
    assert type(encoder.seed) is int and encoder.seed == 2
    assert net2.params.dtype == np.float64 and np.array_equal(net2.params, net.params)
