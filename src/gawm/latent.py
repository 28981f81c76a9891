"""Learned world model pieces: feature encoder, latent dynamics, decoder.

The encoder is a fixed seeded full-rank linear map on the pose features
(x, y, cos theta, sin theta); heading enters through its cosine and sine
so the learned dynamics never sees a wrap discontinuity. The decoder is
the encoder's left inverse, which makes pose recovery exact up to
observation noise. The dynamics network is a one-hidden-layer tanh MLP
in residual form, so the all-zero parameter vector is exactly the
identity transition.
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .artifacts import write_json
from .models import Trajectory
from .se2 import Pose2, check_finite_poses, pose_array, wrap_angles
from .segments import ActionIncrement, ActionSegment

CHECKPOINT_VERSION = "gawm-checkpoint-1"

MAX_ENCODER_CONDITION = 1e6


class HeadingUndefinedError(ValueError):
    """Decoded heading features are both zero, so the angle is undefined."""


def pose_features(poses: np.ndarray) -> np.ndarray:
    """(x, y, cos theta, sin theta) features of (..., 3) ``[theta, x, y]``
    pose rows, as a (..., 4) array."""
    features = np.empty(poses.shape[:-1] + (4,))
    features[..., :2] = poses[..., 1:]
    np.cos(poses[..., 0], out=features[..., 2])
    np.sin(poses[..., 0], out=features[..., 3])
    return features


def check_noise_sigma(sigma: float, name: str = "obs_noise_sigma") -> None:
    """Observation noise must be finite and >= 0."""
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise ValueError(f"{name} must be finite and >= 0, got {sigma}")


def check_latent_dim(latent_dim: int) -> None:
    """The encoder must be full rank on the four pose features."""
    if latent_dim < 4:
        raise ValueError(f"latent_dim must be >= 4, got {latent_dim}")


@dataclass(frozen=True)
class FeatureEncoder:
    """Fixed linear observation map from pose features into the latent space."""

    projection: np.ndarray
    seed: int
    obs_noise_sigma: float = 0.0

    def __post_init__(self):
        check_noise_sigma(self.obs_noise_sigma)

    @property
    def latent_dim(self) -> int:
        return self.projection.shape[0]


def make_encoder(latent_dim: int, seed: int, obs_noise_sigma: float = 0.0) -> FeatureEncoder:
    """Sample a well-conditioned latent_dim x 4 projection from the seed.

    Resamples (continuing the same stream) until the condition number is
    acceptable, so the decoder's left inverse is numerically exact.
    """
    check_latent_dim(latent_dim)
    rng = np.random.Generator(np.random.PCG64(seed))
    while True:
        projection = rng.normal(0.0, 0.5, size=(latent_dim, 4))
        if np.linalg.cond(projection) <= MAX_ENCODER_CONDITION:
            return FeatureEncoder(projection=projection, seed=seed, obs_noise_sigma=obs_noise_sigma)


@dataclass(frozen=True)
class FeatureDecoder:
    """Left inverse of the encoder projection; recovers poses from latents."""

    pinv: np.ndarray

    def __post_init__(self):
        if self.pinv.shape[0] != 4:
            raise ValueError(f"decoder expects a 4 x d left inverse, got {self.pinv.shape}")


def make_decoder(encoder: FeatureEncoder) -> FeatureDecoder:
    pinv = np.linalg.pinv(encoder.projection)
    residual = np.max(np.abs(pinv @ encoder.projection - np.eye(4)))
    if residual > 1e-8:
        raise ValueError(f"left-inverse residual {residual:g} exceeds 1e-8")
    return FeatureDecoder(pinv=pinv)


def encode(pose: Pose2, encoder: FeatureEncoder, rng: np.random.Generator | None = None) -> np.ndarray:
    """Project pose features into the latent space, plus seeded observation noise."""
    z = encoder.projection @ pose_features(pose_array([pose])[0])
    if encoder.obs_noise_sigma > 0.0:
        if rng is None:
            raise ValueError("observation noise requires a random generator")
        z = z + rng.normal(0.0, encoder.obs_noise_sigma, size=z.shape)
    return z


def decode(z: np.ndarray, decoder: FeatureDecoder) -> Pose2:
    """Recover the pose whose features best explain the latent."""
    f = decoder.pinv @ z
    if f[2] == 0.0 and f[3] == 0.0:
        raise HeadingUndefinedError("heading features are both zero")
    return Pose2(theta=math.atan2(f[3], f[2]), x=float(f[0]), y=float(f[1]))


class DynamicsNet:
    """Residual one-hidden-layer transition network z' = z + MLP([z; a]).

    Parameters live in one flat float64 vector; the weight matrices are
    views into it, so optimizer updates on the flat vector are reflected
    everywhere.
    """

    def __init__(self, latent_dim: int, hidden_dim: int, params: np.ndarray | None = None):
        self.latent_dim = latent_dim
        self.hidden_dim = hidden_dim
        n = self.n_params(latent_dim, hidden_dim)
        if params is None:
            params = np.zeros(n)
        else:
            params = np.asarray(params, dtype=np.float64)
            if params.shape != (n,):
                raise ValueError(f"expected {n} parameters, got shape {params.shape}")
        self.params = params

    @staticmethod
    def n_params(latent_dim: int, hidden_dim: int) -> int:
        d, h = latent_dim, hidden_dim
        return (d + 3) * h + h + h * d + d

    def views(self, params: np.ndarray):
        """(w1, b1, w2, b2) as views into a vector in the parameter layout,
        or into a (K, P) stack of them, as (K, h, d+3) and so on."""
        d, h = self.latent_dim, self.hidden_dim
        i0 = (d + 3) * h
        i1 = i0 + h
        i2 = i1 + h * d
        lead = params.shape[:-1]
        w1 = params[..., :i0].reshape(lead + (h, d + 3))
        b1 = params[..., i0:i1]
        w2 = params[..., i1:i2].reshape(lead + (d, h))
        b2 = params[..., i2:]
        return w1, b1, w2, b2

    def weights(self):
        return self.views(self.params)

    def param_tensors(self) -> tuple[ag.Tensor, ag.Tensor, ag.Tensor, ag.Tensor]:
        """Fresh graph leaves for one recorded forward pass."""
        return tuple(ag.Tensor(w) for w in self.weights())

    def pack_grads(self, tensors) -> np.ndarray:
        """Flatten per-weight gradients back into the parameter layout."""
        return np.concatenate([ag.grad_or_zeros(t).ravel() for t in tensors])


def make_dynamics_net(latent_dim: int, hidden_dim: int,
                      seed: int | np.random.SeedSequence | np.random.Generator,
                      w1_gain: float = 1.0) -> DynamicsNet:
    """Seeded initialization: near-zero residual output, first layer at
    1/sqrt(fan-in) scale times ``w1_gain``. ``seed`` seeds a PCG64
    generator, or is the generator to draw from.

    The gain controls how much untrained structure the input layer starts
    with; directions never exercised by the training distribution keep
    their initialization, which matters for rollout-dispersion studies.
    """
    rng = np.random.default_rng(seed)
    d, h = latent_dim, hidden_dim
    w1 = rng.normal(0.0, w1_gain / math.sqrt(d + 3), size=(h, d + 3))
    b1 = np.zeros(h)
    w2 = rng.normal(0.0, 0.01, size=(d, h))
    b2 = np.zeros(d)
    return DynamicsNet(d, h, np.concatenate([w1.ravel(), b1, w2.ravel(), b2]))


def residual_step(z: np.ndarray, extra: np.ndarray, weights):
    """The network's one forward step, ``z + ((w2 @ tanh(w1 @ [z; extra] + b1)) + b2)``,
    for training and evaluation alike: on (..., d, m) column blocks with
    ``block_weights``' column biases, or on one (d,) vector with
    ``DynamicsNet.weights``. The weights' leading axes broadcast against
    the blocks'. Returns the output and the (x, pre, h) cache that
    training's backward pass reuses.

    Each product is one ``np.matmul`` in the caller's shape and rounds as
    that shape does: a (K, ., B) batch runs one matrix product per row,
    and a vector or m = 1 columns the per-pose matrix-vector ``w @ x``, so
    a row of (B, d, 1) columns rounds as that row alone. The sum keeps the
    association of the tape's ``residual_mlp``: reassociating it moves
    loss curves and checkpoints in their last bits.
    """
    w1, b1, w2, b2 = weights
    x = np.concatenate([z, extra], axis=-2 if z.ndim > 1 else 0)
    pre = np.matmul(w1, x) + b1
    h = np.tanh(pre)
    return z + (np.matmul(w2, h) + b2), (x, pre, h)


def block_weights(net: DynamicsNet, params: np.ndarray):
    """(w1, b1, w2, b2) views into a parameter vector or a (K, P) stack,
    with the biases as (h, 1) and (d, 1) columns for column blocks."""
    w1, b1, w2, b2 = net.views(params)
    return w1, b1[..., None], w2, b2[..., None]


def net_step(z: np.ndarray, action: ActionIncrement, net: DynamicsNet) -> np.ndarray:
    """One deterministic latent transition."""
    return residual_step(z, action.as_array(), net.weights())[0]


# The array forms below give each row exactly the per-pose result. They use
# stacked matrix-vector products, np.matmul(w, x[:, :, None]), which round
# like the per-pose ``w @ x``; a matrix-matrix product ``x @ w.T`` does not.
# ``_net_rows`` runs ``residual_step`` on such (B, d, 1) columns.


def _encode_rows(poses: np.ndarray, encoder: FeatureEncoder) -> np.ndarray:
    """Noiseless ``encode`` of (B, 3) pose rows, as (B, d) latents."""
    return np.matmul(encoder.projection, pose_features(poses)[:, :, None])[:, :, 0]


def _net_rows(z: np.ndarray, actions: np.ndarray, weights) -> np.ndarray:
    """``net_step`` of (B, d) latents under (B, 3) actions, on ``block_weights``."""
    return residual_step(z[:, :, None], actions[:, :, None], weights)[0][:, :, 0]


def _decode_rows(z: np.ndarray, decoder: FeatureDecoder) -> np.ndarray:
    """``decode`` of (..., d) latents into (..., 3) pose rows, with its checks."""
    f = np.matmul(decoder.pinv, z[..., None])[..., 0]
    if np.any((f[..., 2] == 0.0) & (f[..., 3] == 0.0)):
        raise HeadingUndefinedError("heading features are both zero")
    # math.atan2 per element: np.arctan2 rounds differently
    theta = list(map(math.atan2, f[..., 3].ravel().tolist(), f[..., 2].ravel().tolist()))
    poses = np.empty(f.shape[:-1] + (3,))
    poses[..., 0] = np.reshape(theta, f.shape[:-1])
    poses[..., 1:] = f[..., :2]
    check_finite_poses(poses)
    poses[..., 0] = wrap_angles(poses[..., 0])
    return poses


def net_step_graph(z: ag.Tensor, action: np.ndarray, weights) -> ag.Tensor:
    """Recorded net_step on one (3,) action row, for gradient computation: one tape node."""
    return ag.residual_mlp(z, action, weights)


def rollout_endpoint_graph(z0: ag.Tensor, u: np.ndarray, weights) -> ag.Tensor:
    """``net_step_graph`` folded over the rows of an (L, 3) action array."""
    z = z0
    for a in u:
        z = net_step_graph(z, a, weights)
    return z


class LearnedWorldModel:
    """The latent model exposed as a pose-space world model.

    ``step`` encodes the pose (with observation noise when configured),
    applies the transition network once, and decodes the result; the
    consistency probes drive the model through this interface.

    ``sample_trajectory`` is the model's native rollout: the latent state
    is carried across steps without re-encoding, with seeded noise
    perturbing each transition input, and every latent is decoded into
    the recovered trajectory. The dispersion metric prefers this path
    when present, so accumulated inconsistency in the model's own
    rollout dynamics is what gets measured.
    """

    def __init__(
        self,
        encoder: FeatureEncoder,
        net: DynamicsNet,
        decoder: FeatureDecoder | None = None,
        name: str = "learned",
    ):
        self.encoder = encoder
        self.net = net
        self.decoder = decoder if decoder is not None else make_decoder(encoder)
        self.name = name

    @property
    def deterministic(self) -> bool:
        return self.encoder.obs_noise_sigma == 0.0

    def step(self, state: Pose2, action: ActionIncrement, rng: np.random.Generator) -> Pose2:
        z = encode(state, self.encoder, rng)
        return decode(net_step(z, action, self.net), self.decoder)

    def step_batch(self, states: np.ndarray, actions: np.ndarray, rngs) -> np.ndarray:
        """``step`` on (B, 3) states and (B, 3) actions, row b drawing from rngs[b]."""
        z = _encode_rows(states, self.encoder)
        sigma = self.encoder.obs_noise_sigma
        if sigma > 0.0:
            for row, rng in zip(z, rngs):
                row += rng.normal(0.0, sigma, size=z.shape[1])
        z = _net_rows(z, actions, block_weights(self.net, self.net.params))
        return _decode_rows(z, self.decoder)

    def rollout_batch(self, starts: np.ndarray, actions: np.ndarray, rngs) -> np.ndarray:
        """The native rollout of (B, T, 3) actions from (B, 3) starts, as (B, T+1, 3) poses.

        Row b draws its start encoding's noise and then one noise vector
        per step from rngs[b], as one block.
        """
        b, t = actions.shape[:2]
        sigma = self.encoder.obs_noise_sigma
        z = _encode_rows(starts, self.encoder)
        if sigma > 0.0:
            noise = np.empty((b, t + 1, z.shape[1]))
            for row, rng in zip(noise, rngs):
                row[:] = rng.normal(0.0, sigma, size=row.shape)
            z = z + noise[:, 0]
        latents = np.empty((b, t, z.shape[1]))
        weights = block_weights(self.net, self.net.params)
        for i in range(t):
            if sigma > 0.0:
                z = z + noise[:, i + 1]
            z = _net_rows(z, actions[:, i], weights)
            latents[:, i] = z
        poses = np.empty((b, t + 1, 3))
        poses[:, 0] = starts
        poses[:, 1:] = _decode_rows(latents, self.decoder)
        return poses

    def sample_trajectory(self, start: Pose2, actions, rng: np.random.Generator) -> Trajectory:
        """One row of ``rollout_batch``, as a trajectory."""
        poses = self.rollout_batch(pose_array([start]), ActionSegment(actions).array[None], [rng])
        return Trajectory([Pose2(*row) for row in poses[0].tolist()])

    def with_obs_noise(self, sigma: float) -> "LearnedWorldModel":
        enc = FeatureEncoder(
            projection=self.encoder.projection, seed=self.encoder.seed, obs_noise_sigma=sigma
        )
        return LearnedWorldModel(enc, self.net, self.decoder, name=self.name)


def save_checkpoint(path, net: DynamicsNet, encoder: FeatureEncoder, meta: dict | None = None) -> None:
    """Single JSON checkpoint: version tag, dims, encoder seed and matrices, params."""
    payload = {
        "version": CHECKPOINT_VERSION,
        "latent_dim": net.latent_dim,
        "hidden_dim": net.hidden_dim,
        "encoder_seed": encoder.seed,
        "obs_noise_sigma": encoder.obs_noise_sigma,
        "projection": encoder.projection.tolist(),
        "params": net.params.tolist(),
        "meta": meta or {},
    }
    write_json(path, payload, indent=None)


def load_checkpoint(path) -> tuple[DynamicsNet, FeatureEncoder, dict]:
    """The net, encoder and meta saved by ``save_checkpoint``. A top level
    that is not an object, an unknown version, a missing field, a field
    of the wrong type (as ``config.from_json`` types them: an int takes
    only an integer, a float any number, neither a bool; arrays are
    nested lists of numbers, ``meta`` an object) or a part whose shape
    does not fit the dims raises a ValueError naming the file."""
    with open(path) as f:
        payload = json.load(f)
    if not isinstance(payload, dict):
        raise ValueError(f"checkpoint {path}: the top level is {type(payload).__name__}, not an object")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"checkpoint {path}: unsupported version {payload.get('version')!r}")

    def field(name, kind):
        if name not in payload:
            raise ValueError(f"checkpoint {path}: field {name!r} is missing")
        value = payload[name]
        try:
            if kind is np.ndarray:
                if isinstance(value, list):
                    array = np.array(value, dtype=object)
                    if all(type(v) in (int, float) for v in array.flat):
                        return array.astype(np.float64)
            elif type(value) in (int, float) and (kind is float or type(value) is int):
                return kind(value)
        except (ValueError, OverflowError):  # ragged nesting, an integer beyond the float range
            pass
        what = "array" if kind is np.ndarray else kind.__name__
        raise ValueError(f"checkpoint {path}: field {name!r} is not {what}: {reprlib.repr(value)}")

    latent_dim = field("latent_dim", int)
    hidden_dim = field("hidden_dim", int)
    projection = field("projection", np.ndarray)
    if projection.shape != (latent_dim, 4):
        raise ValueError(f"checkpoint {path}: encoder projection has shape {projection.shape}, "
                         f"but the net's latent_dim {latent_dim} needs ({latent_dim}, 4)")
    params = field("params", np.ndarray)
    seed, sigma = field("encoder_seed", int), field("obs_noise_sigma", float)
    try:
        net = DynamicsNet(latent_dim, hidden_dim, params)
        encoder = FeatureEncoder(projection=projection, seed=seed, obs_noise_sigma=sigma)
    except ValueError as e:
        raise ValueError(f"checkpoint {path}: {e}") from None
    meta = payload.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError(f"checkpoint {path}: field 'meta' is not object: {reprlib.repr(meta)}")
    return net, encoder, meta
