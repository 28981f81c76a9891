"""Composite training objective: one-step prediction loss plus latent
consistency regularization on synthesized segments.

Each batch activates exactly one consistency constraint (identity,
inverse, or composition), sampled uniformly; the expected per-batch
objective therefore matches the full three-term objective at one third
of the global weight, and zero-weighted constraints simply contribute
nothing when drawn. Gradients flow only through the sampled local
rollout; the anchor latent is a detached constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .data import Dataset
from .latent import (
    DynamicsNet,
    FeatureEncoder,
    make_dynamics_net,
    net_step_graph,
    pose_features,
    rollout_endpoint_graph,
)
from .models import exact_step
from .se2 import Pose2
from .segments import (
    ActionSegment,
    DirichletParams,
    make_compatibility_segment,
    make_identity_segment,
    make_inverse_segment,
)

FREE_RUNNING = "free-running"
TEACHER_FORCED = "teacher-forced"

CONSTRAINT_ID = "id"
CONSTRAINT_INV = "inv"
CONSTRAINT_COMP = "comp"
CONSTRAINTS = (CONSTRAINT_ID, CONSTRAINT_INV, CONSTRAINT_COMP)

OPTIMIZER_ADAM = "adam"
OPTIMIZER_SGD = "sgd"


class NonFiniteLossError(RuntimeError):
    """Training aborted because a loss or intermediate became non-finite."""


@dataclass(frozen=True)
class GALossConfig:
    lambda_id: float = 1.0
    lambda_inv: float = 1.0
    lambda_comp: float = 1.0
    lambda_ga: float = 0.5
    max_span: int = 4
    dirichlet: DirichletParams = field(default_factory=DirichletParams)
    mode: str = FREE_RUNNING

    def __post_init__(self):
        for name in ("lambda_id", "lambda_inv", "lambda_comp", "lambda_ga"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        if self.max_span < 1:
            raise ValueError(f"max_span must be >= 1, got {self.max_span}")
        if self.mode not in (FREE_RUNNING, TEACHER_FORCED):
            raise ValueError(f"unknown rollout mode: {self.mode!r}")

    def constraint_weight(self, constraint: str) -> float:
        return {
            CONSTRAINT_ID: self.lambda_id,
            CONSTRAINT_INV: self.lambda_inv,
            CONSTRAINT_COMP: self.lambda_comp,
        }[constraint]


@dataclass(frozen=True)
class GALossValues:
    """Per-batch loss report; inactive constraint losses stay None."""

    active_constraint: str
    l_pred: float | None = None
    l_id: float | None = None
    l_inv: float | None = None
    l_comp: float | None = None

    def active_value(self) -> float:
        v = {
            CONSTRAINT_ID: self.l_id,
            CONSTRAINT_INV: self.l_inv,
            CONSTRAINT_COMP: self.l_comp,
        }[self.active_constraint]
        assert v is not None
        return v


@dataclass(frozen=True)
class TrainRunConfig:
    steps: int
    batch_size: int = 32
    learning_rate: float = 1e-3
    seed: int = 0
    optimizer: str = OPTIMIZER_ADAM
    dataset_path: str | None = None
    hidden_dim: int = 64
    init_checkpoint: str | None = None
    init_w1_gain: float = 1.0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0.0):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.optimizer not in (OPTIMIZER_ADAM, OPTIMIZER_SGD):
            raise ValueError(f"unknown optimizer: {self.optimizer!r}")
        if self.init_w1_gain <= 0.0 or not math.isfinite(self.init_w1_gain):
            raise ValueError(f"init_w1_gain must be > 0, got {self.init_w1_gain}")


class SgdOptimizer:
    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate

    def update(self, params: np.ndarray, grad: np.ndarray) -> None:
        params -= self.learning_rate * grad


class AdamOptimizer:
    """Adaptive-moments first-order method with the standard decay constants."""

    def __init__(self, learning_rate: float, n_params: int, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = np.zeros(n_params)
        self.v = np.zeros(n_params)
        self.t = 0

    def update(self, params: np.ndarray, grad: np.ndarray) -> None:
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        m_hat = self.m / (1.0 - self.beta1 ** self.t)
        v_hat = self.v / (1.0 - self.beta2 ** self.t)
        params -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)


def make_optimizer(run: TrainRunConfig, n_params: int):
    if run.optimizer == OPTIMIZER_ADAM:
        return AdamOptimizer(run.learning_rate, n_params)
    return SgdOptimizer(run.learning_rate)


@dataclass(frozen=True)
class Batch:
    """Transitions for the prediction loss, as (trajectory, time) index
    arrays into ``dataset``, plus one anchor for constraint synthesis."""

    dataset: Dataset
    idx: np.ndarray
    ts: np.ndarray
    anchor_i: int
    anchor_t: int
    base_segment: ActionSegment

    @property
    def start_pose(self) -> Pose2:
        return self.dataset.start_pose(self.anchor_i, self.anchor_t)


def sample_batch(dataset: Dataset, batch_size: int, max_span: int, rng: np.random.Generator) -> Batch:
    idx = rng.integers(0, len(dataset), size=batch_size)
    ts = rng.integers(0, dataset.length, size=batch_size)
    span = int(rng.integers(1, max_span + 1))
    anchor_t = int(rng.integers(0, dataset.length - span + 1))
    anchor_i = int(idx[0])
    return Batch(dataset, idx, ts, anchor_i, anchor_t, dataset.segment(anchor_i, anchor_t, span))


def _encode_columns(features: np.ndarray, encoder: FeatureEncoder,
                    rng: np.random.Generator | None) -> np.ndarray:
    """Encode (4, B) feature columns, plus seeded observation noise."""
    z = encoder.projection @ features
    if encoder.obs_noise_sigma > 0.0:
        if rng is None:
            raise ValueError("observation noise requires a random generator")
        z = z + rng.normal(0.0, encoder.obs_noise_sigma, size=z.shape)
    return z


def batch_columns(batch: Batch, encoder: FeatureEncoder, rng: np.random.Generator | None):
    """(z_in, actions, z_next) columns of a batch; noise is drawn for z_in, then z_next."""
    features, actions = batch.dataset.features, batch.dataset.actions
    z_in = _encode_columns(features[batch.idx, batch.ts].T, encoder, rng)
    z_next = _encode_columns(features[batch.idx, batch.ts + 1].T, encoder, rng)
    return z_in, actions[batch.idx, batch.ts].T, z_next


def prediction_loss_graph(weights, z_in: np.ndarray, actions: np.ndarray, z_next: np.ndarray) -> ag.Tensor:
    """Mean squared latent one-step prediction error over a batch of columns."""
    z_pred = ag.residual_mlp(ag.constant(z_in), actions, weights)
    return ag.scale(ag.sumsq(ag.sub(z_pred, ag.constant(z_next))), 1.0 / z_in.shape[1])


def prediction_loss(net: DynamicsNet, encoder: FeatureEncoder, transitions,
                    rng: np.random.Generator | None = None) -> float:
    """Prediction loss on (pose, action, next pose) transitions."""
    if len(transitions) == 0:
        raise ValueError("prediction loss needs a non-empty batch")
    poses_in, actions, poses_next = zip(*transitions)
    z_in = _encode_columns(np.stack([pose_features(p) for p in poses_in], axis=1), encoder, rng)
    z_next = _encode_columns(np.stack([pose_features(p) for p in poses_next], axis=1), encoder, rng)
    actions = np.stack([a.as_array() for a in actions], axis=1)
    return float(prediction_loss_graph(net.param_tensors(), z_in, actions, z_next).value)


def _teacher_forced_endpoint(weights, z_t: ag.Tensor, segment: ActionSegment,
                             start_pose: Pose2, encoder: FeatureEncoder) -> ag.Tensor:
    """Endpoint with intermediate latents snapped to exact-simulator states.

    Reference states are noiseless encodings of the exact rigid-motion
    rollout of the segment, standing in for ground-truth context.
    """
    z = z_t
    state = start_pose
    for i, a in enumerate(segment):
        if i > 0:
            z_in = ag.constant(encoder.projection @ pose_features(state))
        else:
            z_in = z
        z = net_step_graph(z_in, a, weights)
        state = exact_step(state, a)
    return z


def _endpoint(weights, z_t: ag.Tensor, segment: ActionSegment, cfg: GALossConfig,
              start_pose: Pose2 | None, encoder: FeatureEncoder | None) -> ag.Tensor:
    if cfg.mode == FREE_RUNNING:
        return rollout_endpoint_graph(z_t, segment, weights)
    if start_pose is None or encoder is None:
        raise ValueError("teacher-forced mode needs the anchor pose and the encoder")
    return _teacher_forced_endpoint(weights, z_t, segment, start_pose, encoder)


def ga_loss_graph(weights, z_t: np.ndarray, base_segment: ActionSegment, cfg: GALossConfig,
                  active: str, dirichlet_rng: np.random.Generator | None = None, *,
                  start_pose: Pose2 | None = None,
                  encoder: FeatureEncoder | None = None) -> ag.Tensor:
    """Recorded graph of the active consistency loss from a detached anchor latent."""
    if not 1 <= len(base_segment) <= cfg.max_span:
        raise ValueError(
            f"base segment length {len(base_segment)} outside [1, {cfg.max_span}]"
        )
    anchor = ag.constant(z_t)
    if active == CONSTRAINT_ID:
        seg = make_identity_segment(len(base_segment))
        end = _endpoint(weights, anchor, seg, cfg, start_pose, encoder)
        return ag.sumsq(ag.sub(end, anchor))
    if active == CONSTRAINT_INV:
        seg = make_inverse_segment(base_segment)
        end = _endpoint(weights, anchor, seg, cfg, start_pose, encoder)
        return ag.sumsq(ag.sub(end, anchor))
    if active == CONSTRAINT_COMP:
        u_b = make_compatibility_segment(base_segment, cfg.dirichlet, rng=dirichlet_rng)
        end_a = _endpoint(weights, anchor, base_segment, cfg, start_pose, encoder)
        end_b = _endpoint(weights, anchor, u_b, cfg, start_pose, encoder)
        return ag.sumsq(ag.sub(end_a, end_b))
    raise ValueError(f"unknown constraint: {active!r}")


@dataclass
class TrainStreams:
    """Independent seeded generators, one per source of randomness.

    Keeping the streams separate means changing the global weight or
    skipping an update cannot shift which batches or segments later
    steps see.
    """

    batch: np.random.Generator
    constraint: np.random.Generator
    dirichlet: np.random.Generator
    noise: np.random.Generator

    @staticmethod
    def from_seed(seed: int) -> "TrainStreams":
        gens = [
            np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(k,))))
            for k in (1, 2, 3, 4)
        ]
        return TrainStreams(*gens)


def train_step(net: DynamicsNet, encoder: FeatureEncoder, cfg: GALossConfig,
               batch: Batch, optimizer, streams: TrainStreams) -> GALossValues:
    """One optimizer update on the per-batch objective; returns the losses."""
    z_in, actions, z_next = batch_columns(batch, encoder, streams.noise)
    weights = net.param_tensors()
    pred = prediction_loss_graph(weights, z_in, actions, z_next)

    active = CONSTRAINTS[int(streams.constraint.integers(0, len(CONSTRAINTS)))]
    z_t = encoder.projection @ batch.dataset.features[batch.anchor_i, batch.anchor_t]
    ga = ga_loss_graph(
        weights, z_t, batch.base_segment, cfg, active, dirichlet_rng=streams.dirichlet,
        start_pose=batch.start_pose, encoder=encoder,
    )
    total = ag.add(pred, ag.scale(ga, cfg.lambda_ga * cfg.constraint_weight(active)))
    ag.backward(total)
    optimizer.update(net.params, net.pack_grads(weights))

    value = float(ga.value)
    return GALossValues(
        active_constraint=active,
        l_pred=float(pred.value),
        l_id=value if active == CONSTRAINT_ID else None,
        l_inv=value if active == CONSTRAINT_INV else None,
        l_comp=value if active == CONSTRAINT_COMP else None,
    )


@dataclass(frozen=True)
class LossRow:
    step: int
    active_constraint: str
    l_pred: float
    l_ga: float
    total: float


@dataclass
class TrainResult:
    net: DynamicsNet
    rows: list[LossRow]


def train(run: TrainRunConfig, cfg: GALossConfig, dataset: Dataset,
          encoder: FeatureEncoder, initial_net: DynamicsNet | None = None) -> TrainResult:
    """Run the full training loop; deterministic given (seed, config, dataset).

    With ``initial_net`` the run fine-tunes a copy of the given parameters
    instead of a fresh seeded initialization.
    """
    if initial_net is not None:
        if initial_net.latent_dim != encoder.latent_dim:
            raise ValueError("initial net latent size does not match the encoder")
        net = initial_net.copy()
    else:
        init_ss = np.random.SeedSequence(entropy=run.seed, spawn_key=(0,))
        net = make_dynamics_net(encoder.latent_dim, run.hidden_dim, init_ss, run.init_w1_gain)
    streams = TrainStreams.from_seed(run.seed)
    optimizer = make_optimizer(run, net.params.size)
    rows: list[LossRow] = []
    for step in range(run.steps):
        batch = sample_batch(dataset, run.batch_size, cfg.max_span, streams.batch)
        try:
            values = train_step(net, encoder, cfg, batch, optimizer, streams)
        except ag.NonFiniteGraphError as exc:
            raise NonFiniteLossError(f"non-finite loss at step {step}") from exc
        l_ga = values.active_value()
        total = values.l_pred + cfg.lambda_ga * cfg.constraint_weight(values.active_constraint) * l_ga
        if not math.isfinite(total):
            raise NonFiniteLossError(f"non-finite loss at step {step}")
        rows.append(LossRow(step, values.active_constraint, values.l_pred, l_ga, total))
    return TrainResult(net=net, rows=rows)
