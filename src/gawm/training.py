"""Composite training objective: one-step prediction loss plus latent
consistency regularization on synthesized segments.

Each batch activates exactly one consistency constraint (identity,
inverse, or composition), sampled uniformly; the expected per-batch
objective therefore matches the full three-term objective at one third
of the global weight, and zero-weighted constraints simply contribute
nothing when drawn. Gradients flow only through the sampled local
rollout; the anchor latent is a detached constant.

Training computes the gradient in closed form, by backpropagation
through time over the unrolled residual MLP. The ``*_graph`` functions
record the same objective on the autograd tape, as its reference.
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
        self._s1 = np.empty(n_params)
        self._s2 = np.empty(n_params)

    def update(self, params: np.ndarray, grad: np.ndarray) -> None:
        """In place, in the operation order of
        ``m = b1*m + (1-b1)*g``, ``v = b2*v + ((1-b2)*g)*g`` and
        ``p -= (lr*m_hat) / (sqrt(v_hat)+eps)``, so results are bit-identical."""
        self.t += 1
        s1, s2 = self._s1, self._s2
        self.m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=s1)
        self.m += s1
        self.v *= self.beta2
        np.multiply(grad, 1.0 - self.beta2, out=s1)
        s1 *= grad
        self.v += s1
        np.divide(self.m, 1.0 - self.beta1 ** self.t, out=s1)
        s1 *= self.learning_rate
        np.divide(self.v, 1.0 - self.beta2 ** self.t, out=s2)
        np.sqrt(s2, out=s2)
        s2 += self.eps
        s1 /= s2
        params -= s1


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


def _mlp_forward(z: np.ndarray, extra: np.ndarray, weights):
    """One residual step on a (d,) vector or a (d, B) batch of columns.

    Returns the output and the (x, pre, h) cache the backward pass reuses.
    The sum keeps the association ``z + ((w2 @ h) + b2)`` of the recorded
    step: reassociating it moves loss curves and checkpoints in their last
    bits.
    """
    w1, b1, w2, b2 = weights
    if z.ndim == 2:
        b1, b2 = b1[:, None], b2[:, None]
    x = np.concatenate([z, extra], axis=0)
    pre = w1 @ x + b1
    h = np.tanh(pre)
    return z + ((w2 @ h) + b2), (x, pre, h)


def _prediction_forward(weights, z_in: np.ndarray, actions: np.ndarray, z_next: np.ndarray):
    """Mean squared one-step prediction error, the residual and the step cache."""
    z_pred, cache = _mlp_forward(z_in, actions, weights)
    diff = z_pred - z_next
    return float(np.sum(diff * diff) * (1.0 / z_in.shape[1])), diff, cache


def prediction_loss_graph(weights, z_in: np.ndarray, actions: np.ndarray, z_next: np.ndarray) -> ag.Tensor:
    """Recorded prediction loss over a batch of columns (the gradient reference)."""
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
    return _prediction_forward(net.weights(), z_in, actions, z_next)[0]


def _constraint_segments(base_segment: ActionSegment, cfg: GALossConfig, active: str,
                         dirichlet_rng: np.random.Generator | None) -> list[ActionSegment]:
    """Rollout segments of the active constraint: one whose endpoint is
    compared with the anchor (identity, inverse), or two whose endpoints
    are compared with each other (composition)."""
    if not 1 <= len(base_segment) <= cfg.max_span:
        raise ValueError(
            f"base segment length {len(base_segment)} outside [1, {cfg.max_span}]"
        )
    if active == CONSTRAINT_ID:
        return [make_identity_segment(len(base_segment))]
    if active == CONSTRAINT_INV:
        return [make_inverse_segment(base_segment)]
    if active == CONSTRAINT_COMP:
        u_b = make_compatibility_segment(base_segment, cfg.dirichlet, rng=dirichlet_rng)
        return [base_segment, u_b]
    raise ValueError(f"unknown constraint: {active!r}")


def _rollout_plan(segment: ActionSegment, cfg: GALossConfig, start_pose: Pose2 | None,
                  encoder: FeatureEncoder | None) -> tuple[np.ndarray | None, ActionSegment]:
    """The network steps a rollout endpoint depends on: (first input, actions).

    A first input of None means the anchor latent. Free-running rolls the
    whole segment from the anchor. Teacher forcing snaps every later
    step's input to the noiseless encoding of the exact rigid-motion
    state, which stands in for ground-truth context, so only the last
    step reaches the endpoint.
    """
    if cfg.mode == FREE_RUNNING:
        return None, segment
    if start_pose is None or encoder is None:
        raise ValueError("teacher-forced mode needs the anchor pose and the encoder")
    if len(segment) == 1:
        return None, segment
    state = start_pose
    for a in segment[:-1]:
        state = exact_step(state, a)
    return encoder.projection @ pose_features(state), segment[-1:]


def ga_loss_graph(weights, z_t: np.ndarray, base_segment: ActionSegment, cfg: GALossConfig,
                  active: str, dirichlet_rng: np.random.Generator | None = None, *,
                  start_pose: Pose2 | None = None,
                  encoder: FeatureEncoder | None = None) -> ag.Tensor:
    """Recorded active consistency loss from a detached anchor latent (the
    gradient reference)."""
    anchor = ag.constant(z_t)
    ends = []
    for seg in _constraint_segments(base_segment, cfg, active, dirichlet_rng):
        z_in, steps = _rollout_plan(seg, cfg, start_pose, encoder)
        z = anchor if z_in is None else ag.constant(z_in)
        ends.append(rollout_endpoint_graph(z, steps, weights))
    return ag.sumsq(ag.sub(ends[0], ends[1] if len(ends) == 2 else anchor))


def _rollout_vjp(g: np.ndarray, caches, weights, grads) -> None:
    """Add one rollout chain's weight gradients to ``grads``, last step
    first (the order the tape accumulates them in); the chain's first
    input is a constant, so no gradient leaves it."""
    w1, _, w2, _ = weights
    gw1, gb1, gw2, gb2 = grads
    d = g.shape[0]
    for i in range(len(caches) - 1, -1, -1):
        x, _, h = caches[i]
        g_pre = (w2.T @ g) * (1.0 - h * h)
        gw1 += g_pre[:, None] * x
        gb1 += g_pre
        gw2 += g[:, None] * h
        gb2 += g
        if i:
            g = g + (w1.T @ g_pre)[:d]


def objective_grad(net: DynamicsNet, columns, z_t: np.ndarray, base_segment: ActionSegment,
                   cfg: GALossConfig, active: str,
                   dirichlet_rng: np.random.Generator | None = None, *,
                   start_pose: Pose2 | None = None,
                   encoder: FeatureEncoder | None = None) -> tuple[float, float, np.ndarray]:
    """(l_pred, l_ga, flat gradient) of ``l_pred + lambda_ga * w_active * l_ga``.

    Closed-form backpropagation through time: the forward pass caches
    (x, pre, h) for the prediction batch and for every rollout step the
    endpoint depends on, and the backward pass reuses them. Each weight
    gradient is summed in the recorded tape's order (prediction first,
    then each rollout chain from its last step back), so the result is
    bit-identical to ``prediction_loss_graph`` plus ``ga_loss_graph``
    through ``autograd.backward``. A rollout whose weight is zero still
    runs forward, for its loss value, but adds nothing to the gradient.

    Raises NonFiniteLossError where the tape raises NonFiniteGraphError.
    Checking both loss scalars and every pre-activation is enough: a
    non-finite step output reaches the next pre-activation or a loss, a
    non-finite weight or input reaches a pre-activation or an output, and
    a pre-activation must be checked itself because tanh saturates an
    overflow to a finite value.
    """
    weights = net.weights()
    w2 = weights[2]
    l_pred, diff, cache = _prediction_forward(weights, *columns)
    pres = [cache[1]]
    chains, ends = [], []
    for seg in _constraint_segments(base_segment, cfg, active, dirichlet_rng):
        z, steps = _rollout_plan(seg, cfg, start_pose, encoder)
        z = z_t if z is None else z
        caches = []
        for a in steps:
            z, step_cache = _mlp_forward(z, a.as_array(), weights)
            caches.append(step_cache)
            pres.append(step_cache[1])
        chains.append(caches)
        ends.append(z)
    end_diff = ends[0] - (ends[1] if len(ends) == 2 else z_t)
    l_ga = float(np.sum(end_diff * end_diff))
    weight = cfg.lambda_ga * cfg.constraint_weight(active)
    losses_finite = math.isfinite(l_pred) and math.isfinite(l_ga) and math.isfinite(
        l_pred + weight * l_ga)
    if not (losses_finite and all(np.isfinite(p).all() for p in pres)):
        raise NonFiniteLossError("non-finite loss or pre-activation")

    grad = np.empty_like(net.params)
    grads = net.views(grad)
    gw1, gb1, gw2, gb2 = grads
    x, _, h = cache
    g = (2.0 * (1.0 / diff.shape[1])) * diff
    g_pre = (w2.T @ g) * (1.0 - h * h)
    gw1[...] = g_pre @ x.T
    gb1[...] = g_pre.sum(axis=1)
    gw2[...] = g @ h.T
    gb2[...] = g.sum(axis=1)
    if weight != 0.0:
        g = (2.0 * weight) * end_diff
        _rollout_vjp(g, chains[0], weights, grads)
        if len(chains) == 2:
            _rollout_vjp(-g, chains[1], weights, grads)
    return l_pred, l_ga, grad


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
    columns = batch_columns(batch, encoder, streams.noise)
    active = CONSTRAINTS[int(streams.constraint.integers(0, len(CONSTRAINTS)))]
    z_t = encoder.projection @ batch.dataset.features[batch.anchor_i, batch.anchor_t]
    l_pred, value, grad = objective_grad(
        net, columns, z_t, batch.base_segment, cfg, active, dirichlet_rng=streams.dirichlet,
        start_pose=batch.start_pose, encoder=encoder,
    )
    optimizer.update(net.params, grad)
    return GALossValues(
        active_constraint=active,
        l_pred=l_pred,
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
        except NonFiniteLossError as exc:
            raise NonFiniteLossError(f"non-finite loss at step {step}") from exc
        l_ga = values.active_value()
        total = values.l_pred + cfg.lambda_ga * cfg.constraint_weight(values.active_constraint) * l_ga
        if not math.isfinite(total):
            raise NonFiniteLossError(f"non-finite loss at step {step}")
        rows.append(LossRow(step, values.active_constraint, values.l_pred, l_ga, total))
    return TrainResult(net=net, rows=rows)
