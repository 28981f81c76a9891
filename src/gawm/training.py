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
``train_group`` trains several loss configs that share every random
draw as one parameter stack; ``train`` is its one-config case.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field, replace

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
from .models import ExactModel, rollout
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
    """Training aborted because a loss or intermediate became non-finite;
    ``step`` is the step that failed, where the training loop knows it."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


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

    def draw_config(self) -> "GALossConfig":
        """This config with its loss weights and rollout mode reset: the
        part that decides every random draw of a training run. Configs
        that agree on it can train in lockstep (``train_group``)."""
        return replace(self, lambda_id=0.0, lambda_inv=0.0, lambda_comp=0.0, lambda_ga=0.0,
                       mode=FREE_RUNNING)


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
        if self.hidden_dim < 1:
            raise ValueError(f"hidden_dim must be >= 1, got {self.hidden_dim}")
        if self.init_w1_gain <= 0.0 or not math.isfinite(self.init_w1_gain):
            raise ValueError(f"init_w1_gain must be > 0, got {self.init_w1_gain}")


class SgdOptimizer:
    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate

    def update(self, params: np.ndarray, grad: np.ndarray) -> None:
        params -= self.learning_rate * grad

    def select(self, rows: np.ndarray) -> None:
        """Keep only the given rows of a (K, P) parameter stack; SGD has no state."""


class AdamOptimizer:
    """Adaptive-moments first-order method with the standard decay constants.

    ``shape`` is a parameter vector's size, or (K, P) for a stack of K
    vectors. The update is elementwise, so a stack's rows move exactly as
    K separate optimizers would move them.
    """

    def __init__(self, learning_rate: float, shape: int | tuple[int, int], beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0
        self._s1 = np.empty(shape)
        self._s2 = np.empty(shape)

    def select(self, rows: np.ndarray) -> None:
        """Keep only the given rows (an index or boolean mask) of a (K, P) stack."""
        self.m, self.v = self.m[rows], self.v[rows]
        self._s1, self._s2 = np.empty_like(self.m), np.empty_like(self.m)

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


def make_optimizer(run: TrainRunConfig, shape: int | tuple[int, int]):
    if run.optimizer == OPTIMIZER_ADAM:
        return AdamOptimizer(run.learning_rate, shape)
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
    def start_pose(self) -> np.ndarray:
        """The anchor's ``[theta, x, y]`` pose row."""
        return self.dataset.poses[self.anchor_i, self.anchor_t]


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


def prediction_loss(net: DynamicsNet, encoder: FeatureEncoder, poses_in: np.ndarray,
                    actions: np.ndarray, poses_next: np.ndarray,
                    rng: np.random.Generator | None = None) -> float:
    """Prediction loss on B transitions: (B, 3) poses, actions and next poses.
    Observation noise is drawn for the inputs, then for the next poses."""
    if len(poses_in) == 0:
        raise ValueError("prediction loss needs a non-empty batch")
    z_in = _encode_columns(pose_features(poses_in).T, encoder, rng)
    z_next = _encode_columns(pose_features(poses_next).T, encoder, rng)
    return _prediction_forward(net.weights(), z_in, actions.T, z_next)[0]


def _constraint_segments(base_segment: ActionSegment, cfg: GALossConfig, active: str,
                         dirichlet_rng: np.random.Generator) -> list[ActionSegment]:
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
        u_b = make_compatibility_segment(base_segment, cfg.dirichlet, dirichlet_rng)
        return [base_segment, u_b]
    raise ValueError(f"unknown constraint: {active!r}")


def _rollout_plans(segments: list[ActionSegment], mode: str, start_pose: np.ndarray | None,
                   encoder: FeatureEncoder | None) -> list[tuple[np.ndarray | None, ActionSegment]]:
    """The network steps each rollout endpoint depends on: (first input, actions).

    A first input of None means the anchor latent. Free-running rolls the
    whole segment from the anchor. Teacher forcing snaps every later
    step's input to the noiseless encoding of the exact rigid-motion
    state, which stands in for ground-truth context, so only the last
    step reaches the endpoint.
    """
    if mode == FREE_RUNNING:
        return [(None, seg) for seg in segments]
    if start_pose is None or encoder is None:
        raise ValueError("teacher-forced mode needs the anchor pose and the encoder")
    start = Pose2(*start_pose.tolist())
    plans = []
    for seg in segments:
        if len(seg) == 1:
            plans.append((None, seg))
            continue
        # the per-pose fold: a quarter of the array kernel's overhead on one short row
        state = rollout(ExactModel(), start, seg[:-1], None)[-1]
        features = pose_features(np.array([state.theta, state.x, state.y]))
        plans.append((encoder.projection @ features, seg[-1:]))
    return plans


def ga_loss_graph(weights, z_t: np.ndarray, base_segment: ActionSegment, cfg: GALossConfig,
                  active: str, dirichlet_rng: np.random.Generator, *,
                  start_pose: np.ndarray | None = None,
                  encoder: FeatureEncoder | None = None) -> ag.Tensor:
    """Recorded active consistency loss from a detached anchor latent (the
    gradient reference)."""
    anchor = ag.constant(z_t)
    ends = []
    segments = _constraint_segments(base_segment, cfg, active, dirichlet_rng)
    for z_in, steps in _rollout_plans(segments, cfg.mode, start_pose, encoder):
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


class _ParamStack:
    """K parameter rows of one network shape, the loss config each row
    trains under, and a gradient buffer. Weights and gradients are views
    both in stacked form, (K, h, d+3) and so on, and per row."""

    def __init__(self, net: DynamicsNet, params: np.ndarray, cfgs: list[GALossConfig]):
        self.net = net
        self.params = params
        self.grad = np.empty_like(params)
        self.cfgs = cfgs
        self.weights = net.views(params)
        self.grads = net.views(self.grad)
        self.row_weights = [net.views(p) for p in params]
        self.row_grads = [net.views(g) for g in self.grad]
        # lambda_ga * w_c of each row, multiplied in the order the loss is
        self.active_weights = {
            c: np.array([cfg.lambda_ga * cfg.constraint_weight(c) for cfg in cfgs])
            for c in CONSTRAINTS
        }
        self.modes = {cfg.mode for cfg in cfgs}

    def rows(self, keep: np.ndarray) -> "_ParamStack":
        """A stack of the rows where ``keep`` is true, gradients included."""
        kept = _ParamStack(self.net, self.params[keep],
                           [cfg for cfg, k in zip(self.cfgs, keep) if k])
        kept.grad[...] = self.grad[keep]
        return kept


def _stack_objective(stack: _ParamStack, columns, z_t: np.ndarray, base_segment: ActionSegment,
                     active: str, dirichlet_rng: np.random.Generator,
                     start_pose: np.ndarray | None, encoder: FeatureEncoder | None):
    """Every row's ``objective_grad``: a (3, K) array of (l_pred, l_ga,
    total) and a (K,) mask of the rows whose losses and pre-activations
    are all finite. The gradients go into ``stack.grad``.

    The prediction batch's input is shared, so its forward and backward
    passes are stacked products. ``np.matmul`` on a (K, ...) stack runs
    one product per row, which rounds like that row's own ``w @ x``.
    Rollouts depend on each row's weights and run per row; the rollout
    plan is made once per mode.
    """
    z_in, actions, z_next = columns
    w1, b1, w2, b2 = stack.weights
    k_rows, n = len(stack.cfgs), z_in.shape[1]
    x = np.concatenate([z_in, actions], axis=0)
    pre = np.matmul(w1, x) + b1[:, :, None]
    h = np.tanh(pre)
    diff = (z_in + (np.matmul(w2, h) + b2[:, :, None])) - z_next
    losses = np.empty((3, k_rows))
    losses[0] = (diff * diff).reshape(k_rows, -1).sum(axis=1) * (1.0 / n)
    ok = np.isfinite(pre).all(axis=(1, 2))

    segments = _constraint_segments(base_segment, stack.cfgs[0], active, dirichlet_rng)
    plans = {mode: [(z_t if z0 is None else z0, steps.array)
                    for z0, steps in _rollout_plans(segments, mode, start_pose, encoder)]
             for mode in stack.modes}
    chains, end_diffs = [], []
    for k, (cfg, weights) in enumerate(zip(stack.cfgs, stack.row_weights)):
        row_chains, ends, pres = [], [], []
        for z, steps in plans[cfg.mode]:
            caches = []
            for a in steps:
                z, cache = _mlp_forward(z, a, weights)
                caches.append(cache)
                pres.append(cache[1])
            row_chains.append(caches)
            ends.append(z)
        ok[k] &= np.isfinite(np.concatenate(pres)).all()
        end_diff = ends[0] - (ends[1] if len(ends) == 2 else z_t)
        losses[1, k] = np.sum(end_diff * end_diff)
        chains.append(row_chains)
        end_diffs.append(end_diff)
    weight = stack.active_weights[active]
    losses[2] = losses[0] + weight * losses[1]
    # Both losses are >= 0, so a non-finite one makes the total non-finite.
    ok &= np.isfinite(losses[2])

    # A failed row's gradient is thrown away, so its overflow stays quiet.
    with contextlib.nullcontext() if ok.all() else np.errstate(over="ignore", invalid="ignore"):
        gw1, gb1, gw2, gb2 = stack.grads
        g = (2.0 * (1.0 / n)) * diff
        g_pre = np.matmul(w2.transpose(0, 2, 1), g) * (1.0 - h * h)
        gw1[...] = np.matmul(g_pre, x.T)
        gb1[...] = g_pre.sum(axis=2)
        gw2[...] = np.matmul(g, h.transpose(0, 2, 1))
        gb2[...] = g.sum(axis=2)
        for k, w in enumerate(weight.tolist()):
            if w == 0.0:
                continue
            g = (2.0 * w) * end_diffs[k]
            _rollout_vjp(g, chains[k][0], stack.row_weights[k], stack.row_grads[k])
            if len(chains[k]) == 2:
                _rollout_vjp(-g, chains[k][1], stack.row_weights[k], stack.row_grads[k])
    return losses, ok


def objective_grad(net: DynamicsNet, columns, z_t: np.ndarray, base_segment: ActionSegment,
                   cfg: GALossConfig, active: str, dirichlet_rng: np.random.Generator, *,
                   start_pose: np.ndarray | None = None,
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
    stack = _ParamStack(net, net.params[None], [cfg])
    losses, ok = _stack_objective(stack, columns, z_t, base_segment, active, dirichlet_rng,
                                  start_pose, encoder)
    if not ok[0]:
        raise NonFiniteLossError("non-finite loss or pre-activation")
    return float(losses[0, 0]), float(losses[1, 0]), stack.grad[0]


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


def _stack_step(stack: _ParamStack, encoder: FeatureEncoder, batch: Batch,
                streams: TrainStreams) -> tuple[int, np.ndarray, np.ndarray]:
    """One step's draws, then every row's losses and gradient: returns the
    active constraint's index into CONSTRAINTS and ``_stack_objective``'s
    losses and finite-row mask."""
    columns = batch_columns(batch, encoder, streams.noise)
    a = int(streams.constraint.integers(0, len(CONSTRAINTS)))
    z_t = encoder.projection @ batch.dataset.features[batch.anchor_i, batch.anchor_t]
    losses, ok = _stack_objective(stack, columns, z_t, batch.base_segment, CONSTRAINTS[a],
                                  streams.dirichlet, batch.start_pose, encoder)
    return a, losses, ok


def train_step(net: DynamicsNet, encoder: FeatureEncoder, cfg: GALossConfig,
               batch: Batch, optimizer, streams: TrainStreams) -> GALossValues:
    """One optimizer update on the per-batch objective; returns the losses."""
    stack = _ParamStack(net, net.params[None], [cfg])
    a, losses, ok = _stack_step(stack, encoder, batch, streams)
    if not ok[0]:
        raise NonFiniteLossError("non-finite loss or pre-activation")
    optimizer.update(net.params, stack.grad[0])
    active, value = CONSTRAINTS[a], float(losses[1, 0])
    return GALossValues(active, float(losses[0, 0]),
                        *(value if active == c else None for c in CONSTRAINTS))


@dataclass(frozen=True)
class LossRow:
    step: int
    active_constraint: str
    l_pred: float
    l_ga: float
    total: float


@dataclass
class TrainResult:
    """A trained net and its loss curve as columns, one entry per step:
    the active constraint's index into CONSTRAINTS, l_pred, l_ga and total."""

    net: DynamicsNet
    active: np.ndarray
    l_pred: np.ndarray
    l_ga: np.ndarray
    total: np.ndarray

    def row_tuples(self):
        """Each step's (step, active_constraint, l_pred, l_ga, total), as Python values."""
        names = [CONSTRAINTS[i] for i in self.active.tolist()]
        return zip(range(len(names)), names, self.l_pred.tolist(), self.l_ga.tolist(),
                   self.total.tolist())

    @property
    def rows(self) -> list[LossRow]:
        return [LossRow(*row) for row in self.row_tuples()]


def train_group(run: TrainRunConfig, cfgs: list[GALossConfig], dataset: Dataset,
                encoder: FeatureEncoder, seed: int,
                initial_net: DynamicsNet | None = None) -> list[TrainResult | NonFiniteLossError]:
    """Train one run per loss config in lockstep, as one (K, P) parameter stack.

    The configs must agree on ``draw_config()``, so they differ only in
    loss weights and rollout mode. Every row then draws the same batch,
    noise, constraint and segment at each step, and the step draws them
    once. The optimizer update is elementwise, so one update of the stack
    moves each row as its own run would. Row k's net and loss curve equal
    a run of ``cfgs[k]`` on its own bit for bit.

    A row whose loss turns non-finite leaves the stack without touching
    the other rows; its entry is the NonFiniteLossError that its own run
    raises. Deterministic given (seed, configs, dataset): ``seed`` derives
    the initialization and every random stream (``TrainStreams``). With
    ``initial_net`` every row starts from a copy of the given parameters
    instead of a fresh seeded initialization.
    """
    if not cfgs:
        raise ValueError("train_group needs at least one loss config")
    cfg = cfgs[0]
    if any(c.draw_config() != cfg.draw_config() for c in cfgs):
        raise ValueError("lockstep configs may differ only in loss weights and rollout mode")
    if cfg.max_span > dataset.length:
        raise ValueError(
            f"ga.max_span {cfg.max_span} exceeds the dataset trajectory length {dataset.length}"
        )
    if initial_net is not None:
        if initial_net.latent_dim != encoder.latent_dim:
            raise ValueError("initial net latent size does not match the encoder")
        net = initial_net
    else:
        init_ss = np.random.SeedSequence(entropy=seed, spawn_key=(0,))
        net = make_dynamics_net(encoder.latent_dim, run.hidden_dim, init_ss, run.init_w1_gain)
    stack = _ParamStack(net, np.tile(net.params, (len(cfgs), 1)), list(cfgs))
    streams = TrainStreams.from_seed(seed)
    optimizer = make_optimizer(run, stack.params.shape)
    rows = np.arange(len(cfgs))  # each stack row's index into cfgs
    active = np.empty(run.steps, dtype=np.int8)
    curves = np.empty((3, len(cfgs), run.steps))  # per stack row
    results: list[TrainResult | NonFiniteLossError | None] = [None] * len(cfgs)
    for step in range(run.steps):
        batch = sample_batch(dataset, run.batch_size, cfg.max_span, streams.batch)
        active[step], curves[:, :, step], ok = _stack_step(stack, encoder, batch, streams)
        if not ok.all():
            for i in rows[~ok]:
                results[i] = NonFiniteLossError(f"non-finite loss at step {step}", step)
            rows, stack, curves = rows[ok], stack.rows(ok), curves[:, ok]
            optimizer.select(ok)
            if rows.size == 0:
                break
        optimizer.update(stack.params, stack.grad)
    for row, i in enumerate(rows):
        trained = DynamicsNet(net.latent_dim, net.hidden_dim, stack.params[row].copy())
        results[i] = TrainResult(trained, active, *curves[:, row])
    return results


def train(run: TrainRunConfig, cfg: GALossConfig, dataset: Dataset,
          encoder: FeatureEncoder, seed: int,
          initial_net: DynamicsNet | None = None) -> TrainResult:
    """Run the full training loop: ``train_group`` with the one config.

    Deterministic given (seed, config, dataset). With ``initial_net`` the
    run fine-tunes a copy of the given parameters instead of a fresh
    seeded initialization.
    """
    (result,) = train_group(run, [cfg], dataset, encoder, seed, initial_net)
    if isinstance(result, NonFiniteLossError):
        raise result
    return result
