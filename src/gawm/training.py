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
draw as one parameter stack, one ``train_step`` per step; ``train`` is
its one-config case. Every forward step of the network is one call of
``latent.residual_step``, the forward pass the learned model is also
evaluated with: the prediction batch of all rows at once, and the
rollouts of the rows that share a rollout mode as one stack (a mode's
only row on its own).
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import autograd as ag
from .data import Dataset
from .latent import (
    DynamicsNet, FeatureEncoder, block_weights, make_dynamics_net, pose_features, residual_step,
    rollout_endpoint_graph,
)
from .se2 import Pose2, se2_compose
from .segments import (
    DirichletParams, inverse_cycles, keyed_rng, keyed_rngs, recompose, sample_dirichlet_weights,
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
class TrainRunConfig:
    steps: int = 5000
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
    """Transitions for the prediction loss, as (trajectory, time) index arrays
    into ``dataset``, plus one anchor and the (span, 3) action view after it."""

    dataset: Dataset
    idx: np.ndarray
    ts: np.ndarray
    anchor_i: int
    anchor_t: int
    base_segment: np.ndarray

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


def _stack_prediction(weights, z_in: np.ndarray, actions: np.ndarray, z_next: np.ndarray):
    """Every row's mean squared one-step prediction error on shared (d, B)
    columns, from stacked weights (``block_weights``): the (K,)
    losses, the (K, d, B) residuals and the (x, pre, h) cache the backward
    pass reuses."""
    z_pred, cache = residual_step(z_in, actions, weights)
    diff = z_pred - z_next
    l_pred = (diff * diff).reshape(len(diff), -1).sum(axis=1) * (1.0 / z_in.shape[1])
    return l_pred, diff, cache


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
    weights = block_weights(net, net.params[None])
    return float(_stack_prediction(weights, z_in, actions.T, z_next)[0][0])


def _constraint_segments(base_segment: np.ndarray, cfg: GALossConfig, active: str,
                         dirichlet_rng: np.random.Generator) -> list[np.ndarray]:
    """Rollout segments of the active constraint, as (L, 3) action arrays:
    one whose endpoint is compared with the anchor (identity, inverse),
    or two whose endpoints are compared with each other (composition)."""
    l = len(base_segment)
    if not 1 <= l <= cfg.max_span:
        raise ValueError(f"base segment length {l} outside [1, {cfg.max_span}]")
    if active == CONSTRAINT_ID:
        return [np.zeros((l, 3))]
    if active == CONSTRAINT_INV:
        return [inverse_cycles(base_segment)]
    if active == CONSTRAINT_COMP:
        weights = sample_dirichlet_weights(l, cfg.dirichlet, dirichlet_rng)
        return [base_segment, recompose(base_segment, weights)]
    raise ValueError(f"unknown constraint: {active!r}")


def _rollout_plans(segments: list[np.ndarray], mode: str, start_pose: np.ndarray | None,
                   encoder: FeatureEncoder | None) -> list[tuple[np.ndarray | None, np.ndarray]]:
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
        state = start  # exact_step's arithmetic on float rows: the array kernel costs more
        for dx, dy, dtheta in seg[:-1].tolist():
            state = se2_compose(state, Pose2(dtheta, dx, dy))
        features = pose_features(np.array([state.theta, state.x, state.y]))
        plans.append((encoder.projection @ features, seg[-1:]))
    return plans


def ga_loss_graph(weights, z_t: np.ndarray, base_segment: np.ndarray, cfg: GALossConfig,
                  active: str, dirichlet_rng: np.random.Generator, *,
                  start_pose: np.ndarray | None = None,
                  encoder: FeatureEncoder | None = None) -> ag.Tensor:
    """Recorded active consistency loss from a detached anchor latent (the
    gradient reference), for an (L, 3) base segment."""
    anchor = ag.constant(z_t)
    ends = []
    segments = _constraint_segments(base_segment, cfg, active, dirichlet_rng)
    for z_in, steps in _rollout_plans(segments, cfg.mode, start_pose, encoder):
        z = anchor if z_in is None else ag.constant(z_in)
        ends.append(rollout_endpoint_graph(z, steps, weights))
    return ag.sumsq(ag.sub(ends[0], ends[1] if len(ends) == 2 else anchor))


def _rollout_vjp(g: np.ndarray, caches, row: int | None, weights, grads) -> None:
    """Add one rollout chain's weight gradients to ``grads``, last step
    first (the order the tape accumulates them in); the chain's first
    input is a constant, so no gradient leaves it. ``row`` picks the
    row's columns from (n, ., 1) caches; None means vector caches."""
    w1, _, w2, _ = weights
    gw1, gb1, gw2, gb2 = grads
    d = g.shape[0]
    for i in range(len(caches) - 1, -1, -1):
        x, _, h = caches[i]
        if row is not None:
            x, h = x[row, :, 0], h[row, :, 0]
        g_pre = (w2.T @ g) * (1.0 - h * h)
        gw1 += g_pre[:, None] * x
        gb1 += g_pre
        gw2 += g[:, None] * h
        gb2 += g
        if i:
            g = g + (w1.T @ g_pre)[:d]


def _roll_out(plans, z_t: np.ndarray, weights, n: int):
    """The forward pass of one mode's rollout chains, each a (first input,
    actions) plan, for n rows: one row as (d,) vectors on its own
    weights, more as (n, d, 1) blocks on stacked weights
    (``ParamStack.mode_weights``). Returns each chain's per-step caches,
    the endpoint differences as (d,) or (n, d), and whether each row's
    pre-activations are all finite."""
    chains, ends, pres = [], [], []
    for z, actions in plans:
        if n > 1:  # every row starts from the same input and takes the same actions
            z, actions = z[None, :, None].repeat(n, 0), actions[:, None, :, None].repeat(n, 1)
        caches = []
        for a in actions:
            z, cache = residual_step(z, a, weights)
            caches.append(cache)
            pres.append(cache[1])
        chains.append(caches)
        ends.append(z if n == 1 else z[:, :, 0])
    finite = np.isfinite(np.concatenate(pres, axis=-1))
    return (chains, ends[0] - (ends[1] if len(ends) == 2 else z_t),
            finite.all() if n == 1 else finite.all(axis=(1, 2)))


class ParamStack:
    """K parameter rows of one network shape, the loss config each row
    trains under, and a gradient buffer. Weights and gradients are views
    both in stacked form, (K, h, d+3) and so on, and per row. The stacked
    weights hold their biases as columns (``block_weights``)."""

    def __init__(self, net: DynamicsNet, params: np.ndarray, cfgs: list[GALossConfig]):
        self.net = net
        self.params = params
        self.grad = np.empty_like(params)
        self.cfgs = cfgs
        self.weights = block_weights(net, params)
        self.grads = net.views(self.grad)
        self.row_weights = [net.views(p) for p in params]
        self.row_grads = [net.views(g) for g in self.grad]
        # lambda_ga * w_c of each row, multiplied in the order the loss is
        self.active_weights = {
            c: np.array([cfg.lambda_ga * cfg.constraint_weight(c) for cfg in cfgs])
            for c in CONSTRAINTS
        }
        self.mode_rows: dict[str, list[int]] = {}  # each rollout mode's rows
        for k, cfg in enumerate(cfgs):
            self.mode_rows.setdefault(cfg.mode, []).append(k)

    def rows(self, keep: np.ndarray) -> "ParamStack":
        """A stack of the rows where ``keep`` is true, gradients included."""
        kept = ParamStack(self.net, self.params[keep],
                          [cfg for cfg, k in zip(self.cfgs, keep) if k])
        kept.grad[...] = self.grad[keep]
        return kept

    def mode_weights(self, rows: list[int]):
        """The weights ``_roll_out`` takes for ``rows``: one row's own, or
        the stacked weights of every row, or stacked copies of some."""
        if len(rows) == 1:
            return self.row_weights[rows[0]]
        if len(rows) == len(self.cfgs):
            return self.weights
        return tuple(w[rows] for w in self.weights)


def _stack_objective(stack: ParamStack, columns, z_t: np.ndarray, base_segment: np.ndarray,
                     active: str, dirichlet_rng: np.random.Generator,
                     start_pose: np.ndarray | None, encoder: FeatureEncoder | None):
    """Every row's ``l_pred + lambda_ga * w_active * l_ga`` and its
    gradient: returns a (3, K) array of (l_pred, l_ga, total) and a (K,)
    mask of the rows whose losses and pre-activations are all finite. The
    gradients go into ``stack.grad``.

    Closed-form backpropagation through time: the forward pass caches
    (x, pre, h) for the prediction batch and for every rollout step the
    endpoint depends on, and the backward pass reuses them. Each weight
    gradient is summed in the recorded tape's order (prediction first,
    then each rollout chain from its last step back), so a row's result
    is bit-identical to ``prediction_loss_graph`` plus ``ga_loss_graph``
    through ``autograd.backward``. A rollout whose weight is zero still
    runs forward, for its loss value, but adds nothing to the gradient.

    A row fails where the tape raises NonFiniteGraphError. Checking both
    loss scalars and every pre-activation is enough: a non-finite step
    output reaches the next pre-activation or a loss, a non-finite weight
    or input reaches a pre-activation or an output, and a pre-activation
    must be checked itself because tanh saturates an overflow to a finite
    value. Each row's check reads only its own slice of the stacked
    arrays.

    Every forward step goes through ``residual_step``. The prediction
    batch's input is shared, so its forward and backward passes are
    (K, ., B) products. The rows that share a rollout mode share its
    rollout plan. Two or more of them roll out as one stack of (n, ., 1)
    columns, one matrix-vector product per row; a mode's only row rolls
    out alone, on (d,) vectors, which costs less at n = 1. The rollout
    backward runs per row, over views into the stacked caches, and only
    for rows whose active weight is nonzero; a zero weight would add
    only zeros.
    """
    losses = np.empty((3, len(stack.cfgs)))
    segments = _constraint_segments(base_segment, stack.cfgs[0], active, dirichlet_rng)
    plans = {mode: [(z_t if z0 is None else z0, steps)
                    for z0, steps in _rollout_plans(segments, mode, start_pose, encoder)]
             for mode in stack.mode_rows}
    weight = stack.active_weights[active].tolist()
    backward = []  # (row, its mode's chains, its row in their caches, its end difference)
    # A failing row of a stack only clears its bit of ``ok``, so its overflow stays quiet.
    with contextlib.nullcontext() if len(stack.cfgs) == 1 else np.errstate(over="ignore",
                                                                            invalid="ignore"):
        losses[0], diff, (x, pre, h) = _stack_prediction(stack.weights, *columns)
        ok = np.isfinite(pre).all(axis=(1, 2))
        for mode, rows in stack.mode_rows.items():
            chains, end_diff, finite = _roll_out(plans[mode], z_t, stack.mode_weights(rows),
                                                 len(rows))
            stacked = len(rows) > 1  # else the one row rolled out as vectors
            at = rows if stacked else rows[0]
            ok[at] &= finite
            losses[1, at] = (end_diff * end_diff).sum(axis=-1)
            backward += [(k, chains, j, end_diff[j]) if stacked else (k, chains, None, end_diff)
                         for j, k in enumerate(rows) if weight[k]]
        losses[2] = losses[0] + stack.active_weights[active] * losses[1]
    # Both losses are >= 0, so a non-finite one makes the total non-finite.
    ok &= np.isfinite(losses[2])

    # A failed row's gradient is thrown away, so its overflow stays quiet.
    with contextlib.nullcontext() if ok.all() else np.errstate(over="ignore", invalid="ignore"):
        gw1, gb1, gw2, gb2 = stack.grads
        g = (2.0 * (1.0 / x.shape[1])) * diff
        g_pre = np.matmul(stack.weights[2].transpose(0, 2, 1), g) * (1.0 - h * h)
        gw1[...] = np.matmul(g_pre, x.T)
        gb1[...] = g_pre.sum(axis=2)
        gw2[...] = np.matmul(g, h.transpose(0, 2, 1))
        gb2[...] = g.sum(axis=2)
        for k, chains, row, end_diff in backward:
            g = (2.0 * weight[k]) * end_diff
            _rollout_vjp(g, chains[0], row, stack.row_weights[k], stack.row_grads[k])
            if len(chains) == 2:
                _rollout_vjp(-g, chains[1], row, stack.row_weights[k], stack.row_grads[k])
    return losses, ok


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
        return TrainStreams(*keyed_rngs(seed, [(1,), (2,), (3,), (4,)]))


def train_step(stack: ParamStack, encoder: FeatureEncoder, batch: Batch, optimizer,
               streams: TrainStreams) -> tuple[ParamStack, int, np.ndarray, np.ndarray]:
    """One optimizer update of every row of ``stack`` on the batch.

    Draws the step's observation noise, constraint and segment, then
    computes every row's losses and gradient (``_stack_objective``).
    Rows whose loss turns non-finite leave the stack and the optimizer
    before the update. Returns the stack of the rows that remain, the
    active constraint's index into CONSTRAINTS, and the (3, K) losses and
    (K,) finite-row mask of the rows it was given.
    """
    columns = batch_columns(batch, encoder, streams.noise)
    a = int(streams.constraint.integers(0, len(CONSTRAINTS)))
    z_t = encoder.projection @ batch.dataset.features[batch.anchor_i, batch.anchor_t]
    losses, ok = _stack_objective(stack, columns, z_t, batch.base_segment, CONSTRAINTS[a],
                                  streams.dirichlet, batch.start_pose, encoder)
    if not ok.all():
        stack = stack.rows(ok)
        optimizer.select(ok)
    optimizer.update(stack.params, stack.grad)
    return stack, a, losses, ok


LOSS_COLUMNS = ("step", "active_constraint", "l_pred", "l_ga", "total")


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
        """Each step's values in LOSS_COLUMNS order, as Python values."""
        names = [CONSTRAINTS[i] for i in self.active.tolist()]
        return zip(range(len(names)), names, self.l_pred.tolist(), self.l_ga.tolist(),
                   self.total.tolist())


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
        net = make_dynamics_net(encoder.latent_dim, run.hidden_dim, keyed_rng(seed, 0),
                                run.init_w1_gain)
    stack = ParamStack(net, np.tile(net.params, (len(cfgs), 1)), list(cfgs))
    streams = TrainStreams.from_seed(seed)
    optimizer = make_optimizer(run, stack.params.shape)
    rows = np.arange(len(cfgs))  # each stack row's index into cfgs
    active = np.empty(run.steps, dtype=np.int8)
    curves = np.empty((3, len(cfgs), run.steps))  # per stack row
    results: list[TrainResult | NonFiniteLossError | None] = [None] * len(cfgs)
    for step in range(run.steps):
        batch = sample_batch(dataset, run.batch_size, cfg.max_span, streams.batch)
        stack, active[step], curves[:, :, step], ok = train_step(stack, encoder, batch,
                                                                 optimizer, streams)
        if not ok.all():
            for i in rows[~ok]:
                results[i] = NonFiniteLossError(f"non-finite loss at step {step}", step)
            rows, curves = rows[ok], curves[:, ok]
            if rows.size == 0:
                break
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
