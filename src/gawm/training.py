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
draw as one parameter stack, one ``train_step`` per step; a single run
is its one-config case. What a step reads besides the parameters (its
batch, observation noise, constraint and rollout chains) is drawn and
built ``INPUT_CHUNK_STEPS`` steps at a time, ahead of the steps, as one
``Chunk`` record (``_chunk_inputs``): every stream draws in the order the
steps would draw one at a time, and every product rounds as its
per-step form, so a step runs only its parameter arithmetic and the
optimizer update. Every forward step of the network is one call of
``latent.residual_step``, the forward pass the learned model is also
evaluated with: the prediction batch of all rows at once, and the
rollouts of the rows that share a rollout mode as one stack (a mode's
only row on its own).

A rollout mode whose rows weight no constraint (loss-only, as a
pretrain with ``lambda_ga = 0`` is) backpropagates nothing through its
rollouts; they give only the loss curve's l_ga and its finiteness check.
So its steps skip them: each step copies the parameters it reads into
the mode's snapshot, and the chunk's chains roll out together after its
steps (``_loss_only_rollouts``), bit for bit as per-step rollouts. A
failure known at a step still stops the run there, after the rollouts
of the chunk's steps so far.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import autograd as ag
from .data import Dataset
from .domains import MAX_SCALE, Checked, bounded
from .latent import (
    DynamicsNet, FeatureEncoder, _encode_rows, block_weights, make_dynamics_net, pose_features,
    residual_step, rollout_endpoint_graph,
)
from .se2 import apply_increments, wrap_angles
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
    """Training aborted because a loss or intermediate became non-finite
    at ``step``."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step

    def __reduce__(self):  # a worker process's error is rebuilt with its step
        return type(self), (str(self), self.step)


@dataclass(frozen=True)
class GALossConfig(Checked):
    lambda_id: float = bounded(1.0, 0.0)
    lambda_inv: float = bounded(1.0, 0.0)
    lambda_comp: float = bounded(1.0, 0.0)
    lambda_ga: float = bounded(0.5, 0.0)
    max_span: int = bounded(4, 1)
    dirichlet: DirichletParams = field(default_factory=DirichletParams)
    mode: str = FREE_RUNNING

    def __post_init__(self):
        super().__post_init__()
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
class TrainRunConfig(Checked):
    steps: int = bounded(5000, 1)
    batch_size: int = bounded(32, 1)
    learning_rate: float = bounded(1e-3, 0.0)
    optimizer: str = OPTIMIZER_ADAM
    dataset_path: str | None = None
    hidden_dim: int = bounded(64, 1)
    init_checkpoint: str | None = None
    init_w1_gain: float = bounded(1.0, 0.0, MAX_SCALE, strict=True)

    def __post_init__(self):
        super().__post_init__()
        if self.optimizer not in (OPTIMIZER_ADAM, OPTIMIZER_SGD):
            raise ValueError(f"unknown optimizer: {self.optimizer!r}")


class SgdOptimizer:
    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate

    def update(self, params: np.ndarray, grad: np.ndarray) -> None:
        params -= self.learning_rate * grad


class AdamOptimizer:
    """Adaptive-moments first-order method with the standard decay constants.

    ``shape`` is a parameter vector's size, or (K, P) for a stack of K
    vectors. The update is elementwise, so a stack's rows move exactly as
    K separate optimizers would move them. The moments ``m`` and ``v``
    are the two rows of one buffer, so one decay, one gain product and
    one sum update both.
    """

    def __init__(self, learning_rate: float, shape: int | tuple[int, int], beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.moments = np.zeros((2, *np.atleast_1d(shape)))
        self.m, self.v = self.moments
        self.t = 0
        self._scratch = np.empty_like(self.moments)
        column = (2,) + (1,) * (self.moments.ndim - 1)
        self._decay = np.array([beta1, beta2]).reshape(column)
        self._gain = np.array([1.0 - beta1, 1.0 - beta2]).reshape(column)

    def update(self, params: np.ndarray, grad: np.ndarray) -> None:
        """In place, in the operation order of
        ``m = b1*m + (1-b1)*g``, ``v = b2*v + ((1-b2)*g)*g`` and
        ``p -= (lr*m_hat) / (sqrt(v_hat)+eps)``, so results are bit-identical."""
        self.t += 1
        s1, s2 = self._scratch
        self.moments *= self._decay
        np.multiply(grad, self._gain, out=self._scratch)
        s2 *= grad
        self.moments += self._scratch
        bias1 = 1.0 - self.beta1 ** self.t
        if bias1 == 1.0:  # from t = 356 at beta1 = 0.9; m / 1.0 is m
            np.multiply(self.m, self.learning_rate, out=s1)
        else:
            np.divide(self.m, bias1, out=s1)
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


def sample_batch(dataset: Dataset, batch_size: int, max_span: int, rng: np.random.Generator,
                 steps: int):
    """The batch draws of ``steps`` training steps, in step order. A step
    draws its B trajectory indices, its B time indices and its anchor's
    span as one call over those 2B + 1 bounds, then the anchor's time.
    Returns (steps, B) trajectory and time indices of the prediction
    batches, and (steps,) anchor trajectories (each step's first
    trajectory index), anchor times and spans.

    The draws map one block of the generator's raw 64-bit words as
    ``Generator.integers`` maps its 32-bit draws, by Lemire's
    bounded-integer rule: a pending 32-bit half first, then each word's
    low half before its high half. The generator is left in the state the
    per-step calls leave. Where the rule would reject a draw, or a bound
    admits one value (which draws nothing), the generator is restored and
    the steps draw with the per-step calls, as they do on a generator of
    32-bit words."""
    b, length = batch_size, dataset.length
    width = 2 * b + 2  # a step's draws: B trajectories, B times, its span and anchor time
    bits = rng.bit_generator
    saved = bits.state
    if "has_uint32" not in saved:  # a generator of 32-bit words, MT19937
        return _per_step_batches(dataset, b, max_span, rng, steps)
    pending = saved["has_uint32"]
    words = bits.random_raw((steps * width - pending + 1) // 2)
    halves = np.empty(2 * len(words) + pending, dtype=np.uint64)
    halves[0] = saved["uinteger"]
    halves[pending::2] = words & 0xFFFFFFFF
    halves[pending + 1::2] = words >> 32
    uniform = halves[:steps * width].reshape(steps, width)
    ranges = np.empty_like(uniform)
    ranges[:] = [len(dataset)] * b + [length] * b + [max_span, 0]
    ranges[:, -1] = length - ((uniform[:, -2] * max_span) >> 32)  # length - span + 1
    draws = uniform * ranges
    if (((ranges < 2) | (ranges >= 2**32)).any()
            or ((draws & 0xFFFFFFFF) < (2**32 - ranges) % ranges).any()):
        bits.state = saved
        return _per_step_batches(dataset, b, max_span, rng, steps)
    state = bits.state
    state.update(has_uint32=len(halves) - draws.size, uinteger=int(halves[-1]))
    bits.state = state
    draws = (draws >> 32).astype(np.int64)
    spans = draws[:, -2] + 1
    return draws[:, :b], draws[:, b:2 * b], draws[:, 0], draws[:, -1], spans


def _per_step_batches(dataset: Dataset, b: int, max_span: int, rng: np.random.Generator,
                      steps: int):
    """``sample_batch`` by the per-step calls."""
    length = dataset.length
    highs = np.array([len(dataset)] * b + [length] * b + [max_span + 1])
    lows = np.zeros_like(highs)
    lows[-1] = 1
    draws = np.empty((steps, 2 * b + 1), dtype=np.int64)
    anchor_t = np.empty(steps, dtype=np.int64)
    for k in range(steps):
        draws[k] = rng.integers(lows, highs)
        anchor_t[k] = rng.integers(0, length - draws[k, -1] + 1)
    return draws[:, :b], draws[:, b:-1], draws[:, 0], anchor_t, draws[:, -1]


def _encode_columns(features: np.ndarray, encoder: FeatureEncoder,
                    rng: np.random.Generator | None) -> np.ndarray:
    """Encode (4, B) feature columns, plus seeded observation noise."""
    z = encoder.projection @ features
    if encoder.obs_noise_sigma > 0.0:
        if rng is None:
            raise ValueError("observation noise requires a random generator")
        z = z + rng.normal(0.0, encoder.obs_noise_sigma, size=z.shape)
    return z


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


def _constraint_segments(windows: np.ndarray, active: str,
                         dirichlet: np.ndarray | None) -> list[np.ndarray]:
    """Rollout segments of the active constraint for an (m, L, 3) stack of
    base windows, as (m, L', 3) stacks: one whose endpoints are compared
    with the anchors (identity, inverse), or two whose endpoints are
    compared with each other (composition, which recomposes each window
    with its row of the (m, L) Dirichlet weights)."""
    if active == CONSTRAINT_ID:
        return [np.zeros(windows.shape)]
    if active == CONSTRAINT_INV:
        return [inverse_cycles(windows)]
    if active == CONSTRAINT_COMP:
        return [windows, recompose(windows, dirichlet)]
    raise ValueError(f"unknown constraint: {active!r}")


def ga_loss_graph(weights, z_t: np.ndarray, base_segment: np.ndarray, cfg: GALossConfig,
                  active: str, dirichlet_rng: np.random.Generator, *,
                  start_pose: np.ndarray | None = None,
                  encoder: FeatureEncoder | None = None) -> ag.Tensor:
    """Recorded active consistency loss from a detached anchor latent (the
    gradient reference), for an (L, 3) base segment; a composition draws
    its Dirichlet weights from ``dirichlet_rng``."""
    l = len(base_segment)
    if not 1 <= l <= cfg.max_span:
        raise ValueError(f"base segment length {l} outside [1, {cfg.max_span}]")
    dirichlet = None
    if active == CONSTRAINT_COMP:
        dirichlet = sample_dirichlet_weights(l, cfg.dirichlet, dirichlet_rng)[None]
    segments = _constraint_segments(base_segment[None], active, dirichlet)
    chains, step = _chunk_chains([(np.arange(1), segments)], z_t[None])
    if cfg.mode == TEACHER_FORCED:
        if start_pose is None or encoder is None:
            raise ValueError("teacher-forced mode needs the anchor pose and the encoder")
        start = np.array(start_pose, dtype=np.float64)[None]
        start[:, 0] = wrap_angles(start[:, 0])  # as Pose2 holds it
        chains = _teacher_forced(chains, start[step], encoder)
    ends = [rollout_endpoint_graph(ag.constant(z), a[:n], weights)
            for z, a, n in zip(chains.z, chains.actions, chains.lengths)]
    return ag.sumsq(ag.sub(ends[0], ends[1] if len(ends) == 2 else ag.constant(z_t)))


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


def _roll_out(chains: "ChunkChains", k: int, z_t: np.ndarray, weights, n: int):
    """The forward pass of step k's one or two rollout chains, read as
    views of their rows in a chunk's ``ChunkChains``, for n rows: one row
    as (d,) vectors on its own weights, more as (n, d, 1) blocks on
    stacked weights (``ParamStack.mode_weights``). Returns each chain's
    per-step caches, the endpoint differences as (d,) or (n, d), and
    whether each row's pre-activations are all finite."""
    caches_of, ends, pres = [], [], []
    first = chains.first[k]
    for i in range(first, first + 1 + chains.paired[k]):
        z, actions = chains.z[i], chains.actions[i, : chains.lengths[i]]
        if n > 1:  # every row starts from the same input and takes the same actions
            z, actions = z[None, :, None].repeat(n, 0), actions[:, None, :, None].repeat(n, 1)
        caches = []
        for a in actions:
            z, cache = residual_step(z, a, weights)
            caches.append(cache)
            pres.append(cache[1])
        caches_of.append(caches)
        ends.append(z if n == 1 else z[:, :, 0])
    finite = np.isfinite(np.concatenate(pres, axis=-1))
    return (caches_of, ends[0] - (ends[1] if len(ends) == 2 else z_t),
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
        # whether each mode is loss-only: no row of it ever weights its rollouts
        self.loss_only = {mode: not any(w[rows].any() for w in self.active_weights.values())
                          for mode, rows in self.mode_rows.items()}

    def mode_weights(self, rows: list[int]):
        """The weights ``_roll_out`` takes for ``rows``: one row's own, or
        the stacked weights of every row, or stacked copies of some."""
        if len(rows) == 1:
            return self.row_weights[rows[0]]
        if len(rows) == len(self.cfgs):
            return self.weights
        return tuple(w[rows] for w in self.weights)


def _stack_objective(stack: ParamStack, chunk: "Chunk", k: int):
    """Every row's ``l_pred + lambda_ga * w_active * l_ga`` on step k of
    ``chunk`` and its gradient: returns a (3, K) array of
    (l_pred, l_ga, total) and a (K,) mask of the rows whose losses and
    pre-activations are all finite. The gradients go into ``stack.grad``.

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
    arrays, and a failed row's values reach no other row. Its overflow
    warns unless the caller silences it (``train_group`` does).

    Every forward step goes through ``residual_step``. The prediction
    batch's input is shared, so its forward and backward passes are
    (K, ., B) products. The rows that share a rollout mode share its
    rollout chains. Two or more of them roll out as one stack of (n, ., 1)
    columns, one matrix-vector product per row; a mode's only row rolls
    out alone, on (d,) vectors, which costs less at n = 1. The rollout
    backward runs per row, over views into the stacked caches, and only
    for rows whose active weight is nonzero; a zero weight would add
    only zeros. A loss-only mode (``ParamStack.loss_only``) rolls out
    nothing here, and its rows read an l_ga of 0.0: ``train_group`` rolls
    its chains out once per chunk and fills in its l_ga and total.
    """
    losses = np.empty((3, len(stack.cfgs)))
    active_weight = stack.active_weights[CONSTRAINTS[chunk.active[k]]]
    weight = active_weight.tolist()
    z_in, z_next = chunk.latents[k]
    z_t = chunk.z_t[k]
    backward = []  # (row, its mode's chains, its row in their caches, its end difference)
    losses[0], diff, (x, pre, h) = _stack_prediction(stack.weights, z_in, chunk.actions[k], z_next)
    ok = np.isfinite(pre).all(axis=(1, 2))
    for mode, rows in stack.mode_rows.items():
        if stack.loss_only[mode]:  # rolled out once per chunk by train_group
            losses[1, rows] = 0.0
            continue
        chains, end_diff, finite = _roll_out(chunk.chains[mode], k, z_t,
                                             stack.mode_weights(rows), len(rows))
        stacked = len(rows) > 1  # else the one row rolled out as vectors
        at = rows if stacked else rows[0]
        ok[at] &= finite
        losses[1, at] = (end_diff * end_diff).sum(axis=-1)
        backward += [(i, chains, j, end_diff[j]) if stacked else (i, chains, None, end_diff)
                     for j, i in enumerate(rows) if weight[i]]
    losses[2] = losses[0] + active_weight * losses[1]
    # Both losses are >= 0, so a non-finite one makes the total non-finite.
    ok &= np.isfinite(losses[2])

    gw1, gb1, gw2, gb2 = stack.grads
    g = (2.0 * (1.0 / x.shape[1])) * diff
    g_pre = np.matmul(stack.weights[2].transpose(0, 2, 1), g) * (1.0 - h * h)
    gw1[...] = np.matmul(g_pre, x.T)
    gb1[...] = g_pre.sum(axis=2)
    gw2[...] = np.matmul(g, h.transpose(0, 2, 1))
    gb2[...] = g.sum(axis=2)
    for i, chains, row, end_diff in backward:
        g = (2.0 * weight[i]) * end_diff
        _rollout_vjp(g, chains[0], row, stack.row_weights[i], stack.row_grads[i])
        if len(chains) == 2:
            _rollout_vjp(-g, chains[1], row, stack.row_weights[i], stack.row_grads[i])
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


class ChunkChains(NamedTuple):
    """The GA rollout chains of one rollout mode over a chunk of steps, in
    the free-running order (longest first), each step's chains side by
    side: their (m, d) first inputs, (m, L, 3) actions padded with zero
    rows to the longest chain, and (m,) lengths; each step's first chain,
    and whether it has a second (a composition's). Step k's chains are
    rows ``first[k]`` and, if ``paired[k]``, ``first[k] + 1``."""

    z: np.ndarray
    actions: np.ndarray
    lengths: np.ndarray
    first: np.ndarray
    paired: np.ndarray


class Chunk(NamedTuple):
    """What a chunk of training steps reads besides the parameters, step
    k at index k: the (n,) active constraints' indices into CONSTRAINTS,
    the (n, 2, d, B) input and target latents and (n, 3, B) actions of the
    prediction batches, the (n, d) anchor latents, and each rollout
    mode's ``ChunkChains``."""

    active: np.ndarray
    latents: np.ndarray
    actions: np.ndarray
    z_t: np.ndarray
    chains: dict[str, ChunkChains]


# Training builds the inputs of this many steps at once. At the
# benchmark's shapes (d = 32, B = 32) a chunk's arrays take about 0.6 MB,
# most of it the encoded prediction columns, and observation noise adds
# 0.5 MB while it is drawn. A loss-only mode's snapshot holds one
# parameter row per chain, about 1.5 MB at h = 64.
INPUT_CHUNK_STEPS = 32


def _chunk_inputs(dataset: Dataset, encoder: FeatureEncoder, cfg: GALossConfig,
                  modes: list[str], batch_size: int, steps: int, streams: TrainStreams,
                  first_step: int = 0) -> Chunk:
    """The ``Chunk`` of the next ``steps`` training steps, the first of
    them step ``first_step`` of the run, built at once.

    Every stream draws what the steps would draw one at a time, in step
    order: the batches (``sample_batch``), one constraint per step, the
    Dirichlet gammas of every composition step whose span is 2 or more,
    and observation noise for each step's inputs, then its targets. Every
    product rounds as its per-step form: the prediction columns are one
    (d, B) matrix product per step, the anchors and the teacher-forced
    inputs one matrix-vector product each. Segments are built for all the
    steps that share a constraint and a span at once
    (``_constraint_segments``) and packed once as the free-running
    ``ChunkChains`` (``_chunk_chains``); a teacher-forced mode in
    ``modes`` reads them mapped by ``_teacher_forced``.
    """
    idx, ts, anchor_i, anchor_t, spans = sample_batch(dataset, batch_size, cfg.max_span,
                                                      streams.batch, steps)
    active = streams.constraint.integers(0, len(CONSTRAINTS), size=steps)
    projection, sigma = encoder.projection, encoder.obs_noise_sigma
    # rows of the flattened (N * (T+1), .) pose and feature arrays
    features = dataset.features.reshape(-1, 4)
    at = idx * (dataset.length + 1) + ts
    anchors = anchor_i * (dataset.length + 1) + anchor_t
    # (steps, 2, B, 4) input and target features, encoded as (steps, 2, d, B)
    pairs = features.take(np.stack([at, at + 1], axis=1), axis=0)
    latents = np.matmul(projection, pairs.transpose(0, 1, 3, 2))
    if sigma > 0.0:
        latents += streams.noise.normal(0.0, sigma, size=latents.shape)
    actions = dataset.actions[idx, ts].transpose(0, 2, 1)
    z_t = np.matmul(projection, features.take(anchors, axis=0)[:, :, None])[:, :, 0]
    starts = dataset.poses.reshape(-1, 3).take(anchors, axis=0)
    comp = CONSTRAINTS.index(CONSTRAINT_COMP)
    drawn = np.where((active == comp) & (spans > 1), spans, 0)  # each step's gamma count
    if drawn.any():
        gammas = streams.dirichlet.gamma(cfg.dirichlet.concentration, 1.0, size=drawn.sum())
        gamma_at = np.cumsum(drawn) - drawn
    groups = []  # (steps, segment stacks) of each (constraint, span)
    failed = []  # (step, span) of each composition group's first bad step
    key = active * (cfg.max_span + 1) + spans
    order = np.argsort(key, kind="stable")
    for rows in np.split(order, np.flatnonzero(np.diff(key[order])) + 1):
        a, l = int(active[rows[0]]), int(spans[rows[0]])
        windows = dataset.actions[anchor_i[rows, None], anchor_t[rows, None] + np.arange(l)]
        if a != comp:
            groups.append((rows, _constraint_segments(windows, CONSTRAINTS[a], None)))
            continue
        g = gammas[gamma_at[rows, None] + np.arange(l)] if l > 1 else np.ones((len(rows), 1))
        dirichlet = g / g.sum(axis=1, keepdims=True)
        try:
            groups.append((rows, _constraint_segments(windows, CONSTRAINT_COMP, dirichlet)))
        except ValueError as e:  # a recomposed turn beyond pi, first in the group's step order
            failed.append((int(rows[e.row // l]), l))
    if failed:
        k, l = min(failed)
        raise ValueError(
            f"training step {first_step + k}: a composition segment recomposes {l} actions into "
            f"turns beyond pi; lower ga.max_span ({cfg.max_span}) or the dataset's turns "
            "(action_dist.sigma_dtheta)"
        )
    free, step = _chunk_chains(groups, z_t)
    chains = {mode: free if mode == FREE_RUNNING else _teacher_forced(free, starts[step], encoder)
              for mode in modes}
    return Chunk(active, latents, actions, z_t, chains)


def _chunk_chains(groups, z_t: np.ndarray) -> tuple[ChunkChains, np.ndarray]:
    """The free-running ``ChunkChains`` of a chunk's (steps, segment
    stacks) groups, each chain starting from its step's row of the
    (steps, d) anchor latents, and each chain's step. The stacks of a
    group are equally long, so the groups are sorted by length, and a
    composition group's two stacks interleave, each step's pair side by
    side."""
    groups = sorted(groups, key=lambda group: -group[1][0].shape[1])
    m = sum(len(rows) * len(stacks) for rows, stacks in groups)
    actions = np.zeros((m, groups[0][1][0].shape[1], 3))
    lengths = np.empty(m, dtype=np.int64)
    step = np.empty(m, dtype=np.int64)
    first = np.empty(len(z_t), dtype=np.int64)
    paired = np.zeros(len(z_t), dtype=bool)
    at = 0
    for rows, stacks in groups:
        end, c = at + len(rows) * len(stacks), len(stacks)
        for s, segment in enumerate(stacks):
            actions[at + s : end : c, : segment.shape[1]] = segment
            step[at + s : end : c] = rows
        lengths[at:end] = stacks[0].shape[1]
        first[rows] = np.arange(at, end, c)
        paired[rows] = c == 2
        at = end
    return ChunkChains(z_t[step], actions, lengths, first, paired), step


def _teacher_forced(chains: ChunkChains, starts: np.ndarray,
                    encoder: FeatureEncoder) -> ChunkChains:
    """The teacher-forced form of free-running ``chains`` whose chains
    start from the (m, 3) poses ``starts``, in the same order, with the
    same ``first`` and ``paired``.

    Teacher forcing snaps every later step's input to the noiseless
    encoding of the exact rigid-motion state, which stands in for
    ground-truth context, so only a chain's last step reaches its
    endpoint. A chain longer than one action starts from the encoding of
    the pose that ``apply_increments`` reaches over its other actions,
    whose turns are wrapped as the increment's ``Pose2`` wraps them; a
    one-action chain keeps its anchor input. Every chain keeps only its
    last action. All chains fold in one call over the padded block: a
    row's poses depend only on the increments before them.
    """
    prefixes = chains.actions[:, :-1].copy()
    prefixes[..., 2] = wrap_angles(prefixes[..., 2])
    rows, last = np.arange(len(starts)), chains.lengths - 1
    states = apply_increments(starts, prefixes)[rows, last]
    forced = last > 0
    z = chains.z.copy()
    z[forced] = _encode_rows(states[forced], encoder)
    return chains._replace(z=z, actions=chains.actions[rows, last][:, None],
                           lengths=np.ones_like(chains.lengths))


def _loss_only_rollouts(chunk: Chunk, mode: str, snapshot: np.ndarray, net: DynamicsNet,
                        steps: int):
    """The (n, steps) l_ga of the first ``steps`` steps of a chunk's
    chains of a loss-only ``mode``, each chain rolled out on its (n, P)
    parameter rows in ``snapshot``, and whether each is finite with all
    its rollouts' pre-activations. The chains roll out as shrinking
    prefixes of one (m, n, d, 1) stack, one ``residual_step`` per step of
    the longest; each row of the stack is its own matrix-vector product,
    so it rounds as the per-step rollout does. A run that stops mid-chunk
    rolls the later steps' chains out too, on stale rows, and drops them."""
    chains = chunk.chains[mode]
    first, paired = chains.first[:steps], chains.paired[:steps]
    n = snapshot.shape[1]
    weights = block_weights(net, snapshot)
    z = np.repeat(chains.z[:, None, :, None], n, axis=1)
    finite = np.ones(z.shape[:2], dtype=bool)
    for i in range(chains.lengths[0]):
        m = np.count_nonzero(chains.lengths > i)
        a = np.broadcast_to(chains.actions[:m, None, i, :, None], (m, n, 3, 1))
        z[:m], (_, pre, _) = residual_step(z[:m], a, tuple(w[:m] for w in weights))
        finite[:m] &= np.isfinite(pre).all(axis=(2, 3))
    ends = z[..., 0]
    other = np.where(paired[:, None, None], ends[first + paired], chunk.z_t[:steps, None])
    diff = ends[first] - other
    l_ga = (diff * diff).sum(axis=-1).T
    return l_ga, finite[first].T & finite[first + paired].T & np.isfinite(l_ga)


def train_step(stack: ParamStack, chunk: Chunk, k: int,
               optimizer) -> tuple[np.ndarray, np.ndarray]:
    """One optimizer update of every row of ``stack`` on step k of ``chunk``.

    Computes every row's losses and gradient (``_stack_objective``) and
    updates every row, a non-finite one too. Returns the (3, K) losses
    and the (K,) mask of the rows whose losses stayed finite.
    """
    losses, ok = _stack_objective(stack, chunk, k)
    optimizer.update(stack.params, stack.grad)
    return losses, ok


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

    A row whose loss turns non-finite gets the NonFiniteLossError that its
    own run raises, at the same step. It stays in the stack, but every
    stacked product and update is per row, so no other row sees its
    values; its overflow warnings are silenced. Training stops once every
    row's failure is known: at its step, or, for a failure that only a
    loss-only mode's rollouts show, at the end of that step's chunk.
    Deterministic given (seed, configs, dataset): ``seed``
    derives the initialization and every random stream
    (``TrainStreams``). With ``initial_net`` every row starts from a copy
    of the given parameters instead of a fresh seeded initialization.
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
    fail = np.full(len(cfgs), run.steps)  # each row's first non-finite step, or run.steps
    active = np.empty(run.steps, dtype=np.int8)
    curves = np.empty((3, len(cfgs), run.steps))
    # each loss-only mode's rows (a slice, so a view, where they are
    # contiguous) and their snapshot for a chunk's chains, at most two a step
    snapshots = {
        mode: (slice(rows[0], rows[-1] + 1) if rows[-1] - rows[0] == len(rows) - 1 else rows,
               np.zeros((2 * INPUT_CHUNK_STEPS, len(rows), stack.params.shape[1])))
        for mode, rows in stack.mode_rows.items() if stack.loss_only[mode]
    }
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, run.steps, INPUT_CHUNK_STEPS):
            chunk = _chunk_inputs(dataset, encoder, cfg, list(stack.mode_rows), run.batch_size,
                                  min(INPUT_CHUNK_STEPS, run.steps - start), streams, start)
            active[start : start + len(chunk.active)] = chunk.active
            for k in range(len(chunk.active)):
                for mode, (rows, snapshot) in snapshots.items():
                    at = chunk.chains[mode].first[k]
                    snapshot[at : at + 1 + chunk.chains[mode].paired[k]] = stack.params[rows]
                curves[:, :, start + k], ok = train_step(stack, chunk, k, optimizer)
                if not ok.all():
                    fail[~ok] = np.minimum(fail[~ok], start + k)
                    if (fail < run.steps).all():
                        break
            # the chunk's steps so far have run, so its loss-only chains roll out
            for mode, (rows, snapshot) in snapshots.items():
                l_ga, ok = _loss_only_rollouts(chunk, mode, snapshot, net, k + 1)
                window = slice(start, start + k + 1)
                # the step's total is its l_pred, and a loss-only row's weight is 0.0
                curves[1, rows, window] = l_ga
                curves[2, rows, window] += 0.0 * l_ga
                first_bad = np.where(ok.all(axis=1), run.steps, start + ok.argmin(axis=1))
                fail[rows] = np.minimum(fail[rows], first_bad)
            del chunk  # freed before the next chunk is built
            if (fail < run.steps).all():
                break
    results: list[TrainResult | NonFiniteLossError] = []
    for i, s in enumerate(fail.tolist()):
        if s < run.steps:
            results.append(NonFiniteLossError(f"non-finite loss at step {s}", s))
        else:
            trained = DynamicsNet(net.latent_dim, net.hidden_dim, stack.params[i].copy())
            results.append(TrainResult(trained, active, *curves[:, i]))
    return results
