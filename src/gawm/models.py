"""World-model interface plus fully-known reference simulators.

The exact model realizes every increment as a rigid-motion composition,
so its rollouts satisfy the group-action conditions to floating-point
precision. The perturbed model wraps the same transition with
configurable violation injectors (drift, saturation, asymmetric gain,
action noise) whose effect on every consistency probe can be checked
against direct stepwise simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from .se2 import Pose2, check_finite_poses, pose_array, se2_compose, wrap_angles
from .segments import ActionIncrement, ActionSegment, ZERO_INCREMENT


class WorldModel(Protocol):
    """Anything that advances a pose by one action under a seeded noise source.

    A model may also define ``step_batch`` and ``rollout_batch``, the array
    forms of its step and of its rollout with the signatures of the
    module-level functions of the same names; those functions use them
    when present. A model that draws no noise may set ``deterministic =
    True`` so that evaluation skips repeating its rollouts; evaluation
    then passes it ``None`` in place of each row's generator.
    """

    def step(self, state: Pose2, action: ActionIncrement, rng: np.random.Generator) -> Pose2:
        ...


def is_deterministic(model: WorldModel) -> bool:
    """Whether the model declares that it draws no noise (a true
    ``deterministic`` attribute). Evaluation then rolls each GAR sequence
    once, shares one probe stream between configs and passes ``None``
    for every row's generator; a model without the attribute is
    evaluated in full."""
    return getattr(model, "deterministic", False)


@dataclass(frozen=True)
class Trajectory:
    """An ordered pose sequence of length T+1, including the start pose."""

    poses: tuple[Pose2, ...]

    def __init__(self, poses: Sequence[Pose2]):
        if len(poses) < 1:
            raise ValueError("a trajectory must contain at least the start pose")
        object.__setattr__(self, "poses", tuple(poses))

    def __len__(self) -> int:
        return len(self.poses)

    def __getitem__(self, i):
        return self.poses[i]

    def __iter__(self):
        return iter(self.poses)

    def as_array(self) -> np.ndarray:
        """(T+1, 3) array of ``[theta, x, y]`` rows."""
        return pose_array(self.poses)


def increment_pose(action: ActionIncrement) -> Pose2:
    """The rigid motion realized by one body-frame increment."""
    return Pose2(theta=action.dtheta, x=action.dx, y=action.dy)


def exact_step(state: Pose2, action: ActionIncrement) -> Pose2:
    """Advance a pose by composing the increment's motion on the right."""
    return se2_compose(state, increment_pose(action))


def _headings(starts: np.ndarray, dtheta: np.ndarray) -> np.ndarray:
    """Headings reached from (B,) start headings by (B, T) realized turns,
    as a (B, T+1) array: ``theta[i+1] = wrap_angles(theta[i] + dtheta[i])``
    row by row, bit for bit.

    One sequential ``np.add.accumulate`` makes the same adds in the same
    order as that loop until a row's sum first leaves (-pi, pi]. Each
    round then wraps, in every row that has one, the first such position
    after the ones it has already wrapped, and re-accumulates that row
    from it. The start heading is kept as given. A row moves past every
    position it wraps, so a non-finite heading ends after at most T
    rounds and reaches ``check_finite_poses``.
    """
    b, t = dtheta.shape
    theta = np.empty((b, t + 1))
    theta[:, 0] = starts
    theta[:, 1:] = dtheta
    theta = np.add.accumulate(theta, axis=1)
    outside = ~((theta > -math.pi) & (theta <= math.pi))
    outside[:, 0] = False  # the start heading is kept as given
    if not outside.any():
        return theta
    rows = np.flatnonzero(outside.any(axis=1))
    at = outside[rows].argmax(axis=1)  # each row's first position to wrap
    # the rows that wrap, padded so that every suffix from a position fits one window
    wrapping = np.concatenate([theta[rows], np.zeros((len(rows), t))], axis=1)
    turns = np.concatenate([dtheta[rows], np.zeros((len(rows), t))], axis=1)
    live = np.arange(len(rows))
    while len(live):
        window = at[:, None] + np.arange(t + 1 - at.min())
        suffix = np.empty(window.shape)
        suffix[:, 0] = wrap_angles(wrapping[live, at])
        suffix[:, 1:] = turns[live[:, None], window[:, :-1]]
        suffix = np.add.accumulate(suffix, axis=1)
        wrapping[live[:, None], window] = suffix
        outside = ~((suffix > -math.pi) & (suffix <= math.pi)) & (window <= t)
        outside[:, 0] = False  # wrapped already, whatever it came to
        more = outside.any(axis=1)
        live, at = live[more], (at + outside.argmax(axis=1))[more]
    theta[rows] = wrapping[:, : t + 1]
    return theta


def _apply_increments(starts: np.ndarray, increments: np.ndarray) -> np.ndarray:
    """Poses reached from (B, 3) starts by applying (B, T, 3) realized body-frame
    increments ``[dx, dy, dtheta]`` in turn, as a (B, T+1, 3) array.

    Row by row this is the per-pose update of ``exact_step`` and
    ``perturbed_step``, bit for bit. Headings are running sums wrapped
    into (-pi, pi] step by step (``_headings``). Each position is the
    running sum ``(x + c*dx) - s*dy`` (and ``(y + s*dx) + c*dy``), taken
    by a sequential accumulate over the interleaved terms, which keeps
    the per-step association.
    """
    b, t = increments.shape[:2]
    theta = _headings(starts[:, 0], increments[:, :, 2])
    c = np.cos(theta[:, :-1])
    s = np.sin(theta[:, :-1])
    dx = increments[:, :, 0]
    dy = increments[:, :, 1]
    terms = np.empty((2, b, 2 * t + 1))
    terms[:, :, 0] = starts[:, 1:].T
    terms[0, :, 1::2] = c * dx
    terms[0, :, 2::2] = -(s * dy)
    terms[1, :, 1::2] = s * dx
    terms[1, :, 2::2] = c * dy
    xy = np.add.accumulate(terms, axis=2)[:, :, ::2]
    poses = np.empty((b, t + 1, 3))
    poses[:, :, 0] = theta
    poses[:, :, 1] = xy[0]
    poses[:, :, 2] = xy[1]
    check_finite_poses(poses)
    return poses


class _IncrementModel:
    """Array forms of step and rollout for a model whose step applies a
    realized increment exactly; ``_realize`` maps (B, T, 3) actions and
    one generator per row to the realized increments."""

    def rollout_batch(self, starts: np.ndarray, actions: np.ndarray, rngs) -> np.ndarray:
        return _apply_increments(starts, self._realize(actions, rngs))

    def step_batch(self, states: np.ndarray, actions: np.ndarray, rngs) -> np.ndarray:
        return self.rollout_batch(states, actions[:, None], rngs)[:, 1]


class ExactModel(_IncrementModel):
    """Deterministic simulator whose step is exact rigid-motion composition."""

    name = "exact"
    deterministic = True

    def step(self, state: Pose2, action: ActionIncrement, rng: np.random.Generator) -> Pose2:
        return exact_step(state, action)

    def _realize(self, actions: np.ndarray, rngs) -> np.ndarray:
        increments = np.array(actions, dtype=np.float64)
        increments[..., 2] = wrap_angles(increments[..., 2])  # as increment_pose does
        return increments


@dataclass(frozen=True)
class ViolationConfig:
    """Injectors that break each group-action condition in a known way.

    drift_bias is added to every realized increment (breaks identity),
    saturation_scale applies c*tanh(a/c) componentwise (breaks
    compatibility; None disables), asym_gain scales positive vs negative
    translation components (breaks inverse consistency), and noise_sigma
    adds seeded Gaussian noise to the realized increment (rollout
    dispersion).
    """

    drift_bias: ActionIncrement = ZERO_INCREMENT
    saturation_scale: float | None = None
    asym_gain: tuple[float, float] = (1.0, 1.0)
    noise_sigma: float = 0.0

    def __post_init__(self):
        if self.saturation_scale is not None:
            if math.isinf(self.saturation_scale) and self.saturation_scale > 0:
                object.__setattr__(self, "saturation_scale", None)
            elif not (math.isfinite(self.saturation_scale) and self.saturation_scale > 0.0):
                raise ValueError(f"saturation_scale must be > 0 or None, got {self.saturation_scale}")
        if self.noise_sigma < 0.0 or not math.isfinite(self.noise_sigma):
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        gp, gm = self.asym_gain
        if not all(math.isfinite(g) and g > 0.0 for g in (gp, gm)):
            raise ValueError(f"asym_gain components must be finite and > 0, got {self.asym_gain}")

    def is_stochastic(self) -> bool:
        return self.noise_sigma > 0.0


def perturbed_step(
    state: Pose2,
    action: ActionIncrement,
    cfg: ViolationConfig,
    rng: np.random.Generator,
) -> Pose2:
    """Advance a pose after passing the increment through the injectors.

    The realized increment is asym_gain * saturate(action) + drift_bias
    + Gaussian noise, then applied exactly. With everything disabled this
    reduces bit-for-bit to the exact step.
    """
    dx, dy, dth = action.dx, action.dy, action.dtheta
    c = cfg.saturation_scale
    if c is not None:
        dx = c * math.tanh(dx / c)
        dy = c * math.tanh(dy / c)
        dth = c * math.tanh(dth / c)
    gp, gm = cfg.asym_gain
    dx *= gp if dx >= 0.0 else gm
    dy *= gp if dy >= 0.0 else gm
    dx += cfg.drift_bias.dx
    dy += cfg.drift_bias.dy
    dth += cfg.drift_bias.dtheta
    if cfg.noise_sigma > 0.0:
        eps = rng.normal(0.0, cfg.noise_sigma, size=3)
        dx += eps[0]
        dy += eps[1]
        dth += eps[2]
    cth = math.cos(state.theta)
    sth = math.sin(state.theta)
    return Pose2(
        theta=state.theta + dth,
        x=state.x + cth * dx - sth * dy,
        y=state.y + sth * dx + cth * dy,
    )


def realized_increments(actions: np.ndarray, cfg: ViolationConfig) -> np.ndarray:
    """The noiseless realized increment of ``perturbed_step`` for (..., 3)
    ``[dx, dy, dtheta]`` rows, equal to it element by element.

    Saturation calls ``math.tanh`` per element, because numpy's ``tanh``
    rounds differently.
    """
    increments = np.array(actions, dtype=np.float64)
    c = cfg.saturation_scale
    if c is not None:
        scaled = (increments / c).ravel().tolist()
        increments = c * np.array(list(map(math.tanh, scaled))).reshape(increments.shape)
    xy = increments[..., :2]
    xy *= np.where(xy >= 0.0, *cfg.asym_gain)
    increments += (cfg.drift_bias.dx, cfg.drift_bias.dy, cfg.drift_bias.dtheta)
    return increments


@dataclass(frozen=True)
class PerturbedModel(_IncrementModel):
    """Simulator with configurable, oracle-checkable violations."""

    cfg: ViolationConfig = field(default_factory=ViolationConfig)
    name: str = "perturbed"

    @property
    def deterministic(self) -> bool:
        return not self.cfg.is_stochastic()

    def step(self, state: Pose2, action: ActionIncrement, rng: np.random.Generator) -> Pose2:
        return perturbed_step(state, action, self.cfg, rng)

    def _realize(self, actions: np.ndarray, rngs) -> np.ndarray:
        increments = realized_increments(actions, self.cfg)
        sigma = self.cfg.noise_sigma
        if sigma > 0.0:
            # one block per row draws what a step-by-step rollout draws, in order
            for row, rng in zip(increments, rngs):
                row += rng.normal(0.0, sigma, size=row.shape)
        return increments


def rollout(
    model: WorldModel,
    start: Pose2,
    actions: ActionSegment,
    rng: np.random.Generator | int,
) -> Trajectory:
    """Fold the model's step over an action segment, collecting every pose."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.Generator(np.random.PCG64(rng))
    poses = [start]
    state = start
    for a in actions:
        state = model.step(state, a, rng)
        poses.append(state)
    return Trajectory(poses)


def step_batch(model: WorldModel, states: np.ndarray, actions: np.ndarray, rngs) -> np.ndarray:
    """Array form of ``model.step``: (B, 3) ``[theta, x, y]`` states, (B, 3)
    ``[dx, dy, dtheta]`` actions and one generator per row give the (B, 3)
    next states. Models without their own ``step_batch`` step row by row."""
    native = getattr(model, "step_batch", None)
    if native is not None:
        return native(states, actions, rngs)
    return pose_array([
        model.step(Pose2(*state), ActionIncrement(*action), rng)
        for state, action, rng in zip(states.tolist(), actions.tolist(), rngs)
    ])


def fold_steps(model: WorldModel, starts: np.ndarray, actions: np.ndarray, rngs) -> np.ndarray:
    """The model's step folded over (B, T, 3) ``[dx, dy, dtheta]`` actions
    from (B, 3) ``[theta, x, y]`` starts, as (B, T+1, 3) poses; row b draws
    only from ``rngs[b]``, in time order.

    An increment model's step is its one-step rollout, so its fold is one
    ``rollout_batch`` call, bit for bit. Every other model steps one action
    at a time through ``step_batch``: a learned model's native rollout
    carries its latent across steps and so is not a fold of its step.
    """
    if isinstance(model, _IncrementModel):
        return model.rollout_batch(starts, actions, rngs)
    poses = np.empty((len(starts), actions.shape[1] + 1, 3))
    poses[:, 0] = starts
    for t in range(actions.shape[1]):
        poses[:, t + 1] = step_batch(model, poses[:, t], actions[:, t], rngs)
    return poses


def rollout_batch(model: WorldModel, starts: np.ndarray, actions: np.ndarray, rngs) -> np.ndarray:
    """The model's native rollout of B action rows, as (B, T+1, 3) poses.

    ``starts`` is (B, 3) ``[theta, x, y]``, ``actions`` is (B, T, 3)
    ``[dx, dy, dtheta]``, and row b draws only from ``rngs[b]``. A model's
    own ``rollout_batch`` runs all rows at once; otherwise each row goes
    through the model's ``sample_trajectory``, or, if it has none, all
    rows fold its step (``fold_steps``).
    """
    native = getattr(model, "rollout_batch", None)
    if native is not None:
        return native(starts, actions, rngs)
    sampler = getattr(model, "sample_trajectory", None)
    if sampler is None:
        return fold_steps(model, starts, actions, rngs)
    return np.stack([
        sampler(Pose2(*start), ActionSegment(row), rng).as_array()
        for start, row, rng in zip(starts.tolist(), actions, rngs)
    ])

