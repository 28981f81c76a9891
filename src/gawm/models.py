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
from typing import Protocol

import numpy as np

from .domains import MAX_SCALE, Checked, bounded
from .se2 import Pose2, apply_increments, pose_array, wrap_angles
from .segments import ActionIncrement, ZERO_INCREMENT, check_segment


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


def exact_step(state: Pose2, action: ActionIncrement) -> Pose2:
    """Advance a pose by composing the increment's motion on the right:
    ``ExactModel``'s step."""
    return ExactModel().step(state, action, None)


def row_normals(rngs, sigma: float, shape: tuple[int, ...], what: str) -> np.ndarray:
    """A (B, *shape) block of Gaussian noise of scale ``sigma``, row b drawn
    from ``rngs[b]`` in one call, as a step-by-step rollout draws it. A row
    whose generator is ``None`` raises ``ValueError("<what> requires a
    random generator")``."""
    block = np.empty((len(rngs), *shape))
    for row, rng in zip(block, rngs):
        if rng is None:
            raise ValueError(f"{what} requires a random generator")
        row[:] = rng.normal(0.0, sigma, size=shape)
    return block


class _BatchModel:
    """A model whose ``step`` is one row of its ``step_batch``."""

    def step(self, state: Pose2, action: ActionIncrement, rng: np.random.Generator) -> Pose2:
        row = self.step_batch(pose_array([state]), action.as_array()[None], [rng])[0]
        return Pose2(*row.tolist())


class _IncrementModel(_BatchModel):
    """Step and rollout for a model whose step applies a realized increment
    exactly; ``_realize`` maps (B, T, 3) actions and one generator per row
    to the realized increments."""

    def rollout_batch(self, starts: np.ndarray, actions: np.ndarray, rngs) -> np.ndarray:
        return apply_increments(starts, self._realize(actions, rngs))

    def step_batch(self, states: np.ndarray, actions: np.ndarray, rngs) -> np.ndarray:
        return self.rollout_batch(states, actions[:, None], rngs)[:, 1]


class ExactModel(_IncrementModel):
    """Deterministic simulator whose step is exact rigid-motion composition."""

    name = "exact"
    deterministic = True

    def _realize(self, actions: np.ndarray, rngs) -> np.ndarray:
        increments = np.array(actions, dtype=np.float64)
        increments[..., 2] = wrap_angles(increments[..., 2])  # as its motion's Pose2 wraps it
        return increments


@dataclass(frozen=True)
class ViolationConfig(Checked):
    """Injectors that break each group-action condition in a known way.

    drift_bias is added to every realized increment (breaks identity),
    saturation_scale applies c*tanh(a/c) componentwise (breaks
    compatibility; None disables), asym_gain scales positive vs negative
    translation components (breaks inverse consistency), and noise_sigma
    adds seeded Gaussian noise to the realized increment (rollout
    dispersion).
    """

    drift_bias: ActionIncrement = ZERO_INCREMENT
    saturation_scale: float | None = bounded(None, 0.0, strict=True)
    asym_gain: tuple[float, float] = bounded((1.0, 1.0), 0.0, MAX_SCALE, strict=True)
    noise_sigma: float = bounded(0.0, 0.0, MAX_SCALE)

    def __post_init__(self):
        if self.saturation_scale == math.inf:
            object.__setattr__(self, "saturation_scale", None)
        super().__post_init__()

    def is_stochastic(self) -> bool:
        return self.noise_sigma > 0.0


def perturbed_step(
    state: Pose2,
    action: ActionIncrement,
    cfg: ViolationConfig,
    rng: np.random.Generator,
) -> Pose2:
    """Advance a pose after passing the increment through the injectors:
    ``PerturbedModel(cfg)``'s step.

    The realized increment is asym_gain * saturate(action) + drift_bias
    + Gaussian noise, then applied exactly. With everything disabled this
    reduces bit-for-bit to the exact step.
    """
    return PerturbedModel(cfg).step(state, action, rng)


def realized_increments(actions: np.ndarray, cfg: ViolationConfig) -> np.ndarray:
    """The noiseless realized increment of ``perturbed_step`` for (..., 3)
    ``[dx, dy, dtheta]`` rows.

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

    def _realize(self, actions: np.ndarray, rngs) -> np.ndarray:
        increments = realized_increments(actions, self.cfg)
        sigma = self.cfg.noise_sigma
        if sigma > 0.0:
            increments += row_normals(rngs, sigma, increments.shape[1:], "action noise")
        return increments


def rollout(model: WorldModel, start: Pose2, actions, rng: np.random.Generator | int) -> np.ndarray:
    """Fold the model's step over an (L, 3) action array from ``start``,
    as (L+1, 3) ``[theta, x, y]`` poses: one row of ``fold_steps``. An
    int ``rng`` seeds a PCG64 generator."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.Generator(np.random.PCG64(rng))
    return fold_steps(model, pose_array([start]), check_segment(actions)[None], [rng])[0]


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
    own ``rollout_batch`` runs all rows at once; otherwise all rows fold
    its step (``fold_steps``).
    """
    native = getattr(model, "rollout_batch", None)
    if native is not None:
        return native(starts, actions, rngs)
    return fold_steps(model, starts, actions, rngs)
