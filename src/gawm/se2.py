"""Exact planar rigid-motion group operations.

Poses are elements of SE(2), stored as a heading angle plus a 2D
translation. Rotations are kept as a scalar angle in (-pi, pi]; the
matrix representation is redundant in the plane and only appears in
test oracles. All functions here are pure and allocation-light so they
can serve as the ground truth for every consistency check in the
package.

Batched code holds poses as float64 arrays whose last axis is
``[theta, x, y]``, the field order of ``Pose2``. The array forms below
compute exactly what their per-pose counterparts compute, bit for bit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .domains import Checked, bounded

TWO_PI = 2.0 * math.pi


def wrap_angle(theta: float) -> float:
    """Wrap an angle into (-pi, pi], with the half-turn mapped to +pi.

    In-range angles are returned bit-identically, so wrapping is
    idempotent.
    """
    if -math.pi < theta <= math.pi:
        return theta
    w = (theta + math.pi) % TWO_PI - math.pi
    return math.pi if w == -math.pi else w


def wrap_angles(theta: np.ndarray) -> np.ndarray:
    """Array form of ``wrap_angle``: equal to it element by element."""
    inside = (theta > -math.pi) & (theta <= math.pi)
    if inside.all():
        return theta
    w = np.mod(theta + math.pi, TWO_PI) - math.pi
    w[w == -math.pi] = math.pi
    return np.where(inside, theta, w)


@dataclass(frozen=True)
class Pose2:
    """A planar rigid motion: heading ``theta`` (radians) and position (x, y) in meters.

    The heading is wrapped into (-pi, pi] at construction; non-finite
    components are rejected.
    """

    theta: float
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.theta) and math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"Pose2 components must be finite, got {(self.theta, self.x, self.y)}")
        object.__setattr__(self, "theta", wrap_angle(self.theta))


def pose_array(poses) -> np.ndarray:
    """(N, 3) array of ``[theta, x, y]`` rows for a sequence of poses."""
    return np.array([(p.theta, p.x, p.y) for p in poses], dtype=np.float64).reshape(-1, 3)


def check_finite_poses(poses: np.ndarray) -> None:
    """Reject a pose array holding a non-finite component, as ``Pose2`` does."""
    finite = np.isfinite(poses)
    if not finite.all():
        bad = ~finite.all(axis=-1)
        raise ValueError(f"Pose2 components must be finite, got {tuple(poses[bad][0].tolist())}")


@dataclass(frozen=True)
class DistanceParams(Checked):
    """Weight balancing the rotation term against the translation term."""

    # the reports square a distance (a dispersion), so the largest
    # rotation term, alpha_rot * pi, must square to a finite number
    alpha_rot: float = bounded(1.0, 0.0, math.sqrt(sys.float_info.max) / math.pi)


def se2_identity() -> Pose2:
    """The identity motion: zero heading, zero translation."""
    return Pose2(0.0, 0.0, 0.0)


def se2_compose(g1: Pose2, g2: Pose2) -> Pose2:
    """Compose two rigid motions: rotate g2's translation into g1's frame, add headings."""
    c = math.cos(g1.theta)
    s = math.sin(g1.theta)
    return Pose2(
        theta=g1.theta + g2.theta,
        x=g1.x + c * g2.x - s * g2.y,
        y=g1.y + s * g2.x + c * g2.y,
    )


def _headings(starts: np.ndarray, dtheta: np.ndarray) -> np.ndarray:
    """Headings reached from (B,) start headings by (B, T) realized turns,
    as a (B, T+1) array: ``theta[i+1] = wrap_angles(theta[i] + dtheta[i])``
    row by row, bit for bit.

    One sequential ``np.add.accumulate`` makes the same adds in the same
    order as that loop until a row's sum first leaves (-pi, pi]. The rows
    that leave it then run that loop from the earliest such position:
    before a row's own first wrap its sums are in range, where
    ``wrap_angles`` changes nothing. The start heading is kept as given.
    A non-finite heading runs on to ``check_finite_poses``.
    """
    b, t = dtheta.shape
    theta = np.empty((b, t + 1))
    theta[:, 0] = starts
    theta[:, 1:] = dtheta
    theta = np.add.accumulate(theta, axis=1)
    outside = ~((theta > -math.pi) & (theta <= math.pi))
    outside[:, 0] = False  # the start heading is kept as given
    rows = np.flatnonzero(outside.any(axis=1))
    if len(rows):
        wrapping, turns = theta[rows], dtheta[rows]
        for i in range(outside.any(axis=0).argmax(), t + 1):
            wrapping[:, i] = wrap_angles(wrapping[:, i - 1] + turns[:, i - 1])
        theta[rows] = wrapping
    return theta


def apply_increments(starts: np.ndarray, increments: np.ndarray) -> np.ndarray:
    """Poses reached from (B, 3) starts by applying (B, T, 3) realized body-frame
    increments ``[dx, dy, dtheta]`` in turn, as a (B, T+1, 3) array.

    Row by row this folds ``se2_compose`` with the increment's motion
    ``Pose2(dtheta, dx, dy)`` on the right, bit for bit, when the starts'
    headings and the turns are in (-pi, pi], as a ``Pose2`` holds them;
    ``ExactModel`` and teacher-forced training wrap the turns first.
    Headings are running sums wrapped into (-pi, pi] step by step
    (``_headings``). Each position is the
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


def se2_inverse(g: Pose2) -> Pose2:
    """Invert a rigid motion, so that compose(g, inverse(g)) is the identity."""
    c = math.cos(g.theta)
    s = math.sin(g.theta)
    return Pose2(
        theta=-g.theta,
        x=-(c * g.x + s * g.y),
        y=-(-s * g.x + c * g.y),
    )


def state_distance(s1: Pose2, s2: Pose2, params: DistanceParams = DistanceParams()) -> float:
    """Translation distance plus weighted absolute wrapped heading difference.

    Symmetric, non-negative, and zero exactly when the poses coincide
    (for alpha_rot > 0).
    """
    dx = s1.x - s2.x
    dy = s1.y - s2.y
    return math.hypot(dx, dy) + params.alpha_rot * abs(wrap_angle(s1.theta - s2.theta))


def state_distances(a: np.ndarray, b: np.ndarray,
                    params: DistanceParams = DistanceParams()) -> np.ndarray:
    """``state_distance`` between matching rows of two (B, 3) pose arrays."""
    d = a - b
    hypot = [math.hypot(dx, dy) for dx, dy in zip(d[:, 1].tolist(), d[:, 2].tolist())]
    return np.array(hypot) + params.alpha_rot * np.abs(wrap_angles(d[:, 0]))
