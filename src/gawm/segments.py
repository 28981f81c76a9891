"""Ego-motion increments and the three families of consistency segments.

An increment is a local body-frame motion (dx, dy, dtheta). A segment is
a finite ordered sequence of increments, held as one read-only (L, 3)
array of ``[dx, dy, dtheta]`` rows. From a base segment we derive
zero-action segments, forward-inverse cycles, and Dirichlet-recomposed
segments whose accumulated increments match the original, for one
window or a (..., L, 3) stack of them. ``ActionIncrement`` is the
per-pose form that ``WorldModel.step`` takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np


@dataclass(frozen=True)
class ActionIncrement:
    """One local ego-motion increment (dx, dy meters, dtheta radians)."""

    dx: float
    dy: float
    dtheta: float

    def __post_init__(self):
        if not (math.isfinite(self.dx) and math.isfinite(self.dy) and math.isfinite(self.dtheta)):
            raise ValueError(f"increment components must be finite, got {self}")
        if abs(self.dtheta) > math.pi:
            raise ValueError(f"|dtheta| must be <= pi (local increment), got {self.dtheta}")

    def __neg__(self) -> "ActionIncrement":
        return ActionIncrement(-self.dx, -self.dy, -self.dtheta)

    def as_array(self) -> np.ndarray:
        return np.array([self.dx, self.dy, self.dtheta], dtype=np.float64)


ZERO_INCREMENT = ActionIncrement(0.0, 0.0, 0.0)


class ActionSegment:
    """An ordered, possibly empty sequence of increments, as one read-only
    (L, 3) float64 array ``array``.

    Built from an (L, 3) array (copied) or a sequence of increments, and
    checked once as ``ActionIncrement`` checks each increment. Slicing returns a segment over a view of the same
    array; indexing and iterating yield ``ActionIncrement`` values, for
    per-pose folds.
    """

    __slots__ = ("array",)

    def __init__(self, rows=()):
        if isinstance(rows, ActionSegment):
            self.array = rows.array
            return
        if not isinstance(rows, np.ndarray):
            rows = [(a.dx, a.dy, a.dtheta) if isinstance(a, ActionIncrement) else a for a in rows]
        array = np.array(rows, dtype=np.float64)
        if array.size == 0:
            array = array.reshape(0, 3)
        if array.ndim != 2 or array.shape[1] != 3:
            raise ValueError(f"a segment is an (L, 3) array, got shape {array.shape}")
        check_increments(array)
        array.flags.writeable = False
        self.array = array

    def __len__(self) -> int:
        return len(self.array)

    def __iter__(self) -> Iterator[ActionIncrement]:
        return (ActionIncrement(*row) for row in self.array.tolist())

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _valid_segment(self.array[i])
        return ActionIncrement(*self.array[i].tolist())

    def __eq__(self, other) -> bool:
        return isinstance(other, ActionSegment) and np.array_equal(self.array, other.array)


def check_increments(rows: np.ndarray) -> None:
    """Check (L, 3) ``[dx, dy, dtheta]`` rows in one pass, as ``ActionIncrement``
    checks each; a bad row raises its ``ValueError`` (the first in row order)."""
    if len(rows):
        max_dx, max_dy, max_dtheta = np.abs(rows).max(axis=0).tolist()  # a NaN propagates
        if not (math.isfinite(max_dx) and math.isfinite(max_dy) and max_dtheta <= math.pi):
            for row in rows.tolist():
                ActionIncrement(*row)  # raises at the first bad row


def _valid_segment(array: np.ndarray) -> ActionSegment:
    """A segment over ``array`` without the checks, for rows known to pass them."""
    segment = object.__new__(ActionSegment)
    array.flags.writeable = False
    segment.array = array
    return segment


@dataclass(frozen=True)
class DirichletParams:
    """Concentration for simplex weight sampling."""

    concentration: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.concentration) and self.concentration > 0.0):
            raise ValueError(f"concentration must be > 0, got {self.concentration}")


def make_identity_segment(l: int) -> ActionSegment:
    """A segment of l zero increments."""
    if l < 1:
        raise ValueError(f"identity segment length must be >= 1, got {l}")
    return _valid_segment(np.zeros((l, 3)))


def make_inverse_segment(u) -> ActionSegment:
    """Forward-inverse cycle: u followed by its reversed, negated increments.

    ``u`` is a segment or an (L, 3) array. The increments cancel
    componentwise, so the cumulative sum is exactly zero. Note this
    elementwise negation is a local operational inverse, not the exact
    SE(2) group inverse of the composed motion. This is the one-window
    case of ``inverse_cycles``.
    """
    u = ActionSegment(u).array
    if len(u) == 0:
        raise ValueError("cannot build an inverse cycle from an empty segment")
    return _valid_segment(inverse_cycles(u))


def inverse_cycles(windows: np.ndarray) -> np.ndarray:
    """Each window of a (..., L, 3) stack of valid increments followed by
    its reversed, negated rows, as a read-only (..., 2L, 3) array.
    Negation keeps the rows valid, so nothing is checked."""
    cycles = np.concatenate([windows, -windows[..., ::-1, :]], axis=-2)
    cycles.flags.writeable = False
    return cycles


def keyed_rng(seed: int, *key: int) -> np.random.Generator:
    """The PCG64 generator of ``seed`` spawned with key ``key``."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=key)))


def sample_dirichlet_weights(l: int, params: DirichletParams,
                             rng: np.random.Generator) -> np.ndarray:
    """Sample l non-negative weights summing to 1 from a symmetric Dirichlet.

    Uses gamma-variate normalization; a single weight is 1 and draws nothing.
    """
    if l < 1:
        raise ValueError(f"weight vector length must be >= 1, got {l}")
    if l == 1:
        return np.array([1.0])
    g = rng.gamma(params.concentration, 1.0, size=l)
    return g / g.sum()


def make_compatibility_segment(u_a, params: DirichletParams,
                               rng: np.random.Generator) -> ActionSegment:
    """Redistribute u_a's accumulated increments over a same-length segment.

    ``u_a`` is a segment or an (L, 3) array. Each output increment is a
    Dirichlet weight times the cumulative sum of u_a, so both segments
    accumulate to the same total while realizing it on different
    temporal schedules. This is the one-window case of ``recompose``.
    """
    u_a = ActionSegment(u_a).array
    if len(u_a) == 0:
        raise ValueError("cannot recompose an empty segment")
    return _valid_segment(recompose(u_a, sample_dirichlet_weights(len(u_a), params, rng)))


def recompose(windows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Each window of a (..., L, 3) stack redistributed by its (..., L)
    weights: row i is weight i times the window's rows summed one by one
    from 0.0 (``np.sum`` would add pairwise). The read-only (..., L, 3)
    result is checked once, as ``ActionIncrement`` checks each row."""
    total = np.zeros((*windows.shape[:-2], 3))
    for i in range(windows.shape[-2]):
        total += windows[..., i, :]
    segments = weights[..., None] * total[..., None, :]
    check_increments(segments.reshape(-1, 3))
    segments.flags.writeable = False
    return segments
