"""Ego-motion increments and the three families of consistency segments.

An increment is a local body-frame motion (dx, dy, dtheta). A segment is
a finite ordered sequence of increments, held as one read-only (L, 3)
array of ``[dx, dy, dtheta]`` rows. From a base segment we derive
forward-inverse cycles and Dirichlet-recomposed segments whose
accumulated increments match the original, for one window or a
(..., L, 3) stack of them. ``ActionIncrement`` is the per-pose form of
one row, which ``WorldModel.step`` takes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .domains import MAX_SCALE, Checked, bounded


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


def check_increments(rows: np.ndarray) -> None:
    """Check (L, 3) ``[dx, dy, dtheta]`` rows in one pass, as ``ActionIncrement``
    checks each; the first bad row raises its ``ValueError``, ``row`` its index."""
    if len(rows):
        max_dx, max_dy, max_dtheta = np.abs(rows).max(axis=0).tolist()  # a NaN propagates
        if not (math.isfinite(max_dx) and math.isfinite(max_dy) and max_dtheta <= math.pi):
            bad = ~np.isfinite(rows).all(axis=1) | (np.abs(rows[:, 2]) > math.pi)
            row = int(bad.argmax())
            try:
                ActionIncrement(*rows[row].tolist())
            except ValueError as e:
                e.row = row
                raise


def check_segment(rows) -> np.ndarray:
    """``rows`` as a read-only (L, 3) float64 array (a copy), checked as
    ``ActionIncrement`` checks each row; an empty list is a (0, 3) segment."""
    array = np.array(rows, dtype=np.float64)
    if array.shape == (0,):
        array = array.reshape(0, 3)
    if array.ndim != 2 or array.shape[1] != 3:
        raise ValueError(f"a segment is an (L, 3) array, got shape {array.shape}")
    check_increments(array)
    array.flags.writeable = False
    return array


# A gamma variate of shape c underflows to 0 with probability about
# 5e-324 ** c (the smallest double to the power c), and weights whose
# variates are all 0 normalize to NaN. Over 400,000 variates, 47% were 0
# at c = 1e-3 (244 of 1,000 two-weight draws were NaN), 0.056% at 1e-2
# and none at 0.02, where about 3e-7 are expected.
MIN_CONCENTRATION = 0.02


@dataclass(frozen=True)
class DirichletParams(Checked):
    """Concentration for simplex weight sampling, at least ``MIN_CONCENTRATION``."""

    concentration: float = bounded(1.0, MIN_CONCENTRATION, MAX_SCALE)


def make_inverse_segment(u) -> np.ndarray:
    """Forward-inverse cycle: u followed by its reversed, negated increments.

    ``u`` is an (L, 3) array and the cycle a read-only (2L, 3) one. The
    increments cancel componentwise, so the cumulative sum is exactly
    zero. Note this elementwise negation is a local operational inverse,
    not the exact SE(2) group inverse of the composed motion. This is the
    one-window case of ``inverse_cycles``.
    """
    u = check_segment(u)
    if len(u) == 0:
        raise ValueError("cannot build an inverse cycle from an empty segment")
    return inverse_cycles(u)


def inverse_cycles(windows: np.ndarray) -> np.ndarray:
    """Each window of a (..., L, 3) stack of valid increments followed by
    its reversed, negated rows, as a read-only (..., 2L, 3) array.
    Negation keeps the rows valid, so nothing is checked."""
    cycles = np.concatenate([windows, -windows[..., ::-1, :]], axis=-2)
    cycles.flags.writeable = False
    return cycles


# numpy's SeedSequence hash: pool size, the two constant streams and the mix multipliers
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hash_constants(init: int, mult: int, n: int) -> list[int]:
    """The first n + 1 hash constants of a stream: ``init``, then each
    times ``mult`` modulo 2**32. Hash call t takes constants t and t + 1."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & _MASK32)
    return consts


# generate_state's constants for the 8 uint32 words of 4 uint64 state words
_STATE_CONSTANTS = np.array(_hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE), dtype=np.uint32)


def _hashmix(value, xor, mul):
    """SeedSequence's ``hashmix`` with the given constants, on Python ints
    or elementwise on uint32 arrays."""
    value = (value ^ xor) * mul & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's ``mix``, on Python ints or elementwise on uint32 arrays."""
    result = (_MIX_L * x - _MIX_R * y) & _MASK32
    return result ^ result >> 16


def _seed_words(seed: int) -> list[int]:
    """``seed``'s uint32 words, least significant first, padded with zeros
    to the pool size."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    words = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _MASK32)
    return words + [0] * (_POOL_SIZE - len(words))


def _key_words(keys) -> np.ndarray:
    """Equal-length keys of integers in [0, 2**32) as an (n, k) uint32 array."""
    try:
        array = np.asarray(keys)
    except ValueError:
        raise ValueError("keys must all have the same length") from None
    if array.ndim == 1 and array.size == 0:
        array = array.reshape(0, 0)
    if array.ndim != 2:
        raise ValueError(f"keys must be a sequence of equal-length integer keys, "
                         f"got shape {array.shape}")
    if array.size == 0:
        return array.astype(np.uint32)
    if array.dtype.kind not in "iuO":
        raise TypeError(f"key elements must be integers, got {array.dtype}")
    if array.dtype.kind == "O" or array.min() < 0 or array.max() > _MASK32:
        raise ValueError("key elements must be integers in [0, 2**32)")
    return array.astype(np.uint32)


def keyed_seeds(seed: int, keys) -> np.ndarray:
    """The PCG64 seed words of ``SeedSequence(entropy=seed, spawn_key=key)``
    for each of n keys, as an (n, 4) uint64 array: row i holds what that
    sequence's ``generate_state(4, np.uint64)`` returns.

    ``keys`` holds n keys of one length k (an (n, k) integer array or a
    sequence of tuples), each element in [0, 2**32) so that it is one
    word; ``seed`` is an integer >= 0. SeedSequence pads the seed's words
    with zeros to the pool size when there is a key and hashes the
    missing words as zeros when there is none, so padding always gives
    the same pool. The pool that the seed's first words fill and mix is
    shared by every key and is hashed once, with Python ints; each later
    word (a seed word beyond the pool, then the key's) is then mixed in
    as arrays over the keys, and so are the state words. Every value is
    SeedSequence's, bit for bit.
    """
    run = _seed_words(seed)
    words = _key_words(keys)
    a = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * (len(run) + words.shape[1]))
    pool = [_hashmix(run[i], a[i], a[i + 1]) for i in range(_POOL_SIZE)]
    t = _POOL_SIZE
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], a[t], a[t + 1]))
                t += 1
    pool = np.broadcast_to(np.array(pool, dtype=np.uint32), (len(words), _POOL_SIZE))
    later = np.broadcast_to(np.array(run[_POOL_SIZE:], dtype=np.uint32),
                            (len(words), len(run) - _POOL_SIZE))
    a = np.array(a, dtype=np.uint32)
    for column in np.concatenate([later, words], axis=1).T:  # each meets every pool word in turn
        pool = _mix(pool, _hashmix(column[:, None], a[t : t + _POOL_SIZE],
                                   a[t + 1 : t + _POOL_SIZE + 1]))
        t += _POOL_SIZE
    b = _STATE_CONSTANTS
    state = _hashmix(np.concatenate([pool, pool], axis=1), b[:-1], b[1:]).astype(np.uint64)
    return state[:, 0::2] | state[:, 1::2] << np.uint64(32)  # little-endian word pairs


class _SeedWords(ISeedSequence):
    """One row of ``keyed_seeds``, handed to PCG64 in place of the
    SeedSequence it stands for. It only gives those four words; it is not
    a SeedSequence, so nothing can spawn from it."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != len(self.words) or np.dtype(dtype) != np.uint64:
            raise ValueError(f"holds {len(self.words)} uint64 words, asked for {n_words} {dtype}")
        return self.words


def seeded_rngs(seeds: np.ndarray) -> list[np.random.Generator]:
    """One PCG64 generator per row of an (n, 4) ``keyed_seeds`` array."""
    seeds = np.ascontiguousarray(seeds, dtype=np.uint64)
    return [np.random.Generator(np.random.PCG64(_SeedWords(row))) for row in seeds]


def keyed_rngs(seed: int, keys) -> list[np.random.Generator]:
    """The PCG64 generator of ``seed`` spawned with each key in ``keys``
    (``keyed_seeds``): each equals
    ``Generator(PCG64(SeedSequence(entropy=seed, spawn_key=key)))``."""
    return seeded_rngs(keyed_seeds(seed, keys))


def keyed_rng(seed: int, *key: int) -> np.random.Generator:
    """The PCG64 generator of ``seed`` spawned with key ``key``."""
    return keyed_rngs(seed, [key])[0]


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
                               rng: np.random.Generator) -> np.ndarray:
    """Redistribute u_a's accumulated increments over a same-length segment.

    ``u_a`` is an (L, 3) array and the result a read-only one. Each
    output increment is a Dirichlet weight times the cumulative sum of
    u_a, so both segments accumulate to the same total while realizing it
    on different temporal schedules. This is the one-window case of
    ``recompose``.
    """
    u_a = check_segment(u_a)
    if len(u_a) == 0:
        raise ValueError("cannot recompose an empty segment")
    return recompose(u_a, sample_dirichlet_weights(len(u_a), params, rng))


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
