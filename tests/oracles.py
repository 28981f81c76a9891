"""Independent brute-force oracles used across the test suite.

The matrix oracles deliberately avoid the library's angle-form group
operations: poses become 3x3 homogeneous matrices, probes become naive
stepwise simulations, gradients become central finite differences. The
per-pose sections are the library's computations one Pose2 at a time,
the bit-for-bit reference for its array kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from gawm.latent import HeadingUndefinedError, LearnedWorldModel, net_step, pose_features
from gawm.models import ExactModel, PerturbedModel
from gawm.se2 import Pose2, pose_array, se2_compose
from gawm.segments import ActionIncrement, inverse_cycles, recompose, sample_dirichlet_weights
from gawm.training import (
    CONSTRAINT_COMP, CONSTRAINT_ID, CONSTRAINT_INV, CONSTRAINTS, FREE_RUNNING, Chunk, ChunkChains,
    NonFiniteLossError, train_group,
)


def pose_to_matrix(p: Pose2) -> np.ndarray:
    c, s = math.cos(p.theta), math.sin(p.theta)
    return np.array([[c, -s, p.x], [s, c, p.y], [0.0, 0.0, 1.0]])


def matrix_to_pose(m: np.ndarray) -> Pose2:
    return Pose2(theta=math.atan2(m[1, 0], m[0, 0]), x=float(m[0, 2]), y=float(m[1, 2]))


def compose_matrix(a: Pose2, b: Pose2) -> Pose2:
    return matrix_to_pose(pose_to_matrix(a) @ pose_to_matrix(b))


def inverse_matrix(a: Pose2) -> Pose2:
    return matrix_to_pose(np.linalg.inv(pose_to_matrix(a)))


def pose_close(a: Pose2, b: Pose2, tol: float) -> bool:
    dth = abs(math.atan2(math.sin(a.theta - b.theta), math.cos(a.theta - b.theta)))
    return dth <= tol and abs(a.x - b.x) <= tol and abs(a.y - b.y) <= tol


def random_pose(rng: np.random.Generator, pos_scale: float = 5.0) -> Pose2:
    return Pose2(
        theta=rng.uniform(-math.pi, math.pi),
        x=float(rng.uniform(-pos_scale, pos_scale)),
        y=float(rng.uniform(-pos_scale, pos_scale)),
    )


def increments(rows) -> list[ActionIncrement]:
    """The ``ActionIncrement`` of each ``[dx, dy, dtheta]`` row of an (L, 3) array."""
    return [ActionIncrement(*row) for row in np.asarray(rows, dtype=np.float64).reshape(-1, 3).tolist()]


def pose_list(poses) -> list[Pose2]:
    """The ``Pose2`` of each ``[theta, x, y]`` row of a (T+1, 3) pose array."""
    return [Pose2(*row) for row in np.asarray(poses).tolist()]


def latent_rollout_endpoint(z0: np.ndarray, u, net) -> np.ndarray:
    """Fold the latent transition over an (L, 3) action array, one increment
    at a time; an empty segment returns z0."""
    z = z0
    for a in increments(u):
        z = net_step(z, a, net)
    return z


def central_difference(f, x: np.ndarray, i: int, h: float = 1e-5) -> float:
    xp = x.copy()
    xm = x.copy()
    xp[i] += h
    xm[i] -= h
    return (f(xp) - f(xm)) / (2.0 * h)


# --- per-pose dynamics of the built-in models --------------------------------
#
# Each built-in model's step as it ran one Pose2 at a time, in plain floats.
# The library steps every model through its array kernels (``step_batch``,
# ``rollout_batch``, ``fold_steps``) and its ``step`` is one row of them, so
# these are the independent reference the kernels must reproduce exactly (==).


def increment_pose(action) -> Pose2:
    """The rigid motion realized by one body-frame increment."""
    return Pose2(theta=action.dtheta, x=action.dx, y=action.dy)


def exact_step(state: Pose2, action) -> Pose2:
    """Advance a pose by composing the increment's motion on the right."""
    return se2_compose(state, increment_pose(action))


def perturbed_step(state: Pose2, action, cfg, rng) -> Pose2:
    """Advance a pose after passing the increment through the injectors:
    asym_gain * saturate(action) + drift_bias + Gaussian noise, applied
    exactly."""
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


def encode(pose: Pose2, encoder, rng=None) -> np.ndarray:
    """Project pose features into the latent space, plus seeded observation noise."""
    z = encoder.projection @ pose_features(pose_array([pose])[0])
    if encoder.obs_noise_sigma > 0.0:
        if rng is None:
            raise ValueError("observation noise requires a random generator")
        z = z + rng.normal(0.0, encoder.obs_noise_sigma, size=z.shape)
    return z


def decode(z: np.ndarray, decoder) -> Pose2:
    """Recover the pose whose features best explain the latent."""
    f = decoder.pinv @ z
    if f[2] == 0.0 and f[3] == 0.0:
        raise HeadingUndefinedError("heading features are both zero")
    return Pose2(theta=math.atan2(f[3], f[2]), x=float(f[0]), y=float(f[1]))


def per_pose_step(model, state: Pose2, action, rng) -> Pose2:
    """A built-in model's step, per pose; any other model's own ``step``."""
    if isinstance(model, ExactModel):
        return exact_step(state, action)
    if isinstance(model, PerturbedModel):
        return perturbed_step(state, action, model.cfg, rng)
    if isinstance(model, LearnedWorldModel):
        z = encode(state, model.encoder, rng)
        return decode(net_step(z, action, model.net), model.decoder)
    return model.step(state, action, rng)


def rollout(model, start: Pose2, actions, rng) -> list[Pose2]:
    """Fold ``per_pose_step`` over an (L, 3) action array, collecting every
    pose; an int ``rng`` seeds a PCG64 generator."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.Generator(np.random.PCG64(rng))
    poses = [start]
    state = start
    for a in increments(actions):
        state = per_pose_step(model, state, a, rng)
        poses.append(state)
    return poses


def train(run, cfg, dataset, encoder, seed, initial_net=None):
    """One training run: ``train_group`` with the one config, raising the
    row's NonFiniteLossError if its loss turned non-finite."""
    (result,) = train_group(run, [cfg], dataset, encoder, seed, initial_net)
    if isinstance(result, NonFiniteLossError):
        raise result
    return result


# --- naive re-simulation of the probe protocol on deterministic injectors ---
#
# These reimplement the violation formulas and probe walks from scratch on
# homogeneous matrices, independent of gawm.metrics and gawm.models.


def oracle_realized(a3, drift=(0.0, 0.0, 0.0), sat=None, gains=(1.0, 1.0)):
    dx, dy, dth = a3
    if sat is not None:
        dx = sat * math.tanh(dx / sat)
        dy = sat * math.tanh(dy / sat)
        dth = sat * math.tanh(dth / sat)
    gp, gm = gains
    dx *= gp if dx >= 0 else gm
    dy *= gp if dy >= 0 else gm
    return (dx + drift[0], dy + drift[1], dth + drift[2])


def oracle_step_matrix(m: np.ndarray, a3, **inj) -> np.ndarray:
    dx, dy, dth = oracle_realized(a3, **inj)
    c, s = math.cos(dth), math.sin(dth)
    step = np.array([[c, -s, dx], [s, c, dy], [0.0, 0.0, 1.0]])
    return m @ step


def oracle_distance(m1: np.ndarray, m2: np.ndarray, alpha: float) -> float:
    dpos = math.hypot(m1[0, 2] - m2[0, 2], m1[1, 2] - m2[1, 2])
    th1 = math.atan2(m1[1, 0], m1[0, 0])
    th2 = math.atan2(m2[1, 0], m2[0, 0])
    dth = math.atan2(math.sin(th1 - th2), math.cos(th1 - th2))
    return dpos + alpha * abs(dth)


def _identity_positions(n, k):
    return [(j + 1) * n // (k + 1) for j in range(k)]


def _window_positions(n, l, k):
    last = n - l
    if k == 1:
        return [last // 2]
    return [round(j * last / (k - 1)) for j in range(k)]


def oracle_probe_identity(starts, streams, k, l, alpha, **inj) -> float:
    errors = []
    for start, actions in zip(starts, streams):
        n = len(actions)
        positions = sorted(_identity_positions(n, k))
        m = pose_to_matrix(Pose2(*start))
        pi = 0
        for i in range(n + 1):
            while pi < len(positions) and positions[pi] == i:
                before = m.copy()
                for _ in range(l):
                    m = oracle_step_matrix(m, (0.0, 0.0, 0.0), **inj)
                errors.append(oracle_distance(m, before, alpha))
                pi += 1
            if i < n:
                m = oracle_step_matrix(m, actions[i], **inj)
    return float(np.mean(errors))


def oracle_probe_inverse(starts, streams, k, l, alpha, **inj) -> float:
    errors = []
    for start, actions in zip(starts, streams):
        n = len(actions)
        positions = sorted(_window_positions(n, l, k))
        m = pose_to_matrix(Pose2(*start))
        for i in range(n + 1):
            for p in positions:
                if p != i:
                    continue
                branch = m.copy()
                window = actions[p : p + l]
                for a in window:
                    branch = oracle_step_matrix(branch, a, **inj)
                for a in reversed(window):
                    branch = oracle_step_matrix(branch, (-a[0], -a[1], -a[2]), **inj)
                errors.append(oracle_distance(branch, m, alpha))
            if i < n:
                m = oracle_step_matrix(m, actions[i], **inj)
    return float(np.mean(errors))


def oracle_probe_composition(starts, streams, l, alpha, weight_fn, **inj) -> float:
    """weight_fn(seq_idx, l) must reproduce the weight draw under test."""
    errors = []
    for s_idx, (start, actions) in enumerate(zip(starts, streams)):
        n = len(actions)
        positions = sorted(_window_positions(n, l, 1))
        m = pose_to_matrix(Pose2(*start))
        for i in range(n + 1):
            for p in positions:
                if p != i:
                    continue
                window = actions[p : p + l]
                total = np.sum(window, axis=0)
                w = weight_fn(s_idx, l)
                end_a = m.copy()
                for a in window:
                    end_a = oracle_step_matrix(end_a, a, **inj)
                end_b = m.copy()
                for wi in w:
                    end_b = oracle_step_matrix(end_b, tuple(wi * total), **inj)
                errors.append(oracle_distance(end_a, end_b, alpha))
            if i < n:
                m = oracle_step_matrix(m, actions[i], **inj)
    return float(np.mean(errors))


# --- per-pose reference for the batched evaluation path ---------------------
#
# evaluate_gac and evaluate_gar as they ran one Pose2 at a time: every
# stream step through per_pose_step, every branch and GAR rollout through a
# per-pose rollout, and the GAR distances over per-trajectory arrays. Like
# the metrics they take (S, 3) starts and (S, L, 3) action streams, and the
# batched metrics must reproduce these reports exactly (==).


def spawned_rng(seed: int, *key: int) -> np.random.Generator:
    """The PCG64 generator of ``seed`` spawned with key ``key``, written out."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=key)))


def per_pose_rollout(model, start: Pose2, actions, rng) -> list[Pose2]:
    """The model's native rollout, one pose at a time; the learned model
    carries its latent without re-encoding, as its native rollout does."""
    if isinstance(model, LearnedWorldModel):
        sigma = model.encoder.obs_noise_sigma
        z = encode(start, model.encoder, rng)
        poses = [start]
        for a in increments(actions):
            if sigma > 0.0:
                z = z + rng.normal(0.0, sigma, size=z.shape)
            z = net_step(z, a, model.net)
            poses.append(decode(z, model.decoder))
        return poses
    return rollout(model, start, actions, rng)


def reference_probe(model, starts, streams, cfg, dist, seed, concentration=1.0):
    from gawm.metrics import (
        KIND_COMPOSITION, KIND_IDENTITY, ProbeResult, identity_positions,
        window_positions,
    )
    from gawm.se2 import state_distance
    from gawm.segments import DirichletParams, make_compatibility_segment, make_inverse_segment

    code = {"identity": 0, "inverse": 1, "composition": 2}[cfg.kind]

    def rng(s, slot):
        return spawned_rng(seed, code, cfg.k, cfg.l, s, slot)

    dirichlet = DirichletParams(concentration=concentration)
    errors = []
    positions = ()
    for s, (start, rows) in enumerate(zip(starts, streams)):
        actions = np.asarray(rows, dtype=np.float64)
        n = len(actions)
        if cfg.kind == KIND_IDENTITY:
            positions = identity_positions(n, cfg.k)
        else:
            positions = window_positions(n, cfg.l, cfg.k)
        stream = rng(s, 0)
        state = Pose2(*start)
        for i in range(n + 1):
            for j, p in enumerate(sorted(positions)):
                if p != i:
                    continue
                if cfg.kind == KIND_IDENTITY:
                    pause = np.zeros((cfg.l, 3))
                    end = per_pose_rollout(model, state, pause, rng(s, 1 + j))[-1]
                    errors.append(state_distance(end, state, dist))
                    state = end
                elif cfg.kind == KIND_COMPOSITION:
                    u_a = actions[p : p + cfg.l]
                    u_b = make_compatibility_segment(u_a, dirichlet, rng(s, 1 + 3 * j))
                    end_a = per_pose_rollout(model, state, u_a, rng(s, 2 + 3 * j))[-1]
                    end_b = per_pose_rollout(model, state, u_b, rng(s, 3 + 3 * j))[-1]
                    errors.append(state_distance(end_a, end_b, dist))
                else:
                    cycle = make_inverse_segment(actions[p : p + cfg.l])
                    end = per_pose_rollout(model, state, cycle, rng(s, 1 + j))[-1]
                    errors.append(state_distance(end, state, dist))
            if i < n:
                state = per_pose_step(model, state, ActionIncrement(*actions[i].tolist()), stream)
    arr = np.array(errors)
    return ProbeResult(cfg.kind, cfg.k, cfg.l, float(arr.mean()), float(arr.std()),
                       len(errors), tuple(positions))


def reference_gac(model, starts, streams, grid, dist, seed, concentration=1.0):
    from gawm.metrics import aggregate_gac

    order = {"identity": 0, "inverse": 1, "composition": 2}
    ordered = sorted(grid, key=lambda c: (order[c.kind], c.k, c.l))
    return aggregate_gac([reference_probe(model, starts, streams, c, dist, seed, concentration)
                          for c in ordered])


def _positions(poses) -> np.ndarray:
    return np.array([[p.x, p.y] for p in poses])


def reference_align(traj: list, ref: list) -> list:
    p = _positions(traj)
    q = _positions(ref)
    mu_p = p.mean(axis=0)
    mu_q = q.mean(axis=0)
    pc = p - mu_p
    qc = q - mu_q
    dot = float(np.sum(pc * qc))
    cross = float(np.sum(pc[:, 0] * qc[:, 1] - pc[:, 1] * qc[:, 0]))
    phi = math.atan2(cross, dot)
    c, s = math.cos(phi), math.sin(phi)
    rot = np.array([[c, -s], [s, c]])
    t = mu_q - rot @ mu_p
    moved = p @ rot.T + t
    return [Pose2(theta=pose.theta + phi, x=float(xy[0]), y=float(xy[1]))
            for pose, xy in zip(traj, moved)]


def _reference_pairwise(trajs: list, alpha: float) -> float:
    n = len(trajs)
    pos = np.stack([_positions(t)[1:] for t in trajs])
    head = np.stack([np.array([p.theta for p in t])[1:] for t in trajs])
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            d_pos = np.linalg.norm(pos[i] - pos[j], axis=1)
            w = (head[i] - head[j] + math.pi) % (2.0 * math.pi) - math.pi
            d_head = np.abs(np.where(w == -math.pi, math.pi, w))
            total += float(np.mean(d_pos + alpha * d_head))
    return 2.0 * total / (n * (n - 1))


def reference_gar_error(trajs: list, alpha: float, aligned: bool) -> float:
    raw = _reference_pairwise(trajs, alpha)
    if not aligned:
        return raw
    moved = [trajs[0]] + [reference_align(t, trajs[0]) for t in trajs[1:]]
    return min(_reference_pairwise(moved, alpha), raw)


def reference_gar(model, starts, streams, horizons, n_rollouts, dist, seed, note=None):
    from gawm.metrics import GarEntry, GarReport

    horizons = sorted(horizons)
    per = {h: ([], []) for h in horizons}
    for s, (start, rows) in enumerate(zip(starts, streams)):
        full = [per_pose_rollout(model, Pose2(*start), rows[: horizons[-1]],
                                 spawned_rng(seed, 3, s, i))
                for i in range(n_rollouts)]
        for h in horizons:
            trajs = [t[: h + 1] for t in full]
            per[h][0].append(reference_gar_error(trajs, dist.alpha_rot, aligned=True))
            per[h][1].append(reference_gar_error(trajs, dist.alpha_rot, aligned=False))
    entries = []
    for h in horizons:
        al, na = np.array(per[h][0]), np.array(per[h][1])
        entries.append(GarEntry(h, float(al.mean()), float(al.std()), float(na.mean()),
                                float(na.std()), len(al)))
    return GarReport(n_rollouts=n_rollouts, entries=tuple(entries), note=note)


# --- per-pose reference for the array data path --------------------------
#
# Dataset generation and the held-out prediction loss as they ran one
# Pose2 at a time: a Pose2 start, ActionIncrements of an (L, 3) array, a
# ``rollout`` fold of the model's per-pose step, and features from math.cos
# and math.sin. The array path must reproduce these exactly (==).


def per_pose_sequence(rng, length, action_dist, start_pos_sigma=1.0):
    """One start pose and (L, 3) action array, drawn as the per-pose sampler drew them."""
    x, y = rng.normal(0.0, start_pos_sigma, size=2)
    theta = rng.uniform(-math.pi, math.pi)
    start = Pose2(theta=theta, x=float(x), y=float(y))
    dx = rng.normal(action_dist.mean_dx, action_dist.sigma_dx, size=length)
    dy = rng.normal(0.0, action_dist.sigma_dy, size=length)
    dth = np.clip(rng.normal(0.0, action_dist.sigma_dtheta, size=length), -math.pi, math.pi)
    steps = [ActionIncrement(float(dx[i]), float(dy[i]), float(dth[i])) for i in range(length)]
    return start, np.array([a.as_array() for a in steps]).reshape(-1, 3)


def per_pose_records(model, n, length, action_dist, seed, start_pos_sigma=1.0):
    """(poses, actions) of every trajectory: a list of Pose2 and an (L, 3) array."""
    records = []
    for i in range(n):
        rng = spawned_rng(seed, i)
        start, actions = per_pose_sequence(rng, length, action_dist, start_pos_sigma)
        records.append((rollout(model, start, actions, rng), actions))
    return records


def per_pose_features(p: Pose2) -> np.ndarray:
    return np.array([p.x, p.y, math.cos(p.theta), math.sin(p.theta)])


def per_pose_held_out_loss(model, net, encoder, length, action_dist, seed, start_pos_sigma):
    """The held-out prediction loss over (pose, increment, next pose) transitions:
    every fourth step of 32 trajectories, record by record, with observation
    noise drawn for every input, then for every target, in (d, B) order."""
    records = per_pose_records(model, 32, length, action_dist, seed, start_pos_sigma)
    transitions = [(poses[t], actions[t], poses[t + 1])
                   for poses, actions in records for t in range(0, len(actions), 4)]
    noise = spawned_rng(seed, 0, 1)

    def encode_columns(poses):
        z = encoder.projection @ np.stack([per_pose_features(p) for p in poses], axis=1)
        if encoder.obs_noise_sigma > 0.0:
            z = z + noise.normal(0.0, encoder.obs_noise_sigma, size=z.shape)
        return z

    z_in = encode_columns([s for s, _, _ in transitions])
    z_next = encode_columns([s2 for _, _, s2 in transitions])
    actions = np.stack([a for _, a, _ in transitions], axis=1)
    w1, b1, w2, b2 = net.weights()
    x = np.concatenate([z_in, actions], axis=0)
    diff = (z_in + ((w2 @ np.tanh(w1 @ x + b1[:, None])) + b2[:, None])) - z_next
    return float(np.sum(diff * diff) * (1.0 / z_in.shape[1]))


# --- per-step reference for training's step inputs ----------------------------
#
# What a training step reads besides the parameters, drawn and built one
# step at a time: a batch of four draws on the batch stream, its encoded
# columns, one constraint draw, the step's own Dirichlet weights and the
# teacher-forced inputs from a scalar ``se2_compose`` fold. Training
# builds them a chunk of steps at a time, as one ``Chunk`` record, and
# must reproduce these exactly (==).


class StepInputs(NamedTuple):
    """What one training step reads besides the parameters: the active
    constraint's index into CONSTRAINTS, the (z_in, actions, z_next)
    columns of its prediction batch, its (d,) anchor latent, and each
    rollout mode's (first input, actions) chains."""

    active: int
    columns: tuple
    z_t: np.ndarray
    plans: dict


@dataclass(frozen=True)
class Batch:
    """Transitions for the prediction loss, as (trajectory, time) index arrays
    into ``dataset``, plus one anchor and the (span, 3) action view after it."""

    dataset: object
    idx: np.ndarray
    ts: np.ndarray
    anchor_i: int
    anchor_t: int
    base_segment: np.ndarray

    @property
    def start_pose(self) -> np.ndarray:
        """The anchor's ``[theta, x, y]`` pose row."""
        return self.dataset.poses[self.anchor_i, self.anchor_t]


def sample_batch(dataset, batch_size: int, max_span: int, rng) -> Batch:
    idx = rng.integers(0, len(dataset), size=batch_size)
    ts = rng.integers(0, dataset.length, size=batch_size)
    span = int(rng.integers(1, max_span + 1))
    anchor_t = int(rng.integers(0, dataset.length - span + 1))
    anchor_i = int(idx[0])
    return Batch(dataset, idx, ts, anchor_i, anchor_t,
                 dataset.actions[anchor_i, anchor_t : anchor_t + span])


def encode_columns(features: np.ndarray, encoder, rng) -> np.ndarray:
    """Encode (4, B) feature columns, plus seeded observation noise."""
    z = encoder.projection @ features
    if encoder.obs_noise_sigma > 0.0:
        if rng is None:
            raise ValueError("observation noise requires a random generator")
        z = z + rng.normal(0.0, encoder.obs_noise_sigma, size=z.shape)
    return z


def batch_columns(batch: Batch, encoder, rng):
    """(z_in, actions, z_next) columns of a batch; noise is drawn for z_in, then z_next."""
    features, actions = batch.dataset.features, batch.dataset.actions
    z_in = encode_columns(features[batch.idx, batch.ts].T, encoder, rng)
    z_next = encode_columns(features[batch.idx, batch.ts + 1].T, encoder, rng)
    return z_in, actions[batch.idx, batch.ts].T, z_next


def constraint_segments(base_segment: np.ndarray, cfg, active: str, dirichlet_rng) -> list:
    """Rollout segments of the active constraint for one (L, 3) base segment."""
    l = len(base_segment)
    if active == CONSTRAINT_ID:
        return [np.zeros((l, 3))]
    if active == CONSTRAINT_INV:
        return [inverse_cycles(base_segment)]
    assert active == CONSTRAINT_COMP
    weights = sample_dirichlet_weights(l, cfg.dirichlet, dirichlet_rng)
    return [base_segment, recompose(base_segment, weights)]


def rollout_plans(segments: list, mode: str, z_t: np.ndarray, start_pose: np.ndarray,
                  encoder) -> list:
    """(first input, actions) of each rollout chain: free-running from the
    anchor latent; teacher-forced, the last step from the noiseless encoding
    of the exact state after the segment's other rows, folded one
    ``se2_compose`` at a time."""
    if mode == FREE_RUNNING:
        return [(z_t, seg) for seg in segments]
    start = Pose2(*start_pose.tolist())
    plans = []
    for seg in segments:
        if len(seg) == 1:
            plans.append((z_t, seg))
            continue
        state = start
        for dx, dy, dtheta in seg[:-1].tolist():
            state = se2_compose(state, Pose2(dtheta, dx, dy))
        features = pose_features(np.array([state.theta, state.x, state.y]))
        plans.append((encoder.projection @ features, seg[-1:]))
    return plans


def step_inputs(dataset, encoder, cfg, modes, batch_size: int, steps: int, streams) -> list:
    """Each step's ``StepInputs``, drawn and built one step at a time."""
    inputs = []
    for _ in range(steps):
        batch = sample_batch(dataset, batch_size, cfg.max_span, streams.batch)
        columns = batch_columns(batch, encoder, streams.noise)
        a = int(streams.constraint.integers(0, len(CONSTRAINTS)))
        z_t = encoder.projection @ dataset.features[batch.anchor_i, batch.anchor_t]
        segments = constraint_segments(batch.base_segment, cfg, CONSTRAINTS[a], streams.dirichlet)
        plans = {mode: rollout_plans(segments, mode, z_t, batch.start_pose, encoder)
                 for mode in modes}
        inputs.append(StepInputs(a, columns, z_t, plans))
    return inputs


def pack_chunk(steps: list) -> Chunk:
    """Per-step ``StepInputs`` as one training ``Chunk``: each mode's
    chains in step order, stably sorted longest first, a step's two side
    by side and each padded with zero actions to the longest."""
    chains = {}
    for mode in steps[0].plans:
        plans = [step.plans[mode] for step in steps]
        order = sorted(range(len(steps)), key=lambda k: -len(plans[k][0][1]))
        rows = [chain for k in order for chain in plans[k]]
        actions = np.zeros((len(rows), len(rows[0][1]), 3))
        for i, (_, seg) in enumerate(rows):
            actions[i, : len(seg)] = seg
        first = np.empty(len(steps), dtype=np.int64)
        first[order] = np.cumsum([0] + [len(plans[k]) for k in order])[:-1]
        chains[mode] = ChunkChains(np.array([z for z, _ in rows]), actions,
                                   np.array([len(seg) for _, seg in rows]), first,
                                   np.array([len(chain) == 2 for chain in plans]))
    return Chunk(np.array([step.active for step in steps]),
                 np.array([[step.columns[0], step.columns[2]] for step in steps]),
                 np.array([step.columns[1] for step in steps]),
                 np.array([step.z_t for step in steps]), chains)


def chunk_inputs(dataset, encoder, cfg, modes, batch_size: int, steps: int, streams,
                 first_step: int = 0) -> Chunk:
    """``training._chunk_inputs`` drawn and built one step at a time."""
    return pack_chunk(step_inputs(dataset, encoder, cfg, modes, batch_size, steps, streams))
