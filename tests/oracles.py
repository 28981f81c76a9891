"""Independent brute-force oracles used across the test suite.

Everything here deliberately avoids the library's angle-form group
operations: poses become 3x3 homogeneous matrices, probes become naive
stepwise simulations, gradients become central finite differences.
"""

from __future__ import annotations

import math

import numpy as np

from gawm.se2 import Pose2


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


def latent_rollout_endpoint(z0: np.ndarray, u, net) -> np.ndarray:
    """Fold the latent transition over a segment, one increment at a time;
    an empty segment returns z0."""
    from gawm.latent import net_step

    z = z0
    for a in u:
        z = net_step(z, a, net)
    return z


def central_difference(f, x: np.ndarray, i: int, h: float = 1e-5) -> float:
    xp = x.copy()
    xm = x.copy()
    xp[i] += h
    xm[i] -= h
    return (f(xp) - f(xm)) / (2.0 * h)


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
# stream step through model.step, every branch and GAR rollout through a
# per-pose rollout, and the GAR distances over per-trajectory arrays. Like
# the metrics they take (S, 3) starts and (S, L, 3) action streams, and the
# batched metrics must reproduce these reports exactly (==).


def per_pose_rollout(model, start: Pose2, actions, rng) -> list[Pose2]:
    """The model's native rollout, one pose at a time; the learned model
    carries its latent without re-encoding, as its native rollout does."""
    from gawm.latent import LearnedWorldModel, decode, encode, net_step
    from gawm.models import rollout

    if isinstance(model, LearnedWorldModel):
        sigma = model.encoder.obs_noise_sigma
        z = encode(start, model.encoder, rng)
        poses = [start]
        for a in actions:
            if sigma > 0.0:
                z = z + rng.normal(0.0, sigma, size=z.shape)
            z = net_step(z, a, model.net)
            poses.append(decode(z, model.decoder))
        return poses
    sampler = getattr(model, "sample_trajectory", None)
    if sampler is not None:
        return list(sampler(start, actions, rng))
    return list(rollout(model, start, actions, rng))


def reference_probe(model, starts, streams, cfg, dist, seed, concentration=1.0):
    from gawm.metrics import (
        KIND_COMPOSITION, KIND_IDENTITY, ProbeResult, _probe_rng, identity_positions,
        window_positions,
    )
    from gawm.se2 import state_distance
    from gawm.segments import (
        ActionSegment, DirichletParams, ZERO_INCREMENT, make_compatibility_segment,
        make_inverse_segment,
    )

    code = {"identity": 0, "inverse": 1, "composition": 2}[cfg.kind]

    def rng(s, slot):
        return _probe_rng(seed, code, cfg.k, cfg.l, s, slot)

    dirichlet = DirichletParams(concentration=concentration)
    errors = []
    positions = ()
    for s, (start, rows) in enumerate(zip(starts, streams)):
        actions = ActionSegment(rows)
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
                    pause = ActionSegment([ZERO_INCREMENT] * cfg.l)
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
                state = model.step(state, actions[i], stream)
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
    from gawm.metrics import GarEntry, GarReport, _probe_rng
    from gawm.segments import ActionSegment

    horizons = sorted(horizons)
    per = {h: ([], []) for h in horizons}
    for s, (start, rows) in enumerate(zip(starts, streams)):
        full = [per_pose_rollout(model, Pose2(*start), ActionSegment(rows)[: horizons[-1]],
                                 _probe_rng(seed, 3, s, i))
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
# Pose2 at a time: a Pose2 start, an ActionSegment of ActionIncrements, a
# models.rollout fold of the model's step, and features from math.cos and
# math.sin. The array path must reproduce these exactly (==).


def per_pose_sequence(rng, length, action_dist, start_pos_sigma=1.0):
    """One start pose and action segment, drawn as the per-pose sampler drew them."""
    from gawm.segments import ActionIncrement, ActionSegment

    x, y = rng.normal(0.0, start_pos_sigma, size=2)
    theta = rng.uniform(-math.pi, math.pi)
    start = Pose2(theta=theta, x=float(x), y=float(y))
    dx = rng.normal(action_dist.mean_dx, action_dist.sigma_dx, size=length)
    dy = rng.normal(0.0, action_dist.sigma_dy, size=length)
    dth = np.clip(rng.normal(0.0, action_dist.sigma_dtheta, size=length), -math.pi, math.pi)
    actions = ActionSegment(
        [ActionIncrement(float(dx[i]), float(dy[i]), float(dth[i])) for i in range(length)])
    return start, actions


def per_pose_records(model, n, length, action_dist, seed, start_pos_sigma=1.0):
    """(poses, actions) of every trajectory: a list of Pose2 and an ActionSegment."""
    from gawm.models import rollout

    records = []
    for i in range(n):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(i,))))
        start, actions = per_pose_sequence(rng, length, action_dist, start_pos_sigma)
        records.append((list(rollout(model, start, actions, rng)), actions))
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
    noise = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(0, 1))))

    def encode_columns(poses):
        z = encoder.projection @ np.stack([per_pose_features(p) for p in poses], axis=1)
        if encoder.obs_noise_sigma > 0.0:
            z = z + noise.normal(0.0, encoder.obs_noise_sigma, size=z.shape)
        return z

    z_in = encode_columns([s for s, _, _ in transitions])
    z_next = encode_columns([s2 for _, _, s2 in transitions])
    actions = np.stack([a.as_array() for _, a, _ in transitions], axis=1)
    w1, b1, w2, b2 = net.weights()
    x = np.concatenate([z_in, actions], axis=0)
    diff = (z_in + ((w2 @ np.tanh(w1 @ x + b1[:, None])) + b2[:, None])) - z_next
    return float(np.sum(diff * diff) * (1.0 / z_in.shape[1]))
