"""Synthetic trajectory datasets and evaluation sequences.

Actions are drawn from a forward-biased Gaussian increment distribution
(positive mean forward motion, small lateral and angular components),
which mimics navigation ego-motion statistics without any external data.
Trajectories are rolled with a chosen reference model and written as
JSON Lines, one pose per line under a header.

Poses are ``[theta, x, y]`` rows and actions ``[dx, dy, dtheta]`` rows;
a dataset is three arrays and nothing else.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import write_json, write_text
from .latent import check_noise_sigma, pose_features
from .models import WorldModel, fold_steps
from .se2 import check_finite_poses, wrap_angles
from .segments import check_increments, keyed_rngs

# evaluation suites (probe, GAR) whose sequences a process keeps
EVALUATION_CACHE_SIZE = 4


@dataclass(frozen=True)
class ActionDistribution:
    """Gaussian increment distribution; dtheta is clipped to the local regime."""

    mean_dx: float = 0.1
    sigma_dx: float = 0.05
    sigma_dy: float = 0.03
    sigma_dtheta: float = 0.1

    def __post_init__(self):
        if not math.isfinite(self.mean_dx):
            raise ValueError(f"action_dist.mean_dx must be finite, got {self.mean_dx}")
        for name in ("sigma_dx", "sigma_dy", "sigma_dtheta"):
            check_noise_sigma(getattr(self, name), f"action_dist.{name}")

    def sample(self, length: int, rng: np.random.Generator) -> np.ndarray:
        """``length`` increments as a (length, 3) array: dx, then dy, then dtheta draws."""
        dx = rng.normal(self.mean_dx, self.sigma_dx, size=length)
        dy = rng.normal(0.0, self.sigma_dy, size=length)
        dth = np.clip(rng.normal(0.0, self.sigma_dtheta, size=length), -math.pi, math.pi)
        return np.stack([dx, dy, dth], axis=1)


def sample_sequences(n: int, length: int, action_dist: ActionDistribution, seed: int,
                     start_pos_sigma: float = 1.0):
    """(n, 3) starts, (n, length, 3) actions and the n generators they were
    drawn from: row i's generator is spawned from ``seed`` with key (i,) and
    draws a Gaussian position, a uniform heading, then the actions."""
    starts = np.empty((n, 3))
    actions = np.empty((n, length, 3))
    rngs = keyed_rngs(seed, [(i,) for i in range(n)])
    for i, rng in enumerate(rngs):
        starts[i, 1:] = rng.normal(0.0, start_pos_sigma, size=2)
        starts[i, 0] = rng.uniform(-math.pi, math.pi)
        actions[i] = action_dist.sample(length, rng)
    starts[:, 0] = wrap_angles(starts[:, 0])
    return starts, actions, rngs


@functools.lru_cache(maxsize=EVALUATION_CACHE_SIZE)
def evaluation_sequences(n: int, length: int, action_dist: ActionDistribution,
                         seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``sample_sequences``' (n, 3) starts and (n, length, 3) actions,
    without the generators: drawn once per process for each argument
    tuple (the last ``EVALUATION_CACHE_SIZE`` kept) and shared read-only
    by every model scored on them."""
    starts, actions, _ = sample_sequences(n, length, action_dist, seed)
    starts.flags.writeable = False
    actions.flags.writeable = False
    return starts, actions


class Dataset:
    """Equal-length trajectories: ``poses`` (N, T+1, 3), ``actions`` (N, T, 3)
    and every pose's (x, y, cos theta, sin theta) in ``features`` (N, T+1, 4).

    Every action is checked once, here, as ``ActionIncrement`` checks it;
    ``actions`` is a read-only view, and ``segment`` returns read-only
    views into it, which need no re-check.
    """

    def __init__(self, poses: np.ndarray, actions: np.ndarray):
        if len(poses) == 0:
            raise ValueError("dataset must contain at least one trajectory")
        n, t = actions.shape[:2]
        if poses.shape != (n, t + 1, 3) or actions.shape != (n, t, 3):
            raise ValueError(f"expected (N, T+1, 3) poses and (N, T, 3) actions, "
                             f"got {poses.shape} and {actions.shape}")
        check_increments(actions.reshape(-1, 3))
        self.poses = poses
        self.actions = actions.view()
        self.actions.flags.writeable = False
        self.features = pose_features(poses)

    @property
    def length(self) -> int:
        return self.actions.shape[1]

    def __len__(self) -> int:
        return len(self.poses)

    def segment(self, i: int, t: int, l: int) -> np.ndarray:
        """Trajectory i's actions t to t+l-1, as a read-only (l, 3) view."""
        if t + l > self.length:
            raise ValueError(f"segment [{t}, {t + l}) exceeds trajectory length {self.length}")
        return self.actions[i, t : t + l]


def generate_records(
    model: WorldModel,
    n_trajectories: int,
    length: int,
    action_dist: ActionDistribution,
    seed: int,
    start_pos_sigma: float = 1.0,
) -> Dataset:
    """Fold the model's step over all of ``sample_sequences``' trajectories
    at once (``fold_steps``); trajectory i keeps drawing from its own
    generator. An increment model folds them as one rollout."""
    starts, actions, rngs = sample_sequences(n_trajectories, length, action_dist, seed,
                                             start_pos_sigma)
    return Dataset(fold_steps(model, starts, actions, rngs), actions)


def write_trajectory_jsonl(path, poses: np.ndarray, header: dict) -> None:
    """One header line, then one ``{"theta", "x", "y"}`` object per pose row."""
    lines = [json.dumps(header, sort_keys=True)]
    lines += [json.dumps({"theta": theta, "x": x, "y": y}) for theta, x, y in poses.tolist()]
    write_text(path, "\n".join(lines) + "\n")


def read_trajectory_jsonl(path) -> tuple[dict, np.ndarray]:
    """The header and the (T+1, 3) pose array, checked and wrapped as ``Pose2`` would be."""
    with open(path) as f:
        lines = [line for line in f if line.strip()]
    header = json.loads(lines[0])
    rows = [json.loads(line) for line in lines[1:]]
    poses = np.array([(r["theta"], r["x"], r["y"]) for r in rows], dtype=np.float64).reshape(-1, 3)
    check_finite_poses(poses)
    poses[:, 0] = wrap_angles(poses[:, 0])
    return header, poses


def write_dataset(out_dir, dataset: Dataset, meta: dict) -> dict:
    """Write per-trajectory pose and action files plus a summary, return the summary.

    Trajectory and action files already in ``out_dir``, and the temp
    files of a killed write, are removed first, so the directory loads
    as exactly this dataset.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for stale in (*out.glob("traj_*.jsonl"), *out.glob("actions_*.json"), *out.glob("*.tmp")):
        stale.unlink()
    for i, (poses, actions) in enumerate(zip(dataset.poses, dataset.actions)):
        actions_name = f"actions_{i:04d}.json"
        write_json(out / actions_name, actions.tolist(), indent=None)
        header = {"seed": meta.get("seed"), "model": meta.get("model"),
                  "actions_file": actions_name}
        write_trajectory_jsonl(out / f"traj_{i:04d}.jsonl", poses, header)
    summary = dict(meta)
    summary["n_trajectories"] = len(dataset)
    summary["length"] = dataset.length
    write_json(out / "summary.json", summary)
    return summary


def load_dataset(path) -> Dataset:
    """Read a dataset directory; poses are checked and wrapped as ``Pose2``
    would, and ``Dataset`` checks the actions. The directory must hold the
    trajectories its ``summary.json`` counts, each of the length it gives."""
    root = Path(path)
    if not root.is_dir():
        raise FileNotFoundError(f"dataset directory not found: {root}")
    traj_paths = sorted(root.glob("traj_*.jsonl"))
    if not traj_paths:
        raise FileNotFoundError(f"no trajectory files in {root}")
    with open(root / "summary.json") as f:
        summary = json.load(f)
    if len(traj_paths) != summary["n_trajectories"]:
        raise ValueError(f"{root}: summary.json counts {summary['n_trajectories']} trajectories, "
                         f"found {len(traj_paths)} trajectory files")
    poses, actions = [], []
    for traj_path in traj_paths:
        header, traj = read_trajectory_jsonl(traj_path)
        with open(root / header["actions_file"]) as f:
            rows = np.array(json.load(f), dtype=np.float64)
        if len(traj) != len(rows) + 1:
            raise ValueError(f"{traj_path} holds {len(traj)} poses for {len(rows)} actions")
        poses.append(traj)
        actions.append(rows)
    lengths = {len(a) for a in actions}
    if lengths != {summary["length"]}:
        raise ValueError(f"{root}: summary.json gives trajectory length {summary['length']}, "
                         f"found lengths {sorted(lengths)}")
    return Dataset(np.stack(poses), np.stack(actions))
