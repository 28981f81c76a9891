"""Synthetic trajectory datasets and evaluation sequences.

Actions are drawn from a forward-biased Gaussian increment distribution
(positive mean forward motion, small lateral and angular components),
which mimics navigation ego-motion statistics without any external data.
Trajectories are rolled with a chosen reference model and written as
JSON Lines, one pose per line under a header.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import write_json
from .latent import pose_features
from .models import Trajectory, WorldModel, rollout, write_trajectory_jsonl, read_trajectory_jsonl
from .se2 import Pose2
from .segments import ActionIncrement, ActionSegment


@dataclass(frozen=True)
class ActionDistribution:
    """Gaussian increment distribution; dtheta is clipped to the local regime."""

    mean_dx: float = 0.1
    sigma_dx: float = 0.05
    sigma_dy: float = 0.03
    sigma_dtheta: float = 0.1

    def sample_segment(self, length: int, rng: np.random.Generator) -> ActionSegment:
        dx = rng.normal(self.mean_dx, self.sigma_dx, size=length)
        dy = rng.normal(0.0, self.sigma_dy, size=length)
        dth = np.clip(rng.normal(0.0, self.sigma_dtheta, size=length), -math.pi, math.pi)
        return ActionSegment(
            [ActionIncrement(float(dx[i]), float(dy[i]), float(dth[i])) for i in range(length)]
        )

    def to_dict(self) -> dict:
        return {
            "mean_dx": self.mean_dx,
            "sigma_dx": self.sigma_dx,
            "sigma_dy": self.sigma_dy,
            "sigma_dtheta": self.sigma_dtheta,
        }

    @staticmethod
    def from_dict(d: dict) -> "ActionDistribution":
        return ActionDistribution(
            mean_dx=float(d.get("mean_dx", 0.1)),
            sigma_dx=float(d.get("sigma_dx", 0.05)),
            sigma_dy=float(d.get("sigma_dy", 0.03)),
            sigma_dtheta=float(d.get("sigma_dtheta", 0.1)),
        )


def sample_start_pose(rng: np.random.Generator, pos_sigma: float = 1.0) -> Pose2:
    """Random start: Gaussian position, uniform heading."""
    x, y = rng.normal(0.0, pos_sigma, size=2)
    theta = rng.uniform(-math.pi, math.pi)
    return Pose2(theta=theta, x=float(x), y=float(y))


@dataclass(frozen=True)
class TrajectoryRecord:
    """One dataset item: the executed actions and every visited pose."""

    poses: Trajectory
    actions: ActionSegment


class Dataset:
    """In-memory collection of equal-length trajectory records.

    ``features`` holds every pose's (x, y, cos theta, sin theta) as an
    (N, T+1, 4) array and ``actions`` every increment as an (N, T, 3)
    array, so training batches are gathered by index instead of per pose.
    """

    def __init__(self, records: list[TrajectoryRecord]):
        if not records:
            raise ValueError("dataset must contain at least one trajectory")
        lengths = {len(r.actions) for r in records}
        if len(lengths) != 1:
            raise ValueError(f"trajectories must share one length, got {sorted(lengths)}")
        self.records = records
        self.length = lengths.pop()
        self.features = np.array([[pose_features(p) for p in r.poses] for r in records])
        self.actions = np.array([[(a.dx, a.dy, a.dtheta) for a in r.actions] for r in records])

    def __len__(self) -> int:
        return len(self.records)

    def transition(self, i: int, t: int) -> tuple[Pose2, ActionIncrement, Pose2]:
        r = self.records[i]
        return r.poses[t], r.actions[t], r.poses[t + 1]

    def segment(self, i: int, t: int, l: int) -> ActionSegment:
        if t + l > self.length:
            raise ValueError(f"segment [{t}, {t + l}) exceeds trajectory length {self.length}")
        return self.records[i].actions[t : t + l]

    def start_pose(self, i: int, t: int) -> Pose2:
        return self.records[i].poses[t]


def generate_records(
    model: WorldModel,
    n_trajectories: int,
    length: int,
    action_dist: ActionDistribution,
    seed: int,
    start_pos_sigma: float = 1.0,
) -> list[TrajectoryRecord]:
    records = []
    for i in range(n_trajectories):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(i,))
        rng = np.random.Generator(np.random.PCG64(ss))
        start = sample_start_pose(rng, pos_sigma=start_pos_sigma)
        actions = action_dist.sample_segment(length, rng)
        traj = rollout(model, start, actions, rng)
        records.append(TrajectoryRecord(poses=traj, actions=actions))
    return records


def write_dataset(out_dir, records: list[TrajectoryRecord], meta: dict) -> dict:
    """Write per-trajectory pose and action files plus a summary, return the summary."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for i, rec in enumerate(records):
        actions_name = f"actions_{i:04d}.json"
        write_json(out / actions_name, rec.actions.to_json(), indent=None)
        header = {
            "seed": meta.get("seed"),
            "model": meta.get("model"),
            "actions_file": actions_name,
        }
        write_trajectory_jsonl(out / f"traj_{i:04d}.jsonl", rec.poses, header)
    summary = dict(meta)
    summary["n_trajectories"] = len(records)
    summary["length"] = len(records[0].actions)
    write_json(out / "summary.json", summary)
    return summary


def load_dataset(path) -> Dataset:
    root = Path(path)
    if not root.is_dir():
        raise FileNotFoundError(f"dataset directory not found: {root}")
    records = []
    for traj_path in sorted(root.glob("traj_*.jsonl")):
        header, traj = read_trajectory_jsonl(traj_path)
        with open(root / header["actions_file"]) as f:
            actions = ActionSegment.from_json(json.load(f))
        records.append(TrajectoryRecord(poses=traj, actions=actions))
    if not records:
        raise FileNotFoundError(f"no trajectory files in {root}")
    return Dataset(records)
