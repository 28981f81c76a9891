"""Synthetic trajectory datasets and evaluation sequences.

Actions are drawn from a forward-biased Gaussian increment distribution
(positive mean forward motion, small lateral and angular components),
which mimics navigation ego-motion statistics without any external data.
Trajectories are rolled with a chosen reference model and written one
file each, as JSON Lines: a header line holding the actions, then one
pose per line.

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

from .artifacts import json_fields, number_array, read_json, write_json, write_text
from .domains import MAX_SCALE, Checked, bounded
from .latent import pose_features
from .models import WorldModel, fold_steps
from .se2 import check_finite_poses, wrap_angles
from .segments import check_increments, keyed_rngs

# evaluation suites (probe, GAR) whose sequences a process keeps
EVALUATION_CACHE_SIZE = 4


@dataclass(frozen=True)
class ActionDistribution(Checked):
    """Gaussian increment distribution; dtheta is clipped to the local regime."""

    mean_dx: float = bounded(0.1, -MAX_SCALE, MAX_SCALE)
    sigma_dx: float = bounded(0.05, 0.0, MAX_SCALE)
    sigma_dy: float = bounded(0.03, 0.0, MAX_SCALE)
    sigma_dtheta: float = bounded(0.1, 0.0)

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
    """Equal-length trajectories of T >= 1 actions: ``poses`` (N, T+1, 3),
    ``actions`` (N, T, 3) and every pose's (x, y, cos theta, sin theta) in
    ``features`` (N, T+1, 4).

    Every pose and action is checked once, here: a pose as ``Pose2``
    checks it, its heading wrapped into (-pi, pi] on a copy, and an
    action as ``ActionIncrement`` checks it. ``actions`` is a read-only
    view, so whatever is gathered from it needs no re-check.
    """

    def __init__(self, poses: np.ndarray, actions: np.ndarray):
        if len(poses) == 0:
            raise ValueError("dataset must contain at least one trajectory")
        n, t = actions.shape[:2]
        if poses.shape != (n, t + 1, 3) or actions.shape != (n, t, 3):
            raise ValueError(f"expected (N, T+1, 3) poses and (N, T, 3) actions, "
                             f"got {poses.shape} and {actions.shape}")
        if t < 1:
            raise ValueError(f"a trajectory needs at least one action, got {actions.shape} actions")
        check_finite_poses(poses)
        check_increments(actions.reshape(-1, 3))
        self.poses = np.array(poses, dtype=np.float64)
        self.poses[..., 0] = wrap_angles(self.poses[..., 0])
        self.actions = actions.view()
        self.actions.flags.writeable = False
        self.features = pose_features(self.poses)

    @property
    def length(self) -> int:
        return self.actions.shape[1]

    def __len__(self) -> int:
        return len(self.poses)


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


def write_trajectory_jsonl(path, poses: np.ndarray, actions: np.ndarray) -> None:
    """A ``{"actions": [[dx, dy, dtheta], ...]}`` header line, then one
    ``{"theta", "x", "y"}`` object per pose row."""
    lines = [json.dumps({"actions": actions.tolist()})]
    lines += [json.dumps({"theta": theta, "x": x, "y": y}) for theta, x, y in poses.tolist()]
    write_text(path, "\n".join(lines) + "\n")


_decode = json.JSONDecoder().raw_decode  # (value, end) of the JSON value a string starts with


def read_trajectory_jsonl(path) -> tuple[np.ndarray, np.ndarray]:
    """A trajectory file's (T+1, 3) poses and its header's (T, 3) actions,
    as written: every value must be a JSON number (``number_array``), and
    ``Dataset`` checks them. Every error names the file.

    Each line must hold one JSON value, as ``json.loads`` requires; the
    lines are decoded without its per-call checks, which cost more than
    decoding a line."""
    with open(path) as f:
        lines = [line.strip(" \t\n\r") for line in f if line.strip()]  # JSON's whitespace
    values = []
    try:
        for line in lines:
            value, end = _decode(line)
            if end != len(line):
                raise json.JSONDecodeError("Extra data", line, end)
            values.append(value)
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: a line is not JSON: {err}") from None
    header, *rows = values or [{}]
    try:
        poses = number_array([[r["theta"], r["x"], r["y"]] for r in rows])
    except KeyError as err:
        raise ValueError(f"{path}: a pose line lacks {err}") from None
    except (TypeError, ValueError) as err:
        raise ValueError(f"{path}: a pose line is not an object of numbers: {err}") from None
    (values,) = json_fields(path, header, ("actions",))
    try:
        actions = number_array(values)
    except ValueError as err:
        raise ValueError(f"{path}: the actions are not an array of numbers: {err}") from None
    if actions.ndim != 2 or actions.shape[1] != 3:
        raise ValueError(f"{path}: the actions must be an (L, 3) array, got shape {actions.shape}")
    if len(rows) != len(actions) + 1:
        raise ValueError(f"{path} holds {len(rows)} poses for {len(actions)} actions")
    return poses.reshape(-1, 3), actions


def write_dataset(out_dir, dataset: Dataset, meta: dict) -> dict:
    """Write one trajectory file per trajectory plus a summary, return the summary.

    Trajectory files already in ``out_dir``, the action files of the
    earlier layout and the temp files of a killed write are removed
    first, so the directory loads as exactly this dataset.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for stale in (*out.glob("traj_*.jsonl"), *out.glob("actions_*.json"), *out.glob("*.tmp")):
        stale.unlink()
    for i, (poses, actions) in enumerate(zip(dataset.poses, dataset.actions)):
        write_trajectory_jsonl(out / f"traj_{i:04d}.jsonl", poses, actions)
    summary = dict(meta)
    summary["n_trajectories"] = len(dataset)
    summary["length"] = dataset.length
    write_json(out / "summary.json", summary)
    return summary


def load_dataset(path) -> Dataset:
    """Read a dataset directory; ``Dataset`` checks the poses and actions
    and wraps the headings. The directory must hold the trajectories its
    ``summary.json`` counts, each of the length it gives."""
    root = Path(path)
    if not root.is_dir():
        raise FileNotFoundError(f"dataset directory not found: {root}")
    traj_paths = sorted(root.glob("traj_*.jsonl"))
    if not traj_paths:
        raise FileNotFoundError(f"no trajectory files in {root}")
    summary_path = root / "summary.json"
    n_trajectories, length = json_fields(summary_path, read_json(summary_path),
                                         ("n_trajectories", "length"))
    if not all(type(v) is int for v in (n_trajectories, length)):
        raise ValueError(f"{summary_path}: n_trajectories and length must be integers")
    if len(traj_paths) != n_trajectories:
        raise ValueError(f"{root}: summary.json counts {n_trajectories} trajectories, "
                         f"found {len(traj_paths)} trajectory files")
    poses, actions = zip(*map(read_trajectory_jsonl, traj_paths))
    lengths = {len(a) for a in actions}
    if lengths != {length}:
        raise ValueError(f"{root}: summary.json gives trajectory length {length}, "
                         f"found lengths {sorted(lengths)}")
    try:
        return Dataset(np.stack(poses), np.stack(actions))
    except ValueError:  # the checks are per value: name the first file that fails them
        for traj_path, p, a in zip(traj_paths, poses, actions):
            try:
                Dataset(p[None], a[None])
            except ValueError as err:
                raise ValueError(f"{traj_path}: {err}") from None
        raise
