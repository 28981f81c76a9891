"""Consistency and robustness metrics for any planar world model.

The consistency suite runs controlled probes against a fixed set of
evaluation sequences: zero-action pauses inserted into the action
stream (identity), forward-inverse cycles branched off the stream
(inverse), and endpoint comparison of two segments with equal
accumulated increments (composition). Per-configuration errors average
the recovered-state distance over probe instances, component errors
average over configurations, and the aggregate score is the mean of the
three components.

The robustness metric measures dispersion across repeated stochastic
rollouts of the same action sequence, either raw or after removing the
best global rigid transform per rollout.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from itertools import combinations

import numpy as np

from .artifacts import write_csv, write_json, write_text
from .models import WorldModel, rollout_batch, step_batch
from .se2 import (
    DistanceParams,
    check_finite_poses,
    state_distances,
    wrap_angles,
)
from .segments import (
    ActionSegment,
    DirichletParams,
    make_compatibility_segment,
    make_inverse_segment,
)

KIND_IDENTITY = "identity"
KIND_INVERSE = "inverse"
KIND_COMPOSITION = "composition"
PROBE_KINDS = (KIND_IDENTITY, KIND_INVERSE, KIND_COMPOSITION)

MAX_LOCAL_WINDOW = 8

_KIND_CODE = {KIND_IDENTITY: 0, KIND_INVERSE: 1, KIND_COMPOSITION: 2}


@dataclass(frozen=True)
class ProbeConfig:
    """Which condition to probe, how many segments, and how long each is."""

    kind: str
    k: int = 1
    l: int = 1

    def __post_init__(self):
        if self.kind not in PROBE_KINDS:
            raise ValueError(f"unknown probe kind: {self.kind!r}")
        if self.k < 1 or self.l < 1:
            raise ValueError(f"k and l must be >= 1, got k={self.k}, l={self.l}")
        if self.l > MAX_LOCAL_WINDOW:
            raise ValueError(f"l={self.l} exceeds the local regime (<= {MAX_LOCAL_WINDOW})")
        if self.kind == KIND_COMPOSITION and self.k != 1:
            raise ValueError("composition probes carry k=1 by definition")


@dataclass(frozen=True)
class ProbeResult:
    """Per-configuration error: mean and dispersion over probe instances."""

    kind: str
    k: int
    l: int
    mean: float
    std: float
    n_instances: int
    start_positions: tuple[int, ...]


@dataclass(frozen=True)
class GacReport:
    per_config: tuple[ProbeResult, ...]
    delta_id: float
    delta_inv: float
    delta_comp: float
    std_id: float
    std_inv: float
    std_comp: float
    e_gac: float


@dataclass(frozen=True)
class GarEntry:
    horizon: int
    aligned_mean: float
    aligned_std: float
    nonaligned_mean: float
    nonaligned_std: float
    n_sequences: int


@dataclass(frozen=True)
class GarReport:
    n_rollouts: int
    entries: tuple[GarEntry, ...]
    note: str | None = None


def _probe_rng(seed: int, *key: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.PCG64(ss))


class _Generators(Sequence):
    """One generator per row, row i's derived from ``seed`` and ``keys[i]``.

    Each is built on first use and then kept. A model that draws no
    noise never builds one, which saves their construction time and
    keeps a batch of rows from holding a generator each.
    """

    def __init__(self, seed: int, keys: list[tuple[int, ...]]):
        self._seed = seed
        self._keys = keys
        self._built: dict[int, np.random.Generator] = {}

    def __len__(self) -> int:
        return len(self._keys)

    def __getitem__(self, i: int) -> np.random.Generator:
        i = range(len(self._keys))[i]
        rng = self._built.get(i)
        if rng is None:
            rng = self._built[i] = _probe_rng(self._seed, *self._keys[i])
        return rng


def identity_positions(n_actions: int, k: int) -> tuple[int, ...]:
    """k insertion offsets, uniformly spaced over the stream (offset i pauses
    before executing action i; offset n pauses after the last action)."""
    return tuple((j + 1) * n_actions // (k + 1) for j in range(k))


def window_positions(n_actions: int, l: int, k: int) -> tuple[int, ...]:
    """k window starts of length l, uniformly spaced over valid offsets."""
    last = n_actions - l
    if last < 0:
        raise ValueError(f"segment length {l} exceeds stream length {n_actions}")
    if k == 1:
        return (last // 2,)
    return tuple(round(j * last / (k - 1)) for j in range(k))


def probe_identity(model: WorldModel, starts, actions, cfg: ProbeConfig,
                   dist: DistanceParams, seed: int) -> ProbeResult:
    """Insert zero-action pauses into each stream and measure the drift across
    each pause window. The stream continues from the pause endpoint."""
    if cfg.kind != KIND_IDENTITY:
        raise ValueError(f"expected an identity config, got {cfg.kind!r}")
    return _walk_probe(model, starts, actions, cfg, dist, seed)


def probe_inverse(model: WorldModel, starts, actions, cfg: ProbeConfig,
                  dist: DistanceParams, seed: int) -> ProbeResult:
    """Branch a forward-inverse cycle off the stream at each window start and
    measure the distance back to the branch point. The stream itself is
    unaffected by the branches."""
    if cfg.kind != KIND_INVERSE:
        raise ValueError(f"expected an inverse config, got {cfg.kind!r}")
    return _walk_probe(model, starts, actions, cfg, dist, seed)


def probe_composition(model: WorldModel, starts, actions, cfg: ProbeConfig,
                      dist: DistanceParams, seed: int,
                      concentration: float = 1.0) -> ProbeResult:
    """Roll the original window and a recomposed window with equal accumulated
    increments from the same state (independent noise branches) and measure
    the endpoint mismatch."""
    if cfg.kind != KIND_COMPOSITION:
        raise ValueError(f"expected a composition config, got {cfg.kind!r}")
    return _walk_probe(model, starts, actions, cfg, dist, seed, concentration)


def probe_positions(cfg: ProbeConfig, n: int) -> tuple[int, ...]:
    """Probe positions for a stream of n actions, checked against it."""
    if cfg.kind == KIND_IDENTITY:
        return identity_positions(n, cfg.k)
    return window_positions(n, cfg.l, cfg.k)


def _check_sequences(starts, actions) -> tuple[np.ndarray, np.ndarray]:
    """Evaluation sequences as float64 arrays: S >= 1 ``[theta, x, y]``
    start rows (S, 3) and their ``[dx, dy, dtheta]`` action streams
    (S, L, 3), every action checked as ``ActionSegment`` checks a row.

    The shapes must agree exactly; numpy would otherwise broadcast one
    start row to every stream.
    """
    starts = np.asarray(starts, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.float64)
    if actions.ndim != 3 or starts.shape != (len(actions), 3):
        raise ValueError(f"starts must be (S, 3) and actions (S, L, 3), "
                         f"got {starts.shape} and {actions.shape}")
    if len(actions) == 0:
        raise ValueError("no evaluation sequences")
    ActionSegment(actions.reshape(-1, 3))
    return starts, actions


def _walk_probe(model: WorldModel, starts, actions, cfg: ProbeConfig, dist: DistanceParams,
                seed: int, concentration: float = 1.0) -> ProbeResult:
    """Walk every sequence's action stream in lockstep and branch probes off it.

    Row s is sequence s. Its stream steps through the model's step, batched
    over the rows, drawing from the generator keyed (kind, k, l, s, 0).
    Every stream probes at the same positions. At the j-th (in sorted
    order) each row branches with generators keyed 1 + j (identity,
    inverse) or 1 + 3j for the Dirichlet weights and 2 + 3j, 3 + 3j for
    the two windows (composition), and every branch segment runs as one
    batched rollout over the rows. Errors come out in sequence order,
    then position order. The streams run to their last action, as in
    per-pose evaluation, so an invalid pose anywhere along them raises.
    """
    states, actions = _check_sequences(starts, actions)
    positions = probe_positions(cfg, actions.shape[1])
    key = (_KIND_CODE[cfg.kind], cfg.k, cfg.l)
    rows = range(len(actions))
    dirichlet = DirichletParams(concentration=concentration)
    stream_rngs = _Generators(seed, [(*key, s, 0) for s in rows])
    errors = np.empty((len(actions), len(positions)))

    def branch_ends(segments, slot):
        rngs = _Generators(seed, [(*key, s, slot) for s in rows])
        return rollout_batch(model, states, segments, rngs)[:, -1]

    order = sorted(positions)
    for t in range(actions.shape[1] + 1):
        for j in [j for j, p in enumerate(order) if p == t]:
            if cfg.kind == KIND_IDENTITY:
                end = branch_ends(np.zeros((len(rows), cfg.l, 3)), 1 + j)
                errors[:, j] = state_distances(end, states, dist)
                states = end
                continue
            windows = actions[:, t : t + cfg.l]
            if cfg.kind == KIND_INVERSE:
                cycles = np.stack([make_inverse_segment(u).array for u in windows])
                errors[:, j] = state_distances(branch_ends(cycles, 1 + j), states, dist)
            else:
                recomposed = np.stack([
                    make_compatibility_segment(u, dirichlet, _probe_rng(seed, *key, s, 1 + 3 * j))
                    .array
                    for s, u in zip(rows, windows)
                ])
                errors[:, j] = state_distances(branch_ends(windows, 2 + 3 * j),
                                               branch_ends(recomposed, 3 + 3 * j), dist)
        if t < actions.shape[1]:
            states = step_batch(model, states, actions[:, t], stream_rngs)
    return ProbeResult(
        kind=cfg.kind,
        k=cfg.k,
        l=cfg.l,
        mean=float(errors.mean()),
        std=float(errors.std()),
        n_instances=errors.size,
        start_positions=positions,
    )


def default_probe_grid() -> list[ProbeConfig]:
    """Nine configurations: identity and inverse sweep the segment length with
    a single probed segment; composition sweeps the window length."""
    grid = [ProbeConfig(KIND_IDENTITY, k=1, l=l) for l in (1, 3, 5)]
    grid += [ProbeConfig(KIND_INVERSE, k=1, l=l) for l in (1, 3, 5)]
    grid += [ProbeConfig(KIND_COMPOSITION, k=1, l=l) for l in (2, 4, 6)]
    return grid


def run_probe(model: WorldModel, starts, actions, cfg: ProbeConfig, dist: DistanceParams,
              seed: int, concentration: float = 1.0) -> ProbeResult:
    if cfg.kind == KIND_IDENTITY:
        return probe_identity(model, starts, actions, cfg, dist, seed)
    if cfg.kind == KIND_INVERSE:
        return probe_inverse(model, starts, actions, cfg, dist, seed)
    return probe_composition(model, starts, actions, cfg, dist, seed, concentration)


def aggregate_gac(per_config) -> GacReport:
    """Unweighted component means over configurations and their simple average.

    Component dispersions treat the configurations as an equally weighted
    mixture of their instance populations.
    """
    by_kind: dict[str, list[ProbeResult]] = {k: [] for k in PROBE_KINDS}
    for r in per_config:
        by_kind[r.kind].append(r)
    means = {}
    stds = {}
    for kind in PROBE_KINDS:
        results = by_kind[kind]
        if not results:
            raise ValueError(f"no probe configurations for component {kind!r}")
        component_mean = sum(r.mean for r in results) / len(results)
        mixture_var = sum(r.std ** 2 + (r.mean - component_mean) ** 2 for r in results) / len(results)
        means[kind] = component_mean
        stds[kind] = math.sqrt(mixture_var)
    e_gac = (means[KIND_IDENTITY] + means[KIND_INVERSE] + means[KIND_COMPOSITION]) / 3.0
    return GacReport(
        per_config=tuple(per_config),
        delta_id=means[KIND_IDENTITY],
        delta_inv=means[KIND_INVERSE],
        delta_comp=means[KIND_COMPOSITION],
        std_id=stds[KIND_IDENTITY],
        std_inv=stds[KIND_INVERSE],
        std_comp=stds[KIND_COMPOSITION],
        e_gac=e_gac,
    )


def evaluate_gac(model: WorldModel, starts, actions, grid, dist: DistanceParams,
                 seed: int, concentration: float = 1.0) -> GacReport:
    """Run every configuration in the grid on the evaluation sequences and
    aggregate. The sequences are (S, 3) ``[theta, x, y]`` starts and
    (S, L, 3) ``[dx, dy, dtheta]`` actions, S >= 1, every action a valid
    increment.

    Results are ordered by sorted probe identifier so the report does not
    depend on evaluation order.
    """
    ordered = sorted(grid, key=lambda c: (_KIND_CODE[c.kind], c.k, c.l))
    results = [run_probe(model, starts, actions, cfg, dist, seed, concentration)
               for cfg in ordered]
    return aggregate_gac(results)


def align_trajectory(poses: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Move each trajectory in ``poses`` (an (N, 3) pose array, or a stack
    of them) by the rigid transform that best fits its positions to the
    (N, 3) reference's in the least-squares sense (closed form, no scale)."""
    if poses.shape[-2] != reference.shape[0]:
        raise ValueError(f"trajectory lengths differ: {poses.shape[-2]} vs {reference.shape[0]}")
    if reference.shape[0] < 2:
        raise ValueError("alignment needs at least two poses")
    batch = poses.reshape(-1, *reference.shape)
    p = batch[:, :, 1:]
    q = reference[:, 1:]
    mu_p = p.mean(axis=1)
    mu_q = q.mean(axis=0)
    pc = p - mu_p[:, None]
    qc = q - mu_q
    dot = np.sum(pc * qc, axis=(1, 2))
    cross = np.sum(pc[:, :, 0] * qc[:, 1] - pc[:, :, 1] * qc[:, 0], axis=1)
    phi = [math.atan2(c, d) for c, d in zip(cross.tolist(), dot.tolist())]
    rot = np.array([[[math.cos(f), -math.sin(f)], [math.sin(f), math.cos(f)]] for f in phi])
    t = mu_q - np.matmul(rot, mu_p[:, :, None])[:, :, 0]
    moved = np.empty_like(batch)
    moved[:, :, 0] = batch[:, :, 0] + np.array(phi)[:, None]
    moved[:, :, 1:] = np.matmul(p, rot.transpose(0, 2, 1)) + t[:, None]
    check_finite_poses(moved)
    moved[:, :, 0] = wrap_angles(moved[:, :, 0])
    return moved.reshape(poses.shape)


def gar_error(rollouts, dist: DistanceParams, aligned: bool) -> float:
    """Mean pairwise, time-averaged state distance over repeated rollouts.

    ``rollouts`` is an (R, T+1, 3) pose array. The shared start pose is
    excluded from the time average. With the
    aligned flag, every trajectory is first rigidly aligned to the first
    one; since alignment fits positions only while the distance also
    carries a heading term, the raw value is kept whenever the fitted
    transforms fail to reduce the total, so removing drift can never add
    error.
    """
    n = len(rollouts)
    if n < 2:
        raise ValueError(f"dispersion needs at least 2 rollouts, got {n}")
    check_finite_poses(rollouts)
    if rollouts.shape[1] < 2:
        raise ValueError("rollouts must contain at least one step")
    raw = _pairwise_mean_distance(rollouts, dist)
    return _aligned_dispersion(rollouts, dist, raw) if aligned else raw


def _aligned_dispersion(poses: np.ndarray, dist: DistanceParams, raw: float) -> float:
    """Aligned ``gar_error`` of an (R, T+1, 3) array whose raw value is ``raw``."""
    moved = poses.copy()
    moved[1:] = align_trajectory(poses[1:], poses[0])
    return min(_pairwise_mean_distance(moved, dist), raw)


def _pairwise_mean_distance(poses: np.ndarray, dist: DistanceParams) -> float:
    n = poses.shape[0]
    i, j = np.array(list(combinations(range(n), 2))).T  # the order of an i < j double loop
    pos = poses[:, 1:, 1:]
    head = poses[:, 1:, 0]
    d_pos = np.linalg.norm(pos[i] - pos[j], axis=2)
    d_head = np.abs(_wrap_array(head[i] - head[j]))
    total = 0.0
    for pair_mean in np.mean(d_pos + dist.alpha_rot * d_head, axis=1).tolist():
        total += pair_mean
    return 2.0 * total / (n * (n - 1))


def _wrap_array(theta: np.ndarray) -> np.ndarray:
    w = (theta + math.pi) % (2.0 * math.pi) - math.pi
    return np.where(w == -math.pi, math.pi, w)


def evaluate_gar(model: WorldModel, starts, actions, horizons, n_rollouts: int,
                 dist: DistanceParams, seed: int, note: str | None = None) -> GarReport:
    """Repeated seeded rollouts per sequence, truncated to each horizon.

    The sequences are (S, 3) starts and (S, L, 3) actions, as for
    ``evaluate_gac``, and L must cover the largest horizon. A
    sequence's rollouts run as one ``rollout_batch``, the model's native
    rollout process; rollout i of sequence s uses a generator derived
    from (seed, s, i), so the suite is reproducible and worker-order
    independent.
    """
    starts, actions = _check_sequences(starts, actions)
    if n_rollouts < 2:
        raise ValueError(f"n_rollouts must be >= 2, got {n_rollouts}")
    if len(horizons) == 0:
        raise ValueError("horizons must not be empty")
    horizons = sorted(horizons)
    t_max = horizons[-1]
    if actions.shape[1] < t_max:
        raise ValueError(f"sequences have {actions.shape[1]} actions, need >= {t_max}")
    per_horizon: dict[int, dict[str, list[float]]] = {
        h: {"aligned": [], "nonaligned": []} for h in horizons
    }
    for s, (start, row) in enumerate(zip(starts, actions)):
        rngs = _Generators(seed, [(3, s, i) for i in range(n_rollouts)])
        full = rollout_batch(model, np.repeat(start[None], n_rollouts, axis=0),
                             np.repeat(row[None, :t_max], n_rollouts, axis=0), rngs)
        for h in horizons:
            poses = full[:, : h + 1]
            raw = gar_error(poses, dist, aligned=False)
            per_horizon[h]["nonaligned"].append(raw)
            per_horizon[h]["aligned"].append(_aligned_dispersion(poses, dist, raw))
    entries = []
    for h in horizons:
        al = np.array(per_horizon[h]["aligned"])
        na = np.array(per_horizon[h]["nonaligned"])
        entries.append(
            GarEntry(
                horizon=h,
                aligned_mean=float(al.mean()),
                aligned_std=float(al.std()),
                nonaligned_mean=float(na.mean()),
                nonaligned_std=float(na.std()),
                n_sequences=len(al),
            )
        )
    return GarReport(n_rollouts=n_rollouts, entries=tuple(entries), note=note)


GAC_COLUMNS = ("kind", "k", "l", "mean", "std")
GAC_SUMMARY_COLUMNS = ("delta_id", "std_id", "delta_inv", "std_inv", "delta_comp", "std_comp", "e_gac")
GAR_COLUMNS = ("horizon", "n_rollouts", "n_sequences",
               "aligned_mean", "aligned_std", "nonaligned_mean", "nonaligned_std")


def _write_records(path, columns, records) -> None:
    """One CSV row per record dict, in ``columns`` order."""
    write_csv(path, columns, ([rec[c] for c in columns] for rec in records))


def write_gac_json(path, report: GacReport, model_name: str) -> None:
    write_json(path, {"model": model_name, **asdict(report)})


def write_gac_csv(path, report: GacReport, model_name: str) -> None:
    _write_records(path, ("model",) + GAC_COLUMNS,
                   ({"model": model_name, **asdict(r)} for r in report.per_config))


def write_gac_summary_csv(path, report: GacReport, model_name: str) -> None:
    _write_records(path, ("model",) + GAC_SUMMARY_COLUMNS, [{"model": model_name, **asdict(report)}])


def write_gac_gnuplot(path, report: GacReport) -> None:
    """Whitespace-separated probe-trend data, one block per probe kind."""
    lines = ["# " + " ".join(GAC_COLUMNS)]
    for kind in PROBE_KINDS:
        lines += [" ".join(str(getattr(r, c)) for c in GAC_COLUMNS)
                  for r in report.per_config if r.kind == kind]
        lines.append("")
    write_text(path, "\n".join(lines) + "\n")


def write_gar_json(path, report: GarReport, model_name: str) -> None:
    write_json(path, {"model": model_name, **asdict(report)})


def write_gar_csv(path, report: GarReport, model_name: str) -> None:
    _write_records(path, ("model",) + GAR_COLUMNS,
                   ({"model": model_name, "n_rollouts": report.n_rollouts, **asdict(e)}
                    for e in report.entries))
