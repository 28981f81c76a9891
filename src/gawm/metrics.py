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

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .artifacts import write_csv, write_json, write_text
from .models import WorldModel, fold_steps, is_deterministic, rollout_batch
from .se2 import (
    DistanceParams,
    check_finite_poses,
    state_distances,
    wrap_angles,
)
from .segments import (
    DirichletParams,
    check_increments,
    inverse_cycles,
    keyed_rngs,
    keyed_seeds,
    recompose,
    sample_dirichlet_weights,
    seeded_rngs,
)

KIND_IDENTITY = "identity"
KIND_INVERSE = "inverse"
KIND_COMPOSITION = "composition"
PROBE_KINDS = (KIND_IDENTITY, KIND_INVERSE, KIND_COMPOSITION)

MAX_LOCAL_WINDOW = 8

# rollouts per GAR rollout_batch, filled with whole sequences (at least one);
# it bounds the size of a batch's arrays and so the peak memory of GAR
GAR_BATCH_ROWS = 32

# Dirichlet weight arrays (one composition config at one stop) that a process keeps
WEIGHTS_CACHE_SIZE = 16

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


def _generators(model: WorldModel, seed: int, keys: list[tuple[int, ...]]) -> list:
    """One generator per row, row i's keyed ``keys[i]`` under ``seed``; for
    a model that draws no noise (``is_deterministic``), ``None`` per row."""
    if is_deterministic(model):
        return [None] * len(keys)
    return keyed_rngs(seed, keys)


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
    return _walk_probe(model, starts, actions, [cfg], dist, seed)[0]


def probe_inverse(model: WorldModel, starts, actions, cfg: ProbeConfig,
                  dist: DistanceParams, seed: int) -> ProbeResult:
    """Branch a forward-inverse cycle off the stream at each window start and
    measure the distance back to the branch point. The stream itself is
    unaffected by the branches."""
    if cfg.kind != KIND_INVERSE:
        raise ValueError(f"expected an inverse config, got {cfg.kind!r}")
    return _walk_probe(model, starts, actions, [cfg], dist, seed)[0]


def probe_composition(model: WorldModel, starts, actions, cfg: ProbeConfig,
                      dist: DistanceParams, seed: int,
                      concentration: float = 1.0) -> ProbeResult:
    """Roll the original window and a recomposed window with equal accumulated
    increments from the same state (independent noise branches) and measure
    the endpoint mismatch."""
    if cfg.kind != KIND_COMPOSITION:
        raise ValueError(f"expected a composition config, got {cfg.kind!r}")
    return _walk_probe(model, starts, actions, [cfg], dist, seed, concentration)[0]


def probe_positions(cfg: ProbeConfig, n: int) -> tuple[int, ...]:
    """Probe positions for a stream of n actions, checked against it."""
    if cfg.kind == KIND_IDENTITY:
        return identity_positions(n, cfg.k)
    return window_positions(n, cfg.l, cfg.k)


def _check_sequences(starts, actions) -> tuple[np.ndarray, np.ndarray]:
    """Evaluation sequences as float64 arrays: S >= 1 ``[theta, x, y]``
    start rows (S, 3) and their ``[dx, dy, dtheta]`` action streams
    (S, L, 3), every action checked as ``ActionIncrement`` checks it.

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
    check_increments(actions.reshape(-1, 3))
    return starts, actions


@functools.lru_cache(maxsize=WEIGHTS_CACHE_SIZE)
def _dirichlet_weights(seed: int, key: tuple[int, ...], j: int, rows: int, l: int,
                       dirichlet: DirichletParams) -> np.ndarray:
    """The composition config keyed ``key`` recomposes its windows at its
    j-th stop by these weights, one row of l per sequence, as one
    read-only (rows, l) array. Row s is drawn from the generator keyed
    (*key, s, 1 + 3j). The weights depend on nothing else, so the last
    ``WEIGHTS_CACHE_SIZE`` arrays are kept and models scored on the same
    suite share them."""
    rngs = keyed_rngs(seed, [(*key, s, 1 + 3 * j) for s in range(rows)])
    weights = np.stack([sample_dirichlet_weights(l, dirichlet, rng) for rng in rngs])
    weights.flags.writeable = False
    return weights


def _walk_probe(model: WorldModel, starts, actions, cfgs: list[ProbeConfig],
                dist: DistanceParams, seed: int, concentration: float = 1.0) -> list[ProbeResult]:
    """Walk every sequence's action stream in lockstep and branch the probes
    of each config in ``cfgs`` off it, one result per config, each equal to
    that config's walk alone.

    Row s is sequence s. A stream folds the model's step (``fold_steps``),
    batched over the rows, and carries its generators and the position it
    has been folded to. A model that draws no noise (``is_deterministic``)
    starts one stream that every config reads; any other model starts one
    per config, whose row s draws from the generator keyed (kind, k, l, s, 0)
    of its config, built at the stream's first fold. The walk goes from
    stop to stop: the sorted distinct positions of all configs. At a stop,
    each stream that a config probes there folds up to it. Once no config
    that reads a stream has a position left, the stream folds to its last
    action, as in per-pose evaluation, so an invalid pose anywhere along it
    raises, and is dropped. An increment model advances each stretch as
    one rollout. At a config's j-th position
    (in sorted order) each row branches with that config's generators keyed
    1 + j (identity, inverse) or 1 + 3j for the Dirichlet weights and
    2 + 3j, 3 + 3j for the two windows (composition), and every branch
    segment runs as one batched rollout over the rows. An inverse branch
    is its windows' ``inverse_cycles``, a composition branch ``recompose``
    of its windows by ``_dirichlet_weights``. Errors come out in sequence
    order, then position order.

    An identity pause replaces the state of the stream its config reads.
    While another config still reads that stream, the config first forks
    it: from then on it reads its own stream of the same rows, folded in
    its own ``fold_steps`` calls. A walk of one config never forks, and a
    stream that no config reads is not folded.
    """
    states, actions = _check_sequences(starts, actions)
    n = actions.shape[1]
    rows = range(len(actions))
    dirichlet = DirichletParams(concentration=concentration)
    keys = [(_KIND_CODE[cfg.kind], cfg.k, cfg.l) for cfg in cfgs]
    positions = [probe_positions(cfg, n) for cfg in cfgs]
    errors = [np.empty((len(actions), len(p))) for p in positions]
    shared = is_deterministic(model)
    # each stream is [states, generators (None before its first fold), the
    # position it is folded to, the key of its generators], or None once dropped
    streams = [[states, None, 0, key] for key in (keys[:1] if shared else keys)]
    # config i reads streams[reads[i]]
    reads = [0] * len(cfgs) if shared else list(range(len(cfgs)))

    def fold(stream, stop):
        at, rngs, t, key = stream
        if t < stop:
            if rngs is None:
                rngs = stream[1] = _generators(model, seed, [(*key, s, 0) for s in rows])
            # a copy, so that no stream keeps its whole stretch of poses alive
            stream[0] = fold_steps(model, at, actions[:, t:stop], rngs)[:, -1].copy()
            stream[2] = stop

    def branch_ends(at, key, segments, slot):
        rngs = _generators(model, seed, [(*key, s, slot) for s in rows])
        return rollout_batch(model, at, segments, rngs)[:, -1]

    for stop in sorted({p for ps in positions for p in ps}):
        probed = [c for c, ps in enumerate(positions) if stop in ps]
        for i in sorted({reads[c] for c in probed}):
            fold(streams[i], stop)
        for c, (cfg, key, ps, err) in enumerate(zip(cfgs, keys, positions, errors)):
            for j in [j for j, p in enumerate(sorted(ps)) if p == stop]:
                stream = streams[reads[c]]
                at = stream[0]
                if cfg.kind == KIND_IDENTITY:
                    end = branch_ends(at, key, np.zeros((len(rows), cfg.l, 3)), 1 + j)
                    err[:, j] = state_distances(end, at, dist)
                    if reads.count(reads[c]) > 1:
                        reads[c] = len(streams)
                        streams.append([end, stream[1], stop, stream[3]])
                    else:
                        stream[0] = end
                    continue
                windows = actions[:, stop : stop + cfg.l]
                if cfg.kind == KIND_INVERSE:
                    cycles = inverse_cycles(windows)
                    err[:, j] = state_distances(branch_ends(at, key, cycles, 1 + j), at, dist)
                else:
                    weights = _dirichlet_weights(seed, key, j, len(rows), cfg.l, dirichlet)
                    try:
                        recomposed = recompose(windows, weights)
                    except ValueError as e:  # a share of a window's summed turn beyond pi
                        raise ValueError(
                            f"composition probe l={cfg.l}, sequence {e.row // cfg.l}, window at "
                            f"action {stop}: the recomposed window is no valid increment ({e}); "
                            "lower probes.composition_lengths or the suite's turns "
                            "(probes.action_dist.sigma_dtheta)") from None
                    err[:, j] = state_distances(branch_ends(at, key, windows, 2 + 3 * j),
                                                branch_ends(at, key, recomposed, 3 + 3 * j), dist)
        for i, stream in enumerate(streams):
            if stream is not None and all(max(positions[c]) <= stop
                                          for c, r in enumerate(reads) if r == i):
                fold(stream, n)
                streams[i] = None
    return [
        ProbeResult(kind=cfg.kind, k=cfg.k, l=cfg.l, mean=float(err.mean()), std=float(err.std()),
                    n_instances=err.size, start_positions=ps)
        for cfg, ps, err in zip(cfgs, positions, errors)
    ]


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
    depend on evaluation order. The whole grid is one walk
    (``_walk_probe``), in which every config sees the stream its own walk
    would, so the report is the same.
    """
    ordered = sorted(grid, key=lambda c: (_KIND_CODE[c.kind], c.k, c.l))
    return aggregate_gac(_walk_probe(model, starts, actions, ordered, dist, seed, concentration))


def align_trajectory(poses: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Move each trajectory in ``poses`` by the rigid transform that best
    fits its positions to its reference's in the least-squares sense
    (closed form, no scale).

    ``reference`` is one (N, 3) pose array, which every trajectory in
    ``poses`` (an (N, 3) array or any stack of them) fits, or a stack
    (..., N, 3) of references, one per leading index of ``poses``: with
    (S, N, 3) references, ``poses`` is (S, N, 3) or (S, K, N, 3), and
    every trajectory of row s fits reference s. Each trajectory moves
    exactly as it would in a call with its own reference alone.
    """
    n = reference.shape[-2]
    if poses.shape[-2] != n:
        raise ValueError(f"trajectory lengths differ: {poses.shape[-2]} vs {n}")
    if n < 2:
        raise ValueError("alignment needs at least two poses")
    if poses.shape[: reference.ndim - 2] != reference.shape[:-2]:
        raise ValueError(f"poses {poses.shape} do not stack over references {reference.shape}")
    refs = reference.reshape(-1, n, 3)
    batch = poses.reshape(len(refs), -1, n, 3)
    p = batch[..., 1:]
    q = refs[..., 1:]
    mu_p = p.mean(axis=2)
    mu_q = q.mean(axis=1)
    pc = p - mu_p[:, :, None]
    qc = (q - mu_q[:, None])[:, None]
    dot = np.sum(pc * qc, axis=(2, 3))
    cross = np.sum(pc[..., 0] * qc[..., 1] - pc[..., 1] * qc[..., 0], axis=2)
    phi = [math.atan2(c, d) for c, d in zip(cross.ravel().tolist(), dot.ravel().tolist())]
    rot = np.reshape([[[math.cos(f), -math.sin(f)], [math.sin(f), math.cos(f)]] for f in phi],
                     (*dot.shape, 2, 2))
    t = mu_q[:, None] - np.matmul(rot, mu_p[..., None])[..., 0]
    moved = np.empty_like(batch)
    moved[..., 0] = batch[..., 0] + np.reshape(phi, dot.shape)[..., None]
    moved[..., 1:] = np.matmul(p, rot.swapaxes(-1, -2)) + t[:, :, None]
    check_finite_poses(moved)
    moved[..., 0] = wrap_angles(moved[..., 0])
    return moved.reshape(poses.shape)


def gar_error(rollouts, dist: DistanceParams, aligned: bool) -> float:
    """Mean pairwise, time-averaged state distance over repeated rollouts.

    ``rollouts`` is an (R, T+1, 3) pose array. The shared start pose is
    excluded from the time average. With the
    aligned flag, every trajectory is first rigidly aligned to the first
    one; since alignment fits positions only while the distance also
    carries a heading term, the raw value is kept whenever the fitted
    transforms fail to reduce the total, so removing drift can never add
    error. This is one row of ``evaluate_gar``'s batched dispersion.
    """
    n = len(rollouts)
    if n < 2:
        raise ValueError(f"dispersion needs at least 2 rollouts, got {n}")
    check_finite_poses(rollouts)
    if rollouts.shape[1] < 2:
        raise ValueError("rollouts must contain at least one step")
    poses = rollouts[None]
    raw = _mean_pair_distance(_pair_distances(poses, dist), n)
    return float((_aligned_dispersion(poses, dist, raw) if aligned else raw)[0])


def _aligned_dispersion(poses: np.ndarray, dist: DistanceParams, raw: np.ndarray) -> np.ndarray:
    """Aligned ``gar_error`` of each of n (R, T+1, 3) rollout sets in an
    (n, R, T+1, 3) array whose raw values are ``raw``, as an (n,) array."""
    moved = poses.copy()
    moved[:, 1:] = align_trajectory(poses[:, 1:], poses[:, 0])
    return np.minimum(_mean_pair_distance(_pair_distances(moved, dist), poses.shape[1]), raw)


def _pair_distances(poses: np.ndarray, dist: DistanceParams) -> np.ndarray:
    """Per-step state distance of every rollout pair of each of n
    (R, T+1, 3) rollout sets in an (n, R, T+1, 3) array, as an
    (n, R(R-1)/2, T) array over the steps after the shared start. Pairs
    (i, j), i < j, come in row-major order. ``sqrt(dx*dx + dy*dy)``
    adds the same two squares, rounded once, as ``np.linalg.norm``."""
    steps = poses[:, :, 1:]
    diff = np.concatenate([steps[:, i : i + 1] - steps[:, i + 1 :]
                           for i in range(poses.shape[1] - 1)], axis=1)
    dx, dy = diff[..., 1], diff[..., 2]
    return np.sqrt(dx * dx + dy * dy) + dist.alpha_rot * np.abs(_wrap_array(diff[..., 0]))


def _mean_pair_distance(per_step: np.ndarray, r: int) -> np.ndarray:
    """Raw ``gar_error`` of each of n sets of r rollouts from their
    (n, r(r-1)/2, h) per-step pair distances (``_pair_distances``, or a
    prefix of its steps for a shorter horizon), as an (n,) array.

    Each pair's time mean runs along the time axis and the pair means
    add up one by one in ``i < j`` order, so every value rounds as a
    double loop over the pairs would.
    """
    pair_means = np.mean(per_step, axis=-1)
    return 2.0 * np.add.accumulate(pair_means, axis=-1)[:, -1] / (r * (r - 1))


def _wrap_array(theta: np.ndarray) -> np.ndarray:
    w = (theta + math.pi) % (2.0 * math.pi) - math.pi
    return np.where(w == -math.pi, math.pi, w)


def gar_repeats(model: WorldModel, n_rollouts: int) -> int:
    """Rollouts that ``evaluate_gar`` runs per sequence: one for a model
    that draws no noise (``is_deterministic``), else ``n_rollouts``."""
    return 1 if is_deterministic(model) else n_rollouts


def evaluate_gar(model: WorldModel, starts, actions, horizons, n_rollouts: int,
                 dist: DistanceParams, seed: int, note: str | None = None) -> GarReport:
    """Repeated seeded rollouts per sequence, truncated to each horizon.

    The sequences are (S, 3) starts and (S, L, 3) actions, as for
    ``evaluate_gac``, and L must cover the largest horizon. Consecutive
    whole sequences run together, as many as fit ``GAR_BATCH_ROWS``
    rollouts (at least one), as one ``rollout_batch``, the model's native
    rollout process, with rows in (sequence, rollout) order. Rollout i of
    sequence s uses the generator keyed (3, s, i) under ``seed``, so the
    suite is reproducible and does not depend on the batch size; the
    suite's keys are hashed once (``keyed_seeds``) and each batch builds
    its own rows' generators. Each batch's dispersions are computed as
    arrays over its sequences, each value equal to ``gar_error`` of that
    sequence's rollouts: the pair distances are taken once, over the
    largest horizon, and a horizon's raw dispersion averages their first
    h steps, while the aligned value fits each horizon anew. A model that draws
    no noise (``is_deterministic``) would repeat one rollout R times, so
    each sequence rolls once with no generator, its poses are checked,
    and its dispersions are zero.
    """
    starts, actions = _check_sequences(starts, actions)
    if n_rollouts < 2:
        raise ValueError(f"n_rollouts must be >= 2, got {n_rollouts}")
    if len(horizons) == 0:
        raise ValueError("horizons must not be empty")
    if len(set(horizons)) < len(horizons):
        raise ValueError(f"horizons must not repeat a horizon, got {list(horizons)}")
    horizons = sorted(horizons)
    if horizons[0] < 1:
        raise ValueError("rollouts must contain at least one step")
    t_max = horizons[-1]
    if actions.shape[1] < t_max:
        raise ValueError(f"sequences have {actions.shape[1]} actions, need >= {t_max}")
    n_seq = len(actions)
    aligned = np.zeros((len(horizons), n_seq))
    nonaligned = np.zeros((len(horizons), n_seq))
    reps = gar_repeats(model, n_rollouts)
    deterministic = reps == 1
    per_batch = max(1, GAR_BATCH_ROWS // reps)
    if not deterministic:
        seeds = keyed_seeds(seed, [(3, s, i) for s in range(n_seq) for i in range(reps)])
    for lo in range(0, n_seq, per_batch):
        hi = min(lo + per_batch, n_seq)
        rngs = [None] * (hi - lo) if deterministic else seeded_rngs(seeds[lo * reps : hi * reps])
        full = rollout_batch(model, np.repeat(starts[lo:hi], reps, axis=0),
                             np.repeat(actions[lo:hi, :t_max], reps, axis=0), rngs)
        check_finite_poses(full)
        if deterministic:
            continue
        full = full.reshape(hi - lo, n_rollouts, t_max + 1, 3)
        per_step = _pair_distances(full, dist)
        for k, h in enumerate(horizons):
            raw = _mean_pair_distance(per_step[..., :h], n_rollouts)
            nonaligned[k, lo:hi] = raw
            aligned[k, lo:hi] = _aligned_dispersion(full[:, :, : h + 1], dist, raw)
    entries = tuple(
        GarEntry(
            horizon=h,
            aligned_mean=float(al.mean()),
            aligned_std=float(al.std()),
            nonaligned_mean=float(na.mean()),
            nonaligned_std=float(na.std()),
            n_sequences=n_seq,
        )
        for h, al, na in zip(horizons, aligned, nonaligned)
    )
    return GarReport(n_rollouts=n_rollouts, entries=entries, note=note)


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
