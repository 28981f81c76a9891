"""Pipeline stages behind the command-line interface.

Each stage is a plain function from a resolved config to files on disk,
so tests can drive them directly and an ablation's lockstep groups can
run in worker processes. Each stage adds its entry to the run manifest
atomically when it ends; an interrupted stage leaves no entry.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import replace
from itertools import groupby
from pathlib import Path

import numpy as np

from .artifacts import json_fields, read_json, write_csv, write_json, write_text
from .config import (
    STAGE_DATASET,
    STAGE_ENCODER,
    STAGE_EVAL,
    STAGE_FINETUNE,
    STAGE_GAR,
    STAGE_PROBE,
    STAGE_TRAIN,
    ExperimentConfig,
    ProbeSuiteConfig,
    TOOL_VERSION,
    from_json,
    save_config,
    stage_seed,
)
from .data import (
    Dataset,
    evaluation_sequences,
    generate_records,
    load_dataset,
    write_dataset,
)
from .domains import domain
from .latent import (
    LearnedWorldModel,
    load_checkpoint,
    make_encoder,
    save_checkpoint,
)
from .metrics import (
    evaluate_gac,
    evaluate_gar,
    gar_repeats,
    write_gac_csv,
    write_gac_gnuplot,
    write_gac_json,
    write_gac_summary_csv,
    write_gar_csv,
    write_gar_json,
)
from .models import ExactModel, PerturbedModel, ViolationConfig, WorldModel, is_deterministic
from .se2 import DistanceParams
from .segments import keyed_rng
from .training import LOSS_COLUMNS, NonFiniteLossError, TrainResult, prediction_loss, train_group


class UnknownModelRefError(ValueError):
    """The model reference is neither a named reference model nor a checkpoint."""


# The one ``ViolationConfig`` field that each shorthand sets.
_SHORTHAND_FIELDS = {"drift": "drift_bias", "noise": "noise_sigma",
                     "sat": "saturation_scale", "asym": "asym_gain"}


def parse_model_ref(ref: str, eval_noise_sigma: float = 0.0) -> tuple[WorldModel, str]:
    """Resolve a model reference into a world model and a display name.

    Named forms: "exact", "perturbed:{json}" for a ``ViolationConfig``
    checked like a config section, or one of its one-field shorthands
    "drift:DX,DY,DTH", "noise:SIGMA", "sat:C" and "asym:GP,GM", which
    put their value (a list when there are several) in that field. A
    perturbed model's display name is the reference itself. Anything
    ending in .json is loaded as a checkpoint and wrapped with the given
    evaluation observation noise, which must lie in the suites' domain.
    """
    domain(ProbeSuiteConfig, "eval_noise_sigma").check("eval_noise_sigma", eval_noise_sigma)
    if ref == "exact":
        return ExactModel(), "exact"
    kind, sep, arg = ref.partition(":")
    if sep and (kind == "perturbed" or kind in _SHORTHAND_FIELDS):
        try:
            if kind == "perturbed":
                values = json.loads(arg)
            else:
                parts = [float(v) for v in arg.split(",")]
                values = {_SHORTHAND_FIELDS[kind]: parts[0] if len(parts) == 1 else parts}
        except ValueError as err:  # not JSON, or not a number
            raise ValueError(f"model reference {ref!r}: {err}") from None
        return PerturbedModel(from_json(ViolationConfig, values, kind), name=ref), ref
    if ref.endswith(".json"):
        path = Path(ref)
        if not path.exists():
            raise UnknownModelRefError(f"checkpoint not found: {ref}")
        net, encoder, _meta = load_checkpoint(path)
        model = LearnedWorldModel(encoder, net, name=path.stem)
        if eval_noise_sigma > 0.0:
            model = model.with_obs_noise(eval_noise_sigma)
        return model, path.stem
    raise UnknownModelRefError(f"unknown model reference: {ref!r}")


def _manifest_stages(out_dir: Path, config_hash: str) -> dict | None:
    """The stages that the manifest of ``out_dir`` records under
    ``config_hash``; None if there is no manifest, another config wrote
    it, or it cannot be read (not JSON, or not an object with that
    ``config_hash`` and a ``stages`` object)."""
    try:
        payload = read_json(out_dir / "manifest.json")
    except (FileNotFoundError, ValueError):  # no manifest, or not JSON
        return None
    if not isinstance(payload, dict) or payload.get("config_hash") != config_hash \
            or not isinstance(payload.get("stages"), dict):
        return None
    return payload["stages"]


def _write_manifest(out_dir: Path, config_hash: str, stages: dict) -> None:
    write_json(out_dir / "manifest.json",
               {"tool_version": TOOL_VERSION, "config_hash": config_hash, "stages": stages})


class _Stage:
    """One stage's entry in the run manifest of ``cfg.out_dir``.

    The manifest keeps the stages that ran in the directory under one
    config hash. Opening a stage removes what would go stale once it
    starts overwriting files: its own earlier entry, or the whole
    manifest if another config wrote it or it cannot be read. An
    interrupted run therefore leaves no entry for files it did not
    finish. Opening also removes the ``*.tmp`` files directly in the
    directory, which a write killed before its ``os.replace`` leaves
    behind (``artifacts.write_text``).
    ``finish`` adds the stage's entry next to the others.
    """

    def __init__(self, cfg: ExperimentConfig, name: str):
        self.t0 = time.perf_counter()
        self.cfg = cfg
        self.name = name
        self.config_hash = cfg.config_hash()
        self.out_dir = Path(cfg.out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        for stale in self.out_dir.glob("*.tmp"):
            stale.unlink(missing_ok=True)
        stages = _manifest_stages(self.out_dir, self.config_hash)
        if stages is None:
            (self.out_dir / "manifest.json").unlink(missing_ok=True)
        elif name in stages:
            del stages[name]
            _write_manifest(self.out_dir, self.config_hash, stages)

    def finish(self, paths: list, rate_s: float | None = None,
               shared_training: dict | None = None, **counts: int) -> None:
        """Write ``resolved_config.json``, then record the stage's outputs
        and wall time, plus each count with its rate (``<count>_per_s``)
        over ``rate_s`` seconds, by default the wall time, and a shared
        training record if given."""
        save_config(self.out_dir / "resolved_config.json", self.cfg)
        wall = time.perf_counter() - self.t0
        entry = {"paths": sorted(str(p) for p in paths), "wall_clock_s": wall}
        for key, value in counts.items():
            entry[key] = value
            entry[f"{key}_per_s"] = value / (wall if rate_s is None else rate_s)
        if shared_training is not None:
            entry["shared_training"] = shared_training
        stages = _manifest_stages(self.out_dir, self.config_hash) or {}
        stages[self.name] = entry
        _write_manifest(self.out_dir, self.config_hash, stages)


def _dataset_dir(out_dir: Path) -> Path:
    return out_dir / "dataset"


def cmd_gen_data(cfg: ExperimentConfig) -> Path:
    """Generate the training dataset under <out_dir>/dataset."""
    model, model_name = parse_model_ref(cfg.dataset.model)
    stage = _Stage(cfg, "gen-data")
    out_dir = stage.out_dir
    seed = cfg.dataset.seed if cfg.dataset.seed is not None else stage_seed(cfg.seed, STAGE_DATASET)
    dataset = generate_records(
        model, cfg.dataset.n_trajectories, cfg.dataset.length,
        cfg.dataset.action_dist, seed, start_pos_sigma=cfg.dataset.start_pos_sigma,
    )
    data_dir = _dataset_dir(out_dir)
    write_dataset(data_dir, dataset, {"seed": seed, "model": model_name})
    stage.finish([data_dir])
    return data_dir


def _encoder_seed(cfg: ExperimentConfig) -> int:
    if cfg.encoder.seed is not None:
        return cfg.encoder.seed
    return stage_seed(cfg.seed, STAGE_ENCODER)


def _load_train_dataset(cfg: ExperimentConfig, out_dir: Path) -> Dataset:
    if cfg.train.dataset_path is not None:
        return load_dataset(cfg.train.dataset_path)
    return load_dataset(_dataset_dir(out_dir))


def _held_out_prediction_loss(cfg: ExperimentConfig, model: WorldModel, net, encoder) -> float:
    """Deterministic post-training prediction loss on freshly generated
    transitions: every fourth step of 32 trajectories, trajectory-major.

    With observation noise, the encodings draw from their own stream of
    the eval stage seed. Trajectory i is generated from spawn key (i,);
    the noise stream's two-word key can never be one of those.
    """
    seed = stage_seed(cfg.seed, STAGE_EVAL)
    data = generate_records(
        model, 32, cfg.dataset.length, cfg.dataset.action_dist,
        seed, start_pos_sigma=cfg.dataset.start_pos_sigma,
    )
    ts = np.arange(0, data.length, 4)
    noise = keyed_rng(seed, 0, 1)
    return prediction_loss(net, encoder, data.poses[:, ts].reshape(-1, 3),
                           data.actions[:, ts].reshape(-1, 3),
                           data.poses[:, ts + 1].reshape(-1, 3), noise)


class TrainGroup:
    """Configs whose training runs share every random draw: they are equal
    but for ``ga.lambda_*``, ``ga.mode`` and the output directory.

    The first config to ask for its result trains the whole group in
    lockstep (``training.train_group``); the others then find theirs ready.
    ``training`` then describes that one training, which every member
    shares: its rows, the optimizer steps of all rows, and its seconds.
    """

    def __init__(self, cfgs: list[ExperimentConfig]):
        self.cfgs = cfgs
        self._results: list[TrainResult | NonFiniteLossError] | None = None
        self.training: dict | None = None

    @staticmethod
    def key(cfg: ExperimentConfig) -> ExperimentConfig:
        """Equal for two configs exactly when they can share a group."""
        return replace(cfg, out_dir="", ga=cfg.ga.draw_config())

    def result(self, cfg: ExperimentConfig, seed: int, dataset: Dataset, encoder,
               initial_net) -> TrainResult:
        """``cfg``'s training result, trained with the group on the first
        call. Re-raises ``cfg``'s NonFiniteLossError."""
        if self._results is None:
            run = cfg.train
            t0 = time.perf_counter()
            self._results = train_group(run, [c.ga for c in self.cfgs], dataset, encoder,
                                        seed, initial_net)
            steps = max(run.steps if isinstance(r, TrainResult) else r.step + 1
                        for r in self._results)  # a failed row steps on with the others
            self.training = {
                "rows": len(self.cfgs),
                "row_steps": len(self.cfgs) * steps,
                "train_s": time.perf_counter() - t0,
            }
        result = self._results[self.cfgs.index(cfg)]
        if isinstance(result, NonFiniteLossError):
            raise result
        return result


def cmd_train(cfg: ExperimentConfig, label: str | None = None,
              dataset: Dataset | None = None, group: TrainGroup | None = None) -> Path:
    """Train from the configured dataset; write checkpoint, loss curve, manifest.

    When the run names an init checkpoint it fine-tunes those parameters
    (the checkpoint's encoder must match the configured one). A caller
    that already holds the configured dataset can pass it in ``dataset``
    instead of having it loaded again. A ``group`` that holds ``cfg``
    trains with its other configs (``TrainGroup``); without one the run
    trains alone. The manifest entry's ``train_steps`` counts this run's
    own optimizer steps, and ``shared_training`` the group's training
    that produced them (``TrainGroup.training``), the same in every
    member's entry; ``train_steps_per_s`` is over that training's seconds.
    """
    data_model, _ = parse_model_ref(cfg.dataset.model)  # a bad reference fails before training
    encoder = make_encoder(
        cfg.encoder.latent_dim, _encoder_seed(cfg), cfg.encoder.obs_noise_sigma
    )
    initial_net = None
    seed_stage = STAGE_TRAIN
    if cfg.train.init_checkpoint is not None:
        initial_net, ckpt_encoder, _meta = load_checkpoint(cfg.train.init_checkpoint)
        if not np.array_equal(ckpt_encoder.projection, encoder.projection):
            raise ValueError("init checkpoint was trained with a different encoder")
        if initial_net.hidden_dim != cfg.train.hidden_dim:
            raise ValueError(f"init checkpoint has hidden_dim {initial_net.hidden_dim}, "
                             f"but train.hidden_dim is {cfg.train.hidden_dim}")
        seed_stage = STAGE_FINETUNE
    stage = _Stage(cfg, "train")
    out_dir = stage.out_dir
    if dataset is None:
        dataset = _load_train_dataset(cfg, out_dir)
    seed = stage_seed(cfg.seed, seed_stage)
    group = group or TrainGroup([cfg])
    result = group.result(cfg, seed, dataset, encoder, initial_net)

    eval_loss = _held_out_prediction_loss(cfg, data_model, result.net, encoder)
    if label is None:
        label = "baseline" if cfg.ga.lambda_ga == 0.0 else "ga"
    ckpt_path = out_dir / "checkpoint.json"
    save_checkpoint(
        ckpt_path, result.net, encoder,
        meta={"label": label, "steps": cfg.train.steps, "eval_prediction_loss": eval_loss},
    )
    curve_path = out_dir / "loss_curve.csv"
    write_csv(curve_path, LOSS_COLUMNS, result.row_tuples())
    metrics_path = out_dir / "train_metrics.json"
    write_json(metrics_path, {"label": label, "eval_prediction_loss": eval_loss,
                              "final_total": float(result.total[-1]), "steps": cfg.train.steps})
    stage.finish([ckpt_path, curve_path, metrics_path], rate_s=group.training["train_s"],
                 shared_training=group.training, train_steps=cfg.train.steps)
    return ckpt_path


def cmd_probe(cfg: ExperimentConfig, model_ref: str):
    """Run the consistency probe grid against a model reference."""
    model, model_name = parse_model_ref(model_ref, cfg.probes.eval_noise_sigma)
    stage = _Stage(cfg, "probe")
    out_dir = stage.out_dir
    seed = stage_seed(cfg.seed, STAGE_PROBE)
    starts, actions = evaluation_sequences(
        cfg.probes.n_sequences, cfg.probes.sequence_length, cfg.probes.action_dist, seed
    )
    dist = DistanceParams(alpha_rot=cfg.probes.alpha_rot)
    report = evaluate_gac(
        model, starts, actions, cfg.probes.probe_grid(), dist, seed,
        concentration=cfg.probes.dirichlet_concentration,
    )
    paths = {
        "json": out_dir / "gac_report.json",
        "csv": out_dir / "gac_per_config.csv",
        "summary": out_dir / "gac_summary.csv",
        "gnuplot": out_dir / "gac_trends.dat",
    }
    write_gac_json(paths["json"], report, model_name)
    write_gac_csv(paths["csv"], report, model_name)
    write_gac_summary_csv(paths["summary"], report, model_name)
    write_gac_gnuplot(paths["gnuplot"], report)
    stage.finish(list(paths.values()),
                 probe_instances=sum(r.n_instances for r in report.per_config))
    return report


def cmd_gar(cfg: ExperimentConfig, model_ref: str):
    """Run the rollout-dispersion evaluation against a model reference."""
    model, model_name = parse_model_ref(model_ref, cfg.gar.eval_noise_sigma)
    stage = _Stage(cfg, "gar")
    out_dir = stage.out_dir
    seed = stage_seed(cfg.seed, STAGE_GAR)
    starts, actions = evaluation_sequences(
        cfg.gar.n_sequences, max(cfg.gar.horizons), cfg.gar.action_dist, seed
    )
    note = "deterministic model: dispersion is zero" if is_deterministic(model) else None
    report = evaluate_gar(
        model, starts, actions, cfg.gar.horizons, cfg.gar.n_rollouts,
        DistanceParams(alpha_rot=cfg.gar.alpha_rot), seed, note=note,
    )
    json_path = out_dir / "gar_report.json"
    csv_path = out_dir / "gar.csv"
    write_gar_json(json_path, report, model_name)
    write_gar_csv(csv_path, report, model_name)
    stage.finish([json_path, csv_path],
                 rollouts=len(starts) * gar_repeats(model, cfg.gar.n_rollouts))
    return report


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


SWEEP_AXES = ("constraints", "lambda", "span", "mode")


def sweep_points(cfg: ExperimentConfig, axis: str) -> list[tuple[str, ExperimentConfig]]:
    """Grid points for one ablation axis, as (label, config) pairs."""
    if axis == "constraints":
        ga = cfg.ga
        return [
            ("baseline", replace(cfg, ga=replace(ga, lambda_ga=0.0))),
            ("id-only", replace(cfg, ga=replace(ga, lambda_inv=0.0, lambda_comp=0.0))),
            ("inv-only", replace(cfg, ga=replace(ga, lambda_id=0.0, lambda_comp=0.0))),
            ("comp-only", replace(cfg, ga=replace(ga, lambda_id=0.0, lambda_inv=0.0))),
            ("full", cfg),
        ]
    if axis == "lambda":
        return [
            (f"lambda={lam:g}", replace(cfg, ga=replace(cfg.ga, lambda_ga=lam)))
            for lam in (0.0, 0.1, 0.5, 1.0)
        ]
    if axis == "span":
        return [
            (f"span={span}", replace(cfg, ga=replace(cfg.ga, max_span=span)))
            for span in (2, 4, 6)
        ]
    if axis == "mode":
        return [
            ("free-running", replace(cfg, ga=replace(cfg.ga, mode="free-running"))),
            ("teacher-forced", replace(cfg, ga=replace(cfg.ga, mode="teacher-forced"))),
        ]
    raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")


def _run_group(points: list[tuple[str, ExperimentConfig]], dataset: Dataset) -> list[dict]:
    """Train one lockstep group of (label, config) grid points inside its
    first point's ``cmd_train`` call, then evaluate each; returns their rows."""
    group = TrainGroup([cfg for _, cfg in points])
    rows = []
    for label, cfg in points:
        ckpt = cmd_train(cfg, label=label, dataset=dataset, group=group)
        gac = cmd_probe(cfg, str(ckpt))
        gar = cmd_gar(cfg, str(ckpt))
        train_metrics = read_json(Path(cfg.out_dir) / "train_metrics.json")
        row = {
            "label": label,
            "delta_id": gac.delta_id,
            "delta_inv": gac.delta_inv,
            "delta_comp": gac.delta_comp,
            "e_gac": gac.e_gac,
            "eval_prediction_loss": train_metrics["eval_prediction_loss"],
            "checkpoint_hash": file_sha256(ckpt),
            "out_dir": cfg.out_dir,
        }
        for entry in gar.entries:
            row[f"gar{entry.horizon}_aligned"] = entry.aligned_mean
            row[f"gar{entry.horizon}_nonaligned"] = entry.nonaligned_mean
        rows.append(row)
    return rows


def cmd_ablate(cfg: ExperimentConfig, axis: str, threads: int = 1) -> list[dict]:
    """Train and evaluate every grid point on one axis, then consolidate.

    Grid points share the dataset generated from the base config, which
    is loaded once. An existing ``dataset/`` is reused only if the
    manifest holds a finished ``gen-data`` entry of this config; otherwise
    gen-data runs again. When a pretrain run is configured, one base
    model is trained first and every grid point fine-tunes it.
    Consecutive points that differ only in loss weights and rollout mode
    (``TrainGroup.key``) form a lockstep group, the unit of work: groups
    run in-process, or in a pool of ``min(threads, groups)`` workers that
    are handed the loaded dataset. Rows are written in grid order. A
    config that sets a field ablate replaces (``train.init_checkpoint``,
    ``train.dataset_path``, ``pretrain.dataset_path``) raises a
    ValueError before any output directory exists.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    parse_model_ref(cfg.dataset.model)  # fail before any output directory exists
    grid = sweep_points(cfg, axis)
    trained = [point_cfg for _, point_cfg in grid]  # each trains on the configured dataset
    if cfg.pretrain is not None:
        trained.append(cfg)  # and so does the pretrain
    for point_cfg in trained:
        point_cfg.check_span_fits_dataset()
    # every run trains on the generated dataset, each point from scratch or from the pretrain
    replaced = {
        "train.init_checkpoint": cfg.train.init_checkpoint,
        "train.dataset_path": cfg.train.dataset_path,
        "pretrain.dataset_path": cfg.pretrain and cfg.pretrain.dataset_path,
    }
    for name, value in replaced.items():
        if value is not None:
            raise ValueError(f"{name} must be unset for ablate, which sets it itself; "
                             f"got {value!r}")
    stage = _Stage(cfg, f"ablate-{axis}")
    out_dir = stage.out_dir
    data_dir = _dataset_dir(out_dir)
    stages = _manifest_stages(out_dir, stage.config_hash)
    if stages is None or "gen-data" not in stages or not data_dir.is_dir():
        cmd_gen_data(cfg)
    dataset = load_dataset(data_dir)
    base_ckpt = None
    if cfg.pretrain is not None:
        base_cfg = replace(
            cfg,
            out_dir=str(out_dir / "base"),
            train=replace(cfg.pretrain, dataset_path=str(data_dir)),
            ga=replace(cfg.ga, lambda_ga=0.0),
            pretrain=None,
        )
        base_ckpt = cmd_train(base_cfg, label="pretrain", dataset=dataset)
    points = []
    for label, point_cfg in grid:
        point_train = replace(
            point_cfg.train,
            dataset_path=str(data_dir),
            init_checkpoint=None if base_ckpt is None else str(base_ckpt),
        )
        point_cfg = replace(
            point_cfg,
            out_dir=str(out_dir / f"sweep_{axis}" / label.replace("=", "_")),
            train=point_train,
        )
        points.append((label, point_cfg))
    groups = [list(g) for _, g in groupby(points, key=lambda point: TrainGroup.key(point[1]))]
    workers = min(threads, len(groups))
    if workers == 1:
        done = [_run_group(group, dataset) for group in groups]
    else:
        from concurrent.futures import ProcessPoolExecutor  # only a pool run pays for the import

        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_run_group, groups, [dataset] * len(groups)))
    rows = [row for group_rows in done for row in group_rows]

    table_path = out_dir / f"ablation_{axis}.csv"
    columns = ["label", "delta_id", "delta_inv", "delta_comp", "e_gac"]
    columns += sorted(k for k in rows[0] if k.startswith("gar"))
    columns += ["eval_prediction_loss", "checkpoint_hash"]
    write_csv(table_path, columns, ([row[k] for k in columns] for row in rows))
    manifest_path = out_dir / f"ablation_{axis}_manifest.json"
    write_json(manifest_path, {
        "axis": axis,
        "rows": [
            {"label": r["label"], "checkpoint_hash": r["checkpoint_hash"], "out_dir": r["out_dir"]}
            for r in rows
        ],
    })
    stage.finish([table_path, manifest_path])
    return rows


def _report_values(path, record, names: tuple[str, ...]) -> list:
    """``record``'s values of ``names``, each a number but ``model``; a
    ValueError names the file if one is missing or not a number."""
    values = json_fields(path, record, names)
    for name, value in zip(names, values):
        if name != "model" and type(value) not in (int, float):
            raise ValueError(f"{path}: {name} is not a number: {value!r}")
    return values


def cmd_report(out_dir) -> str:
    """Collect the GAC and GAR reports under a run directory into one text table;
    a directory with no metric file raises ``FileNotFoundError``."""
    out = Path(out_dir)
    if not out.is_dir():
        raise FileNotFoundError(f"run directory not found: {out}")
    lines = []
    gacs = [_report_values(p, read_json(p), ("model", "delta_id", "delta_inv", "delta_comp", "e_gac"))
            for p in sorted(out.rglob("gac_report.json"))]
    if gacs:
        lines.append("consistency (per model): delta_id delta_inv delta_comp e_gac")
        lines += [f"  {model}: {d_id:.4g} {d_inv:.4g} {d_comp:.4g} {e_gac:.4g}"
                  for model, d_id, d_inv, d_comp, e_gac in gacs]
    gars = []
    for p in sorted(out.rglob("gar_report.json")):
        model, entries = json_fields(p, read_json(p), ("model", "entries"))
        gars += [[model, *_report_values(p, e, ("horizon", "aligned_mean", "nonaligned_mean"))]
                 for e in (entries if isinstance(entries, list) else [None])]
    if gars:
        lines.append("dispersion (per model, horizon): aligned nonaligned")
        lines += [f"  {model} T={horizon}: {aligned:.4g} {nonaligned:.4g}"
                  for model, horizon, aligned, nonaligned in gars]
    lines += [f"ablation table: {path}" for path in sorted(out.rglob("ablation_*.csv"))]
    if not lines:
        raise FileNotFoundError(f"no metric files found under {out}")
    text = "\n".join(lines) + "\n"
    write_text(out / "report.txt", text)
    return text
