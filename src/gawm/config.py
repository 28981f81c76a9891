"""Experiment configuration: one JSON file drives the whole pipeline.

Every random choice traces to a stage seed derived from the master seed,
and loading a config checks every value's type and materializes all
defaults, so any number in any report is reproducible from the resolved
config plus the tool version.
The output directory is carried alongside but excluded from the config
hash, since it does not influence any computed value.
"""

from __future__ import annotations

import hashlib
import json
import os
import types
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

from .artifacts import write_json
from .data import ActionDistribution
from .latent import check_latent_dim, check_noise_sigma
from .metrics import KIND_COMPOSITION, KIND_IDENTITY, KIND_INVERSE, ProbeConfig, probe_positions
from .se2 import DistanceParams
from .segments import DirichletParams
from .training import GALossConfig, TrainRunConfig

TOOL_VERSION = "0.1.0"

STAGE_DATASET = 0
STAGE_ENCODER = 1
STAGE_TRAIN = 2
STAGE_PROBE = 3
STAGE_GAR = 4
STAGE_EVAL = 5
STAGE_FINETUNE = 6


def stage_seed(master: int, stage: int) -> int:
    """Deterministic per-stage seed derived from the master seed."""
    h = hashlib.sha256(f"gawm-seed:{master}:{stage}".encode()).digest()
    return int.from_bytes(h[:8], "big")


_JSON_TYPES = {int: int, float: (int, float), str: str}


def from_json(cls, value, path: str = ""):
    """``value``, as parsed from JSON, built into the declared type ``cls``.

    A dataclass comes from an object whose keys all name fields (a record
    whose fields are all required may also be an array in field order), a
    ``tuple[...]`` from an array, ``X | None`` also from null. An int must
    be an integer, a float any number (stored as float), a str a string.
    Any mismatch raises ValueError naming ``path``, the value's dotted path.
    """
    def wrong(what: str) -> ValueError:
        return ValueError(f"config value {path or '<root>'} must be {what}, got {value!r}")

    def at(key) -> str:
        return f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}" if path else key

    if isinstance(cls, types.UnionType):
        if value is None and type(None) in typing.get_args(cls):
            return None
        (cls,) = [arg for arg in typing.get_args(cls) if arg is not type(None)]
    if is_dataclass(cls):
        hints = typing.get_type_hints(cls)
        required = [f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING]
        record = len(required) == len(hints)
        if record and isinstance(value, (list, tuple)) and len(value) == len(hints):
            value = dict(zip(hints, value))
        if not isinstance(value, dict):
            raise wrong("an object" + (f" or an array of {len(hints)}" if record else ""))
        for key in [*value, *required]:
            if key not in hints:
                raise ValueError(f"unknown config key: {at(key)}")
            if key not in value:
                raise ValueError(f"config value {at(key)} is missing")
        return cls(**{key: from_json(hints[key], v, at(key)) for key, v in value.items()})
    if typing.get_origin(cls) is tuple:
        if not isinstance(value, (list, tuple)):
            raise wrong("an array")
        args = typing.get_args(cls)
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise wrong(f"an array of {len(args)}")
        return tuple(from_json(arg, v, at(i)) for i, (arg, v) in enumerate(zip(args, value)))
    if isinstance(value, _JSON_TYPES[cls]) and not isinstance(value, bool):
        try:
            return cls(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise wrong(cls.__name__)


@dataclass(frozen=True)
class DatasetConfig:
    n_trajectories: int = 200
    length: int = 64
    model: str = "exact"
    action_dist: ActionDistribution = field(default_factory=ActionDistribution)
    start_pos_sigma: float = 1.0
    seed: int | None = None  # None: derived from the master seed

    def __post_init__(self):
        if self.n_trajectories < 1 or self.length < 1:
            raise ValueError("dataset needs at least one trajectory of length >= 1")
        check_noise_sigma(self.start_pos_sigma, "dataset.start_pos_sigma")
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"dataset.seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class EncoderConfig:
    latent_dim: int = 16
    obs_noise_sigma: float = 0.0
    seed: int | None = None  # None: derived from the master seed

    def __post_init__(self):
        check_latent_dim(self.latent_dim)
        check_noise_sigma(self.obs_noise_sigma)
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"encoder.seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class ProbeSuiteConfig:
    identity_lengths: tuple[int, ...] = (1, 3, 5)
    identity_k: int = 1
    inverse_lengths: tuple[int, ...] = (1, 3, 5)
    inverse_k: int = 1
    composition_lengths: tuple[int, ...] = (2, 4, 6)
    n_sequences: int = 20
    sequence_length: int = 32
    action_dist: ActionDistribution = field(
        default_factory=lambda: ActionDistribution(sigma_dtheta=0.0)
    )
    eval_noise_sigma: float = 0.0
    alpha_rot: float = 1.0
    dirichlet_concentration: float = 1.0

    def __post_init__(self):
        # Build what the probe stage builds, so a bad value fails at load.
        check_noise_sigma(self.eval_noise_sigma, "eval_noise_sigma")
        DistanceParams(self.alpha_rot)
        DirichletParams(self.dirichlet_concentration)
        if self.n_sequences < 1:
            raise ValueError(f"probes.n_sequences must be >= 1, got {self.n_sequences}")
        for name in ("identity_lengths", "inverse_lengths", "composition_lengths"):
            if not getattr(self, name):
                raise ValueError(f"probes.{name} must not be empty")
        for probe in self.probe_grid():
            probe_positions(probe, self.sequence_length)

    def probe_grid(self) -> list[ProbeConfig]:
        """Every probe configuration of the suite, identity, inverse, then composition."""
        return ([ProbeConfig(KIND_IDENTITY, k=self.identity_k, l=l) for l in self.identity_lengths]
                + [ProbeConfig(KIND_INVERSE, k=self.inverse_k, l=l) for l in self.inverse_lengths]
                + [ProbeConfig(KIND_COMPOSITION, k=1, l=l) for l in self.composition_lengths])


@dataclass(frozen=True)
class GarSuiteConfig:
    n_rollouts: int = 5
    horizons: tuple[int, ...] = (16, 64)
    n_sequences: int = 20
    action_dist: ActionDistribution = field(
        default_factory=lambda: ActionDistribution(sigma_dtheta=0.0)
    )
    eval_noise_sigma: float = 0.05
    alpha_rot: float = 1.0

    def __post_init__(self):
        check_noise_sigma(self.eval_noise_sigma, "eval_noise_sigma")
        DistanceParams(self.alpha_rot)
        if self.n_sequences < 1:
            raise ValueError(f"gar.n_sequences must be >= 1, got {self.n_sequences}")
        if self.n_rollouts < 2:
            raise ValueError(f"gar.n_rollouts must be >= 2, got {self.n_rollouts}")
        if not self.horizons or min(self.horizons) < 1:
            raise ValueError(f"gar.horizons must be one or more lengths >= 1, got {list(self.horizons)}")
        if len(set(self.horizons)) < len(self.horizons):
            raise ValueError(f"gar.horizons must not repeat a horizon, got {list(self.horizons)}")


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    out_dir: str = "runs/default"
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    train: TrainRunConfig = field(default_factory=TrainRunConfig)
    ga: GALossConfig = field(default_factory=GALossConfig)
    probes: ProbeSuiteConfig = field(default_factory=ProbeSuiteConfig)
    gar: GarSuiteConfig = field(default_factory=GarSuiteConfig)
    pretrain: TrainRunConfig | None = None

    def __post_init__(self):
        if self.train.dataset_path is None:
            self.check_span_fits_dataset()
        if self.pretrain is not None and self.pretrain.hidden_dim != self.train.hidden_dim:
            raise ValueError(f"pretrain.hidden_dim {self.pretrain.hidden_dim} differs from "
                             f"train.hidden_dim {self.train.hidden_dim}: every grid point "
                             "fine-tunes the pretrained net")

    def check_span_fits_dataset(self) -> None:
        """Training on the configured dataset draws windows of up to
        ``ga.max_span`` steps from its trajectories; reject a span that
        no trajectory holds. A run that names another dataset
        (``train.dataset_path``) is checked when training loads it."""
        if self.ga.max_span > self.dataset.length:
            raise ValueError(f"ga.max_span {self.ga.max_span} exceeds dataset.length "
                             f"{self.dataset.length}, the trajectory length it trains on")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        """The config that the parsed JSON ``d`` describes (``from_json``)."""
        return from_json(ExperimentConfig, d)

    def config_hash(self) -> str:
        """SHA-256 of the config but ``out_dir``, with the run paths taken
        relative to it: the same run in another directory hashes the same."""
        d = self.to_dict()
        out_dir = d.pop("out_dir")
        for run in (d["train"], d["pretrain"]):
            for key in ("dataset_path", "init_checkpoint"):
                if run is not None and run[key]:
                    run[key] = os.path.relpath(run[key], out_dir)
        blob = json.dumps(d, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def benchmark_config(out_dir: str = "runs/benchmark", seed: int = 12) -> ExperimentConfig:
    """The desk-scale synthetic benchmark behind the directional claims.

    A converged base model (higher-rate phase, amplified input-layer
    init) is fine-tuned at a small constant rate with and without the
    consistency objective; probes share one fixed evaluation suite and
    dispersion is measured on the models' native stochastic rollouts.
    """
    action = ActionDistribution(mean_dx=0.065, sigma_dx=0.05, sigma_dy=0.04, sigma_dtheta=0.03)
    probe_action = ActionDistribution(mean_dx=0.065, sigma_dx=0.05, sigma_dy=0.04, sigma_dtheta=0.0)
    return ExperimentConfig(
        seed=seed,
        out_dir=out_dir,
        dataset=DatasetConfig(
            n_trajectories=200, length=64, action_dist=action, seed=12727401947191371039
        ),
        encoder=EncoderConfig(latent_dim=32, seed=4239539761412074130),
        pretrain=TrainRunConfig(
            steps=4000, batch_size=32, learning_rate=3e-3, hidden_dim=64, init_w1_gain=3.0
        ),
        train=TrainRunConfig(steps=4000, batch_size=32, learning_rate=1.5e-5, hidden_dim=64),
        ga=GALossConfig(lambda_ga=0.5, max_span=4, dirichlet=DirichletParams(0.3)),
        probes=ProbeSuiteConfig(action_dist=probe_action, dirichlet_concentration=0.3),
        gar=GarSuiteConfig(action_dist=action, eval_noise_sigma=0.01, n_sequences=48),
    )


def load_config(path) -> ExperimentConfig:
    with open(path) as f:
        return ExperimentConfig.from_dict(json.load(f))


def save_config(path, cfg: ExperimentConfig) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    write_json(path, cfg.to_dict())
