"""Experiment configuration: one JSON file drives the whole pipeline.

Every random choice traces to a stage seed derived from the master seed,
and loading a config materializes all defaults, so any number in any
report is reproducible from the resolved config plus the tool version.
The output directory is carried alongside but excluded from the config
hash, since it does not influence any computed value.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
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


@dataclass(frozen=True)
class EncoderConfig:
    latent_dim: int = 16
    obs_noise_sigma: float = 0.0
    seed: int | None = None  # None: derived from the master seed

    def __post_init__(self):
        check_latent_dim(self.latent_dim)
        check_noise_sigma(self.obs_noise_sigma)


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


def _section(d: dict, cls, path: str) -> dict:
    """A copy of config section ``d``, whose keys must all be fields of ``cls``."""
    names = {f.name for f in fields(cls)}
    for key in d:
        if key not in names:
            raise ValueError(f"unknown config key: {path}{key}")
    return dict(d)


def _action_dist(d: dict, path: str) -> ActionDistribution:
    return ActionDistribution.from_dict(_section(d, ActionDistribution, path))


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    out_dir: str = "runs/default"
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    train: TrainRunConfig = field(default_factory=lambda: TrainRunConfig(steps=5000))
    ga: GALossConfig = field(default_factory=GALossConfig)
    probes: ProbeSuiteConfig = field(default_factory=ProbeSuiteConfig)
    gar: GarSuiteConfig = field(default_factory=GarSuiteConfig)
    pretrain: TrainRunConfig | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        """Build a config from its dict form; a key that names no field, at
        any level, raises ValueError with the key's dotted path."""
        d = _section(d, ExperimentConfig, "")
        ga = _section(d.get("ga", {}), GALossConfig, "ga.")
        if "dirichlet" in ga:
            ga["dirichlet"] = DirichletParams(**_section(ga["dirichlet"], DirichletParams, "ga.dirichlet."))
        probes = _section(d.get("probes", {}), ProbeSuiteConfig, "probes.")
        if "action_dist" in probes:
            probes["action_dist"] = _action_dist(probes["action_dist"], "probes.action_dist.")
        for key in ("identity_lengths", "inverse_lengths", "composition_lengths"):
            if key in probes:
                probes[key] = tuple(probes[key])
        gar = _section(d.get("gar", {}), GarSuiteConfig, "gar.")
        if "action_dist" in gar:
            gar["action_dist"] = _action_dist(gar["action_dist"], "gar.action_dist.")
        if "horizons" in gar:
            gar["horizons"] = tuple(gar["horizons"])
        dataset = _section(d.get("dataset", {}), DatasetConfig, "dataset.")
        if "action_dist" in dataset:
            dataset["action_dist"] = _action_dist(dataset["action_dist"], "dataset.action_dist.")
        train = _section(d.get("train", {}), TrainRunConfig, "train.")
        pretrain = d.get("pretrain")
        return ExperimentConfig(
            seed=int(d.get("seed", 0)),
            out_dir=str(d.get("out_dir", "runs/default")),
            dataset=DatasetConfig(**dataset),
            encoder=EncoderConfig(**_section(d.get("encoder", {}), EncoderConfig, "encoder.")),
            train=TrainRunConfig(**({"steps": 5000} | train)),
            ga=GALossConfig(**ga),
            probes=ProbeSuiteConfig(**probes),
            gar=GarSuiteConfig(**gar),
            pretrain=None if pretrain is None else TrainRunConfig(
                **_section(pretrain, TrainRunConfig, "pretrain.")),
        )

    def config_hash(self) -> str:
        d = self.to_dict()
        d.pop("out_dir", None)
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
