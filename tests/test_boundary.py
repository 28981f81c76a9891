"""Every saved file loads, or fails with a typed error that names it.

A tiny gen-data -> train -> probe -> gar run writes the files. Each
example mutates one leaf of one of them to a value of another type, 0,
-1, 1e308 or NaN, and loads the file as a later stage or ``gawm report``
reads it. The load must succeed or raise ValueError / FileNotFoundError
naming the file. The last tests hold config values that used to load and
then fail inside a stage, and hold every config that loads to run a tiny
gen-data -> train -> probe -> gar chain, or to fail naming a config field.
"""

import json
import math
import re
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from config_fields import config_fields, edited
from gawm.config import (
    DatasetConfig, EncoderConfig, ExperimentConfig, GarSuiteConfig, ProbeSuiteConfig, load_config,
    save_config,
)
from gawm.data import load_dataset
from gawm.domains import Domain, domain
from gawm.harness import cmd_gar, cmd_gen_data, cmd_probe, cmd_report, cmd_train, parse_model_ref
from gawm.latent import load_checkpoint
from gawm.models import ViolationConfig
from gawm.se2 import DistanceParams
from gawm.training import NonFiniteLossError, TrainRunConfig

VALUES = (None, True, "x", [], {}, [0], {"x": 0}, 0, -1, 0.5, 1e308, -1e308, math.nan)


def _tiny(out_dir) -> ExperimentConfig:
    return ExperimentConfig(
        seed=5,
        out_dir=str(out_dir),
        dataset=DatasetConfig(n_trajectories=4, length=12),
        encoder=EncoderConfig(latent_dim=4),
        train=TrainRunConfig(steps=3, batch_size=4, hidden_dim=4),
        probes=ProbeSuiteConfig(n_sequences=2, sequence_length=12),
        gar=GarSuiteConfig(n_rollouts=2, horizons=(4,), n_sequences=2),
    )


def _load_dataset_of(path):
    return load_dataset(path.parent)


def _report_on(path):
    return cmd_report(path.parent)


# each file: its path in the run, the JSONL line mutated (None: the whole
# file is one JSON value), and the load that reads it
FILES = {
    "config": ("resolved_config.json", None, load_config),
    "checkpoint": ("checkpoint.json", None, load_checkpoint),
    "summary": ("dataset/summary.json", None, _load_dataset_of),
    "trajectory header": ("dataset/traj_0000.jsonl", 0, _load_dataset_of),
    "pose line": ("dataset/traj_0000.jsonl", 1, _load_dataset_of),
    "gac report": ("gac_report.json", None, _report_on),
    "gar report": ("gar_report.json", None, _report_on),
}


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    cfg = _tiny(tmp_path_factory.mktemp("boundary") / "run")
    cmd_gen_data(cfg)
    ckpt = cmd_train(cfg)
    cmd_probe(cfg, str(ckpt))
    cmd_gar(cfg, str(ckpt))
    return ckpt.parent


def _leaves(value, path=()):
    """The path of every leaf of a parsed JSON value, an empty container included."""
    if isinstance(value, dict) and value:
        return [leaf for key, v in value.items() for leaf in _leaves(v, path + (key,))]
    if isinstance(value, list) and value:
        return [leaf for i, v in enumerate(value) for leaf in _leaves(v, path + (i,))]
    return [path]


def _with(value, path, new):
    """``value`` with the leaf at ``path`` replaced by ``new``."""
    if not path:
        return new
    value[path[0]] = _with(value[path[0]], path[1:], new)
    return value


@pytest.mark.parametrize("name", FILES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_mutated_leaf_loads_or_fails_naming_its_file(run, name, data):
    rel, line, load = FILES[name]
    path = run / rel
    text = path.read_text()
    lines = text.splitlines()
    value = json.loads(text if line is None else lines[line])
    leaf = data.draw(st.sampled_from(_leaves(value)), label="leaf")
    new = data.draw(st.sampled_from(VALUES), label="value")
    mutated = json.dumps(_with(value, leaf, new))
    if line is not None:
        lines[line] = mutated
        mutated = "\n".join(lines) + "\n"
    try:
        path.write_text(mutated)
        try:
            load(path)
        except (ValueError, FileNotFoundError) as err:
            # its path, or its directory and its name
            named = str(path) in str(err) or (str(path.parent) in str(err) and path.name in str(err))
            assert named, err
    finally:
        path.write_text(text)


# -- config values that load must run ----------------------------------------------


def _saved_config(tmp_path, section: str, **values):
    d = _tiny(tmp_path / "run").to_dict()
    d[section].update(values)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(d))
    return path


ALPHA_ROT_RULE = "in [0.0, 4.2678378161541536e+153]"


@pytest.mark.parametrize("alpha_rot", (1e200, 1e308))
def test_a_probe_alpha_rot_that_overflows_the_dispersion_fails_at_its_field(tmp_path, alpha_rot):
    # the probe stage squared the report's dispersion, a Python float, and
    # raised OverflowError
    path = _saved_config(tmp_path, "probes", alpha_rot=alpha_rot)
    message = f"{path}: config value probes.alpha_rot must be {ALPHA_ROT_RULE}, got {alpha_rot!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_config(path)


def test_a_gar_alpha_rot_that_overflows_the_distances_fails_at_its_field(tmp_path):
    # the GAR stage wrote Infinity and NaN into gar_report.json
    path = _saved_config(tmp_path, "gar", alpha_rot=1e308)
    message = f"{path}: config value gar.alpha_rot must be {ALPHA_ROT_RULE}, got 1e+308"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_config(path)


def test_the_largest_accepted_alpha_rot_writes_finite_reports(tmp_path):
    alpha_rot = math.sqrt(sys.float_info.max) / math.pi
    while True:
        try:
            DistanceParams(alpha_rot)
            break
        except ValueError:
            alpha_rot = math.nextafter(alpha_rot, 0.0)
    with pytest.raises(ValueError, match="alpha_rot"):
        DistanceParams(math.nextafter(alpha_rot, math.inf))
    cfg = _tiny(tmp_path / "run")
    cfg = replace(cfg, probes=replace(cfg.probes, alpha_rot=alpha_rot),
                  gar=replace(cfg.gar, alpha_rot=alpha_rot))
    save_config(tmp_path / "cfg.json", cfg)
    assert load_config(tmp_path / "cfg.json") == cfg

    def finite_only(constant):
        raise AssertionError(f"a report holds {constant}")

    for model in ("noise:0.02", "drift:0.01,0,0.005"):
        cmd_probe(cfg, model)
        cmd_gar(cfg, model)
        for name in ("gac_report.json", "gar_report.json"):
            json.loads((tmp_path / "run" / name).read_text(), parse_constant=finite_only)


def test_probe_turns_beyond_pi_fail_naming_the_composition_config_and_fields(tmp_path):
    # the probe stage raised recompose's bare "|dtheta| must be <= pi" and
    # named no field: a window's recomposed share of its summed turn can
    # pass pi though each of its turns is within it
    d = ExperimentConfig(out_dir=str(tmp_path / "run")).to_dict()
    d["probes"].update(n_sequences=5)
    d["probes"]["action_dist"].update(sigma_dtheta=1.5)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(d))
    cfg = load_config(path)
    fields = (r"lower probes\.composition_lengths or the suite's turns "
              r"\(probes\.action_dist\.sigma_dtheta\)$")
    with pytest.raises(ValueError, match=r"^composition probe l=6, sequence 0, window at action "
                                         r"13: .*pi.*; " + fields):
        cmd_probe(cfg, "exact")
    assert not any((tmp_path / "run").iterdir())


# -- every config that loads runs -------------------------------------------------

DOMAINS = {dotted: dom for dotted, _, dom in config_fields(ExperimentConfig) if dom is not None}
# a field named as "section.key": the last two parts of a dotted path
FIELD_NAMES = {".".join(dotted.split(".")[-2:])
               for dotted, _, _ in config_fields(ExperimentConfig) if "." in dotted}


def _run_chain(cfg: ExperimentConfig) -> None:
    """gen-data, probe and GAR on ``exact``, train, then probe and GAR on the
    checkpoint, which a NonFiniteLossError leaves unwritten."""
    cmd_gen_data(cfg)
    cmd_probe(cfg, "exact")
    cmd_gar(cfg, "exact")
    try:
        ckpt = str(cmd_train(cfg))
    except NonFiniteLossError:
        return
    cmd_probe(cfg, ckpt)
    cmd_gar(cfg, ckpt)


# the fields whose huge values overflowed a stage, naming no field, before their
# domains had an upper bound; mean_dx overflowed at both ends
SCALES = [(f"{section}.action_dist.{key}", end) for section in ("dataset", "probes", "gar")
          for key, ends in (("mean_dx", (-1, 1)), ("sigma_dx", (1,)), ("sigma_dy", (1,)))
          for end in ends] + [(dotted, 1) for dotted in
                              ("probes.eval_noise_sigma", "gar.eval_noise_sigma", "dataset.start_pos_sigma")]


@pytest.mark.parametrize("dotted, end", SCALES)
def test_the_largest_accepted_scale_runs_and_the_next_float_out_is_rejected(tmp_path, dotted, end):
    largest = DOMAINS[dotted].hi if end > 0 else DOMAINS[dotted].lo
    beyond = math.nextafter(largest, end * math.inf)
    section, _, key = dotted.rpartition(".")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(edited(_tiny(tmp_path / "run").to_dict(), section, key, beyond)))
    message = f"{path}: config value {dotted} must be {DOMAINS[dotted].rule()}, got {beyond!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_config(path)
    _run_chain(ExperimentConfig.from_dict(edited(_tiny(tmp_path / "run").to_dict(), section, key, largest)))


@pytest.mark.parametrize("shorthand, key, rest", [("noise", "noise_sigma", ""),
                                                   ("asym", "asym_gain", ",1.0")])
def test_the_largest_accepted_model_scale_runs_and_the_next_float_up_is_rejected(
        tmp_path, shorthand, key, rest):
    # noise:1e308 failed naming no field, with "Pose2 components must be
    # finite", and asym:1e308,1 raised OverflowError in the probe stage
    largest = domain(ViolationConfig, key).hi
    beyond = math.nextafter(largest, math.inf)
    with pytest.raises(ValueError, match=f"^config value {shorthand}.{key} must be in "):
        parse_model_ref(f"{shorthand}:{beyond!r}{rest}")
    cfg = _tiny(tmp_path / "run")
    cmd_probe(cfg, f"{shorthand}:{largest!r}{rest}")
    cmd_gar(cfg, f"{shorthand}:{largest!r}{rest}")


def _census_values(kind, dom: Domain) -> list:
    """0, -1, 1e308, NaN, and each finite end of ``dom`` with its neighbours."""
    values = [0, -1, 1e308, math.nan]
    for end in (dom.lo, dom.hi):
        if abs(end) < math.inf:
            values += ([end - 1, end, end + 1] if kind is int else
                       [math.nextafter(end, -math.inf), end, math.nextafter(end, math.inf)])
    return values


# every numeric leaf of the config but the pretrain's, which the tiny config leaves unset
CENSUS = [(dotted, value) for dotted, kind, dom in config_fields(ExperimentConfig)
          if kind in (int, float) and not dotted.startswith("pretrain.")
          for value in _census_values(kind, dom or Domain())]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(CENSUS))
def test_a_config_that_loads_runs_or_fails_naming_a_field(case):
    dotted, value = case
    with tempfile.TemporaryDirectory() as tmp:
        d = edited(_tiny(Path(tmp) / "run").to_dict(), *dotted.rpartition(".")[::2], value)
        try:
            _run_chain(ExperimentConfig.from_dict(d))
        except NonFiniteLossError:
            pass
        except ValueError as err:
            named = str(err).startswith(f"config value {dotted} must be ")
            assert named or any(name in str(err) for name in FIELD_NAMES), err
