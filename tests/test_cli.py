"""Smoke tests for the command-line surface: every command's options and
defaults, the error JSON of each stage command, and the version string."""

import json
import re
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

import gawm
from gawm.cli import main as cli_main
from gawm.config import DatasetConfig, ExperimentConfig
from gawm.training import TrainRunConfig

STAGE_OPTIONS = [("--config", None), ("--seed", None), ("--out", None)]
# command -> (arguments, options with their defaults, in help order)
COMMANDS = {
    "gen-data": ([], STAGE_OPTIONS),
    "train": ([], STAGE_OPTIONS),
    "probe": (["model_ref"], STAGE_OPTIONS),
    "gar": (["model_ref"], STAGE_OPTIONS),
    "ablate": ([], [("--axis", "constraints"), *STAGE_OPTIONS, ("--threads", 1)]),
    "report": ([], [("--out", None)]),
}
STAGE_COMMANDS = [["gen-data"], ["train"], ["probe", "exact"], ["gar", "exact"], ["ablate"]]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_help_lists_each_command_options_and_defaults(command):
    arguments, options = COMMANDS[command]
    result = CliRunner().invoke(cli_main, [command, "--help"])
    assert result.exit_code == 0, result.output
    params = cli_main.commands[command].params
    assert [p.name for p in params if isinstance(p, click.Argument)] == arguments
    assert [(p.opts[0], p.default) for p in params if isinstance(p, click.Option)] == options
    listed = re.findall(r"^  (--[a-z-]+)", result.output, re.M)
    assert listed == [name for name, _ in options] + ["--help"]


@pytest.mark.parametrize("command", STAGE_COMMANDS, ids=lambda c: c[0])
def test_stage_command_reports_an_invalid_config_value_as_error_json(tmp_path, command):
    d = ExperimentConfig(out_dir=str(tmp_path / "run")).to_dict()
    d["seed"] = "12"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(d))
    result = CliRunner().invoke(cli_main, command + ["--config", str(cfg_path)])
    assert result.exit_code == 1
    err = json.loads(result.output.strip().splitlines()[-1])
    assert err == {"error": f"{cfg_path}: config value seed must be int, got '12'",
                   "type": "ValueError"}
    assert not (tmp_path / "run").exists()


def test_ablate_reports_a_field_it_would_replace_as_error_json(tmp_path):
    # a fine-tune on a named dataset, which ablate would run from scratch on its own
    d = ExperimentConfig(out_dir=str(tmp_path / "run"),
                         dataset=DatasetConfig(n_trajectories=4, length=8),
                         train=TrainRunConfig(steps=2, batch_size=4, hidden_dim=8)).to_dict()
    d["train"].update(init_checkpoint=str(tmp_path / "ckpt.json"), dataset_path=str(tmp_path / "ds"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(d))
    result = CliRunner().invoke(cli_main, ["ablate", "--axis", "mode", "--config", str(cfg_path)])
    assert result.exit_code == 1
    err = json.loads(result.output.strip().splitlines()[-1])
    assert err == {"error": f"train.init_checkpoint must be unset for ablate, which sets it itself; "
                            f"got {str(tmp_path / 'ckpt.json')!r}", "type": "ValueError"}
    assert not (tmp_path / "run").exists()


def test_package_version_is_the_project_version():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as f:
        assert tomllib.load(f)["project"]["version"] == gawm.__version__
