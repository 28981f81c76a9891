"""A run killed at any moment leaves no manifest entry for files it did not write.

A tiny ``gawm ablate`` runs in a child process and is sent SIGKILL at
several delays after its run directory appears, one child at a time.
Every ``manifest.json`` left under the run directory must then parse,
and every path each of its stage entries lists must exist.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from gawm.config import (
    DatasetConfig,
    EncoderConfig,
    ExperimentConfig,
    GarSuiteConfig,
    ProbeSuiteConfig,
    save_config,
)
from gawm.training import TrainRunConfig

SRC = Path(__file__).resolve().parents[1] / "src"

# seconds after the run directory appears; the whole run takes about 0.3 s on one core
KILL_DELAYS = (0.05, 0.15, 0.25)


def _config(out_dir) -> ExperimentConfig:
    run = TrainRunConfig(steps=400, batch_size=8, learning_rate=3e-3, hidden_dim=16)
    return ExperimentConfig(
        seed=3,
        out_dir=str(out_dir),
        dataset=DatasetConfig(n_trajectories=40, length=32),
        encoder=EncoderConfig(latent_dim=8),
        train=run,
        pretrain=run,
        probes=ProbeSuiteConfig(n_sequences=4, sequence_length=12),
        gar=GarSuiteConfig(n_rollouts=3, horizons=(8, 16), n_sequences=4),
    )


def _kill_after(args, out: Path, delay: float) -> int:
    """Start ``gawm`` with ``args``, SIGKILL it ``delay`` seconds after
    ``out`` appears (or let it finish first), and return its exit code."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    child = subprocess.Popen([sys.executable, "-m", "gawm.cli", *args], env=env,
                             stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 60.0
        while not out.exists() and child.poll() is None and time.monotonic() < deadline:
            time.sleep(0.002)
        assert out.exists(), f"the run directory never appeared: {child.stderr.read()!r}"
        try:
            child.wait(timeout=delay)
        except subprocess.TimeoutExpired:
            child.send_signal(signal.SIGKILL)
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        child.stderr.close()


def _listed_paths(root: Path) -> list[tuple[Path, str, str]]:
    """(manifest, stage, path) for every path every manifest under ``root`` lists."""
    return [(manifest, stage, path)
            for manifest in sorted(root.rglob("manifest.json"))
            for stage, entry in json.loads(manifest.read_text())["stages"].items()
            for path in entry["paths"]]


def test_a_killed_ablate_leaves_manifests_that_list_only_written_files(tmp_path):
    codes = []
    for i, delay in enumerate(KILL_DELAYS):
        out = tmp_path / f"run{i}"
        cfg_path = tmp_path / f"cfg{i}.json"
        save_config(cfg_path, _config(out))
        codes.append(_kill_after(["ablate", "--config", str(cfg_path)], out, delay))
        for manifest, stage, path in _listed_paths(out):
            assert Path(path).exists(), f"{manifest}: stage {stage!r} lists {path}, which is missing"
    assert -signal.SIGKILL in codes  # at least one kill landed mid-run
    assert all(code in (0, -signal.SIGKILL) for code in codes)
