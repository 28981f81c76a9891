"""The SHA-256 of every file that a small fixed run writes.

The run reaches what the other tiny runs miss: a constraints ablation
whose pretrain and fine-tunes take 400 steps each, past one chunk of
``training.INPUT_CHUNK_STEPS`` and the step (t = 356) from which Adam's
bias correction is 1. A teacher-forced mode ablation and a score-zoo
pass over the reference models, noisy ones included, follow, and
``gawm report`` reads back each pass. The run directory's path is
replaced by ``<run>`` in every file, and a ``manifest.json`` is hashed
without its timing fields (keys ending in ``_s``), so a digest moves
only when an output bit does.

``golden.json`` holds one table per numpy version and BLAS kernel set
(``key``). Rewrite the table of the one installed with::

    PYTHONPATH=src python tests/golden.py
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from gawm.config import ExperimentConfig, benchmark_config
from gawm.harness import cmd_ablate, cmd_gar, cmd_gen_data, cmd_probe, cmd_report, cmd_train

GOLDEN = Path(__file__).with_name("golden.json")

# the score-zoo's reference models, by the directory each one's reports go to
ZOO_REFS = (("exact", "exact"), ("drift", "drift:0.01,0,0.005"), ("sat", "sat:0.05"),
            ("asym", "asym:1.2,0.8"), ("noise", "noise:0.02"))


def key() -> str:
    """The table that applies here: the numpy version, and the kernels that
    numpy's OpenBLAS picked for this CPU, whose summation order moves
    output bits."""
    return f"numpy {np.__version__}, OpenBLAS core {_openblas_core()}"


def _openblas_core() -> str:
    """The core name of the OpenBLAS bundled with numpy, or "unknown"."""
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return "unknown"


def _config(out_dir: Path, pretrain_steps: int = 30, train_steps: int = 20) -> ExperimentConfig:
    """The benchmark config at seed 12, shrunk to run in a fraction of a second."""
    cfg = benchmark_config(out_dir=str(out_dir), seed=12)
    return replace(
        cfg,
        dataset=replace(cfg.dataset, n_trajectories=12, length=16),
        encoder=replace(cfg.encoder, latent_dim=8),
        pretrain=replace(cfg.pretrain, steps=pretrain_steps, batch_size=8, hidden_dim=16),
        train=replace(cfg.train, steps=train_steps, batch_size=8, hidden_dim=16),
        probes=replace(cfg.probes, n_sequences=3, sequence_length=16),
        gar=replace(cfg.gar, n_sequences=3, n_rollouts=3, horizons=(4, 8)),
    )


def write_run(root: Path) -> None:
    """The fixed run, under ``root``."""
    cmd_ablate(_config(root / "constraints", 400, 400), "constraints")
    cmd_report(root / "constraints")
    cmd_ablate(_config(root / "mode"), "mode")
    cmd_report(root / "mode")
    zoo = _config(root / "zoo")
    learned = replace(zoo, train=zoo.pretrain, ga=replace(zoo.ga, lambda_ga=0.0), pretrain=None)
    cmd_gen_data(learned)
    for name, ref in [*ZOO_REFS, ("learned", str(cmd_train(learned, label="pretrain")))]:
        model_cfg = replace(zoo, out_dir=str(root / "zoo" / name))
        cmd_probe(model_cfg, ref)
        cmd_gar(model_cfg, ref)
    cmd_report(root / "zoo")


def _untimed(value):
    if isinstance(value, dict):
        return {k: _untimed(v) for k, v in value.items() if not k.endswith("_s")}
    return value


def digests(root: Path) -> dict[str, str]:
    """SHA-256 of every file under ``root``, keyed by its relative path."""
    table = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            data = json.dumps(_untimed(json.loads(data)), sort_keys=True).encode()
        data = data.replace(str(root).encode(), b"<run>")
        table[path.relative_to(root).as_posix()] = hashlib.sha256(data).hexdigest()
    return table


def run_digests() -> dict[str, str]:
    """``digests`` of the fixed run, written to a temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "run"
        write_run(root)
        return digests(root)


def main() -> int:
    tables = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    tables[key()] = run_digests()
    GOLDEN.write_text(json.dumps(tables, indent=1, sort_keys=True) + "\n")
    print(f"{GOLDEN}: {len(tables[key()])} digests under {key()!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
