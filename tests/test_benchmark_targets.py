"""What the benchmark relies on in ``src/gawm`` must still hold.

``perfbench/run.py --trace 1`` wraps gawm functions by dotted name, so a
rename in ``src/gawm`` breaks it without failing any other test. This
loads ``perfbench/run.py`` and ``perfbench/tracer.py`` without writing
bytecode next to them, collects every target their install functions
ask for, and resolves each one the way the tracer does. It also checks
that every benchmark config survives a trip through its JSON form.
"""

import importlib.util
import itertools
import sys
from pathlib import Path

import gawm.autograd  # noqa: F401  the tracer resolves targets in loaded modules
import gawm.harness  # noqa: F401
from gawm.config import load_config, save_config

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Recorder:
    """Stands in for the tracer: records what would be wrapped."""

    def __init__(self):
        self.extra = {}
        self.targets = []

    def wrap(self, target, name, kind=None, before=None, after=None):
        self.targets.append(target)


def test_every_tracer_target_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracer = _load("tracer")
    monkeypatch.setitem(sys.modules, "tracer", tracer)  # run.py imports it by that name
    run = _load("run")
    recorder = _Recorder()
    run.install_layers(recorder)
    run.install_stages(recorder, None)
    assert len(set(recorder.targets)) >= 38
    for target in recorder.targets:
        owner, attr, value = tracer._resolve(target)
        assert callable(value), target
        assert getattr(owner, attr) is value


def test_benchmark_configs_round_trip_through_json(monkeypatch, tmp_path):
    # the benchmark builds its configs in code; loading their JSON form
    # must give back the same config and the same config hash
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads = _load("workloads")
    for workload, seed, scale in itertools.product(
            ("ablate-constraints", "ablate-mode", "score-zoo"), (12, 29), ("full", "tiny")):
        cfg = workloads.make_config(workload, seed, str(tmp_path / "run"), scale)
        save_config(tmp_path / "cfg.json", cfg)
        loaded = load_config(tmp_path / "cfg.json")
        assert loaded == cfg, (workload, seed, scale)
        assert loaded.config_hash() == cfg.config_hash(), (workload, seed, scale)
