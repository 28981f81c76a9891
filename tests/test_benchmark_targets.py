"""What the benchmark relies on in ``src/gawm`` must still hold.

``perfbench/run.py --trace 1`` wraps gawm functions by dotted name, so a
rename in ``src/gawm`` breaks it without failing any other test. This
loads ``perfbench/run.py`` and ``perfbench/tracer.py`` without writing
bytecode next to them, collects every target their install functions
ask for, and resolves each one the way the tracer does. It checks that
training runs each step through the function the tracer times per step,
that every benchmark config survives a trip through its JSON form, and
that the score-zoo's model references build the models they name.
"""

import importlib.util
import itertools
import sys
from pathlib import Path

import numpy as np

import gawm.autograd  # noqa: F401  the tracer resolves targets in loaded modules
import gawm.harness  # noqa: F401
from gawm import training
from gawm.config import load_config, save_config
from gawm.data import ActionDistribution, generate_records
from gawm.latent import make_encoder
from gawm.harness import parse_model_ref
from gawm.models import ExactModel, ViolationConfig
from gawm.segments import ActionIncrement
from gawm.training import (
    TEACHER_FORCED,
    GALossConfig,
    NonFiniteLossError,
    TrainRunConfig,
    train_group,
)

from oracles import train

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


def test_tracer_installs_and_removes_every_wrapper(monkeypatch):
    # the real tracer wraps the stages and layers and puts every original back
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    tracer = _load("tracer")
    monkeypatch.setitem(sys.modules, "tracer", tracer)
    run = _load("run")
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "gawm"]
    owners = modules + [v for m in modules for v in vars(m).values()
                        if isinstance(v, type) and v.__module__.startswith("gawm")]
    before = [dict(vars(owner)) for owner in owners]
    original = gawm.harness.cmd_train
    t = tracer.Tracer()
    try:
        run.install_stages(t, None)
        run.install_layers(t)
        assert gawm.harness.cmd_train is not original
    finally:
        t.remove()
    for owner, attrs in zip(owners, before):
        assert all(vars(owner)[k] is v for k, v in attrs.items()), owner.__name__


def test_every_training_step_runs_through_train_step(monkeypatch):
    # the tracer's training.train_step_ms_* and train_step_samples time
    # gawm.training.train_step, one span per step, and its
    # training.sample_batch_s times every batch draw: the steps that
    # training.sample_batch draws for sum to the run's steps
    calls, drawn = [], []
    real_step, real_sample = training.train_step, training.sample_batch

    def counting_step(*args):
        calls.append(len(args[0].cfgs))
        return real_step(*args)

    def counting_sample(*args):
        draws = real_sample(*args)
        drawn.append(len(draws[0]))
        return draws

    monkeypatch.setattr(training, "train_step", counting_step)
    monkeypatch.setattr(training, "sample_batch", counting_sample)
    dataset = generate_records(ExactModel(), 20, 16, ActionDistribution(), seed=100)
    encoder = make_encoder(8, 200)
    for steps in (5, training.INPUT_CHUNK_STEPS + 1):
        calls.clear()
        drawn.clear()
        run = TrainRunConfig(steps=steps, batch_size=4, hidden_dim=8)
        train_group(run, [GALossConfig(), GALossConfig(mode=TEACHER_FORCED)], dataset, encoder, 1)
        assert calls == [2] * steps and sum(drawn) == steps
        calls.clear()
        drawn.clear()
        train(run, GALossConfig(), dataset, encoder, 1)
        assert calls == [1] * steps and sum(drawn) == steps

    # a row whose loss turns non-finite stays in the stack to the end
    calls.clear()
    drawn.clear()
    run = TrainRunConfig(steps=12, batch_size=4, learning_rate=1e-3, hidden_dim=8,
                         optimizer="sgd")
    with np.errstate(over="ignore", invalid="ignore"):
        good, bad = train_group(run, [GALossConfig(lambda_ga=0.0), GALossConfig(lambda_ga=1e30)],
                                dataset, encoder, 8)
    assert isinstance(bad, NonFiniteLossError) and 0 < bad.step < run.steps - 1
    assert not isinstance(good, NonFiniteLossError)
    assert calls == [2] * run.steps and sum(drawn) == run.steps


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


def test_zoo_refs_build_their_violation_configs(monkeypatch):
    # score-zoo scores these references; each must keep building the same model
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    expected = {
        "exact": None,
        "drift": ViolationConfig(drift_bias=ActionIncrement(0.01, 0.0, 0.005)),
        "sat": ViolationConfig(saturation_scale=0.05),
        "asym": ViolationConfig(asym_gain=(1.2, 0.8)),
        "noise": ViolationConfig(noise_sigma=0.02),
    }
    zoo = _load("workloads").ZOO_REFS
    assert [label for label, _ in zoo] == list(expected)
    for label, ref in zoo:
        model, name = parse_model_ref(ref)
        assert name == ref
        if expected[label] is None:
            assert isinstance(model, ExactModel)
        else:
            assert model.cfg == expected[label] and model.name == ref
