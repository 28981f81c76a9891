"""Evaluation inputs built once per process and shared across models.

The probe and GAR evaluation sequences (``data.evaluation_sequences``)
and the probes' Dirichlet weights (``metrics._dirichlet_weights``) are
cached; the branch segments are built from them on every call by the
stack builders ``segments.inverse_cycles`` and ``segments.recompose``.
Every comparison here is exact: sharing must not change a byte of any
report.
"""

import gc
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gawm import harness, metrics, segments
from gawm.config import (
    DatasetConfig,
    EncoderConfig,
    ExperimentConfig,
    GarSuiteConfig,
    ProbeSuiteConfig,
    stage_seed,
)
from gawm.data import ActionDistribution, evaluation_sequences, sample_sequences
from gawm.harness import cmd_gar, cmd_gen_data, cmd_probe, cmd_train, file_sha256
from gawm.metrics import (
    KIND_COMPOSITION,
    KIND_INVERSE,
    ProbeConfig,
    _dirichlet_weights,
    evaluate_gac,
)
from gawm.models import PerturbedModel, ViolationConfig
from gawm.se2 import DistanceParams
from gawm.segments import (
    DirichletParams,
    inverse_cycles,
    keyed_rng,
    keyed_rngs,
    keyed_seeds,
    make_compatibility_segment,
    make_inverse_segment,
    recompose,
    seeded_rngs,
)
from gawm.training import TrainRunConfig

DIST = DistanceParams(0.7)
ZOO = ("exact", "drift:0.01,0,0.005", "sat:0.05", "asym:1.2,0.8", "noise:0.02")


def clear_caches():
    evaluation_sequences.cache_clear()
    _dirichlet_weights.cache_clear()


def tiny_config(out_dir) -> ExperimentConfig:
    return ExperimentConfig(
        seed=5,
        out_dir=str(out_dir),
        dataset=DatasetConfig(n_trajectories=8, length=16),
        encoder=EncoderConfig(latent_dim=8),
        train=TrainRunConfig(steps=10, batch_size=8, hidden_dim=16),
        probes=ProbeSuiteConfig(n_sequences=3, sequence_length=16),
        gar=GarSuiteConfig(n_rollouts=3, horizons=(4, 8), n_sequences=3),
    )


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    cfg = tiny_config(tmp_path_factory.mktemp("ckpt"))
    cmd_gen_data(cfg)
    return str(cmd_train(cfg))


def _metric_hashes(root) -> dict[str, str]:
    """SHA-256 of every report file under ``root`` (not the configs and
    manifests, which name the run directory and its timings)."""
    skip = ("manifest.json", "resolved_config.json")
    return {str(p.relative_to(root)): file_sha256(p) for p in sorted(Path(root).rglob("*"))
            if p.is_file() and not p.name.endswith(skip)}


def _score(cfg, refs, root) -> dict[str, str]:
    """Probe and GAR every reference into ``root/<i>``, as score-zoo does."""
    for i, ref in enumerate(refs):
        model_cfg = replace(cfg, out_dir=str(Path(root) / str(i)))
        cmd_probe(model_cfg, ref)
        cmd_gar(model_cfg, ref)
    return _metric_hashes(root)


def _per_window_segments(kind, windows, seed, key, j, dirichlet):
    """A probe stop's branch segments as one ``make_*`` build per window,
    with the weights drawn from the generator the probe walk keys."""
    if kind == KIND_INVERSE:
        return np.stack([make_inverse_segment(u) for u in windows])
    return np.stack([
        make_compatibility_segment(u, dirichlet, keyed_rng(seed, *key, s, 1 + 3 * j))
        for s, u in enumerate(windows)
    ])


def _stacked_segments(kind, windows, seed, key, j, dirichlet):
    """The same segments as the probe walk builds them: one stack build."""
    if kind == KIND_INVERSE:
        return inverse_cycles(windows)
    return recompose(windows, _dirichlet_weights(seed, key, j, len(windows), windows.shape[1],
                                                 dirichlet))


def _unshared(monkeypatch):
    """Evaluate with fresh sequences, fresh weights and one segment build
    per window on every call."""
    monkeypatch.setattr(harness, "evaluation_sequences",
                        lambda *args: sample_sequences(*args)[:2])
    monkeypatch.setattr(metrics, "_dirichlet_weights", _dirichlet_weights.__wrapped__)
    monkeypatch.setattr(metrics, "inverse_cycles",
                        lambda windows: np.stack([make_inverse_segment(u) for u in windows]))
    monkeypatch.setattr(metrics, "recompose", lambda windows, weights: np.stack(
        [recompose(u, w) for u, w in zip(windows, weights)]))


def _with_negative_zeros(windows):
    """A copy of ``windows`` whose first row of every window is all -0.0."""
    windows = windows.copy()
    windows[:, 0] = -0.0
    return windows


def test_reports_are_the_same_cold_on_a_hit_and_unshared(tmp_path, monkeypatch, checkpoint):
    cfg = tiny_config(tmp_path)
    refs = ("exact", "noise:0.02", checkpoint)
    clear_caches()
    cold = _score(cfg, refs, tmp_path / "cold")
    assert _dirichlet_weights.cache_info().hits > 0  # shared across the three models
    hit = _score(cfg, refs, tmp_path / "hit")
    assert evaluation_sequences.cache_info().hits >= 2 * len(refs)
    _unshared(monkeypatch)
    unshared = _score(cfg, refs, tmp_path / "unshared")
    assert len(cold) == 4 * len(refs) + 2 * len(refs)
    assert cold == hit == unshared


def test_a_score_zoo_loop_run_twice_writes_the_same_files(tmp_path, checkpoint):
    cfg = tiny_config(tmp_path)
    refs = ZOO + (checkpoint,)
    first = _score(cfg, refs, tmp_path / "first")
    second = _score(cfg, refs, tmp_path / "second")
    clear_caches()
    cold = _score(cfg, refs, tmp_path / "cold")
    assert first == second == cold


def test_cached_arrays_are_read_only():
    starts, actions = evaluation_sequences(3, 8, ActionDistribution(), 11)
    windows = actions[:, 2:5]
    weights = _dirichlet_weights(11, (2, 1, 3), 0, 3, 3, DirichletParams())
    cycles = inverse_cycles(windows)
    recomposed = recompose(windows, weights)
    for array in (starts, actions, weights, cycles, recomposed):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1.0
    assert evaluation_sequences(3, 8, ActionDistribution(), 11)[1] is actions
    assert _dirichlet_weights(11, (2, 1, 3), 0, 3, 3, DirichletParams()) is weights


def _cached_objects(cached) -> list:
    """What an ``lru_cache`` wrapper holds: its keys' parts and its values."""
    found, todo = [], [r for r in gc.get_referents(cached)
                        if not isinstance(r, (dict, type)) and not callable(r)]
    while todo:
        obj = todo.pop()
        if isinstance(obj, (list, tuple)):
            todo += obj
        else:
            found.append(obj)
    return found


def test_the_weights_cache_holds_weights_keyed_by_what_they_depend_on():
    clear_caches()
    grid = ProbeSuiteConfig().probe_grid()
    starts, actions, _ = sample_sequences(4, 24, ActionDistribution(sigma_dtheta=0.3), 43)
    for model in (PerturbedModel(ViolationConfig(saturation_scale=0.08)),
                  PerturbedModel(ViolationConfig(noise_sigma=0.02))):
        evaluate_gac(model, starts, actions, grid, DIST, 43)
        evaluate_gac(model, starts, actions * 0.5, grid, DIST, 43)  # other windows, same weights
    n_comp = sum(cfg.kind == KIND_COMPOSITION for cfg in grid)
    info = _dirichlet_weights.cache_info()
    assert (info.misses, info.currsize, info.hits) == (n_comp, n_comp, 3 * n_comp)
    held = _cached_objects(_dirichlet_weights)
    assert not any(isinstance(obj, np.random.Generator) for obj in held)
    weights = [obj for obj in held if isinstance(obj, np.ndarray)]
    assert len(weights) == n_comp
    assert all(w.dtype == np.float64 and w.shape[0] == 4 and not w.flags.writeable
               for w in weights)
    assert {type(obj) for obj in held} <= {int, DirichletParams, np.ndarray, object}
    assert sorted(w.shape[1] for w in weights) == sorted(cfg.l for cfg in grid
                                                         if cfg.kind == KIND_COMPOSITION)


def test_an_exact_model_probe_and_gar_build_no_generators(tmp_path, monkeypatch):
    built = []
    for name in ("keyed_rngs", "keyed_seeds"):  # every key metrics hashes goes through one of these
        helper = getattr(segments, name)
        monkeypatch.setattr(metrics, name, lambda seed, keys, helper=helper:
                            built.extend(tuple(key) for key in keys) or helper(seed, keys))
    cfg = tiny_config(tmp_path / "cold")
    clear_caches()
    cmd_probe(cfg, "exact")
    cmd_gar(cfg, "exact")
    # cold, the only generators are the composition stops' Dirichlet weights (slot 1 + 3j, j = 0)
    n_comp = sum(c.kind == KIND_COMPOSITION for c in cfg.probes.probe_grid())
    assert len(built) == n_comp * cfg.probes.n_sequences
    assert {key[0] for key in built} == {2} and {key[-1] for key in built} == {1}
    built.clear()
    warm = replace(cfg, out_dir=str(tmp_path / "warm"))
    cmd_probe(warm, "exact")
    cmd_gar(warm, "exact")
    assert built == []


def test_evaluation_sequences_are_sample_sequences_without_generators():
    starts, actions = evaluation_sequences(4, 9, ActionDistribution(sigma_dtheta=0.2), 23)
    want_starts, want_actions, _ = sample_sequences(4, 9, ActionDistribution(sigma_dtheta=0.2), 23)
    assert starts.tobytes() == want_starts.tobytes()
    assert actions.tobytes() == want_actions.tobytes()


@pytest.mark.parametrize("kind", (KIND_INVERSE, KIND_COMPOSITION))
def test_mutated_windows_get_segments_built_from_their_new_values(kind):
    windows = sample_sequences(5, 4, ActionDistribution(), 31)[1]
    key, dirichlet = (1, 1, 4), DirichletParams(0.5)
    before = _stacked_segments(kind, windows, 3, key, 0, dirichlet)
    windows[:, :, 0] *= 0.5
    after = _stacked_segments(kind, windows, 3, key, 0, dirichlet)
    assert not np.array_equal(before, after)
    assert after.tobytes() == _per_window_segments(kind, windows, 3, key, 0, dirichlet).tobytes()


def test_a_caller_mutating_its_actions_between_calls_gets_the_new_report():
    model = PerturbedModel(ViolationConfig(saturation_scale=0.08))
    grid = ProbeSuiteConfig().probe_grid()
    starts, actions, _ = sample_sequences(6, 24, ActionDistribution(sigma_dtheta=0.3), 41)
    first = evaluate_gac(model, starts, actions, grid, DIST, 41)
    actions[:, :, :2] *= 2.0
    second = evaluate_gac(model, starts, actions, grid, DIST, 41)
    clear_caches()
    cold = evaluate_gac(model, starts, actions.copy(), grid, DIST, 41)
    assert second != first
    assert second == cold


@pytest.mark.parametrize("l", range(1, 9))
@pytest.mark.parametrize("kind", (KIND_INVERSE, KIND_COMPOSITION))
@pytest.mark.parametrize("concentration", (0.3, 1.0, 4.0))
def test_array_built_segments_equal_per_window_segments(kind, l, concentration):
    actions = sample_sequences(7, 12, ActionDistribution(sigma_dtheta=0.4), 50 + l)[1]
    key, dirichlet = (2, 1, l), DirichletParams(concentration)
    clear_caches()
    # a strided view, as the probe walk slices it, and a copy with -0.0 rows
    for windows in (actions[:, 3 : 3 + l], _with_negative_zeros(actions[:, 3 : 3 + l])):
        got = _stacked_segments(kind, windows, 8, key, 2, dirichlet)
        want = _per_window_segments(kind, windows, 8, key, 2, dirichlet)
        assert got.shape == want.shape == (7, 2 * l if kind == KIND_INVERSE else l, 3)
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable


def test_the_one_window_case_keeps_its_empty_segment_errors():
    with pytest.raises(ValueError, match="empty segment"):
        make_inverse_segment(np.zeros((0, 3)))
    with pytest.raises(ValueError, match="recompose an empty segment"):
        make_compatibility_segment(np.zeros((0, 3)), DirichletParams(), keyed_rng(0))
    assert inverse_cycles(np.zeros((2, 0, 3))).shape == (2, 0, 3)


def test_an_out_of_range_recomposed_increment_raises_as_per_window():
    windows = np.zeros((3, 2, 3))
    windows[1, :, 2] = 3.1  # accumulates to 6.2 rad, which a recomposition splits unevenly
    key, dirichlet = (2, 1, 2), DirichletParams()
    with pytest.raises(ValueError, match=r"\|dtheta\| must be <= pi") as per_window:
        _per_window_segments(KIND_COMPOSITION, windows, 4, key, 0, dirichlet)
    clear_caches()
    for _ in range(2):  # the cached weights do not cache the failure away
        with pytest.raises(ValueError) as got:
            _stacked_segments(KIND_COMPOSITION, windows, 4, key, 0, dirichlet)
        assert str(got.value) == str(per_window.value)


def test_probe_reports_equal_per_window_segment_walks(monkeypatch):
    grid = ProbeSuiteConfig().probe_grid() + [ProbeConfig(KIND_INVERSE, k=3, l=2)]
    starts, actions, _ = sample_sequences(5, 20, ActionDistribution(sigma_dtheta=0.3), 61)
    for model in (PerturbedModel(ViolationConfig(asym_gain=(1.3, 0.7))),
                  PerturbedModel(ViolationConfig(noise_sigma=0.02))):
        clear_caches()
        shared = evaluate_gac(model, starts, actions, grid, DIST, 61)
        with monkeypatch.context() as m:
            _unshared(m)
            unshared = evaluate_gac(model, starts, actions, grid, DIST, 61)
        assert shared == unshared
        assert math.isfinite(shared.e_gac) and shared.e_gac > 0.0


def _spawned(seed, key):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=key)))


KEY_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**96 + 5, 2**130 + 3, 12, 29,
             *(stage_seed(seed, stage) for seed in (12, 29) for stage in range(8)))


def test_keyed_rng_is_the_spelled_out_generator():
    for seed, key in [(0, ()), (5, (3,)), (2**63, (2, 1, 8, 99, 25)), (7, (0, 1))]:
        assert keyed_rng(seed, *key).bit_generator.state == _spawned(seed, key).bit_generator.state
    assert segments.keyed_rngs is metrics.keyed_rngs and segments.keyed_seeds is metrics.keyed_seeds


@pytest.mark.parametrize("length", [0, 1, 2, 3, 5])
@pytest.mark.parametrize("seed", KEY_SEEDS)
def test_bulk_keyed_generators_are_the_spelled_out_generators(seed, length):
    top = 2**32 - 1
    keys = [(0,) * length, (top,) * length, tuple(range(length)),
            tuple(range(top, top - length, -1))]
    keys += [tuple(int(v) for v in row)
             for row in np.random.default_rng(seed % 997).integers(0, 2**32, size=(6, length))]
    seeds = keyed_seeds(seed, keys)
    assert seeds.shape == (len(keys), 4) and seeds.dtype == np.uint64
    for key, rng, words in zip(keys, keyed_rngs(seed, keys), seeds):
        want = _spawned(seed, key)
        assert rng.bit_generator.state == want.bit_generator.state
        assert words.tolist() == np.random.SeedSequence(seed, spawn_key=key).generate_state(
            4, np.uint64).tolist()
        assert rng.normal(size=3).tolist() == want.normal(size=3).tolist()
    one = keyed_rng(seed, *keys[-1])
    assert one.bit_generator.state == _spawned(seed, keys[-1]).bit_generator.state
    # an (n, k) array of keys, and a batch's rows of a suite's words
    as_array = keyed_rngs(seed, np.array(keys, dtype=np.int64).reshape(len(keys), length))
    assert [r.bit_generator.state for r in as_array] == [_spawned(seed, k).bit_generator.state
                                                        for k in keys]
    assert [r.bit_generator.state for r in seeded_rngs(seeds[2:5])] == \
        [_spawned(seed, k).bit_generator.state for k in keys[2:5]]


def test_no_keys_build_no_generators():
    assert keyed_rngs(3, []) == []
    assert keyed_seeds(3, np.zeros((0, 2), dtype=np.int64)).shape == (0, 4)


def test_bulk_keyed_generators_reject_bad_seeds_and_keys():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        keyed_rngs(-1, [(1,)])
    with pytest.raises(TypeError):
        keyed_rngs(1.5, [(1,)])
    for bad in ([(0, -1)], [(2**32,)], [(1,), (2**64,)], [(2**70, 1)]):
        with pytest.raises(ValueError, match=r"key elements must be integers in \[0, 2\*\*32\)"):
            keyed_rngs(0, bad)
    with pytest.raises(TypeError, match="key elements must be integers"):
        keyed_rngs(0, [(1.5,)])
    for ragged in ([(1, 2), (3,)], [(), (1,)]):
        with pytest.raises(ValueError, match="same length"):
            keyed_rngs(0, ragged)
    with pytest.raises(ValueError, match="equal-length integer keys"):
        keyed_rngs(0, [[(1,)]])
    with pytest.raises(ValueError, match="seed must be >= 0"):
        keyed_rng(-3)


def test_a_keyed_generator_cannot_spawn():
    rng = keyed_rng(4, 1, 2)
    assert not isinstance(rng.bit_generator.seed_seq, np.random.SeedSequence)
    with pytest.raises(TypeError):
        rng.spawn(1)
    with pytest.raises(ValueError, match="asked for"):
        rng.bit_generator.seed_seq.generate_state(8)
