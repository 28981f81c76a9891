"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings as they complete.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from gawm.config import ProbeSuiteConfig, benchmark_config
from gawm.data import ActionDistribution
from gawm.data import sample_sequences
from gawm.harness import cmd_ablate, cmd_gar, cmd_gen_data, cmd_probe, cmd_train
from gawm.latent import DynamicsNet, make_dynamics_net, make_encoder
from gawm.metrics import (
    KIND_COMPOSITION,
    KIND_IDENTITY,
    KIND_INVERSE,
    ProbeConfig,
    ProbeResult,
    aggregate_gac,
    evaluate_gac,
    evaluate_gar,
    gar_error,
    probe_composition,
    probe_identity,
    probe_inverse,
)
from gawm.models import ExactModel, PerturbedModel, ViolationConfig, rollout
from gawm.se2 import (
    DistanceParams, Pose2, pose_array, se2_compose, se2_identity, se2_inverse, state_distance,
)
from gawm.segments import (
    ActionIncrement,
    DirichletParams,
    keyed_rng,
    sample_dirichlet_weights,
)
from gawm import autograd as ag
from gawm.training import (
    CONSTRAINTS,
    GALossConfig,
    ga_loss_graph,
    prediction_loss_graph,
)

from oracles import (
    central_difference,
    increment_pose,
    increments,
    oracle_probe_composition,
    oracle_probe_identity,
    oracle_probe_inverse,
    pose_close,
    random_pose,
)

BENCHMARK_SEED = 12

DIST = DistanceParams(1.0)

_timings: dict[int, float] = {}


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL ({description})")
        raise
    elapsed = time.perf_counter() - start + _timings.get(number, 0.0)
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s, budget {budget_s}s"
    print(f"criterion {number}: PASS ({description}) [{elapsed:.1f}s]")


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def test_criterion_1_group_axiom_suite():
    with criterion(1, "group axioms and finite-sequence rollout property", 1.0):
        rng = _rng(20240001)
        e = se2_identity()
        for _ in range(1000):
            g1, g2, g3 = (random_pose(rng) for _ in range(3))
            left = se2_compose(se2_compose(g1, g2), g3)
            right = se2_compose(g1, se2_compose(g2, g3))
            assert pose_close(left, right, 1e-12)
            assert pose_close(se2_compose(g1, e), g1, 1e-12)
            assert pose_close(se2_compose(e, g1), g1, 1e-12)
            assert pose_close(se2_compose(g1, se2_inverse(g1)), e, 1e-12)

        model = ExactModel()
        for _ in range(1000):
            start = random_pose(rng)
            n = int(rng.integers(1, 9))
            seg = np.array(
                [
                    [
                        float(rng.uniform(-0.5, 0.5)),
                        float(rng.uniform(-0.5, 0.5)),
                        float(rng.uniform(-0.5, 0.5)),
                    ]
                    for _ in range(n)
                ]
            )
            end = Pose2(*rollout(model, start, seg, 0)[-1])
            composed = start
            for a in increments(seg):
                composed = se2_compose(composed, increment_pose(a))
            assert state_distance(end, composed, DIST) <= 1e-9


def test_criterion_2_exact_model_zero_scores():
    with criterion(2, "exact model scores zero on the full default grid", 10.0):
        starts, actions, _ = sample_sequences(20, 32, ActionDistribution(sigma_dtheta=0.0), 424242)
        report = evaluate_gac(ExactModel(), starts, actions, ProbeSuiteConfig().probe_grid(), DIST, 99)
        assert report.delta_id <= 1e-9
        assert report.delta_inv <= 1e-9
        assert report.delta_comp <= 1e-9
        starts, actions, _ = sample_sequences(20, 64, ActionDistribution(sigma_dtheta=0.0), 434343)
        gar = evaluate_gar(ExactModel(), starts, actions, [16, 64], 5, DIST, 77)
        for entry in gar.entries:
            assert entry.aligned_mean == 0.0
            assert entry.nonaligned_mean == 0.0


def test_criterion_3_oracle_equivalence():
    with criterion(3, "probe errors equal brute-force stepwise simulation", 30.0):
        rng = _rng(30303)
        starts, sequences = np.empty((5, 3)), np.empty((5, 14, 3))
        for s in range(5):
            start = random_pose(rng, 2.0)
            starts[s] = [start.theta, start.x, start.y]
            sequences[s] = [
                [
                    float(rng.normal(0.1, 0.05)),
                    float(rng.normal(0.0, 0.03)),
                    float(np.clip(rng.normal(0.0, 0.1), -1, 1)),
                ]
                for _ in range(14)
            ]
        injectors = [
            (ViolationConfig(drift_bias=ActionIncrement(0.05, -0.02, 0.03)), {"drift": (0.05, -0.02, 0.03)}),
            (ViolationConfig(saturation_scale=1.0), {"sat": 1.0}),
            (ViolationConfig(asym_gain=(1.2, 1.0)), {"gains": (1.2, 1.0)}),
        ]
        for cfg, kwargs in injectors:
            model = PerturbedModel(cfg)
            for k, l in [(1, 1), (1, 3), (3, 3), (5, 5)]:
                cfg_id = ProbeConfig(KIND_IDENTITY, k=k, l=l)
                got = probe_identity(model, starts, sequences, cfg_id, DIST, 7)
                want = oracle_probe_identity(starts, sequences, k, l, 1.0, **kwargs)
                assert abs(got.mean - want) <= 1e-12
                cfg_inv = ProbeConfig(KIND_INVERSE, k=k, l=l)
                got = probe_inverse(model, starts, sequences, cfg_inv, DIST, 7)
                want = oracle_probe_inverse(starts, sequences, k, l, 1.0, **kwargs)
                assert abs(got.mean - want) <= 1e-12
            for l in (2, 4, 6):
                got = probe_composition(
                    model, starts, sequences, ProbeConfig(KIND_COMPOSITION, l=l), DIST, 7,
                    concentration=1.0,
                )

                def weight_fn(s_idx, length):
                    wrng = keyed_rng(7, 2, 1, length, s_idx, 1)
                    return sample_dirichlet_weights(length, DirichletParams(1.0), wrng)

                want = oracle_probe_composition(starts, sequences, l, 1.0, weight_fn, **kwargs)
                assert abs(got.mean - want) <= 1e-12

        # closed-form spot values
        sat = PerturbedModel(ViolationConfig(saturation_scale=1.0))
        u_a = np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        u_b = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        end_a = Pose2(*rollout(sat, Pose2(0, 0, 0), u_a, 0)[-1])
        end_b = Pose2(*rollout(sat, Pose2(0, 0, 0), u_b, 0)[-1])
        expected = abs(math.tanh(2.0) - 2.0 * math.tanh(1.0))
        assert abs(state_distance(end_a, end_b, DIST) - expected) <= 1e-12

        asym = PerturbedModel(ViolationConfig(asym_gain=(1.2, 1.0)))
        spot = np.zeros((1, 3)), np.array([[[1.0, 0.0, 0.0]]])
        got = probe_inverse(asym, *spot, ProbeConfig(KIND_INVERSE, k=1, l=1), DIST, 7)
        assert abs(got.mean - 0.2) <= 1e-12


def test_criterion_4_aggregation_arithmetic():
    with criterion(4, "aggregate equals the mean of reference component values", 1.0):
        def report_for(id_m, inv_m, comp_m):
            rows = [
                ProbeResult(KIND_IDENTITY, 1, 1, id_m, 0.0, 1, (0,)),
                ProbeResult(KIND_INVERSE, 1, 1, inv_m, 0.0, 1, (0,)),
                ProbeResult(KIND_COMPOSITION, 1, 2, comp_m, 0.0, 1, (0,)),
            ]
            return aggregate_gac(rows)

        first = report_for(1.95, 1.95, 0.60)
        assert abs(first.e_gac - 1.50) <= 1e-12
        assert f"{first.e_gac:.2f}" == "1.50"
        second = report_for(2.10, 2.29, 0.79)
        assert f"{second.e_gac:.2f}" == "1.73"


def test_criterion_5_dispersion_formula_and_noise_scaling():
    with criterion(5, "dispersion matches the double-loop oracle and scales with noise", 60.0):
        rng = _rng(5555)
        trajs = [
            [random_pose(rng, 2.0) for _ in range(8)] for _ in range(3)
        ]
        got = gar_error(np.stack([pose_array(t) for t in trajs]), DIST, aligned=False)
        total = 0.0
        for i in range(3):
            for j in range(i + 1, 3):
                acc = 0.0
                for t in range(1, 8):
                    acc += state_distance(trajs[i][t], trajs[j][t], DIST)
                total += acc / 7.0
        want = 2.0 * total / (3 * 2)
        assert abs(got - want) <= 1e-12

        starts, actions, _ = sample_sequences(20, 64, ActionDistribution(sigma_dtheta=0.0), 565656)
        lo = evaluate_gar(
            PerturbedModel(ViolationConfig(noise_sigma=0.01)), starts, actions, [64], 32, DIST, 11
        ).entries[0].nonaligned_mean
        hi = evaluate_gar(
            PerturbedModel(ViolationConfig(noise_sigma=0.02)), starts, actions, [64], 32, DIST, 11
        ).entries[0].nonaligned_mean
        ratio = hi / lo
        assert 1.8 <= ratio <= 2.2, f"noise scaling ratio {ratio}"


def test_criterion_6_gradient_correctness():
    with criterion(6, "analytic gradients match finite differences; detach truncates", 60.0):
        d, h = 6, 8
        net = make_dynamics_net(d, h, 606060)
        encoder = make_encoder(d, 616161)
        rng = _rng(626262)

        transitions_z = rng.normal(size=(d, 5))
        transitions_a = rng.normal(0.1, 0.05, size=(3, 5))
        transitions_zn = rng.normal(size=(d, 5))
        z_t = rng.normal(size=d)
        base = np.array([[0.1, 0.02, 0.05], [0.08, -0.03, -0.04],
                         [0.12, 0.0, 0.06], [0.05, 0.01, 0.0]])
        cfg = GALossConfig(max_span=4)

        graphs = {
            "pred": lambda w: prediction_loss_graph(w, transitions_z, transitions_a, transitions_zn),
        }
        for c in CONSTRAINTS:
            graphs[c] = lambda w, c=c: ga_loss_graph(
                w, z_t, base, cfg, c, dirichlet_rng=_rng(636363)
            )

        checked = 0
        coord_rng = _rng(646464)
        for name, build in graphs.items():
            weights = net.param_tensors()
            loss = build(weights)
            ag.backward(loss)
            grad = net.pack_grads(weights)

            def value_at(params, build=build):
                probe = DynamicsNet(d, h, params)
                return float(build(probe.param_tensors()).value)

            coords = coord_rng.choice(net.params.size, size=25, replace=False)
            for i in coords:
                fd = central_difference(value_at, net.params, int(i))
                assert abs(fd - grad[i]) <= 1e-4 * max(1.0, abs(fd)), f"{name} coord {i}"
                checked += 1
        assert checked == 100

        # detach truncation: gradient is exactly zero upstream of the marker
        upstream = make_dynamics_net(d, h, 656565).param_tensors()
        anchor = ag.residual_mlp(
            ag.constant(rng.normal(size=d)), rng.normal(size=3), upstream
        ).detach()
        weights = net.param_tensors()
        from gawm.latent import rollout_endpoint_graph

        end = rollout_endpoint_graph(anchor, base, weights)
        ag.backward(ag.sumsq(ag.sub(end, anchor)))
        for u in upstream:
            assert u.grad is None
            assert np.array_equal(ag.grad_or_zeros(u), np.zeros(u.shape))


@pytest.fixture(scope="module")
def benchmark_rows(tmp_path_factory):
    out = tmp_path_factory.mktemp("benchmark")
    cfg = benchmark_config(out_dir=str(out), seed=BENCHMARK_SEED)
    start = time.perf_counter()
    rows = {r["label"]: r for r in cmd_ablate(cfg, "constraints")}
    elapsed = time.perf_counter() - start
    return rows, elapsed


def test_criterion_7_directional_improvement(benchmark_rows):
    rows, elapsed = benchmark_rows
    _timings[7] = elapsed
    with criterion(7, "regularized model beats the control at matched prediction quality", 600.0):
        base, full = rows["baseline"], rows["full"]
        assert full["e_gac"] <= 0.85 * base["e_gac"], (
            f"aggregate consistency {full['e_gac']:.4f} vs control {base['e_gac']:.4f}"
        )
        assert full["gar64_nonaligned"] <= 0.85 * base["gar64_nonaligned"], (
            f"64-step dispersion {full['gar64_nonaligned']:.4f} vs control {base['gar64_nonaligned']:.4f}"
        )
        assert full["eval_prediction_loss"] <= 1.10 * base["eval_prediction_loss"], (
            f"prediction loss {full['eval_prediction_loss']:.6f} vs control "
            f"{base['eval_prediction_loss']:.6f}"
        )


def test_criterion_8_ablation_structure(benchmark_rows):
    rows, elapsed = benchmark_rows
    _timings[8] = elapsed
    with criterion(8, "single-constraint rows hit their targets; full is weakly best", 2700.0):
        base = rows["baseline"]
        assert rows["id-only"]["delta_id"] < base["delta_id"]
        assert rows["inv-only"]["delta_inv"] < base["delta_inv"]
        assert rows["comp-only"]["delta_comp"] < base["delta_comp"]
        full = rows["full"]
        for label, row in rows.items():
            assert full["e_gac"] <= row["e_gac"] + 1e-12, (
                f"full e_gac {full['e_gac']:.4f} vs {label} {row['e_gac']:.4f}"
            )


def test_criterion_9_end_to_end_determinism(tmp_path):
    with criterion(9, "two pipeline runs produce byte-identical metric files", 300.0):
        from gawm.config import DatasetConfig, EncoderConfig, ExperimentConfig, GarSuiteConfig
        from gawm.training import TrainRunConfig

        def small_cfg(out):
            return ExperimentConfig(
                seed=9,
                out_dir=str(out),
                dataset=DatasetConfig(n_trajectories=12, length=32),
                encoder=EncoderConfig(latent_dim=8),
                train=TrainRunConfig(steps=60, batch_size=8, learning_rate=1e-3, hidden_dim=16),
                probes=ProbeSuiteConfig(n_sequences=5, sequence_length=12),
                gar=GarSuiteConfig(n_rollouts=3, horizons=(8, 16), n_sequences=5,
                                   eval_noise_sigma=0.02),
            )

        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            cfg = small_cfg(out)
            cmd_gen_data(cfg)
            ckpt = cmd_train(cfg)
            cmd_probe(cfg, str(ckpt))
            cmd_gar(cfg, str(ckpt))
            metric_files = ["loss_curve.csv", "gac_per_config.csv", "gac_summary.csv",
                            "gar.csv", "gac_trends.dat"]
            outputs.append({f: (out / f).read_bytes() for f in metric_files})
        assert outputs[0] == outputs[1]
