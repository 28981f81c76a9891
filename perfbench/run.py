"""gawm benchmark: time the ablation and model-scoring workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload ablate-constraints --seed 12 --seconds 18 --trace 0

Workloads: ablate-constraints, ablate-mode, score-zoo (see workloads.py).
The run first sets up three times, each in a fresh interpreter, and
reports the median as ``setup_s``. It then repeats the timed command(s)
in this process until ``--seconds`` have passed, checks every stage
call's outputs, and prints one line per metric followed by a JSON
result line.

Times are corrected for host contention by interleaved calibration
(see contention.py); raw times are printed next to them.

With ``--trace 0`` only the ~20 stage calls per iteration are wrapped,
and the JSON holds the end-to-end metrics. With ``--trace 1`` every
public layer function is wrapped as well (see tracer.py) and the JSON
holds the per-layer metrics, per timed iteration; on score-zoo the
training-layer numbers come from the traced set-up process that trains
the scored checkpoint.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
RESULTS = OUT / "results.jsonl"
REFERENCE = BENCH_DIR / "reference.json"
WORKLOADS = ("ablate-constraints", "ablate-mode", "score-zoo")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 60
IDLE_CALIBRATION_S = 0.2
# In-run over idle calibration-kernel mean above which a run is flagged.
DRIFT_FLAG = 1.25

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "train_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def ensure_source() -> None:
    """Put the checkout's ``src/`` first on the path, or stop."""
    if not (SRC / "gawm" / "__init__.py").is_file():
        raise SystemExit(f"gawm sources not found under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import gawm

    if Path(gawm.__file__).resolve().parent != (SRC / "gawm").resolve():
        raise SystemExit(f"imported gawm from {gawm.__file__}, not from {SRC}")


def machine_info(seed: int) -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = None
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for lib_path in glob.glob(pattern):
        try:
            get = ctypes.CDLL(lib_path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        threads = get()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "seed": seed,
    }


# -- set-up ------------------------------------------------------------------


def prepare_main(args, sampler) -> None:
    """Child-process side of one set-up pass; prints its info as JSON."""
    import workloads
    from tracer import Tracer

    tracer = Tracer()
    if args.trace:
        install_layers(tracer)
        install_stages(tracer, None)
    try:
        info = workloads.prepare(args.workload, args.seed, Path(args.prepare), args.scale)
    finally:
        tracer.remove()
        sampler.stop()
    if args.trace:
        info["trace"] = tracer.summary()
    info["calibration"] = sampler.window(float("-inf"), float("inf"))
    if "train_start" in info:
        info["train_calibration"] = sampler.window(info["train_start"], info["train_end"])
    print(json.dumps(info))


def run_setup(args, workdir: Path) -> tuple[list[float], list[dict]]:
    times, infos = [], []
    for k in range(SETUP_REPEATS):
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--prepare", str(workdir / f"setup{k}"),
               "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale,
               "--trace", "1" if (args.trace and k == 0) else "0"]
        start = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        times.append(perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up pass {k} failed:\n{proc.stderr}")
        infos.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return times, infos


# -- tracing plan --------------------------------------------------------------

LAYER_SPANS = (
    ("gawm.training.train_step", "training.train_step"),
    ("gawm.metrics.probe_identity", "metrics.probe_identity"),
    ("gawm.metrics.probe_inverse", "metrics.probe_inverse"),
    ("gawm.metrics.probe_composition", "metrics.probe_composition"),
    ("gawm.metrics.evaluate_gar", "metrics.evaluate_gar"),
)

LAYER_COUNTERS = (
    ("gawm.data.generate_records", "data.generate_records"),
    ("gawm.data.write_dataset", "data.write_dataset"),
    ("gawm.data.load_dataset", "data.load_dataset"),
    ("gawm.training.sample_batch", "training.sample_batch"),
    ("gawm.training.prediction_loss_graph", "training.prediction_loss_graph"),
    ("gawm.training.AdamOptimizer.update", "training.optimizer_update"),
    ("gawm.training.SgdOptimizer.update", "training.optimizer_update"),
    ("gawm.latent.pose_features", "latent.pose_features"),
    ("gawm.latent.net_step_graph", "latent.net_step_graph"),
    ("gawm.latent.net_step", "latent.net_step"),
    ("gawm.latent.LearnedWorldModel.sample_trajectory", "latent.sample_trajectory"),
    ("gawm.latent.decode", "latent.decode"),
    ("gawm.models.rollout", "models.rollout"),
    ("gawm.models.exact_step", "models.exact_step"),
    ("gawm.models.perturbed_step", "models.perturbed_step"),
    ("gawm.segments.make_compatibility_segment", "segments.make_compatibility_segment"),
    ("gawm.segments.make_inverse_segment", "segments.make_inverse_segment"),
    ("gawm.se2.se2_compose", "se2.se2_compose"),
    ("gawm.se2.state_distance", "se2.state_distance"),
    ("gawm.metrics.gar_error", "metrics.gar_error"),
    ("gawm.metrics.align_trajectory", "metrics.align_trajectory"),
) + tuple(
    (f"gawm.metrics.{name}", "metrics.write")
    for name in ("write_gac_json", "write_gac_csv", "write_gac_summary_csv",
                 "write_gac_gnuplot", "write_gar_json", "write_gar_csv")
)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def install_layers(tracer) -> None:
    from tracer import SPAN

    for target, name in LAYER_SPANS:
        tracer.wrap(target, name, SPAN)
    for target, name in LAYER_COUNTERS:
        tracer.wrap(target, name)

    extra = tracer.extra

    def count_ga_graph(args, kwargs):
        cfg, active = _arg(args, kwargs, 3, "cfg"), _arg(args, kwargs, 4, "active")
        extra["ga_graphs"] = extra.get("ga_graphs", 0) + 1
        if cfg.lambda_ga * cfg.constraint_weight(active) != 0.0:
            extra["ga_useful"] = extra.get("ga_useful", 0) + 1

    def count_tape(args, kwargs):
        seen, stack = set(), [_arg(args, kwargs, 0, "loss")]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                stack.extend(node.parents)
        extra["tape_nodes"] = extra.get("tape_nodes", 0) + len(seen)

    tracer.wrap("gawm.training.ga_loss_graph", "training.ga_loss_graph", before=count_ga_graph)
    tracer.wrap("gawm.autograd.backward", "autograd.backward", before=count_tape)


def _train_span_name(args, kwargs) -> str:
    cfg = _arg(args, kwargs, 0, "cfg")
    return "harness.pretrain" if cfg.train.init_checkpoint is None else "harness.finetune"


def install_stages(tracer, log) -> None:
    """Span every harness stage call; ``log`` (if given) checks each result."""
    from tracer import SPAN

    after = None if log is None else log.after
    tracer.wrap("gawm.harness.cmd_gen_data", "harness.gen_data", SPAN, after=after)
    tracer.wrap("gawm.harness.cmd_train", _train_span_name, SPAN, after=after)
    tracer.wrap("gawm.harness.cmd_probe", "harness.probe", SPAN, after=after)
    tracer.wrap("gawm.harness.cmd_gar", "harness.gar", SPAN, after=after)


STAGE_SPANS = ("harness.gen_data", "harness.pretrain", "harness.finetune",
               "harness.probe", "harness.gar")


class StageLog:
    """Per-call work, duration, output digest and problems of every stage call."""

    def __init__(self):
        self.calls: list[dict] = []

    def after(self, args, kwargs, result, span) -> None:
        import workloads as wl
        from tracer import span_seconds

        stage = span[0].split(".", 1)[1]
        cfg = _arg(args, kwargs, 0, "cfg")
        call = {"stage": stage, "start": span[1], "end": span[2], "seconds": span_seconds(span),
                "work": 0, "digest": [], "problems": []}
        self.calls.append(call)
        if result is None:
            call["problems"].append("raised")
            return
        if stage == "gen_data":
            call["problems"] = wl.check_gen_data(cfg, result)
        elif stage in ("pretrain", "finetune"):
            call["work"] = cfg.train.steps
            call["problems"] = wl.check_train(cfg, result)
            call["digest"] = wl.train_digest(result)
        elif stage == "probe":
            call["work"] = sum(r.n_instances for r in result.per_config)
            call["problems"] = wl.check_probe(result, _arg(args, kwargs, 1, "model_ref"))
            call["digest"] = wl.probe_digest(result)
        else:
            call["work"] = result.entries[0].n_sequences * result.n_rollouts
            call["problems"] = wl.check_gar(result, _arg(args, kwargs, 1, "model_ref"))
            call["digest"] = wl.gar_digest(result)


# -- metrics -------------------------------------------------------------------


def _scaled(summary: dict, factor: float) -> dict:
    out = json.loads(json.dumps(summary))
    for key in ("spans", "counters"):
        for agg in out[key].values():
            for k in agg:
                agg[k] *= factor
    out["extra"] = {k: v * factor for k, v in out["extra"].items()}
    return out


def _quantile_ms(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return 1e3 * ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(summary: dict, coverage: float, dataset_bytes: int) -> dict:
    spans, counters, extra = summary["spans"], summary["counters"], summary["extra"]

    def span_s(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def span_calls(name):
        return spans.get(name, {}).get("calls", 0)

    def count_s(name):
        return counters.get(name, {}).get("total_s", 0.0)

    def count_calls(name):
        return counters.get(name, {}).get("calls", 0)

    steps = summary["train_step_s"]
    graphs = extra.get("ga_graphs", 0)
    return {
        "harness.gen_data_s": (span_s("harness.gen_data"), "s"),
        "harness.pretrain_s": (span_s("harness.pretrain"), "s"),
        "harness.train_s": (span_s("harness.pretrain") + span_s("harness.finetune"), "s"),
        "harness.probe_s": (span_s("harness.probe"), "s"),
        "harness.gar_s": (span_s("harness.gar"), "s"),
        "harness.train_calls": (span_calls("harness.pretrain") + span_calls("harness.finetune"),
                                "count"),
        "harness.finetune_calls": (span_calls("harness.finetune"), "count"),
        "harness.stage_coverage": (coverage, "ratio"),
        "data.generate_records_s": (count_s("data.generate_records"), "s"),
        "data.write_dataset_s": (count_s("data.write_dataset"), "s"),
        "data.load_dataset_s": (count_s("data.load_dataset"), "s"),
        "data.load_dataset_calls": (count_calls("data.load_dataset"), "count"),
        "data.dataset_bytes": (dataset_bytes, "bytes"),
        "training.sample_batch_s": (count_s("training.sample_batch"), "s"),
        "training.prediction_loss_graph_s": (count_s("training.prediction_loss_graph"), "s"),
        "training.ga_loss_graph_s": (count_s("training.ga_loss_graph"), "s"),
        "training.optimizer_update_s": (count_s("training.optimizer_update"), "s"),
        "training.train_step_ms_p50": (_quantile_ms(steps, 0.50) if steps else 0.0, "ms"),
        "training.train_step_ms_p99": (_quantile_ms(steps, 0.99) if steps else 0.0, "ms"),
        "training.train_step_samples": (span_calls("training.train_step"), "count"),
        "training.ga_graphs_built": (graphs, "count"),
        "training.ga_useful_ratio": (extra.get("ga_useful", 0) / graphs if graphs else 0.0,
                                     "ratio"),
        "autograd.backward_s": (count_s("autograd.backward"), "s"),
        "autograd.backward_calls": (count_calls("autograd.backward"), "count"),
        "autograd.tape_nodes": (extra.get("tape_nodes", 0), "count"),
        "latent.pose_features_calls": (count_calls("latent.pose_features"), "count"),
        "latent.net_step_graph_calls": (count_calls("latent.net_step_graph"), "count"),
        "latent.net_step_s": (count_s("latent.net_step"), "s"),
        "latent.sample_trajectory_s": (count_s("latent.sample_trajectory"), "s"),
        "latent.decode_calls": (count_calls("latent.decode"), "count"),
        "models.rollout_s": (count_s("models.rollout"), "s"),
        "models.exact_step_calls": (count_calls("models.exact_step"), "count"),
        "models.perturbed_step_calls": (count_calls("models.perturbed_step"), "count"),
        "segments.make_compatibility_segment_s": (count_s("segments.make_compatibility_segment"),
                                                  "s"),
        "segments.make_inverse_segment_calls": (count_calls("segments.make_inverse_segment"),
                                                "count"),
        "se2.se2_compose_calls": (count_calls("se2.se2_compose"), "count"),
        "se2.state_distance_calls": (count_calls("se2.state_distance"), "count"),
        "metrics.probe_identity_s": (span_s("metrics.probe_identity"), "s"),
        "metrics.probe_inverse_s": (span_s("metrics.probe_inverse"), "s"),
        "metrics.probe_composition_s": (span_s("metrics.probe_composition"), "s"),
        "metrics.evaluate_gar_s": (span_s("metrics.evaluate_gar"), "s"),
        "metrics.gar_error_s": (count_s("metrics.gar_error"), "s"),
        "metrics.align_trajectory_s": (count_s("metrics.align_trajectory"), "s"),
        "metrics.gar_error_calls": (count_calls("metrics.gar_error"), "count"),
        "metrics.write_s": (count_s("metrics.write"), "s"),
    }


def check_reference(workload: str, got: list, log: StageLog, problems: list[str]) -> str:
    """Compare the first iteration's stage digests with the stored default-seed values.

    A mismatching call is marked failed; a missing reference or a
    different number of calls is a run-level problem.
    """
    import workloads as wl

    try:
        with open(REFERENCE) as f:
            expected = json.load(f)[workload]
    except (OSError, KeyError):
        problems.append(f"no reference values for {workload} in {REFERENCE.name}")
        return "missing"
    if len(expected) != len(got):
        problems.append(f"{len(got)} stage calls, reference has {len(expected)}")
    mismatches = [i for i, (exp, g) in enumerate(zip(expected, got))
                  if exp[0] != g[0] or not wl.digests_match(exp[1], g[1])]
    for i in mismatches:
        log.calls[i]["problems"].append(f"output differs from {REFERENCE.name}")
    if mismatches or len(expected) != len(got):
        return f"MISMATCH at stage calls {mismatches}"
    return f"match within rtol {wl.REFERENCE_RTOL:g} + atol {wl.REFERENCE_ATOL:g}"


def _dataset_bytes(workdir: Path) -> int:
    data_dir = next(iter(sorted(workdir.rglob("dataset"))), None)
    if data_dir is None:
        return 0
    return sum(p.stat().st_size for p in data_dir.iterdir() if p.is_file())


def _last_untraced_wall(args) -> float | None:
    if not RESULTS.is_file():
        return None
    wall = None
    with open(RESULTS) as f:
        for line in f:
            rec = json.loads(line)
            if (rec["workload"], rec["seed"], rec["scale"], rec["trace"]) == (
                    args.workload, args.seed, args.scale, 0):
                wall = rec["wall_s"]
    return wall


# -- main ----------------------------------------------------------------------


def timed_phase(args, setup: dict, workdir: Path, log: StageLog, sampler) -> dict:
    """Repeat the timed command(s) until --seconds have passed."""
    import workloads as wl

    out = {"windows": [], "hashes": [], "digests": [], "rows": None, "error": None}
    sampler.start()
    # Kernel samples while the program is idle, to compare with those taken
    # while it runs (see the drift line in run()).
    idle_start = perf_counter()
    time.sleep(IDLE_CALIBRATION_S)
    out["idle"] = (idle_start, perf_counter())
    start = perf_counter()
    try:
        while True:
            out_dir = workdir / f"iter{len(out['windows'])}"
            cfg = wl.make_config(args.workload, args.seed, str(out_dir), args.scale)
            first_call = len(log.calls)
            t0 = perf_counter()
            out["rows"] = wl.run_timed(args.workload, cfg, setup)
            t1 = perf_counter()
            out["windows"].append((t0, t1))
            out["hashes"].append(wl.metric_file_hashes(out_dir))
            out["digests"].append([(c["stage"], c["digest"]) for c in log.calls[first_call:]])
            if t1 - start >= args.seconds:
                break
    except Exception as exc:  # the program failed: report it as a result
        out["error"] = f"iteration {len(out['windows'])} raised {type(exc).__name__}: {exc}"
    finally:
        sampler.stop()
    return out


def run(args) -> tuple[dict, list[str], int]:
    """Run one benchmark pass; returns (result, report lines, exit code)."""
    import workloads as wl
    from contention import REFERENCE_KERNEL_S, Sampler, corrected
    from gawm.harness import file_sha256
    from tracer import Tracer, merge_summaries

    workdir = OUT / f"run-{args.workload}-{args.seed}-{args.scale}-{args.trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    problems: list[str] = []
    try:
        setup_times, setup_infos = run_setup(args, workdir)
        setup = setup_infos[0]
        if len({i["config_hash"] for i in setup_infos}) != 1:
            problems.append("set-up passes resolved different configs")
        if "checkpoint" in setup and len({file_sha256(i["checkpoint"]) for i in setup_infos}) != 1:
            problems.append("set-up passes trained different checkpoints")

        log, tracer, sampler = StageLog(), Tracer(), Sampler()
        install_stages(tracer, log)
        if args.trace:
            install_layers(tracer)
        try:
            timed = timed_phase(args, setup, workdir, log, sampler)
        finally:
            tracer.remove()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if timed["error"]:
            problems.append(timed["error"])
        if any(h != timed["hashes"][0] for h in timed["hashes"][1:]):
            problems.append("repeated iterations wrote different metric files")
        reference_status = "not checked (non-default seed or scale)"
        if args.seed == wl.DEFAULT_SEED and args.scale == "full" and timed["digests"]:
            reference_status = check_reference(args.workload, timed["digests"][0], log, problems)
        attempted = len(log.calls)
        failed = sum(1 for c in log.calls if c["problems"])
        for c in log.calls:
            problems += [f"{c['stage']}: {p}" for p in c["problems"]]

        # Contention correction: every interval is rescaled by the
        # calibration samples taken inside it (see contention.py).
        fallback = statistics.fmean(sampler.durations) if sampler.durations else REFERENCE_KERNEL_S

        def fix(seconds, window):
            return corrected(seconds, window, fallback)

        # The correction divides out whatever slows the kernel, including
        # slowdowns the program causes on its own thread. A kernel that is
        # slower during the run than while the program idles shows that.
        idle = sampler.window(*timed["idle"])
        drift = fallback / idle["mean_s"] if idle["n"] else None

        walls = [fix(b - a, sampler.window(a, b)) for a, b in timed["windows"]]
        raw_walls = [b - a for a, b in timed["windows"]]
        for c in log.calls:
            c["corrected_s"] = fix(c["seconds"], sampler.window(c["start"], c["end"]))
        setups = [fix(t, i["calibration"]) for t, i in zip(setup_times, setup_infos)]
        setup_train = [
            i["train_steps"] / fix(i["train_end"] - i["train_start"], i["train_calibration"])
            for i in setup_infos if "train_start" in i
        ]

        def rate(stages):
            calls = [c for c in log.calls if c["stage"] in stages]
            seconds = sum(c["corrected_s"] for c in calls)
            return sum(c["work"] for c in calls) / seconds if seconds > 0 else None

        end_to_end = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls) if walls else None,
            "train_steps_per_s": (statistics.median(setup_train) if setup_train
                                  else rate(("pretrain", "finetune"))),
            "peak_rss_mb": peak_rss_mb,
        }
        # Evaluation throughputs: printed on every run, but not bounded,
        # because the ablate workloads spend under a second per iteration
        # in probe and GAR (score-zoo's wall_s bounds evaluation instead).
        throughputs = {"probe_instances_per_s": rate(("probe",)),
                       "gar_rollouts_per_s": rate(("gar",))}
        # Stage spans leave out before-hook time, so the wall time they
        # are held against leaves it out too.
        coverage = (sum(c["seconds"] for c in log.calls) / (sum(raw_walls) - tracer.hook_s)
                    if walls else 0.0)
        summary = tracer.summary()
        n_iter = max(len(walls), 1)
        per_layer = {}
        if args.trace:
            per_iter = _scaled(summary, 1.0 / n_iter)
            per_iter["train_step_s"] = summary["train_step_s"]
            if "trace" in setup:
                per_iter = merge_summaries(per_iter, setup["trace"])
            per_layer = layer_metrics(per_iter, coverage, _dataset_bytes(workdir))
            per_layer.update({f"harness.{k}": (v, "1/s") for k, v in throughputs.items()})

        info = machine_info(args.seed)
        error_rate = failed / attempted if attempted else 1.0
        lines = [
            f"workload {args.workload} seed {args.seed} scale {args.scale} trace {args.trace} "
            f"iterations {len(walls)} (closed loop, 1 caller, threads=1)",
            "machine " + " ".join(f"{k}={v!r}" for k, v in info.items()),
            f"setup_s passes {_fmt(setups)} (raw {_fmt(setup_times)})",
            f"wall_s iterations {_fmt(walls)} (raw {_fmt(raw_walls)})",
            f"calibration kernel mean {fallback * 1e6:.2f} us over {len(sampler.durations)} "
            f"samples (reference {REFERENCE_KERNEL_S * 1e6:g} us)",
            f"wall_s_raw_median {statistics.median(raw_walls) if raw_walls else None!r} s "
            "(uncorrected, not bounded)",
        ]
        if drift is not None:
            flag = " FLAGGED" if drift > DRIFT_FLAG else ""
            lines.append(f"calibration_drift {drift:.3f}{flag} (in-run / idle kernel mean, idle "
                         f"{idle['mean_s'] * 1e6:.2f} us over {idle['n']} samples; flagged "
                         f"above {DRIFT_FLAG:g})")
        if args.trace:
            untraced = _last_untraced_wall(args)
            if walls and untraced is not None:
                lines.append(f"trace_overhead_s {statistics.median(walls) - untraced:.4f} "
                             f"(traced wall_s minus last untraced wall_s {untraced:.4f})")
            else:
                lines.append("trace_overhead_s n/a (no untraced run of this workload and seed "
                             "recorded yet)")
            for name in STAGE_SPANS:
                agg = summary["spans"].get(name)
                if agg:
                    lines.append(f"span {name} calls {agg['calls'] / n_iter:g} total "
                                 f"{agg['total_s'] / n_iter:.4f} s self "
                                 f"{agg['self_s'] / n_iter:.4f} s (raw, per iteration)")
        lines.append(f"stage_coverage {coverage:.4f} (harness stage spans / raw wall)")
        lines += [f"throughput {k} {v!r} 1/s (not bounded)" for k, v in throughputs.items()
                  if v is not None]
        lines.append(f"error_rate {error_rate:g} ({failed} failed / {attempted} stage calls)")
        lines.append(f"reference {reference_status}")
        crit = {}
        if timed["rows"] is not None and args.workload == "ablate-constraints":
            crit = wl.criteria(timed["rows"])
            lines += [f"{k} {'holds' if v else 'fails'} (recorded, not a failure)"
                      for k, v in crit.items()]
        hashes = dict(timed["hashes"][0]) if timed["hashes"] else {}
        hashes.update({f"setup/{k}": v for k, v in
                       wl.metric_file_hashes(workdir / "setup0").items()})
        lines += [f"sha256 {path} {digest}" for path, digest in sorted(hashes.items())]
        lines += [f"problem {p}" for p in problems]

        if args.trace:
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
        else:
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                       for k, v in end_to_end.items() if v is not None}
        lines += [f"{k} {m['value']!r} {m['unit']}" for k, m in metrics.items()]

        correct = not problems and failed == 0
        complete = len(metrics) == (len(per_layer) if args.trace else len(END_TO_END_UNITS))
        result = {"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                  "metrics": metrics}
        record = {"workload": args.workload, "seed": args.seed, "scale": args.scale,
                  "trace": args.trace, "time": time.time(), "iterations": len(walls),
                  "wall_s": end_to_end["wall_s"], "raw_wall_s": raw_walls,
                  "setup_s": end_to_end["setup_s"], "raw_setup_s": setup_times,
                  "correct": correct, "error_rate": error_rate, "machine": info,
                  "criteria": crit, "metric_sha256": hashes, "problems": problems,
                  "metrics": metrics, "coverage": coverage,
                  "calibration": {"mean_s": fallback, "n": len(sampler.durations),
                                  "idle_mean_s": idle["mean_s"], "idle_n": idle["n"],
                                  "drift": drift},
                  "digests": timed["digests"][0] if timed["digests"] else [],
                  "calls": [{k: c[k] for k in ("stage", "start", "end", "seconds",
                                                "corrected_s", "work")} for c in log.calls],
                  "iterations_at": timed["windows"]}
        OUT.mkdir(parents=True, exist_ok=True)
        with open(RESULTS, "a") as f:
            f.write(json.dumps(record) + "\n")
        if args.trace:
            # Per-step spans are summarised above; keeping them would make
            # each trace file megabytes long.
            steps = "training.train_step"
            with open(OUT / f"trace-{args.workload}-{args.seed}-{args.scale}.json", "w") as f:
                json.dump({"summary": dict(summary, train_step_s=None),
                           "setup": dict(setup["trace"], train_step_s=None)
                           if "trace" in setup else None,
                           "spans": [s for s in tracer.spans if s[0] != steps]}, f)
        return result, lines, 0 if complete else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _fmt(values) -> list[float]:
    return [round(v, 4) for v in values]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=12)
    p.add_argument("--seconds", type=float, default=18.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny: a seconds-long config for the benchmark's self-test")
    p.add_argument("--prepare", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread, set before numpy loads and inherited by the set-up
    # processes: a helper thread on the sibling vCPU would slow the
    # calibration kernel too, and the contention correction would then
    # divide the program's own slowdown out.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(BENCH_DIR))
    if args.prepare:
        from contention import Sampler

        sampler = Sampler()
        sampler.start()
        ensure_source()
        prepare_main(args, sampler)
        return 0
    ensure_source()
    result, lines, code = run(args)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
