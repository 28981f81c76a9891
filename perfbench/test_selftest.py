"""Self-test of the benchmark at a seconds-long config.

    python3 -m pytest perfbench -q

Checks that every metric named in BENCHMARK.json is printed with its
unit, that the traced run takes all its wrappers off again, and that
tracing does not change what the program writes.
"""

import json
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from run import WORKLOADS  # noqa: E402

with open(ROOT / "BENCHMARK.json") as _f:
    SPEC = json.load(_f)


@lru_cache(maxsize=None)
def tiny_run(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "12",
         "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_printed_with_its_unit(workload, trace):
    lines, result = tiny_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float))
        assert any(line.startswith(f"{m['name']} ") and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]
    if trace:
        # the harness stage spans account for (nearly) all of wall_s
        assert result["metrics"]["harness.stage_coverage"]["value"] > 0.9


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_does_not_change_metric_files(workload):
    def hashes(trace):
        lines, _ = tiny_run(workload, trace)
        return sorted(line for line in lines if line.startswith("sha256 "))

    untraced = hashes(0)
    assert any("gar.csv" in line for line in untraced)
    assert hashes(1) == untraced


def _gawm_attributes() -> dict:
    """Identity of every module attribute and class attribute in gawm."""
    snapshot = {}
    for name, module in list(sys.modules.items()):
        if name == "gawm" or name.startswith("gawm."):
            for attr, value in vars(module).items():
                snapshot[(name, attr)] = id(value)
                if isinstance(value, type) and value.__module__ == name:
                    for cattr, cvalue in vars(value).items():
                        snapshot[(name, attr, cattr)] = id(cvalue)
    return snapshot


def test_traced_run_removes_its_wrappers():
    run.ensure_source()
    import workloads  # noqa: F401  imports every gawm module the tracer patches

    before = _gawm_attributes()
    result, _lines, code = run.run(run.parse_args(
        ["--workload", "ablate-mode", "--seed", "12", "--seconds", "0", "--trace", "1",
         "--scale", "tiny"]))
    assert code == 0 and result["correct"]
    assert result["metrics"]["latent.pose_features_calls"]["value"] > 0
    assert _gawm_attributes() == before
