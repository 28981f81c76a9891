"""The on-disk artifact format: atomic writes, exact writer bytes, the report."""

import ast
import json
import re
from pathlib import Path

import pytest

import gawm
from gawm import artifacts
from gawm.artifacts import write_csv, write_json, write_text
from gawm.harness import _write_manifest, cmd_report
from gawm.metrics import (
    GacReport,
    GarEntry,
    GarReport,
    ProbeResult,
    write_gac_csv,
    write_gac_gnuplot,
    write_gac_json,
    write_gac_summary_csv,
    write_gar_csv,
    write_gar_json,
)

GAC = GacReport(
    per_config=(
        ProbeResult("identity", 1, 1, 0.1 + 0.2, 0.25, 4, (6,)),
        ProbeResult("identity", 2, 3, 1e-17, 0.0, 8, (4, 8)),
        ProbeResult("inverse", 1, 3, 0.5, 0.125, 4, (4,)),
        ProbeResult("composition", 1, 2, 2.0 / 3.0, 1.5, 4, (5,)),
    ),
    delta_id=0.15000000000000002, delta_inv=0.5, delta_comp=2.0 / 3.0,
    std_id=0.2, std_inv=0.125, std_comp=1.5, e_gac=0.4388888888888889,
)
GAR = GarReport(n_rollouts=3, entries=(
    GarEntry(4, 0.1, 0.02, 0.30000000000000004, 0.0, 2),
    GarEntry(16, 1.25, 0.5, 2.5, 1e-05, 2),
), note="deterministic model: dispersion is zero")


def _old_target(tmp_path) -> Path:
    target = tmp_path / "out.json"
    target.write_bytes(b'{"old": true}\n')
    return target


def test_write_text_failing_midway_keeps_old_target(tmp_path):
    target = _old_target(tmp_path)
    with pytest.raises(TypeError):
        write_text(target, b"not text")  # fails inside the open temp file
    assert target.read_bytes() == b'{"old": true}\n'
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]


def test_write_failing_at_replace_keeps_old_target(tmp_path, monkeypatch):
    target = _old_target(tmp_path)

    def no_replace(src, dst):
        assert Path(src).read_text() == "[1, 2]\n"  # the temp file is complete
        raise OSError("disk full")

    monkeypatch.setattr(artifacts.os, "replace", no_replace)
    with pytest.raises(OSError, match="disk full"):
        write_json(target, [1, 2], indent=None)
    assert target.read_bytes() == b'{"old": true}\n'
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]


def test_write_csv_failing_row_keeps_old_target(tmp_path):
    target = _old_target(tmp_path)

    def rows():
        yield [1, 2.5]
        raise RuntimeError("row source failed")

    with pytest.raises(RuntimeError):
        write_csv(target, ["a", "b"], rows())
    assert target.read_bytes() == b'{"old": true}\n'
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]


def test_json_and_csv_formats(tmp_path):
    write_json(tmp_path / "a.json", {"b": [1, 0.1 + 0.2], "a": None})
    assert (tmp_path / "a.json").read_bytes() == (
        b'{\n  "a": null,\n  "b": [\n    1,\n    0.30000000000000004\n  ]\n}\n')
    write_json(tmp_path / "c.json", {"b": [1, 2.0], "a": "x"}, indent=None)
    assert (tmp_path / "c.json").read_bytes() == b'{"a": "x", "b": [1, 2.0]}\n'
    write_csv(tmp_path / "d.csv", ["s", "x"], [["a,b", 1e-17], ["c", 2.0 / 3.0]])
    assert (tmp_path / "d.csv").read_bytes() == (
        b's,x\r\n"a,b",1e-17\r\nc,0.6666666666666666\r\n')
    write_text(tmp_path / "e.txt", "one\r\ntwo\n")
    assert (tmp_path / "e.txt").read_bytes() == b"one\r\ntwo\n"


def test_report_writers_exact_bytes(tmp_path):
    write_gac_json(tmp_path / "gac.json", GAC, "drift")
    write_gac_csv(tmp_path / "gac.csv", GAC, "drift")
    write_gac_summary_csv(tmp_path / "gac_summary.csv", GAC, "drift")
    write_gac_gnuplot(tmp_path / "gac.dat", GAC)
    write_gar_json(tmp_path / "gar.json", GAR, "noise:0.02")
    write_gar_csv(tmp_path / "gar.csv", GAR, "noise:0.02")

    def probe(k, kind, l, mean, n, starts, std):
        return {"k": k, "kind": kind, "l": l, "mean": mean, "n_instances": n,
                "start_positions": starts, "std": std}

    gac_json = {
        "delta_comp": 0.6666666666666666, "delta_id": 0.15000000000000002,
        "delta_inv": 0.5, "e_gac": 0.4388888888888889, "model": "drift",
        "per_config": [
            probe(1, "identity", 1, 0.30000000000000004, 4, [6], 0.25),
            probe(2, "identity", 3, 1e-17, 8, [4, 8], 0.0),
            probe(1, "inverse", 3, 0.5, 4, [4], 0.125),
            probe(1, "composition", 2, 0.6666666666666666, 4, [5], 1.5),
        ],
        "std_comp": 1.5, "std_id": 0.2, "std_inv": 0.125,
    }
    assert (tmp_path / "gac.json").read_text() == json.dumps(gac_json, indent=2) + "\n"
    assert (tmp_path / "gac.json").read_bytes().startswith(
        b'{\n  "delta_comp": 0.6666666666666666,\n  "delta_id": 0.15000000000000002,\n')
    assert (tmp_path / "gac.csv").read_bytes() == (
        b"model,kind,k,l,mean,std\r\n"
        b"drift,identity,1,1,0.30000000000000004,0.25\r\n"
        b"drift,identity,2,3,1e-17,0.0\r\n"
        b"drift,inverse,1,3,0.5,0.125\r\n"
        b"drift,composition,1,2,0.6666666666666666,1.5\r\n")
    assert (tmp_path / "gac_summary.csv").read_bytes() == (
        b"model,delta_id,std_id,delta_inv,std_inv,delta_comp,std_comp,e_gac\r\n"
        b"drift,0.15000000000000002,0.2,0.5,0.125,0.6666666666666666,1.5,0.4388888888888889\r\n")
    assert (tmp_path / "gac.dat").read_bytes() == (
        b"# kind k l mean std\n"
        b"identity 1 1 0.30000000000000004 0.25\n"
        b"identity 2 3 1e-17 0.0\n"
        b"\n"
        b"inverse 1 3 0.5 0.125\n"
        b"\n"
        b"composition 1 2 0.6666666666666666 1.5\n"
        b"\n")
    assert (tmp_path / "gar.json").read_bytes() == (
        b'{\n  "entries": [\n'
        b'    {\n      "aligned_mean": 0.1,\n      "aligned_std": 0.02,\n      "horizon": 4,\n'
        b'      "n_sequences": 2,\n      "nonaligned_mean": 0.30000000000000004,\n'
        b'      "nonaligned_std": 0.0\n    },\n'
        b'    {\n      "aligned_mean": 1.25,\n      "aligned_std": 0.5,\n      "horizon": 16,\n'
        b'      "n_sequences": 2,\n      "nonaligned_mean": 2.5,\n'
        b'      "nonaligned_std": 1e-05\n    }\n  ],\n'
        b'  "model": "noise:0.02",\n  "n_rollouts": 3,\n'
        b'  "note": "deterministic model: dispersion is zero"\n}\n')
    assert (tmp_path / "gar.csv").read_bytes() == (
        b"model,horizon,n_rollouts,n_sequences,aligned_mean,aligned_std,"
        b"nonaligned_mean,nonaligned_std\r\n"
        b"noise:0.02,4,3,2,0.1,0.02,0.30000000000000004,0.0\r\n"
        b"noise:0.02,16,3,2,1.25,0.5,2.5,1e-05\r\n")


REPORT_HEAD = (
    "consistency (per model): delta_id delta_inv delta_comp e_gac\n"
    "  drift:0.01,0,0.005: 0.15 0.5 0.6667 0.4389\n"
    "  exact: 0.15 0.5 0.6667 0.4389\n"
    "dispersion (per model, horizon): aligned nonaligned\n"
    "  drift:0.01,0,0.005 T=4: 0.1 0.3\n"
    "  drift:0.01,0,0.005 T=16: 1.25 2.5\n"
    "  exact T=4: 0.1 0.3\n"
    "  exact T=16: 1.25 2.5\n"
)


def _vouch(run_dir, stage, *names):
    """A manifest in ``run_dir`` whose ``stage`` entry lists ``names`` there."""
    _write_manifest(run_dir, "hand-built", {stage: {"paths": [str(run_dir / n) for n in names]}})


@pytest.mark.parametrize("json_only", (False, True))
def test_report_full_text(tmp_path, json_only):
    for name, sub in (("drift:0.01,0,0.005", "drift"), ("exact", "exact")):
        d = tmp_path / "zoo" / sub
        d.mkdir(parents=True)
        write_gac_json(d / "gac_report.json", GAC, name)
        write_gar_json(d / "gar_report.json", GAR, name)
        _vouch(d, "eval", "gac_report.json", "gar_report.json")
        if not json_only:
            write_gac_summary_csv(d / "gac_summary.csv", GAC, name)
            write_gar_csv(d / "gar.csv", GAR, name)
    expected = REPORT_HEAD
    if not json_only:
        (tmp_path / "ablation_constraints.csv").write_text("label\n")
        _vouch(tmp_path, "ablate", "ablation_constraints.csv")
        expected += f"ablation table: {tmp_path / 'ablation_constraints.csv'}\n"
    assert cmd_report(tmp_path) == expected
    assert (tmp_path / "report.txt").read_text() == expected


def test_report_skips_and_names_the_metric_files_no_manifest_lists(tmp_path):
    # "listed" is a run directory moved after its run: its manifest lists
    # the old paths, and a file counts as listed by its name; "stale" has a
    # later run's manifest, "broken" one that is not JSON, and the table
    # beside them has none
    for sub in ("listed", "stale", "broken"):
        d = tmp_path / sub
        d.mkdir()
        write_gac_json(d / "gac_report.json", GAC, sub)
        write_gar_json(d / "gar_report.json", GAR, sub)
    _vouch(tmp_path / "listed", "eval", "gac_report.json", "gar_report.json")
    (tmp_path / "listed").rename(tmp_path / "moved")
    _vouch(tmp_path / "stale", "gen-data", "dataset")
    (tmp_path / "broken" / "manifest.json").write_text('{"stages": {"probe": {"paths": [')
    (tmp_path / "ablation_constraints.csv").write_text("label\n")
    skipped = [tmp_path / d / f for f in ("gac_report.json", "gar_report.json")
               for d in ("broken", "stale")] + [tmp_path / "ablation_constraints.csv"]
    expected = (
        "consistency (per model): delta_id delta_inv delta_comp e_gac\n"
        "  listed: 0.15 0.5 0.6667 0.4389\n"
        "dispersion (per model, horizon): aligned nonaligned\n"
        "  listed T=4: 0.1 0.3\n"
        "  listed T=16: 1.25 2.5\n"
    )
    expected += "".join(f"skipped, not in its directory's manifest: {p}\n" for p in skipped)
    assert cmd_report(tmp_path) == expected
    assert (tmp_path / "report.txt").read_text() == expected


def test_report_on_empty_directory(tmp_path):
    with pytest.raises(FileNotFoundError, match=f"^no metric files found under {re.escape(str(tmp_path))}$"):
        cmd_report(tmp_path)
    assert not (tmp_path / "report.txt").exists()


_WRITE_MODE_CHARS = set("wax+")


def _write_opens(source: str) -> list[int]:
    """Line numbers of ``open``/``.open`` calls whose mode may write, append or create."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            at = 1  # open(file, mode)
        elif isinstance(func, ast.Attribute) and func.attr == "open":
            at = 1 if isinstance(func.value, ast.Name) and func.value.id == "io" else 0  # Path.open(mode)
        else:
            continue
        mode = node.args[at] if len(node.args) > at else next(
            (kw.value for kw in node.keywords if kw.arg == "mode"), None)
        if mode is None:
            continue
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) \
                or _WRITE_MODE_CHARS & set(mode.value):
            lines.append(node.lineno)
    return lines


def test_write_open_detector():
    assert _write_opens('open(p, "w")\nopen(p, mode="a")\np.open("x")\nopen(p, m)\n'
                        'io.open(p, "r+")\n') == [1, 2, 3, 4, 5]
    assert _write_opens('open(p)\nopen(p, "rb")\np.open(mode="r")\nio.open(p, "r")\n') == []


def test_only_artifacts_opens_files_for_writing():
    package = Path(gawm.__file__).parent
    offenders = {
        path.name: _write_opens(path.read_text())
        for path in sorted(package.glob("*.py")) if path.name != "artifacts.py"
    }
    assert {name: lines for name, lines in offenders.items() if lines} == {}
