"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_perfbench.py -q
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import worker  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    out = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2",
                    "--trace", str(trace), "--size", "tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values())
        return
    layers = sum(v for k, v in values.items() if k.endswith(".self_s"))
    assert layers == pytest.approx(values["trace.op_wall_s"], rel=1e-9)
    if workload == "uniform-sigma":
        assert values["approx.local_error.calls"] == 0
        assert values["engine.trace.records"] == 0
    else:
        assert values["approx.local_error.per_bisection"] >= 2


def test_dropped_leaf_line_counts_as_failed_op(tmp_path, monkeypatch):
    real_main = worker.cli.main

    def main_then_corrupt(argv):
        rc = real_main(argv)
        if argv[0] == "run":
            mesh = Path(argv[argv.index("--mesh-out") + 1])
            lines = mesh.read_text().splitlines(keepends=True)
            mesh.write_text("".join(lines[:-1]))  # the last line is a leaf line
        return rc

    monkeypatch.setattr(worker.cli, "main", main_then_corrupt)
    wl = worker.AdaptExpbump(worker.SIZES["tiny"], 0, str(tmp_path))
    report = worker.run_rounds(wl, 0.0)
    refine, render = report["ops"]
    assert not refine["ok"] and "255 leaves, expected 256" in refine["reason"]
    assert not render["ok"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""
    assert not os.path.exists(tmp_path / ".perfbench_out")
