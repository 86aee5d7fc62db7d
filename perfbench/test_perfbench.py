"""Self-test of the benchmark at tiny sizes: metrics, units, and a live replay gate."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def _run(workdir: Path, workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.1", "--trace", str(trace), "--tiny", "--workdir", str(workdir)],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


@pytest.mark.parametrize("workload", ["toy", "wide"])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_with_unit(tmp_path, workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    r = _run(tmp_path, workload, trace)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    # a wrapper that missed its binding would leave its count at zero
    assert all(v["value"] > 0 for k, v in result["metrics"].items() if k.endswith(".calls"))
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines), name
    if trace:
        _check_span_tree(tmp_path / f"{workload}-5-tiny" / "trace_spans.npz")


def _check_span_tree(path: Path) -> None:
    """Every span lies inside its parent, and a parent is not shorter than its children together."""
    import numpy as np

    spans = np.load(path)
    parent, start, end = spans["parent"], spans["start_ns"], spans["end_ns"]
    assert len(start) == len(end) == len(parent) == len(spans["name_id"]) > 0
    child = parent >= 0
    assert np.all(start[parent[child]] <= start[child]) and np.all(end[child] <= end[parent[child]])
    covered = np.zeros(len(start), dtype=np.int64)
    np.add.at(covered, parent[child], (end - start)[child])
    assert np.all(covered <= end - start)


def test_corrupted_stored_sample_fails_replay(tmp_path):
    from rfpnapo.cli import main

    wl = workloads.TINY["toy"]
    out = tmp_path / "out"
    out.mkdir()
    pretrain, gen_pairs = workloads.stage_argv(wl, workloads.set_up(wl, 5, tmp_path / "inputs"), out)[:2]
    assert main(pretrain[1]) == 0 and main(gen_pairs[1]) == 0
    pairs, ref = out / "pairs.txt", out / "ref.ckpt"
    assert workloads.replay_check(pairs, ref) == (True, "max replay deviation 0.0")

    lines = pairs.read_text().splitlines()
    fields = lines[1].split(" | ")
    x0w = fields[1].split()
    x0w[0] = f"{float(x0w[0]) + 1e-9:.17g}"
    fields[1] = " ".join(x0w)
    lines[1] = " | ".join(fields)
    pairs.write_text("\n".join(lines) + "\n")
    ok, detail = workloads.replay_check(pairs, ref)
    assert not ok, detail


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    r = _run(tmp_path / "work", "toy", 0, cwd=tmp_path)
    assert r.returncode != 0
    assert r.stdout == ""
