"""Smoke test of the benchmark: every workload, untraced and traced, at tiny
sizes (sl3/so4/gl3, spin and fiber n <= 5, one verify trial), so the
benchmark cannot rot.  Runs in seconds: python -m pytest bench/test_smoke.py
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3", "--seconds", "0.2"]
    cmd += ["--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1
    if workload != "fiber":
        assert line["failed"] == 0
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert list(line["metrics"]) == names
    for name in names:
        value = line["metrics"][name]["value"]
        assert isinstance(value, (int, float)) and value == value, name
    if trace:
        assert line["metrics"]["trace.coverage_mismatches"]["value"] == 0

    full = json.loads((BENCH / "out" / f"{workload}-seed3-trace{trace}-smoke.json").read_text())
    assert full["details"]["self_check_missed"] == []
    for key in ("python", "numpy", "blas", "blas_version", "threads", "cpu_count", "affinity", "git_commit", "seed"):
        assert key in full["env"], key
    assert set(full["env"]["threads"].values()) == {"1"}


def _load_ops():
    saved = list(sys.path)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        spec = importlib.util.spec_from_file_location("bench_ops", BENCH / "ops.py")
        ops = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(ops)
    finally:
        sys.path[:] = saved
    return ops


def test_perturbed_cayley_image_counts_as_failed():
    ops = _load_ops()
    wl = ops.Project(smoke=True)
    wl.setup()
    wl.draw(0)
    checked = 0
    for label, fn, args, meta in wl.pass_ops(0):
        if label == "cayley" and meta[0] == "gl3":
            out = fn(*args)
            assert wl.check(label, args, out, meta)
            assert not wl.check(label, args, wl.perturb(label, out), meta)
            checked += 1
    assert checked == len(ops.PROJECT_KINDS)


def test_fiber_excuses_only_the_known_defect():
    ops = _load_ops()
    wl = ops.Fiber(smoke=True)
    wl.draw(0)
    checked = 0
    for label, fn, args, n in wl.pass_ops(0):
        try:
            out = fn(*args)
        except ops.errors.DegenerateInput:
            continue
        if not wl.check(label, args, out, n):
            continue
        assert not wl.known_defect(label, args, out, None, n)
        wrong_count = ops.degree.FiberReport(**vars(out))
        wrong_count.count += 1
        assert wl.known_defect(label, args, wrong_count, None, n)
        off_fiber = wl.perturb(label, out)
        if off_fiber is None:
            continue
        assert not wl.check(label, args, off_fiber, n)
        assert not wl.known_defect(label, args, off_fiber, None, n)
        checked += 1
    assert checked > 0
    assert wl.known_defect("sl", (3, None), None, ops.errors.DegenerateInput("scale"), 3)
    assert not wl.known_defect("sl", (3, None), None, TypeError("bug"), 3)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "spin", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
