"""Self-tests of the benchmark.  Run from the checkout root:

    python3 -m pytest -q perfbench/test_bench.py

They take a few minutes: every workload is run once untraced (on the
held-out seed) and once traced.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from scipy import integrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
HELD_OUT_SEED = 9001  # kept out of tuning; later claims are checked on it too


@pytest.fixture
def workdir():
    run.WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *map(str, args)],
                          cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def test_workload_names_match_benchmark_json():
    names = [w["name"] for w in BENCH["workloads"]]
    assert tuple(names) == run.WORKLOADS
    assert sorted(names) == sorted(workloads._SETUP)


def test_tracer_restores_every_attribute():
    pairs = tracing.patched_attributes()
    before = {(id(owner), attr): getattr(owner, attr) for owner, attr in pairs}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        changed = [a for o, a in pairs if getattr(o, a) is not before[(id(o), a)]]
        assert "get_model" in changed and "einsum" in changed and "splu" in changed
    finally:
        tracer.restore()
    after = {(id(owner), attr): getattr(owner, attr) for owner, attr in pairs}
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_region_volume_closed_form():
    for lam in workloads.LAM_VALUES:
        L, M = lam * lam, workloads.MU_MAX

        def area(x):
            w = min(M, L / x)
            return w * w if w * w <= L else L * (1.0 + math.log(w * w / L))

        exact, _ = integrate.quad(area, 0.0, M, points=[L / M, math.sqrt(L)],
                                  epsabs=1e-13, epsrel=1e-13)
        assert workloads.lambda_region_volume(L) == pytest.approx(exact, rel=1e-10)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_same_inputs(name, workdir):
    def inputs(seed, sub):
        wl = workloads.setup(name, seed, workdir / sub)
        return {p.name: p.read_bytes() for p in wl.inputs}

    first = inputs(1, "a")
    assert inputs(1, "b") == first
    assert inputs(2, "c") != first


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1, proc.stdout
    return last


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(name):
    last = _result(_bench("--workload", name, "--seed", HELD_OUT_SEED,
                          "--seconds", 1, "--trace", 0))
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in last["metrics"].values())


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(name):
    # failed == 0 also means every traced pass wrote the same report bytes
    # as the untraced warm-up pass of the same process
    last = _result(_bench("--workload", name, "--seed", 1, "--seconds", 1,
                          "--trace", 1))
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected


def test_refuses_to_run_without_sources(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(HERE, workdir / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "algebra", "--seed", 1, "--seconds", 1,
                  "--trace", 0, cwd=workdir)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
