"""Tests of the benchmark itself: a wrong library must give failed points.

    python3 -m pytest -q loopbench/tests
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import run  # noqa: E402

lb = run.import_library()

from workloads import LOOP_SPECS, WORKLOADS  # noqa: E402


def one_round(name, ctx=None):
    """Measure exactly one round of a workload (the first round always runs)."""
    workload = WORKLOADS[name]()
    if ctx is None:
        ctx = workload.setup(lb)
    return run.measure(workload, ctx, seed=5, seconds=1e-9)


def replace_product(name, kind, product):
    workload = WORKLOADS[name]()
    ctx = workload.setup(lb)
    loop = ctx["loops"][kind]
    ctx["loops"][kind] = dataclasses.replace(loop, product=product(loop.product))
    return one_round(name, ctx)


def failed_kinds(phase):
    return sorted({reason.split(":")[0] for reason in phase.reasons})


@pytest.mark.parametrize("name", ["loop-algebra", "structure-jacobi"])
def test_unchanged_library_passes(name):
    phase = one_round(name)
    assert phase.attempted == len(WORKLOADS[name].round)
    assert phase.failed == 0, phase.reasons


@pytest.mark.parametrize("kind", sorted(LOOP_SPECS))
def test_perturbed_product_fails_its_points(kind):
    def perturbed(product):
        return lambda a, b: [v + 1e-7 for v in product(a, b)]

    phase = replace_product("loop-algebra", kind, perturbed)
    assert phase.failed == WORKLOADS["loop-algebra"].round.count(kind)
    assert failed_kinds(phase) == [kind]


@pytest.mark.parametrize("name,kind", [("loop-algebra", "qc"),
                                       ("loop-algebra", "qhr-k1"),
                                       ("structure-jacobi", "qh2"),
                                       ("structure-jacobi", "qhr-k1")])
def test_nan_product_fails_its_points(name, kind):
    def nan_product(product):
        return lambda a, b: [v * math.nan for v in product(a, b)]

    phase = replace_product(name, kind, nan_product)
    assert phase.failed == WORKLOADS[name].round.count(kind)
    assert failed_kinds(phase) == [kind]


@pytest.mark.parametrize("kind", sorted(WORKLOADS["structure-jacobi"].round))
@pytest.mark.parametrize("pair", [False, True])
def test_changed_structure_entry_fails_its_point(monkeypatch, kind, pair):
    """One entry changed, or an antisymmetric pair, so that the closed-form
    and finite-difference checks are what must catch it."""
    if pair and kind == "rz":
        pytest.skip("a 1-dimensional loop has no off-diagonal pair")
    original = lb.tangent.structure_tensor_raw
    name = lb.zoo.make_loop(LOOP_SPECS[kind]).name

    def changed(L, a):
        c = original(L, a)
        if L.name != name:
            return c
        c = c.copy()
        j = 1 if L.dim > 1 else 0
        c[0, 0, j] = c[0, 0, j] + 1e-3
        if pair:
            c[0, j, 0] = c[0, j, 0] - 1e-3
        return c

    monkeypatch.setattr(lb.tangent, "structure_tensor_raw", changed)
    phase = one_round("structure-jacobi")
    assert phase.failed == 1
    assert failed_kinds(phase) == [kind]


def test_host_scaling_cancels_host_speed_not_library_speed():
    """A host that runs everything twice as slow for a stretch leaves the
    scaled times as they were; a point that itself takes longer does not."""
    ref = hostspeed.REFERENCE_S
    cal = [ref] * 40 + [2 * ref] * 40
    times = [0.01] * 40 + [0.02] * 40
    steady = [t * f for t, f in zip(times, hostspeed.host_factors(cal))]
    assert steady == pytest.approx([0.01] * 80)
    cal[10] = 5 * ref  # one disturbed calibration moves no factor
    assert hostspeed.host_factors(cal)[10] == pytest.approx(1.0)
    slower = [t * f for t, f in zip([0.013] * 80, hostspeed.host_factors([ref] * 80))]
    assert slower == pytest.approx([0.013] * 80)


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "loopbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_command_prints_the_listed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(["--workload", "loop-algebra", "--seed", "3",
                     "--seconds", "0.2", "--trace", str(trace)])
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        listed = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == listed


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_for_a_seed(name):
    counts = []
    for _ in range(2):
        proc = _run(["--workload", name, "--seed", "9", "--seconds", "0.01",
                     "--trace", "1"])
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items()
                       if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_refuses_to_run_without_the_library():
    bare = BENCH / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "loopbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run(["--workload", "loop-algebra", "--seed", "1", "--seconds", "1",
                     "--trace", "0"], cwd=bare)
        assert proc.returncode != 0
        assert "{" not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
