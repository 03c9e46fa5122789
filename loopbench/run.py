"""Benchmark of the loopbundle library, run from outside it.

    python3 loopbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the root of a checkout: the library is imported from ``src/``
next to this directory, never from an installed copy. One process, one
thread, BLAS pinned to one thread. Each point's library calls are timed
in process CPU time; the benchmark's own checks run outside that time.
Every time it reports is scaled to a reference host speed by the
calibration in ``hostspeed.py``, timed after each point. ``--trace 0``
prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced rounds,
and prints the per-layer metrics with the tracing overhead. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--workload all`` runs every
workload in its own process, one after another.
"""

import os
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("LOOPBUNDLE_SEED", None)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402

SETUP_REPEATS = 9
# Calibration calls timed before each set-up repeat.
SETUP_CALS = 5
MIN_POINTS = 100
LIBRARY_MODULES = ("core", "zoo", "dual", "tangent", "reconstruct", "bundle",
                   "gauge", "cli")
LIBRARY_MODULE_NAMES = ["loopbundle"] + ["loopbundle." + m for m in LIBRARY_MODULES]
POINT_MS_KINDS = ("rz", "qc", "qh2", "qhr-k1", "qsu2")
MAX_REASONS = 5


def import_library():
    """Import loopbundle from the checkout's ``src``; exit with status 1 if absent."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        lb, *_ = [importlib.import_module(m) for m in LIBRARY_MODULE_NAMES]
    except ImportError as exc:
        sys.exit(f"error: cannot import loopbundle from {src}: {exc}")
    if not Path(lb.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"error: loopbundle imported from {lb.__file__}, not {src}")
    return lb


class Phase:
    """Point times and outcomes of one measured stretch of whole rounds."""

    def __init__(self):
        self.times = []
        self.cal_times = []
        self.kinds = []
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def scaled_times(self):
        """Point times at the reference host speed."""
        factors = hostspeed.host_factors(self.cal_times)
        return [t * f for t, f in zip(self.times, factors)]

    def per_kind_median(self, kind, times):
        ts = [t for t, k in zip(times, self.kinds) if k == kind]
        return statistics.median(ts) if ts else 0.0


def scaled_median(step):
    """Median over ``SETUP_REPEATS`` calls of ``step()``, which returns its
    own duration, each scaled to the reference host speed by the median of
    the calibrations timed just before it."""
    scaled = []
    for _ in range(SETUP_REPEATS):
        cal = statistics.median(hostspeed.time_kernel() for _ in range(SETUP_CALS))
        scaled.append(step() * hostspeed.REFERENCE_S / cal)
    return statistics.median(scaled)


def import_seconds():
    """Median time to import numpy and every library module, each time in a
    fresh interpreter, since a module is imported only once per process."""
    probe = ("import importlib, sys, time; sys.path.insert(0, sys.argv[1]); "
             "t = time.process_time(); import numpy; "
             f"[importlib.import_module(m) for m in {LIBRARY_MODULE_NAMES!r}]; "
             "print(time.process_time() - t)")

    def step():
        proc = subprocess.run([sys.executable, "-c", probe, str(ROOT / "src")],
                              capture_output=True, text=True, check=True)
        return float(proc.stdout)

    return scaled_median(step)


def run_round(workload, ctx, rng, phase, tracer=None):
    """One point per round entry: time the library calls, then check them."""
    from workloads import PointCheck

    for kind in workload.round:
        inp = workload.make_point(kind, rng)
        failure = None
        if tracer is not None:
            tracer.enabled = True
        t0 = hostspeed.clock()
        try:
            out = workload.compute(ctx, kind, inp)
        except Exception as exc:  # the point fails; the run goes on
            failure = f"library raised {type(exc).__name__}: {exc}"
        t1 = hostspeed.clock()
        if tracer is not None:
            tracer.enabled = False
        phase.cal_times.append(hostspeed.time_kernel())
        if failure is None:
            chk = PointCheck()
            try:
                workload.check(ctx, kind, inp, out, chk)
                failure = chk.failure
            except Exception as exc:
                failure = f"check raised {type(exc).__name__}: {exc}"
        phase.attempted += 1
        phase.times.append(t1 - t0)
        phase.kinds.append(kind)
        if failure is not None:
            phase.failed += 1
            if len(phase.reasons) < MAX_REASONS:
                phase.reasons.append(f"{kind}: {failure}")


def measure(workload, ctx, seed, seconds, min_points=0):
    """Run whole rounds until ``seconds`` have passed and at least
    ``min_points`` points ran."""
    rng = np.random.default_rng(seed)
    phase = Phase()
    deadline = time.perf_counter() + seconds
    while (not phase.attempted or time.perf_counter() < deadline
           or phase.attempted < min_points):
        run_round(workload, ctx, rng, phase)
    return phase


def measure_traced(workload, lb, ctx, seed, seconds):
    """Alternate untraced and traced rounds until ``seconds`` have passed.

    Both halves replay the same inputs, and alternating round by round
    keeps a drift in host speed out of the tracing overhead. The first
    traced round is the counting window for the exact counters.
    """
    from tracer import Tracer

    tracer = Tracer(lb)
    tracer.install()
    try:
        traced_ctx = workload.setup(lb)
    finally:
        tracer.uninstall()
    rngs = np.random.default_rng(seed), np.random.default_rng(seed)
    untraced, traced = Phase(), Phase()
    deadline = time.perf_counter() + seconds
    while not traced.attempted or time.perf_counter() < deadline:
        run_round(workload, ctx, rngs[0], untraced)
        tracer.install()
        tracer.counting = tracer.recording = not traced.attempted
        try:
            run_round(workload, traced_ctx, rngs[1], traced, tracer)
        finally:
            tracer.counting = tracer.recording = False
            tracer.uninstall()
    return untraced, traced, tracer


def percentile_ms(times, q):
    return float(1e3 * np.percentile(times, q))


def end_to_end_metrics(phase, round_kinds, setup_s):
    # Throughput of a round at each class's median point time: a point
    # that the calibration around it did not fully correct moves a mean,
    # not a median.
    times = phase.scaled_times()
    round_s = sum(phase.per_kind_median(kind, times) for kind in round_kinds)
    return {
        "setup_s": (setup_s, "s"),
        "points_per_s": (len(round_kinds) / round_s, "points/s"),
        "point_p50_ms": (percentile_ms(times, 50), "ms"),
        "point_p90_ms": (percentile_ms(times, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }


def per_layer_metrics(untraced, traced, tr):
    from tracer import FRAME_FUNC, STRUCTURE_FUNCS

    n = len(traced.times)
    c = tr.counts
    frame_calls = c[FRAME_FUNC]
    m = {
        "zoo.calls": (tr.extra["zoo.calls"], "count"),
        "zoo.dual_calls": (tr.extra["zoo.dual_calls"], "count"),
        "zoo.self_s": (tr.layer_self("zoo") / n, "s"),
        "core.calls": (tr.layer_calls("core"), "count"),
        "core.self_s": (tr.layer_self("core") / n, "s"),
        "bundle.calls": (tr.layer_calls("bundle"), "count"),
        "bundle.self_s": (tr.layer_self("bundle") / n, "s"),
        "dual.nodes": (tr.extra["dual.nodes"], "count"),
        "dual.jacobian_calls": (c["dual.jacobian"] + c["dual.dirderiv"], "count"),
        "dual.jacobian_max_depth": (tr.max_depth, "count"),
        "dual.jacobian_s": (tr.incl_s["dual.derivative_passes"] / n, "s"),
        "dual.gsolve_calls": (c["dual.gsolve"], "count"),
        "dual.gsolve_object_calls": (tr.extra["dual.gsolve_object_calls"], "count"),
        "dual.gsolve_self_s": (tr.self_s["dual.gsolve"] / n, "s"),
        "tangent.frame_calls": (frame_calls, "count"),
        "tangent.frame_distinct_ratio": (
            len(tr.frame_keys) / frame_calls if frame_calls else 0.0, "ratio"),
        "tangent.structure_calls": (sum(c[f] for f in STRUCTURE_FUNCS), "count"),
        "tangent.structure_self_s": (sum(tr.self_s[f] for f in STRUCTURE_FUNCS) / n, "s"),
        "tangent.jacobi_self_s": (tr.self_s["tangent.jacobi_residual"] / n, "s"),
        "reconstruct.rk4_steps": (tr.extra["reconstruct.rk4_steps"], "count"),
        "reconstruct.velocity_calls": (c["reconstruct._velocity"], "count"),
        "reconstruct.velocity_self_s": (tr.self_s["reconstruct._velocity"] / n, "s"),
        "reconstruct.step_ms": (
            1e3 * tr.incl_s["reconstruct.reconstruct_product"] / tr.steps_all
            if tr.steps_all else 0.0, "ms"),
        "gauge.curvature_calls": (c["gauge.curvature"] + c["gauge.curvature_tensor"],
                                  "count"),
        "gauge.omega_coeffs_calls": (c["gauge.omega_coeffs"], "count"),
        "gauge.commutator_self_s": (tr.group_self["commutator"] / n, "s"),
        "gauge.structure_eq_self_s": (tr.group_self["structure_eq"] / n, "s"),
        "gauge.bianchi_self_s": (tr.group_self["bianchi"] / n, "s"),
    }
    untraced_times = untraced.scaled_times()
    for kind in POINT_MS_KINDS:
        m["point_ms." + kind] = (1e3 * untraced.per_kind_median(kind, untraced_times),
                                 "ms")
    mean_untraced = sum(untraced.times) / len(untraced.times)
    mean_traced = sum(traced.times) / n
    m["trace.overhead_pct"] = (100.0 * (mean_traced / mean_untraced - 1.0), "%")
    return m


def run_workload(args):
    lb = import_library()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    ctx = None

    def setup_step():
        nonlocal ctx
        t0 = hostspeed.clock()
        ctx = workload.setup(lb)
        return hostspeed.clock() - t0

    setup_s = import_seconds() + scaled_median(setup_step)

    if not args.trace:
        phase = measure(workload, ctx, args.seed, args.seconds, min_points=MIN_POINTS)
        phases = [phase]
        metrics = end_to_end_metrics(phase, workload.round, setup_s)
    else:
        untraced, traced, tracer = measure_traced(workload, lb, ctx, args.seed,
                                                  args.seconds)
        phases = [untraced, traced]
        metrics = per_layer_metrics(untraced, traced, tracer)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        print(f"spans of the first traced round: {spans_path.relative_to(ROOT)} "
              f"({len(tracer.spans)} written, {tracer.dropped_spans} dropped)")

    run_checks = workload.run_checks(ctx)
    correct = all(ok for _, _, ok in run_checks)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    for label, value, ok in run_checks:
        print(f"{args.workload}  check {label} = {value:.4f}  {'ok' if ok else 'FAILED'}")
    for phase in phases:
        for reason in phase.reasons:
            print(f"{args.workload}  failed point  {reason}", file=sys.stderr)
    cals = [c for p in phases for c in p.cal_times]
    print(f"{args.workload}  host calibration median = "
          f"{1e3 * statistics.median(cals):.4g} ms "
          f"(reference {1e3 * hostspeed.REFERENCE_S:.4g} ms)")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}  {name} = {value:.6g} {unit}")
    print(f"{args.workload}  points attempted = {attempted}, failed = {failed}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args, names):
    """Each workload in its own process, so peak memory is per workload."""
    results = {}
    status = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n" if lines else "")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
