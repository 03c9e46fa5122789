"""The benchmark tracer (loopbench/tracer.py) looks up library functions
by name and patches ``Dual.__init__``; removing a name it needs, or a
``Dual`` slot it sets, breaks the benchmark, whose own tests are not
collected here.  ``Dual``, a class with the slots ``re``, ``du`` and
``lvl`` that no library code builds, and ``gsolve``, ``ginv``,
``gmatvec`` and ``gmatmul`` are kept for it, and
``reconstruct._velocity`` keeps its name, which the tracer wraps to
count the RK4 stage velocities.  Install it, trace a few calls and
uninstall it to catch that early; the counts it reads (passes, stage
velocities) are pinned for the routes that feed the benchmark's
per-layer metrics, and its ``dual.nodes`` reads 0: first derivatives are
complex steps, and no ``Dual`` is built."""

import importlib.util
from pathlib import Path

import loopbundle
from loopbundle import bundle, cli, core, dual, gauge, reconstruct, tangent, zoo  # noqa: F401

TRACER = Path(__file__).resolve().parents[1] / "loopbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("loopbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_finds_every_name_it_wraps():
    tracer = _load_tracer()
    init = dual.Dual.__init__
    product = core.product
    tr = tracer.Tracer(loopbundle)
    try:
        tr.install()
        assert core.product is not product
        # The second structure key names a deleted function: the benchmark
        # only sums its count, which reads 0.
        for name in (*tracer.GAUGE_GROUPS, tracer.FRAME_FUNC, tracer.STRUCTURE_FUNCS[0]):
            module, attr = name.split(".")
            assert callable(getattr(getattr(loopbundle, module), attr)), name
    finally:
        tr.uninstall()
    assert core.product is product
    assert dual.Dual.__init__ is init


def test_traced_calls_complete_and_count_dual_nodes():
    tr = _load_tracer().Tracer(loopbundle)
    try:
        tr.install()
        tr.counting = tr.enabled = True
        L = zoo.make_loop("qc")
        form = gauge.make_test_potential(L, 2, seed=3)
        f = lambda xs, ys: xs[0] * ys[1] + 0.3 * xs[1] * ys[0] * ys[0]
        assert gauge.commutator_residual(form, 0, 1, f, [0.2, -0.1], [0.1, 0.25]) < 1e-12
        assert tangent.left_frame_matrix(L, [0.1, 0.25]).shape == (2, 2)
    finally:
        tr.counting = tr.enabled = False
        tr.uninstall()
    assert tr.counts["gauge.commutator_residual"] == 1
    assert tr.counts["tangent.left_frame_matrix"] == 1
    assert tr.extra["dual.nodes"] == 0


def test_directional_routes_build_no_frames_or_solves():
    # The benchmark's per-layer counts (passes, solves, frames) follow the
    # library's routes; a route that builds a frame or solves one shows here.
    tr = _load_tracer().Tracer(loopbundle)
    steps = 16
    try:
        tr.install()
        tr.counting = tr.enabled = True
        L = zoo.make_loop("qc")
        reconstruct.reconstruct_product(L, [0.3, 0.2], [-0.4, 0.5], steps)
        reconstruct_nodes = tr.extra["dual.nodes"]
        form = gauge.make_test_potential(L, 2, seed=3)
        core_calls = tr.layer_calls("core")
        gauge.hor_field(form, [1.0, 0.5])([0.2, -0.1, 0.1, 0.25])
        core_calls = tr.layer_calls("core") - core_calls
    finally:
        tr.counting = tr.enabled = False
        tr.uninstall()
    assert tr.counts["dual.gsolve"] == 0
    assert tr.counts["dual.jacobian"] == 0
    assert tr.counts["tangent.left_frame_matrix"] == 0
    # One velocity per RK4 stage, four per step.
    assert tr.counts["reconstruct._velocity"] == 4 * steps
    # A velocity is a complex step of the product, not a ``dirderiv``; one
    # batched pass gives the phi-free factors at all 3 * steps stage
    # parameters.  The horizontal field makes one pass, d/ds (e + s A vx).y.
    assert tr.counts["dual.dirderiv"] == 1 + 1
    # That pass runs the raw product: no checked core wrapper inside it.
    assert core_calls == 0
    # The batched factor pass runs on numpy complex arrays and the
    # velocities on Python complex numbers: no ``Dual`` is built.
    assert reconstruct_nodes == 0


def test_qhr_ad_differential_dual_nodes():
    # The right division is a closed form, so the four Jacobian columns
    # solve nothing; each is a complex step, so no ``Dual`` is built.
    tr = _load_tracer().Tracer(loopbundle)
    try:
        tr.install()
        tr.counting = tr.enabled = True
        L = zoo.make_loop("qhr:K=1")
        tangent.ad_differential(L, [0.1, -0.2, 0.15, 0.05], [-0.12, 0.08, 0.2, -0.1])
    finally:
        tr.counting = tr.enabled = False
        tr.uninstall()
    assert tr.counts["dual.gsolve"] == 0
    assert tr.extra["dual.nodes"] == 0
