"""The benchmark tracer (loopbench/tracer.py) looks up library functions
by name; removing one it needs breaks the benchmark, whose own tests are
not collected here.  Install and uninstall it once to catch that early."""

import importlib.util
from pathlib import Path

import loopbundle
from loopbundle import bundle, cli, core, dual, gauge, reconstruct, tangent, zoo  # noqa: F401

TRACER = Path(__file__).resolve().parents[1] / "loopbench" / "tracer.py"


def test_tracer_finds_every_name_it_wraps():
    spec = importlib.util.spec_from_file_location("loopbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    init = dual.Dual.__init__
    product = core.product
    tr = tracer.Tracer(loopbundle)
    try:
        tr.install()
        assert core.product is not product
        for name in (*tracer.GAUGE_GROUPS, tracer.FRAME_FUNC, *tracer.STRUCTURE_FUNCS):
            module, attr = name.split(".")
            assert callable(getattr(getattr(loopbundle, module), attr)), name
    finally:
        tr.uninstall()
    assert core.product is product
    assert dual.Dual.__init__ is init
