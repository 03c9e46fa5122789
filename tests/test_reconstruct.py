import dataclasses
import math
import warnings
from collections import Counter

import numpy as np
import pytest

from loopbundle import core, reconstruct, tangent
from loopbundle.dual import Dual, dirderiv, dual_parts, gsin, primal, quiet, taylor_frame
from loopbundle.errors import NoSolutionInChart, OutOfDomain
from loopbundle.report import DEFAULT_TOLERANCES
from loopbundle.tangent import left_associator_differential, left_frame_matrix
from loopbundle.zoo import catalog_names, make_loop


@pytest.mark.parametrize("name", ["qc", "qh2"])
def test_reconstruction_matches_closed_form(name):
    L = make_loop(name)
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = 0.5 * rng.standard_normal(2)
        b = 0.5 * rng.standard_normal(2)
        if name == "qh2":
            a, b = 0.4 * a, 0.4 * b
        got = reconstruct.reconstruct_product(L, list(a), list(b), steps=128)
        expect = core.product(L, list(a), list(b))
        assert np.max(np.abs(got - np.asarray(expect))) < 1e-8


def test_integration_is_fourth_order():
    L = make_loop("qc")
    a, b = [0.4, -0.3], [0.5, 0.6]
    expect = np.asarray(core.product(L, a, b))
    err32 = np.max(np.abs(reconstruct.reconstruct_product(L, a, b, 32) - expect))
    err64 = np.max(np.abs(reconstruct.reconstruct_product(L, a, b, 64) - expect))
    order = np.log2(err32 / err64)
    assert 3.0 < order < 5.0


def test_path_independence():
    L = make_loop("qc")
    a, b = [0.3, 0.2], [-0.4, 0.5]
    straight = reconstruct.reconstruct_product(L, a, b, 256)
    curved = reconstruct.reconstruct_product(
        L, a, b, 256, path=reconstruct.bezier_path(b, [0.3, -0.2]))
    assert np.max(np.abs(straight - curved)) < 1e-8


def test_path_must_have_enough_steps():
    L = make_loop("qc")
    with pytest.raises(ValueError):
        reconstruct.reconstruct_product(L, [0.2, 0.1], [0.3, -0.2], steps=4)


@pytest.mark.parametrize("name", ["rz", "qc", "qh2", "qhr:K=1"])
def test_maurer_cartan_identity(name):
    L = make_loop(name)
    rng = np.random.default_rng(9)
    for _ in range(3):
        a = 0.3 * L.sample(rng)
        b = 0.3 * L.sample(rng)
        assert reconstruct.maurer_cartan_residual(L, list(b), list(a)) < 1e-8


# One jet pass of the left associator (3 products and 1 left division),
# whose inner product x.c is also the frame, a.b itself and one pass for
# the structure functions at a.b: the same count in every dimension.  The
# nested-dual route evaluated the closed forms per dual column.
@pytest.mark.parametrize("name", ["rz", "qc", "qhr:K=1"])
def test_maurer_cartan_call_counts(monkeypatch, name):
    base = make_loop(name)
    calls = Counter()
    nodes = [0]

    def counted(field):
        fn = getattr(base, field)

        def wrapper(x, y):
            calls[field] += 1
            return fn(x, y)
        return wrapper

    def counting_init(obj, re, du=0.0, lvl=0):
        obj.re = re
        obj.du = du
        obj.lvl = lvl
        nodes[0] += 1

    L = dataclasses.replace(base, product=counted("product"),
                            left_div=counted("left_div"),
                            right_div=counted("right_div"))
    rng = np.random.default_rng(9)
    a, b = 0.3 * L.sample(rng), 0.3 * L.sample(rng)
    monkeypatch.setattr(Dual, "__init__", counting_init)
    assert reconstruct.maurer_cartan_residual(L, list(b), list(a)) < 1e-12
    assert calls == {"product": 5, "left_div": 1}
    assert nodes[0] == 0


@pytest.mark.parametrize("name", ["qc", "qh2", "qhr:K=1"])
def test_companion_transformation_axioms(name):
    L = make_loop(name)
    rng = np.random.default_rng(11)
    a, b, c = (0.3 * L.sample(rng) for _ in range(3))
    report = reconstruct.batalin_axiom_check(L, list(a), list(b), list(c),
                                             DEFAULT_TOLERANCES["batalin"])
    assert report.passed, [x.as_dict() for x in report.cases]


def test_companion_transformation_is_translation_conjugate():
    L = make_loop("qc")
    rng = np.random.default_rng(13)
    a, b, c = (0.4 * L.sample(rng) for _ in range(3))
    out = reconstruct.batalin_transform(L, list(b), list(c), list(a))
    direct = core.left_divide(
        L, list(a),
        core.product(L, core.product(L, list(a), list(b)), list(c)))
    assert core.distance(L, out, np.asarray(direct)) < 1e-13


def _node_factor(L, a, path, t):
    """The phi-free factor at one parameter t: one pass of
    s -> l_(a,b)(b \\ path(t + s)) on floats."""
    b = [float(v) for v in path(t)]
    return dirderiv(lambda ts: core.associator(
        L, "left", a, b, core.left_divide(L, b, path(ts[0]))), [t], [1.0])


def _lie_velocity(L, a, phi, path, t):
    """The directional Lie-equation velocity, every factor recomputed at
    each stage: the phi-free factor of :func:`_node_factor`, then the
    velocity d/ds phi.(e + s w)."""
    w = _node_factor(L, a, path, t)
    return dirderiv(lambda c: core.product(L, phi, c), L.identity, w)


def _matrix_lie_velocity(L, a, phi, path, t):
    """The velocity from matrices: the frame at phi times l_(a,b)* times
    the frame at b solved against db/dt."""
    out = path(Dual(t, 1.0))
    bpt = [primal(v) for v in out]
    bdot = [primal(d) for d in dual_parts(out)]
    q = np.asarray(left_frame_matrix(L, phi), dtype=float)
    lstar = np.asarray(left_associator_differential(L, a, bpt), dtype=float)
    omega_dot = np.linalg.solve(np.asarray(left_frame_matrix(L, bpt), dtype=float),
                                np.asarray(bdot))
    return q @ (lstar @ omega_dot)


def _rk4_reference(L, a, path, steps, velocity=_lie_velocity):
    phi = np.asarray(a, dtype=float)
    h = 1.0 / steps
    for n in range(steps):
        t = n * h
        k1 = velocity(L, a, list(phi), path, t)
        k2 = velocity(L, a, list(phi + 0.5 * h * k1), path, t + 0.5 * h)
        k3 = velocity(L, a, list(phi + 0.5 * h * k2), path, t + 0.5 * h)
        k4 = velocity(L, a, list(phi + h * k3), path, t + h)
        phi = phi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return phi


@pytest.mark.parametrize("name,steps", [
    (name, steps) for name in ("rz", "qc", "qh2", "qsu2") for steps in (16, 20, 48)
] + [("qhr:K=1", 20), ("qhr:K=0", 20), ("qhr:K=-2.5", 20)])
def test_reconstruction_equals_stagewise_rk4_bit_for_bit(name, steps):
    # 20 and 48 steps make n*h and (n-1)*h + h differ in the last bit, so
    # shared stages must be matched by their exact parameter.
    L = make_loop(name)
    rng = np.random.default_rng(17)
    a, b, control = (list(0.5 * L.sample(rng)) for _ in range(3))
    straight = lambda t: [t * v for v in b]
    for path in (None, reconstruct.bezier_path(b, control)):
        got = reconstruct.reconstruct_product(L, a, b, steps, path=path)
        want = _rk4_reference(L, a, path or straight, steps)
        assert np.array_equal(got, want)


SEVEN_LOOPS = ["rz", "qc", "qh2", "qsu2", "qhr:K=1", "qhr:K=-2.5", "qhr:K=0"]


def _dirderiv_velocity(L, phi, w):
    """A stage velocity as one ``dirderiv`` pass of the raw product.
    ``reconstruct_product`` as a whole is compared bit for bit with the
    per-stage ``dirderiv`` route by
    ``test_reconstruction_equals_stagewise_rk4_bit_for_bit``."""
    return dirderiv(lambda c: L.product(phi, c), L.identity.tolist(), w).tolist()


@pytest.mark.parametrize("name", SEVEN_LOOPS)
def test_velocity_equals_the_dirderiv_pass_bit_for_bit(name):
    L = make_loop(name)
    rng = np.random.default_rng(29)
    for _ in range(20):
        phi = (0.5 * L.sample(rng)).tolist()
        w = rng.standard_normal(L.dim).tolist()
        got = reconstruct._velocity(L, phi, w)
        assert got.__class__ is list and all(v.__class__ is float for v in got)
        assert got == _dirderiv_velocity(L, phi, w)
        # Far from unit size, the complex step stays the dual pass.
        for scale in (1e-100, 1e30):
            ws = [scale * v for v in w]
            assert reconstruct._velocity(L, phi, ws) == _dirderiv_velocity(L, phi, ws), scale
        # A NaN entry makes NaN the components it makes NaN in the pass.
        wn = [math.nan] + w[1:]
        got, want = reconstruct._velocity(L, phi, wn), _dirderiv_velocity(L, phi, wn)
        assert np.isnan(want).any() and np.array_equal(got, want, equal_nan=True)
    # A zero direction gives zero, as the unseeded pass does.
    w = [0.0] * L.dim
    assert reconstruct._velocity(L, phi, w) == _dirderiv_velocity(L, phi, w)


def _numpy_scalar_loop():
    """x.y = (x0 + y0, x1 + y1 + x0 sin(y0)) with a numpy scalar inside
    the sine: a closed form that a complex step would see through
    ``float`` as its real part only."""
    def product(a, b):
        return [a[0] + b[0], a[1] + b[1] + a[0] * gsin(np.float64(1.0) * b[0])]

    def left_div(a, c):
        y0 = c[0] - a[0]
        return [y0, c[1] - a[1] - a[0] * gsin(y0)]

    def right_div(c, a):
        y0 = c[0] - a[0]
        return [y0, c[1] - a[1] - y0 * gsin(a[0])]

    return core.LoopDescriptor(
        name="numpy-sine", dim=2, product=product, left_div=left_div,
        right_div=right_div, identity=np.zeros(2),
        domain_check=lambda p: p[0] * p[0] + p[1] * p[1] < 1e6)


def test_numpy_scalar_in_the_product_raises_complex_warning():
    L = _numpy_scalar_loop()
    a, b = [0.3, 0.2], [-0.4, 0.5]
    with pytest.raises(np.exceptions.ComplexWarning):
        reconstruct.reconstruct_product(L, a, b, 16)
    # Without the guard the stage drops the sine's derivative silently.
    phi, w = [0.3, 0.2], [1.0, 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", np.exceptions.ComplexWarning)
        assert reconstruct._velocity(L, phi, w) == [1.0, 0.0]
    assert _dirderiv_velocity(L, phi, w) == [1.0, 0.3]


def _two_pass_parametric_form(L, a, b):
    """lambda and its derivatives from two jet passes: the left associator,
    then the product for the frame (``tangent._frame_derivatives``)."""
    lstar, dlstar = taylor_frame(
        lambda x, c: core._left_associator(L, a, x, c), b, L.identity, order=1)
    r, dr = tangent._frame_derivatives(L, b, "left", order=1)
    rinv = np.linalg.inv(r)
    lam = lstar @ rinv
    return lam, (dlstar - lam @ dr) @ rinv


@pytest.mark.parametrize("name", SEVEN_LOOPS)
def test_parametric_form_one_pass_equals_two_passes_bit_for_bit(name):
    # The associator pass's inner product x.c is the frame pass's product.
    L = make_loop(name)
    rng = np.random.default_rng(37)
    with quiet():
        for _ in range(10):
            a, b = (list(0.3 * L.sample(rng)) for _ in range(2))
            lam, dlam = reconstruct._parametric_form(L, a, b)
            want_lam, want_dlam = _two_pass_parametric_form(L, a, b)
            assert lam.shape == (L.dim, L.dim) and dlam.shape == (L.dim,) * 3
            assert np.array_equal(lam, want_lam) and np.array_equal(dlam, want_dlam)


def test_reconstruction_checks_its_inputs_once(monkeypatch):
    # a and the batch of path nodes are checked once each, whatever the
    # step count; the stages and b \\ path(t + s) are intermediates, so
    # the integrator composes raw closed forms and no checked operation.
    base = make_loop("qc")
    calls = [0]

    def check(p):  # takes a batch of points in one call
        calls[0] += 1
        return bool(np.all(np.hypot(p[0], p[1]) < 1e3))

    L = dataclasses.replace(base, domain_check=check)
    a, b = [0.3, 0.2], [-0.4, 0.5]
    counts, results = [], []
    for steps in (16, 64):
        calls[0] = 0
        results.append(reconstruct.reconstruct_product(L, a, b, steps))
        counts.append(calls[0])
    assert counts == [2, 2]  # a, then every node in one batch

    def checked(*args):
        raise AssertionError("a checked core operation was called")

    for name in ("product", "associator", "left_divide"):
        monkeypatch.setattr(core, name, checked)
    for steps, want in zip((16, 64), results):
        assert np.array_equal(reconstruct.reconstruct_product(base, a, b, steps), want)


@pytest.mark.parametrize("name", catalog_names())
def test_reconstruction_matches_matrix_route(name):
    # The directional passes against frame matrices and a float solve.
    L = make_loop(name)
    rng = np.random.default_rng(19)
    a, b, control = (list(0.5 * L.sample(rng)) for _ in range(3))
    straight = lambda t: [t * v for v in b]
    for path in (None, reconstruct.bezier_path(b, control)):
        got = reconstruct.reconstruct_product(L, a, b, 16, path=path)
        want = _rk4_reference(L, a, path or straight, 16, velocity=_matrix_lie_velocity)
        assert np.max(np.abs(got - want)) <= 1e-14


def _stage_parameters(steps):
    h = 1.0 / steps
    return [t for n in range(steps) for t in (n * h, n * h + 0.5 * h, n * h + h)]


@pytest.mark.parametrize("name,steps", [
    (name, steps) for name in catalog_names() for steps in (16, 20, 48)])
def test_batched_factors_equal_per_node_passes(name, steps):
    # Column i of the batched pass is the pass at node i alone, bit for bit.
    L = make_loop(name)
    rng = np.random.default_rng(23)
    a, b, control = (list(0.5 * L.sample(rng)) for _ in range(3))
    nodes = list(dict.fromkeys(_stage_parameters(steps)))
    # At 20 and 48 steps some n*h and (n-1)*h + h differ in the last bit.
    assert (len(nodes) > 2 * steps + 1) == (steps != 16)
    straight = lambda t: [t * v for v in b]
    for path in (straight, reconstruct.bezier_path(b, control)):
        got = reconstruct._canonical_factors(L, a, path, nodes)
        assert list(got) == nodes
        for t in nodes:
            assert np.array_equal(got[t], _node_factor(L, a, path, t)), t


@pytest.mark.parametrize("name,control,error", [
    # 2 s t 0.3 + t^2 b peaks near 0.15, past the division window 0.10312.
    ("rz", [0.3], NoSolutionInChart),
    # The Bezier arc leaves the unit disk, the qh2 chart.
    ("qh2", [2.5, 0.0], OutOfDomain),
])
def test_bad_node_in_batch_fails_as_per_node(name, control, error):
    L = make_loop(name)
    a, b = [0.01] * L.dim, [0.02] * L.dim
    path = reconstruct.bezier_path(b, control)
    with pytest.raises(error) as per_node:
        _rk4_reference(L, a, path, 16)
    with pytest.raises(error) as batched:
        reconstruct.reconstruct_product(L, a, b, 16, path=path)
    assert batched.type is per_node.type is error


def test_non_finite_node_in_batch():
    L = make_loop("qc")
    a, b = [0.3, 0.2], [-0.4, 0.5]

    def nan_velocity(t):
        # The same values as the straight path; at t = 1 the derivative of
        # q - q is -inf - (-inf), NaN.
        q = 1e-250 / (t - 1.0 + 1e-200)
        return [t * v + (q - q) for v in b]

    def nan_value(t):
        # 0 * inf at t = 0.5: NaN there, and 0 elsewhere.
        q = 0.0 * (1e300 / (t - 0.5 + 1e-320))
        return [t * v + q for v in b]

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = reconstruct.reconstruct_product(L, a, b, 16, path=nan_velocity)
        assert np.isnan(got).all()
        # A NaN value fails the chart check, per node and in the batch.
        with pytest.raises(OutOfDomain) as batched:
            reconstruct.reconstruct_product(L, a, b, 16, path=nan_value)
    with pytest.raises(OutOfDomain) as per_node:
        _rk4_reference(L, a, nan_value, 16)
    assert batched.type is per_node.type is OutOfDomain
