import dataclasses
from collections import Counter

import numpy as np
import pytest

from loopbundle import core, reconstruct
from loopbundle.dual import Dual, dual_parts, next_level, primal
from loopbundle.errors import StepUnderflow
from loopbundle.tangent import left_associator_differential, left_frame_matrix
from loopbundle.zoo import make_loop


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


def test_step_underflow_raised_for_tight_tolerance():
    L = make_loop("qc")
    with pytest.raises(StepUnderflow):
        reconstruct.reconstruct_product(L, [0.4, 0.1], [0.5, -0.6], steps=16,
                                        tol=1e-16)


def test_step_doubling_accepts_reachable_tolerance():
    L = make_loop("qc")
    a, b = [0.2, 0.1], [0.3, -0.2]
    out = reconstruct.reconstruct_product(L, a, b, steps=64, tol=1e-6)
    expect = np.asarray(core.product(L, a, b))
    assert np.max(np.abs(out - expect)) < 1e-6


@pytest.mark.parametrize("name", ["rz", "qc", "qh2", "qhr:K=1"])
def test_maurer_cartan_identity(name):
    L = make_loop(name)
    rng = np.random.default_rng(9)
    for _ in range(3):
        a = 0.3 * L.sample(rng)
        b = 0.3 * L.sample(rng)
        assert reconstruct.maurer_cartan_residual(L, list(b), list(a)) < 1e-8


# One jet pass of the left associator (3 products and 1 left division),
# one of the product for the frame, a.b itself and one pass for the
# structure functions at a.b: the same count in every dimension.  The
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
    assert calls == {"product": 6, "left_div": 1}
    assert nodes[0] == 0


@pytest.mark.parametrize("name", ["qc", "qh2", "qhr:K=1"])
def test_companion_transformation_axioms(name):
    L = make_loop(name)
    rng = np.random.default_rng(11)
    a, b, c = (0.3 * L.sample(rng) for _ in range(3))
    report = reconstruct.batalin_axiom_check(L, list(a), list(b), list(c))
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


def _lie_velocity(L, a, phi, path, t):
    """Every factor of the Lie-equation velocity, recomputed at each stage."""
    lvl = next_level()
    out = path(Dual(t, 1.0, lvl))
    bpt = [primal(v) for v in out]
    bdot = [primal(d) for d in dual_parts(out, lvl)]
    q = np.asarray(left_frame_matrix(L, phi), dtype=float)
    lstar = np.asarray(left_associator_differential(L, a, bpt), dtype=float)
    omega_dot = np.linalg.solve(np.asarray(left_frame_matrix(L, bpt), dtype=float),
                                np.asarray(bdot))
    return q @ (lstar @ omega_dot)


def _rk4_reference(L, a, path, steps):
    phi = np.asarray(a, dtype=float)
    h = 1.0 / steps
    for n in range(steps):
        t = n * h
        k1 = _lie_velocity(L, a, list(phi), path, t)
        k2 = _lie_velocity(L, a, list(phi + 0.5 * h * k1), path, t + 0.5 * h)
        k3 = _lie_velocity(L, a, list(phi + 0.5 * h * k2), path, t + 0.5 * h)
        k4 = _lie_velocity(L, a, list(phi + h * k3), path, t + h)
        phi = phi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return phi


@pytest.mark.parametrize("name,steps", [
    (name, steps) for name in ("rz", "qc", "qh2") for steps in (16, 20, 48)
] + [("qhr:K=1", 20)])
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
