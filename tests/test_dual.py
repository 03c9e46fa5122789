import cmath
import math
import os
import random
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import loopbundle
from loopbundle import core, reconstruct, zoo
from loopbundle.dual import (_STEP, Jet, complex_step, dirderiv, gcos, gfloor, ginv, gsin,
                             gsolve, jacobian, jet_space, near_zero, pack, primal, quiet)
from leveled_dual import (RefDual, _assert_parts_close, _carrier_maker,
                          next_level, ref_dirderiv, ref_gsolve, ref_jacobian)

H = _STEP


def test_arithmetic_first_derivatives():
    f = lambda v: [v[0] * v[0] * v[0] - 4.0 * v[0] + 1.0]
    assert complex_step(f, [2.0], [1.0]) == [3 * 4.0 - 4.0]
    assert primal(f([complex(2.0, H)])[0]) == 1.0


def test_division_derivative():
    assert complex_step(lambda v: [1.0 / v[0]], [3.0], [1.0])[0] == pytest.approx(-1.0 / 9.0)
    z = complex_step(lambda v: [v[0] / (v[0] + 1.0)], [3.0], [1.0])[0]
    assert z == pytest.approx(1.0 / 16.0)


@pytest.mark.parametrize("fn,ref,dref", [
    (gsin, math.sin, math.cos),
    (gcos, math.cos, lambda t: -math.sin(t)),
])
def test_scalar_functions(fn, ref, dref):
    t = 0.7
    out = fn(complex(t, H))
    assert out.__class__ is complex
    assert out.real == pytest.approx(ref(t), abs=1e-14)
    assert out.imag / H == pytest.approx(dref(t), abs=1e-14)
    out = fn(RefDual(t, 1.0, next_level()))
    assert out.__class__ is RefDual
    assert out.re == pytest.approx(ref(t), abs=1e-14)
    assert out.du == pytest.approx(dref(t), abs=1e-14)


@pytest.mark.parametrize("x", [0.0, math.pi / 2, -math.pi / 2, 1e-300, 1e6])
def test_complex_step_elementaries_equal_the_dual_rules(x):
    # complex(x, h d) is the dual number x + d eps scaled by h in its
    # imaginary part: the real part is the primal and the imaginary part h
    # times the dual part of the leveled carrier's rule, bit for bit.
    h = H
    for d in (1.0, -0.37, 3.5e7):
        z, want = complex(x, h * d), RefDual(x, d, next_level())
        for fn in (gsin, gcos):
            out, ref = fn(z), fn(want)
            assert out.__class__ is complex
            assert out.real == ref.re and out.imag == h * ref.du, (fn.__name__, d)
        assert primal(z).__class__ is float and primal(z) == primal(want) == x


def test_complex_step_equals_the_dual_pass():
    # At a zero point the quotient's divisor has real part exactly 1, so
    # the complex quotient rounds as the dual one does.
    p, q = 0.3, -1.7
    f = lambda v: [p * gsin(v[0]) + gcos(q + v[1]) * v[0],
                   (p + v[0] * v[1]) / (1.0 + q * v[1] + p * v[0])]
    for v in ([1.0, 0.0], [0.2, -2.5], [1e-100, 3e-100], [1e30, -2e30]):
        got = complex_step(f, [0.0, 0.0], v)
        assert all(d.__class__ is float for d in got)
        assert got == ref_dirderiv(f, [0.0, 0.0], v).tolist(), v
        assert got == dirderiv(f, [0.0, 0.0], v).tolist(), v


def test_nested_levels_mixed_second_derivative():
    # f(x, y) = x^2 y; d2f/dxdy = 2x, which an untagged dual would drop.
    # The outer epsilon is the leveled carrier's, the inner pass's level
    # is higher.
    def inner(x, y):
        return x * x * y

    x = RefDual(1.5, 1.0, next_level())
    col = ref_jacobian(lambda ys: [inner(x, ys[0])], [2.0])
    entry = col[0][0]  # df/dy carrying the outer epsilon
    assert primal(entry) == pytest.approx(1.5 ** 2)
    assert isinstance(entry, RefDual)
    assert entry.du == pytest.approx(2 * 1.5)


def test_library_pass_inside_a_library_pass_raises():
    f = lambda v: [v[0] * v[0] * v[1]]
    inner = lambda v: list(jacobian(f, v).reshape(-1))
    with pytest.raises(TypeError, match="does not nest"):
        jacobian(inner, [1.5, 2.0])
    with pytest.raises(TypeError, match="does not nest"):
        dirderiv(inner, [1.5, 2.0], [1.0, 0.0])
    with pytest.raises(TypeError, match="does not nest"):
        complex_step(inner, [1.5, 2.0], [1.0, 0.0])
    # a jet pass encloses the complex step: with x a jet in alpha,
    # d/dy (x^2 y) = x^2 comes out as a jet, and its alpha part is 2x
    space = jet_space(1, 1)
    x = space.variable(1.5, ((0,), ()))
    entry = jacobian(lambda ys: [x * x * ys[0]], [2.0])[0, 0]
    assert entry.__class__ is Jet and entry.c.dtype == float
    assert primal(entry) == 1.5 ** 2 and entry.c[space.index[((0,), ())]] == 3.0


@pytest.mark.parametrize("x", [2.0 + 0j, np.complex128(2.0), np.array([2.0 + 0j])])
def test_complex_coordinates_raise(x):
    # complex(x, h v) of a complex x would add the two steps
    f = lambda v: [v[0] * v[0]]
    for call in (lambda: complex_step(f, [x], [1.0]), lambda: dirderiv(f, [x], [1.0]),
                 lambda: jacobian(f, [x])):
        with pytest.raises(TypeError, match="does not nest"):
            call()


def test_jacobian_plain():
    j = jacobian(lambda v: [v[0] * v[1], v[0] + gsin(v[1])], [2.0, 0.5])
    expect = np.array([[0.5, 2.0], [1.0, math.cos(0.5)]])
    assert np.allclose(np.asarray(j, dtype=float), expect)


def test_dirderiv_matches_jacobian_action():
    f = lambda v: [v[0] ** 2 + v[1], v[0] * v[1]]
    x = [1.2, -0.3]
    direction = [0.7, 0.4]
    j = np.asarray(jacobian(f, x), dtype=float)
    d = np.asarray(dirderiv(f, x, direction), dtype=float)
    assert np.allclose(d, j @ direction)


@pytest.mark.parametrize("f", [
    lambda s: [s[0] * s[0], 2.0 * s[0]],  # one part constant in the batch
    lambda s: [2.0 * s[0], 3.0 - s[0]],   # every part constant
    lambda s: [s[0] * gsin(s[0]), s[0] / (1.0 + s[0])],
])
def test_batched_dirderiv_has_one_column_per_point(f):
    points = [0.1, 0.2, 0.3]
    got = dirderiv(f, [np.array(points)], [1.0])
    assert got.dtype == float and got.shape == (2, len(points))
    for i, t in enumerate(points):
        assert np.array_equal(got[:, i], dirderiv(f, [np.array([t])], [1.0])[:, 0]), i
        np.testing.assert_allclose(got[:, i], dirderiv(f, [t], [1.0]), rtol=1e-15)


def test_dual_parts_ignores_other_levels():
    # An output that the step did not reach contributes 0: a number, or a
    # jet of an enclosing pass, whose parts are another level.
    space = jet_space(1, 1)
    outer = space.variable(1.0, ((0,), ()))
    out = complex_step(lambda v: [outer, 2.0, outer * v[0]], [2.0], [1.0])
    assert out[0].__class__ is Jet and not np.any(out[0].c)
    assert out[1] == 0.0
    assert out[2].__class__ is Jet and np.array_equal(out[2].c, outer.c)


def test_gsolve_matches_numpy_and_propagates_duals():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal(3)
    assert np.allclose(gsolve(a, b), np.linalg.solve(a, b))

    # derivative of solve(A(t), b) by the references' carrier solve vs the
    # closed form -A^-1 A' A^-1 b
    at = np.empty((2, 2), dtype=object)
    a0 = np.array([[2.0, 1.0], [0.5, 3.0]])
    da = np.array([[1.0, 0.0], [0.0, -1.0]])
    lvl = next_level()
    for i in range(2):
        for j in range(2):
            at[i, j] = RefDual(a0[i, j], da[i, j], lvl)
    b2 = np.array([1.0, 2.0])
    sol = ref_gsolve(at, b2)
    expect = -np.linalg.inv(a0) @ da @ np.linalg.solve(a0, b2)
    got = np.array([s.du for s in sol])
    assert np.allclose(got, expect)


def test_ginv_dual_free():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(ginv(a), np.linalg.inv(a))


def test_pack_keeps_duals():
    for x in (jet_space(1, 1).variable(1.0, ((0,), ())), RefDual(1.0, 2.0, next_level())):
        out = pack([x, 3.0])
        assert out.dtype == object
        assert primal(out[0]) == 1.0


@pytest.mark.parametrize("xs", [
    [np.complex128(1 + 2j), 3.0], [1 + 2j, 3.0], [[1.0, 2.0], [3.0, 1j]],
    [np.array([1.0, 2.0 + 0j]), np.ones(2)], [RefDual(1.0, 2.0, 1), 1j],
    [[jet_space(1, 1).variable(1.0, ((0,), ())), np.complex128(1j)]],
    np.array([[1.0, np.complex128(1j)]], dtype=object)])
def test_pack_raises_on_complex_entries(xs):
    # A float array would drop the imaginary part, a complex step's
    # derivative, with only a ComplexWarning.
    with pytest.raises(TypeError, match="complex"):
        pack(xs)


def test_pack_plain_input_gives_floats():
    for xs in ([1.0, np.float64(2.5), 3], [[1.0, np.float64(2.0)], [np.int64(3), 4.5]],
               np.array([[1.0, 2.0], [3.0, 4.0]], dtype=object)):
        out = pack(xs)
        assert out.dtype == float
        assert np.array_equal(out, np.array(xs, dtype=float))


def test_pack_batch_arrays_stack_to_rows():
    rows = [np.arange(3.0), np.ones(3)]
    out = pack(rows)
    assert out.dtype == float and out.shape == (2, 3)
    assert np.array_equal(out, np.vstack(rows))


def test_pack_keeps_carriers_in_place():
    jet = jet_space(1, 2).variable(0.5, ((0,), ()))
    for carrier in (RefDual(1.0, 2.0, next_level()), jet):
        vec = [np.float64(2.0), carrier, 3.0]
        rows = [[1.0, 2.0], [carrier, np.float64(4.0)]]
        for xs, shape in ((vec, (3,)), (rows, (2, 2)),
                          (np.array(rows, dtype=object), (2, 2))):
            out = pack(xs)
            assert out.dtype == object and out.shape == shape
            flat = [v for r in xs for v in r] if len(shape) == 2 else xs
            assert all(a is b for a, b in zip(out.flat, flat, strict=True))


@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_product_rule(a, b, t):
    x = complex(t, H)
    f = a * x + b
    g = x * x + 1.0
    h = f * g
    assert h.imag / H == pytest.approx(f.imag / H * g.real + f.real * g.imag / H, abs=1e-9)


# -- the bounds that complex_step states --------------------------------------

def _captured(f):
    """f, and the list of the outputs it returned in its last call."""
    seen = []

    def g(v):
        seen[:] = f(v)
        return seen

    return g, seen


def test_complex_step_bounds_of_eps_squared():
    # The product of two imaginary parts is h^2 d1 d2, which rounds to 0
    # while |d1 d2| < 2**125 and to the smallest subnormal past it.
    for d1, d2, zero in ((2.0 ** 62, 2.0 ** 62.5 * (1 - 2.0 ** -52), True),
                         (2.0 ** 62, 2.0 ** 63, True),  # a tie, to even 0
                         (2.0 ** 63, 2.0 ** 63, False), (1e3, 1e-3, True)):
        f, seen = _captured(lambda v: [v[0] * v[1]])
        assert complex_step(f, [0.0, 0.0], [d1, d2]) == [0.0]
        assert (primal(seen[0]) == 0.0) is zero, (d1, d2)


def test_complex_step_sine_and_cosine_past_overflow_are_nan():
    # cmath.sin and cmath.cos overflow once the step part |h d| passes
    # about 710; the elementaries give a complex NaN there, as at inf.
    for fn in (gsin, gcos):
        for z in (complex(0.3, 1e3), np.complex128(complex(0.3, -1e3)),
                  complex(math.inf, H)):
            out = fn(z)
            assert out.__class__ is complex and cmath.isnan(out), (fn.__name__, z)


def test_complex_step_bounds_of_subnormal_parts():
    # A part below 2**-422 is subnormal times h: absolute error up to
    # 2**-475; from 2**-422 up it is exact.
    rng = random.Random(7)
    inexact = 0
    for _ in range(200):
        d = rng.uniform(0.5, 1.0) * 2.0 ** rng.randint(-470, -380)
        got, = complex_step(lambda v: [v[0]], [0.0], [d])
        assert abs(got - d) <= 2.0 ** -475
        if d >= 2.0 ** -422:
            assert got == d
        inexact += got != d
    assert inexact > 0


def _random_map(rng, n, depth):
    """A random finite expression in n inputs of + - *, negation and sin."""
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.75:
            return ("var", rng.randrange(n))
        return ("num", rng.choice([0.0, 1.0, -0.5, rng.uniform(-2.0, 2.0)]))
    u = rng.random()
    if u < 0.7:
        return (rng.choice("+-*"), _random_map(rng, n, depth - 1), _random_map(rng, n, depth - 1))
    return ("sin" if u < 0.85 else "neg", _random_map(rng, n, depth - 1))


def _apply(tree, xs):
    tag = tree[0]
    if tag == "var":
        return xs[tree[1]]
    if tag == "num":
        return tree[1]
    if tag == "sin":
        return gsin(_apply(tree[1], xs))
    if tag == "neg":
        return -_apply(tree[1], xs)
    a, b = _apply(tree[1], xs), _apply(tree[2], xs)
    return a + b if tag == "+" else a - b if tag == "-" else a * b


def test_complex_step_matches_dense_dual_seeding():
    # With every coordinate seeded, as the complex step seeds them, the
    # leveled dual pass gives every derivative part equal (==) to the
    # complex step's on finite maps of + - * and sin: term for term the
    # same products, scaled by the power of two h.
    rng = random.Random(20261018)
    for _ in range(120):
        n = rng.randint(1, 4)
        maps = [_random_map(rng, n, rng.randint(1, 5)) for _ in range(rng.randint(1, 3))]
        f = lambda xs: [_apply(t, xs) for t in maps]
        x = [rng.uniform(-1.5, 1.5) for _ in range(n)]
        v = [rng.choice([0.0, 1.0, rng.uniform(-1.0, 1.0)]) for _ in range(n)]

        def dense(direction):
            lvl = next_level()
            return [y.du if isinstance(y, RefDual) else 0.0
                    for y in f([RefDual(xi, vi, lvl) for xi, vi in zip(x, direction)])]

        assert complex_step(f, x, v) == dense(v)
        cols = [dense([1.0 if j == i else 0.0 for j in range(n)]) for i in range(n)]
        assert jacobian(f, x).tolist() == [list(row) for row in zip(*cols)]


def test_nan_in_unseeded_coordinate_keeps_primal_nan():
    # Every coordinate is stepped, a zero direction entry to an imaginary
    # zero: a NaN coordinate makes the primal values it reaches NaN, and an
    # inf or NaN one makes NaN the derivative parts it meets as a factor,
    # inf * 0 and NaN * 0, also along a zero direction entry.
    f, seen = _captured(lambda v: [v[0] * v[1] + v[1], v[0] + 0.0 * v[1], v[1] - v[0]])
    out = complex_step(f, [math.nan, 2.0], [0.0, 1.0])
    assert all(math.isnan(primal(y)) for y in seen)
    assert math.isnan(out[0]) and out[1] == 0.0 and out[2] == 1.0
    g = lambda v: [v[0] * v[0] + v[1]]
    col = jacobian(g, [math.inf, 2.0])
    assert float(col[0][0]) == math.inf and math.isnan(col[0][1])


def test_complex_step_signs_of_zero_parts():
    # A zero direction entry steps to a zero of its own sign, and a zero
    # derivative part takes the sign IEEE arithmetic gives it: 2.0 * v is
    # a complex product with 2 + 0i, whose imaginary part 2 (-0) + 0 1 is
    # +0, where the dual rule scales -0 to -0.
    assert [math.copysign(1.0, d) for d in complex_step(
        lambda v: [v[0], v[1], -v[0], v[0] - v[0], 2.0 * v[1]],
        [1.0, 1.0], [0.0, -0.0])] == [1.0, -1.0, -1.0, 1.0, 1.0]


def test_quotient_of_unseeded_number_rounds_differently():
    # A complex quotient's real part is the float quotient x / y; the dual
    # quotient of the leveled carrier multiplies by 1 / y.  The two agree
    # to rounding and here differ in the last bit.
    x, y = 5.0, 7.0
    f, seen = _captured(lambda v: [v[0] / v[1] * v[2]])
    assert complex_step(f, [x, y, 1.0], [0.0, 0.0, 1.0]) == [x / y]
    assert primal(seen[0]) == x / y
    lvl = next_level()
    dual = f([RefDual(x, 0.0, lvl), RefDual(y, 0.0, lvl), RefDual(1.0, 1.0, lvl)])[0]
    assert dual.re == dual.du == x * (1.0 / y)
    assert x / y != x * (1.0 / y) and abs(x / y - x * (1.0 / y)) <= 1.2e-16


def test_library_routes_never_nest_duals(capsys):
    # No library route runs a complex step inside another: a complex
    # coordinate raises, so every route below completes.
    from loopbundle import cli, gauge
    from loopbundle.zoo import make_loop

    for name in ("rz", "qc", "qh2", "qsu2", "qhr:K=1"):
        assert cli.main(["verify", "--loop", name, "--suite", "all", "--samples", "3",
                         "--seed", "1", "--steps", "16"]) == 0
    capsys.readouterr()
    L = make_loop("qc")
    form = gauge.make_test_potential(L, 2, seed=57)
    x, y = [0.2, -0.1], [0.1, 0.25]
    f = lambda xs, ys: xs[0] * ys[1] + 0.3 * xs[1] * ys[0] * ys[0]
    q_map = lambda xs: [gcos(0.4 + 0.7 * xs[0]), gsin(0.4 + 0.7 * xs[0] - 0.3 * xs[1])]
    with warnings.catch_warnings():
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        gauge.commutator_residual(form, 0, 1, f, x, y)
        gauge.curvature(form, x, y)
        gauge.curvature_gauge_residual(form, q_map, x)
        gauge.omega_annihilates_d_residual(form, x, y, 0)
        gauge.hor_field(form, [1.0, 0.5])(x + y)


# -- derivatives through a solve: carry against the routes it replaced -------

def ref_rz_left_div(a, b):
    """The ``rz`` left division that re-ran 3 full Newton steps in carrier
    arithmetic from the float root, then put the float root back."""
    x, target = a, b - a - zoo._rz_f(a)
    y, t = zoo._rz_root(primal(x), primal(target))
    g = lambda y: y + zoo._rz_f(y) - zoo._rz_f(x + y)
    gp = lambda y: 1.0 + zoo._rz_fprime(y) - zoo._rz_fprime(x + y)
    shifted = target + (t - primal(target))
    root = y
    for _ in range(3):
        y = y - (g(y) - shifted) / gp(y)
    return zoo._rz_mod1((y - primal(y)) + root)


@pytest.mark.parametrize("kind", ["dual", "nested2", "nested3", "jet", "jet1"])
def test_rz_division_derivatives_match_full_newton(kind):
    # carry runs 1, 2, 3, 3 and 2 simplified Newton steps on these carriers
    rng = random.Random(kind)
    make = _carrier_maker(kind, rng)
    L = zoo.make_loop("rz")
    for _ in range(50):
        a, b = rng.uniform(0.0, 0.1), rng.uniform(0.0, 1.0)
        want = L.left_div([a], [b])[0]
        for args in ((make(a), b), (a, make(b)), (make(a), make(b))):
            got = L.left_div([args[0]], [args[1]])[0]
            assert primal(got) == want
            _assert_parts_close(got, ref_rz_left_div(*args))


def test_rz_dual_division_node_count(monkeypatch):
    # The work of a first-order rz division, a complex step in the divisor
    # or in the target: one float root and one carry step, which evaluates
    # the residual once.
    roots, residuals = [0], [0]

    def counted_root(x, t):
        roots[0] += 1
        return root(x, t)

    def counted_carry(y, residual, solve0):
        def res(ys):
            residuals[0] += 1
            return residual(ys)
        return carry(y, res, solve0)

    root, carry = zoo._rz_root, zoo.carry
    monkeypatch.setattr(zoo, "_rz_root", counted_root)
    monkeypatch.setattr(zoo, "carry", counted_carry)
    L = zoo.make_loop("rz")
    want = L.left_div([0.03], [0.4])[0]
    for args in (([0.03], [complex(0.4, H)]), ([complex(0.03, H)], [0.4])):
        roots[0] = residuals[0] = 0
        got = L.left_div(*args)[0]
        assert (roots[0], residuals[0]) == (1, 1)
        assert primal(got) == want and got.imag != 0.0


def test_carry_steps_follow_the_carrier_order(monkeypatch):
    from loopbundle.dual import _order, carry, jet_space

    lvl = next_level()
    assert _order(0.5) == 0 and _order(np.zeros(3)) == 0 and _order([0.5, 1j]) == 0
    assert _order(complex(0.5, H)) == _order(np.zeros(3, dtype=complex)) == 1
    assert _order(RefDual(RefDual(0.5, 1.0, lvl), 2.0, lvl + 1)) == 2
    assert _order(RefDual(0.5, RefDual(1.0, 1.0, lvl), lvl + 1)) == 2
    # a jet's order is its space's degree: one more than the order in alpha
    assert _order(jet_space(1, 1).variable(0.5, ((0,), ()))) == 2
    assert _order(jet_space(1, 2).variable(0.5, ((0,), ()))) == 3
    # an rz division evaluates its residual once per step: once on a
    # complex step, a point or a batch, and three times on a degree-3 jet
    calls = []

    def counted(root, residual, solve0):
        def res(ys):
            calls[-1] += 1
            return residual(ys)
        calls.append(0)
        return carry(root, res, solve0)

    monkeypatch.setattr(zoo, "carry", counted)
    L = zoo.make_loop("rz")
    batch = np.array([0.4, 0.5]) + 0j
    batch.imag = H
    jet = jet_space(1, 2).variable(0.4, ((0,), ()))
    with quiet():
        for args in (([0.03], [complex(0.4, H)]), ([complex(0.03, H)], [0.4]),
                     ([0.03], [batch]), ([0.03], [jet])):
            L.left_div(*args)
    assert calls == [1, 1, 1, 3]


# -- the dispatch ladder of the elementaries ------------------------------------
#
# The bodies below are the elementaries as they were before they tested the
# carrier classes with ``__class__ is``: they reached complex steps, leveled
# carriers and batch arrays through a TypeError.  The library's must give
# the same value and type on every input.  A complex value, a jet's complex
# constant term or a complex batch, is read by its real part, and a numpy
# complex scalar is a complex step, as a Python complex is.

def ref_primal(x):
    while isinstance(x, RefDual):
        x = x.re
    if x.__class__ is Jet:
        return x.c.item(0).real
    if isinstance(x, np.complexfloating):
        return x.real
    try:
        return float(x)
    except TypeError:
        if x.__class__ is np.ndarray:
            return x.real
        return x.real if x.__class__ is complex else x


def ref_gsin(x):
    if x.__class__ is Jet:
        return x._trig(0)
    if isinstance(x, np.complexfloating):
        return cmath.sin(x)
    try:
        return math.sin(x)
    except TypeError:
        pass
    except ValueError:
        return math.nan
    if x.__class__ is np.ndarray:
        return np.sin(x)
    if x.__class__ is complex:
        return cmath.sin(x)
    return x._trig(0)


def ref_gcos(x):
    if x.__class__ is Jet:
        return x._trig(1)
    if isinstance(x, np.complexfloating):
        return cmath.cos(x)
    try:
        return math.cos(x)
    except TypeError:
        pass
    except ValueError:
        return math.nan
    if x.__class__ is np.ndarray:
        return np.cos(x)
    if x.__class__ is complex:
        return cmath.cos(x)
    return x._trig(1)


def ref_gfloor(x):
    x = ref_primal(x)
    if x.__class__ is np.ndarray:
        return np.where(np.isfinite(x), np.floor(x), math.nan)
    try:
        return float(math.floor(x))
    except (ValueError, OverflowError):
        return math.nan


def ref_near_zero(x, bound):
    if x.__class__ is np.ndarray:
        return (abs(x.real) < bound).any()
    return abs(ref_primal(x)) < bound


def _assert_same(got, want):
    """The same class and the same value bit for bit, part by part."""
    assert got.__class__ is want.__class__, (got, want)
    if isinstance(want, RefDual):
        _assert_same(got.re, want.re)
        _assert_same(got.du, want.du)
        assert getattr(got, "lvl", None) == getattr(want, "lvl", None)
    elif want.__class__ is Jet:
        assert got.space is want.space
        _assert_same(got.c, want.c)
    elif want.__class__ is np.ndarray:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    else:
        assert repr(got) == repr(want)  # tells -0.0 from 0.0 and keeps NaN


def _ladder_inputs():
    space = jet_space(2, 2)
    jet = Jet(np.linspace(0.3, -0.4, space.size), space)
    djet = Jet(np.linspace(-0.2, 0.6, space.size), space)
    arr = np.array([0.3, -1.2, 2.5, math.inf, math.nan])
    return [0.3, -0.0, 0.35, 2, np.float64(0.7), np.int64(-3), 0.4 + 0.25j, np.array(0.6),
            arr, math.inf, -math.inf, math.nan, complex(0.3, 1.5 * H),
            np.complex128(complex(0.3, 1.5 * H)),
            arr + 1j * H * np.array([1.0, -2.0, 0.5, 1.0, 3.0]),
            pytest.param(jet + 1j * H * djet, id="jet + i h djet"), jet,
            RefDual(0.3, 0.7, next_level()), RefDual(complex(-0.8, 0.1 * H), 0.2, next_level())]


@pytest.mark.parametrize("x", _ladder_inputs(), ids=lambda x: " ".join(repr(x).split()))
def test_elementaries_give_the_exception_dispatch_value_and_type(x):
    with quiet():
        for fn, ref in ((primal, ref_primal), (gsin, ref_gsin), (gcos, ref_gcos),
                        (gfloor, ref_gfloor)):
            _assert_same(fn(x), ref(x))
        for bound in (0.35, 1e-9, 10.0):
            _assert_same(near_zero(x, bound), ref_near_zero(x, bound))


def _library_exceptions(f):
    """The names of the loopbundle functions in which an exception was
    raised or passed through while ``f`` ran (``sys.settrace`` events)."""
    package = os.path.dirname(loopbundle.__file__)
    events = []

    def local(frame, event, arg):
        if event == "exception":
            events.append(frame.f_code.co_name)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(package) else None

    old = sys.gettrace()
    sys.settrace(calls)
    try:
        f()
    finally:
        sys.settrace(old)
    return events


def test_hot_paths_raise_no_exception_inside_the_library():
    rz = zoo.make_loop("rz")
    xs, ts = np.linspace(0.001, 0.03, 5), np.linspace(0.002, 0.02, 5)
    # a complex-step stage velocity of the Lie-equation reconstruction
    assert _library_exceptions(lambda: reconstruct._velocity(rz, [0.02], [0.7])) == []
    # batched complex-step rz divisions, stepped in the divisor and in the target
    with quiet():
        assert _library_exceptions(lambda: rz.left_div([xs + 1j * H], [ts])) == []
        assert _library_exceptions(lambda: rz.left_div([xs], [ts + 1j * H])) == []
    # the checked float wrappers on every catalog loop
    for name in zoo.catalog_names():
        L = zoo.make_loop(name)
        rng = np.random.default_rng(3)
        a, b, c = L.sample(rng), L.sample(rng), L.sample(rng)
        assert _library_exceptions(lambda: core.product(L, a, b)) == [], name
        assert _library_exceptions(lambda: core.ad_map(L, b, a, c)) == [], name


def test_one_element_batch_is_a_batch():
    # every array with an axis is a batch, so a batch of one point gives
    # one column; a 0-d array is a number.  numpy 1.25 deprecated reading a
    # size-1 array as a number, so no step may lean on it
    L = zoo.make_loop("qc")
    a, b = [0.1, 0.2], [0.2, -0.1]
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        out = core.product(L, [np.array([v]) for v in a], [np.array([v]) for v in b])
        assert out.shape == (2, 1)
        assert out[:, 0].tolist() == core.product(L, np.array(a), np.array(b)).tolist()
        assert primal(np.array([0.1])).__class__ is np.ndarray
        assert primal(np.array([0.1 + 1j * H])).__class__ is np.ndarray
        assert primal(np.array(0.1)).__class__ is float
