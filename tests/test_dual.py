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
from loopbundle.dual import (Dual, Jet, complex_step, dirderiv, dual_parts, gcos, gfloor,
                             ginv, gsin, gsolve, jacobian, jet_space, near_zero, pack,
                             primal, quiet, seed)
from leveled_dual import (RefDual, _assert_parts_close, _carrier_maker,
                          _coefficients, next_level, ref_dirderiv, ref_gsolve,
                          ref_jacobian)


def test_arithmetic_first_derivatives():
    x = Dual(2.0, 1.0)
    y = x * x * x - 4.0 * x + 1.0
    assert y.re == pytest.approx(1.0)
    assert y.du == pytest.approx(3 * 4.0 - 4.0)


def test_division_derivative():
    x = Dual(3.0, 1.0)
    y = 1.0 / x
    assert y.re == pytest.approx(1.0 / 3.0)
    assert y.du == pytest.approx(-1.0 / 9.0)
    z = x / (x + 1.0)
    assert z.du == pytest.approx(1.0 / 16.0)


@pytest.mark.parametrize("fn,ref,dref", [
    (gsin, math.sin, math.cos),
    (gcos, math.cos, lambda t: -math.sin(t)),
])
def test_scalar_functions(fn, ref, dref):
    t = 0.7
    for x in (Dual(t, 1.0), RefDual(t, 1.0, next_level())):
        out = fn(x)
        assert out.__class__ is x.__class__
        assert out.re == pytest.approx(ref(t), abs=1e-14)
        assert out.du == pytest.approx(dref(t), abs=1e-14)


@pytest.mark.parametrize("x", [0.0, math.pi / 2, -math.pi / 2, 1e-300, 1e6])
def test_complex_step_elementaries_equal_the_dual_rules(x):
    # complex(x, h d) is Dual(x, d) scaled by h in its imaginary part: the
    # real part is the primal and the imaginary part h times the dual
    # part, bit for bit.
    h = 2.0 ** -600
    for d in (1.0, -0.37, 3.5e7):
        z, want = complex(x, h * d), Dual(x, d)
        for fn in (gsin, gcos):
            out, ref = fn(z), fn(want)
            assert out.__class__ is complex
            assert out.real == ref.re and out.imag == h * ref.du, (fn.__name__, d)
        assert primal(z).__class__ is float and primal(z) == primal(want) == x


def test_complex_step_equals_the_dual_pass():
    # At a zero point the quotient's divisor has real part exactly 1.
    p, q = 0.3, -1.7
    f = lambda v: [p * gsin(v[0]) + gcos(q + v[1]) * v[0],
                   (p + v[0] * v[1]) / (1.0 + q * v[1] + p * v[0])]
    for v in ([1.0, 0.0], [0.2, -2.5], [1e-100, 3e-100], [1e30, -2e30]):
        got = complex_step(f, [0.0, 0.0], v)
        assert all(d.__class__ is float for d in got)
        assert got == dirderiv(f, [0.0, 0.0], v).tolist(), v


def test_nested_levels_mixed_second_derivative():
    # f(x, y) = x^2 y; d2f/dxdy = 2x, which an untagged dual would drop.
    # The outer epsilon is the leveled carrier's; the library pass is inside.
    def inner(x, y):
        return x * x * y

    x = RefDual(1.5, 1.0, next_level())
    col = jacobian(lambda ys: [inner(x, ys[0])], [2.0])
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
    # the same nesting with the outer pass leveled gives d2f/dx dy = 2x
    hess = ref_jacobian(inner, [1.5, 2.0])
    assert np.asarray(hess, dtype=float)[1, 0] == 3.0


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
        assert np.array_equal(got[:, i], dirderiv(f, [t], [1.0])), i


def test_dual_parts_ignores_other_levels():
    # A leveled carrier's epsilon is another level: an output that did not
    # reach the library pass contributes 0, not the carrier's part.
    outer = RefDual(1.0, 5.0, next_level())
    xs = seed([outer, 2.0], [1.0, 0.0])
    assert dual_parts([outer, 2.0]) == [0.0, 0.0]
    assert dual_parts(xs) == [1.0, 0.0]


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
    for i in range(2):
        for j in range(2):
            at[i, j] = Dual(a0[i, j], da[i, j])
    b2 = np.array([1.0, 2.0])
    sol = ref_gsolve(at, b2)
    expect = -np.linalg.inv(a0) @ da @ np.linalg.solve(a0, b2)
    got = np.array([s.du for s in sol])
    assert np.allclose(got, expect)


def test_ginv_dual_free():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(ginv(a), np.linalg.inv(a))


def test_pack_keeps_duals():
    for x in (Dual(1.0, 2.0), RefDual(1.0, 2.0, next_level())):
        out = pack([x, 3.0])
        assert out.dtype == object
        assert primal(out[0]) == 1.0


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
    for carrier in (Dual(1.0, 2.0), jet):
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
    x = Dual(t, 1.0)
    f = a * x + b
    g = x * x + 1.0
    h = f * g
    assert h.du == pytest.approx(f.du * g.re + f.re * g.du, abs=1e-9)


# -- equivalence with the reference operators ---------------------------------
#
# At one level, ``RefDual``'s generic rule (split both operands at the
# higher of their levels) combines the ``re`` and ``du`` parts as the
# library's ``Dual`` does.  The two must perform the same operations,
# operand for operand: every component of every result tree, the number of
# nodes built and the exceptions raised must match.

_BINARY = {"+": lambda x, y: x + y, "-": lambda x, y: x - y,
           "*": lambda x, y: x * y, "/": lambda x, y: x / y}


def _random_number(rng):
    u = rng.random()
    if u < 0.04:
        return math.nan
    if u < 0.08:
        return rng.choice([math.inf, -math.inf])
    if u < 0.11:
        return rng.choice([0.0, -0.0, 0])
    if u < 0.25:
        return rng.randint(-3, 3)
    if u < 0.45:
        return np.float64(rng.uniform(-2.0, 2.0))
    return rng.uniform(-2.0, 2.0)


def _random_leaf(rng):
    """A number, or a one-level dual with number parts."""
    if rng.random() < 0.3:
        return ("num", _random_number(rng))
    if rng.random() < 0.3:
        # a seed direction, as ``jacobian`` attaches them
        du = ("num", rng.choice([0.0, 1.0]))
    else:
        du = ("num", _random_number(rng))
    return ("dual", ("num", _random_number(rng)), du)


def _random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.15:
        return _random_leaf(rng)
    u = rng.random()
    if u < 0.7:
        return ("bin", rng.choice(sorted(_BINARY)),
                _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if u < 0.8:
        return ("neg", _random_expr(rng, depth - 1))
    if u < 0.9:
        return ("pow", _random_expr(rng, depth - 1), rng.randint(0, 3))
    return ("recip", _random_expr(rng, depth - 1))


def _evaluate(spec, make):
    tag = spec[0]
    if tag == "num":
        return spec[1]
    if tag == "dual":
        return make(_evaluate(spec[1], make), _evaluate(spec[2], make))
    if tag == "bin":
        return _BINARY[spec[1]](_evaluate(spec[2], make), _evaluate(spec[3], make))
    if tag == "neg":
        return -_evaluate(spec[1], make)
    if tag == "pow":
        return _evaluate(spec[1], make) ** spec[2]
    return 1.0 / _evaluate(spec[1], make)


def _tree(x):
    """Every component of ``x``, with floats by bit pattern and NaN as 'nan'."""
    if isinstance(x, Dual):
        return ("dual", _tree(x.re), _tree(x.du))
    if isinstance(x, (float, np.floating)):
        return (type(x).__name__, "nan" if math.isnan(x) else float(x).hex())
    return (type(x).__name__, repr(x))


def _outcome(spec, make):
    try:
        return _tree(_evaluate(spec, make))
    except (ZeroDivisionError, OverflowError) as exc:
        return ("raised", type(exc).__name__)


def test_level_dispatch_matches_reference_operators(monkeypatch):
    nodes = [0]

    def counting_init(obj, re, du=0.0, lvl=0):
        obj.re = re
        obj.du = du
        obj.lvl = lvl
        nodes[0] += 1

    monkeypatch.setattr(Dual, "__init__", counting_init)
    lvl = next_level()
    rng = random.Random(20260806)
    seen_nan = seen_large = 0
    with np.errstate(all="ignore"):
        for _ in range(600):
            spec = _random_expr(rng, rng.randint(1, 6))
            nodes[0] = RefDual.nodes = 0
            got = _outcome(spec, Dual)
            want = _outcome(spec, lambda re, du: RefDual(re, du, lvl))
            assert got == want, spec
            assert nodes[0] == RefDual.nodes, spec
            seen_nan += "'nan'" in repr(want)
            seen_large += nodes[0] > 10
    # The sample exercises non-finite parts and large expression trees.
    assert seen_nan > 50 and seen_large > 100


# -- sparse seeding against dense seeding -------------------------------------
#
# ``dense_seed`` is the rule ``seed`` used to follow: every coordinate becomes
# a dual, zero directions included.  On finite inputs ``jacobian`` and
# ``dirderiv`` must give every epsilon coefficient equal (``==``) under both,
# for expressions built from + - * and negation, ``gsin`` and scaling by a
# reciprocal.  A quotient one of whose operands is an unseeded number rounds
# differently, see ``test_quotient_of_unseeded_number_rounds_differently``.

def dense_seed(x, direction):
    return [Dual(xi, vi) for xi, vi in zip(x, direction)]


def _assert_equal_components(got, want):
    got, want = np.asarray(got, dtype=object), np.asarray(want, dtype=object)
    assert got.shape == want.shape
    for g, w in zip(got.reshape(-1), want.reshape(-1)):
        cg, cw = _coefficients(g), _coefficients(w)
        for mono in set(cg) | set(cw):
            assert cg.get(mono, 0.0) == cw.get(mono, 0.0), (mono, g, w)


def _random_map(rng, n, depth):
    """A random finite expression in the inputs, as a tree."""
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.75:
            return ("var", rng.randrange(n))
        return ("num", rng.choice([0.0, 1.0, -0.5, rng.uniform(-2.0, 2.0)]))
    u = rng.random()
    if u < 0.6:
        return ("bin", rng.choice("+-*"), _random_map(rng, n, depth - 1),
                _random_map(rng, n, depth - 1))
    if u < 0.75:
        # scaling by 1 / (1 + e^2) stays finite
        return ("scale", _random_map(rng, n, depth - 1), _random_map(rng, n, depth - 1))
    if u < 0.85:
        return ("sin", _random_map(rng, n, depth - 1))
    return ("neg", _random_map(rng, n, depth - 1))


def _apply(tree, xs):
    tag = tree[0]
    if tag == "var":
        return xs[tree[1]]
    if tag == "num":
        return tree[1]
    if tag == "bin":
        return _BINARY[tree[1]](_apply(tree[2], xs), _apply(tree[3], xs))
    if tag == "scale":
        den = _apply(tree[2], xs)
        return _apply(tree[1], xs) * (1.0 / (1.0 + den * den))
    if tag == "sin":
        return gsin(_apply(tree[1], xs))
    return -_apply(tree[1], xs)


def _random_input(rng, levels):
    """A float, or a leveled carrier over some of the outer ``levels``
    with finite parts."""
    if not levels or rng.random() < 0.3:
        return rng.uniform(-1.5, 1.5)
    lvl = levels[-1]
    inner = levels[:-1]
    du = rng.choice([0.0, 1.0]) if rng.random() < 0.3 else _random_input(rng, inner)
    return RefDual(_random_input(rng, inner), du, lvl)


def test_sparse_seeding_matches_dense_seeding(monkeypatch):
    import loopbundle.dual as dual_module

    rng = random.Random(20261018)
    checked = 0
    for _ in range(120):
        n = rng.randint(1, 4)
        maps = [_random_map(rng, n, rng.randint(1, 5)) for _ in range(rng.randint(1, 3))]
        f = lambda xs: [_apply(t, xs) for t in maps]
        outer = rng.randint(0, 2)
        levels = [next_level() for _ in range(outer)]
        x = [_random_input(rng, levels) for _ in range(n)]
        v = [rng.choice([0.0, 0.0, 1.0, rng.uniform(-1.0, 1.0)]) for _ in range(n)]
        # nest the library jacobian in one more leveled pass, so 1-3 outer
        # levels occur per input
        nested = lambda xs: list(np.asarray(jacobian(f, xs), dtype=object).reshape(-1))
        for passes in ((jacobian, dirderiv, f), (ref_jacobian, ref_dirderiv, nested)):
            jac, der, g = passes
            sparse = (jac(g, x), der(g, x, v))
            monkeypatch.setattr(dual_module, "seed", dense_seed)
            dense = (jac(g, x), der(g, x, v))
            monkeypatch.undo()
            for got, want in zip(sparse, dense):
                _assert_equal_components(got, want)
            checked += 1
    assert checked == 240


def test_seed_leaves_zero_directions_alone():
    lvl = next_level()
    outer = RefDual(0.5, 1.0, lvl)
    x = [outer, 2.5, np.float64(-1.0), 3.0, 4.0, 5.0]
    direction = [0.0, 1.0, -0.0, np.float64(0.0), RefDual(0.0, 0.0, lvl), math.nan]
    out = seed(x, direction)
    assert out[0] is outer and out[2] is x[2] and out[3] is x[3]
    assert out[1].__class__ is Dual and (out[1].re, out[1].du) == (2.5, 1.0)
    # a carrier direction and a NaN direction are seeded
    assert out[4].__class__ is Dual and out[4].du is direction[4]
    assert out[5].__class__ is Dual and math.isnan(out[5].du)
    with pytest.raises(TypeError, match="does not nest"):
        seed([1.0, out[1]], [1.0, 0.0])


def test_nan_in_unseeded_coordinate_keeps_primal_nan():
    f = lambda v: [v[0] * v[1] + v[1], v[0] + 0.0 * v[1], v[1] - v[0]]
    out = f(seed([math.nan, 2.0], [0.0, 1.0]))
    assert all(math.isnan(primal(y)) for y in out)
    # where the derivative of a function of the seeded coordinate does not
    # involve the non-finite one, sparse seeding keeps it finite: dense
    # seeding would give inf * 0.0 = NaN here
    g = lambda v: [v[0] * v[0] + v[1]]
    col = jacobian(g, [math.inf, 2.0])
    assert float(col[0][0]) == math.inf and float(col[0][1]) == 1.0


def test_quotient_of_unseeded_number_rounds_differently(monkeypatch):
    import loopbundle.dual as dual_module

    # Under dense seeding x / y of two unseeded coordinates was the dual
    # quotient x * (1 / y); now it is the float quotient x / y.  The two
    # agree to rounding and here differ in the last bit.
    x, y = 5.0, 7.0
    f = lambda v: [v[0] / v[1] * v[2]]
    sparse = f(seed([x, y, 1.0], [0.0, 0.0, 1.0]))[0]
    monkeypatch.setattr(dual_module, "seed", dense_seed)
    dense = f(dual_module.seed([x, y, 1.0], [0.0, 0.0, 1.0]))[0]
    assert sparse.re == sparse.du == x / y
    assert dense.re == dense.du == x * (1.0 / y)
    assert x / y != x * (1.0 / y) and abs(x / y - x * (1.0 / y)) <= 1.2e-16


def test_library_routes_never_nest_duals(monkeypatch, capsys):
    # No library route builds a Dual whose primal part is itself a Dual.
    from loopbundle import cli, gauge
    from loopbundle.zoo import make_loop

    nested = [0]

    def counting_init(obj, re, du=0.0, lvl=0):
        obj.re = re
        obj.du = du
        obj.lvl = lvl
        if re.__class__ is Dual:
            nested[0] += 1

    monkeypatch.setattr(Dual, "__init__", counting_init)
    for name in ("rz", "qc", "qh2", "qsu2", "qhr:K=1"):
        assert cli.main(["verify", "--loop", name, "--suite", "all", "--samples", "3",
                         "--seed", "1", "--steps", "16"]) == 0
    capsys.readouterr()
    L = make_loop("qc")
    form = gauge.make_test_potential(L, 2, seed=57)
    x, y = [0.2, -0.1], [0.1, 0.25]
    f = lambda xs, ys: xs[0] * ys[1] + 0.3 * xs[1] * ys[0] * ys[0]
    q_map = lambda xs: [gcos(0.4 + 0.7 * xs[0]), gsin(0.4 + 0.7 * xs[0] - 0.3 * xs[1])]
    gauge.commutator_residual(form, 0, 1, f, x, y)
    gauge.curvature(form, x, y)
    gauge.curvature_gauge_residual(form, q_map, x)
    gauge.omega_annihilates_d_residual(form, x, y, 0)
    gauge.hor_field(form, [1.0, 0.5])(x + y)
    assert nested[0] == 0


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
    # One carry step on a one-level dual; three steps built 38 and 48.
    nodes = [0]

    def counting_init(obj, re, du=0.0, lvl=0):
        obj.re = re
        obj.du = du
        obj.lvl = lvl
        nodes[0] += 1

    L = zoo.make_loop("rz")
    a, b = Dual(0.03, 1.0), Dual(0.4, 1.0)
    monkeypatch.setattr(Dual, "__init__", counting_init)
    for args, count in ((([0.03], [b]), 10), (([a], [0.4]), 20)):
        nodes[0] = 0
        L.left_div(*args)
        assert nodes[0] == count


def test_carry_steps_follow_the_carrier_order():
    from loopbundle.dual import _order, jet_space

    lvl = next_level()
    assert _order(0.5) == 0 and _order(np.zeros(3)) == 0
    assert _order(Dual(0.5, 1.0)) == _order(Dual(np.zeros(3), np.ones(3))) == 1
    assert _order(Dual(RefDual(0.5, 1.0, lvl), 2.0)) == 2
    assert _order(RefDual(0.5, RefDual(1.0, 1.0, lvl), lvl + 1)) == 2
    # a jet's order is its space's degree: one more than the order in alpha
    assert _order(jet_space(1, 1).variable(0.5, ((0,), ()))) == 2
    assert _order(jet_space(1, 2).variable(0.5, ((0,), ()))) == 3


# -- the dispatch ladder of the elementaries ------------------------------------
#
# The bodies below are the elementaries as they were before they tested the
# carrier classes with ``__class__ is``: they reached complex steps, duals and
# batch arrays through a TypeError.  The library's must give the same value
# and type on every input.

def ref_primal(x):
    while isinstance(x, Dual):
        x = x.re
    if x.__class__ is Jet:
        return float(x.c[0])
    try:
        return float(x)
    except TypeError:
        if x.__class__ is np.ndarray:
            return x
        return x.real if x.__class__ is complex else x


def ref_gsin(x):
    if x.__class__ is Jet:
        return x._trig(0)
    try:
        return math.sin(x)
    except TypeError:
        pass
    except ValueError:
        return math.nan
    if x.__class__ is Dual:
        return Dual(ref_gsin(x.re), ref_gcos(x.re) * x.du)
    if x.__class__ is np.ndarray:
        return np.sin(x)
    if x.__class__ is complex:
        return cmath.sin(x)
    return x._trig(0)


def ref_gcos(x):
    if x.__class__ is Jet:
        return x._trig(1)
    try:
        return math.cos(x)
    except TypeError:
        pass
    except ValueError:
        return math.nan
    if x.__class__ is Dual:
        return Dual(ref_gcos(x.re), -ref_gsin(x.re) * x.du)
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
    while isinstance(x, Dual):
        x = x.re
    if x.__class__ is Jet:
        x = x.c[0]
    if x.__class__ is np.ndarray:
        return (abs(x) < bound).any()
    return abs(x) < bound


def _assert_same(got, want):
    """The same class and the same value bit for bit, part by part."""
    assert got.__class__ is want.__class__, (got, want)
    if isinstance(want, Dual):
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
            arr, math.inf, -math.inf, math.nan, Dual(0.3, 1.5),
            Dual(arr, np.array([1.0, -2.0, 0.5, 1.0, 3.0])), Dual(jet, djet), jet,
            RefDual(0.3, 0.7, next_level()), RefDual(Dual(-0.8, 0.1), 0.2, next_level())]


@pytest.mark.parametrize("x", _ladder_inputs(), ids=repr)
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
    # batched Dual rz divisions, seeded in the divisor and in the target
    with quiet():
        assert _library_exceptions(lambda: rz.left_div([Dual(xs, np.ones(5))], [ts])) == []
        assert _library_exceptions(lambda: rz.left_div([xs], [Dual(ts, np.ones(5))])) == []
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
        assert primal(Dual(np.array([0.1]), np.array([1.0]))).__class__ is np.ndarray
        assert primal(np.array(0.1)).__class__ is float
