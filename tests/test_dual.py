import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from loopbundle.dual import (Dual, dirderiv, dual_parts, gcos, ginv, gsin,
                             gsolve, jacobian, next_level, pack, primal, seed)


def test_arithmetic_first_derivatives():
    x = Dual(2.0, 1.0, lvl=next_level())
    y = x * x * x - 4.0 * x + 1.0
    assert y.re == pytest.approx(1.0)
    assert y.du == pytest.approx(3 * 4.0 - 4.0)


def test_division_derivative():
    lvl = next_level()
    x = Dual(3.0, 1.0, lvl)
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
    out = fn(Dual(t, 1.0, next_level()))
    assert out.re == pytest.approx(ref(t), abs=1e-14)
    assert out.du == pytest.approx(dref(t), abs=1e-14)


def test_nested_levels_mixed_second_derivative():
    # f(x, y) = x^2 y; d2f/dxdy = 2x, which an untagged dual would drop.
    def inner(x, y):
        return x * x * y

    outer_lvl = next_level()
    x = Dual(1.5, 1.0, outer_lvl)
    col = jacobian(lambda ys: [inner(x, ys[0])], [2.0])
    entry = col[0][0]  # df/dy carrying the outer epsilon
    assert primal(entry) == pytest.approx(1.5 ** 2)
    assert isinstance(entry, Dual)
    assert entry.du == pytest.approx(2 * 1.5)


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


def test_dual_parts_ignores_other_levels():
    lvl_a = next_level()
    lvl_b = next_level()
    xs = seed([1.0, 2.0], [1.0, 0.0], lvl_a)
    assert dual_parts(xs, lvl_b) == [0.0, 0.0]
    assert dual_parts(xs, lvl_a) == [1.0, 0.0]


def test_gsolve_matches_numpy_and_propagates_duals():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal(3)
    assert np.allclose(gsolve(a, b), np.linalg.solve(a, b))

    # derivative of solve(A(t), b) by duals vs the closed form -A^-1 A' A^-1 b
    lvl = next_level()
    at = np.empty((2, 2), dtype=object)
    a0 = np.array([[2.0, 1.0], [0.5, 3.0]])
    da = np.array([[1.0, 0.0], [0.0, -1.0]])
    for i in range(2):
        for j in range(2):
            at[i, j] = Dual(a0[i, j], da[i, j], lvl)
    b2 = np.array([1.0, 2.0])
    sol = gsolve(at, b2)
    expect = -np.linalg.inv(a0) @ da @ np.linalg.solve(a0, b2)
    got = np.array([s.du for s in sol])
    assert np.allclose(got, expect)


def test_ginv_dual_free():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(ginv(a), np.linalg.inv(a))


def test_pack_keeps_duals():
    lvl = next_level()
    out = pack([Dual(1.0, 2.0, lvl), 3.0])
    assert out.dtype == object
    assert primal(out[0]) == 1.0


@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_product_rule(a, b, t):
    lvl = next_level()
    x = Dual(t, 1.0, lvl)
    f = a * x + b
    g = x * x + 1.0
    h = f * g
    assert h.du == pytest.approx(f.du * g.re + f.re * g.du, abs=1e-9)


# -- equivalence with the reference operators ---------------------------------
#
# ``RefDual`` implements the generic rule: every operation on two duals
# splits both operands with ``_ref_parts`` at the higher of their levels.
# The level-dispatching operators of ``Dual`` must perform the same
# operations, operand for operand: every component of every result tree,
# the number of nodes built and the exceptions raised must match.

_REF_NUMBERS = (int, float, np.floating, np.integer)


class RefDual:
    __slots__ = ("re", "du", "lvl")
    nodes = 0

    def __init__(self, re, du=0.0, lvl=0):
        self.re = re
        self.du = du
        self.lvl = lvl
        RefDual.nodes += 1

    def __add__(self, other):
        if isinstance(other, RefDual):
            lvl = max(self.lvl, other.lvl)
            ar, ad = _ref_parts(self, lvl)
            br, bd = _ref_parts(other, lvl)
            return RefDual(ar + br, ad + bd, lvl)
        if isinstance(other, _REF_NUMBERS):
            return RefDual(self.re + other, self.du, self.lvl)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, RefDual):
            lvl = max(self.lvl, other.lvl)
            ar, ad = _ref_parts(self, lvl)
            br, bd = _ref_parts(other, lvl)
            return RefDual(ar - br, ad - bd, lvl)
        if isinstance(other, _REF_NUMBERS):
            return RefDual(self.re - other, self.du, self.lvl)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _REF_NUMBERS):
            return RefDual(other - self.re, -self.du, self.lvl)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, RefDual):
            lvl = max(self.lvl, other.lvl)
            ar, ad = _ref_parts(self, lvl)
            br, bd = _ref_parts(other, lvl)
            return RefDual(ar * br, ar * bd + ad * br, lvl)
        if isinstance(other, _REF_NUMBERS):
            return RefDual(self.re * other, self.du * other, self.lvl)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, RefDual):
            lvl = max(self.lvl, other.lvl)
            ar, ad = _ref_parts(self, lvl)
            br, bd = _ref_parts(other, lvl)
            inv = 1.0 / br if isinstance(br, _REF_NUMBERS) else _ref_reciprocal(br)
            q = ar * inv
            return RefDual(q, (ad - q * bd) * inv, lvl)
        if isinstance(other, _REF_NUMBERS):
            return RefDual(self.re / other, self.du / other, self.lvl)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _REF_NUMBERS):
            inv = _ref_reciprocal(self)
            return inv * other
        return NotImplemented

    def __neg__(self):
        return RefDual(-self.re, -self.du, self.lvl)

    def __pow__(self, n):
        out = 1.0
        for _ in range(n):
            out = out * self if isinstance(out, RefDual) else self * out
        return out


def _ref_parts(x, lvl):
    if isinstance(x, RefDual) and x.lvl == lvl:
        return x.re, x.du
    return x, 0.0


def _ref_reciprocal(x):
    if isinstance(x, _REF_NUMBERS):
        return 1.0 / x
    inv = _ref_reciprocal(x.re)
    return RefDual(inv, -(x.du * inv) * inv, x.lvl)


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


def _random_leaf(rng, top):
    """A number, or a dual of level <= ``top`` whose parts have lower levels."""
    if top == 0 or rng.random() < 0.3:
        return ("num", _random_number(rng))
    lvl = rng.randint(1, top)
    if rng.random() < 0.3:
        # a seed direction, as ``jacobian`` attaches them
        du = ("num", rng.choice([0.0, 1.0]))
    else:
        du = _random_leaf(rng, lvl - 1)
    return ("dual", lvl, _random_leaf(rng, lvl - 1), du)


def _random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.15:
        return _random_leaf(rng, 3)
    u = rng.random()
    if u < 0.7:
        return ("bin", rng.choice(sorted(_BINARY)),
                _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if u < 0.8:
        return ("neg", _random_expr(rng, depth - 1))
    if u < 0.9:
        return ("pow", _random_expr(rng, depth - 1), rng.randint(0, 3))
    return ("recip", _random_expr(rng, depth - 1))


def _evaluate(spec, cls):
    tag = spec[0]
    if tag == "num":
        return spec[1]
    if tag == "dual":
        return cls(_evaluate(spec[2], cls), _evaluate(spec[3], cls), spec[1])
    if tag == "bin":
        return _BINARY[spec[1]](_evaluate(spec[2], cls), _evaluate(spec[3], cls))
    if tag == "neg":
        return -_evaluate(spec[1], cls)
    if tag == "pow":
        return _evaluate(spec[1], cls) ** spec[2]
    return 1.0 / _evaluate(spec[1], cls)


def _tree(x, cls):
    """Every component of ``x``, with floats by bit pattern and NaN as 'nan'."""
    if isinstance(x, cls):
        return ("dual", x.lvl, _tree(x.re, cls), _tree(x.du, cls))
    if isinstance(x, (float, np.floating)):
        return (type(x).__name__, "nan" if math.isnan(x) else float(x).hex())
    return (type(x).__name__, repr(x))


def _outcome(spec, cls):
    try:
        return _tree(_evaluate(spec, cls), cls)
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
    rng = random.Random(20260806)
    seen_nan = seen_mixed = 0
    with np.errstate(all="ignore"):
        for _ in range(600):
            spec = _random_expr(rng, rng.randint(1, 6))
            nodes[0] = RefDual.nodes = 0
            got = _outcome(spec, Dual)
            want = _outcome(spec, RefDual)
            assert got == want, spec
            assert nodes[0] == RefDual.nodes, spec
            seen_nan += "'nan'" in repr(want)
            seen_mixed += nodes[0] > 10
    # The sample exercises non-finite parts and nested mixed-level trees.
    assert seen_nan > 50 and seen_mixed > 100


# -- sparse seeding against dense seeding -------------------------------------
#
# ``dense_seed`` is the rule ``seed`` used to follow: every coordinate becomes
# a dual, zero directions included.  On finite inputs ``jacobian`` and
# ``dirderiv`` must give every epsilon coefficient equal (``==``) under both,
# for expressions built from + - * and negation, ``gsin`` and scaling by a
# reciprocal.  A quotient one of whose operands is an unseeded number rounds
# differently, see ``test_quotient_of_unseeded_number_rounds_differently``.

def dense_seed(x, direction, lvl=None):
    if lvl is None:
        lvl = next_level()
    return [Dual(xi, vi, lvl) for xi, vi in zip(x, direction)]


def _coefficients(x, monomial=frozenset(), out=None):
    """Map each product of epsilon levels to its coefficient in ``x``."""
    out = {} if out is None else out
    if isinstance(x, Dual):
        _coefficients(x.re, monomial, out)
        _coefficients(x.du, monomial | {x.lvl}, out)
    else:
        out[monomial] = out.get(monomial, 0.0) + float(x)
    return out


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
    """A float, or a dual over some of the outer ``levels`` with finite parts."""
    if not levels or rng.random() < 0.3:
        return rng.uniform(-1.5, 1.5)
    lvl = levels[-1]
    inner = levels[:-1]
    du = rng.choice([0.0, 1.0]) if rng.random() < 0.3 else _random_input(rng, inner)
    return Dual(_random_input(rng, inner), du, lvl)


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
        # nest one more jacobian inside, so levels 1-3 occur per input
        nested = lambda xs: list(np.asarray(jacobian(f, xs), dtype=object).reshape(-1))
        for g in (f, nested):
            sparse = (jacobian(g, x), dirderiv(g, x, v))
            monkeypatch.setattr(dual_module, "seed", dense_seed)
            dense = (jacobian(g, x), dirderiv(g, x, v))
            monkeypatch.undo()
            for got, want in zip(sparse, dense):
                _assert_equal_components(got, want)
            checked += 1
    assert checked == 240


def test_seed_leaves_zero_directions_alone():
    outer_lvl = next_level()
    lvl = next_level()
    outer = Dual(0.5, 1.0, outer_lvl)
    x = [outer, 2.5, np.float64(-1.0), 3.0, 4.0, 5.0]
    direction = [0.0, 1.0, -0.0, np.float64(0.0), Dual(0.0, 0.0, outer_lvl), math.nan]
    out = seed(x, direction, lvl)
    assert out[0] is outer and out[2] is x[2] and out[3] is x[3]
    assert isinstance(out[1], Dual) and (out[1].re, out[1].du, out[1].lvl) == (2.5, 1.0, lvl)
    # a dual direction and a NaN direction are seeded
    assert isinstance(out[4], Dual) and out[4].lvl == lvl
    assert isinstance(out[5], Dual) and math.isnan(out[5].du)


def test_nan_in_unseeded_coordinate_keeps_primal_nan():
    f = lambda v: [v[0] * v[1] + v[1], v[0] + 0.0 * v[1], v[1] - v[0]]
    lvl = next_level()
    out = f(seed([math.nan, 2.0], [0.0, 1.0], lvl))
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
    sparse = f(seed([x, y, 1.0], [0.0, 0.0, 1.0], next_level()))[0]
    monkeypatch.setattr(dual_module, "seed", dense_seed)
    dense = f(dual_module.seed([x, y, 1.0], [0.0, 0.0, 1.0], next_level()))[0]
    assert sparse.re == sparse.du == x / y
    assert dense.re == dense.du == x * (1.0 / y)
    assert x / y != x * (1.0 / y) and abs(x / y - x * (1.0 / y)) <= 1.2e-16
