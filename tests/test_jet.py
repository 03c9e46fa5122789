"""Taylor jets: the elementaries against nested duals, and the jet
structure functions, Jacobi residual and Maurer-Cartan identity against
the nested-dual routines they replaced, which are kept below as the
reference.  Every pass of a reference is leveled (``leveled_dual``): the
frames and differentials are leveled Jacobians of the raw closed forms."""

import collections
import dataclasses
import math
import warnings

import numpy as np
import pytest

from loopbundle import core, gauge, reconstruct, tangent
from loopbundle.dual import (_STEP as H, Jet, JetDivisor, JetSpace, gcos, gdot, gfloor,
                             gsin, jet_space, near_zero, pack, primal, quiet, taylor_frame)
from loopbundle.errors import DomainSingularity
from loopbundle.report import worst_residual
from loopbundle.zoo import SINGULAR_DENOM, make_loop, parse_spec

from leveled_dual import ref_differential, ref_dirderiv, ref_frame, ref_gsolve, ref_jacobian


# -- the nested-dual reference ------------------------------------------------

def ref_structure_tensor(L, a, side="left"):
    """The nested-dual structure tensor: a Jacobian of the dual frame."""
    n = L.dim
    r = ref_frame(L, a, side)

    def flat_frame(x):
        fr = ref_frame(L, x, side)
        return [fr[k][i] for k in range(n) for i in range(n)]

    grad = ref_jacobian(flat_frame, a)
    rhs = np.empty((n, n * n), dtype=object)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc = 0.0
                for m in range(n):
                    acc = acc + r[m][i] * grad[k * n + j][m] - r[m][j] * grad[k * n + i][m]
                rhs[k, i * n + j] = acc
    return pack(ref_gsolve(r, rhs).reshape(n, n, n))


def ref_structure_derivative(L, a):
    """dc[p, m, i, j] = d_m C^p_ij: a Jacobian of the nested-dual tensor."""
    n = L.dim
    flat = ref_jacobian(lambda x: list(np.asarray(ref_structure_tensor(L, x)).reshape(-1)), a)
    dc = np.array([[primal(v) for v in row] for row in flat]).reshape(n, n, n, n)
    return dc.transpose(0, 3, 1, 2)


def ref_jacobi_residual(L, a):
    """The nested-dual Jacobi residual: a Jacobian of the structure tensor."""
    n = L.dim
    a = [float(x) for x in a]
    r = np.array([[primal(x) for x in row] for row in ref_frame(L, a)])
    c = np.asarray(ref_structure_tensor(L, a), dtype=float)
    dc = ref_structure_derivative(L, a).transpose(1, 0, 2, 3)  # dc[m, p, i, j]
    worst = 0.0
    for p in range(n):
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    deriv = (dc[:, p, i, j] @ r[:, k]
                             + dc[:, p, j, k] @ r[:, i]
                             + dc[:, p, k, i] @ r[:, j])
                    quad = (c[:, i, j] @ c[p, k, :]
                            + c[:, j, k] @ c[p, i, :]
                            + c[:, k, i] @ c[p, j, :])
                    worst = worst_residual(worst, abs(deriv + quad))
    return worst


def ref_parametric_form(L, a, b):
    """lambda(b; a) = l_(a,b)* . omega(b), with dual entries when ``b``
    carries duals."""
    lstar = ref_differential(L, core._left_associator, a, b)
    frame = ref_frame(L, b)
    n = L.dim
    omega = ref_gsolve(frame, np.eye(n))
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for r in range(n):
                acc = acc + lstar[i][r] * omega[r][j]
            out[i, j] = acc
    return out


def ref_parametric_derivative(L, a, b):
    """dlam[p][i][j] = d lambda^i_j / d b^p: a Jacobian of the dual form."""
    n = L.dim
    flat = ref_jacobian(lambda x: list(ref_parametric_form(L, a, x).reshape(-1)), b)
    return np.array([[primal(v) for v in row]
                     for row in flat]).reshape(n, n, n).transpose(2, 0, 1)


def ref_maurer_cartan_residual(L, b, a):
    """The nested-dual Maurer-Cartan residual."""
    n = L.dim
    b = [float(v) for v in b]
    a = [float(v) for v in a]
    lam = np.array([[primal(v) for v in row] for row in ref_parametric_form(L, a, b)])
    dlam = ref_parametric_derivative(L, a, b)
    c = tangent.structure_tensor_raw(L, core.product(L, a, b))
    worst = 0.0
    for i in range(n):
        for j in range(n):
            for p in range(n):
                res = (dlam[p, i, j] - dlam[j, i, p]
                       + np.einsum("mn,m,n->", c[i], lam[:, p], lam[:, j]))
                worst = worst_residual(worst, abs(res))
    return worst


REFERENCE_LOOPS = ["rz", "qc", "qh2", "qsu2",
                   "qhr:K=1", "qhr:K=0", "qhr:K=-2", "qhr:K=2.5"]


def _points(name):
    L = make_loop(name)
    rng = np.random.default_rng(11)
    pts = [list(L.sample(rng)) for _ in range(3)]
    if name in ("qc", "qsu2"):
        # points on the rim of the sampled disk
        pts += [[0.9 * math.cos(t), 0.9 * math.sin(t)] for t in (0.4, 2.5)]
    return L, pts


@pytest.mark.parametrize("name", REFERENCE_LOOPS)
def test_structure_tensor_matches_nested_dual_reference(name):
    L, pts = _points(name)
    for a in pts:
        got = tangent.structure_tensor_raw(L, a)
        assert got.dtype == float
        assert np.max(np.abs(got - ref_structure_tensor(L, a))) <= 1e-14
        got = tangent.structure_tensor_raw(L, a, side="right")
        want = ref_structure_tensor(L, a, side="right")
        assert np.max(np.abs(got - want)) <= 1e-14


@pytest.mark.parametrize("name", REFERENCE_LOOPS)
def test_jacobi_residual_matches_nested_dual_reference(name):
    L, pts = _points(name)
    for a in pts:
        got = tangent.jacobi_residual(L, a)
        assert abs(got - ref_jacobi_residual(L, a)) <= 1e-14
        assert got < 1e-12


@pytest.mark.parametrize("name", REFERENCE_LOOPS)
def test_structure_derivative_matches_nested_dual_reference(name):
    # The Jacobi residual alone does not see every error in dC: dropping
    # the d_l R C term of d_l C leaves it at rounding level.
    L, pts = _points(name)
    for a in pts:
        r, dr, d2r = tangent._frame_derivatives(L, a, "left", order=2)
        got = tangent._structure_derivative(r, dr, d2r, tangent._structure(r, dr))
        assert np.max(np.abs(got - ref_structure_derivative(L, a))) <= 1e-13


@pytest.mark.parametrize("name", REFERENCE_LOOPS)
def test_maurer_cartan_matches_nested_dual_reference(name):
    L, pts = _points(name)
    for a, b in zip(pts, pts[1:] + pts[:1]):
        lam, dlam = reconstruct._parametric_form(L, a, b)
        want = np.array([[primal(v) for v in row] for row in ref_parametric_form(L, a, b)])
        assert np.max(np.abs(lam - want)) <= 1e-14
        assert np.max(np.abs(dlam - ref_parametric_derivative(L, a, b))) <= 1e-13
        got = reconstruct.maurer_cartan_residual(L, b, a)
        assert abs(got - ref_maurer_cartan_residual(L, b, a)) <= 1e-14
        assert got < 1e-12


@pytest.mark.parametrize("name", ["rz", "qh2", "qhr:K=1"])
def test_taylor_frame_of_the_associator_matches_nested_jacobians(name):
    # rz divides by an iterative solve, which must carry the jets through
    L = make_loop(name)
    n = L.dim
    rng = np.random.default_rng(13)
    a, b = (list(0.7 * L.sample(rng)) for _ in range(2))

    def lstar(x):
        return list(np.asarray(ref_differential(L, core._left_associator, a, x)).reshape(-1))

    def floats(m):
        return np.array([primal(v) for v in np.asarray(m).flat])

    r, dr, d2r = taylor_frame(lambda x, c: core._left_associator(L, a, x, c),
                              b, list(L.identity), order=2)
    want_r = floats(lstar(b)).reshape(n, n)
    want_dr = floats(ref_jacobian(lstar, b)).reshape(n, n, n).transpose(2, 0, 1)
    want_d2r = floats(ref_jacobian(
        lambda x: list(np.asarray(ref_jacobian(lstar, x)).reshape(-1)),
        b)).reshape(n, n, n, n).transpose(3, 2, 0, 1)
    scale = 1.0 + np.max(np.abs(want_d2r))
    assert np.max(np.abs(r - want_r)) <= 1e-14 * scale
    assert np.max(np.abs(dr - want_dr)) <= 1e-14 * scale
    assert np.max(np.abs(d2r - want_d2r)) <= 1e-13 * scale


def test_rz_division_keeps_the_jet():
    L = make_loop("rz")
    space = jet_space(1, 2)
    x = space.variable(0.02, ((0,), ()))
    out = L.left_div([0.01], [x])[0]
    assert out.__class__ is Jet
    assert primal(out) == L.left_div([0.01], [0.02])[0]
    # a numpy float is a plain number: the float path stays as it was
    assert L.left_div([0.01], [np.float64(0.02)]) == L.left_div([0.01], [0.02])


def test_rz_divisions_keep_the_float_primal():
    # The carrier Newton steps may move the root by an ulp; the float root
    # replaces their primal, for duals and jets alike.
    L = make_loop("rz")
    space = jet_space(1, 2)
    rng = np.random.default_rng(2)
    for a, b in zip(rng.uniform(0.0, 0.1, 1000), rng.uniform(0.0, 1.0, 1000)):
        want = L.left_div([a], [b])[0]
        assert primal(L.left_div([a], [complex(b, H)])[0]) == want
        assert primal(L.left_div([a], [space.variable(b, ((0,), ()))])[0]) == want


@pytest.mark.parametrize("K", [1.0, 0.0, -2.5])
def test_qhr_right_divisions_keep_the_float_primal(K):
    # The closed form multiplies by the reciprocal of its denominator, as
    # dual and jet quotients do, so a carrier's primal equals the float
    # division bit for bit; dividing by the denominator would not.
    L = make_loop(f"qhr:K={K:g}")
    space = jet_space(1, 2)
    rng = np.random.default_rng(3)
    for _ in range(100):
        a, b = list(L.sample(rng)), list(L.sample(rng))
        want = L.right_div(b, a)
        k = int(rng.integers(4))
        for make in (lambda v: complex(v, H), lambda v: space.variable(v, ((0,), ()))):
            bc, ac = list(b), list(a)
            bc[k] = make(b[k])
            ac[3 - k] = make(a[3 - k])
            assert [primal(v) for v in L.right_div(bc, a)] == want
            assert [primal(v) for v in L.right_div(b, ac)] == want


def test_gsolve_keeps_jet_factors_with_zero_primal():
    # The references' carrier solve: x(s) = A(s)^-1 b with
    # A = [[2, s], [s, 3]] and b = (1, 1).  At s = 0 the off-diagonal
    # entries have primal 0 and a jet part, which must still reach
    # x'(0) = -A^-1 A' A^-1 b = (-1/6, -1/6).
    space = jet_space(1, 2)
    s = space.variable(0.0, ((0,), ()))
    a = pack([[2.0, s], [s, 3.0]])
    assert a.dtype == object
    x = ref_gsolve(a, pack([1.0, 1.0]))
    k = space.index[((0,), ())]
    assert [primal(v) for v in x] == pytest.approx([0.5, 1.0 / 3.0], abs=1e-15)
    assert [v.c[k] for v in x] == pytest.approx([-1.0 / 6.0, -1.0 / 6.0], abs=1e-15)


@pytest.mark.parametrize("name", ["rz", "qc", "qh2", "qhr:K=1"])
def test_taylor_frame_matches_nested_jacobians(name):
    # R, dR and d2R of one jet pass against one, two and three dual levels
    L = make_loop(name)
    n = L.dim
    a = list(0.7 * L.sample(np.random.default_rng(12)))

    def flat_frame(x):
        return list(np.asarray(ref_frame(L, x)).reshape(-1))

    def flat_grad(x):
        return list(np.asarray(ref_jacobian(flat_frame, x)).reshape(-1))

    def floats(m):
        return np.array([primal(v) for v in np.asarray(m).flat])

    r, dr, d2r = taylor_frame(L.product, a, list(L.identity), order=2)
    want_r = floats(ref_frame(L, a)).reshape(n, n)
    # jacobian(flat_frame)[k*n + i][m] = d_m R[k, i]
    want_dr = floats(ref_jacobian(flat_frame, a)).reshape(n, n, n).transpose(2, 0, 1)
    want_d2r = floats(ref_jacobian(flat_grad, a)).reshape(n, n, n, n).transpose(3, 2, 0, 1)
    scale = 1.0 + np.max(np.abs(want_d2r))
    assert np.max(np.abs(r - want_r)) <= 1e-14 * scale
    assert np.max(np.abs(dr - want_dr)) <= 1e-14 * scale
    assert np.max(np.abs(d2r - want_d2r)) <= 1e-13 * scale


def _order_maps(L, seed):
    """The maps whose jet passes the library truncates at order 1: the
    product, the left associator, the connection map, the potential map
    (x, v) -> A(x) v of both test kinds and a shifted test function."""
    rng = np.random.default_rng(seed)
    a, b = (list(0.7 * L.sample(rng)) for _ in range(2))
    x, y = list(rng.uniform(-0.3, 0.3, 2)), list(0.3 * L.sample(rng))
    coef = rng.standard_normal(2 + L.dim)

    def shifted(zs, vs):
        w = [p + q for p, q in zip(zs, vs)]
        return [gdot(coef, [v + 0.3 * v * v * v for v in w])]

    def potential(kind):
        form = gauge.make_test_potential(L, 2, seed=seed, kind=kind)
        return lambda xs, vs: [gdot(row, vs) for row in form.potential.A(xs)]

    e, z = list(L.identity), x + y
    return {
        "product": (L.product, a, e),
        "associator": (lambda p, c: core._left_associator(L, a, p, c), b, e),
        "connection": (gauge._connection_map(gauge.make_test_potential(L, 2, seed=seed)),
                       z, [0.0] * len(z)),
        "potential-poly": (potential("poly"), x, [0.0, 0.0]),
        "potential-trig": (potential("trig"), x, [0.0, 0.0]),
        "shifted": (shifted, z, [0.0] * len(z)),
    }


@pytest.mark.parametrize("name", ["rz", "qc", "qh2", "qsu2", "qhr:K=1", "qhr:K=0",
                                  "qhr:K=-2.5"])
def test_first_order_pass_matches_second_order_pass(name):
    # The coefficients of a truncated product up to |p| = 1 come from the
    # same pairs, summed in the same order, at either order, so R and dR
    # of an order-1 pass are the order-2 pass's bit for bit.  The one
    # exception is a map through an rz division: dual.carry runs one
    # simplified Newton step per degree, 2 on order-1 jets and 3 on
    # order-2 jets, and the third step moves the parts by the rounding of
    # a residual whose terms reach about 10.
    L = make_loop(name)
    for seed in range(3):
        for key, (f, a, e) in _order_maps(L, seed).items():
            first, second = taylor_frame(f, a, e, order=1), taylor_frame(f, a, e, order=2)
            assert len(first) == 2 and len(second) == 3
            if name == "rz" and key in ("associator", "connection"):
                scale = 1.0 + max(np.max(np.abs(d)) for d in second)
                for got, want in zip(first, second):
                    assert np.max(np.abs(got - want)) <= 1e-14 * scale, key
            else:
                for got, want in zip(first, second):
                    assert got.tobytes() == want.tobytes(), key


def test_rz_division_order_one_jets_match_order_two_jets():
    # The order-1 parts of an rz left division, carried by 2 Newton steps
    # on order-1 jets and by 3 on order-2 jets, agree to rounding
    # (see test_first_order_pass_matches_second_order_pass).
    L = make_loop("rz")
    one, two = jet_space(2, 1), jet_space(2, 2)
    keep = [two.index[mono] for mono in one.index]
    rng = np.random.default_rng(17)
    for _ in range(200):
        a, b = rng.uniform(0.0, 0.1), rng.uniform(0.0, 1.0)
        for slots in ((0,), (1,), (0, 1)):
            args2 = [a, b]
            for s in slots:
                c = 0.3 * rng.uniform(-1.0, 1.0, two.size)
                c[0] = args2[s]
                args2[s] = Jet(c, two)
            args1 = [Jet(v.c[keep], one) if v.__class__ is Jet else v for v in args2]
            got = L.left_div([args1[0]], [args1[1]])[0]
            want = L.left_div([args2[0]], [args2[1]])[0].c[keep]
            assert got.c[0] == want[0] == L.left_div([a], [b])[0]
            assert np.max(np.abs(got.c - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))


def test_jet_space_size_follows_the_order():
    # 25 monomials and 81 product pairs at order 1 in dimension 4, against
    # 75 and 405 at order 2
    for order, size, pairs, degree in ((1, 25, 81, 2), (2, 75, 405, 3)):
        space = jet_space(4, order)
        assert (space.size, len(space._i), space.degree) == (size, pairs, degree)
        assert all(len(p) <= order and len(q) <= 1 for p, q in space.index)


def _moveaxis_frame(f, a, e, order):
    """``taylor_frame``'s blocks in the layout they replaced: coefficients
    indexed output first, the output axis then moved into place."""
    space = jet_space(len(a), order)
    with quiet():
        ys = f([space.variable(v, ((m,), ())) for m, v in enumerate(a)],
               [space.variable(v, ((), (i,))) for i, v in enumerate(e)])
    coeffs = np.array([y.c for y in ys])
    return tuple(np.moveaxis(coeffs[:, pos], 0, d) * scale
                 for d, (pos, scale) in enumerate(space.derivatives))


@pytest.mark.parametrize("name", ["rz", "qc", "qhr:K=1"])  # n = 1, 2, 4
def test_taylor_frame_blocks_match_the_moveaxis_layout(name):
    # The blocks are a pure permutation of the coefficients, so they equal
    # the moveaxis layout bit for bit, with n or n + 1 outputs.  Blocks 0-2
    # are read from passes of order 1 and 2; a jet space of order 0 has no
    # alpha variable, so there is no order-0 pass.
    L = make_loop(name)
    a, e = list(0.5 * L.sample(np.random.default_rng(51))), list(L.identity)

    def wide(p, q):
        return list(L.product(p, q)) + [gsin(p[0]) * q[-1] + p[-1] * q[0]]

    for order in (1, 2):
        for f in (L.product, wide):
            got = taylor_frame(f, a, e, order)
            want = _moveaxis_frame(f, a, e, order)
            assert len(got) == len(want) == order + 1
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.tobytes() == w.tobytes()


def test_taylor_frame_rejects_order_zero():
    # An order-0 jet space has no alpha variable to seed a with; the error
    # names the argument instead of a missing monomial.
    L = make_loop("qc")
    with pytest.raises(ValueError, match="order"):
        taylor_frame(L.product, [0.1, 0.2], list(L.identity), order=0)


# -- the jet elementaries ------------------------------------------------------

def _sample_map(x, y):
    """Every jet operation the catalog products use, on two points of R^2."""
    u = gsin(x[0] * y[0] + x[1]) / (1.0 + x[0] * x[0] + y[1] * y[1])
    v = 3.0 * gcos(x[1] - y[0]) - (2.0 - x[0]) / (x[1] + 3.0)
    w = gfloor(x[0] + 2.7) * x[1] + np.float64(0.5) * y[1] * x[0] * x[0]
    return [u - v / 4.0, -w + 1.0 / (2.0 + y[0] * x[1]) + u * v]


def _derivative(f, idxs):
    """The derivative of f along the unit vectors ``idxs``, by nested duals."""
    if not idxs:
        return f
    rest = _derivative(f, idxs[1:])

    def g(z):
        return list(ref_dirderiv(rest, z, [1.0 if k == idxs[0] else 0.0
                                           for k in range(len(z))]))

    return g


def test_jet_coefficients_match_nested_dual_derivatives():
    n = 2
    a, e = [0.3, -0.45], [0.2, 0.7]
    space = jet_space(n, 2)
    xs = [space.variable(v, ((m,), ())) for m, v in enumerate(a)]
    ys = [space.variable(v, ((), (i,))) for i, v in enumerate(e)]
    out = _sample_map(xs, ys)
    flat = lambda z: _sample_map(z[:n], z[n:])
    checked = 0
    for (p, q), k in space.index.items():
        idxs = list(p) + [n + i for i in q]
        deriv = [primal(v) for v in _derivative(flat, idxs)(a + e)]
        factorial = math.prod(math.factorial(p.count(m)) for m in set(p))
        for y, d in zip(out, deriv):
            assert y.c[k] == pytest.approx(d / factorial, rel=1e-13, abs=1e-13)
        checked += 1
    assert checked == space.size == 18


def test_jet_arithmetic_with_numbers():
    space = jet_space(1, 2)
    x = space.variable(0.5, ((0,), ()))
    c = x.c
    two = np.zeros(space.size)
    two[0] = 2.0
    assert np.array_equal((x + 2.0).c, c + two)
    assert np.array_equal((2.0 + x).c, (x + 2.0).c)
    assert np.array_equal((x - 2.0).c, c - two)
    assert np.array_equal((2.0 - x).c, -(x - 2.0).c)
    assert np.array_equal((np.float64(3.0) * x).c, 3.0 * c)
    assert np.array_equal((x / 4.0).c, c / 4.0)
    assert np.array_equal((-x).c, -c)
    assert primal(x * x) == 0.25
    # the square's alpha^2 coefficient, and nothing past degree 2 in alpha
    assert (x * x).c[space.index[((0, 0), ())]] == 1.0
    assert (x * x * x).c[space.index[((0, 0), ())]] == pytest.approx(3 * 0.5)


def test_complex_jet_constant_terms_are_python_arithmetic():
    # A complex step inside a jet pass: the constant term of a product or
    # a quotient is Python's complex product or quotient of the operands'
    # constant terms, as for the same step on numbers.  Numpy's complex
    # product rounds otherwise on about a quarter of these pairs.
    space = jet_space(2, 1)
    rng = np.random.default_rng(5)

    def stepped():
        return rng.standard_normal(space.size) + 1j * H * rng.standard_normal(space.size)

    for _ in range(200):
        x, y, r = Jet(stepped(), space), Jet(stepped(), space), Jet(stepped().real, space)
        z = complex(rng.standard_normal(), H * rng.standard_normal())
        x0, y0, r0 = x.c.item(0), y.c.item(0), r.c.item(0)
        for got, want in ((x * y, x0 * y0), (x * z, x0 * z), (z * x, z * x0),
                          (x * r, x0 * r0), (r * z, r0 * z), (x / y, x0 / y0),
                          (x / JetDivisor(y), x0 / y0), (z / JetDivisor(r), z / r0),
                          (z / y, z / y0), (x / z, x0 / z), (r / z, r0 / z),
                          (x / r, x0 / r0), (r / y, r0 / y0), (2.0 / y, 2.0 / y0)):
            assert got.c.item(0) == want


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_nan_and_inf_reach_the_jet_results():
    space = jet_space(2, 2)
    x = space.variable(math.nan, ((0,), ()))
    y = space.variable(0.2, ((), (1,)))
    assert np.all(np.isnan((x * y + 1.0).c[[0, space.index[((0,), (1,))]]]))
    assert math.isnan(primal(gsin(x))) and math.isnan(primal(1.0 / x))
    z = space.variable(math.inf, ((1,), ()))
    assert not np.all(np.isfinite((z * y).c))
    qc = make_loop("qc")
    for bad in (math.nan, math.inf):
        L = dataclasses.replace(
            qc, product=lambda a, b, bad=bad: [v * bad for v in qc.product(a, b)])
        assert not np.all(np.isfinite(tangent.structure_tensor_raw(L, [0.2, -0.1])))
        assert not math.isfinite(tangent.jacobi_residual(L, [0.2, -0.1]))


@pytest.mark.parametrize("bad", [math.inf, -math.inf])
def test_inf_in_the_jet_pass_is_silent(bad):
    # inf times a zero coefficient is NaN inside the pass, as it is on
    # floats, and emits no RuntimeWarning.  Only the jets are scaled, so
    # that a.b stays a chart point for the Maurer-Cartan residual.
    qc = make_loop("qc")
    L = dataclasses.replace(
        qc, product=lambda a, b: [v * bad if v.__class__ is Jet else v
                                  for v in qc.product(a, b)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not np.all(np.isfinite(tangent.structure_tensor_raw(L, [0.2, -0.1])))
        assert not math.isfinite(tangent.jacobi_residual(L, [0.2, -0.1]))
        assert not math.isfinite(
            reconstruct.maurer_cartan_residual(L, [0.2, -0.1], [0.1, 0.3]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sin_cos_floor_are_nan_on_non_finite_values(bad):
    space = jet_space(1, 2)
    for x in (bad, complex(bad, H), space.variable(bad, ((0,), ()))):
        for fn in (gsin, gcos, gfloor):
            assert math.isnan(primal(fn(x)))
    for fn in (gsin, gcos):
        assert np.all(np.isnan(fn(space.variable(bad, ((0,), ()))).c))
    # finite values take the math functions unchanged
    assert gsin(0.3) == math.sin(0.3) and gcos(0.3) == math.cos(0.3)
    assert gfloor(-1.5) == -2.0


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_rz_jet_routes_return_nan_on_non_finite_product_jets(bad):
    rz = make_loop("rz")
    L = dataclasses.replace(
        rz, product=lambda a, b: [v * bad if v.__class__ is Jet else v
                                  for v in rz.product(a, b)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not np.all(np.isfinite(tangent.structure_tensor_raw(L, [0.02])))
        assert not math.isfinite(tangent.jacobi_residual(L, [0.02]))
        assert not math.isfinite(reconstruct.maurer_cartan_residual(L, [0.05], [0.02]))


@pytest.mark.parametrize("name", ["qc", "qhr:K=1"])
def test_maurer_cartan_algebra_is_silent_on_inf_division_jets(name):
    # the jets of the left associator are inf; a.b itself stays finite
    base = make_loop(name)
    L = dataclasses.replace(
        base, left_div=lambda a, b: [v * math.inf if v.__class__ is Jet else v
                                     for v in base.left_div(a, b)])
    a, b = (list(0.3 * L.sample(np.random.default_rng(seed))) for seed in (1, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not math.isfinite(reconstruct.maurer_cartan_residual(L, b, a))


def test_singular_denominator_raises_as_on_floats():
    space = jet_space(2, 2)
    zero = space.variable(0.0, ((0,), ()))
    with pytest.raises(ZeroDivisionError):
        1.0 / 0.0
    with pytest.raises(ZeroDivisionError):
        1.0 / zero
    with pytest.raises(ZeroDivisionError):
        space.variable(1.0, ((1,), ())) / zero
    with pytest.raises(ZeroDivisionError):
        zero / 0.0
    for name, a, b in (("qc", [1.0, 0.0], [1.0, 0.0]),
                       ("qhr:K=4", [0.0, 1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0])):
        L = make_loop(name)
        with pytest.raises(DomainSingularity):
            L.product(a, b)
        jets = jet_space(L.dim, 2)
        with pytest.raises(DomainSingularity):
            L.product([jets.variable(v, ((m,), ())) for m, v in enumerate(a)],
                      [jets.variable(v, ((), (m,))) for m, v in enumerate(b)])


def test_structure_tensor_is_float_only():
    L = make_loop("qc")
    with pytest.raises(TypeError):
        tangent.structure_tensor_raw(L, [complex(0.1, H), 0.2])
    with pytest.raises(ValueError):
        tangent.structure_tensor_raw(L, [0.1, 0.2], side="middle")


# -- one reciprocal per jet denominator ----------------------------------------
#
# The closed forms as they were before they inverted a jet denominator once:
# every quotient ``x / d`` built the reciprocal series of d anew.

def ref_mobius_fraction(t, z, w, n, singular):
    zx, zy = z[0], z[1]
    wx, wy = w[0], w[1]
    re = zx * wx + zy * wy
    if t > 0:
        mr, mi = 1.0 + re, zx * wy - zy * wx
    else:
        mr, mi = 1.0 - re, zy * wx - zx * wy
    m2 = mr * mr + mi * mi
    if near_zero(m2, SINGULAR_DENOM ** 2):
        raise DomainSingularity(singular)
    nx, ny = n
    return [(nx * mr + ny * mi) / m2, (ny * mr - nx * mi) / m2]


def ref_mobius_right_div(sign):
    def div(b, a):
        ax, ay = a[0], a[1]
        bx, by = b[0], b[1]
        cx = bx * ax - by * ay
        cy = bx * ay + by * ax
        den = 1.0 - (cx * cx + cy * cy)
        if near_zero(den, SINGULAR_DENOM):
            raise DomainSingularity("Moebius right division singular")
        dx, dy = bx - ax, by - ay
        px, py = cx * dx + cy * dy, cy * dx - cx * dy
        if sign < 0:
            return [(dx - px) / den, (dy - py) / den]
        return [(dx + px) / den, (dy + py) / den]
    return div


def ref_qhr_fraction(t, z, w, u0, uv, singular):
    z0, z1, z2, z3 = t * z[0], t * z[1], t * z[2], t * z[3]
    w0, w1, w2, w3 = w
    m0 = 1.0 + (z0 * w0 - (z1 * w1 + z2 * w2 + z3 * w3))
    r1 = z2 * w3 - z3 * w2
    r2 = z3 * w1 - z1 * w3
    r3 = z1 * w2 - z2 * w1
    s1 = z0 * w1 - w0 * z1
    s2 = z0 * w2 - w0 * z2
    s3 = z0 * w3 - w0 * z3
    n = m0 * m0 + (r1 * r1 + r2 * r2 + r3 * r3) - (s1 * s1 + s2 * s2 + s3 * s3)
    if near_zero(n, SINGULAR_DENOM):
        raise DomainSingularity(singular)
    u1, u2, u3 = uv
    return [(m0 * u0 - (u1 * s1 + u2 * s2 + u3 * s3)) / n,
            (m0 * u1 - u0 * s1 - (u2 * r3 - u3 * r2)) / n,
            (m0 * u2 - u0 * s2 - (u3 * r1 - u1 * r3)) / n,
            (m0 * u3 - u0 * s3 - (u1 * r2 - u2 * r1)) / n]


def ref_quotient_loop(name):
    """The catalog loop with those closed forms.  The qhr right division
    already multiplied by one reciprocal and is the library's."""
    L = make_loop(name)
    if L.dim == 4:
        k4 = parse_spec(name).K / 4.0
        return dataclasses.replace(
            L,
            product=lambda a, b: ref_qhr_fraction(
                k4, a, b, a[0] + b[0], (a[1] + b[1], a[2] + b[2], a[3] + b[3]), "product"),
            left_div=lambda a, b: ref_qhr_fraction(
                -k4, a, b, b[0] - a[0], (b[1] - a[1], b[2] - a[2], b[3] - a[3]), "division"))
    sign = 1.0 if name == "qh2" else -1.0
    return dataclasses.replace(
        L,
        product=lambda a, b: ref_mobius_fraction(
            sign, a, b, (a[0] + b[0], a[1] + b[1]), "product"),
        left_div=lambda a, b: ref_mobius_fraction(
            -sign, a, b, (b[0] - a[0], b[1] - a[1]), "division"),
        right_div=ref_mobius_right_div(sign))


def _special_jet(space, rng, value):
    """A jet of ``space`` with primal ``value`` whose other coefficients
    are random, a few of them 0, -0, NaN or +-inf."""
    c = rng.uniform(-2.0, 2.0, space.size)
    picks = rng.integers(1, space.size, size=min(3, space.size - 1)) if space.size > 1 else []
    c[picks] = rng.choice([0.0, -0.0, math.nan, math.inf, -math.inf], size=len(picks))
    c[0] = value
    return Jet(c, space)


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_jet_divisor_gives_the_jet_quotients_bit_for_bit(n, order):
    space = jet_space(n, order)
    rng = np.random.default_rng(100 * n + order)
    numbers = [1.5, -0.25, 0.0, -0.0, math.nan, math.inf, -math.inf, np.float64(3.0), 2]
    with quiet():
        for value in [0.7, -1.3, 1e-9, 1e12, math.nan, math.inf, -math.inf]:
            d = _special_jet(space, rng, value)
            divisor = JetDivisor(d)
            jets = [_special_jet(space, rng, v) for v in (0.4, 0.0, math.nan, -math.inf)]
            for x in jets + numbers:
                got, want = x / divisor, x / d
                assert got.__class__ is want.__class__ is Jet
                assert np.array_equal(got.c, want.c, equal_nan=True), (value, x)
        # a denominator with primal 0 raises as float division does
        zero = _special_jet(space, rng, 0.0)
        with pytest.raises(ZeroDivisionError):
            JetDivisor(zero)
        with pytest.raises(ZeroDivisionError):
            1.0 / zero


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("name", ["qc", "qh2", "qsu2", "qhr:K=1", "qhr:K=-2.5", "qhr:K=0"])
def test_one_reciprocal_per_denominator_keeps_every_jet_bit_for_bit(name, order):
    L, ref = make_loop(name), ref_quotient_loop(name)
    rng = np.random.default_rng(17)
    for _ in range(4):
        a, b = list(L.sample(rng)), list(L.sample(rng))
        for op in ("product", "left_div", "right_div"):
            f, g = getattr(L, op), getattr(ref, op)
            assert f(a, b) == g(a, b)
            for got, want in zip(taylor_frame(f, a, b, order), taylor_frame(g, a, b, order),
                                 strict=True):
                assert got.tobytes() == want.tobytes(), (op, a, b)


def _jet_work(monkeypatch, f):
    """(reciprocal series built, JetSpace.mul calls) while ``f`` runs."""
    counts = collections.Counter()
    reciprocal, mul = Jet._reciprocal, JetSpace.mul

    def counted_reciprocal(self):
        counts["reciprocal"] += 1
        return reciprocal(self)

    def counted_mul(self, x, y):
        counts["mul"] += 1
        return mul(self, x, y)

    with monkeypatch.context() as m:
        m.setattr(Jet, "_reciprocal", counted_reciprocal)
        m.setattr(JetSpace, "mul", counted_mul)
        f()
    return counts["reciprocal"], counts["mul"]


def test_closed_forms_build_one_reciprocal_per_denominator(monkeypatch):
    # The quotient-by-quotient forms build one series per quotient: 4 per
    # qhr fraction and 2 per Moebius fraction.
    qhr, qc = make_loop("qhr:K=1"), make_loop("qc")
    ref_qhr, ref_qc = ref_quotient_loop("qhr:K=1"), ref_quotient_loop("qc")
    a4, b4 = [0.1, -0.2, 0.05, 0.15], [-0.12, 0.08, 0.2, -0.05]
    a2, b2 = [0.3, -0.2], [-0.1, 0.25]
    x, vx, vy = [0.1, -0.2], [1.0, 0.5], [0.2, 0.1, 0.3, -0.2]
    wx, wy = [0.3, -0.4], [0.1, 0.2, -0.1, 0.05]

    def work(L, f):
        return _jet_work(monkeypatch, lambda: f(L))

    def structure_equation(L):
        form = gauge.make_test_potential(L, 2, 7)
        return gauge.structure_equation_residual(form, x, b4, vx, vy, wx, wy)

    assert work(qhr, lambda L: tangent.jacobi_residual(L, a4)) == (1, 45)
    assert work(ref_qhr, lambda L: tangent.jacobi_residual(L, a4)) == (4, 51)
    assert work(qhr, lambda L: tangent.structure_tensor_raw(L, a4))[0] == 1
    assert work(ref_qhr, lambda L: tangent.structure_tensor_raw(L, a4))[0] == 4
    assert work(qhr, structure_equation)[0] == 3
    assert work(ref_qhr, structure_equation)[0] == 12
    # (a.x) \\ (a.(x + c)): 2 products and 1 left division, plus the product
    # of the structure functions at a.b
    assert work(qc, lambda L: reconstruct.maurer_cartan_residual(L, b2, a2))[0] == 4
    assert work(ref_qc, lambda L: reconstruct.maurer_cartan_residual(L, b2, a2))[0] == 8
    # one jet pass of each closed form
    for L, ref, a, b, per_quotient in ((qc, ref_qc, a2, b2, (2, 2, 2)),
                                       (qhr, ref_qhr, a4, b4, (4, 4, 1))):
        for op, quotients in zip(("product", "left_div", "right_div"), per_quotient):
            assert work(L, lambda L: taylor_frame(getattr(L, op), a, b, 1))[0] == 1
            assert work(ref, lambda L: taylor_frame(getattr(L, op), a, b, 1))[0] == quotients


def test_nested_complex_steps_build_one_reciprocal_per_denominator(monkeypatch):
    # The complex steps of a transformed potential run inside its jet
    # pass, where every Moebius denominator is a jet with complex
    # coefficients: one JetDivisor and one reciprocal series each.
    L = make_loop("qc")
    form = gauge.make_test_potential(L, 2, 7)
    q_map = lambda xs: [0.1 * gcos(0.3 * xs[0]), 0.1 * gsin(0.3 * xs[0])]
    divisors = [0]
    init = JetDivisor.__init__

    def counted(self, d):
        divisors[0] += 1
        init(self, d)

    monkeypatch.setattr(JetDivisor, "__init__", counted)
    reciprocals, _ = _jet_work(
        monkeypatch, lambda: gauge.curvature_gauge_residual(form, q_map, [0.1, -0.2]))
    assert reciprocals == divisors[0] == 10
