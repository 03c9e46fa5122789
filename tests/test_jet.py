"""Taylor jets: the elementaries against nested duals, and the jet
structure functions, Jacobi residual and Maurer-Cartan identity against
the nested-dual routines they replaced, which are kept below as the
reference."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from loopbundle import core, reconstruct, tangent
from loopbundle.dual import (Dual, Jet, dirderiv, floats_if_plain, gcos,
                             gfloor, gsin, gsolve, jacobian, jet_space, primal,
                             taylor_frame)
from loopbundle.errors import DomainSingularity
from loopbundle.report import worst_residual
from loopbundle.zoo import make_loop


# -- the nested-dual reference ------------------------------------------------

def ref_structure_tensor(L, a, frame=tangent.left_frame_matrix):
    """The nested-dual structure tensor: a Jacobian of the dual frame."""
    n = L.dim
    r = frame(L, a)

    def flat_frame(x):
        fr = frame(L, x)
        return [fr[k][i] for k in range(n) for i in range(n)]

    grad = jacobian(flat_frame, a)
    rhs = np.empty((n, n * n), dtype=object)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc = 0.0
                for m in range(n):
                    acc = acc + r[m][i] * grad[k * n + j][m] - r[m][j] * grad[k * n + i][m]
                rhs[k, i * n + j] = acc
    return floats_if_plain(gsolve(r, rhs).reshape(n, n, n))


def ref_structure_derivative(L, a):
    """dc[p, m, i, j] = d_m C^p_ij: a Jacobian of the nested-dual tensor."""
    n = L.dim
    flat = jacobian(lambda x: list(np.asarray(ref_structure_tensor(L, x)).reshape(-1)), a)
    dc = np.array([[primal(v) for v in row] for row in flat]).reshape(n, n, n, n)
    return dc.transpose(0, 3, 1, 2)


def ref_jacobi_residual(L, a):
    """The nested-dual Jacobi residual: a Jacobian of the structure tensor."""
    n = L.dim
    a = [float(x) for x in a]
    r = np.array([[primal(x) for x in row] for row in tangent.left_frame_matrix(L, a)])
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
    lstar = tangent.left_associator_differential(L, a, b)
    frame = tangent.left_frame_matrix(L, b)
    n = L.dim
    omega = gsolve(frame, np.eye(n))
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
    flat = jacobian(lambda x: list(ref_parametric_form(L, a, x).reshape(-1)), b)
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
        want = ref_structure_tensor(L, a, frame=tangent.right_frame_matrix)
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
        r, dr, d2r = tangent._frame_derivatives(L, a, "left")
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
        return list(np.asarray(tangent.left_associator_differential(L, a, x)).reshape(-1))

    def floats(m):
        return np.array([primal(v) for v in np.asarray(m).flat])

    r, dr, d2r = taylor_frame(lambda x, c: core._left_associator(L, a, x, c),
                              b, list(L.identity))
    want_r = floats(lstar(b)).reshape(n, n)
    want_dr = floats(jacobian(lstar, b)).reshape(n, n, n).transpose(2, 0, 1)
    want_d2r = floats(jacobian(lambda x: list(np.asarray(jacobian(lstar, x)).reshape(-1)),
                               b)).reshape(n, n, n, n).transpose(3, 2, 0, 1)
    scale = 1.0 + np.max(np.abs(want_d2r))
    assert np.max(np.abs(r - want_r)) <= 1e-14 * scale
    assert np.max(np.abs(dr - want_dr)) <= 1e-14 * scale
    assert np.max(np.abs(d2r - want_d2r)) <= 1e-13 * scale


def test_rz_division_keeps_the_jet():
    L = make_loop("rz")
    space = jet_space(1)
    x = space.variable(0.02, ((0,), ()))
    out = L.left_div([0.01], [x])[0]
    assert out.__class__ is Jet
    assert primal(out) == L.left_div([0.01], [0.02])[0]
    # a numpy float is a plain number: the float path stays as it was
    assert L.left_div([0.01], [np.float64(0.02)]) == L.left_div([0.01], [0.02])


@pytest.mark.parametrize("name", ["rz", "qc", "qh2", "qhr:K=1"])
def test_taylor_frame_matches_nested_jacobians(name):
    # R, dR and d2R of one jet pass against one, two and three dual levels
    L = make_loop(name)
    n = L.dim
    a = list(0.7 * L.sample(np.random.default_rng(12)))

    def flat_frame(x):
        return list(np.asarray(tangent.left_frame_matrix(L, x)).reshape(-1))

    def flat_grad(x):
        return list(np.asarray(jacobian(flat_frame, x)).reshape(-1))

    def floats(m):
        return np.array([primal(v) for v in np.asarray(m).flat])

    r, dr, d2r = taylor_frame(L.product, a, list(L.identity))
    want_r = floats(tangent.left_frame_matrix(L, a)).reshape(n, n)
    # jacobian(flat_frame)[k*n + i][m] = d_m R[k, i]
    want_dr = floats(jacobian(flat_frame, a)).reshape(n, n, n).transpose(2, 0, 1)
    want_d2r = floats(jacobian(flat_grad, a)).reshape(n, n, n, n).transpose(3, 2, 0, 1)
    scale = 1.0 + np.max(np.abs(want_d2r))
    assert np.max(np.abs(r - want_r)) <= 1e-14 * scale
    assert np.max(np.abs(dr - want_dr)) <= 1e-14 * scale
    assert np.max(np.abs(d2r - want_d2r)) <= 1e-13 * scale


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
        return list(dirderiv(rest, z, [1.0 if k == idxs[0] else 0.0
                                       for k in range(len(z))]))

    return g


def test_jet_coefficients_match_nested_dual_derivatives():
    n = 2
    a, e = [0.3, -0.45], [0.2, 0.7]
    space = jet_space(n)
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
    space = jet_space(1)
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


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_nan_and_inf_reach_the_jet_results():
    space = jet_space(2)
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


def test_singular_denominator_raises_as_on_floats():
    space = jet_space(2)
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
        jets = jet_space(L.dim)
        with pytest.raises(DomainSingularity):
            L.product([jets.variable(v, ((m,), ())) for m, v in enumerate(a)],
                      [jets.variable(v, ((), (m,))) for m, v in enumerate(b)])


def test_structure_tensor_is_float_only():
    L = make_loop("qc")
    with pytest.raises(TypeError):
        tangent.structure_tensor_raw(L, [Dual(0.1, 1.0, 1), 0.2])
    with pytest.raises(ValueError):
        tangent.structure_tensor_raw(L, [0.1, 0.2], side="middle")
