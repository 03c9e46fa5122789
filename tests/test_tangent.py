import dataclasses
import math

import numpy as np
import pytest

from loopbundle import core, gauge, tangent
from loopbundle.dual import Dual, dirderiv, jacobian
from loopbundle.errors import NoSolutionInChart
from loopbundle.zoo import catalog_names, make_loop

ALL_LOOPS = catalog_names()

# Real/complex basis change for the two-dimensional Moebius loops:
# vectors transform with A = T^-1, covectors with T.
T = np.array([[0.5, 0.5], [-0.5j, 0.5j]])
A = np.linalg.inv(T)


def complexify_structure(c_real):
    return np.einsum("pq,qmn,mi,nj->pij", A, c_real.astype(complex), T, T)


@pytest.mark.parametrize("name", ALL_LOOPS)
def test_frame_identity_at_e(name):
    L = make_loop(name)
    frame = tangent.left_frame_matrix(L, list(L.identity))
    assert np.allclose(np.asarray(frame, dtype=float), np.eye(L.dim), atol=1e-13)


def test_qc_frame_closed_form():
    L = make_loop("qc")
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = L.sample(rng)
        frame = np.asarray(tangent.left_frame_matrix(L, list(a)), dtype=float)
        # d(a.b)/db at b=0 for the spherical Moebius product
        scale = 1.0 + a[0] ** 2 + a[1] ** 2
        assert np.allclose(frame, scale * np.eye(2), atol=1e-13)


def test_qc_structure_functions_complex_closed_form():
    L = make_loop("qc")
    rng = np.random.default_rng(2)
    for _ in range(50):
        a = L.sample(rng)
        c = np.asarray(tangent.structure_tensor_raw(L, list(a)), dtype=float)
        cc = complexify_structure(c)
        eta = complex(a[0], a[1])
        assert abs(cc[0, 0, 1] - (-eta)) < 1e-12
        assert abs(cc[1, 0, 1] - eta.conjugate()) < 1e-12


def test_qh2_structure_functions_complex_closed_form():
    L = make_loop("qh2")
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = L.sample(rng)
        cc = complexify_structure(
            np.asarray(tangent.structure_tensor_raw(L, list(a)), dtype=float))
        eta = complex(a[0], a[1])
        assert abs(cc[0, 0, 1] - eta) < 1e-12
        assert abs(cc[1, 0, 1] - (-eta.conjugate())) < 1e-12


def test_structure_tensor_against_finite_differences():
    # independent oracle: central differences of the frame columns
    L = make_loop("qc")
    a = [0.21, -0.34]
    h = 1e-6
    n = L.dim

    def frame(pt):
        return np.asarray(tangent.left_frame_matrix(L, list(pt)), dtype=float)

    grad = np.zeros((n, n, n))  # grad[m][k][i] = d_m frame[k][i]
    for m in range(n):
        ap = list(a)
        am = list(a)
        ap[m] += h
        am[m] -= h
        grad[m] = (frame(ap) - frame(am)) / (2.0 * h)
    r = frame(a)
    c_fd = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            bracket = np.zeros(n)
            for k in range(n):
                bracket[k] = (r[:, i] @ grad[:, k, j] - r[:, j] @ grad[:, k, i])
            c_fd[:, i, j] = np.linalg.solve(r, bracket)
    c = np.asarray(tangent.structure_tensor_raw(L, a), dtype=float)
    assert np.max(np.abs(c - c_fd)) < 1e-8


@pytest.mark.parametrize("name", ALL_LOOPS)
def test_structure_antisymmetry(name):
    L = make_loop(name)
    rng = np.random.default_rng(4)
    for _ in range(10):
        c = np.asarray(tangent.structure_tensor_raw(L, list(L.sample(rng))),
                       dtype=float)
        assert np.max(np.abs(c + c.transpose(0, 2, 1))) < 1e-12


@pytest.mark.parametrize("name", ALL_LOOPS)
def test_modified_jacobi(name):
    L = make_loop(name)
    rng = np.random.default_rng(5)
    for _ in range(5):
        assert tangent.jacobi_residual(L, list(L.sample(rng))) < 1e-8


@pytest.mark.parametrize("name", ALL_LOOPS)
def test_canonical_form_transformation_laws(name):
    L = make_loop(name)
    rng = np.random.default_rng(6)
    for _ in range(20):
        a, b = L.sample(rng), L.sample(rng)
        v = tangent.TangentVector(base=np.asarray(a, dtype=float),
                                  vec=rng.standard_normal(L.dim))
        res_left, res_right = tangent.verify_ad_form_laws(L, list(b), v)
        assert res_left < 1e-10
        assert res_right < 1e-10


def test_canonical_form_inverts_frame():
    L = make_loop("qh2")
    rng = np.random.default_rng(7)
    a = L.sample(rng)
    w = rng.standard_normal(2)
    frame = np.asarray(tangent.left_frame_matrix(L, list(a)), dtype=float)
    v = tangent.TangentVector(base=np.asarray(a, dtype=float), vec=frame @ w)
    out = tangent.canonical_form(L, v)
    assert np.allclose(np.asarray(out.vec, dtype=float), w, atol=1e-12)
    # The directional passes against Jacobian matrices and frame solves.
    for name in ALL_LOOPS:
        L = make_loop(name)
        a, b = list(L.sample(rng)), list(L.sample(rng))
        vec = rng.standard_normal(L.dim)
        v = tangent.TangentVector(base=np.asarray(a), vec=vec)

        def frame_solve(x, u):
            return np.linalg.solve(np.asarray(tangent.left_frame_matrix(L, x), dtype=float), u)

        def translation_jacobian(f):
            return np.asarray(jacobian(lambda x: list(f(x)), a), dtype=float)

        omega = frame_solve(a, vec)
        push_l = translation_jacobian(lambda x: core.product(L, b, x)) @ vec
        push_r = translation_jacobian(lambda x: core.product(L, x, b)) @ vec
        assert np.max(np.abs(tangent.canonical_form(L, v).vec - omega)) <= 1e-14
        assert np.max(np.abs(tangent.pushforward_left(L, b, v).vec - push_l)) <= 1e-14
        assert np.max(np.abs(tangent.pushforward_right(L, b, v).vec - push_r)) <= 1e-14
        # left law: omega(L_b* v) against l_(b,a)* omega(v), both from matrices
        lstar = np.asarray(tangent.left_associator_differential(L, b, a), dtype=float)
        want_left = np.max(np.abs(frame_solve(list(core.product(L, b, a)), push_l)
                                  - lstar @ omega))
        res_left, _ = tangent.verify_ad_form_laws(L, b, v)
        assert abs(res_left - want_left) <= 1e-14


@pytest.mark.parametrize("name", ["qc", "qhr:K=1"])
def test_derivative_passes_check_each_fixed_point_once(name):
    # A pass checks its fixed points once, before it, and differentiates the
    # raw closed forms.  A checked core wrapper inside the pass would check
    # them, and the seeded identity, again for every Jacobian column.
    base = make_loop(name)
    calls = [0]

    def counting_check(p):
        calls[0] += 1
        return base.domain_check(p)

    L = dataclasses.replace(base, domain_check=counting_check)
    rng = np.random.default_rng(12)
    a, b = list(0.5 * L.sample(rng)), list(0.5 * L.sample(rng))
    v = tangent.TangentVector(base=np.asarray(a), vec=rng.standard_normal(L.dim))
    form = gauge.make_test_potential(L, 2, seed=12)
    z = [0.1, -0.2] + list(0.4 * L.sample(rng))
    cases = {
        "left_frame_matrix": (1, lambda: tangent.left_frame_matrix(L, a)),
        "right_frame_matrix": (1, lambda: tangent.right_frame_matrix(L, a)),
        "left_associator_differential":
            (2, lambda: tangent.left_associator_differential(L, a, b)),
        "ad_differential": (2, lambda: tangent.ad_differential(L, b, a)),
        "ad_inverse_differential": (2, lambda: tangent.ad_inverse_differential(L, b, a)),
        "pushforward_left": (2, lambda: tangent.pushforward_left(L, b, v)),
        "pushforward_right": (2, lambda: tangent.pushforward_right(L, b, v)),
        "canonical_form": (1, lambda: tangent.canonical_form(L, v)),
        "hor_field": (1, lambda: gauge.hor_field(form, [1.0, 0.5])(z)),
        "fundamental_field": (1, lambda: gauge.fundamental_field(form, np.ones(L.dim))(z)),
        "omega_annihilates_d_residual":
            (1, lambda: gauge.omega_annihilates_d_residual(form, z[:2], z[2:], 0)),
        # b.a and a.b are intermediates of the laws' passes, not checked.
        "verify_ad_form_laws": (2, lambda: tangent.verify_ad_form_laws(L, b, v)),
    }
    for label, (points, call) in cases.items():
        calls[0] = 0
        call()
        assert calls[0] == points, label


def _composed_ad_form_laws(L, b, v):
    """The transformation-law residuals composed from the public, checked
    functions: each checks its points again, b.a and a.b included."""
    omega_v = tangent.canonical_form(L, v).vec
    lhs_l = tangent.canonical_form(L, tangent.pushforward_left(L, b, v)).vec
    rhs_l = dirderiv(lambda c: core._left_associator(L, b, list(v.base), c),
                     L.identity.tolist(), omega_v)
    lhs_r = tangent.canonical_form(L, tangent.pushforward_right(L, b, v)).vec
    rhs_r = np.linalg.inv(tangent.ad_differential(L, b, v.base)) @ omega_v
    return (float(np.max(np.abs(lhs_l - rhs_l))), float(np.max(np.abs(lhs_r - rhs_r))))


@pytest.mark.parametrize("name", ["rz", "qc", "qh2", "qsu2", "qhr:K=1", "qhr:K=-2.5", "qhr:K=0"])
def test_ad_form_laws_equal_the_composed_route(name):
    # The raw passes are the checked functions' passes, bit for bit.
    L = make_loop(name)
    rng = np.random.default_rng(14)
    for _ in range(10):
        a, b = L.sample(rng), list(L.sample(rng))
        v = tangent.TangentVector(base=a, vec=rng.standard_normal(L.dim))
        assert tangent.verify_ad_form_laws(L, b, v) == _composed_ad_form_laws(L, b, v)


def test_rz_canonical_form_exists_on_the_division_window():
    # omega = (L_x)_*^-1 exists where the left division by x does,
    # pi |sin(pi x)| < 1; the frame itself vanishes at asin(2/pi) / (2 pi).
    L = make_loop("rz")
    unit = np.array([1.0])
    for x in (0.2, math.asin(2.0 / math.pi) / (2.0 * math.pi)):
        with pytest.raises(NoSolutionInChart):
            tangent.canonical_form(L, tangent.TangentVector(base=np.array([x]), vec=unit))
    out = tangent.canonical_form(L, tangent.TangentVector(base=np.array([0.05]), vec=unit))
    assert abs(out.vec[0] - 1.94326732) < 1e-8


def test_ad_inverse_differential_inverts_forward():
    L = make_loop("qc")
    rng = np.random.default_rng(8)
    for _ in range(10):
        b, a = 0.5 * L.sample(rng), 0.5 * L.sample(rng)
        fwd = np.asarray(tangent.ad_differential(L, list(b), list(a)), dtype=float)
        inv = np.asarray(tangent.ad_inverse_differential(L, list(b), list(a)),
                         dtype=float)
        assert np.allclose(inv @ fwd, np.eye(2), atol=1e-12)


def test_ad_inverse_differential_exists_at_degenerate_modulus():
    # forward right-translation differential degenerates on the unit
    # circle of the spherical Moebius loop; the inverse operator does not
    L = make_loop("qc")
    q = [np.cos(0.3), np.sin(0.3)]
    out = np.asarray(tangent.ad_inverse_differential(L, q, list(L.identity)),
                     dtype=float)
    assert np.all(np.isfinite(out))


def test_jacobi_residual_of_nan_product_is_not_finite():
    qc = make_loop("qc")
    L = dataclasses.replace(
        qc, product=lambda a, b: [v * math.nan for v in qc.product(a, b)])
    assert not math.isfinite(tangent.jacobi_residual(L, [0.2, -0.1]))


# Dual nodes one Jacobi point builds with the real-coordinate closed forms
# and sparse seeding.  Work on structural zeros (complexified coordinates
# that are always 0, unseeded coordinates) shows up here as a larger count.
# The complexified-quaternion product with dense seeding built 228,368 on
# qhr:K=1 and 3,676 on qc.
@pytest.mark.parametrize("name,point,limit", [
    ("qhr:K=1", [0.1, -0.2, 0.3, 0.25], 32486),
    ("qc", [0.3, -0.4], 2174),
])
def test_jacobi_point_dual_node_count(monkeypatch, name, point, limit):
    nodes = [0]

    def counting_init(obj, re, du=0.0, lvl=0):
        obj.re = re
        obj.du = du
        obj.lvl = lvl
        nodes[0] += 1

    L = make_loop(name)
    monkeypatch.setattr(Dual, "__init__", counting_init)
    residual = tangent.jacobi_residual(L, point)
    assert residual < 1e-12
    assert nodes[0] <= limit


# The structure tensor and the Jacobi residual take the frame and its
# derivatives from one jet pass of the product; nested duals evaluated it
# 104 times per Jacobi point on qhr:K=1.
@pytest.mark.parametrize("name,point", [
    ("qhr:K=1", [0.1, -0.2, 0.3, 0.25]),
    ("qc", [0.3, -0.4]),
])
def test_one_product_pass_per_call(name, point):
    base = make_loop(name)
    calls = [0]

    def counting_product(a, b):
        calls[0] += 1
        return base.product(a, b)

    L = dataclasses.replace(base, product=counting_product)
    for fn in (tangent.jacobi_residual, tangent.structure_tensor_raw,
               lambda L, a: tangent.structure_tensor_raw(L, a, side="right")):
        calls[0] = 0
        fn(L, point)
        assert calls[0] == 1
