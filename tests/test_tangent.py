import dataclasses
import math

import numpy as np
import pytest

from loopbundle import core, tangent
from loopbundle.dual import Dual
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
        res_left, res_right = tangent.verify_ad_form_laws(L, list(b), list(a), v)
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
