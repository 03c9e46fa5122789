"""End-to-end acceptance sweep: one criterion per test, one summary line each.

Run with -s to see the summary lines.
"""

import math
import time

import numpy as np
import pytest

from loopbundle import bundle, core, gauge, reconstruct, tangent
from loopbundle.dual import gcos, gsin, jacobian, primal
from loopbundle.report import DEFAULT_TOLERANCES, worst_residual
from loopbundle.zoo import catalog_names, make_loop, qsu2_product

ALL_LOOPS = catalog_names()

T = np.array([[0.5, 0.5], [-0.5j, 0.5j]])
A = np.linalg.inv(T)


def _report(name, residual, tol, ok=None):
    ok = residual < tol if ok is None else ok
    print(f"\n{'PASS' if ok else 'FAIL'} {name}: "
          f"max_residual={residual:.3e} tolerance={tol:.1e}")
    return ok


def _complexify(c_real):
    return np.einsum("pq,qmn,mi,nj->pij", A, c_real.astype(complex), T, T)


def test_criterion_1_loop_axioms():
    worst = 0.0
    slowest = 0.0
    for name in ALL_LOOPS:
        L = make_loop(name)
        t0 = time.perf_counter()
        report = core.check_loop_axioms(L, 10_000, seed=101,
                                         tol=DEFAULT_TOLERANCES["axioms"])
        slowest = max(slowest, time.perf_counter() - t0)
        worst = worst_residual(worst, report.max_residual)
    ok = _report("criterion-1 loop axioms (1e4 samples per loop)", worst, 1e-11)
    assert ok
    assert slowest < 5.0, f"slowest loop took {slowest:.2f}s"


def test_criterion_2_structure_function_closed_forms():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    L = make_loop("qc")
    for _ in range(1000):
        a = L.sample(rng)
        cc = _complexify(np.asarray(tangent.structure_tensor_raw(L, list(a)),
                                    dtype=float))
        eta = complex(a[0], a[1])
        worst = worst_residual(worst, abs(cc[0, 0, 1] + eta),
                               abs(cc[1, 0, 1] - eta.conjugate()))
    Lh = make_loop("qh2")
    for _ in range(1000):
        a = Lh.sample(rng)
        cc = _complexify(np.asarray(tangent.structure_tensor_raw(Lh, list(a)),
                                    dtype=float))
        eta = complex(a[0], a[1])
        # bracket of the two fundamental fields: eta G1 - conj(eta) G2
        worst = worst_residual(worst, abs(cc[0, 0, 1] - eta),
                               abs(cc[1, 0, 1] + eta.conjugate()))
    elapsed = time.perf_counter() - t0
    ok = _report("criterion-2 structure-function closed forms (1e3 points)",
                 worst, 1e-8)
    assert ok
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_3_modified_jacobi():
    t0 = time.perf_counter()
    worst = 0.0
    for name in ALL_LOOPS:
        L = make_loop(name)
        rng = np.random.default_rng(103)
        for _ in range(100):
            worst = worst_residual(worst,
                                   tangent.jacobi_residual(L, list(L.sample(rng))))
    elapsed = time.perf_counter() - t0
    ok = _report("criterion-3 modified Jacobi identity (1e2 points per loop)",
                 worst, 1e-6)
    assert ok
    assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_4_canonical_form_transformation_laws():
    worst = 0.0
    for name in ALL_LOOPS:
        L = make_loop(name)
        rng = np.random.default_rng(104)
        for _ in range(1000):
            a, b = L.sample(rng), L.sample(rng)
            v = tangent.TangentVector(base=np.asarray(a, dtype=float),
                                      vec=rng.standard_normal(L.dim))
            res_l, res_r = tangent.verify_ad_form_laws(L, list(b), v)
            worst = worst_residual(worst, res_l, res_r)
    ok = _report("criterion-4 canonical-form transformation laws "
                 "(1e3 triples per loop)", worst, 1e-8)
    assert ok


def test_criterion_5_ode_reconstruction():
    t0 = time.perf_counter()
    worst = 0.0
    for name in ("qc", "qh2"):
        L = make_loop(name)
        rng = np.random.default_rng(105)
        for _ in range(3):
            direction = rng.standard_normal(2)
            a = 0.5 * rng.uniform(0.2, 1.0) * direction / np.linalg.norm(direction)
            direction = rng.standard_normal(2)
            b = 0.5 * rng.uniform(0.2, 1.0) * direction / np.linalg.norm(direction)
            got = reconstruct.reconstruct_product(L, list(a), list(b), 256)
            expect = np.asarray(core.product(L, list(a), list(b)))
            worst = worst_residual(worst, float(np.max(np.abs(got - expect))))
    # convergence order from step halving on a fixed pair
    L = make_loop("qc")
    a, b = [0.4, -0.3], [0.5, 0.6]
    expect = np.asarray(core.product(L, a, b))
    err32 = np.max(np.abs(reconstruct.reconstruct_product(L, a, b, 32) - expect))
    err64 = np.max(np.abs(reconstruct.reconstruct_product(L, a, b, 64) - expect))
    order = math.log2(err32 / err64)
    elapsed = time.perf_counter() - t0
    ok = _report("criterion-5 ODE reconstruction (256 steps, radius 0.5)",
                 worst, 1e-6)
    print(f"     observed convergence order {order:.3f} (target 4 +- 30%)")
    assert ok
    assert 2.8 <= order <= 5.2
    assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_6_unitary_representation():
    L = make_loop("qc")
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(1000):
        a, b = 0.9 * rng.standard_normal(2), 0.9 * rng.standard_normal(2)
        eta, zeta = complex(*a), complex(*b)
        _, coord = qsu2_product(eta, zeta)
        direct = core.product(L, list(a), list(b))
        worst = worst_residual(worst, abs(coord - complex(direct[0], direct[1])))
    ok = _report("criterion-6 unitary-representation product (1e3 pairs)",
                 worst, 1e-10)
    assert ok


def test_criterion_7_bundle_checks():
    rng = np.random.default_rng(107)
    worst_sphere = 0.0
    for _ in range(200):
        z1, z2 = bundle.s3_point(rng.uniform(0.2, math.pi - 0.2),
                                 rng.uniform(0, 2 * math.pi),
                                 rng.uniform(0, 2 * math.pi))
        eta = complex(*rng.standard_normal(2))
        w1, w2 = bundle.s3_right_action(z1, z2, eta)
        worst_sphere = worst_residual(worst_sphere,
                                      abs(abs(w1) ** 2 + abs(w2) ** 2 - 1.0),
                                      float(np.max(np.abs(bundle.s3_project(w1, w2)
                                                          - bundle.s3_project(z1, z2)))))
    L = make_loop("qc")
    worst_wind = 0.0
    for n in range(1, 6):
        for _ in range(50):
            theta = rng.uniform(0.05, 0.9 * math.pi / n)
            gamma = rng.uniform(0.0, 2 * math.pi)
            q1 = bundle.winding_transition(1, theta, gamma)
            got = bundle.iterate_left(L, q1, n, L.identity)
            expect = bundle.winding_transition(n, theta, gamma)
            worst_wind = worst_residual(worst_wind, float(np.max(np.abs(got - expect))))
    ok1 = worst_sphere < 1e-10
    ok2 = worst_wind < 1e-9
    _report("criterion-7 bundle checks (sphere action + winding forms)",
            worst_residual(worst_sphere, worst_wind), 1e-9, ok=ok1 and ok2)
    assert ok1, f"sphere residual {worst_sphere:.3e}"
    assert ok2, f"winding residual {worst_wind:.3e}"


def test_criterion_8_gauge_suite():
    t0 = time.perf_counter()
    L = make_loop("qc")
    form = gauge.make_test_potential(L, 2, seed=108)
    rng = np.random.default_rng(108)
    e = list(L.identity)

    comm = 0.0
    omega_d = 0.0
    coef = rng.standard_normal(4)

    def f(xs, ys):
        acc = 0.0
        for c, v in zip(coef, list(xs) + list(ys)):
            acc = acc + c * v + 0.3 * c * v * v * v
        return acc

    for _ in range(20):
        x = rng.uniform(-0.4, 0.4, 2)
        y = list(0.4 * L.sample(rng))
        comm = worst_residual(comm, gauge.commutator_residual(form, 0, 1, f, list(x), y))
        for mu in range(2):
            omega_d = worst_residual(omega_d, gauge.omega_annihilates_d_residual(
                form, list(x), y, mu))

    def q_map(xs):
        phi = 0.3 + 0.8 * xs[0] - 0.5 * xs[1]
        return [gcos(phi), gsin(phi)]

    two_route = 0.0
    for _ in range(5):
        x = rng.uniform(-0.5, 0.5, 2)
        two_route = worst_residual(two_route,
                                   gauge.curvature_gauge_residual(form, q_map, list(x)))

    hor = vert = mixed = 0.0
    for _ in range(5):
        x = rng.uniform(-0.4, 0.4, 2)
        y = list(0.4 * L.sample(rng))
        z = list(x) + y
        h1 = [primal(v) for v in gauge.hor_field(form, rng.standard_normal(2))(z)]
        h2 = [primal(v) for v in gauge.hor_field(form, rng.standard_normal(2))(z)]
        hor = worst_residual(hor, gauge.structure_equation_residual(
            form, x, y, h1[:2], h1[2:], h2[:2], h2[2:]))
        vert = worst_residual(vert, gauge.structure_equation_residual(
            form, x, y, [0.0, 0.0], rng.standard_normal(2),
            [0.0, 0.0], rng.standard_normal(2)))
        ze = list(x) + e
        h1e = [primal(v) for v in gauge.hor_field(form, rng.standard_normal(2))(ze)]
        mixed = worst_residual(mixed, gauge.structure_equation_residual(
            form, x, e, h1e[:2], h1e[2:], [0.0, 0.0],
            rng.standard_normal(2)))

    form3 = gauge.make_test_potential(L, 3, seed=109)
    bianchi = 0.0
    for _ in range(3):
        x = rng.uniform(-0.4, 0.4, 3)
        bianchi = worst_residual(bianchi, gauge.bianchi_residual(
            form3, x, e, rng.standard_normal(3), rng.standard_normal(3),
            rng.standard_normal(3)))

    La = make_loop("qhr:K=0")
    forma = gauge.make_test_potential(La, 2, seed=110)
    maxwell = 0.0
    for _ in range(5):
        x = list(rng.uniform(-0.4, 0.4, 2))
        fcur = gauge.curvature(forma, x, list(La.identity))
        flat = jacobian(
            lambda xs: list(np.asarray(forma.potential.A(xs)).reshape(-1)), x)
        da = np.array([[primal(v) for v in row]
                       for row in flat]).reshape(La.dim, 2, 2)
        for i in range(La.dim):
            maxwell = worst_residual(maxwell,
                                     abs(fcur[i, 0, 1] - (da[i, 1, 0] - da[i, 0, 1])))

    elapsed = time.perf_counter() - t0
    checks = [
        ("commutator", comm, 1e-6),
        ("omega_of_D", omega_d, 1e-8),
        ("gauge_two_route", two_route, 1e-5),
        ("structure_eq_horizontal", hor, 1e-5),
        ("structure_eq_vertical", vert, 1e-5),
        ("structure_eq_mixed", mixed, 1e-5),
        ("bianchi", bianchi, 1e-4),
        ("abelian_maxwell", maxwell, 1e-12),
    ]
    ok = all(res < tol for _, res, tol in checks)
    worst = worst_residual(0.0, *(res for _, res, _ in checks))
    _report("criterion-8 gauge suite", worst, 1e-4, ok=ok)
    for name, res, tol in checks:
        assert res < tol, f"{name}: {res:.3e} >= {tol:.1e}"
    assert elapsed < 120.0, f"took {elapsed:.2f}s"
