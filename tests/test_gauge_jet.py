"""The jet route of the gauge checks against the nested-dual routines it
replaced, which are kept as the reference, their outer passes leveled
(``leveled_dual``): below for the connection form
and its derivatives, the curvature tensor, the structure equation and the
Bianchi identity; in ``gauge_reference`` for the covariant-derivative
commutator, the component curvature and the gauge transformation.  The
directional passes of the connection form and the fields are checked
against the matrix forms in ``gauge_reference``."""

import dataclasses
import math
import warnings
from collections import Counter

import numpy as np
import pytest

from loopbundle import core, dual, gauge, reconstruct, tangent
from loopbundle.dual import (Dual, gmatvec, gsin, jacobian, jet_space, pack, primal,
                            taylor_frame)
from loopbundle.zoo import make_loop

import gauge_reference as ref
from leveled_dual import ref_dirderiv, ref_jacobian


# -- the nested-dual reference ------------------------------------------------

def ref_omega_coeffs(form, z):
    """Component matrix of the connection form in combined coordinates.

    Shape fiber_dim x (base_dim + fiber_dim); accepts dual entries.
    """
    x, y = ref.split(form, z)
    dx_block, dy_block = ref.omega_matrices(form, x, y)
    nf = form.fiber.dim
    db = form.potential.base_dim
    out = np.empty((nf, db + nf), dtype=object)
    out[:, :db] = np.asarray(dx_block)
    out[:, db:] = np.asarray(dy_block)
    return pack(out)


def ref_d_omega_tensor(form, z, u, v):
    """domega(u, v) from a leveled Jacobian of the components, with
    domega(d_a, d_b) = (d_a omega_b - d_b omega_a) / 2."""
    z, u, v = list(z), list(u), list(v)
    nf = form.fiber.dim
    nz = len(z)
    # flat[p*nz + b][a] = d_a omega^p_b
    flat = ref_jacobian(lambda zz: list(np.asarray(ref_omega_coeffs(form, zz)).reshape(-1)), z)
    out = []
    for p in range(nf):
        acc = 0.0
        for a in range(nz):
            for b in range(nz):
                acc = acc + flat[p * nz + b][a] * (u[a] * v[b] - v[a] * u[b])
        out.append(0.5 * acc)
    return pack(out)


def ref_hor_project(form, z, v):
    """Horizontal part of a tangent pair: remove the fundamental lift of
    its connection-form value."""
    db = form.potential.base_dim
    _, y = ref.split(form, z)
    w = ref.omega_of(form, z, v)
    lift = gmatvec(tangent.left_frame_matrix(form.fiber, y), w)
    return pack(list(v[:db]) + [v[db + i] - lift[i] for i in range(form.fiber.dim)])


def ref_curvature_tensor(form, z, u, v):
    return ref_d_omega_tensor(form, z, ref_hor_project(form, z, u),
                              ref_hor_project(form, z, v))


def ref_structure_equation_residual(form, x, y, vx_x, vy_x, vx_y, vy_y):
    z = [float(v) for v in list(x) + list(y)]
    vone = pack([float(v) for v in list(vx_x) + list(vy_x)])
    vtwo = pack([float(v) for v in list(vx_y) + list(vy_y)])
    w1 = np.array([primal(v) for v in ref.omega_of(form, z, vone)])
    w2 = np.array([primal(v) for v in ref.omega_of(form, z, vtwo)])
    dw = np.array([primal(v) for v in ref_d_omega_tensor(form, z, vone, vtwo)])
    c = np.asarray(tangent.structure_tensor_raw(form.fiber, list(y)), dtype=float)
    half_bracket = 0.5 * np.einsum("pij,i,j->p", c, w1, w2)
    omega_2 = np.array([primal(v) for v in ref_curvature_tensor(form, z, vone, vtwo)])
    return float(np.max(np.abs(dw + half_bracket - omega_2)))


def ref_bianchi_residual(form, x, y, vx1, vx2, vx3):
    """Cyclic sum of the field derivative of Omega(f_j, f_k) along f_i
    minus Omega([f_i, f_j], f_k), on the horizontal fields f_i."""
    z = [float(v) for v in list(x) + list(y)]
    fields = [ref.hor_field(form, vx) for vx in (vx1, vx2, vx3)]
    total = np.zeros(form.fiber.dim)
    for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        fi, fj, fk = fields[i], fields[j], fields[k]
        deriv = ref_dirderiv(
            lambda zz: list(ref_curvature_tensor(form, zz, fj(zz), fk(zz))),
            z, list(fi(z)))
        comm_val = ref_curvature_tensor(form, z, fk(z), ref.field_bracket(fi, fj)(z))
        total = (total + np.array([primal(v) for v in deriv])
                 + np.array([primal(v) for v in comm_val]))
    return float(np.max(np.abs(total)))


GAUGE_LOOPS = ["qc", "qh2", "qsu2", "qhr:K=1", "qhr:K=0", "rz"]


def _floats(m):
    return np.array([primal(v) for v in np.asarray(m).flat])


def _point(L, base_dim, rng):
    return list(rng.uniform(-0.3, 0.3, base_dim)), list(0.3 * L.sample(rng))


# -- the jet route against the reference ---------------------------------------

@pytest.mark.parametrize("name", GAUGE_LOOPS)
def test_connection_jet_matches_nested_jacobians(name):
    L = make_loop(name)
    n = 2 + L.dim
    form = gauge.make_test_potential(L, 2, seed=43)
    x, y = _point(L, 2, np.random.default_rng(43))
    z = x + y

    def flat_omega(zz):
        return list(np.asarray(ref_omega_coeffs(form, zz)).reshape(-1))

    def flat_grad(zz):
        return list(np.asarray(ref_jacobian(flat_omega, zz)).reshape(-1))

    om, dom, d2om, lam, p = gauge._connection_jet(form, x, y, order=2)
    want = _floats(ref_omega_coeffs(form, z)).reshape(L.dim, n)
    # jacobian(flat_omega)[p*n + b][a] = d_a omega^p_b
    want_d = _floats(ref_jacobian(flat_omega, z)).reshape(L.dim, n, n).transpose(2, 0, 1)
    want_d2 = _floats(ref_jacobian(flat_grad, z)).reshape(L.dim, n, n, n).transpose(3, 2, 0, 1)
    assert np.max(np.abs(om - want)) <= 1e-14
    assert np.max(np.abs(dom - want_d)) <= 1e-14
    assert np.max(np.abs(d2om - want_d2)) <= 1e-15 * np.max(np.abs(want_d2))
    # A first-order pass carries the same omega, dom, Lambda and P, and no
    # d2om.  On rz the division's carry runs 2 Newton steps instead of 3,
    # and a zero part's sign can follow the dropped alpha^2 terms.
    first = gauge._connection_jet(form, x, y, order=1)
    assert len(first) == 4
    for got, want in zip(first, (om, dom, lam, p)):
        if name == "rz":
            assert np.max(np.abs(got - want)) <= 1e-14 * (1.0 + np.max(np.abs(want)))
        else:
            assert got.tobytes() == want.tobytes()
    # the directional passes of the form and the fields against their matrix forms
    rng = np.random.default_rng(44)
    vx, vy, w = rng.standard_normal(2), rng.standard_normal(L.dim), rng.standard_normal(L.dim)
    pairs = ((gauge.omega_apply(form, x, y, vx, vy), ref.omega_apply(form, x, y, vx, vy)),
             (gauge.hor_field(form, vx)(z), ref.hor_field(form, vx)(z)),
             (gauge.fundamental_field(form, w)(z), ref.fundamental_field(form, w)(z)))
    for got, want in pairs:
        assert got.dtype == float
        assert np.max(np.abs(got - want)) <= 1e-14
    assert abs(gauge.vertical_reproduction_residual(form, x, y, w)
               - ref.vertical_reproduction_residual(form, x, y, w)) <= 1e-14


@pytest.mark.parametrize("name", ["qc", "qh2", "qsu2", "qhr:K=1", "qhr:K=-2.5", "qhr:K=0",
                                  "rz"])
def test_connection_map_drops_products_by_the_identity(name):
    """The library's connection map y \\ ((e + A v_x).y + v_y), one left
    division, against the reference's two, (e.y) \\ ((e.c).y) + y \\ (y + v_y)."""
    # e.p = p holds bit for bit in every closed form but rz's, so the
    # division's argument is y at v = 0 and neither dropping the products
    # by e nor merging the two divisions changes a jet coefficient.  On rz,
    # e.y = (y + f(y)) - f(y) rounds, and the jets move by at most 5.7e-14
    # absolute and 2.9e-16 relative to the largest entry on these points.
    L = make_loop(name)
    rng = np.random.default_rng(48)
    for seed in range(5):
        form = gauge.make_test_potential(L, 2, seed=seed)
        x, y = _point(L, 2, rng)
        z = x + y
        for order in (1, 2):
            got = taylor_frame(gauge._connection_map(form), z, [0.0] * len(z), order)
            want = taylor_frame(ref.ref_connection_map(form), z, [0.0] * len(z), order)
            for g, w in zip(got, want, strict=True):
                if name == "rz":
                    gap = np.max(np.abs(g - w))
                    assert gap <= 1.1e-13 and gap <= 1e-15 * np.max(np.abs(w))
                else:
                    assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("name", GAUGE_LOOPS + ["qhr:K=-2.5"])
def test_horizontal_field_is_horizontal_and_takes_carriers(name):
    # omega(D) moves the division's argument by Rbar A vx - Rbar A vx, so
    # it reads 0 up to the division's rounding on every fiber.
    L = make_loop(name)
    rng = np.random.default_rng(49)
    for seed in range(5):
        form = gauge.make_test_potential(L, 2, seed=seed)
        x, y = _point(L, 2, rng)
        vx = rng.standard_normal(2)
        h = gauge.hor_field(form, vx)(x + y)
        assert np.max(np.abs(gauge.omega_apply(form, x, y, h[:2], h[2:]))) <= 1e-15
        # A caller's leveled carrier in z: the derivative of the field
        # along dz, against the reference field's.
        dz = rng.standard_normal(2 + L.dim)
        got = ref_dirderiv(lambda zz: list(gauge.hor_field(form, vx)(zz)), x + y, dz)
        want = ref_dirderiv(lambda zz: list(ref.hor_field(form, vx)(zz)), x + y, dz)
        assert np.max(np.abs(_floats(got) - _floats(want))) <= 1e-14


@pytest.mark.parametrize("name", ["qc", "qh2", "qhr:K=1", "qhr:K=-2.5"])
def test_vertical_structure_equation_needs_the_structure_tensor(monkeypatch, name):
    # On vertical pairs P u = P v = 0, so the residual is
    # domega(u, v) + (1/2) C(omega(u), omega(v)): it compares the
    # derivative of the division with the product's structure tensor.
    L = make_loop(name)
    rng = np.random.default_rng(50)
    cases = []
    for seed in range(3):
        form = gauge.make_test_potential(L, 2, seed=seed)
        x, y = _point(L, 2, rng)
        w1, w2 = rng.standard_normal((2, L.dim))
        v1 = gauge.fundamental_field(form, w1)(x + y)
        v2 = gauge.fundamental_field(form, w2)(x + y)
        cases.append((form, x, y, v1[:2], v1[2:], v2[:2], v2[2:]))
    assert max(gauge.structure_equation_residual(*c) for c in cases) <= 1e-15
    monkeypatch.setattr(tangent, "structure_tensor_raw",
                        lambda L, a, side="left": np.zeros((L.dim,) * 3))
    assert max(gauge.structure_equation_residual(*c) for c in cases) > 1e-5


@pytest.mark.parametrize("name", GAUGE_LOOPS)
def test_curvature_and_structure_equation_match_nested_dual_reference(name):
    L = make_loop(name)
    n = 2 + L.dim
    rng = np.random.default_rng(45)
    e = list(L.identity)
    for kind in ("poly", "trig"):
        form = gauge.make_test_potential(L, 2, seed=45, kind=kind)
        x, y = _point(L, 2, rng)
        u, v = rng.standard_normal(n), rng.standard_normal(n)
        got = gauge.curvature_tensor(form, x + y, u, v)
        assert got.dtype == float
        assert np.max(np.abs(got - _floats(ref_curvature_tensor(form, x + y, u, v)))) <= 1e-14
        assert np.max(np.abs(gauge.curvature(form, x, y) - ref.curvature(form, x, y))) <= 1e-14
        # on and off the section; generic pairs off it have a nonzero residual
        for fiber_point in (y, e):
            args = (form, x, fiber_point, u[:2], u[2:], v[:2], v[2:])
            got = gauge.structure_equation_residual(*args)
            assert abs(got - ref_structure_equation_residual(*args)) <= 1e-14


@pytest.mark.parametrize("name", GAUGE_LOOPS)
def test_bianchi_matches_nested_dual_reference(name):
    L = make_loop(name)
    form = gauge.make_test_potential(L, 3, seed=47)
    rng = np.random.default_rng(47)
    x, y = _point(L, 3, rng)
    directions = rng.standard_normal((3, 3))
    on_section = gauge.bianchi_residual(form, x, list(L.identity), *directions)
    assert abs(on_section - ref_bianchi_residual(form, x, list(L.identity), *directions)) <= 1e-14
    assert on_section < 1e-12
    # off the section the residual is nonzero by design on the nonassociative
    # fibers (about 5e-3 here): a sharper check than a zero
    off_section = gauge.bianchi_residual(form, x, y, *directions)
    assert abs(off_section - ref_bianchi_residual(form, x, y, *directions)) <= 1e-14


def _cubic(coef):
    def f(xs, ys):
        acc = 0.0
        for c, v in zip(coef, list(xs) + list(ys)):
            acc = acc + c * v + 0.3 * c * v * v * v
        return acc
    return f


@pytest.mark.parametrize("name", GAUGE_LOOPS)
def test_commutator_matches_nested_dual_reference(monkeypatch, name):
    L = make_loop(name)
    rng = np.random.default_rng(53)
    for kind in ("poly", "trig"):
        form = gauge.make_test_potential(L, 2, seed=53, kind=kind)
        f = _cubic(rng.standard_normal(2 + L.dim))
        x, y = _point(L, 2, rng)
        for mu, nu in ((0, 1), (1, 0), (1, 1)):
            got = gauge.commutator_residual(form, mu, nu, f, x, y)
            assert abs(got - ref.commutator_residual(form, mu, nu, f, x, y)) <= 1e-14
            assert got < 1e-12
    # F with the left frame's structure tensor: a wrong curvature must show.
    # The two tensors differ on the nonabelian fibers of dimension > 1.
    wrong = tangent.structure_tensor_raw(L, y, side="left")
    right = tangent.structure_tensor_raw(L, y, side="right")
    monkeypatch.setattr(tangent, "_structure", lambda r, dr: wrong)
    got = gauge.commutator_residual(form, 0, 1, f, x, y)
    assert abs(got - ref.commutator_residual(form, 0, 1, f, x, y, side="left")) <= 1e-14
    if np.max(np.abs(wrong - right)) > 1e-3:
        assert got > 1e-4


def _test_transition(L, seed):
    """A smooth transition into the chart and, for the reference, its right
    inverse, None for the right division e / q.  On rz the transition stays
    in the window where the divisions exist.  On qhr the inverse is given:
    on that family e / q = -q, which ``test_default_back_transition_on_qhr``
    compares with the library's right division."""
    if L.name == "rz":
        return lambda xs: [0.05 + 0.04 * gsin(xs[0] - 2.0 * xs[1])], None
    q_map = gauge.make_test_transition(L, 2, seed=seed)
    if L.name.startswith("qhr"):
        return q_map, lambda xs: [-v for v in q_map(xs)]
    return q_map, None


@pytest.mark.parametrize("name", GAUGE_LOOPS)
def test_gauge_transform_matches_nested_dual_reference(name):
    L = make_loop(name)
    form = gauge.make_test_potential(L, 2, seed=55, kind="trig")
    q_map, q_back = _test_transition(L, 55)
    want = ref.gauge_transform(form, q_map, q_back)
    moved = gauge.gauge_transform(form, q_map)
    rng = np.random.default_rng(55)
    for _ in range(2):
        x = list(rng.uniform(-0.4, 0.4, 2))
        got = moved.potential.A(x)
        assert got.dtype == float
        assert np.max(np.abs(got - _floats(want.potential.A(x)).reshape(L.dim, 2))) <= 1e-14
        # A' on jets, through the curvature in the new chart
        assert np.max(np.abs(gauge.curvature(moved, x, L.identity)
                             - ref.curvature(want, x, L.identity))) <= 1e-14
        assert abs(gauge.curvature_gauge_residual(form, q_map, x)
                   - ref.curvature_gauge_residual(form, q_map, x, q_back)) <= 1e-14
        if name == "qhr:K=0":
            via_global = ref.gauge_transform_via_global(form, q_map).potential.A(x)
            assert np.max(np.abs(got - _floats(via_global).reshape(L.dim, 2))) <= 1e-14


@pytest.mark.parametrize("name", ["qhr:K=1", "qhr:K=0"])
def test_default_back_transition_on_qhr(name):
    # The library's q_ba is the right division e / q on jets, the qhr
    # closed form; the reference is given q_ba = -q explicitly.
    L = make_loop(name)
    form = gauge.make_test_potential(L, 2, seed=55, kind="trig")
    q_map, q_back = _test_transition(L, 55)
    rng = np.random.default_rng(56)
    for _ in range(3):
        x = list(rng.uniform(-0.4, 0.4, 2))
        assert abs(gauge.curvature_gauge_residual(form, q_map, x)
                   - ref.curvature_gauge_residual(form, q_map, x, q_back=q_back)) <= 1e-14


@pytest.mark.parametrize("name", ["qc", "qh2", "qhr:K=1", "qhr:K=-2.5"])
def test_jet_checks_run_on_a_transformed_form(name):
    # A' takes jets, so every jet check runs on it: the curvature tensor
    # against the nested-dual reference's transformed form, and the
    # structure equation, Bianchi and the commutator as residuals.
    L = make_loop(name)
    e = list(L.identity)
    rng = np.random.default_rng(63)
    form = gauge.make_test_potential(L, 2, seed=63, kind="trig")
    q_map = gauge.make_test_transition(L, 2, seed=63)
    moved = gauge.gauge_transform(form, q_map)
    want = ref.gauge_transform(form, q_map)
    x, y = _point(L, 2, rng)
    z = x + y
    u, v = rng.standard_normal((2, 2 + L.dim))
    got = gauge.curvature_tensor(moved, z, u, v)
    assert np.max(np.abs(got - _floats(ref_curvature_tensor(want, z, u, v)))) <= 1e-12
    h1, h2 = (gauge.hor_field(moved, w)(z) for w in rng.standard_normal((2, 2)))
    f1, f2 = (gauge.fundamental_field(moved, w)(z) for w in rng.standard_normal((2, L.dim)))
    for p1, p2 in ((h1, h2), (f1, f2)):
        assert gauge.structure_equation_residual(
            moved, x, y, p1[:2], p1[2:], p2[:2], p2[2:]) <= 1e-12
    assert gauge.commutator_residual(
        moved, 0, 1, _cubic(rng.standard_normal(2 + L.dim)), x, y) <= 1e-12
    moved3 = gauge.gauge_transform(gauge.make_test_potential(L, 3, seed=64),
                                   gauge.make_test_transition(L, 3, seed=64))
    x3 = list(rng.uniform(-0.3, 0.3, 3))
    assert gauge.bianchi_residual(moved3, x3, e, *rng.standard_normal((3, 3))) <= 1e-12


def test_transformed_potential_rejects_a_dual_coordinate():
    # A Dual coordinate would be captured by the potential's own dual pass
    # and give a wrong A' silently, so it raises; floats and jets pass.
    L = make_loop("qc")
    moved = gauge.gauge_transform(gauge.make_test_potential(L, 2, seed=65),
                                  gauge.make_test_transition(L, 2, seed=65))
    with pytest.raises(TypeError):
        moved.potential.A([Dual(0.1, 1.0), 0.2])
    jets = [jet_space(2, 1).variable(v, ((m,), ())) for m, v in enumerate([0.1, 0.2])]
    on_jets = moved.potential.A(jets)
    assert np.array_equal(_floats(on_jets), moved.potential.A([0.1, 0.2]).ravel())


def _two_call_transition(L, q_map):
    """The pair (q_ab, e / q_ab) with q_map evaluated once for q_ab and
    again inside the division."""
    e = [float(v) for v in L.identity]
    return lambda xs: core._chart_points(L, q_map(xs), L.right_div(e, list(q_map(xs))))


def test_transition_evaluates_q_map_once_per_pair(monkeypatch):
    # Each pair takes q_ab once.  The transformed potential evaluates its
    # pair once per call and the theta term once per Jacobian column: 3
    # calls on floats, and as many on jets inside the residual, whose Ad^-1
    # differential adds 1.  The results are those of evaluating q_map twice
    # per pair.
    L = make_loop("qc")
    form = gauge.make_test_potential(L, 2, seed=61, kind="trig")
    q_map, _ = _test_transition(L, 61)
    calls = [0]

    def counted(xs):
        calls[0] += 1
        return q_map(xs)

    def run():
        got = []
        for x in ([0.1, -0.2], [-0.3, 0.25]):
            calls[0] = 0
            got.append((gauge.curvature_gauge_residual(form, counted, x), calls[0]))
            calls[0] = 0
            got.append((gauge.gauge_transform(form, counted).potential.A(x), calls[0]))
        return got

    got = run()
    monkeypatch.setattr(gauge, "_transition", _two_call_transition)
    want = run()
    assert [n for _, n in got] == [4, 3, 4, 3]
    assert [n for _, n in want] == [6, 4, 6, 4]
    for (g, _), (w, _) in zip(got, want):
        assert np.array_equal(g, w)


# One jet pass of the connection form per call, plus one of the product
# for the structure functions in the structure equation; the commutator
# makes one pass of f(z + v), one of A(x) v and one of the product, the
# component curvature one of A(x) v and one of the product; no Dual nodes.
# Each pass carries the order its caller reads: only the Jacobi and
# Bianchi residuals read second derivatives, so only they build an
# order-2 jet space.
@pytest.mark.parametrize("name", ["rz", "qc", "qhr:K=1"])
def test_jet_route_call_counts(monkeypatch, name):
    L = make_loop(name)
    nodes = [0]
    passes = Counter()
    spaces = set()

    def counting_init(obj, re, du=0.0, lvl=0):
        obj.re = re
        obj.du = du
        obj.lvl = lvl
        nodes[0] += 1

    def counted(module):
        fn = module.taylor_frame

        def wrapper(f, a, e, order):
            passes[module.__name__.split(".")[-1], order] += 1
            return fn(f, a, e, order)
        return wrapper

    def recorded(n, order):
        spaces.add(order)
        return jet_space(n, order)

    form2 = gauge.make_test_potential(L, 2, seed=49)
    form3 = gauge.make_test_potential(L, 3, seed=50)
    q_map, _ = _test_transition(L, 49)
    rng = np.random.default_rng(49)
    x, y = _point(L, 2, rng)
    a, b = (list(0.3 * L.sample(rng)) for _ in range(2))
    u, v = rng.standard_normal(2 + L.dim), rng.standard_normal(2 + L.dim)
    for module in (gauge, tangent, reconstruct):
        monkeypatch.setattr(module, "taylor_frame", counted(module))
    monkeypatch.setattr(dual, "jet_space", recorded)
    monkeypatch.setattr(Dual, "__init__", counting_init)
    calls = (
        (lambda: gauge.curvature_tensor(form2, x + y, u, v), {("gauge", 1): 1}),
        (lambda: gauge.structure_equation_residual(form2, x, y, u[:2], u[2:], v[:2], v[2:]),
         {("gauge", 1): 1, ("tangent", 1): 1}),
        (lambda: gauge.bianchi_residual(form3, [0.1, -0.2, 0.3], y, *np.eye(3)),
         {("gauge", 2): 1}),
        (lambda: gauge.commutator_residual(form2, 0, 1, _cubic(u), x, y),
         {("gauge", 1): 2, ("tangent", 1): 1}),
        (lambda: gauge.curvature(form2, x, y), {("gauge", 1): 1, ("tangent", 1): 1}),
        (lambda: tangent.structure_tensor_raw(L, a), {("tangent", 1): 1}),
        (lambda: tangent.jacobi_residual(L, a), {("tangent", 2): 1}),
        (lambda: reconstruct.maurer_cartan_residual(L, b, a),
         {("reconstruct", 1): 1, ("tangent", 1): 1}),
    )
    for call, want in calls:
        passes.clear()
        spaces.clear()
        call()
        assert passes == Counter(want)
        assert spaces == {order for _, order in want}
    assert nodes[0] == 0
    # the curvature in another trivialization: two component curvatures,
    # A' a Dual Jacobian inside its jet pass, and Ad^-1 a Dual Jacobian
    passes.clear()
    spaces.clear()
    gauge.curvature_gauge_residual(form2, q_map, [0.1, -0.2])
    assert passes == Counter({("gauge", 1): 2, ("tangent", 1): 2})
    assert spaces == {1}


# -- the test potential --------------------------------------------------------

def _flat(pot):
    return lambda xs: list(np.asarray(pot.A(xs)).reshape(-1))


def _jet_coeffs(values):
    return np.array([v.c for v in np.asarray(values).flat])


def _close(got, want):
    """Agreement to 1e-15 relative to the largest entry of ``want``."""
    return np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("kind", ["poly", "trig"])
@pytest.mark.parametrize("base_dim", [1, 2, 3])
def test_test_potential_matches_the_per_entry_loop(kind, base_dim):
    # One matrix on the features against the scalar loop it replaced, on
    # floats, a library Jacobian, jets of order 1 and 2, and a leveled one.
    # Only the rounding order differs; jet primals are the floats exactly.
    rng = np.random.default_rng(61 + base_dim)
    for name in ("qc", "qhr:K=1"):
        L = make_loop(name)
        pot = gauge.make_test_potential(L, base_dim, seed=62, kind=kind).potential
        loop = ref.make_test_potential(L, base_dim, seed=62, kind=kind).potential
        x = list(rng.uniform(-0.5, 0.5, base_dim))
        on_floats = pot.A(x)
        assert on_floats.dtype == float and on_floats.shape == (L.dim, base_dim)
        assert _close(on_floats, loop.A(x))
        assert _close(jacobian(_flat(pot), x), jacobian(_flat(loop), x))
        for order in (1, 2):
            space = jet_space(base_dim, order)
            jets = [space.variable(v, ((m,), ())) for m, v in enumerate(x)]
            got = _jet_coeffs(pot.A(jets))
            assert _close(got, _jet_coeffs(loop.A(jets)))
            assert got[:, 0].tobytes() == on_floats.tobytes()
        assert _close(_floats(ref_jacobian(_flat(pot), x)),
                      _floats(ref_jacobian(_flat(loop), x)))


def test_test_potential_on_jets_multiplies_once_per_coordinate(monkeypatch):
    # The features x_k^2 are the only jet products of a poly potential: 2 for
    # base_dim 2, where the per-entry loop made one per entry and
    # coordinate, nf * base_dim^2 = 8 on qc.
    L = make_loop("qc")
    products = [0]
    mul = dual.JetSpace.mul

    def counted(space, x, y):
        products[0] += 1
        return mul(space, x, y)

    monkeypatch.setattr(dual.JetSpace, "mul", counted)
    space = jet_space(2, 1)
    jets = [space.variable(v, ((m,), ())) for m, v in enumerate([0.1, -0.2])]
    for make, want in ((gauge.make_test_potential, 2), (ref.make_test_potential, 8)):
        products[0] = 0
        make(L, 2, seed=63).potential.A(jets)
        assert products[0] == want


# -- powers --------------------------------------------------------------------

def _square_potential(L, square):
    def a_fun(xs):
        out = np.empty((L.dim, 2), dtype=object)
        for i in range(L.dim):
            out[i, 0] = 0.3 + (0.2 + 0.1 * i) * square(xs[0]) - 0.4 * xs[1]
            out[i, 1] = -0.1 * i + 0.5 * square(xs[1]) * xs[0]
        return pack(out)

    return gauge.LocalConnectionForm(
        potential=gauge.GaugePotential(chart="square", A=a_fun, base_dim=2), fiber=L)


@pytest.mark.parametrize("name", ["qc", "qsu2", "qhr:K=1"])
def test_potential_with_a_power_takes_jets(name):
    # A potential may write x**2: the jet routes give what x*x gives, bit
    # for bit, as the float and dual routes already did.
    L = make_loop(name)
    power = _square_potential(L, lambda v: v ** 2)
    product = _square_potential(L, lambda v: v * v)
    rng = np.random.default_rng(57)
    x, y = _point(L, 2, rng)
    u, v = rng.standard_normal(2 + L.dim), rng.standard_normal(2 + L.dim)
    assert (gauge.curvature(power, x, y).tobytes()
            == gauge.curvature(product, x, y).tobytes())
    # the structure equation holds on mixed pairs along the section y = e
    args = (x, list(L.identity), u[:2], u[2:], v[:2], v[2:])
    got = gauge.structure_equation_residual(power, *args)
    assert got == gauge.structure_equation_residual(product, *args)
    assert got < 1e-12


def test_jet_and_dual_powers_take_nonnegative_integers():
    jet = jet_space(2, 1).variable(0.5, ((0,), ()))
    assert (jet ** 0, (jet ** 3).c.tobytes()) == (1.0, (jet * jet * jet).c.tobytes())
    for x in (jet, Dual(0.5, 1.0)):
        for n in (-1, 2.0, 0.5):
            with pytest.raises(TypeError, match="nonnegative integer"):
                x ** n


# -- non-finite values ---------------------------------------------------------

@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_gauge_jet_routes_are_silent_on_non_finite_potentials(bad):
    L = make_loop("qc")
    base = gauge.make_test_potential(L, 3, seed=51)
    pot = dataclasses.replace(base.potential, A=lambda xs: base.potential.A(xs) * bad)
    form = dataclasses.replace(base, potential=pot)
    x, e = [0.1, -0.2, 0.3], list(L.identity)
    u = [1.0, 0.0, 0.0, 0.2, -0.1]
    v = [0.0, 1.0, 0.0, -0.3, 0.4]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not np.all(np.isfinite(gauge.curvature_tensor(form, x + e, u, v)))
        assert not math.isfinite(
            gauge.structure_equation_residual(form, x, e, u[:3], u[3:], v[:3], v[3:]))
        assert not math.isfinite(gauge.bianchi_residual(form, x, e, *np.eye(3)))
        assert not math.isfinite(gauge.commutator_residual(form, 0, 1, _cubic(u), x, e))
        assert not np.all(np.isfinite(gauge.curvature(form, x, e)))
