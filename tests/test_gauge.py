import math

import numpy as np
import pytest

from loopbundle import core, dual, gauge, tangent
from loopbundle.dual import jacobian, primal
from loopbundle.errors import PartitionInvalid
from loopbundle.zoo import make_loop

import gauge_reference as ref


def _as_float(m):
    return np.array([[primal(v) for v in row] for row in np.asarray(m)])


def phase_transition(c0, c1, c2):
    """Circle-valued transition map x -> (cos phi, sin phi)."""
    from loopbundle.dual import gcos, gsin

    def q_map(xs):
        phi = c0 + c1 * xs[0] + c2 * xs[1]
        return [gcos(phi), gsin(phi)]

    return q_map


def test_right_frame_closed_form_for_mobius():
    # columns of d(a.y)/da at a = 0 are 1 + y^2 and i(1 - y^2)
    L = make_loop("qc")
    rng = np.random.default_rng(1)
    for _ in range(20):
        yv = L.sample(rng)
        y = complex(yv[0], yv[1])
        r = _as_float(tangent.right_frame_matrix(L, list(yv)))
        col1 = 1.0 + y * y
        col2 = 1j * (1.0 - y * y)
        expect = np.array([[col1.real, col2.real], [col1.imag, col2.imag]])
        assert np.max(np.abs(r - expect)) < 1e-12


def test_right_structure_tensor_antisymmetry():
    L = make_loop("qh2")
    rng = np.random.default_rng(2)
    c = tangent.structure_tensor_raw(L, list(0.5 * L.sample(rng)), side="right")
    assert np.max(np.abs(c + c.transpose(0, 2, 1))) < 1e-12


def test_ad_inverse_matrix_inverts_forward():
    L = make_loop("qc")
    rng = np.random.default_rng(3)
    for _ in range(10):
        y = 0.5 * L.sample(rng)
        fwd = np.asarray(tangent.ad_differential(L, list(y), list(L.identity)),
                         dtype=float)
        inv = _as_float(tangent.ad_inverse_differential(L, list(y), list(L.identity)))
        assert np.allclose(inv @ fwd, np.eye(2), atol=1e-12)


def test_curvature_antisymmetric_in_base_indices():
    L = make_loop("qc")
    form = gauge.make_test_potential(L, 3, seed=5)
    rng = np.random.default_rng(5)
    x = rng.uniform(-0.5, 0.5, 3)
    f = gauge.curvature(form, list(x), list(L.identity))
    assert np.max(np.abs(f + f.transpose(0, 2, 1))) < 1e-12


def test_abelian_curvature_is_the_curl():
    L = make_loop("qhr:K=0")
    form = gauge.make_test_potential(L, 2, seed=7)
    x = [0.2, -0.4]
    f = gauge.curvature(form, x, list(L.identity))
    flat = jacobian(lambda xs: list(np.asarray(form.potential.A(xs)).reshape(-1)), x)
    da = np.array([[primal(v) for v in row] for row in flat]).reshape(L.dim, 2, 2)
    for i in range(L.dim):
        assert abs(f[i, 0, 1] - (da[i, 1, 0] - da[i, 0, 1])) < 1e-12


@pytest.mark.parametrize("name", ["rz", "qc", "qh2", "qhr:K=1"])
def test_commutator_identity(name):
    L = make_loop(name)
    form = gauge.make_test_potential(L, 2, seed=9)
    rng = np.random.default_rng(9)
    coef = rng.standard_normal(2 + L.dim)

    def f(xs, ys):
        acc = 0.0
        for c, v in zip(coef, list(xs) + list(ys)):
            acc = acc + c * v + 0.3 * c * v * v * v
        return acc

    for _ in range(5):
        x = rng.uniform(-0.4, 0.4, 2)
        y = 0.3 * L.sample(rng)
        assert gauge.commutator_residual(form, 0, 1, f, list(x), list(y)) < 1e-10


def test_connection_annihilates_covariant_directions():
    L = make_loop("qc")
    form = gauge.make_test_potential(L, 2, seed=11)
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = rng.uniform(-0.4, 0.4, 2)
        y = 0.4 * L.sample(rng)
        for mu in range(2):
            assert gauge.omega_annihilates_d_residual(form, list(x), list(y),
                                                      mu) < 1e-12


def test_vertical_values_reproduce_generators():
    L = make_loop("qh2")
    form = gauge.make_test_potential(L, 2, seed=13)
    rng = np.random.default_rng(13)
    for _ in range(10):
        x = rng.uniform(-0.4, 0.4, 2)
        y = 0.3 * L.sample(rng)
        w = rng.standard_normal(2)
        assert gauge.vertical_reproduction_residual(form, list(x), list(y),
                                                    w) < 1e-12


@pytest.mark.parametrize("name", ["qc", "qh2", "qhr:K=1"])
def test_structure_equation_horizontal_and_vertical(name):
    L = make_loop(name)
    nf = L.dim
    form = gauge.make_test_potential(L, 2, seed=15)
    rng = np.random.default_rng(15)
    x = rng.uniform(-0.3, 0.3, 2)
    y = 0.3 * L.sample(rng)
    zeros_b = np.zeros(2)
    z = list(x) + list(y)
    # two horizontal lifts of base directions
    h1 = [primal(v) for v in gauge.hor_field(form, [1.0, 0.0])(z)]
    h2 = [primal(v) for v in gauge.hor_field(form, [0.0, 1.0])(z)]
    res = gauge.structure_equation_residual(form, x, y,
                                            h1[:2], h1[2:], h2[:2], h2[2:])
    assert res < 1e-10
    # two vertical directions
    v1, v2 = rng.standard_normal(nf), rng.standard_normal(nf)
    res = gauge.structure_equation_residual(form, x, y, zeros_b, v1,
                                            zeros_b, v2)
    assert res < 1e-10


def test_structure_equation_mixed_on_section():
    L = make_loop("qc")
    form = gauge.make_test_potential(L, 2, seed=17)
    rng = np.random.default_rng(17)
    e = list(L.identity)
    for _ in range(5):
        x = rng.uniform(-0.3, 0.3, 2)
        res = gauge.structure_equation_residual(form, x, e,
                                                [1.0, 0.0], np.zeros(2),
                                                np.zeros(2),
                                                rng.standard_normal(2))
        assert res < 1e-10


def test_curvature_tensor_matches_component_curvature():
    L = make_loop("qc")
    form = gauge.make_test_potential(L, 2, seed=19)
    x, y = [0.2, -0.1], list(L.identity)
    z = x + y
    u = [1.0, 0.0, 0.0, 0.0]
    v = [0.0, 1.0, 0.0, 0.0]
    tensor = np.array([primal(q)
                       for q in gauge.curvature_tensor(form, z, u, v)])
    comp = gauge.curvature(form, x, y)
    assert np.max(np.abs(tensor - 0.5 * comp[:, 0, 1])) < 1e-10


def test_commutator_shortcut_for_horizontal_fields():
    L = make_loop("qh2")
    form = gauge.make_test_potential(L, 2, seed=21)
    f1 = gauge.hor_field(form, [1.0, 0.0])
    f2 = gauge.hor_field(form, [0.0, 1.0])
    z = [0.1, -0.2] + list(L.identity)
    via_comm = np.array(ref.curvature_2form(form, f1, f2)(z), dtype=float)
    tensor = np.array([primal(q)
                       for q in gauge.curvature_tensor(form, z, f1(z), f2(z))])
    assert np.max(np.abs(via_comm - tensor)) < 1e-10


def test_bianchi_identity_on_section():
    L = make_loop("qc")
    form = gauge.make_test_potential(L, 3, seed=23)
    rng = np.random.default_rng(23)
    x = rng.uniform(-0.3, 0.3, 3)
    res = gauge.bianchi_residual(form, x, list(L.identity),
                                 [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                 [0.0, 0.0, 1.0])
    assert res < 1e-10


def test_bianchi_trivial_for_dependent_directions():
    L = make_loop("qc")
    form = gauge.make_test_potential(L, 3, seed=25)
    res = gauge.bianchi_residual(form, [0.1, 0.2, -0.1], list(L.identity),
                                 [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                 [1.0, 1.0, 0.0])
    assert res < 1e-10


def test_gauge_transform_identity_map_is_identity():
    L = make_loop("qc")
    form = gauge.make_test_potential(L, 2, seed=27)
    moved = gauge.gauge_transform(form, lambda xs: list(L.identity))
    x = [0.2, 0.3]
    a0 = np.asarray(form.potential.A(x), dtype=float)
    a1 = _as_float(moved.potential.A(x))
    assert np.max(np.abs(a1 - a0)) < 1e-12


def test_gauge_transform_round_trip():
    L = make_loop("qc")
    form = gauge.make_test_potential(L, 2, seed=29)
    q_map = gauge.make_test_transition(L, 2, seed=29)
    q_back = lambda xs: list(core.right_divide(L, L.identity, q_map(xs)))
    there = gauge.gauge_transform(form, q_map)
    back = gauge.gauge_transform(there, q_back)
    x = [0.15, -0.25]
    a0 = np.asarray(form.potential.A(x), dtype=float)
    a1 = _as_float(back.potential.A(x))
    assert np.max(np.abs(a1 - a0)) < 1e-10


def test_gauge_transform_routes_agree_for_abelian_fiber():
    L = make_loop("qhr:K=0")
    form = gauge.make_test_potential(L, 2, seed=31)
    q_map = gauge.make_test_transition(L, 2, seed=31)
    x = [0.2, -0.1]
    a1 = _as_float(gauge.gauge_transform(form, q_map).potential.A(x))
    a2 = _as_float(ref.gauge_transform_via_global(form, q_map).potential.A(x))
    assert np.max(np.abs(a1 - a2)) < 1e-10


def test_curvature_transforms_by_ad_for_phase_transitions():
    L = make_loop("qc")
    form = gauge.make_test_potential(L, 2, seed=33)
    q_map = phase_transition(0.4, 0.7, -0.3)
    rng = np.random.default_rng(33)
    for _ in range(5):
        x = rng.uniform(-0.4, 0.4, 2)
        assert gauge.curvature_gauge_residual(form, q_map, list(x)) < 1e-10


def test_glue_connections_validates_partition():
    L = make_loop("qc")
    f1 = gauge.make_test_potential(L, 2, seed=35)
    f2 = gauge.make_test_potential(L, 2, seed=36)
    samples = [[0.1, 0.2], [-0.3, 0.4]]
    with pytest.raises(PartitionInvalid):
        gauge.glue_connections([f1, f2], [lambda x: 0.6, lambda x: 0.6],
                               samples)
    with pytest.raises(PartitionInvalid):
        gauge.glue_connections([f1, f2], [lambda x: 1.5, lambda x: -0.5],
                               samples)
    with pytest.raises(PartitionInvalid):
        gauge.glue_connections([f1], [lambda x: 1.0, lambda x: 0.0], samples)
    with pytest.raises(PartitionInvalid):
        gauge.glue_connections([f1, f2], [lambda x: math.nan, lambda x: 1.0],
                               samples)


def test_glued_connection_reproduces_vertical_generators():
    L = make_loop("qc")
    f1 = gauge.make_test_potential(L, 2, seed=37)
    f2 = gauge.make_test_potential(L, 2, seed=38)
    w1 = lambda x: 0.5 + 0.3 * math.tanh(float(primal(x[0])))
    w2 = lambda x: 1.0 - w1(x)
    glued = gauge.glue_connections([f1, f2], [w1, w2],
                                   [[0.0, 0.0], [0.3, -0.2]])
    rng = np.random.default_rng(39)
    y = 0.4 * L.sample(rng)
    res = gauge.vertical_reproduction_residual(glued, [0.1, 0.2], list(y),
                                               rng.standard_normal(2))
    assert res < 1e-12


def test_glue_with_weights_that_vary_takes_jets():
    # Weights that depend on x are jets inside every jet check, so the glue
    # scales the potential entry by entry.  On the abelian fiber F is the
    # curl of the glued potential.
    w1 = lambda xs: 0.5 + 0.1 * xs[0]
    w2 = lambda xs: 0.5 - 0.1 * xs[0]
    rng = np.random.default_rng(43)
    for name in ("qc", "qhr:K=0"):
        L = make_loop(name)
        e = list(L.identity)
        glue2, glue3 = (gauge.glue_connections(
            [gauge.make_test_potential(L, db, seed=43), gauge.make_test_potential(L, db, seed=44)],
            [w1, w2], [[0.0] * db, [0.3] * db]) for db in (2, 3))
        x, y = list(rng.uniform(-0.3, 0.3, 2)), list(0.3 * L.sample(rng))
        f = gauge.curvature(glue2, x, y)
        assert np.max(np.abs(f - ref.curvature(glue2, x, y))) <= 1e-14
        z = x + y
        h1, h2 = ([primal(v) for v in gauge.hor_field(glue2, vx)(z)]
                  for vx in ([1.0, 0.0], [0.0, 1.0]))
        assert gauge.structure_equation_residual(glue2, x, y, h1[:2], h1[2:],
                                                 h2[:2], h2[2:]) < 1e-10
        v1, v2 = rng.standard_normal(L.dim), rng.standard_normal(L.dim)
        assert gauge.structure_equation_residual(glue2, x, y, np.zeros(2), v1,
                                                 np.zeros(2), v2) < 1e-10
        assert gauge.bianchi_residual(glue3, rng.uniform(-0.3, 0.3, 3), e,
                                      *np.eye(3)) < 1e-10
        if name == "qhr:K=0":
            flat = jacobian(lambda xs: list(np.asarray(glue2.potential.A(xs)).reshape(-1)), x)
            da = _as_float(flat).reshape(L.dim, 2, 2)
            assert np.max(np.abs(f[:, 0, 1] - (da[:, 1, 0] - da[:, 0, 1]))) < 1e-14


def test_test_potential_accepts_duals():
    L = make_loop("qc")
    for kind in ("poly", "trig"):
        form = gauge.make_test_potential(L, 2, seed=41, kind=kind)
        flat = jacobian(
            lambda xs: list(np.asarray(form.potential.A(xs)).reshape(-1)),
            [0.2, -0.1])
        assert np.all(np.isfinite(np.array(
            [[primal(v) for v in row] for row in flat])))
    with pytest.raises(ValueError):
        gauge.make_test_potential(L, 2, seed=41, kind="cubic")



@pytest.mark.parametrize("name", ["qc", "qhr:K=1"])
def test_passes_run_on_python_floats(name):
    # Directions come as numpy arrays and base points as lists of numpy
    # scalars, as the benchmark passes them; each pass reads them as
    # Python floats at its edge, so no numpy scalar lands in a Dual.
    L = make_loop(name)
    form = gauge.make_test_potential(L, 2, seed=4)
    rng = np.random.default_rng(6)
    x, y = list(rng.uniform(-0.4, 0.4, 2)), list(0.5 * L.sample(rng))
    vx, w = rng.standard_normal(2), rng.standard_normal(L.dim)
    b = list(0.5 * L.sample(rng))
    v = tangent.TangentVector(base=list(0.5 * L.sample(rng)), vec=w)
    calls = {
        "omega_apply": lambda: gauge.omega_apply(form, x, y, vx, w),
        "hor_field": lambda: gauge.hor_field(form, vx)(x + y),
        "omega_annihilates_d_residual": lambda: [
            gauge.omega_annihilates_d_residual(form, x, y, mu) for mu in (0, 1)],
        "vertical_reproduction_residual": lambda: gauge.vertical_reproduction_residual(
            form, x, y, w),
        "verify_ad_form_laws": lambda: tangent.verify_ad_form_laws(L, b, v),
    }
    seen = []
    label = None
    init = dual.Dual.__init__

    def spy(self, re, du=0.0):
        seen.extend((label, type(p).__name__) for p in (re, du)
                    if isinstance(p, np.floating))
        init(self, re, du)

    dual.Dual.__init__ = spy
    try:
        for label, call in calls.items():
            call()
    finally:
        dual.Dual.__init__ = init
    assert seen == []
