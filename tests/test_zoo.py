import math

import numpy as np
import pytest

from loopbundle import core
from loopbundle.dual import jacobian, primal
from loopbundle.errors import (DomainSingularity, NoSolutionInChart,
                               PoleSingularity, UnknownKind)
from loopbundle.report import worst_residual
from loopbundle.zoo import (LoopSpec, catalog_names, chart_inverse, chart_map,
                            make_loop, parse_spec, qsu2_matrix, qsu2_product)


def test_catalog_names_build():
    for name in catalog_names():
        L = make_loop(name)
        assert L.dim >= 1


def test_parse_spec():
    assert parse_spec("qc").kind == "qc"
    s = parse_spec("qhr:K=2.5")
    assert s.kind == "qhr" and s.K == 2.5
    with pytest.raises(UnknownKind):
        parse_spec("qc:K=1")
    with pytest.raises(UnknownKind):
        LoopSpec("nothere")


def test_qc_product_closed_form():
    L = make_loop("qc")
    z, w = 0.3 + 0.1j, -0.2 + 0.4j
    got = L.product([z.real, z.imag], [w.real, w.imag])
    expect = (z + w) / (1.0 - z.conjugate() * w)
    assert abs(complex(got[0], got[1]) - expect) < 1e-15


def test_qh2_product_closed_form():
    L = make_loop("qh2")
    z, w = 0.3 - 0.2j, 0.1 + 0.5j
    got = L.product([z.real, z.imag], [w.real, w.imag])
    expect = (z + w) / (1.0 + z.conjugate() * w)
    assert abs(complex(got[0], got[1]) - expect) < 1e-15


@pytest.mark.parametrize("name,point,inside", [
    ("qc", [0.3, -0.4], True),
    ("qc", [-999.0, 40.0], True),
    ("qc", [1e3, 0.0], False),
    ("qc", [math.nan, 0.0], False),
    ("qc", [0.0, math.inf], False),
    ("qsu2", [-math.inf, math.nan], False),
    ("qh2", [0.6, -0.7], True),
    ("qh2", [0.8, 0.7], False),
    ("qh2", [math.nan, 0.1], False),
    ("qhr:K=1", [0.1, -0.2, 0.3, 0.4], True),
    ("qhr:K=1", [500.0, 500.0, 500.0, 499.0], True),
    ("qhr:K=1", [500.0, 500.0, 500.0, 501.0], False),
    ("qhr:K=1", [0.1, math.nan, 0.0, 0.0], False),
    ("qhr:K=1", [0.0, 0.0, -math.inf, 0.0], False),
    ("qhr:K=1", [math.inf, 0.0, math.nan, 0.0], False),
])
def test_chart_domain_check(name, point, inside):
    L = make_loop(name)
    assert L.domain_check(np.array(point)) is inside
    assert L.domain_check(point) is inside


def test_qh2_stays_in_disk():
    L = make_loop("qh2")
    rng = np.random.default_rng(2)
    for _ in range(200):
        a, b = L.sample(rng), L.sample(rng)
        p = core.product(L, a, b)
        assert np.hypot(p[0], p[1]) < 1.0


def test_qh2_division_guard():
    L = make_loop("qh2")
    # a quotient landing outside the open disk has no chart representative
    with pytest.raises(NoSolutionInChart):
        L.left_div([0.0, 0.0], [1.2, 0.0])


def test_qhr_abelian_limit_is_addition():
    L = make_loop("qhr:K=0")
    rng = np.random.default_rng(4)
    for _ in range(50):
        a, b = L.sample(rng), L.sample(rng)
        assert np.allclose(core.product(L, a, b), np.asarray(a) + np.asarray(b))


def test_qhr_division_round_trip():
    L = make_loop("qhr:K=1")
    rng = np.random.default_rng(6)
    for _ in range(50):
        a, b = L.sample(rng), L.sample(rng)
        y = core.right_divide(L, b, a)
        assert core.distance(L, core.product(L, y, a), np.asarray(b)) < 1e-12


def test_rz_identity_and_monotone_window():
    L = make_loop("rz")
    rng = np.random.default_rng(8)
    for _ in range(100):
        a = L.sample(rng)
        assert core.distance(L, core.product(L, [0.0], a), np.asarray(a)) < 1e-14
        # samples stay well below the invertibility bound of left translation
        assert 0.0 <= a[0] < 1.0 / math.pi ** 2


def test_qsu2_matrix_is_unitary():
    u = qsu2_matrix(0.3 - 0.4j)
    assert np.allclose(u.conj().T @ u, np.eye(2), atol=1e-14)


def test_qsu2_product_reads_off_qc_coordinate():
    L = make_loop("qc")
    rng = np.random.default_rng(10)
    for _ in range(100):
        a, b = 0.9 * rng.standard_normal(2), 0.9 * rng.standard_normal(2)
        eta, zeta = complex(*a), complex(*b)
        _, coord = qsu2_product(eta, zeta)
        direct = core.product(L, list(a), list(b))
        assert abs(coord - complex(direct[0], direct[1])) < 1e-12


def test_chart_round_trip():
    for kind in ("sphere", "hyperboloid"):
        theta, phi = 1.1, 2.3
        point = chart_map(kind, theta, phi)
        t2, p2 = chart_inverse(kind, point)
        assert abs(float(t2) - theta) < 1e-12
        assert abs(float(p2) - phi) < 1e-12


def test_chart_pole_raises():
    with pytest.raises(PoleSingularity):
        chart_map("sphere", math.pi, 0.0)
    with pytest.raises(UnknownKind):
        chart_map("torus", 0.3, 0.0)


# -- closed forms against the complex reference formulas ---------------------
#
# The reference writes each loop as the library once did: Moebius maps on
# Python complex numbers, and H_R as complexified quaternions (lists of four
# complex numbers) with the product (z + w)(1 + (K/4) z^+ w)^-1.

def _qmul(p, q):
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return [a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2]


def _qconj(q):
    return [q[0], -q[1], -q[2], -q[3]]


def _qinv(q):
    n2 = sum(c * c for c in q)
    return [c / n2 for c in _qconj(q)]


def _to_quat(p):
    return [complex(p[0]), 1j * p[1], 1j * p[2], 1j * p[3]]


def _from_quat(q):
    return [q[0].real, q[1].imag, q[2].imag, q[3].imag]


def _ref_qhr(K):
    k = K / 4.0

    def prod(a, b):
        z, w = _to_quat(a), _to_quat(b)
        m = [c * k for c in _qmul(_qconj(z), w)]
        m[0] += 1.0
        return _from_quat(_qmul([x + y for x, y in zip(z, w)], _qinv(m)))

    def left_div(a, b):
        z, w = _to_quat(a), _to_quat(b)
        m = [-c * k for c in _qmul(w, _qconj(z))]
        m[0] += 1.0
        return _from_quat(_qmul(_qinv(m), [y - x for x, y in zip(z, w)]))

    def right_div(b, a):
        # y - k b y^+ a = b - a, complex-linear in y.
        av, bv = _to_quat(a), _to_quat(b)
        cols = []
        for m in range(4):
            e = [1.0 if i == m else 0.0 for i in range(4)]
            img = _qmul(_qmul(bv, _qconj(e)), av)
            cols.append([e[i] - k * img[i] for i in range(4)])
        t = np.array(cols).T
        y = np.linalg.solve(t, np.array([x - y for x, y in zip(bv, av)]))
        return _from_quat(list(y))

    return prod, left_div, right_div


def _ref_mobius(sign):
    def prod(a, b):
        z, w = complex(*a), complex(*b)
        out = (z + w) / (1.0 + sign * z.conjugate() * w)
        return [out.real, out.imag]

    def left_div(a, b):
        z, w = complex(*a), complex(*b)
        out = (w - z) / (1.0 - sign * z.conjugate() * w)
        return [out.real, out.imag]

    def right_div(b, a):
        av, bv = complex(*a), complex(*b)
        c = -sign * bv * av
        d = bv - av
        out = (d - c * d.conjugate()) / (1.0 - abs(c) ** 2)
        return [out.real, out.imag]

    return prod, left_div, right_div


REFERENCES = {"qc": _ref_mobius(-1.0), "qsu2": _ref_mobius(-1.0),
              "qh2": _ref_mobius(1.0)}
REFERENCES.update({f"qhr:K={K:g}": _ref_qhr(K) for K in (1.0, 0.0, 2.5, -1.0)})
OPERATIONS = ("product", "left_div", "right_div")


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_closed_forms_match_complex_reference(name):
    L = make_loop(name)
    rng = np.random.default_rng(11)
    for _ in range(100):
        a, b = list(L.sample(rng)), list(L.sample(rng))
        for op, ref in zip(OPERATIONS, REFERENCES[name]):
            got = getattr(L, op)(a, b)
            assert np.max(np.abs(np.array(got) - ref(a, b))) < 1e-13, (op, a, b)


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_dual_jacobians_match_reference_differences(name):
    L = make_loop(name)
    rng = np.random.default_rng(12)
    h = 1e-6
    for _ in range(10):
        a, b = list(L.sample(rng)), list(L.sample(rng))
        x = a + b
        n = L.dim
        for op, ref in zip(OPERATIONS, REFERENCES[name]):
            f = getattr(L, op)
            jac = np.array([[primal(v) for v in row] for row in
                            jacobian(lambda v: f(v[:n], v[n:]), x)])
            fd = np.empty_like(jac)
            for j in range(2 * n):
                up, down = list(x), list(x)
                up[j] += h
                down[j] -= h
                fd[:, j] = (np.array(ref(up[:n], up[n:]))
                            - np.array(ref(down[:n], down[n:]))) / (2 * h)
            assert np.max(np.abs(jac - fd)) < 1e-7, (op, a, b)


@pytest.mark.parametrize("name,op,a,b,message", [
    ("qhr:K=4", "product", [0.0, 1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
     "QHR product denominator has zero norm"),
    ("qhr:K=4", "left_div", [0.0, 1.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0],
     "QHR left division singular"),
    ("qc", "product", [1.0, 0.0], [1.0, 0.0],
     "Moebius product denominator vanishes"),
    ("qc", "left_div", [1.0, 0.0], [-1.0, 0.0],
     "Moebius division denominator vanishes"),
    ("qc", "right_div", [1.0, 0.0], [1.0, 0.0],
     "Moebius right division singular"),
    ("qh2", "product", [0.0, 1.0], [0.0, -1.0],
     "Moebius product denominator vanishes"),
])
def test_singular_inputs_raise(name, op, a, b, message):
    L = make_loop(name)
    with pytest.raises(DomainSingularity, match=message):
        getattr(L, op)(a, b)
    # the dual path checks the same primal denominator
    with pytest.raises(DomainSingularity, match=message):
        jacobian(lambda v: getattr(L, op)(v, b), a)


# -- composites against compositions of the reference formulas --------------

def _reference_composites(name):
    """Associators, Ad and Ad^-1 composed from the reference formulas."""
    prod, ldiv, rdiv = REFERENCES[name]
    return {
        "left": lambda a, b, c: ldiv(prod(a, b), prod(a, prod(b, c))),
        "adjoint": lambda a, b, c: prod(a, prod(b, ldiv(prod(a, b), c))),
        "right": lambda a, b, c: rdiv(prod(prod(c, a), b), prod(a, b)),
        "ad": lambda a, b, c: ldiv(a, rdiv(prod(prod(a, b), c), b)),
        "ad_inverse": lambda a, b, c: ldiv(prod(a, b), prod(prod(a, c), b)),
    }


def _chordal(p, q):
    """Distance on the Riemann sphere; absolute differences of plane
    coordinates grow with |z| and say nothing far out in the chart."""
    z, w = complex(p[0], p[1]), complex(q[0], q[1])
    return 2.0 * abs(z - w) / math.sqrt((1.0 + abs(z) ** 2) * (1.0 + abs(w) ** 2))


def _library_composites(L):
    return {
        "left": lambda a, b, c: core.associator(L, "left", a, b, c),
        "adjoint": lambda a, b, c: core.associator(L, "adjoint", a, b, c),
        "right": lambda a, b, c: core.associator(L, "right", a, b, c),
        "ad": lambda a, b, c: core.ad_map(L, b, a, c),
        "ad_inverse": lambda a, b, c: core.ad_inverse_map(L, b, a, c),
    }


@pytest.mark.parametrize("name", ["qc", "qsu2"])
def test_composites_defined_on_the_radius_045_circle(name):
    # Some chains of translations of these points pass beyond the chart's
    # 1e3 cut (triples 1230 and 1862 do), and some right associators land
    # there; only the three arguments are chart-checked, so every
    # composite returns its value.
    L = make_loop(name)
    got, want = _library_composites(L), _reference_composites(name)
    phases = np.random.default_rng(0).uniform(0.0, 2.0 * math.pi, (12000, 3))
    worst = 0.0
    for row in phases:
        a, b, c = ([0.45 * math.cos(p), 0.45 * math.sin(p)] for p in row)
        for key, op in got.items():
            worst = worst_residual(worst, _chordal(op(a, b, c), want[key](a, b, c)))
    assert worst < 1e-12


def test_composite_through_the_chart_cut_returns_its_result():
    # a.b = 1999.5 lies beyond the qc chart's 1e3 cut; every composite
    # below passes through it and still has a finite value.
    L = make_loop("qc")
    a = b = [0.9995, 0.0]
    c = [0.1, 0.2]
    assert not L.domain_check(core.product(L, a, b))
    want = _reference_composites("qc")
    for key, op in _library_composites(L).items():
        got = op(a, b, c)
        assert L.domain_check(got), key
        assert np.max(np.abs(got - want[key](a, b, c))) < 1e-12, key


@pytest.mark.parametrize("name", ["qc", "qsu2"])
def test_distance_is_chordal_far_out_in_the_chart(name):
    # Triple 1828 of the draw above: its right associator lies near
    # (-1588, -657), where plane differences of 1e-9 are rounding.
    L = make_loop(name)
    row = np.random.default_rng(0).uniform(0.0, 2.0 * math.pi, (12000, 3))[1828]
    a, b, c = ([0.45 * math.cos(p), 0.45 * math.sin(p)] for p in row)
    got = core.associator(L, "right", a, b, c)
    want = _reference_composites(name)["right"](a, b, c)
    assert math.hypot(*got) > 1e3
    assert core.distance(L, got, want) <= 1e-14
    assert core.distance(L, got, want) == pytest.approx(
        _chordal(got, want), rel=1e-12, abs=1e-300)
    # one point and the point at the antipode are 2 apart
    assert core.distance(L, [0.3, 0.4], [-0.3 / 0.25, -0.4 / 0.25]) == pytest.approx(2.0)


# Left translation by a is a bijection of R/Z exactly where
# pi sin(pi a) < 1: a in [0, RZ_BOUND) or (1 - RZ_BOUND, 1).
RZ_BOUND = math.asin(1.0 / math.pi) / math.pi


def _rz_root_count(a, target):
    """Roots y in [0, 1) of a.y = target, by sign changes on a fine grid."""
    f = lambda x: (1.0 - np.cos(2.0 * math.pi * x)) / 4.0
    y = (np.arange(20000) + 0.5) / 20000.0
    g = (a + y + f(a) + f(y) - f(a + y) - target + 0.5) % 1.0 - 0.5
    h = np.roll(g, -1)
    # a sign change that is not the jump of the circle coordinate
    flips = (np.sign(g) != np.sign(h)) & (np.abs(g - h) < 0.5)
    return int(np.count_nonzero(flips))


@pytest.mark.parametrize("a", [0.12, 0.3, 0.5])
def test_rz_division_raises_where_left_translation_folds(a):
    L = make_loop("rz")
    # some targets have several roots, so no division is the division
    assert max(_rz_root_count(a, t) for t in np.linspace(0.0, 1.0, 41)) >= 3
    for b in ([0.01], [0.5], [0.9]):
        with pytest.raises(NoSolutionInChart):
            core.left_divide(L, [a], b)
        with pytest.raises(NoSolutionInChart):
            core.right_divide(L, b, [a])
        with pytest.raises(NoSolutionInChart):
            jacobian(lambda v: list(core.left_divide(L, v, b)), [a])


def test_rz_division_round_trips_inside_the_bijective_set():
    L = make_loop("rz")
    inside = list(np.linspace(0.0, RZ_BOUND - 1e-4, 12)) + [0.95, 0.9, 1.0 - RZ_BOUND + 1e-4]
    for a in inside:
        for b in np.linspace(0.0, 0.99, 12):
            assert _rz_root_count(a, b) == 1
            x = core.left_divide(L, [a], [b])
            y = core.right_divide(L, [b], [a])
            assert core.distance(L, core.product(L, [a], x), [b]) < 1e-12
            assert core.distance(L, core.product(L, y, [a]), [b]) < 1e-12
    for a in (RZ_BOUND + 1e-4, 1.0 - RZ_BOUND - 1e-4):
        with pytest.raises(NoSolutionInChart):
            core.left_divide(L, [a], [0.5])
