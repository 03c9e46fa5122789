import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loopbundle import core, zoo
from loopbundle.dual import Dual, Jet, jacobian, jet_space, pack, primal, quiet, taylor_frame
from loopbundle.errors import (DomainSingularity, NoSolutionInChart, OutOfDomain,
                               PoleSingularity, UnknownKind)
from loopbundle.report import worst_residual
from loopbundle.zoo import (LoopSpec, catalog_names, chart_inverse, chart_map,
                            make_loop, parse_spec, qsu2_matrix, qsu2_product)
from leveled_dual import _assert_parts_close, _carrier_maker, ref_gsolve


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


CHART_ROWS = [
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
    ("rz", [0.0], True),
    ("rz", [0.999], True),
    ("rz", [1.0], False),
    ("rz", [-1e-300], False),
    ("rz", [math.nan], False),
]


@pytest.mark.parametrize("name,point,inside", CHART_ROWS)
def test_chart_domain_check(name, point, inside):
    L = make_loop(name)
    assert L.domain_check(np.array(point)) == inside  # a numpy bool
    assert L.domain_check(point) is inside


@pytest.mark.parametrize("name", ["rz", "qc", "qsu2", "qh2", "qhr:K=1"])
def test_chart_domain_check_on_a_batch(name):
    # every row of the table above for this loop, as one batch point whose
    # coordinates are arrays: one truth per element, in one call
    rows = [(point, inside) for n, point, inside in CHART_ROWS if n == name]
    batch = list(np.array([point for point, _ in rows]).T)
    got = make_loop(name).domain_check(batch)
    assert got.tolist() == [inside for _, inside in rows]


@pytest.mark.parametrize("op", ["left_div", "right_div"])
@pytest.mark.parametrize("point", [[-0.6574996767601854, -0.753454826157648],
                                   [-0.886183538201192, 0.4633343680553132]])
def test_qh2_division_guard_is_the_chart(op, point):
    # Near the unit circle x^2 + y^2 and hypot(x, y) round to opposite
    # sides of 1.  A division by the identity gives the point itself, and
    # the one chart rule guards it: the next public call that takes the
    # quotient accepts it exactly when the chart holds it.
    L = make_loop("qh2")
    e = [0.0, 0.0]
    raw = {"left_div": lambda: L.left_div(e, point),
           "right_div": lambda: L.right_div(point, e)}[op]()
    assert raw == point
    if L.domain_check(point):
        assert core.product(L, raw, e).tolist() == point
    else:
        with pytest.raises(OutOfDomain):
            core.product(L, raw, e)


def test_qh2_division_with_a_nan_result_raises():
    # The closed forms return a NaN quotient; NaN is outside the chart, so
    # the next public call that takes it raises.
    L = make_loop("qh2")
    for q in (L.left_div([math.nan, 0.0], [0.1, 0.2]), L.right_div([0.1, 0.2], [0.0, math.nan])):
        assert all(math.isnan(v) for v in q)
        with pytest.raises(OutOfDomain):
            core.product(L, q, [0.1, 0.2])


def test_qh2_stays_in_disk():
    L = make_loop("qh2")
    rng = np.random.default_rng(2)
    for _ in range(200):
        a, b = L.sample(rng), L.sample(rng)
        p = core.product(L, a, b)
        assert np.hypot(p[0], p[1]) < 1.0


def test_qh2_division_guard():
    L = make_loop("qh2")
    # a quotient outside the open disk has no chart representative: the
    # closed form returns it, and the next public call that takes it raises
    q = L.left_div([0.0, 0.0], [1.2, 0.0])
    assert q == [1.2, 0.0]
    with pytest.raises(OutOfDomain):
        core.left_divide(L, q, [0.1, 0.0])


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
    # y*a = b with s = 1 - (K/4)^2 N(a) N(b) = 1 - 16/16
    ("qhr:K=1", "right_div", [-2.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0],
     "QHR right division singular"),
])
def test_singular_inputs_raise(name, op, a, b, message):
    L = make_loop(name)
    with pytest.raises(DomainSingularity, match=message):
        getattr(L, op)(a, b)
    # the dual path checks the same primal denominator
    with pytest.raises(DomainSingularity, match=message):
        jacobian(lambda v: getattr(L, op)(v, b), a)


# -- the qhr right division against the 8x8 real system it replaced ---------

def _ref_qhr_right_div_8x8(K):
    """y*a = b as the 8x8 real linear system, solved by ``ref_gsolve``:
    elimination in carrier arithmetic."""
    k4 = K / 4.0

    def div(b, a):
        # T y = b - a with T y = y - (K/4) b y^+ a, complex-linear in the
        # complexified quaternion y: T = I - k L_b R_a C, C = diag(1,-1,-1,-1).
        # With p = a0 b0, d = av.bv, c = av x bv, g = b0 av + a0 bv and
        # h = b0 av - a0 bv, the matrix M = L_b R_a C has
        #   Re M = [[p + d, -c^T], [c, -(av bv^T + bv av^T) - (p - d) I]],
        #   Im M = [[0, g^T], [g, [h]x]],
        # [h]x the cross-product matrix.  The 8 real unknowns (Re y, Im y)
        # solve [[R, S], [-S, R]] with R = I - k Re M and S = k Im M.  Below,
        # a is scaled by k first, so p, d, c, g and h carry the factor k.
        a0, a1, a2, a3 = a
        b0, b1, b2, b3 = b
        ka1, ka2, ka3 = k4 * a1, k4 * a2, k4 * a3
        ka0 = k4 * a0
        p = ka0 * b0
        d = ka1 * b1 + ka2 * b2 + ka3 * b3
        c1 = ka2 * b3 - ka3 * b2
        c2 = ka3 * b1 - ka1 * b3
        c3 = ka1 * b2 - ka2 * b1
        g1 = b0 * ka1 + ka0 * b1
        g2 = b0 * ka2 + ka0 * b2
        g3 = b0 * ka3 + ka0 * b3
        h1 = b0 * ka1 - ka0 * b1
        h2 = b0 * ka2 - ka0 * b2
        h3 = b0 * ka3 - ka0 * b3
        diag = 1.0 + (p - d)
        r = [[1.0 - (p + d), c1, c2, c3],
             [-c1, diag + 2.0 * (ka1 * b1), ka1 * b2 + b1 * ka2, ka1 * b3 + b1 * ka3],
             [-c2, ka2 * b1 + b2 * ka1, diag + 2.0 * (ka2 * b2), ka2 * b3 + b2 * ka3],
             [-c3, ka3 * b1 + b3 * ka1, ka3 * b2 + b3 * ka2, diag + 2.0 * (ka3 * b3)]]
        s = [[0.0, g1, g2, g3],
             [g1, 0.0, -h3, h2],
             [g2, h3, 0.0, -h1],
             [g3, -h2, h1, 0.0]]
        mat = ([r[i] + s[i] for i in range(4)] +
               [[-x for x in s[i]] + r[i] for i in range(4)])
        rhs = [b0 - a0, 0.0, 0.0, 0.0, 0.0, b1 - a1, b2 - a2, b3 - a3]
        sol = ref_gsolve(pack(mat), pack(rhs))
        # H_R coordinates: real part of the scalar, imaginary parts of i,j,k.
        return [sol[0], sol[5], sol[6], sol[7]]
    return div


@pytest.mark.parametrize("kind", ["dual", "nested2", "nested3", "jet"])
@pytest.mark.parametrize("K", [1.0, 0.0, -2.5, 4.0])
def test_qhr_right_division_parts_match_the_8x8_solve(K, kind):
    # The closed form's primal is the float division bit for bit, and its
    # dual or jet parts are the solve's, to rounding.
    rng = random.Random(f"{K}{kind}")
    make = _carrier_maker(kind, rng)
    L = make_loop(f"qhr:K={K:g}")
    ref = _ref_qhr_right_div_8x8(K)
    nrng = np.random.default_rng(rng.randrange(2 ** 32))
    for _ in range(20):
        a, b = list(L.sample(nrng)), list(L.sample(nrng))
        want = L.right_div(b, a)
        ac = [make(v) if rng.random() < 0.5 else v for v in a]
        bc = [make(v) if rng.random() < 0.5 else v for v in b]
        i = rng.randrange(4)
        bc[i] = make(b[i])
        got = L.right_div(bc, ac)
        assert [primal(v) for v in got] == want
        for g, w in zip(got, ref(bc, ac)):
            _assert_parts_close(g, w)


cube = st.floats(-1.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(st.floats(-4.0, 4.0), st.lists(cube, min_size=8, max_size=8))
def test_qhr_right_division_round_trips_or_raises_at_its_singular_set(K, xs):
    L = make_loop(f"qhr:K={K!r}")
    radius = min(0.4, 0.8 / math.sqrt(1.0 + abs(K)))
    a, b = [radius * x for x in xs[:4]], [radius * x for x in xs[4:]]
    norm = lambda p: p[0] ** 2 - (p[1] ** 2 + p[2] ** 2 + p[3] ** 2)
    s = 1.0 - (K / 4.0) ** 2 * norm(a) * norm(b)
    try:
        y = L.right_div(b, a)
    except DomainSingularity:
        assert abs(s) < 1e-9
        return
    assert max(abs(u - v) for u, v in zip(L.product(y, a), b)) < 1e-13


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


def test_qh2_composite_through_the_disk_edge_returns_its_result():
    # Three points within 1e-4 of the unit circle: (a.b)\c rounds onto the
    # circle, outside the chart, and the adjoint associator a.(b.((a.b)\c))
    # still returns its value in the disk, as the division's quotient is
    # not chart-checked inside the composite.
    L = make_loop("qh2")
    a, b, c = ([0.61239890108995, -0.7905355884089824], [0.884862397491967, -0.4658430319590806],
               [-0.9993519015744847, 0.035925230567355915])
    assert not L.domain_check(L.left_div(L.product(a, b), c))
    got = core.associator(L, "adjoint", a, b, c)
    assert L.domain_check(got)
    assert np.max(np.abs(got - _reference_composites("qh2")["adjoint"](a, b, c))) < 1e-12


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


# -- the catalog's algebra against independent routes -----------------------
#
# Each test compares a division with a route through other closed forms.
# The left inverse property a\b = a^-1.b, a^-1 = -a, holds bit for bit: both
# sides are one Moebius or quaternion fraction with the signs moved.  The
# right division b/a = b.((b.a)\b) goes through the product and the left
# division only, and holds to rounding.

ALGEBRA_LOOPS = ["qc", "qh2", "qsu2", "qhr:K=1", "qhr:K=-2.5", "qhr:K=0", "qhr:K=4"]


@pytest.mark.parametrize("name", ALGEBRA_LOOPS)
def test_left_division_is_the_product_by_the_inverse_bit_for_bit(name):
    L = make_loop(name)
    n = L.dim
    neg = lambda a, b: L.product([-v for v in a], b)
    rng = np.random.default_rng(2)
    for _ in range(40):
        a, b = L.sample(rng).tolist(), L.sample(rng).tolist()
        assert L.left_div(a, b) == neg(a, b)
        jl = jacobian(lambda v: L.left_div(v[:n], v[n:]), a + b)
        jn = jacobian(lambda v: neg(v[:n], v[n:]), a + b)
        assert jl.tobytes() == jn.tobytes()
        for order in (1, 2):
            for got, want in zip(taylor_frame(L.left_div, a, b, order),
                                 taylor_frame(neg, a, b, order)):
                assert got.tobytes() == want.tobytes()


# (float, order-1 jet) tolerances: the largest deviation from b.((b.a)\b)
# over the 300 pairs below, times at least 5, on floats and per largest
# jet coefficient (qh2 deviates by 2.7e-12 where coefficients reach 19).
RIGHT_DIVISION_TOL = {"qc": (3e-14, 2e-14), "qsu2": (3e-14, 2e-14), "qh2": (1e-13, 3e-12)}


@pytest.mark.parametrize("name", ALGEBRA_LOOPS)
def test_right_division_is_b_times_ba_under_b(name):
    L = make_loop(name)
    tol, jet_tol = RIGHT_DIVISION_TOL.get(name, (2e-15, 2e-14))
    via_left = lambda a, b: L.product(b, L.left_div(L.product(b, a), b))
    right = lambda a, b: L.right_div(b, a)
    rng = np.random.default_rng(3)
    for _ in range(300):
        a, b = L.sample(rng).tolist(), L.sample(rng).tolist()
        assert np.max(np.abs(np.subtract(right(a, b), via_left(a, b)))) <= tol, (a, b)
        got, want = taylor_frame(right, a, b, 1), taylor_frame(via_left, a, b, 1)
        scale = max(1.0, max(np.max(np.abs(w)) for w in want))
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= jet_tol * scale, (a, b)


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rz_closed_forms_return_nan_on_non_finite_inputs(bad):
    # the chart check hides these from core, so call the closed forms;
    # the test config turns a RuntimeWarning into a failure
    L = make_loop("rz")
    for a, b in (([bad], [0.1]), ([0.1], [bad])):
        assert math.isnan(L.product(a, b)[0])
        assert math.isnan(L.left_div(a, b)[0])
        assert math.isnan(L.right_div(b, a)[0])
    for a, b in (([Dual(bad, 1.0)], [0.1]), ([0.1], [Dual(bad, 1.0)]),
                 ([Dual(bad, 1.0)], [Dual(0.1, 1.0)])):
        assert math.isnan(primal(L.left_div(a, b)[0]))
        assert math.isnan(primal(L.right_div(b, a)[0]))


def test_rz_mod1_stays_in_the_chart():
    # x - floor(x) rounds to 1.0 just below 0; the chart is [0, 1)
    assert zoo._rz_mod1(-1e-17) == 0.0
    assert zoo._rz_mod1(0.25) == 0.25
    d = zoo._rz_mod1(Dual(-1e-17, 2.0))
    assert (d.re, d.du) == (0.0, 2.0)
    space = jet_space(1, 2)
    x = space.variable(0.0, ((0,), ())) - 1e-17
    j = zoo._rz_mod1(x)
    assert j.__class__ is Jet and primal(j) == 0.0
    assert np.array_equal(j.c[1:], x.c[1:])
    # a\a is the identity 0; unmapped, about half of these read 1.0
    L = make_loop("rz")
    window = np.random.default_rng(0).uniform(-RZ_BOUND, RZ_BOUND, 200) % 1.0
    for a in window:
        y = core.left_divide(L, [a], [a])[0]
        assert 0.0 <= y < 1.0 and _circle_distance(y, 0.0) < 1e-15
        assert 0.0 <= core.right_divide(L, [0.5], [a])[0] < 1.0
        assert 0.0 <= core.product(L, [a], [1.0 - a])[0] < 1.0


def ref_rz_solve(x, target):
    """The 70-step bisection plus 4 Newton steps, on floats."""
    g = lambda y: y + zoo._rz_f(y) - zoo._rz_f(x + y)
    gp = lambda y: 1.0 + zoo._rz_fprime(y) - zoo._rz_fprime(x + y)
    target -= math.floor(target - g(0.0) + 0.5)
    lo, hi = -1.1, 1.1
    for _ in range(70):
        mid = 0.5 * (lo + hi)
        if g(mid) < target:
            lo = mid
        else:
            hi = mid
    y = 0.5 * (lo + hi)
    for _ in range(4):
        y -= (g(y) - target) / gp(y)
    return y % 1.0


def _circle_distance(a, b):
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


@pytest.mark.parametrize("xs", [
    np.linspace(0.0, 0.04, 9),
    np.linspace(0.0, RZ_BOUND, 13, endpoint=False),
    RZ_BOUND - np.logspace(-9, -3, 7),
    1.0 - RZ_BOUND + np.logspace(-9, -3, 7),
    1.0 - np.linspace(0.0, RZ_BOUND, 13, endpoint=False)[1:],
])
def test_rz_solve_matches_the_bisection(xs):
    L = make_loop("rz")
    for a in xs:
        for b in (0.05, 0.5, 0.95):
            assert _rz_root_count(a, b) == 1
        for b in np.linspace(-2.0, 2.0, 33):
            target = b - a - zoo._rz_f(a)
            got = L.left_div([a], [b])[0]
            # the root is known to rounding over g'(y), the condition number
            gp = 1.0 + zoo._rz_fprime(got) - zoo._rz_fprime(a + got)
            d = _circle_distance(got, ref_rz_solve(a, target))
            assert d * min(gp, 1.0) <= 1e-15, (a, b)


def _rz_f_calls(monkeypatch, a, b):
    calls = [0]
    f = zoo._rz_f

    def counted(x):
        calls[0] += 1
        return f(x)

    monkeypatch.setattr(zoo, "_rz_f", counted)
    make_loop("rz").left_div([a], [b])
    monkeypatch.setattr(zoo, "_rz_f", f)
    return calls[0]


def test_rz_division_evaluates_f_a_few_times(monkeypatch):
    # f(a), g(0) for the shift and two Newton steps on g, whatever (a, b):
    # no loop in the solve depends on the data
    for a in np.linspace(0.0, 0.04, 9).tolist() + [RZ_BOUND - 1e-14, 1.0 - RZ_BOUND + 1e-14]:
        for b in np.linspace(0.0, 1.0, 9):
            assert _rz_f_calls(monkeypatch, a, b) == 7


def ref_rz_root(x, t):
    """Reference root by bracketed Newton (rtsafe, Press et al., Numerical
    Recipes, 9.4) on floats: the target shift of ``zoo._rz_root``, Newton
    steps kept inside [t - 1/2, t + 1/2], and 4 polish steps."""
    g0 = lambda y: y + zoo._rz_f(y) - zoo._rz_f(x + y)
    gp0 = lambda y: 1.0 + zoo._rz_fprime(y) - zoo._rz_fprime(x + y)
    t -= math.floor(t - g0(0.0) + 0.5)
    lo, hi = t - 0.5, t + 0.5
    y = t
    for _ in range(60):
        r = g0(y) - t
        if r < 0.0:
            lo = y
        elif r > 0.0:
            hi = y
        else:
            break
        y, y_old = y - r / gp0(y), y
        if not lo <= y <= hi:
            y = 0.5 * (lo + hi)
        if abs(y - y_old) < 1e-12:
            break
    for _ in range(4):
        y -= (g0(y) - t) / gp0(y)
    return y, t


def _assert_root_matches_the_reference(x, t):
    y, shifted = zoo._rz_root(x, t)
    want, want_t = ref_rz_root(x, t)
    assert shifted == want_t
    # the root is known to rounding over g'(y), the condition number
    gp = 1.0 + zoo._rz_fprime(y) - zoo._rz_fprime(x + y)
    assert abs(y - want) * min(gp, 1.0) <= 2e-15, (x, t)
    # g(y) - t adds terms as large as 1.5, so its rounding is a few
    # ulp(1) whatever the root; the reference reads 0 on some roots
    g = lambda v: v + zoo._rz_f(v) - zoo._rz_f(x + v)
    assert abs(g(y) - shifted) <= abs(g(want) - want_t) + 4.0 * math.ulp(1.0), (x, t)


def test_rz_root_matches_the_bracketed_newton():
    rng = np.random.default_rng(29)
    for x, t in zip(rng.uniform(-RZ_BOUND, RZ_BOUND, 3000) % 1.0, rng.uniform(-3.0, 3.0, 3000)):
        _assert_root_matches_the_reference(float(x), float(t))


def test_rz_solve_converges_at_the_window_edge():
    # e = pi sin(pi x) within 3e-13 of 1, where g' nearly vanishes at
    # one root, and targets a million periods out
    for x in (RZ_BOUND - 1e-14, 1.0 - RZ_BOUND + 1e-14, RZ_BOUND - 1e-9, 1.0 - RZ_BOUND + 1e-9):
        for t in np.linspace(-3.0, 3.0, 241).tolist() + [1e6, -1e6, 1e6 + 0.3, -1e6 - 0.7]:
            _assert_root_matches_the_reference(x, t)
        L = make_loop("rz")
        for b in np.linspace(0.0, 1.0, 21):
            got = L.left_div([x], [b])[0]
            gp = 1.0 + zoo._rz_fprime(got) - zoo._rz_fprime(x + got)
            want = ref_rz_solve(x, b - x - zoo._rz_f(x))
            assert _circle_distance(got, want) * min(gp, 1.0) <= 2e-15, (x, b)


@pytest.mark.parametrize("shift", [-1.0, 1.0, -3.0])
def test_rz_root_outside_the_chart_solves_the_periodic_equation(shift):
    # g is 1-periodic in x, so x below 0 or at or above 1 has the root of
    # x mod 1; a Kepler eccentricity pi sin(pi x) < 0 would give none
    rng = np.random.default_rng(31)
    for x, t in zip(rng.uniform(-RZ_BOUND, RZ_BOUND, 300) % 1.0, rng.uniform(-3.0, 3.0, 300)):
        y, shifted = zoo._rz_root(float(x) + shift, float(t))
        assert y.__class__ is float
        want, want_t = ref_rz_root(float(x), float(t))
        gp = 1.0 + zoo._rz_fprime(y) - zoo._rz_fprime(x + y)
        assert abs(y - want) * min(gp, 1.0) <= 2e-15 and abs(shifted - want_t) <= 1e-15
    # x = 1 is x = 0, where g(y) = y up to the rounding of f(1 + y)
    y, shifted = zoo._rz_root(1.0, 0.25)
    assert abs(y - 0.25) <= 1e-15 and shifted == 0.25


def test_rz_batch_root_equals_the_scalar_root_bit_for_bit():
    # _rz_root on arrays against _rz_root element by element: across the
    # window, targets several periods apart, a within 1e-9 of the window
    # edges and non-finite elements.
    rng = np.random.default_rng(41)
    edges = np.repeat([RZ_BOUND - 1e-9, 1.0 - RZ_BOUND + 1e-9, -RZ_BOUND + 1e-9], 61)
    xs = np.concatenate([rng.uniform(-RZ_BOUND, RZ_BOUND, 400) % 1.0, edges,
                         [0.05, math.nan, 0.02, 0.03]])
    ts = np.concatenate([rng.uniform(-6.0, 6.0, 400), np.tile(np.linspace(-3.0, 3.0, 61), 3),
                         [math.nan, 0.3, math.inf, 1e6]])
    want = [zoo._rz_root(x, t) for x, t in zip(xs.tolist(), ts.tolist())]
    with quiet():
        y, t = zoo._rz_root(xs, ts)
        got = zoo._rz_solve(xs, ts)
        # a scalar argument broadcasts against the batch
        y1, _ = zoo._rz_root(0.07, ts)
    assert np.array_equal(y, [v for v, _ in want], equal_nan=True)
    assert np.array_equal(t, [v for _, v in want], equal_nan=True)
    assert np.array_equal(got, [zoo._rz_solve(x, t) for x, t in zip(xs.tolist(), ts.tolist())],
                          equal_nan=True)
    assert np.array_equal(y1, [zoo._rz_root(0.07, t)[0] for t in ts.tolist()], equal_nan=True)


def test_kepler_stage_solves_keplers_equation_to_a_few_ulp():
    # zoo._kepler alone, without the Newton steps on g that follow it in
    # _rz_root: eccentricities up to 1 - 2**-52 and mean anomalies down to
    # the smallest subnormal, where Markley's starter alone misses by 4e-4
    es = [0.0, 1e-12, 1e-3, 0.1, 0.5, 0.9, 0.99, 0.999, 0.9999,
          1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12, 1.0 - 2.0 ** -52]
    ms = [0.0, 5e-324, 1e-300, 1e-15, 1e-9, 1e-6, 1e-4, 1e-3, 0.01, 0.1, 0.5,
          1.0, 2.0, 3.0, math.pi - 1e-9, math.pi]
    rng = np.random.default_rng(43)
    e = np.concatenate([np.repeat(es, len(ms)), rng.uniform(0.0, 1.0, 4000)])
    m = np.concatenate([np.tile(ms, len(es)), rng.uniform(0.0, math.pi, 4000)])
    E = zoo._kepler(e, m)
    assert np.all((0.0 <= E) & (E <= math.pi))
    # the residual's own rounding is about one ulp of its largest term
    residual = np.abs(E - e * np.sin(E) - m)
    assert np.all(residual <= 4.0 * np.spacing(np.maximum(E, m))), residual.max()
    # a point is its batch element bit for bit
    assert [zoo._kepler(a, b) for a, b in zip(e[::37].tolist(), m[::37].tolist())] == E[::37].tolist()
