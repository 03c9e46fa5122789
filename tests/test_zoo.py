import math

import numpy as np
import pytest

from loopbundle import core
from loopbundle.errors import (DomainSingularity, NoSolutionInChart,
                               PoleSingularity, UnknownKind)
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
