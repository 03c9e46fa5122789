import cmath
import dataclasses
import math

import numpy as np
import pytest

from loopbundle import bundle, core
from loopbundle.errors import (DomainSingularity, NotInOverlap,
                               ProjectionSingular, UnknownKind)


def test_s3_point_has_unit_norm():
    rng = np.random.default_rng(1)
    for _ in range(50):
        theta = rng.uniform(0.0, math.pi)
        z1, z2 = bundle.s3_point(theta, rng.uniform(0, 2 * math.pi),
                                 rng.uniform(0, 2 * math.pi))
        assert abs(abs(z1) ** 2 + abs(z2) ** 2 - 1.0) < 1e-14


def test_s3_right_action_preserves_norm_and_projection():
    rng = np.random.default_rng(2)
    for _ in range(50):
        z1, z2 = bundle.s3_point(rng.uniform(0.2, math.pi - 0.2),
                                 rng.uniform(0, 2 * math.pi),
                                 rng.uniform(0, 2 * math.pi))
        eta = complex(*rng.standard_normal(2))
        w1, w2 = bundle.s3_right_action(z1, z2, eta)
        assert abs(abs(w1) ** 2 + abs(w2) ** 2 - 1.0) < 1e-12
        assert np.allclose(bundle.s3_project(w1, w2),
                           bundle.s3_project(z1, z2), atol=1e-12)


def test_s3_trivialize_round_trip():
    rng = np.random.default_rng(3)
    for chart in ("minus", "plus"):
        for _ in range(30):
            # the plus chart covers colatitudes below a quarter turn
            hi = 0.5 * math.pi - 0.1 if chart == "plus" else math.pi - 0.1
            theta = rng.uniform(0.1, hi)
            z1, z2 = bundle.s3_point(theta, rng.uniform(0, 2 * math.pi),
                                     rng.uniform(0, 2 * math.pi))
            psi1, zeta = bundle.s3_trivialize(chart, z1, z2)
            w1, w2 = bundle.s3_untrivialize(chart, psi1, zeta)
            assert abs(w1 - z1) < 1e-12
            assert abs(w2 - z2) < 1e-12


def test_s3_action_matches_fiber_translation_in_chart():
    # the explicit sphere action reads as the Moebius product eta . zeta
    # on the minus-chart fiber coordinate
    L = bundle.make_s3_bundle().fiber_loop
    rng = np.random.default_rng(4)
    for _ in range(30):
        z1, z2 = bundle.s3_point(rng.uniform(0.3, math.pi - 0.3),
                                 rng.uniform(0, 2 * math.pi),
                                 rng.uniform(0, 2 * math.pi))
        eta = complex(*(0.5 * rng.standard_normal(2)))
        _, zeta = bundle.s3_trivialize("minus", z1, z2)
        w1, w2 = bundle.s3_right_action(z1, z2, eta)
        _, zeta_moved = bundle.s3_trivialize("minus", w1, w2)
        expect = core.product(L, [eta.real, eta.imag], [zeta.real, zeta.imag])
        assert abs(zeta_moved - complex(expect[0], expect[1])) < 1e-10


@pytest.mark.parametrize("name", ["s3-over-s1", "qs2-over-s2:n=1",
                                  "qs2-over-s2:n=3"])
def test_cocycle_condition(name):
    # The condition holds (<= 5e-16 measured), and its one form sees
    # q_{minus plus} scaled by 1 + 1e-6 at every point (3.1e-7 to 1.0e-6).
    atlas = bundle.make_atlas(name)

    def transition(beta, alpha, base, fiber):
        q = np.asarray(atlas.transition(beta, alpha, base, fiber), dtype=float)
        return q * (1.0 + 1e-6) if (beta, alpha) == ("minus", "plus") else q

    wrong = dataclasses.replace(atlas, transition=transition)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = atlas.overlap_sampler(rng)
        q = atlas.fiber_loop.sample(rng)
        # two charts: the only nontrivial triple reuses one of them
        res = bundle.cocycle_residual(atlas, "minus", "minus", "plus", x, q)
        assert res < 1e-10
        assert bundle.cocycle_residual(wrong, "minus", "minus", "plus", x, q) >= 1e-7


@pytest.mark.parametrize("name", ["s3-over-s1", "qs2-over-s2:n=2"])
def test_transition_right_law(name):
    atlas = bundle.make_atlas(name)
    rng = np.random.default_rng(6)
    for _ in range(20):
        x = atlas.overlap_sampler(rng)
        q = atlas.fiber_loop.sample(rng)
        a = atlas.fiber_loop.sample(rng)
        res = bundle.transition_right_law_residual(atlas, "minus", "plus",
                                                   x, q, a)
        assert res < 1e-10


def test_change_chart_round_trip():
    atlas = bundle.make_atlas("qs2-over-s2:n=2")
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = atlas.overlap_sampler(rng)
        p = bundle.TotalPoint(chart="minus", base=x,
                              fiber=atlas.fiber_loop.sample(rng))
        back = bundle.change_chart(atlas, bundle.change_chart(atlas, p, "plus"),
                                   "minus")
        assert np.max(np.abs(back.fiber - p.fiber)) < 1e-10


def test_winding_transition_closed_form():
    for n in range(1, 6):
        theta, gamma = 0.9, 2.1
        q = bundle.winding_transition(n, theta, gamma)
        expect = cmath.exp(1j * gamma) * math.tan(0.5 * n * theta)
        assert abs(complex(q[0], q[1]) - expect) < 1e-13


def test_winding_transition_matches_iterated_glueing():
    # n-fold left translation by the degree-1 value lands on the degree-n
    # closed form when it acts on the identity
    L = bundle.make_s3_bundle().fiber_loop
    for n in range(1, 6):
        theta, gamma = 0.4, 1.3
        q1 = bundle.winding_transition(1, theta, gamma)
        got = bundle.iterate_left(L, q1, n, L.identity)
        expect = bundle.winding_transition(n, theta, gamma)
        assert np.max(np.abs(got - expect)) < 1e-9


def test_iterated_glueing_through_the_chart_cut():
    # At 3 theta / 2 = pi/2 - 1e-4 the third iterate lies near 1e4, beyond
    # the chart's 1e3 cut; only q and zeta are checked, so the fourth
    # iterate is still reached and matches the closed form.
    L = bundle.make_s3_bundle().fiber_loop
    theta, gamma = (2.0 / 3.0) * (0.5 * math.pi - 1e-4), 0.7
    q1 = bundle.winding_transition(1, theta, gamma)
    assert not L.domain_check(bundle.iterate_left(L, q1, 3, L.identity))
    got = bundle.iterate_left(L, q1, 4, L.identity)
    expect = bundle.winding_transition(4, theta, gamma)
    assert np.max(np.abs(got - expect)) < 1e-9


def test_right_action_is_loop_product():
    atlas = bundle.make_atlas("s3-over-s1")
    rng = np.random.default_rng(8)
    p = bundle.TotalPoint(chart="minus", base=np.array([1.0]),
                          fiber=atlas.fiber_loop.sample(rng))
    a = atlas.fiber_loop.sample(rng)
    out = bundle.right_action(atlas, p, a)
    assert np.allclose(out.fiber,
                       core.product(atlas.fiber_loop, p.fiber, a))


def test_not_in_overlap_raises():
    atlas = bundle.make_atlas("qs2-over-s2:n=1")
    p = bundle.TotalPoint(chart="plus", base=np.array([0.1, 0.0]),
                          fiber=np.array([0.2, 0.1]))
    with pytest.raises(NotInOverlap):
        bundle.transition_value(atlas, "minus", p)


def test_projection_and_domain_singularities():
    with pytest.raises(ProjectionSingular):
        bundle.s3_project(0.0 + 0.0j, 1.0 + 0.0j)
    with pytest.raises(ProjectionSingular):
        bundle.s3_trivialize("minus", 0.0, 1.0)
    with pytest.raises(DomainSingularity):
        bundle.winding_transition(1, math.pi, 0.0)


def test_make_atlas_parsing():
    assert bundle.make_atlas("qs2-over-s2").name == "qs2-over-s2:n=1"
    assert bundle.make_atlas("qs2-over-s2:n=4").name == "qs2-over-s2:n=4"
    with pytest.raises(UnknownKind):
        bundle.make_atlas("nope")
    with pytest.raises(UnknownKind):
        bundle.make_atlas("qs2-over-s2:m=2")
    with pytest.raises(ValueError):
        bundle.make_winding_bundle(0)
    with pytest.raises(UnknownKind):
        bundle.make_atlas("s3-over-s1").chart("middle")
