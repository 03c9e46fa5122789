"""Principal bundles with a loop-valued fiber: atlases and two examples.

The examples are the unit 3-sphere fibered over the circle and a family
of winding-number bundles over the 2-sphere, both with the spherical
Moebius loop as fiber.  Transition functions may depend on the fiber
point (that is the nonassociative twist), so the stored transition
callable receives both the base point and the current fiber coordinate.
"""

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import core
from .dual import pack
from .errors import DomainSingularity, NotInOverlap, ProjectionSingular, UnknownKind
from .report import worst_residual
from .zoo import LoopSpec, make_loop

POLE_EPS = 1e-9


@dataclass(frozen=True)
class BaseChart:
    id: str
    contains: Callable


@dataclass(frozen=True)
class TotalPoint:
    chart: str
    base: np.ndarray
    fiber: np.ndarray


@dataclass(frozen=True)
class BundleAtlas:
    """Coordinate description of a principal bundle with loop fiber.

    ``transition(beta, alpha, base, fiber)`` returns the chart
    coordinates of q_{beta alpha} at the total point whose alpha-chart
    fiber coordinate is ``fiber``.
    """

    fiber_loop: object
    charts: list
    transition: Callable
    overlap_sampler: Callable
    name: str = ""

    def chart(self, chart_id):
        for c in self.charts:
            if c.id == chart_id:
                return c
        raise UnknownKind(f"no chart {chart_id!r} in atlas {self.name!r}")


def right_action(atlas, p, a):
    """Fiberwise right translation by the loop element ``a``."""
    return TotalPoint(chart=p.chart, base=np.asarray(p.base, dtype=float),
                      fiber=core.product(atlas.fiber_loop, p.fiber, a))


def transition_value(atlas, to_chart, p):
    """q_{beta alpha} at the total point ``p`` (alpha = chart of p)."""
    if to_chart == p.chart:
        return np.asarray(atlas.fiber_loop.identity, dtype=float)
    if not (atlas.chart(p.chart).contains(p.base)
            and atlas.chart(to_chart).contains(p.base)):
        raise NotInOverlap(f"base point {p.base} not in "
                           f"{p.chart!r} intersect {to_chart!r}")
    return np.asarray(atlas.transition(to_chart, p.chart, p.base, p.fiber),
                      dtype=float)


def change_chart(atlas, p, to_chart):
    """Re-express ``p`` in another chart: the fiber moves by the left map."""
    if to_chart == p.chart:
        return p
    q = transition_value(atlas, to_chart, p)
    return TotalPoint(chart=to_chart, base=np.asarray(p.base, dtype=float),
                      fiber=core.product(atlas.fiber_loop, q, p.fiber))


def cocycle_residual(atlas, alpha, beta, gamma, x, q_test):
    """Deviation from the (rebracketed) cocycle condition at base ``x``.

    Both the plain form q_ba.q = q_bg.(q_ga.q) and the form with the
    left associator pulled out are checked; the larger residual wins.
    """
    L = atlas.fiber_loop
    p_alpha = TotalPoint(chart=alpha, base=np.asarray(x, dtype=float),
                         fiber=np.asarray(q_test, dtype=float))
    q_ba = transition_value(atlas, beta, p_alpha)
    q_ga = transition_value(atlas, gamma, p_alpha)
    p_gamma = change_chart(atlas, p_alpha, gamma)
    q_bg = transition_value(atlas, beta, p_gamma)
    q_ba, q_ga, q_bg, q = core._chart_points(L, q_ba, q_ga, q_bg, q_test)
    lhs = L.product(q_ba, q)
    rhs = L.product(q_bg, L.product(q_ga, q))
    res = core.distance(L, lhs, rhs)
    rhs2 = L.product(L.product(q_bg, q_ga), core._left_associator(L, q_bg, q_ga, q))
    return worst_residual(res, core.distance(L, lhs, rhs2))


def transition_right_law_residual(atlas, alpha, beta, x, q_alpha, a):
    """How transition functions respond to a right translation.

    Moving the fiber point by ``a`` changes q_{beta alpha} by the right
    associator of (q_alpha, a); both sides composed from loop
    operations.
    """
    L = atlas.fiber_loop
    at = TotalPoint(chart=alpha, base=np.asarray(x, dtype=float),
                    fiber=np.asarray(q_alpha, dtype=float))
    q_ba = transition_value(atlas, beta, at)
    q_ba, q_alpha, a = core._chart_points(L, q_ba, q_alpha, a)
    # The beta-chart coordinate of the same point, and both coordinates
    # after the right translation; the transition at the moved point is
    # then its defining right division.
    q_beta = L.product(q_ba, q_alpha)
    lhs = L.right_div(L.product(q_beta, a), L.product(q_alpha, a))
    rhs = core._right_associator(L, q_alpha, a, q_ba)
    return core.distance(L, lhs, rhs)


# -- the 3-sphere over the circle ------------------------------------------

def _phase_coords(z):
    if abs(z) < POLE_EPS:
        raise DomainSingularity("fiber coordinate too close to zero "
                                "for a well-defined transition phase")
    w = z / abs(z)
    return [w.real, w.imag]


def s3_project(z1, z2):
    """Projection of the unit 3-sphere to the circle in the plane."""
    r2 = 1.0 - abs(z2) ** 2
    if r2 <= POLE_EPS ** 2:
        raise ProjectionSingular("projection undefined at |z2| = 1")
    r = math.sqrt(r2)
    return np.array([z1.real / r, z1.imag / r, 0.0])


def s3_point(theta, psi1, psi2):
    """Hopf-style parameterization of the unit 3-sphere."""
    return (math.cos(0.5 * theta) * cmath.exp(1j * psi1),
            math.sin(0.5 * theta) * cmath.exp(1j * psi2))


def s3_right_action(z1, z2, eta):
    """Explicit fiberwise action on the 3-sphere; preserves the norm."""
    w = 1.0 - eta.conjugate() * z2 / z1
    if abs(w) < POLE_EPS:
        raise DomainSingularity("action singular where 1 - conj(eta) z2/z1 = 0")
    scale = abs(w) / math.sqrt(1.0 + abs(eta) ** 2)
    return (z1 * scale, (z2 + eta * z1) * scale / w)


def s3_trivialize(chart, z1, z2):
    """Chart data (base angle, fiber coordinate) of a 3-sphere point."""
    if abs(z1) < POLE_EPS:
        raise ProjectionSingular("trivialization undefined at z1 = 0")
    psi1 = cmath.phase(z1)
    zeta = z2 / z1
    if chart == "plus":
        # Rotate the polar angle a quarter turn: tan(t/2) -> tan((t+pi/2)/2).
        t = abs(zeta)
        theta = 2.0 * math.atan(t)
        tp = math.tan(0.5 * (theta + 0.5 * math.pi))
        zeta = tp * (zeta / t) if t > POLE_EPS else complex(tp, 0.0)
        psi1 = psi1 % (2.0 * math.pi)
    elif chart != "minus":
        raise UnknownKind(f"unknown chart {chart!r}")
    return psi1, zeta


def s3_untrivialize(chart, psi1, zeta):
    """Inverse of s3_trivialize: rebuild the 3-sphere point."""
    t = abs(zeta)
    if chart == "plus":
        theta = 2.0 * math.atan(t) - 0.5 * math.pi
        if theta < 0.0:
            raise DomainSingularity("plus-chart fiber coordinate below range")
    elif chart == "minus":
        theta = 2.0 * math.atan(t)
    else:
        raise UnknownKind(f"unknown chart {chart!r}")
    delta = cmath.phase(zeta) if t > POLE_EPS else 0.0
    return s3_point(theta, psi1, psi1 + delta)


def _angle_in(angle, lo, hi):
    a = angle % (2.0 * math.pi)
    if lo < 0.0 and a > math.pi:
        a -= 2.0 * math.pi
    return lo < a < hi


def make_s3_bundle():
    """Atlas of the 3-sphere as a loop bundle over the circle.

    The transition function is the phase of the fiber coordinate, so it
    genuinely depends on the fiber point.
    """
    fiber = make_loop(LoopSpec("qc"))

    def transition(beta, alpha, base, fiber_coord):
        z = complex(fiber_coord[0], fiber_coord[1])
        q = _phase_coords(z)
        if (beta, alpha) == ("plus", "minus"):
            return q
        if (beta, alpha) == ("minus", "plus"):
            return [-q[0], -q[1]]
        raise UnknownKind(f"no transition {alpha!r} -> {beta!r}")

    def overlap_sampler(rng):
        # Angles away from 0 and pi, where one of the charts ends.
        half = rng.uniform(0.1, math.pi - 0.1)
        return np.array([half if rng.random() < 0.5 else half + math.pi])

    charts = [
        BaseChart(id="minus", contains=lambda b: _angle_in(b[0], -math.pi, math.pi)),
        BaseChart(id="plus", contains=lambda b: _angle_in(b[0], 0.0, 2.0 * math.pi)),
    ]
    return BundleAtlas(fiber_loop=fiber, charts=charts, transition=transition,
                       overlap_sampler=overlap_sampler,
                       name="s3-over-s1")


# -- winding bundles over the 2-sphere -------------------------------------

STRIP_HALF_WIDTH = 0.1


def winding_transition(n, theta, gamma):
    """Transition value of the degree-n bundle at colatitude theta."""
    c = math.cos(0.5 * n * theta)
    if abs(c) < POLE_EPS:
        raise DomainSingularity(f"transition pole at n*theta/2 = {0.5*n*theta}")
    t = math.tan(0.5 * n * theta)
    return np.array([t * math.cos(gamma), t * math.sin(gamma)])


def iterate_left(L, q, n, zeta):
    """n-fold left translation by q, the glueing map of the degree-n bundle.

    Only q and zeta are chart-checked; the iterates are not, so the map
    may pass through the chart's numerical cut on its way.
    """
    if n < 0:
        raise ValueError("winding power must be nonnegative")
    q, out = core._chart_points(L, q, zeta)
    for _ in range(n):
        out = L.product(q, out)
    return pack(out)


def make_winding_bundle(n):
    """Degree-n loop bundle over the 2-sphere, glued on an equatorial strip."""
    if int(n) != n or n < 1:
        raise ValueError("winding number must be a positive integer")
    n = int(n)
    fiber = make_loop(LoopSpec("qc"))
    half = 0.5 * math.pi

    def transition(beta, alpha, base, fiber_coord):
        theta, gamma = float(base[0]), float(base[1])
        q = winding_transition(n, theta, gamma)
        if (beta, alpha) == ("plus", "minus"):
            return q
        if (beta, alpha) == ("minus", "plus"):
            # The unique y with y.q = e for the Moebius product is -q.
            return core.right_divide(fiber, fiber.identity, q)
        raise UnknownKind(f"no transition {alpha!r} -> {beta!r}")

    def overlap_sampler(rng):
        while True:
            theta = rng.uniform(half - STRIP_HALF_WIDTH, half + STRIP_HALF_WIDTH)
            if abs(math.cos(0.5 * n * theta)) > 1e-3:
                return np.array([theta, rng.uniform(0.0, 2.0 * math.pi)])

    charts = [
        BaseChart(id="minus", contains=lambda b: half - STRIP_HALF_WIDTH < b[0] <= math.pi),
        BaseChart(id="plus", contains=lambda b: 0.0 <= b[0] < half + STRIP_HALF_WIDTH),
    ]
    return BundleAtlas(fiber_loop=fiber, charts=charts, transition=transition,
                       overlap_sampler=overlap_sampler,
                       name=f"qs2-over-s2:n={n}")


def make_atlas(name):
    """Atlas constructor by CLI name, s3-over-s1 or qs2-over-s2[:n=<int>]
    (n = 1 when omitted); ``make_atlas(atlas.name)`` rebuilds an atlas."""
    if name == "s3-over-s1":
        return make_s3_bundle()
    if name == "qs2-over-s2":
        return make_winding_bundle(1)
    if name.startswith("qs2-over-s2:n="):
        return make_winding_bundle(int(name.removeprefix("qs2-over-s2:n=")))
    raise UnknownKind(f"unknown atlas {name!r}")
