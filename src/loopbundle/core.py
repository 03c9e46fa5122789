"""Generic smooth-loop interface: translations, divisions, associators, Ad-map.

A loop is described by a :class:`LoopDescriptor` holding the chart data and
closed-form product/division callables.  Everything here is composed from
those callables; no loop-specific closed forms are used for the derived
operations, which is what makes the associator and Ad-map identities real
tests rather than tautologies.

Chart checks.  Each public operation checks its arguments once against
``L.domain_check``, on their primal coordinates, so a dual argument is
checked like its float value.  A composite (associators, Ad, Ad^-1) then
composes the raw closed forms on plain lists and packs once at the end:
its intermediate points are not checked, so a composite whose result is
defined does not fail because an intermediate point passed the chart's
numerical cut.  Results are not checked either; the next public call that
takes a result as an argument checks it.  Singular denominators still
raise from the closed forms themselves.
"""

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .dual import pack, primal, jacobian
from .errors import OutOfDomain
from .report import VerificationReport, worst_residual

TOL_EXACT = 1e-11
NEWTON_TOL = 1e-13
NEWTON_MAX_ITER = 50


@dataclass(frozen=True)
class LoopDescriptor:
    """A smooth local loop in a single real chart.

    ``product(a, b)``, ``left_div(a, b)`` (the x with a.x = b) and
    ``right_div(b, a)`` (the y with y.a = b) operate on sequences of
    scalars (floats, dual numbers or Taylor jets) and return lists of
    scalars.
    """

    name: str
    dim: int
    product: Callable
    left_div: Callable
    right_div: Callable
    identity: np.ndarray
    domain_check: Callable
    sample: Optional[Callable] = None
    distance: Optional[Callable] = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.dim <= 0:
            raise ValueError("loop dimension must be positive")


def distance(L, p, q):
    """Chart distance between two loop points (circle-aware where needed)."""
    if L.distance is not None:
        return float(L.distance(np.asarray(p, dtype=float), np.asarray(q, dtype=float)))
    return float(np.max(np.abs(np.asarray(p, dtype=float) - np.asarray(q, dtype=float))))


def _chart_points(L, *points):
    """Each point as a list of scalars, checked once against the chart.

    The check reads primal coordinates, so floats and duals follow the
    same rule.  Composites in other modules use this too.
    """
    out = []
    for p in points:
        p = list(p)
        coords = [primal(v) for v in p]
        if not L.domain_check(coords):
            raise OutOfDomain(f"{L.name}: point {np.asarray(coords)} outside chart domain")
        out.append(p)
    return out


def product(L, a, b):
    """Loop product a.b from the closed form."""
    return pack(L.product(*_chart_points(L, a, b)))


def left_divide(L, a, b):
    """The unique x with a.x = b."""
    return pack(L.left_div(*_chart_points(L, a, b)))


def right_divide(L, b, a):
    """The unique y with y.a = b."""
    return pack(L.right_div(*_chart_points(L, b, a)))


def newton_divide(L, a, b, side):
    """Solve the division equation by Newton iteration started at identity.

    A standalone float solver that uses only the product; the tests use it
    as a reference for the closed-form divisions.
    """
    if side == "left":
        f = lambda x: L.product(a, x)
    else:
        f = lambda x: L.product(x, a)
    x = [float(v) for v in L.identity]
    # Newton steps until the residual is below NEWTON_TOL, then one more.
    for _ in range(NEWTON_MAX_ITER + 1):
        res = pack(f(x)) - pack(b)
        done = np.max(np.abs(res)) < NEWTON_TOL
        x = list(pack(x) - np.linalg.solve(jacobian(f, x), res))
        if done:
            break
    return pack(x)


def _left_associator(L, a, b, c):
    """l_(a,b) c = L^-1_(a.b) (a.(b.c)) on the raw closed forms."""
    prod = L.product
    return L.left_div(prod(a, b), prod(a, prod(b, c)))


def associator(L, kind, a, b, c):
    """Left, adjoint, or right associator of (a, b) applied to c.

    Composed exactly from product and divisions; no independent closed form.
    """
    a, b, c = _chart_points(L, a, b, c)
    prod, ldiv = L.product, L.left_div
    if kind == "left":
        return pack(_left_associator(L, a, b, c))
    if kind == "adjoint":
        # lhat_(a,b) c = a.(b.(L^-1_(a.b) c))
        return pack(prod(a, prod(b, ldiv(prod(a, b), c))))
    if kind == "right":
        # r_(a,b) c = R^-1_(a.b) ((c.a).b)
        return pack(L.right_div(prod(prod(c, a), b), prod(a, b)))
    raise ValueError(f"unknown associator kind: {kind}")


def ad_map(L, b, a, c):
    """Ad_b(a) c = L^-1_a (R^-1_b ((a.b).c)), composed right to left."""
    b, a, c = _chart_points(L, b, a, c)
    step = L.right_div(L.product(L.product(a, b), c), b)
    return pack(L.left_div(a, step))


def ad_inverse_map(L, b, a, c):
    """The inverse operator Ad^-1_b(a) c = L^-1_(a.b) ((a.c).b).

    Composed from translations only, so it stays regular where the
    forward Ad differential degenerates.
    """
    b, a, c = _chart_points(L, b, a, c)
    step = L.product(L.product(a, c), b)
    return pack(L.left_div(L.product(a, b), step))


def check_loop_axioms(L, n_samples, seed):
    """Sample the chart and verify identity, divisions and chart closure."""
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    rng = np.random.default_rng(seed)
    e = pack(L.identity)
    t0 = time.perf_counter()
    id_res = 0.0
    div_res = 0.0
    closure_failures = 0
    for _ in range(n_samples):
        a = L.sample(rng)
        b = L.sample(rng)
        id_res = worst_residual(id_res,
                                distance(L, product(L, e, a), a),
                                distance(L, product(L, a, e), a))
        x = left_divide(L, a, b)
        y = right_divide(L, b, a)
        div_res = worst_residual(div_res,
                                 distance(L, product(L, a, x), b),
                                 distance(L, product(L, y, a), b))
        if not L.domain_check(product(L, a, b)):
            closure_failures += 1
    report = VerificationReport(suite=f"axioms[{L.name}]")
    report.add("identity", id_res, TOL_EXACT, n_samples)
    report.add("division_round_trip", div_res, TOL_EXACT, n_samples)
    report.add("chart_closure", float(closure_failures), 0.0, n_samples)
    report.wall_time = time.perf_counter() - t0
    return report
