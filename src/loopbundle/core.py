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
takes a result as an argument checks it.  A derivative pass elsewhere
checks its fixed points once, before the pass, and differentiates the raw
bodies (``_left_associator``, ``_ad_map``, ...), never a checked wrapper.
No closed form applies a chart predicate: each raises only at a singular
denominator or outside the ``rz`` division window.
"""

import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .dual import allof, has_dual, pack, primal
from .errors import OutOfDomain
from .report import VerificationReport


@dataclass(frozen=True)
class LoopDescriptor:
    """A smooth local loop in a single real chart.

    ``product(a, b)``, ``left_div(a, b)`` (the x with a.x = b) and
    ``right_div(b, a)`` (the y with y.a = b) operate on sequences of
    scalars (floats, dual numbers or Taylor jets) and return lists of
    scalars.  ``domain_check`` takes a point or a batch (array
    coordinates), giving one truth per element; NaN and inf are outside.
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

    The check reads primal coordinates: one ``tolist`` of a 1-D float
    array, else ``primal`` of each coordinate, so floats and duals follow
    the same rule.  ``L.domain_check`` is called once per point; on a
    batch point (coordinates that are arrays) it gives one truth per
    element, and the first element outside is named.  A point without
    duals or jets comes back as the coordinates the check read, sparing
    the closed forms numpy scalars.  A point whose length (coordinate
    rows, for a batch) is not ``L.dim`` is outside the domain.
    Composites in other modules use this too.
    """
    out = []
    for p in points:
        floats = p.__class__ is np.ndarray and p.ndim == 1 and p.dtype.kind == "f"
        p = p.tolist() if floats else list(p)
        if len(p) != L.dim:
            raise OutOfDomain(f"{L.name}: point {np.asarray(p)} is not of dimension {L.dim}")
        coords = p if floats else [primal(v) for v in p]
        inside = L.domain_check(coords)
        if inside is not True and not allof(inside):  # a point inside skips the call
            if inside.__class__ is np.ndarray:  # a batch: its first point outside
                coords = [np.broadcast_to(c, inside.shape).flat[inside.argmin()] for c in coords]
            raise OutOfDomain(f"{L.name}: point {np.asarray(coords)} outside chart domain")
        out.append(coords if floats or not has_dual(p) else p)
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


def _left_associator(L, a, b, c):
    """l_(a,b) c = L^-1_(a.b) (a.(b.c)) on the raw closed forms."""
    prod = L.product
    return L.left_div(prod(a, b), prod(a, prod(b, c)))


def _right_associator(L, a, b, c):
    """r_(a,b) c = R^-1_(a.b) ((c.a).b) on the raw closed forms."""
    return L.right_div(L.product(L.product(c, a), b), L.product(a, b))


def associator(L, kind, a, b, c):
    """Left, adjoint, or right associator of (a, b) applied to c.

    Composed exactly from product and divisions; no independent closed form.
    """
    a, b, c = _chart_points(L, a, b, c)
    if kind == "left":
        return pack(_left_associator(L, a, b, c))
    if kind == "adjoint":
        # lhat_(a,b) c = a.(b.(L^-1_(a.b) c))
        return pack(L.product(a, L.product(b, L.left_div(L.product(a, b), c))))
    if kind == "right":
        return pack(_right_associator(L, a, b, c))
    raise ValueError(f"unknown associator kind: {kind}")


def _ad_map(L, b, a, c):
    """Ad_b(a) c = L^-1_a (R^-1_b ((a.b).c)) on the raw closed forms."""
    return L.left_div(a, L.right_div(L.product(L.product(a, b), c), b))


def ad_map(L, b, a, c):
    """Ad_b(a) c = L^-1_a (R^-1_b ((a.b).c)), composed right to left."""
    return pack(_ad_map(L, *_chart_points(L, b, a, c)))


def _ad_inverse(L, b, a, c):
    """Ad^-1_b(a) c = L^-1_(a.b) ((a.c).b) on the raw closed forms."""
    return L.left_div(L.product(a, b), L.product(L.product(a, c), b))


def ad_inverse_map(L, b, a, c):
    """The inverse operator Ad^-1_b(a) c = L^-1_(a.b) ((a.c).b).

    Composed from translations only, so it stays regular where the
    forward Ad differential degenerates.
    """
    return pack(_ad_inverse(L, *_chart_points(L, b, a, c)))


def check_loop_axioms(L, n_samples, seed, tol):
    """Sample the chart and verify identity and divisions to ``tol``, and
    chart closure."""
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    rng = np.random.default_rng(seed)
    e = pack(L.identity)
    t0 = time.perf_counter()
    report = VerificationReport(suite=f"axioms[{L.name}]")
    closure_failures = 0
    for _ in range(n_samples):
        a = L.sample(rng)
        b = L.sample(rng)
        report.add("identity", distance(L, product(L, e, a), a), tol, n_samples)
        report.add("identity", distance(L, product(L, a, e), a), tol, n_samples)
        x = left_divide(L, a, b)
        y = right_divide(L, b, a)
        report.add("division_round_trip", distance(L, product(L, a, x), b), tol, n_samples)
        report.add("division_round_trip", distance(L, product(L, y, a), b), tol, n_samples)
        if not L.domain_check(product(L, a, b)):
            closure_failures += 1
    report.add("chart_closure", float(closure_failures), 0.0, n_samples)
    report.wall_time = time.perf_counter() - t0
    return report
