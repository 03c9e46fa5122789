"""Generic smooth-loop interface: translations, divisions, associators, Ad-map.

A loop is described by a :class:`LoopDescriptor` holding the chart data and
closed-form product/division callables.  Everything here is composed from
those callables; no loop-specific closed forms are used for the derived
operations, which is what makes the associator and Ad-map identities real
tests rather than tautologies.
"""

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .dual import pack, primal, has_dual, jacobian, gsolve
from .errors import OutOfDomain
from .report import VerificationReport, worst_residual

TOL_EXACT = 1e-11
NEWTON_TOL = 1e-13
NEWTON_MAX_ITER = 50


@dataclass(frozen=True)
class LoopDescriptor:
    """A smooth local loop in a single real chart.

    ``product``, ``left_div`` and ``right_div`` operate on sequences of
    scalars (floats or dual numbers) and return lists of scalars; division
    callables may be ``None``, in which case Newton iteration on the
    product is used.
    """

    name: str
    dim: int
    product: Callable
    identity: np.ndarray
    domain_check: Callable
    left_div: Optional[Callable] = None
    right_div: Optional[Callable] = None
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


def _check_domain(L, p):
    if has_dual(p):
        return
    if not L.domain_check(np.asarray(p, dtype=float)):
        raise OutOfDomain(f"{L.name}: point {np.asarray(p)} outside chart domain")


def product(L, a, b):
    """Loop product a.b from the closed form."""
    _check_domain(L, a)
    _check_domain(L, b)
    return pack(L.product(list(a), list(b)))


def left_divide(L, a, b):
    """The unique x with a.x = b."""
    _check_domain(L, a)
    _check_domain(L, b)
    if L.left_div is not None:
        return pack(L.left_div(list(a), list(b)))
    return newton_divide(L, list(a), list(b), side="left")


def right_divide(L, b, a):
    """The unique y with y.a = b."""
    _check_domain(L, a)
    _check_domain(L, b)
    if L.right_div is not None:
        return pack(L.right_div(list(b), list(a)))
    return newton_divide(L, list(a), list(b), side="right")


def newton_divide(L, a, b, side):
    """Solve the division equation by Newton iteration started at identity.

    Dual-number inputs are handled by running a few extra contraction steps
    after primal convergence, which propagates the dual parts exactly.
    """
    if side == "left":
        f = lambda x: L.product(a, x)
    else:
        f = lambda x: L.product(x, a)
    x = [float(v) for v in L.identity]
    nested = has_dual(a) or has_dual(b)
    extra = 3 if nested else 1
    for _ in range(NEWTON_MAX_ITER):
        res = pack([primal(u) - primal(v) for u, v in zip(f(x), b)])
        if np.max(np.abs(res)) < NEWTON_TOL:
            break
        jac = np.array([[primal(v) for v in row]
                        for row in jacobian(f, x)])
        x = list(np.asarray(x) - np.linalg.solve(jac, res))
    for _ in range(extra):
        res = pack(f(x)) - pack(b)
        jac = jacobian(f, x)
        x = list(pack(x) - gsolve(jac, res))
    return pack(x)


def associator(L, kind, a, b, c):
    """Left, adjoint, or right associator of (a, b) applied to c.

    Composed exactly from product and divisions; no independent closed form.
    """
    if kind == "left":
        # l_(a,b) c = L^-1_(a.b) (a.(b.c))
        return left_divide(L, product(L, a, b), product(L, a, product(L, b, c)))
    if kind == "adjoint":
        # lhat_(a,b) c = a.(b.(L^-1_(a.b) c))
        return product(L, a, product(L, b, left_divide(L, product(L, a, b), c)))
    if kind == "right":
        # r_(a,b) c = R^-1_(a.b) ((c.a).b)
        return right_divide(L, product(L, product(L, c, a), b), product(L, a, b))
    raise ValueError(f"unknown associator kind: {kind}")


def ad_map(L, b, a, c):
    """Ad_b(a) c = L^-1_a (R^-1_b ((a.b).c))... composed right to left."""
    # Ad_b(a) = L^-1_a o R^-1_b o L_(a.b)
    step = product(L, product(L, a, b), c)
    step = right_divide(L, step, b)
    return left_divide(L, a, step)


def ad_inverse_map(L, b, a, c):
    """The inverse operator Ad^-1_b(a) c = L^-1_(a.b) ((a.c).b).

    Composed from translations only, so it stays regular where the
    forward Ad differential degenerates.
    """
    step = product(L, product(L, a, c), b)
    return left_divide(L, product(L, a, b), step)


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
