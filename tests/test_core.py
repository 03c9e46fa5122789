import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loopbundle import bundle, core, reconstruct
from loopbundle.dual import Dual, jacobian, pack, primal
from loopbundle.errors import OutOfDomain
from loopbundle.report import DEFAULT_TOLERANCES, worst_residual
from loopbundle.zoo import catalog_names, make_loop

ALL_LOOPS = catalog_names()


@pytest.mark.parametrize("name", ALL_LOOPS)
def test_axiom_sweep(name):
    L = make_loop(name)
    report = core.check_loop_axioms(L, 500, seed=11, tol=DEFAULT_TOLERANCES["axioms"])
    assert report.passed, [c.as_dict() for c in report.cases]


def test_worst_residual_keeps_non_finite_values():
    nan = float("nan")
    assert worst_residual(0.0, 1e-3, 2e-3, 5e-4) == 2e-3
    assert worst_residual(0.0) == 0.0
    assert math.isnan(worst_residual(0.0, 1.0, nan, 2.0))
    assert math.isnan(worst_residual(nan, 1.0))
    assert worst_residual(0.0, 1.0, math.inf) == math.inf


def test_nan_product_fails_axiom_cases():
    qc = make_loop("qc")
    L = dataclasses.replace(
        qc, product=lambda a, b: [v * math.nan for v in qc.product(a, b)])
    report = core.check_loop_axioms(L, 20, seed=11, tol=DEFAULT_TOLERANCES["axioms"])
    assert not report.passed
    cases = {c.name: c for c in report.cases}
    for name in ("identity", "division_round_trip"):
        assert math.isnan(cases[name].max_residual)
        assert not cases[name].passed
    assert math.isnan(report.max_residual)


@pytest.mark.parametrize("name", ALL_LOOPS)
def test_divisions_solve_their_equations(name):
    L = make_loop(name)
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, b = L.sample(rng), L.sample(rng)
        x = core.left_divide(L, a, b)
        assert core.distance(L, core.product(L, a, x), b) < 1e-12
        y = core.right_divide(L, b, a)
        assert core.distance(L, core.product(L, y, a), b) < 1e-12


def test_associator_definitions():
    L = make_loop("qc")
    rng = np.random.default_rng(7)
    a, b, c = (L.sample(rng) for _ in range(3))
    ab = core.product(L, a, b)
    left = core.associator(L, "left", a, b, c)
    assert core.distance(L, core.product(L, ab, left),
                         core.product(L, a, core.product(L, b, c))) < 1e-13
    right = core.associator(L, "right", a, b, c)
    assert core.distance(L, core.product(L, right, ab),
                         core.product(L, core.product(L, c, a), b)) < 1e-13


def test_associator_trivial_at_identity():
    L = make_loop("qc")
    rng = np.random.default_rng(9)
    a, c = L.sample(rng), L.sample(rng)
    e = list(L.identity)
    for kind in ("left", "right", "adjoint"):
        out = core.associator(L, kind, a, e, c)
        assert core.distance(L, out, np.asarray(c, dtype=float)) < 1e-13


def test_ad_map_fixes_identity():
    L = make_loop("qh2")
    rng = np.random.default_rng(3)
    b, a = L.sample(rng), L.sample(rng)
    e = list(L.identity)
    out = core.ad_map(L, b, a, e)
    assert core.distance(L, out, np.asarray(e)) < 1e-13


def test_ad_inverse_map_inverts():
    L = make_loop("qc")
    rng = np.random.default_rng(13)
    for _ in range(20):
        b, a, c = 0.5 * L.sample(rng), 0.5 * L.sample(rng), 0.5 * L.sample(rng)
        fwd = core.ad_map(L, b, a, c)
        back = core.ad_inverse_map(L, b, a, fwd)
        assert core.distance(L, back, np.asarray(c, dtype=float)) < 1e-12


def newton_divide(L, a, b, side):
    """Solve the division equation by Newton iteration started at the
    identity, using only the product: a float reference for the closed-form
    divisions."""
    if side == "left":
        f = lambda x: L.product(a, x)
    else:
        f = lambda x: L.product(x, a)
    x = [float(v) for v in L.identity]
    # Newton steps until the residual is below 1e-13, then one more.
    for _ in range(51):
        res = np.asarray(f(x)) - np.asarray(b)
        done = np.max(np.abs(res)) < 1e-13
        x = list(np.asarray(x) - np.linalg.solve(jacobian(f, x), res))
        if done:
            break
    return np.asarray(x)


def test_newton_divide_matches_closed_form():
    L = make_loop("qc")
    rng = np.random.default_rng(21)
    for _ in range(20):
        a, b = 0.6 * L.sample(rng), 0.6 * L.sample(rng)
        closed = core.left_divide(L, a, b)
        iterated = newton_divide(L, a, b, side="left")
        assert core.distance(L, closed, iterated) < 1e-10


coords = st.floats(-0.6, 0.6, allow_nan=False)


@settings(max_examples=50, deadline=None)
@given(coords, coords, coords, coords)
def test_mobius_division_round_trip(a1, a2, b1, b2):
    L = make_loop("qc")
    a, b = [a1, a2], [b1, b2]
    x = core.left_divide(L, a, b)
    assert core.distance(L, core.product(L, a, x), np.asarray(b)) < 1e-10


# One point outside each chart, and every public operation with that point
# in each argument slot.
OUTSIDE = {"rz": [1.2], "qc": [1.2e3, 0.0], "qh2": [1.2, 0.0],
           "qhr:K=1": [0.0, 0.0, -1e3, 0.0], "qsu2": [0.0, 2e3]}
OPERATIONS = {
    "product": (2, core.product),
    "left_divide": (2, core.left_divide),
    "right_divide": (2, core.right_divide),
    "left_associator": (3, lambda L, a, b, c: core.associator(L, "left", a, b, c)),
    "adjoint_associator": (3, lambda L, a, b, c: core.associator(L, "adjoint", a, b, c)),
    "right_associator": (3, lambda L, a, b, c: core.associator(L, "right", a, b, c)),
    "ad_map": (3, core.ad_map),
    "ad_inverse_map": (3, core.ad_inverse_map),
    "batalin_transform": (3, reconstruct.batalin_transform),
    "iterate_left": (2, lambda L, q, zeta: bundle.iterate_left(L, q, 2, zeta)),
}


def _point_forms(point):
    """One point as a float array, a list of floats, a list of numpy
    floats and a pack of seeded duals."""
    return [np.array(point, dtype=float), [float(v) for v in point],
            [np.float64(v) for v in point], pack([Dual(float(v), 1.0) for v in point])]


@pytest.mark.parametrize("name", ALL_LOOPS)
@pytest.mark.parametrize("op", sorted(OPERATIONS))
def test_out_of_chart_argument_raises_for_floats_and_duals(name, op):
    L = make_loop(name)
    arity, fn = OPERATIONS[op]
    bad = OUTSIDE[name]
    assert not L.domain_check(bad)
    good = list(L.sample(np.random.default_rng(5)))
    zeros = [0.0] * (L.dim - 1)
    for slot in range(arity):
        def call(x):
            args = [list(L.identity)] * arity
            args[slot] = x
            return list(fn(L, *args))

        # every form of a point reads the same coordinates, and the float
        # forms give the same results bit for bit; a dual quotient
        # multiplies by the divisor's reciprocal, so a dual's primal result
        # may differ in the last bits where a closed form divides by it
        forms = _point_forms(good)
        for x in forms:
            assert [primal(v) for v in core._chart_points(L, x)[0]] == good
        results = [[primal(v) for v in call(x)] for x in forms]
        assert results[1] == results[0] and results[2] == results[0], results
        np.testing.assert_allclose(results[3], results[0], rtol=1e-15, atol=1e-15)
        for out in (bad, [math.nan] + zeros, zeros + [math.inf]):
            messages = set()
            # the last form is a batch of two points, the second outside:
            # its first point outside is named as the single point is
            for x in _point_forms(out) + [np.array([good, out]).T]:
                with pytest.raises(OutOfDomain) as err:
                    call(x)
                messages.add(str(err.value))
            assert len(messages) == 1, messages
        # a point, or a batch, with a coordinate too few or too many
        for out in (good[:-1], good + [0.0]):
            for x in _point_forms(out) + [np.array([out, out]).T]:
                with pytest.raises(OutOfDomain, match=f"is not of dimension {L.dim}"):
                    call(x)
        # a seeded dual argument is checked on its primal coordinates
        with pytest.raises(OutOfDomain):
            jacobian(call, bad)
