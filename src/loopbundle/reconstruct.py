"""Recovering the loop product from infinitesimal frame data.

The product a.b is reproduced by integrating a generalized Lie equation
along a path from the identity to b: the velocity of phi(t) = a.b(t) is
the frame at phi applied to the associator-corrected canonical form of
db/dt.  That factor does not depend on phi, so before the first RK4 step
one directional pass (``dual.dirderiv``) of a composite of the closed
forms, a complex step on numpy complex arrays with a batch axis, gives it
at every stage parameter t.  Each stage's velocity is then one complex
step of the product at phi (``dual.complex_step``): the identity stepped
along that factor by i h w, the derivative read off the imaginary parts,
in the built-in complex arithmetic.  No frame matrix is built.  A
closed form that casts a numpy complex number to a float (``float``,
``math`` functions, ``np.float64``) would drop those imaginary parts
with a ``ComplexWarning``, so the RK4 loop turns that warning into an
error.

Chart checks.  ``reconstruct_product`` checks a and the batch of path
nodes b = path(t) against the chart once, before the first step.  Every
other point is an intermediate of the reconstruction and is not checked:
the quotients b \\ path(t + s) of the factor pass and the RK4 stage
points phi.  Both passes compose the descriptor's raw closed forms, and
the stages run on lists of Python floats and complex numbers.

A generalized Maurer-Cartan identity is what makes the result path
independent.  Its residual takes the parametric form lambda(b; a) and
its first derivatives in b from one first-order jet pass
(``dual.taylor_frame``) of the left associator, whose inner product is
also the frame, and numpy algebra.
"""

import warnings

import numpy as np

from . import core, tangent
from .dual import complex_step, dirderiv, pack, primal, quiet, taylor_frame
from .report import MIN_STEPS, VerificationReport


def _canonical_factors(L, a, path, ts):
    """The phi-free factor l_(a,b)* . omega(b) db/dt of the velocity at
    each parameter of the (steps, 3) array ``ts`` of RK4 stage parameters,
    as one triple of lists of floats per step.

    One pass of s -> l_(a,b)(b \\ path(t + s)) with b = path(t), batched
    over t: the derivative of c -> b \\ c at c = b is (L_b)_*^-1 =
    omega(b), so the chain rule gives each factor, db/dt included, in its
    column of that single pass.  ``a`` and the batch of nodes b are
    checked against the chart once, here; the pass then composes the raw
    closed forms, so the intermediate b \\ path(t + s) is not checked.
    """
    flat = ts.ravel()
    with quiet():  # a non-finite element stays silent, as on floats
        a, b = core._chart_points(L, a, [primal(v) for v in path(flat)])
        w = dirderiv(lambda s: core._left_associator(
            L, a, b, L.left_div(b, path(s[0]))), [flat], [1.0])
    return w.T.reshape(*ts.shape, L.dim).tolist()


def _velocity(L, phi, w):
    """Right side of the generalized Lie equation for the phi-free
    factor w: d/ds phi.(e + s w), the frame at phi applied to w, as a
    list of floats.

    One complex step (``dual.complex_step``) of the raw closed-form
    product of phi (Python floats) and the identity stepped along w: the
    ``dirderiv`` pass of c -> phi.c without packing its result.  Every
    catalog denominator has real part exactly 1 there, so the quotients
    round as dual ones do.  The stage point phi is an intermediate of
    the reconstruction and is not checked against the chart.
    """
    return complex_step(lambda c: L.product(phi, c), L.identity.tolist(), w)


def reconstruct_product(L, a, b, steps, path=None):
    """Integrate the loop product a.b from frame data with fixed-step RK4.

    ``path`` maps t in [0, 1] to chart parameters with path(0)=e and
    path(1)=b; the default is the straight ray t*b.  The phi-free factors
    of all RK4 stages come from one batched pass, so ``path`` must also
    take a numpy array of parameters and a complex array: arithmetic
    only, as :func:`bezier_path` is.  A quotient in ``path`` or in the
    closed forms whose divisor has a real part below about 2**-573 times
    its derivative part is outside the complex step's range (see
    :func:`dual.complex_step`): its value and its derivative come out
    wrong, silently.
    """
    if steps < MIN_STEPS:
        raise ValueError(f"steps must be at least {MIN_STEPS}")
    if path is None:
        target = [float(v) for v in b]
        path = lambda t: [t * v for v in target]
    phi = [float(v) for v in a]
    h = 1.0 / steps
    half, sixth = 0.5 * h, h / 6.0
    # The parameters of each step's stages k1, k2 = k3 and k4.
    stages = np.arange(steps)[:, None] * h + [0.0, half, h]
    canonical = _canonical_factors(L, a, path, stages)
    # The stages on lists of floats, in numpy's elementwise order:
    # phi + (0.5 h) k and phi + (h / 6) (((k1 + 2 k2) + 2 k3) + k4), so the
    # result is the array integrator's bit for bit.  A numpy complex
    # scalar in the closed form raises instead of losing the velocity.
    with warnings.catch_warnings():
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        for w1, w2, w4 in canonical:
            k1 = _velocity(L, phi, w1)
            k2 = _velocity(L, [p + half * k for p, k in zip(phi, k1)], w2)
            k3 = _velocity(L, [p + half * k for p, k in zip(phi, k2)], w2)
            k4 = _velocity(L, [p + h * k for p, k in zip(phi, k3)], w4)
            phi = [p + sixth * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
                   for p, c1, c2, c3, c4 in zip(phi, k1, k2, k3, k4)]
    return np.array(phi)


def bezier_path(b, control):
    """Quadratic Bezier from e to b through ``control``, for path tests."""
    b = [float(v) for v in b]
    control = [float(v) for v in control]

    def path(t):
        s = 1.0 - t
        return [2.0 * s * t * c + t * t * v for c, v in zip(control, b)]

    return path


def _parametric_form(L, a, b):
    """lambda(b; a) = l_(a,b)* . omega(b), the matrix of the Lie equation,
    and dlam[p] = d lambda / d b^p, for float points ``a`` and ``b``
    that the caller has checked against the chart.

    One jet pass of (x, c) -> (l_(a,x) c, x.c) at x = b, c = e: the left
    associator (a.x) \\ (a.(x.c)) computes the product x.c on the way, so
    the same pass gives l* and the frame R with their derivatives in b,
    as the first and last dim rows.  Then lambda = l* R^-1 and
    d_p lambda = (d_p l* - lambda d_p R) R^-1.
    """
    def associator_and_product(x, c):
        xc = L.product(x, c)
        return L.left_div(L.product(a, x), L.product(a, xc)) + xc

    rows, drows = taylor_frame(associator_and_product, b, L.identity, order=1)
    n = L.dim
    lstar, r, dlstar, dr = rows[:n], rows[n:], drows[:, :n], drows[:, n:]
    rinv = np.linalg.inv(r)
    lam = lstar @ rinv
    return lam, (dlstar - lam @ dr) @ rinv


def maurer_cartan_residual(L, b, a):
    """Max-norm residual of the generalized Maurer-Cartan identity.

    d_p lambda^i_j - d_j lambda^i_p + C^i_mn(a.b) lambda^m_p lambda^n_j,
    with lambda and its derivatives in the b-parameters from
    :func:`_parametric_form` and the structure functions evaluated at the
    translated point.
    """
    b = [float(v) for v in b]
    a = [float(v) for v in a]
    ab = core.product(L, a, b)  # checks a and b against the chart
    c = tangent.structure_tensor_raw(L, ab)
    with quiet():
        lam, dlam = _parametric_form(L, a, b)
        # res[p, i, j] for d_p lambda^i_j - d_j lambda^i_p + C^i_mn lambda^m_p lambda^n_j
        res = (dlam - dlam.transpose(2, 1, 0)
               + np.einsum("imn,mp,nj->pij", c, lam, lam))
    return float(np.max(np.abs(res)))  # NaN if any entry is NaN


def batalin_transform(L, b, c, a):
    """The companion transformation: b composed with the unassociated c.

    Simplifies to a \\ ((a.b).c) because the outer left translation
    cancels against the inner division.
    """
    b, c, a = core._chart_points(L, b, c, a)
    return pack(L.left_div(a, L.product(L.product(a, b), c)))


def batalin_axiom_check(L, a, b, c, tol):
    """Residuals of the transformation-quasigroup axioms for (a, b, c),
    each a case of tolerance ``tol``."""
    report = VerificationReport(suite=f"batalin[{L.name}]")
    e = pack(L.identity)
    phi_t = batalin_transform(L, b, c, a)
    # Modified associativity: (a.b).c = a.(b ~ c).
    assoc = core.distance(L, core.product(L, core.product(L, a, b), c),
                          core.product(L, a, phi_t))
    right_unit = core.distance(L, batalin_transform(L, b, list(e), a), b)
    left_unit = core.distance(L, batalin_transform(L, list(e), c, a), c)
    # Invertibility: recover c from the transformed point.
    back = core.left_divide(L, core.product(L, a, b), core.product(L, a, phi_t))
    invert = core.distance(L, back, c)
    report.add("batalin_modified_associativity", assoc, tol, 1)
    report.add("batalin_right_unit", right_unit, tol, 1)
    report.add("batalin_left_unit", left_unit, tol, 1)
    report.add("batalin_invertibility", invert, tol, 1)
    return report
