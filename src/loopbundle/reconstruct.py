"""Recovering the loop product from infinitesimal frame data.

The product a.b is reproduced by integrating a generalized Lie equation
along a path from the identity to b: the velocity of phi(t) = a.b(t) is
the frame at phi applied to the associator-corrected canonical form of
db/dt.  The RK4 velocity takes its Jacobians from one-level duals.

A generalized Maurer-Cartan identity is what makes the result path
independent.  Its residual takes the parametric form lambda(b; a) and
its derivatives in b from two jet passes (``dual.taylor_frame``), one of
the left associator and one of the product, and numpy algebra.
"""

import numpy as np

from . import core, tangent
from .dual import dirderiv, gsolve, pack, taylor_frame
from .errors import StepUnderflow
from .report import VerificationReport
from .tangent import left_associator_differential, left_frame_matrix

MIN_STEPS = 16


def _canonical_velocity(L, a, path, t):
    """The phi-free factor l_(a,b)* . omega(b) db/dt of the velocity at t."""
    bpt = [float(v) for v in path(t)]
    bdot = dirderiv(lambda ts: path(ts[0]), [t], [1.0])
    lstar = np.asarray(left_associator_differential(L, a, bpt), dtype=float)
    omega_dot = gsolve(np.asarray(left_frame_matrix(L, bpt), dtype=float),
                       np.asarray(bdot))
    return lstar @ omega_dot


def _velocity(L, a, phi, path, t, canonical):
    """Right side of the generalized Lie equation at parameter t.

    ``canonical`` maps each parameter t already visited in this
    integration to its phi-free factor, which the RK4 stages at equal t
    (k2 and k3, and one step's k4 and the next step's k1) share.
    """
    w = canonical.get(t)
    if w is None:
        w = canonical[t] = _canonical_velocity(L, a, path, t)
    q = np.asarray(left_frame_matrix(L, phi), dtype=float)
    return q @ w


def reconstruct_product(L, a, b, steps, path=None, tol=None):
    """Integrate the loop product a.b from frame data with fixed-step RK4.

    ``path`` maps t in [0, 1] to chart parameters with path(0)=e and
    path(1)=b; the default is the straight ray t*b.  When ``tol`` is
    given, the result is compared against a run at doubled step count and
    StepUnderflow is raised if they disagree by more than ``tol``.
    """
    if steps < MIN_STEPS:
        raise ValueError(f"steps must be at least {MIN_STEPS}")
    if tol is not None:
        coarse = reconstruct_product(L, a, b, steps, path=path)
        fine = reconstruct_product(L, a, b, 2 * steps, path=path)
        if float(np.max(np.abs(coarse - fine))) > tol:
            raise StepUnderflow(
                f"{L.name}: {steps} steps insufficient for tolerance {tol}")
        return fine
    if path is None:
        target = [float(v) for v in b]
        path = lambda t: [t * v for v in target]
    phi = np.asarray(a, dtype=float)
    h = 1.0 / steps
    # Keyed by the exact float t: n*h and (n-1)*h + h can differ in the
    # last bit, and then each gets its own entry.
    canonical = {}
    for n in range(steps):
        t = n * h
        k1 = _velocity(L, a, list(phi), path, t, canonical)
        k2 = _velocity(L, a, list(phi + 0.5 * h * k1), path, t + 0.5 * h, canonical)
        k3 = _velocity(L, a, list(phi + 0.5 * h * k2), path, t + 0.5 * h, canonical)
        k4 = _velocity(L, a, list(phi + h * k3), path, t + h, canonical)
        phi = phi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return phi


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
    and dlam[p] = d lambda / d b^p, for float points ``a`` and ``b``.

    One jet pass of (x, c) -> l_(a,x) c gives l* and its derivatives in b,
    one of the product gives the frame R and its derivatives; then
    lambda = l* R^-1 and d_p lambda = (d_p l* - lambda d_p R) R^-1.
    """
    lstar, dlstar, _ = taylor_frame(
        lambda x, c: core._left_associator(L, a, x, c), b, L.identity)
    r, dr, _ = tangent._frame_derivatives(L, b, "left")
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
    lam, dlam = _parametric_form(L, a, b)
    c = tangent.structure_tensor_raw(L, ab)
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


def batalin_axiom_check(L, a, b, c):
    """Residuals of the transformation-quasigroup axioms for (a, b, c)."""
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
    tol = 1e-10
    report.add("modified_associativity", assoc, tol, 1)
    report.add("right_unit", right_unit, tol, 1)
    report.add("left_unit", left_unit, tol, 1)
    report.add("invertibility", invert, tol, 1)
    return report
