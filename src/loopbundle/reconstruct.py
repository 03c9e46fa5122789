"""Recovering the loop product from infinitesimal frame data.

The product a.b is reproduced by integrating a generalized Lie equation
along a path from the identity to b: the velocity of phi(t) = a.b(t) is
the frame at phi applied to the associator-corrected canonical form of
db/dt.  A generalized Maurer-Cartan identity is what makes the result
path independent.
"""

import numpy as np

from . import core
from .dual import Dual, dual_parts, gsolve, jacobian, next_level, pack, primal
from .errors import StepUnderflow
from .report import VerificationReport, worst_residual
from .tangent import left_associator_differential, left_frame_matrix

MIN_STEPS = 16


def _path_with_velocity(path, t):
    """Evaluate a scalar->params callable and its velocity at t via a dual."""
    lvl = next_level()
    out = path(Dual(t, 1.0, lvl))
    return ([primal(v) for v in out],
            [float(d) if not isinstance(d, Dual) else primal(d)
             for d in dual_parts(out, lvl)])


def _canonical_velocity(L, a, path, t):
    """The phi-free factor l_(a,b)* . omega(b) db/dt of the velocity at t."""
    bpt, bdot = _path_with_velocity(path, t)
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


def parametric_form(L, a, b):
    """The matrix lambda(b; a) = l_(a,b)*,e . omega(b) of the Lie equation.

    Accepts dual entries in ``b`` so it can be differentiated in the
    b-parameters.
    """
    lstar = left_associator_differential(L, a, b)
    frame = left_frame_matrix(L, b)
    n = L.dim
    ident = np.eye(n)
    omega = gsolve(frame, ident)
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for r in range(n):
                acc = acc + lstar[i][r] * omega[r][j]
            out[i, j] = acc
    return out


def maurer_cartan_residual(L, b, a):
    """Max-norm residual of the generalized Maurer-Cartan identity.

    d_p lambda^i_j - d_j lambda^i_p + C^i_mn(a.b) lambda^m_p lambda^n_j,
    with the lambda derivatives taken in the b-parameters by dual numbers
    and the structure functions evaluated at the translated point.
    """
    from .tangent import structure_tensor_raw

    n = L.dim
    b = [float(v) for v in b]
    a = [float(v) for v in a]
    lam = np.array([[primal(v) for v in row] for row in parametric_form(L, a, b)])
    flat = jacobian(lambda x: list(parametric_form(L, a, x).reshape(-1)), b)
    # dlam[p][i][j] = d lambda^i_j / d b^p
    dlam = np.array([[primal(v) for v in row]
                     for row in flat]).reshape(n, n, n).transpose(2, 0, 1)
    c = np.asarray(structure_tensor_raw(L, list(core.product(L, a, b))), dtype=float)
    worst = 0.0
    for i in range(n):
        for j in range(n):
            for p in range(n):
                res = (dlam[p, i, j] - dlam[j, i, p]
                       + np.einsum("mn,m,n->", c[i], lam[:, p], lam[:, j]))
                worst = worst_residual(worst, abs(res))
    return worst


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
