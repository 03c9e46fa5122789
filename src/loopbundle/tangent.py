"""Tangent-space structure of a smooth loop.

A derivative applied to one vector is one directional pass
(``dual.dirderiv``) of a composite of the raw closed forms: the
pushforwards of translations, the canonical form and the left
transformation law.  The full differentials (frames, l_(a,b)*, Ad and
Ad^-1) are complex-step Jacobians at the identity, one step per column.  Each pass checks its
fixed points once, before the pass (see :mod:`core`).  The structure
functions take the frame and its first derivatives from one pass of the
product on Taylor jets (``dual.taylor_frame``), the modified Jacobi
identity its first and second, then C = R^-1 B and its derivative by
numpy linear algebra.  There is no finite-difference truncation error
anywhere in this module.
"""

from dataclasses import dataclass

import numpy as np

from . import core
from .dual import dirderiv, jacobian, pack, quiet, taylor_frame


@dataclass(frozen=True)
class TangentVector:
    base: np.ndarray
    vec: np.ndarray


def pushforward_left(L, a, v):
    """Differential of the left translation by ``a`` applied to ``v``."""
    a, x = core._chart_points(L, a, v.base)
    vec = dirderiv(lambda b: L.product(a, b), x, v.vec)
    return TangentVector(base=pack(L.product(a, x)), vec=vec)


def pushforward_right(L, b, v):
    """Differential of the right translation by ``b`` applied to ``v``."""
    b, x = core._chart_points(L, b, v.base)
    vec = dirderiv(lambda a: L.product(a, b), x, v.vec)
    return TangentVector(base=pack(L.product(x, b)), vec=vec)


def left_frame_matrix(L, a):
    """Frame columns Gamma_i = (L_a)_* e_i as a dim x dim matrix.

    Accepts Taylor jets in ``a``, constants to the complex steps; a complex
    ``a`` from another complex step goes undetected and gives a wrong
    derivative (see :mod:`dual`).
    """
    a = core._chart_points(L, a)[0]
    return jacobian(lambda b: L.product(a, b), L.identity.tolist())


def right_frame_matrix(L, y):
    """Right-frame columns: the differential of a -> a.y at the identity.

    Accepts Taylor jets in ``y``, constants to the complex steps; a complex
    ``y`` from another complex step goes undetected and gives a wrong
    derivative (see :mod:`dual`).
    """
    y = core._chart_points(L, y)[0]
    return jacobian(lambda a: L.product(a, y), L.identity.tolist())


def _frame_derivatives(L, a, side, order):
    """The frame at ``a`` and its derivatives in ``a`` up to ``order``,
    from one jet pass of the product (see :func:`dual.taylor_frame`)."""
    a = [float(v) for v in a]
    core._chart_points(L, a)
    if side == "left":
        f = L.product
    elif side == "right":
        f = lambda x, y: L.product(y, x)
    else:
        raise ValueError(f"unknown frame side: {side!r}")
    return taylor_frame(f, a, L.identity, order)


def _structure(r, dr):
    """C = R^-1 B, where B^k_ij = G^m_i d_m G^k_j - G^m_j d_m G^k_i are the
    components of [G_i, G_j] for the frame fields G_i = R[:, i], and
    dR[m] = d_m R."""
    n = len(r)
    g = np.einsum("mi,mkj->kij", r, dr)
    c = np.linalg.solve(r, (g - g.transpose(0, 2, 1)).reshape(n, n * n))
    return c.reshape(n, n, n)


def _structure_derivative(r, dr, d2r, c):
    """dC[p, l, i, j] = d_l C^p_ij = (R^-1 (d_l B - d_l R C))^p_ij."""
    n = len(r)
    # dg[l, k, i, j] = d_l (G^m_i d_m G^k_j)
    dg = np.einsum("lmi,mkj->lkij", dr, dr) + np.einsum("mi,lmkj->lkij", r, d2r)
    rhs = dg - dg.transpose(0, 1, 3, 2) - np.einsum("lkq,qij->lkij", dr, c)
    dc = np.linalg.solve(r, rhs.transpose(1, 0, 2, 3).reshape(n, n ** 3))
    return dc.reshape(n, n, n, n)


def structure_tensor_raw(L, a, side="left"):
    """Structure tensor C^p_ij of a frame as a raw float array, with
    [G_i, G_j] = C^p_ij G_p for the frame fields G_i.

    ``side`` picks the left frame (:func:`left_frame_matrix`) or the right
    one (:func:`right_frame_matrix`).  ``a`` must be floats; a complex
    coordinate raises ``TypeError``.
    """
    r, dr = _frame_derivatives(L, a, side, order=1)
    with quiet():
        return _structure(r, dr)


def jacobi_residual(L, a):
    """Max-norm residual of the modified Jacobi identity at ``a``:
    the cyclic sum over (i, j, k) of G_k C^p_ij + C^q_ij C^p_kq."""
    r, dr, d2r = _frame_derivatives(L, a, "left", order=2)
    with quiet():
        c = _structure(r, dr)
        dc = _structure_derivative(r, dr, d2r, c)
        # s[p, i, j, k] = G^m_k d_m C^p_ij + C^q_ij C^p_kq
        s = np.einsum("mk,pmij->pijk", r, dc) + np.einsum("qij,pkq->pijk", c, c)
        cyclic = s + s.transpose(0, 3, 1, 2) + s.transpose(0, 2, 3, 1)  # + s[pjki] + s[pkij]
    return float(np.max(np.abs(cyclic)))  # NaN if any entry is NaN


def canonical_form(L, v):
    """Canonical form omega(v) = (L_x)_*^-1 v at x = v.base, a T_e vector:
    one pass of s -> x \\ (x + s v), as the left division's derivative in
    its second argument at x is (L_x)_*^-1.  It exists where the left
    division by x does."""
    x = core._chart_points(L, v.base)[0]
    vec = dirderiv(lambda c: L.left_div(x, c), x, v.vec)
    return TangentVector(base=pack(list(L.identity)), vec=vec)


def left_associator_differential(L, a, b):
    """Matrix of l_(a,b)* at the identity (complex-step Jacobian of the
    composition)."""
    a, b = core._chart_points(L, a, b)
    return jacobian(lambda c: core._left_associator(L, a, b, c), L.identity.tolist())


def ad_differential(L, b, a):
    """Matrix of (Ad_b(a))_* at the identity."""
    b, a = core._chart_points(L, b, a)
    return jacobian(lambda c: core._ad_map(L, b, a, c), L.identity.tolist())


def ad_inverse_differential(L, b, a):
    """Matrix of (Ad^-1_b(a))_* at the identity.

    Built from the inverse operator composition, not a matrix inverse,
    so it exists even where the forward differential is singular.
    """
    b, a = core._chart_points(L, b, a)
    return jacobian(lambda c: core._ad_inverse(L, b, a, c), L.identity.tolist())


def verify_ad_form_laws(L, b, v):
    """Residuals of the canonical-form transformation laws at a = v.base.

    Left law:  omega(L_b* v) = l_(b,a)* omega(v), the right side one pass
    of s -> l_(b,a)(e + s omega(v)).
    Right law: omega(R_b* v) = (Ad_b(a)*)^-1 omega(v), the right side from
    the full Ad differential and its inverse: a route independent of the
    left side's passes.

    a and b are checked against the chart once, here; every pass then
    composes the raw closed forms, as :func:`canonical_form`, the
    pushforwards and :func:`ad_differential` do, so the translated base
    points b.a and a.b are intermediates and are not checked.
    """
    a, b = core._chart_points(L, v.base, b)
    e = L.identity.tolist()
    omega_v = dirderiv(lambda c: L.left_div(a, c), a, v.vec)

    def omega_of_push(x, push):
        """omega at x = a.b or b.a of the pushforward of v by ``push``."""
        return dirderiv(lambda c: L.left_div(x, c), x, dirderiv(push, a, v.vec))

    lhs_l = omega_of_push(L.product(b, a), lambda c: L.product(b, c))
    rhs_l = dirderiv(lambda c: core._left_associator(L, b, a, c), e, omega_v)
    res_left = float(np.max(np.abs(lhs_l - rhs_l)))

    lhs_r = omega_of_push(L.product(a, b), lambda c: L.product(c, b))
    rhs_r = np.linalg.inv(jacobian(lambda c: core._ad_map(L, b, a, c), e)) @ omega_v
    res_right = float(np.max(np.abs(lhs_r - rhs_r)))
    return res_left, res_right
