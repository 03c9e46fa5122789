"""Tangent-space structure of a smooth loop.

Pushforwards of translations are dual-number Jacobians of the closed-form
product.  The structure functions and the modified Jacobi identity take
the frame and its first and second derivatives from one pass of the
product on Taylor jets (``dual.taylor_frame``), then C = R^-1 B and its
derivative by numpy linear algebra.  There is no finite-difference
truncation error anywhere in this module.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import core
from .dual import ginv, gsolve, jacobian, pack, primal, taylor_frame
from .errors import SingularFrame

FRAME_COND_WARN = 1e8


@dataclass(frozen=True)
class TangentVector:
    base: np.ndarray
    vec: np.ndarray


@dataclass(frozen=True)
class FrameMatrix:
    """Columns are the left fundamental fields at ``at``."""
    at: np.ndarray
    R: np.ndarray


@dataclass(frozen=True)
class StructureTensor:
    """C[p][i][j] are the frame-bracket coefficients at ``at``."""
    at: np.ndarray
    C: np.ndarray


def pushforward_left(L, a, v):
    """Differential of the left translation by ``a`` applied to ``v``."""
    jac = jacobian(lambda b: list(core.product(L, a, b)), list(v.base))
    return TangentVector(base=core.product(L, a, v.base), vec=jac @ np.asarray(v.vec))


def pushforward_right(L, b, v):
    """Differential of the right translation by ``b`` applied to ``v``."""
    jac = jacobian(lambda a: list(core.product(L, a, b)), list(v.base))
    return TangentVector(base=core.product(L, v.base, b), vec=jac @ np.asarray(v.vec))


def left_frame_matrix(L, a):
    """Frame columns Gamma_i = (L_a)_* e_i as a dim x dim matrix.

    Accepts dual entries in ``a`` (needed for frame derivatives).
    """
    return jacobian(lambda b: list(core.product(L, a, b)), list(L.identity))


def right_frame_matrix(L, y):
    """Right-frame columns: the differential of a -> a.y at the identity.

    Accepts dual entries in ``y``.
    """
    return jacobian(lambda a: list(core.product(L, a, y)), list(L.identity))


def left_fundamental_basis(L, a):
    r = left_frame_matrix(L, a)
    _warn_if_ill_conditioned(r, L, a)
    return FrameMatrix(at=pack(list(a)), R=r)


def _warn_if_ill_conditioned(r, L, a):
    rp = np.array([[primal(x) for x in row] for row in np.asarray(r)])
    if abs(np.linalg.det(rp)) < 1e-8:
        raise SingularFrame(f"{L.name}: frame not invertible at {a}")
    if np.linalg.cond(rp) > FRAME_COND_WARN:
        warnings.warn(f"{L.name}: frame badly conditioned at {a}", stacklevel=2)


def structure_functions(L, a):
    """Structure tensor C^p_ij with [Gamma_i, Gamma_j] = C^p_ij Gamma_p."""
    c = structure_tensor_raw(L, list(a))
    return StructureTensor(at=pack(list(a)), C=c)


def _frame_derivatives(L, a, side):
    """The frame at ``a`` and its first and second derivatives in ``a``,
    from one jet pass of the product (see :func:`dual.taylor_frame`)."""
    a = [float(v) for v in a]
    core._chart_points(L, a)
    if side == "left":
        f = L.product
    elif side == "right":
        f = lambda x, y: L.product(y, x)
    else:
        raise ValueError(f"unknown frame side: {side!r}")
    return taylor_frame(f, a, L.identity)


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
    one (:func:`right_frame_matrix`).  ``a`` must be floats; a dual
    coordinate raises ``TypeError``.
    """
    r, dr, _ = _frame_derivatives(L, a, side)
    return _structure(r, dr)


def jacobi_residual(L, a):
    """Max-norm residual of the modified Jacobi identity at ``a``:
    the cyclic sum over (i, j, k) of G_k C^p_ij + C^q_ij C^p_kq."""
    r, dr, d2r = _frame_derivatives(L, a, "left")
    c = _structure(r, dr)
    dc = _structure_derivative(r, dr, d2r, c)
    # s[p, i, j, k] = G^m_k d_m C^p_ij + C^q_ij C^p_kq
    s = np.einsum("mk,pmij->pijk", r, dc) + np.einsum("qij,pkq->pijk", c, c)
    cyclic = s + np.einsum("pjki->pijk", s) + np.einsum("pkij->pijk", s)
    return float(np.max(np.abs(cyclic)))  # NaN if any entry is NaN


def canonical_form(L, v):
    """Canonical Ad-form: solve the frame system, returning a T_e vector."""
    frame = left_fundamental_basis(L, v.base)
    return TangentVector(base=pack(list(L.identity)), vec=gsolve(frame.R, np.asarray(v.vec)))


def left_associator_differential(L, a, b):
    """Matrix of l_(a,b)* at the identity (dual Jacobian of the composition)."""
    return jacobian(lambda c: list(core.associator(L, "left", a, b, c)), list(L.identity))


def ad_differential(L, b, a):
    """Matrix of (Ad_b(a))_* at the identity."""
    return jacobian(lambda c: list(core.ad_map(L, b, a, c)), list(L.identity))


def ad_inverse_differential(L, b, a):
    """Matrix of (Ad^-1_b(a))_* at the identity.

    Built from the inverse operator composition, not a matrix inverse,
    so it exists even where the forward differential is singular.
    """
    return jacobian(lambda c: list(core.ad_inverse_map(L, b, a, c)),
                    list(L.identity))


def verify_ad_form_laws(L, b, a, v):
    """Residuals of the canonical-form transformation laws.

    Left law:  omega(L_b* v) = l_(b,a)* omega(v).
    Right law: omega(R_b* v) = (Ad_b(a)*)^-1 omega(v).
    """
    omega_v = canonical_form(L, v).vec
    lhs_l = canonical_form(L, pushforward_left(L, b, v)).vec
    rhs_l = left_associator_differential(L, b, a) @ omega_v
    res_left = float(np.max(np.abs(lhs_l - rhs_l)))

    lhs_r = canonical_form(L, pushforward_right(L, b, v)).vec
    rhs_r = ginv(ad_differential(L, b, a)) @ omega_v
    res_right = float(np.max(np.abs(lhs_r - rhs_r)))
    return res_left, res_right
