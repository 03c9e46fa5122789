"""Tangent-space structure of a smooth loop.

Pushforwards of translations are dual-number Jacobians of the closed-form
product; frame brackets and structure-function derivatives use nested
duals, so there is no finite-difference truncation error anywhere in this
module.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import core
from .dual import floats_if_plain, ginv, gsolve, jacobian, pack, primal
from .errors import SingularFrame
from .report import worst_residual

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


def structure_tensor_raw(L, a, frame=None):
    """Structure tensor C^p_ij of a frame as a raw array, with
    [G_i, G_j] = C^p_ij G_p for the frame fields G_i.

    ``frame(L, a)`` returns the frame columns at ``a``: the left frame
    (:func:`left_frame_matrix`) by default, or :func:`right_frame_matrix`.
    ``a`` may carry dual parts.
    """
    if frame is None:
        frame = left_frame_matrix
    n = L.dim
    r = frame(L, a)
    # grad[(k,i) flattened][m] = d R^k_i / d a^m, via one more dual level.
    def flat_frame(x):
        fr = frame(L, x)
        return [fr[k][i] for k in range(n) for i in range(n)]

    grad = jacobian(flat_frame, a)
    rhs = np.empty((n, n * n), dtype=object)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc = 0.0
                for m in range(n):
                    acc = acc + r[m][i] * grad[k * n + j][m] - r[m][j] * grad[k * n + i][m]
                rhs[k, i * n + j] = acc
    return floats_if_plain(gsolve(r, rhs).reshape(n, n, n))


def jacobi_residual(L, a):
    """Max-norm residual of the modified Jacobi identity at ``a``."""
    n = L.dim
    a = [float(x) for x in a]
    r = np.array([[primal(x) for x in row] for row in left_frame_matrix(L, a)])
    c = np.asarray(structure_tensor_raw(L, a), dtype=float)
    # dc[m][p][i][j] = d C^p_ij / d a^m
    flat = jacobian(lambda x: list(np.asarray(structure_tensor_raw(L, x)).reshape(-1)), a)
    dc = np.array([[primal(v) for v in row] for row in flat]).reshape(n, n, n, n).transpose(3, 0, 1, 2)
    worst = 0.0
    for p in range(n):
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    deriv = (dc[:, p, i, j] @ r[:, k]
                             + dc[:, p, j, k] @ r[:, i]
                             + dc[:, p, k, i] @ r[:, j])
                    quad = (c[:, i, j] @ c[p, k, :]
                            + c[:, j, k] @ c[p, i, :]
                            + c[:, k, i] @ c[p, j, :])
                    worst = worst_residual(worst, abs(deriv + quad))
    return worst


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
