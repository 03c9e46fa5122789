"""Connections, covariant derivatives and curvature on loop bundles.

A local gauge potential A^i_mu(x) together with a fiber loop determines
the coordinate connection form

    omega^i = (Ad^-1_y(e))^i_j A^j_mu dx^mu + (inverse left frame)^i_j dy^j.

Everything downstream (covariant derivative, curvature, structure
equation, Bianchi) is evaluated with dual-number derivatives, so
residuals measure the identities themselves, not discretization error.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import core, tangent
from .dual import (dirderiv, floats_if_plain, ginv, gmatvec, gsolve, gcos,
                   gsin, has_dual, jacobian, pack, primal)
from .errors import PartitionInvalid
from .report import VerificationReport


@dataclass(frozen=True)
class GaugePotential:
    """A^i_mu(x): callable from base coordinates to a fiber_dim x base_dim
    matrix; must accept dual-number coordinates."""

    chart: str
    A: Callable
    base_dim: int


@dataclass(frozen=True)
class LocalConnectionForm:
    potential: GaugePotential
    fiber: object


def right_quasi_invariant_basis(L, y):
    """Columns are the generators of left translations at ``y``.

    These are the differentials in the *first* product slot: column i is
    the velocity of a -> a.y at the identity along e_i.
    """
    return tangent.FrameMatrix(at=pack(list(y)), R=tangent.right_frame_matrix(L, y))


def ad_inverse_matrix(L, y, at=None):
    """Matrix of Ad^-1_y(at) at the identity; ``at`` defaults to e."""
    if at is None:
        at = list(L.identity)
    return tangent.ad_inverse_differential(L, list(y), list(at))


def omega_matrices(form, x, y):
    """The two coefficient blocks of the coordinate connection form."""
    L = form.fiber
    adinv = ad_inverse_matrix(L, y)
    a = form.potential.A(list(x))
    dx_block = adinv @ np.asarray(a)
    dy_block = ginv(tangent.left_frame_matrix(L, list(y)))
    return dx_block, dy_block


def omega_apply(form, x, y, vx, vy):
    """Evaluate the connection form on the tangent pair (vx, vy)."""
    dx_block, dy_block = omega_matrices(form, x, y)
    return dx_block @ np.asarray(vx) + dy_block @ np.asarray(vy)


def covariant_derivative_apply(form, mu, f, x, y):
    """(D_mu f)(x, y) = (d_mu f) - A^i_mu(x) (Lbar_i f)."""
    L = form.fiber
    db = form.potential.base_dim
    ex = [1.0 if k == mu else 0.0 for k in range(db)]
    d_base = dirderiv(lambda xs: [f(xs, list(y))], list(x), ex)[0]
    rbar = right_quasi_invariant_basis(L, list(y)).R
    a = np.asarray(form.potential.A(list(x)))
    vy = np.asarray(rbar) @ a[:, mu]
    d_fiber = dirderiv(lambda ys: [f(list(x), ys)], list(y), list(vy))[0]
    return d_base - d_fiber


def curvature(form, x, y):
    """F^i_{mu nu}(x; y) with structure functions of the right frame."""
    L = form.fiber
    db = form.potential.base_dim
    nf = L.dim
    a = np.asarray(form.potential.A(list(x)), dtype=float)
    flat = jacobian(lambda xs: list(np.asarray(form.potential.A(xs)).reshape(-1)),
                    [float(v) for v in x])
    da = np.array([[primal(v) for v in row]
                   for row in flat]).reshape(nf, db, db)  # da[i][mu][nu] = d_nu A^i_mu
    c = tangent.structure_tensor_raw(L, y, side="right")
    f = np.zeros((nf, db, db))
    for i in range(nf):
        for mu in range(db):
            for nu in range(db):
                f[i, mu, nu] = (da[i, nu, mu] - da[i, mu, nu]
                                - a[:, mu] @ c[i] @ a[:, nu])
    return f


def commutator_residual(form, mu, nu, f, x, y):
    """|([D_mu, D_nu] + F^i_{mu nu} Lbar_i) f| at (x, y)."""
    L = form.fiber

    def d(nu_idx, xs, ys):
        return covariant_derivative_apply(form, nu_idx,
                                          lambda xx, yy: f(xx, yy), xs, ys)

    comm = (covariant_derivative_apply(form, mu, lambda xx, yy: d(nu, xx, yy), x, y)
            - covariant_derivative_apply(form, nu, lambda xx, yy: d(mu, xx, yy), x, y))
    fcur = curvature(form, x, y)
    rbar = np.array([[primal(v) for v in row]
                     for row in right_quasi_invariant_basis(L, list(y)).R])
    correction = 0.0
    for i in range(L.dim):
        lbar_f = dirderiv(lambda ys: [f(list(x), ys)], list(y), list(rbar[:, i]))[0]
        correction = correction + fcur[i, mu, nu] * primal(lbar_f)
    return abs(primal(comm) + correction)


def omega_annihilates_d_residual(form, x, y, mu):
    """Norm of the connection form applied to the covariant direction D_mu."""
    L = form.fiber
    db = form.potential.base_dim
    a = np.asarray(form.potential.A(list(x)), dtype=float)
    rbar = np.array([[primal(v) for v in row]
                     for row in right_quasi_invariant_basis(L, list(y)).R])
    vx = np.array([1.0 if k == mu else 0.0 for k in range(db)])
    vy = -rbar @ a[:, mu]
    val = omega_apply(form, x, y, vx, vy)
    return float(np.max(np.abs(np.array([primal(v) for v in val]))))


# -- fields on the product chart and the structure equation ----------------

def _split(form, z):
    db = form.potential.base_dim
    return list(z[:db]), list(z[db:])


def omega_coeffs(form, z):
    """Component matrix of the connection form in combined coordinates.

    Shape fiber_dim x (base_dim + fiber_dim); accepts dual entries.
    """
    x, y = _split(form, z)
    dx_block, dy_block = omega_matrices(form, x, y)
    nf = form.fiber.dim
    db = form.potential.base_dim
    out = np.empty((nf, db + nf), dtype=object)
    out[:, :db] = np.asarray(dx_block)
    out[:, db:] = np.asarray(dy_block)
    return floats_if_plain(out)


def omega_of(form, z, v):
    """Connection form as a function on combined (base, fiber) coordinates."""
    x, y = _split(form, z)
    vx, vy = _split(form, v)
    return omega_apply(form, x, y, vx, vy)


def d_omega_tensor(form, z, u, v):
    """The exterior derivative of the connection form on two tangent
    vectors, from the coordinate components.

    Convention: domega(d_a, d_b) = (d_a omega_b - d_b omega_a) / 2.
    Entries of ``z``, ``u``, ``v`` may be dual.
    """
    z = list(z)
    u = list(u)
    v = list(v)
    nf = form.fiber.dim
    nz = len(z)
    # flat[p*nz + b][a] = d_a omega^p_b
    flat = jacobian(lambda zz: list(np.asarray(omega_coeffs(form, zz)).reshape(-1)), z)
    out = []
    for p in range(nf):
        acc = 0.0
        for a in range(nz):
            for b in range(nz):
                acc = acc + flat[p * nz + b][a] * (u[a] * v[b] - v[a] * u[b])
        out.append(0.5 * acc)
    return pack(out)


def hor_project(form, z, v):
    """Horizontal part of a tangent pair: remove the fundamental lift of
    its connection-form value."""
    db = form.potential.base_dim
    x, y = _split(form, z)
    w = omega_of(form, z, v)
    lift = gmatvec(tangent.left_frame_matrix(form.fiber, y), w)
    return pack(list(v[:db]) + [v[db + i] - lift[i] for i in range(form.fiber.dim)])


def curvature_tensor(form, z, u, v):
    """Curvature 2-form on two tangent pairs (horizontalize, then domega)."""
    return d_omega_tensor(form, z, hor_project(form, z, u), hor_project(form, z, v))


def hor_field(form, vx):
    """Horizontal field extending the base direction ``vx``."""
    vx = [float(v) for v in vx]

    def field(z):
        x, y = _split(form, z)
        L = form.fiber
        adinv = ad_inverse_matrix(L, y)
        w = adinv @ (np.asarray(form.potential.A(x)) @ np.asarray(vx))
        lifted = np.asarray(tangent.left_frame_matrix(L, y)) @ w
        return pack(vx + [-u for u in lifted])

    return field


def fundamental_field(form, w):
    """Vertical field generated by the tangent vector ``w`` at the identity."""
    w = [float(v) for v in w]

    def field(z):
        x, y = _split(form, z)
        lifted = np.asarray(tangent.left_frame_matrix(form.fiber, y)) @ np.asarray(w)
        return pack([0.0] * form.potential.base_dim + list(lifted))

    return field


def field_bracket(f, g):
    def bracket(z):
        return (dirderiv(lambda zz: list(g(zz)), list(z), list(f(z)))
                - dirderiv(lambda zz: list(f(zz)), list(z), list(g(z))))
    return bracket


def structure_equation_residual(form, x, y, vx_x, vy_x, vx_y, vy_y):
    """Residual of Omega = domega + (1/2)[omega, omega] on two tangent pairs.

    The quasialgebra bracket of the two connection-form values uses the
    structure functions of the left frame at the evaluation fiber point;
    the curvature side horizontalizes both arguments first.  For mixed
    horizontal/vertical pairs the identity holds along the canonical
    section y = e, where the tests evaluate it.
    """
    L = form.fiber
    z = [float(v) for v in list(x) + list(y)]
    vone = pack([float(v) for v in list(vx_x) + list(vy_x)])
    vtwo = pack([float(v) for v in list(vx_y) + list(vy_y)])
    w1 = np.array([primal(v) for v in omega_of(form, z, vone)])
    w2 = np.array([primal(v) for v in omega_of(form, z, vtwo)])
    dw = np.array([primal(v) for v in d_omega_tensor(form, z, vone, vtwo)])
    c = np.asarray(tangent.structure_tensor_raw(L, list(y)), dtype=float)
    half_bracket = 0.5 * np.einsum("pij,i,j->p", c, w1, w2)
    omega_2 = np.array([primal(v)
                        for v in curvature_tensor(form, z, vone, vtwo)])
    return float(np.max(np.abs(dw + half_bracket - omega_2)))


def curvature_2form(form, f, g):
    """Curvature on two horizontal fields via the commutator shortcut:
    Omega(X, Y) = -(1/2) omega([X, Y])."""
    def value(z):
        comm = field_bracket(f, g)(list(z))
        return [-0.5 * u for u in omega_of(form, list(z), comm)]
    return value


def bianchi_residual(form, x, y, vx1, vx2, vx3):
    """|dOmega| on three horizontal lifts of base directions.

    Cyclic sum of the field derivative of Omega(f_j, f_k) along f_i minus
    Omega([f_i, f_j], f_k), with Omega the tensorial curvature 2-form.
    """
    z = [float(v) for v in list(x) + list(y)]
    fields = [hor_field(form, vx) for vx in (vx1, vx2, vx3)]
    total = np.zeros(form.fiber.dim)
    for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        fi, fj, fk = fields[i], fields[j], fields[k]
        deriv = dirderiv(
            lambda zz: list(curvature_tensor(form, zz, fj(zz), fk(zz))),
            z, list(fi(z)))
        comm_val = curvature_tensor(form, z, fk(z), field_bracket(fi, fj)(z))
        total = (total + np.array([primal(v) for v in deriv])
                 + np.array([primal(v) for v in comm_val]))
    return float(np.max(np.abs(total)))


# -- gauge transformations -------------------------------------------------

def canonical_pullback(L, q_map, x):
    """theta^i_mu(x): pullback of the canonical form along ``q_map``."""
    dq = jacobian(lambda xs: list(q_map(xs)), list(x))
    frame = tangent.left_frame_matrix(L, list(q_map(list(x))))
    return gsolve(frame, np.asarray(dq))


def gauge_transform(form, q_map, q_back=None):
    """Local connection form in the other trivialization.

    ``q_map`` is q_{alpha beta}(x) (the transition carrying the section
    of the *target* chart), ``q_back`` its right inverse q_{beta
    alpha}(x), computed by right division when omitted.
    """
    L = form.fiber

    if q_back is None:
        q_back = lambda xs: list(core.right_divide(L, L.identity, q_map(xs)))

    def a_new(xs):
        qab = list(q_map(xs))
        qba = list(q_back(xs))
        adinv = ad_inverse_matrix(L, qab, at=qba)
        lstar = np.asarray(tangent.left_associator_differential(L, qba, qab))
        theta = canonical_pullback(L, q_map, xs)
        return adinv @ np.asarray(form.potential.A(list(xs))) + lstar @ theta

    pot = GaugePotential(chart=form.potential.chart + "'", A=a_new,
                         base_dim=form.potential.base_dim)
    return LocalConnectionForm(potential=pot, fiber=L)


def gauge_transform_via_global(form, q_map):
    """Independent route: evaluate the invariantly defined form along the
    target section expressed in the source chart."""
    L = form.fiber

    def a_new(xs):
        yq = list(q_map(xs))
        adinv = ad_inverse_matrix(L, yq)
        dq = jacobian(lambda xx: list(q_map(xx)), list(xs))
        frame = tangent.left_frame_matrix(L, yq)
        return (adinv @ np.asarray(form.potential.A(list(xs)))
                + gsolve(frame, np.asarray(dq)))

    pot = GaugePotential(chart=form.potential.chart + "'", A=a_new,
                         base_dim=form.potential.base_dim)
    return LocalConnectionForm(potential=pot, fiber=L)


def curvature_gauge_residual(form, q_map, x, q_back=None):
    """Compare curvature of the transformed form with the Ad-rotated
    curvature of the original, both at the identity fiber point."""
    L = form.fiber
    if q_back is None:
        q_back = lambda xs: list(core.right_divide(L, L.identity, q_map(xs)))
    e = [float(v) for v in L.identity]
    f_beta = curvature(gauge_transform(form, q_map, q_back), list(x), e)
    adinv = ad_inverse_matrix(L, list(q_map(list(x))), at=list(q_back(list(x))))
    adinv = np.array([[primal(v) for v in row] for row in adinv])
    f_alpha = curvature(form, list(x), e)
    rotated = np.einsum("ij,jmn->imn", adinv, f_alpha)
    return float(np.max(np.abs(f_beta - rotated)))


def glue_connections(forms, weights, samples):
    """Convex combination of local potentials on a shared chart.

    ``forms`` are connection forms already expressed in one chart,
    ``weights`` the partition functions; the partition is validated on
    ``samples`` and the glued potential returned.
    """
    if len(forms) != len(weights) or not forms:
        raise PartitionInvalid("need matching nonempty forms and weights")
    for x in samples:
        total = sum(float(w(list(x))) for w in weights)
        if abs(total - 1.0) > 1e-10:
            raise PartitionInvalid(f"weights sum to {total} at {x}")
        if any(float(w(list(x))) < -1e-12 for w in weights):
            raise PartitionInvalid(f"negative weight at {x}")

    base = forms[0].potential

    def a_glued(xs):
        acc = None
        for frm, w in zip(forms, weights):
            term = w(list(xs)) * np.asarray(frm.potential.A(list(xs)))
            acc = term if acc is None else acc + term
        return acc

    pot = GaugePotential(chart=base.chart, A=a_glued, base_dim=base.base_dim)
    return LocalConnectionForm(potential=pot, fiber=forms[0].fiber)


def vertical_reproduction_residual(form, x, y, w):
    """Check that the glued form still reproduces fundamental vectors."""
    L = form.fiber
    lifted = np.asarray(tangent.left_frame_matrix(L, list(y)), dtype=float) @ np.asarray(w)
    val = omega_apply(form, list(x), list(y),
                      np.zeros(form.potential.base_dim), lifted)
    return float(np.max(np.abs(np.array([primal(v) for v in val]) - np.asarray(w))))


# -- deterministic test data ----------------------------------------------

def make_test_potential(L, base_dim, seed, chart="test", kind="poly"):
    """Reproducible smooth potential family for verification sweeps."""
    rng = np.random.default_rng(seed)
    nf = L.dim
    c0 = 0.3 * rng.standard_normal((nf, base_dim))
    c1 = 0.2 * rng.standard_normal((nf, base_dim, base_dim))
    c2 = 0.1 * rng.standard_normal((nf, base_dim, base_dim))

    if kind == "poly":
        def a_fun(xs):
            out = [[None] * base_dim for _ in range(nf)]
            for i in range(nf):
                for mu in range(base_dim):
                    acc = c0[i, mu]
                    for k in range(base_dim):
                        acc = acc + c1[i, mu, k] * xs[k]
                        acc = acc + c2[i, mu, k] * xs[k] * xs[k]
                    out[i][mu] = acc
            return np.array(out, dtype=object) if has_dual(xs) else np.array(out, dtype=float)
    elif kind == "trig":
        def a_fun(xs):
            out = [[None] * base_dim for _ in range(nf)]
            for i in range(nf):
                for mu in range(base_dim):
                    acc = c0[i, mu]
                    for k in range(base_dim):
                        acc = acc + c1[i, mu, k] * gsin(xs[k]) + c2[i, mu, k] * gcos(xs[k])
                    out[i][mu] = acc
            return np.array(out, dtype=object) if has_dual(xs) else np.array(out, dtype=float)
    else:
        raise ValueError(f"unknown potential kind {kind!r}")

    pot = GaugePotential(chart=chart, A=a_fun, base_dim=base_dim)
    return LocalConnectionForm(potential=pot, fiber=L)


def make_test_transition(L, base_dim, seed, radius=0.4):
    """Reproducible smooth loop-valued map on a test base chart."""
    rng = np.random.default_rng(seed)
    nf = L.dim
    c0 = rng.uniform(-0.5, 0.5, nf)
    c1 = rng.uniform(-0.5, 0.5, (nf, base_dim))
    phases = rng.uniform(0.0, 2.0 * np.pi, (nf, base_dim))

    def q_map(xs):
        out = []
        for i in range(nf):
            acc = c0[i]
            for k in range(base_dim):
                acc = acc + c1[i, k] * gsin(xs[k] + phases[i, k])
            out.append(radius * acc)
        return out

    return q_map

