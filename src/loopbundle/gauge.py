"""Connections, covariant derivatives and curvature on loop bundles.

A local gauge potential A^i_mu(x) together with a fiber loop determines
the coordinate connection form

    omega^i = (Ad^-1_y(e))^i_j A^j_mu dx^mu + (inverse left frame)^i_j dy^j.

Ad^-1_y(e) c = (e.y) \\ ((e.c).y) is y \\ (c.y) by the loop axiom e.p = p
alone, so omega is the v-derivative of one left division (:func:`_connection_map`,
the one definition of omega), and D_mu = (e_mu, -Rbar A_mu), Rbar the right
frame at y, has one definition, :func:`_covariant_direction`.

Every derivative beyond the first comes from one Taylor-jet pass
(``dual.taylor_frame``) of a map whose Jacobian in its second argument is
the object differentiated: the connection form in z = (x, y) for the
curvature tensor, structure equation and Bianchi; A(x) v for the component
curvature; f(z + v) and the right frame for the covariant-derivative
commutator.  Each pass carries the order its caller reads:
Bianchi takes the connection form's second derivatives, every other check
only first ones.  A first derivative applied to one vector (the
connection form on a tangent pair, the horizontal and fundamental fields)
is one directional pass (``dual.dirderiv``) of the same kind of map.  A
transformed potential (``gauge_transform``) is a dual Jacobian on floats or
jets, so a jet pass encloses it like any potential, and every check runs
on a transformed form.  Every pass composes the raw closed forms on Python
floats and carriers (numpy values are read with ``tolist`` at its edge), and
a fixed fiber point y is checked once, before it (see :mod:`core`), as is a
gauge transformation's transition q_ab(x), before its division.  So
residuals measure the identities, not discretization error.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import core, tangent
from .dual import (Jet, dirderiv, gaffine, gcos, gdot, gsin, jacobian, pack, quiet,
                   taylor_frame)
from .errors import PartitionInvalid


@dataclass(frozen=True)
class GaugePotential:
    """A^i_mu(x): callable from base coordinates to a fiber_dim x base_dim
    numpy array.  It must accept floats, and Taylor jets for every curvature,
    commutator, structure-equation and Bianchi check; ``gauge_transform``
    calls it on the coordinates its own potential is given."""

    chart: str
    A: Callable
    base_dim: int


@dataclass(frozen=True)
class LocalConnectionForm:
    potential: GaugePotential
    fiber: object


def omega_apply(form, x, y, vx, vy):
    """Evaluate the connection form on the tangent pair (vx, vy): one pass
    of the one-division map of :func:`_connection_map` along (vx, vy)."""
    return _omega(form, list(x) + core._chart_points(form.fiber, y)[0], np.concatenate([vx, vy]))


def _omega(form, z, v):
    """omega on v at z = (x, y), y a checked point."""
    return dirderiv(lambda vs: _connection_map(form)(z, vs), [0.0] * len(z), v)


def _potential_jet(form, x):
    """A(x) and dA[m] = d_m A from one jet pass of (x, v) -> A(x) v."""
    def f(xs, vs):
        return [gdot(row, vs) for row in form.potential.A(xs)]

    return taylor_frame(f, [float(v) for v in x], [0.0] * form.potential.base_dim,
                        order=1)


def _field_strength(a, da, c):
    """F^i_{mu nu} = d_mu A^i_nu - d_nu A^i_mu - C^i_jk A^j_mu A^k_nu from
    A, dA[m] = d_m A and a structure tensor C."""
    d = da.transpose(1, 0, 2)  # d[i, mu, nu] = d_mu A^i_nu
    return d - d.transpose(0, 2, 1) - np.einsum("jm,ijk,kn->imn", a, c, a)


def curvature(form, x, y):
    """F^i_{mu nu}(x; y) with structure functions of the right frame."""
    c = tangent.structure_tensor_raw(form.fiber, y, side="right")
    with quiet():
        return _field_strength(*_potential_jet(form, x), c)


def commutator_residual(form, mu, nu, f, x, y):
    """|([D_mu, D_nu] + F^i_{mu nu} Lbar_i) f| at (x, y).

    D_mu = d_mu - A^i_mu Lbar_i is the vector field X_mu = (e_mu; -R A_mu)
    on z = (x, y) (:func:`_covariant_direction`, here as the matrix R of the
    right frame at y, whose columns are the Lbar_i), so [D_mu, D_nu] f =
    (X_mu^a d_a X_nu^b - X_nu^a d_a X_mu^b) d_b f, the Hessian of f being
    symmetric.  The gradient of f comes from one jet pass of f(z + v), A and
    dA from one of A(x) v, and R, dR and the right structure tensor from one
    of the product.  ``f(xs, ys)`` takes lists of scalars and, like the
    potential, must accept Taylor jets.
    """
    L = form.fiber
    db = form.potential.base_dim
    z = [float(v) for v in list(x) + list(y)]
    r, dr = tangent._frame_derivatives(L, z[db:], "right", order=1)

    def shifted(zs, vs):
        w = [p + q for p, q in zip(zs, vs)]
        return [f(w[:db], w[db:])]

    grad, _ = taylor_frame(shifted, z, [0.0] * len(z), order=1)
    a, da = _potential_jet(form, z[:db])
    with quiet():
        fcur = _field_strength(a, da, tangent._structure(r, dr))
        g = grad[0]
        xf = np.vstack([np.eye(db), -r @ a])  # columns X_mu
        dxf = np.zeros((len(z), len(z), db))  # dxf[a, b, mu] = d_a X_mu^b
        dxf[:db, db:] = -np.einsum("kj,mjn->mkn", r, da)
        dxf[db:, db:] = -np.einsum("lkj,jn->lkn", dr, a)
        dd = np.einsum("am,abn,b->mn", xf, dxf, g)  # X_m^a (d_a X_n^b) d_b f
        return float(abs(dd[mu, nu] - dd[nu, mu] + fcur[:, mu, nu] @ (g[db:] @ r)))


def omega_annihilates_d_residual(form, x, y, mu):
    """Norm of the connection form applied to the covariant direction D_mu
    (:func:`_covariant_direction` of e_mu).  It holds by construction: the
    argument of omega's division moves by Rbar A_mu - Rbar A_mu, both
    terms through the same dual operations, so it reads exactly 0."""
    db = form.potential.base_dim
    y = core._chart_points(form.fiber, y)[0]
    d = _covariant_direction(form, x, y, [1.0 if k == mu else 0.0 for k in range(db)])
    return float(np.max(np.abs(_omega(form, list(x) + y, d))))


# -- fields on the product chart and the structure equation ----------------

def _connection_map(form):
    """f(z, v) = y \\ ((e + A(x) v_x).y + v_y) at z = (x, y), one left division
    of e.y = y at v = 0, so its v-derivative there is omega at z."""
    L = form.fiber
    db = form.potential.base_dim
    e = L.identity.tolist()

    def f(zs, vs):
        ys = zs[db:]
        c = [ei + gdot(row, vs[:db]) for ei, row in zip(e, form.potential.A(zs[:db]).tolist())]
        return L.left_div(ys, [p + q for p, q in zip(L.product(c, ys), vs[db:])])

    return f


def _connection_jet(form, x, y, order):
    """omega^p_a at z = (x, y) and its derivatives to ``order`` (dom[m] =
    d_m omega, d2om[l, m], ...) from one jet pass of the map of
    :func:`_connection_map`, followed by Lambda = (0; R), R = (L_y)_* at e
    the inverse of omega's fiber block (L_y^-1)_* at y, and P = I - Lambda
    omega.
    """
    L = form.fiber
    db = form.potential.base_dim
    z = [float(v) for v in list(x) + list(y)]
    core._chart_points(L, z[db:])
    derivs = taylor_frame(_connection_map(form), z, [0.0] * len(z), order)
    om = derivs[0]
    lam = np.zeros((len(z), L.dim))
    lam[db:] = np.linalg.inv(om[:, db:])
    return *derivs, lam, np.eye(len(z)) - lam @ om


def _exterior(dom):
    """domega[..., p, a, b] = (d_a omega^p_b - d_b omega^p_a) / 2 from
    dom[..., a, p, b] = d_a omega^p_b."""
    t = dom.swapaxes(-3, -2)
    return 0.5 * (t - t.swapaxes(-1, -2))


def curvature_tensor(form, z, u, v):
    """Curvature 2-form Omega(u, v) = domega(Pu, Pv) at z = (x, y) on two
    float tangent pairs."""
    db = form.potential.base_dim
    with quiet():
        _, dom, _, p = _connection_jet(form, z[:db], z[db:], order=1)
        return np.einsum("pab,a,b->p", _exterior(dom), p @ np.asarray(u, dtype=float),
                         p @ np.asarray(v, dtype=float))


def _lift(L, y, w):
    """The left frame at the checked point y applied to w: d/ds y.(e + s w)."""
    return dirderiv(lambda c: L.product(y, c), L.identity.tolist(), w)


def _covariant_direction(form, x, y, vx):
    """D = (vx, -Rbar A(x) vx), Rbar the right frame at the checked point y, from
    one pass d/ds (e + s A(x) vx).y, as a list; D_mu for vx = e_mu.  x, y may hold carriers."""
    L, w = form.fiber, [gdot(row, vx) for row in form.potential.A(list(x)).tolist()]
    return list(vx) + (-dirderiv(lambda c: L.product(c, y), L.identity.tolist(), w)).tolist()


def hor_field(form, vx):
    """Horizontal field z -> D of :func:`_covariant_direction`; omega(D) = 0."""
    vx, db = [float(v) for v in vx], form.potential.base_dim
    return lambda z: pack(_covariant_direction(
        form, z[:db], core._chart_points(form.fiber, z[db:])[0], vx))


def fundamental_field(form, w):
    """Vertical field generated by the tangent vector ``w`` at the identity."""
    w, db = [float(v) for v in w], form.potential.base_dim
    return lambda z: pack([0.0] * db + list(_lift(
        form.fiber, core._chart_points(form.fiber, z[db:])[0], w)))


def structure_equation_residual(form, x, y, vx_x, vy_x, vx_y, vy_y):
    """Residual of Omega = domega + (1/2)[omega, omega] on two tangent pairs.

    The quasialgebra bracket of the two connection-form values uses the
    structure functions of the left frame at the evaluation fiber point;
    the curvature side horizontalizes both arguments first.  On horizontal
    fields omega(h) ~ 0, so that case checks omega(h) ~ 0 and never reads C;
    on vertical ones P u = P v = 0, so it checks omega's division against
    the product and C itself.  Mixed horizontal/vertical pairs hold along
    the canonical section y = e, where the tests evaluate them.
    """
    c = tangent.structure_tensor_raw(form.fiber, [float(v) for v in y])
    u = np.array(list(vx_x) + list(vy_x), dtype=float)
    v = np.array(list(vx_y) + list(vy_y), dtype=float)
    with quiet():
        om, dom, _, p = _connection_jet(form, x, y, order=1)
        dw = _exterior(dom)
        res = (np.einsum("pab,a,b->p", dw, u, v) - np.einsum("pab,a,b->p", dw, p @ u, p @ v)
               + 0.5 * np.einsum("pij,i,j->p", c, om @ u, om @ v))
    return float(np.max(np.abs(res)))  # NaN if any entry is NaN


def bianchi_residual(form, x, y, vx1, vx2, vx3):
    """|dOmega| on the horizontal lifts h_i = P(vx_i, 0) of base directions:
    the cyclic sum of (d_{h_i} K)(h_j, h_k), K = domega(P., P.), as the field
    derivatives and bracket terms of the invariant formula cancel.  With
    P h = h and dP = -Lambda (d omega) P, (d_h K)(u, v) = (d_h domega)(u, v)
    - domega(Lambda (d_h omega) u, v) - domega(u, Lambda (d_h omega) v)."""
    db = form.potential.base_dim
    with quiet():
        _, dom, d2om, lam, p = _connection_jet(form, x, y, order=2)
        h = p[:, :db] @ np.array([vx1, vx2, vx3], dtype=float).T  # columns h_i
        dw = _exterior(dom)
        g = np.einsum("aq,mi,mqb,bj->iaj", lam, h, dom, h)  # Lambda (d_{h_i} omega) h_j
        # t[p, i, j, k] = (d_{h_i} K)(h_j, h_k)
        t = (np.einsum("mi,mpab,aj,bk->pijk", h, _exterior(d2om), h, h)
             - np.einsum("pab,iaj,bk->pijk", dw, g, h)
             - np.einsum("pab,aj,ibk->pijk", dw, h, g))
        total = t[:, 0, 1, 2] + t[:, 1, 2, 0] + t[:, 2, 0, 1]
    return float(np.max(np.abs(total)))  # NaN if any entry is NaN


# -- gauge transformations -------------------------------------------------

def _transition(L, q_map):
    """xs -> (q_ab, q_ba) = (q_map(xs), e / q_ab), q_ab checked against the
    chart before the division; q_map is evaluated once per pair."""
    e = L.identity.tolist()

    def pair(xs):
        qab, = core._chart_points(L, q_map(xs))
        return qab, L.right_div(e, qab)

    return pair


def gauge_transform(form, q_map):
    """Local connection form in the other trivialization.

    ``q_map`` is q_{alpha beta}(x) (the transition carrying the section
    of the *target* chart); its right inverse q_{beta alpha}(x) is the
    right division e / q_{alpha beta}.  The new potential at x is the dual
    Jacobian in v at v = 0 of Ad^-1_(q_ab)(q_ba)(e + A(x) v) +
    l_(q_ba, q_ab)(q_ab \\ q_ab(x + v)), (q_ab, q_ba) and A taken at x once:
    Ad^-1 A plus l_* of the pullback of the canonical form along q_ab, as
    the v-Jacobian of q_ab \\ q_ab(x + v) is (L_(q_ab))_*^-1 dq_ab.  x may
    hold floats or Taylor jets, constants to that dual pass, so every jet
    check runs on a transformed form; ``q_map`` must accept duals over them.
    A ``Dual`` coordinate raises TypeError, as the pass would capture it and
    give a wrong derivative (see :mod:`dual`).
    """
    L = form.fiber
    pair = _transition(L, q_map)
    e = L.identity.tolist()
    db = form.potential.base_dim

    def a_new(xs):
        xs = [v if v.__class__ is Jet else float(v) for v in xs]
        qab, qba = pair(xs)
        a = form.potential.A(xs).tolist()

        def f(vs):
            c = [ei + gdot(row, vs) for ei, row in zip(e, a)]
            theta = L.left_div(qab, list(q_map([p + q for p, q in zip(xs, vs)])))
            return [p + q for p, q in zip(core._ad_inverse(L, qab, qba, c),
                                          core._left_associator(L, qba, qab, theta))]

        return jacobian(f, [0.0] * db)

    pot = GaugePotential(chart=form.potential.chart + "'", A=a_new, base_dim=db)
    return LocalConnectionForm(potential=pot, fiber=L)


def curvature_gauge_residual(form, q_map, x):
    """|F(A') - Ad^-1_(q_ab)(q_ba) F(A)| at x, both curvatures at the
    identity fiber point and A' = :func:`gauge_transform` of the form.
    It covers unit-phase transitions on ``qc`` only: generic transitions on
    a nonassociative fiber miss this law by about 1e-3.  The potential must
    accept Taylor jets and ``q_map`` duals over them.
    """
    L = form.fiber
    x = [float(v) for v in x]
    adinv = tangent.ad_inverse_differential(L, *_transition(L, q_map)(x))
    with quiet():
        rotated = np.einsum("ij,jmn->imn", adinv, curvature(form, x, L.identity))
        return float(np.max(np.abs(curvature(gauge_transform(form, q_map), x, L.identity)
                                   - rotated)))


def glue_connections(forms, weights, samples):
    """Convex combination of local potentials on a shared chart.

    ``forms`` are connection forms already expressed in one chart,
    ``weights`` the partition functions; the partition is validated on
    ``samples`` and the glued potential returned.
    """
    if len(forms) != len(weights) or not forms:
        raise PartitionInvalid("need matching nonempty forms and weights")
    for x in samples:
        # Written so that a NaN weight fails both checks.
        total = sum(float(w(list(x))) for w in weights)
        if not abs(total - 1.0) <= 1e-10:
            raise PartitionInvalid(f"weights sum to {total} at {x}")
        if not all(float(w(list(x))) >= -1e-12 for w in weights):
            raise PartitionInvalid(f"negative weight at {x}")

    base = forms[0].potential

    def a_glued(xs):
        # Entry by entry, as a weight on jets or duals does not scale an array.
        acc = None
        for frm, w in zip(forms, weights):
            wx = w(list(xs))
            term = pack([[wx * v for v in row] for row in frm.potential.A(list(xs))])
            acc = term if acc is None else acc + term
        return acc

    pot = GaugePotential(chart=base.chart, A=a_glued, base_dim=base.base_dim)
    return LocalConnectionForm(potential=pot, fiber=forms[0].fiber)


def vertical_reproduction_residual(form, x, y, w):
    """Check that the glued form still reproduces fundamental vectors."""
    y = core._chart_points(form.fiber, y)[0]
    val = _omega(form, list(x) + y,
                 [0.0] * form.potential.base_dim + _lift(form.fiber, y, w).tolist())
    return float(np.max(np.abs(val - np.asarray(w))))


# -- deterministic test data ----------------------------------------------

def make_test_potential(L, base_dim, seed, kind="poly"):
    """Reproducible smooth potential family for verification sweeps.

    A(x) = c0 + K phi(x), flattened by rows (entry i * base_dim + mu is
    A^i_mu), with the 2 base_dim features phi = (f(x_0), g(x_0), f(x_1),
    g(x_1), ...): f, g = x, x^2 for ``poly`` and sin, cos for ``trig``.
    K is one float matrix, so a jet evaluation is one ``dual.gaffine``.
    Each entry sums its feature terms in that order and adds c0 last; the
    per-entry loop this replaced added c0 first and rounded the poly term
    as (c2 x) x, not c2 (x x), so values moved in the last bits.
    """
    rng = np.random.default_rng(seed)
    nf = L.dim
    c0 = 0.3 * rng.standard_normal((nf, base_dim))
    c1 = 0.2 * rng.standard_normal((nf, base_dim, base_dim))
    c2 = 0.1 * rng.standard_normal((nf, base_dim, base_dim))
    if kind == "poly":
        def features(xs):
            return [u for v in xs[:base_dim] for u in (v, v * v)]
    elif kind == "trig":
        def features(xs):
            return [u for v in xs[:base_dim] for u in (gsin(v), gcos(v))]
    else:
        raise ValueError(f"unknown potential kind {kind!r}")
    b = c0.ravel()
    k = np.stack([c1, c2], axis=-1).reshape(nf * base_dim, 2 * base_dim)

    def a_fun(xs):
        return pack(gaffine(b, k, features(xs))).reshape(nf, base_dim)

    pot = GaugePotential(chart="test", A=a_fun, base_dim=base_dim)
    return LocalConnectionForm(potential=pot, fiber=L)


def make_test_transition(L, base_dim, seed):
    """Reproducible smooth loop-valued map on a test base chart."""
    rng = np.random.default_rng(seed)
    nf = L.dim
    c0 = rng.uniform(-0.5, 0.5, nf).tolist()
    c1 = rng.uniform(-0.5, 0.5, (nf, base_dim)).tolist()
    phases = rng.uniform(0.0, 2.0 * np.pi, (nf, base_dim)).tolist()

    def q_map(xs):
        out = []
        for i in range(nf):
            acc = c0[i]
            for k in range(base_dim):
                acc = acc + c1[i][k] * gsin(xs[k] + phases[i][k])
            out.append(0.4 * acc)
        return out

    return q_map

