"""Nested-dual gauge routes, kept as references for the jet routes of
``loopbundle.gauge``: the covariant-derivative commutator, the component
curvature, the gauge transformation and the curvature in another
trivialization, the form on combined coordinates, the field bracket and
the curvature of two horizontal fields.  The per-entry loop of the test
potential is the reference for ``make_test_potential``'s one matrix.  They
differentiate by leveled passes only (``ref_dirderiv`` and ``ref_jacobian``,
with the frames and differentials ``ref_frame`` and ``ref_differential``)
over the raw closed forms, and solve with ``ref_gsolve``.

The connection map with Ad^-1_y(e) composed in full, and its own division
for the dy block, is the reference for the library's, which drops the
products by the identity and makes one division.  The matrix
forms of the connection form and of the horizontal and
fundamental fields, which build the Ad^-1 differential and the left frame
and invert the frame, are the references for the library's directional
passes.
"""

import numpy as np

from loopbundle import core, gauge, tangent
from loopbundle.dual import gcos, gdot, gsin, pack, primal

from leveled_dual import ref_differential, ref_dirderiv, ref_frame, ref_gsolve, ref_jacobian


def _floats(m):
    return np.array([[primal(v) for v in row] for row in np.asarray(m)])


def make_test_potential(L, base_dim, seed, kind="poly"):
    """The test potential of ``gauge.make_test_potential`` with each entry
    in its own scalar loop: A^i_mu = c0 + sum_k c1 f(x_k) + (c2 g)(x_k),
    the poly term rounded as (c2 x) x."""
    rng = np.random.default_rng(seed)
    nf = L.dim
    c0 = 0.3 * rng.standard_normal((nf, base_dim))
    c1 = 0.2 * rng.standard_normal((nf, base_dim, base_dim))
    c2 = 0.1 * rng.standard_normal((nf, base_dim, base_dim))
    if kind == "poly":
        first, second = (lambda v: v), (lambda c, v: c * v * v)
    else:
        first, second = gsin, (lambda c, v: c * gcos(v))

    def entry(xs, i, mu):
        acc = c0[i, mu]
        for k in range(base_dim):
            acc = acc + c1[i, mu, k] * first(xs[k]) + second(c2[i, mu, k], xs[k])
        return acc

    def a_fun(xs):
        return np.array([[entry(xs, i, mu) for mu in range(base_dim)] for i in range(nf)])

    pot = gauge.GaugePotential(chart="test", A=a_fun, base_dim=base_dim)
    return gauge.LocalConnectionForm(potential=pot, fiber=L)


def split(form, z):
    """The base and fiber coordinates of a point z = (x, y), as lists."""
    db = form.potential.base_dim
    return list(z[:db]), list(z[db:])


def covariant_derivative_apply(form, mu, f, x, y):
    """(D_mu f)(x, y) = (d_mu f) - A^i_mu(x) (Lbar_i f); accepts duals."""
    db = form.potential.base_dim
    ex = [1.0 if k == mu else 0.0 for k in range(db)]
    d_base = ref_dirderiv(lambda xs: [f(xs, list(y))], list(x), ex)[0]
    rbar = ref_frame(form.fiber, y, "right")
    a = np.asarray(form.potential.A(list(x)))
    vy = np.asarray(rbar) @ a[:, mu]
    d_fiber = ref_dirderiv(lambda ys: [f(list(x), ys)], list(y), list(vy))[0]
    return d_base - d_fiber


def curvature(form, x, y, side="right"):
    """F^i_{mu nu}(x; y) from a leveled Jacobian of the potential, with
    the structure functions of the frame on ``side``."""
    L = form.fiber
    db = form.potential.base_dim
    nf = L.dim
    a = np.asarray(form.potential.A(list(x)), dtype=float)
    flat = ref_jacobian(lambda xs: list(np.asarray(form.potential.A(xs)).reshape(-1)),
                        [float(v) for v in x])
    da = _floats(flat).reshape(nf, db, db)  # da[i][mu][nu] = d_nu A^i_mu
    c = tangent.structure_tensor_raw(L, y, side=side)
    f = np.zeros((nf, db, db))
    for i in range(nf):
        for mu in range(db):
            for nu in range(db):
                f[i, mu, nu] = (da[i, nu, mu] - da[i, mu, nu]
                                - a[:, mu] @ c[i] @ a[:, nu])
    return f


def commutator_residual(form, mu, nu, f, x, y, side="right"):
    """|([D_mu, D_nu] + F^i_{mu nu} Lbar_i) f| from nested directional
    derivatives; ``side`` picks the structure tensor of F."""
    L = form.fiber

    def d(nu_idx, xs, ys):
        return covariant_derivative_apply(form, nu_idx, f, xs, ys)

    comm = (covariant_derivative_apply(form, mu, lambda xx, yy: d(nu, xx, yy), x, y)
            - covariant_derivative_apply(form, nu, lambda xx, yy: d(mu, xx, yy), x, y))
    fcur = curvature(form, x, y, side)
    rbar = _floats(ref_frame(L, y, "right"))
    correction = 0.0
    for i in range(L.dim):
        lbar_f = ref_dirderiv(lambda ys: [f(list(x), ys)], list(y), list(rbar[:, i]))[0]
        correction = correction + fcur[i, mu, nu] * primal(lbar_f)
    return abs(primal(comm) + correction)


def canonical_pullback(L, q_map, x):
    """theta^i_mu(x): pullback of the canonical form along ``q_map``."""
    dq = ref_jacobian(lambda xs: list(q_map(xs)), list(x))
    frame = ref_frame(L, q_map(list(x)))
    return ref_gsolve(frame, np.asarray(dq))


def gauge_transform(form, q_map, q_back=None):
    """The transformed potential Ad^-1_(q_ab)(q_ba) A + l_(q_ba, q_ab)* theta;
    accepts duals, so ``curvature`` can differentiate it."""
    L = form.fiber
    if q_back is None:
        q_back = lambda xs: list(core.right_divide(L, L.identity, q_map(xs)))

    def a_new(xs):
        qab = list(q_map(xs))
        qba = list(q_back(xs))
        adinv = ref_differential(L, core._ad_inverse, qab, qba)
        lstar = np.asarray(ref_differential(L, core._left_associator, qba, qab))
        theta = canonical_pullback(L, q_map, xs)
        return adinv @ np.asarray(form.potential.A(list(xs))) + lstar @ theta

    pot = gauge.GaugePotential(chart=form.potential.chart + "'", A=a_new,
                               base_dim=form.potential.base_dim)
    return gauge.LocalConnectionForm(potential=pot, fiber=L)


def gauge_transform_via_global(form, q_map):
    """Independent route: evaluate the invariantly defined form along the
    target section expressed in the source chart."""
    L = form.fiber

    def a_new(xs):
        yq = list(q_map(xs))
        adinv = ref_differential(L, core._ad_inverse, yq, L.identity)
        dq = ref_jacobian(lambda xx: list(q_map(xx)), list(xs))
        frame = ref_frame(L, yq)
        return (adinv @ np.asarray(form.potential.A(list(xs)))
                + ref_gsolve(frame, np.asarray(dq)))

    pot = gauge.GaugePotential(chart=form.potential.chart + "'", A=a_new,
                               base_dim=form.potential.base_dim)
    return gauge.LocalConnectionForm(potential=pot, fiber=L)


def curvature_gauge_residual(form, q_map, x, q_back=None):
    """Curvature of the nested-dual transformed potential against the
    Ad-rotated curvature of the original, at the identity fiber point."""
    L = form.fiber
    if q_back is None:
        q_back = lambda xs: list(core.right_divide(L, L.identity, q_map(xs)))
    e = [float(v) for v in L.identity]
    f_beta = curvature(gauge_transform(form, q_map, q_back), list(x), e)
    adinv = _floats(ref_differential(L, core._ad_inverse, q_map(list(x)), q_back(list(x))))
    rotated = np.einsum("ij,jmn->imn", adinv, curvature(form, list(x), e))
    return float(np.max(np.abs(f_beta - rotated)))


def ref_connection_map(form):
    """The connection map written as Ad^-1_y(e)(e + A(x) v_x) + y \\ (y + v_y),
    two divisions with both products by the identity of (e.y) \\ ((e.c).y)
    evaluated: the reference for ``gauge._connection_map``, which drops
    them and merges the divisions into y \\ ((e + A(x) v_x).y + v_y)."""
    L = form.fiber
    db = form.potential.base_dim
    e = list(L.identity)

    def f(zs, vs):
        ys = zs[db:]
        c = [ei + gdot(row, vs[:db]) for ei, row in zip(e, form.potential.A(zs[:db]))]
        back = L.left_div(ys, [yi + vi for yi, vi in zip(ys, vs[db:])])
        return [p + q for p, q in zip(core._ad_inverse(L, ys, e, c), back)]

    return f


def omega_matrices(form, x, y):
    """The two coefficient blocks of the coordinate connection form:
    Ad^-1_y(e)_* A(x) and the inverse of the left frame at y."""
    L = form.fiber
    dx_block = (ref_differential(L, core._ad_inverse, y, L.identity)
                @ np.asarray(form.potential.A(list(x))))
    dy_block = ref_gsolve(ref_frame(L, y), np.eye(L.dim))
    return dx_block, dy_block


def omega_apply(form, x, y, vx, vy):
    """The connection form on the tangent pair (vx, vy) from its blocks."""
    dx_block, dy_block = omega_matrices(form, x, y)
    return dx_block @ np.asarray(vx) + dy_block @ np.asarray(vy)


def hor_field(form, vx):
    """Horizontal field of ``vx`` from the Ad^-1 differential and the left
    frame: (vx, -R Ad^-1_y(e)_* A vx), which is the library's
    (vx, -Rbar A vx) as R Ad^-1_y(e)_* = Rbar."""
    vx = [float(v) for v in vx]

    def field(z):
        x, y = split(form, z)
        L = form.fiber
        w = (ref_differential(L, core._ad_inverse, y, L.identity)
             @ (np.asarray(form.potential.A(x)) @ np.asarray(vx)))
        lifted = np.asarray(ref_frame(L, y)) @ w
        return pack(vx + [-u for u in lifted])

    return field


def fundamental_field(form, w):
    """Vertical field of ``w`` from the left frame matrix."""
    def field(z):
        _, y = split(form, z)
        lifted = np.asarray(ref_frame(form.fiber, y)) @ np.asarray(w)
        return pack([0.0] * form.potential.base_dim + list(lifted))

    return field


def vertical_reproduction_residual(form, x, y, w):
    """|omega(0, R w) - w| with the frame R and omega from its blocks."""
    lifted = _floats(ref_frame(form.fiber, y)) @ np.asarray(w)
    val = omega_apply(form, list(x), list(y), np.zeros(form.potential.base_dim), lifted)
    return float(np.max(np.abs(np.array([primal(v) for v in val]) - np.asarray(w))))


def omega_of(form, z, v):
    """Connection form as a function on combined (base, fiber) coordinates."""
    x, y = split(form, z)
    vx, vy = split(form, v)
    return omega_apply(form, x, y, vx, vy)


def field_bracket(f, g):
    def bracket(z):
        return (ref_dirderiv(lambda zz: list(g(zz)), list(z), list(f(z)))
                - ref_dirderiv(lambda zz: list(f(zz)), list(z), list(g(z))))
    return bracket


def curvature_2form(form, f, g):
    """Curvature on two horizontal fields via the commutator shortcut:
    Omega(X, Y) = -(1/2) omega([X, Y])."""
    def value(z):
        comm = field_bracket(f, g)(list(z))
        return [-0.5 * u for u in omega_of(form, list(z), comm)]
    return value
