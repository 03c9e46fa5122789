"""The catalog of concrete smooth loops and their chart maps.

Five loops: the R/Z loop, the Moebius loop QC on the complex plane
(stereographic sphere), its unitary-matrix representation QSU(2), the
unit-disk loop QH2 (hyperboloid), and the quaternionic de Sitter family
QHR with curvature constant K.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import LoopDescriptor
from .dual import (Jet, JetDivisor, anyof, carry, gcos, gfloor, gsin, has_carrier,
                   near_zero, pack, primal)
from .errors import (DomainSingularity, NoSolutionInChart, PoleSingularity,
                     UnknownKind)

SINGULAR_DENOM = 1e-9

CATALOG_KINDS = ("rz", "qc", "qh2", "qhr", "qsu2")


@dataclass(frozen=True)
class LoopSpec:
    kind: str
    K: float = 1.0

    def __post_init__(self):
        if self.kind not in CATALOG_KINDS:
            raise UnknownKind(f"unknown loop kind: {self.kind}")
        if not math.isfinite(self.K):
            raise ValueError("curvature constant K must be finite")


# -- R/Z loop ---------------------------------------------------------------

def _rz_f(x):
    return (1.0 - gcos(2.0 * math.pi * x)) / 4.0


def _rz_fprime(x):
    return (math.pi / 2.0) * gsin(2.0 * math.pi * x)


def _rz_mod1(x):
    # x - floor(x) rounds to 1.0 for x in (-2**-54, 0), outside the chart
    # [0, 1); subtracting the comparison (1 there, else 0, elementwise on
    # a batch) keeps the derivative parts, and r - 0 is r.
    r = x - gfloor(x)
    return r - (primal(r) == 1.0)


def _rz_product(a, b):
    x, y = a[0], b[0]
    return [_rz_mod1(x + y + _rz_f(x) + _rz_f(y) - _rz_f(x + y))]


def _sqrt(v):
    # math.sqrt and np.sqrt round alike, so a point and a batch agree.
    return np.sqrt(v) if v.__class__ is np.ndarray else math.sqrt(v)


def _cbrt(v):
    # np.cbrt for a point too: math.cbrt rounds differently (and needs
    # Python 3.11), and pow(v, 1/3) differs between Python and numpy.
    c = np.cbrt(v)
    return c if v.__class__ is np.ndarray else float(c)


def _kepler(e, M):
    """The eccentric anomaly E with E - e sin E = M, for 0 <= e < 1 and
    0 <= M <= pi, floats or float arrays: Markley's starter and one
    fifth-order Householder step (F. L. Markley, "Kepler equation
    solver", Celest. Mech. Dyn. Astron. 63, 101-111, 1995)."""
    # Markley's starter E1
    a = (3.0 * math.pi ** 2 + 1.6 * math.pi * (math.pi - M) / (1.0 + e)) / (math.pi ** 2 - 6.0)
    d = 3.0 * (1.0 - e) + a * e
    q = 2.0 * a * d * (1.0 - e) - M * M
    r = 3.0 * a * d * (d - 1.0 + e) * M + M * M * M
    c = _cbrt(r + _sqrt(q * q * q + r * r))
    w = c * c
    E = (2.0 * r * w / (w * w + w * q + q * q) + M) / d
    # one fifth-order Householder step
    f2, f3 = e * gsin(E), e * gcos(E)
    f0, f1 = E - f2 - M, 1.0 - f3
    d3 = -f0 / (f1 - 0.5 * f0 * f2 / f1)
    d4 = -f0 / (f1 + 0.5 * d3 * f2 + d3 * d3 * f3 / 6.0)
    return E - f0 / (f1 + 0.5 * d4 * f2 + d4 * d4 * f3 / 6.0 - d4 * d4 * d4 * f2 / 24.0)


def _rz_root(x, t):
    """Float root y of g(y) = y + f(y) - f(x+y) = t, with the target t
    shifted by the whole number that puts the root near [0, 1); x and t
    are floats or float arrays (run a batch under ``dual.quiet``), and
    element i of a batch is the root at element i bit for bit.

    f(y) - f(x+y) = -1/2 sin(pi x) sin(pi (x+2y)), so E = pi (x+2y) turns
    g(y) = t into Kepler's equation E - e sin E = M with e = pi sin(pi x)
    and M = pi (x+2t).  g is 1-periodic in x, so x mod 1 keeps e >= 0,
    and the window of :func:`_rz_solve` is the elliptic case e < 1.  M is
    reduced to [-pi, pi] by 2 pi j and its sign folded out.
    :func:`_kepler` solves that case with fixed arithmetic; two Newton
    steps on g then polish y.
    """
    # x and y are floats or float arrays, so the closed forms return them.
    g0 = lambda y: y + _rz_f(y) - _rz_f(x + y)
    gp0 = lambda y: 1.0 + _rz_fprime(y) - _rz_fprime(x + y)
    # g(y+1) = g(y)+1, so shift the target near the image of [0,1).
    t = t - gfloor(t - g0(0.0) + 0.5)
    x1 = x - gfloor(x)
    e = math.pi * gsin(math.pi * x1)
    u = x1 + 2.0 * t
    j = gfloor(0.5 * u + 0.5)
    m = u - 2.0 * j
    s = 1 - 2 * (m < 0.0)
    E = _kepler(e, math.pi * (s * m))
    y = 0.5 * (s * E / math.pi - x1) + j
    for _ in range(2):
        y = y - (g0(y) - t) / gp0(y)
    return y, t


def _rz_solve(x, target):
    """Solve y + f(y) - f(x+y) = target for y.

    g(y) = y + f(y) - f(x+y) has g'(y) = 1 - pi sin(pi x) cos(pi (2y + x)),
    so the left translation by x is a bijection of the circle exactly where
    pi |sin(pi x)| < 1: x in [0, 0.10312) or (0.89688, 1) modulo 1.
    Elsewhere some targets have several roots, and the solve raises if any
    element of a batch lies there.  The rule reads the primal value, so
    floats, complex steps and jets follow it alike.  The float root of a
    point or a batch comes from :func:`_rz_root`; :func:`dual.carry`, with
    the float g' at the root, gives a carrier argument its parts.
    """
    x0, t0 = primal(x), primal(target)
    if anyof(math.pi * abs(gsin(math.pi * x0)) >= 1.0):
        raise NoSolutionInChart(f"R/Z left translation by {x0} is not invertible")
    y, t = _rz_root(x0, t0)
    if has_carrier((x, target)):
        shifted = target + (t - t0)
        gp = 1.0 + _rz_fprime(y) - _rz_fprime(x0 + y)
        y, = carry([y], lambda ys: [ys[0] + _rz_f(ys[0]) - _rz_f(x + ys[0]) - shifted],
                   lambda rs: [rs[0] / gp])
    return _rz_mod1(y)


def _rz_left_div(a, b):
    # a*y = b  =>  y + f(y) - f(a+y) = b - a - f(a) (mod 1)
    return [_rz_solve(a[0], b[0] - a[0] - _rz_f(a[0]))]


def _rz_right_div(b, a):
    # y*a = b; the product is symmetric, so reuse the left solve.
    return _rz_left_div(a, b)


# -- Moebius loops on the complex plane (QC and QH2) ------------------------
#
# A point (x, y) is the complex number z = x + iy; sign = -1 for QC (and
# QSU(2)) and +1 for QH2.  On the real pairs:
#   product        z.w = (z + w) / (1 + sign conj(z) w)
#   left division  z\w = (w - z) / (1 - sign conj(z) w)
#   right division w/z = (d + sign (w z) conj(d)) / (1 - |w z|^2),  d = w - z
# with n / m = n conj(m) / |m|^2 and
#   conj(z) w = (zx wx + zy wy) + i (zx wy - zy wx).

def _mobius_fraction(t, z, w, n, singular):
    # n / (1 + t conj(z) w) for t = +1 or -1; ``singular`` is the message
    # raised where the denominator vanishes.
    zx, zy = z[0], z[1]
    wx, wy = w[0], w[1]
    re = zx * wx + zy * wy
    if t > 0:
        mr, mi = 1.0 + re, zx * wy - zy * wx
    else:
        mr, mi = 1.0 - re, zy * wx - zx * wy
    m2 = mr * mr + mi * mi
    if near_zero(m2, SINGULAR_DENOM ** 2):  # m2 >= 0
        raise DomainSingularity(singular)
    if m2.__class__ is Jet:
        m2 = JetDivisor(m2)
    nx, ny = n
    return [(nx * mr + ny * mi) / m2, (ny * mr - nx * mi) / m2]


def _mobius_product(sign):
    def prod(a, b):
        return _mobius_fraction(sign, a, b, (a[0] + b[0], a[1] + b[1]),
                                "Moebius product denominator vanishes")
    return prod


def _mobius_left_div(sign):
    # Solve z*x = b.
    def div(a, b):
        return _mobius_fraction(-sign, a, b, (b[0] - a[0], b[1] - a[1]),
                                "Moebius division denominator vanishes")
    return div


def _mobius_right_div(sign):
    # Solve y*a = b:  y - sign*(b a) conj(y) = b - a, linear in (y, conj y).
    def div(b, a):
        ax, ay = a[0], a[1]
        bx, by = b[0], b[1]
        cx = bx * ax - by * ay
        cy = bx * ay + by * ax
        den = 1.0 - (cx * cx + cy * cy)
        if near_zero(den, SINGULAR_DENOM):
            raise DomainSingularity("Moebius right division singular")
        if den.__class__ is Jet:
            den = JetDivisor(den)
        dx, dy = bx - ax, by - ay
        # (b a) conj(d)
        px, py = cx * dx + cy * dy, cy * dx - cx * dy
        if sign < 0:
            return [(dx - px) / den, (dy - py) / den]
        return [(dx + px) / den, (dy + py) / den]
    return div


def _in_disk(p):
    """The qh2 chart, x^2 + y^2 < 1, on a point or a batch; NaN is outside."""
    return p[0] * p[0] + p[1] * p[1] < 1.0


# -- Quaternionic de Sitter loop QHR ----------------------------------------
#
# A point p = (p0, pv) is the complexified quaternion p0 + i(p1 i + p2 j + p3 k):
# a real scalar and an imaginary vector.  With k = K/4 the product is
# (z + w)(1 + k z^+ w)^-1 and the left division (1 - k w z^+)^-1 (w - z).
# Both are u conj(m) / N(m) or conj(m) u / N(m) for a quaternion
#   m = (m0, r + i s),  N(m) = m m^+ = m0^2 + r.r - s.s + 2i r.s,
# and, with t = k for the product and t = -k for the left division,
#   m0 = 1 + t (z0 w0 - zv.wv),  r = t zv x wv,  s = t (z0 wv - w0 zv),
#   u = z + w or w - z.
# r is orthogonal to zv, wv and s, so r.s = 0 and uv.r = 0: N is real,
# and so are the scalar and the imaginary vector part of the result,
#   (m0 u0 - uv.s,  m0 uv - u0 s - uv x r) / N,
# while its imaginary scalar and real vector parts vanish.  Only those
# nonzero parts are computed.  The right division y*a = b is
# (d + k b d^+ a) / (1 - k^2 N(a) N(b)), d = b - a (see _qhr_right_div).

def _qhr_fraction(t, z, w, u0, uv, singular):
    z0, z1, z2, z3 = t * z[0], t * z[1], t * z[2], t * z[3]
    w0, w1, w2, w3 = w
    m0 = 1.0 + (z0 * w0 - (z1 * w1 + z2 * w2 + z3 * w3))
    r1 = z2 * w3 - z3 * w2
    r2 = z3 * w1 - z1 * w3
    r3 = z1 * w2 - z2 * w1
    s1 = z0 * w1 - w0 * z1
    s2 = z0 * w2 - w0 * z2
    s3 = z0 * w3 - w0 * z3
    n = m0 * m0 + (r1 * r1 + r2 * r2 + r3 * r3) - (s1 * s1 + s2 * s2 + s3 * s3)
    if near_zero(n, SINGULAR_DENOM):
        raise DomainSingularity(singular)
    if n.__class__ is Jet:
        n = JetDivisor(n)
    u1, u2, u3 = uv
    return [(m0 * u0 - (u1 * s1 + u2 * s2 + u3 * s3)) / n,
            (m0 * u1 - u0 * s1 - (u2 * r3 - u3 * r2)) / n,
            (m0 * u2 - u0 * s2 - (u3 * r1 - u1 * r3)) / n,
            (m0 * u3 - u0 * s3 - (u1 * r2 - u2 * r1)) / n]


def _qhr_product(K):
    k4 = K / 4.0
    def prod(a, b):
        return _qhr_fraction(k4, a, b, a[0] + b[0],
                             (a[1] + b[1], a[2] + b[2], a[3] + b[3]),
                             "QHR product denominator has zero norm")
    return prod


def _qhr_left_div(K):
    k4 = K / 4.0
    def div(a, b):
        # z*x = b  =>  (1 - (K/4) b z^+) x = b - z
        return _qhr_fraction(-k4, a, b, b[0] - a[0],
                             (b[1] - a[1], b[2] - a[2], b[3] - a[3]),
                             "QHR left division singular")
    return div


def _qhr_right_div(K):
    """The right division y*a = b in closed form, the analogue of the
    Moebius w/z: y = (d + k b d^+ a) / s with d = b - a, k = K/4,
    s = 1 - k^2 N(a) N(b) and N(p) = p p^+ = p0^2 - pv.pv.

    Proof: y*a = b is y - k b y^+ a = d.  a^+ a = N(a) and b b^+ = N(b) are
    real scalars, so b a^+ d b^+ a = N(a) N(b) d, and y - k b y^+ a =
    (d + k b d^+ a - k b d^+ a - k^2 N(a) N(b) d) / s = d.  With
    m0 = b0 d0 - bv.dv, mv = d0 bv - b0 dv and r = bv x dv, b d^+ a has the
    real scalar m0 a0 + mv.av and the imaginary vector
    i (m0 av + a0 mv + r x av); its imaginary scalar -r.av and real vector
    a0 r - mv x av vanish for d = b - a.  One reciprocal 1/s, as jet
    quotients take, keeps a carrier's primal the float result.
    """
    k4 = K / 4.0

    def div(b, a):
        a0, a1, a2, a3 = a
        b0, b1, b2, b3 = b
        d0, d1, d2, d3 = b0 - a0, b1 - a1, b2 - a2, b3 - a3
        s = 1.0 - (k4 * k4) * ((a0 * a0 - (a1 * a1 + a2 * a2 + a3 * a3))
                               * (b0 * b0 - (b1 * b1 + b2 * b2 + b3 * b3)))
        if near_zero(s, SINGULAR_DENOM):
            raise DomainSingularity("QHR right division singular")
        m0 = b0 * d0 - (b1 * d1 + b2 * d2 + b3 * d3)
        m1, m2, m3 = d0 * b1 - b0 * d1, d0 * b2 - b0 * d2, d0 * b3 - b0 * d3
        r1, r2, r3 = b2 * d3 - b3 * d2, b3 * d1 - b1 * d3, b1 * d2 - b2 * d1
        inv = 1.0 / s
        return [(d0 + k4 * (m0 * a0 + (m1 * a1 + m2 * a2 + m3 * a3))) * inv,
                (d1 + k4 * (m0 * a1 + a0 * m1 + (r2 * a3 - r3 * a2))) * inv,
                (d2 + k4 * (m0 * a2 + a0 * m2 + (r3 * a1 - r1 * a3))) * inv,
                (d3 + k4 * (m0 * a3 + a0 * m3 + (r1 * a2 - r2 * a1))) * inv]
    return div


# -- QSU(2) matrix representation -------------------------------------------

def qsu2_matrix(eta):
    """Unitary 2x2 matrix U_eta representing the loop element eta."""
    eta = complex(eta)
    s = 1.0 / math.sqrt(1.0 + abs(eta) ** 2)
    return s * np.array([[1.0, eta], [-eta.conjugate(), 1.0]], dtype=complex)


def qsu2_product(eta, zeta):
    """Matrix product with the compensating phase, plus the loop coordinate.

    Returns ``(U, coord)`` where ``U = U_eta U_zeta Lambda(eta, zeta)`` and
    ``coord`` is the loop element read off the resulting matrix; ``coord``
    equals the QC product ``eta . zeta``.
    """
    eta, zeta = complex(eta), complex(zeta)
    den = 1.0 - eta.conjugate() * zeta
    if abs(den) < SINGULAR_DENOM:
        raise DomainSingularity("QSU(2) product phase undefined")
    phi = math.atan2(den.imag, den.real)
    lam = np.diag([np.exp(1j * phi), np.exp(-1j * phi)])
    u = qsu2_matrix(eta) @ qsu2_matrix(zeta) @ lam
    coord = u[0, 1] / u[0, 0]
    return u, coord


# -- chart maps -------------------------------------------------------------

def chart_map(kind, theta, phi):
    """Stereographic chart point for the sphere or hyperboloid."""
    if kind == "sphere":
        if not 0.0 <= theta < math.pi:
            if abs(theta - math.pi) < 1e-12 or theta >= math.pi:
                raise PoleSingularity("stereographic chart singular at theta = pi")
            raise ValueError("sphere chart requires 0 <= theta < pi")
        r = math.tan(theta / 2.0)
    elif kind == "hyperboloid":
        if theta < 0.0:
            raise ValueError("hyperboloid chart requires theta >= 0")
        r = math.tanh(theta / 2.0)
    else:
        raise UnknownKind(f"unknown chart kind: {kind}")
    return pack([r * math.cos(phi), r * math.sin(phi)])


def chart_inverse(kind, point):
    """Angles (theta, phi) recovering ``point`` through :func:`chart_map`."""
    x, y = point[0], point[1]
    r = math.sqrt(x * x + y * y)
    phi = math.atan2(y, x)
    if kind == "sphere":
        theta = 2.0 * math.atan(r)
    elif kind == "hyperboloid":
        if r >= 1.0:
            raise ValueError("hyperboloid chart image lies in the unit disk")
        theta = 2.0 * math.atanh(r)
    else:
        raise UnknownKind(f"unknown chart kind: {kind}")
    return theta, phi


# -- descriptors ------------------------------------------------------------

def _chordal_distance(p, q):
    """Distance of two plane points on the Riemann sphere,
    2|z - w| / sqrt((1 + |z|^2)(1 + |w|^2)); unlike plane differences it
    does not grow with |z| far out in the chart."""
    return 2.0 * math.hypot(p[0] - q[0], p[1] - q[1]) / (
        math.hypot(1.0, p[0], p[1]) * math.hypot(1.0, q[0], q[1]))


def _disk_sampler(radius):
    def sample(rng):
        r = radius * math.sqrt(rng.uniform())
        phi = rng.uniform(0.0, 2.0 * math.pi)
        return np.array([r * math.cos(phi), r * math.sin(phi)])
    return sample


def make_loop(spec):
    """Construct the LoopDescriptor for a catalog entry."""
    if isinstance(spec, str):
        spec = parse_spec(spec)
    kind = spec.kind
    if kind == "rz":
        return LoopDescriptor(
            name="rz", dim=1,
            product=_rz_product,
            left_div=_rz_left_div,
            right_div=_rz_right_div,
            identity=np.zeros(1),
            # Left translations L_x are invertible circle maps only for
            # pi |sin(pi x)| < 1 (x < 0.10312 or x > 0.89688); sampling
            # stays well inside that window so that products of samples
            # also remain inside it.
            domain_check=lambda p: (0.0 <= p[0]) & (p[0] < 1.0),
            sample=lambda rng: np.array([rng.uniform(0.0, 0.04)]),
            distance=lambda p, q: float(np.min(np.abs([p[0] - q[0],
                                                       p[0] - q[0] + 1.0,
                                                       p[0] - q[0] - 1.0]))),
        )
    if kind in ("qc", "qsu2"):
        sign = -1.0
        return LoopDescriptor(
            name=kind, dim=2,
            product=_mobius_product(sign),
            left_div=_mobius_left_div(sign),
            right_div=_mobius_right_div(sign),
            identity=np.zeros(2),
            domain_check=lambda p: p[0] * p[0] + p[1] * p[1] < 1e6,
            sample=_disk_sampler(0.9),
            distance=_chordal_distance,
        )
    if kind == "qh2":
        sign = 1.0
        return LoopDescriptor(
            name="qh2", dim=2,
            product=_mobius_product(sign),
            left_div=_mobius_left_div(sign),
            right_div=_mobius_right_div(sign),
            identity=np.zeros(2),
            domain_check=_in_disk,
            sample=_disk_sampler(0.95),
        )
    if kind == "qhr":
        K = spec.K
        radius = min(0.4, 0.8 / math.sqrt(1.0 + abs(K)))
        def sample(rng):
            return rng.uniform(-radius, radius, size=4)
        return LoopDescriptor(
            name=f"qhr:K={K:g}", dim=4,
            product=_qhr_product(K),
            left_div=_qhr_left_div(K),
            right_div=_qhr_right_div(K),
            identity=np.zeros(4),
            # NaN and inf fail the comparison, so they are rejected too.
            domain_check=lambda p: p[0] * p[0] + p[1] * p[1] + p[2] * p[2] + p[3] * p[3] < 1e6,
            sample=sample,
        )


def parse_spec(name):
    """Parse a catalog name string like "qc" or "qhr:K=2.5"."""
    if ":" in name:
        kind, _, rest = name.partition(":")
        key, _, value = rest.partition("=")
        if kind != "qhr" or key != "K":
            raise UnknownKind(f"bad loop name: {name}")
        return LoopSpec(kind=kind, K=float(value))
    return LoopSpec(kind=name)


def catalog_names():
    return ["rz", "qc", "qh2", "qhr:K=1", "qsu2"]
