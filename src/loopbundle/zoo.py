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
from .dual import _NUMBERS, gcos, gfloor, gsin, gsolve, pack, pack_matrix, primal
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
    return x - gfloor(x)


def _rz_product(a, b):
    x, y = a[0], b[0]
    return [_rz_mod1(x + y + _rz_f(x) + _rz_f(y) - _rz_f(x + y))]


def _rz_solve(x, target):
    """Solve y + f(y) - f(x+y) = target for y (bisection plus Newton polish).

    g(y) = y + f(y) - f(x+y) has g'(y) = 1 - pi sin(pi x) cos(pi (2y + x)),
    so the left translation by x is a bijection of the circle exactly where
    pi |sin(pi x)| < 1: x in [0, 0.10312) or (0.89688, 1) modulo 1.
    Elsewhere some targets have several roots, and the solve raises.  The
    rule reads the primal value, so floats, duals and jets follow it alike.
    """
    x0 = primal(x)
    if math.pi * abs(math.sin(math.pi * x0)) >= 1.0:
        raise NoSolutionInChart(f"R/Z left translation by {x0} is not invertible")
    # x0 and y are floats here, so the closed forms return floats.
    g0 = lambda y: y + _rz_f(y) - _rz_f(x0 + y)
    # g(y+1) = g(y)+1, so shift the target near the image of [0,1).
    t0 = primal(target)
    t0 -= math.floor(t0 - g0(0.0) + 0.5)
    lo, hi = -1.1, 1.1
    for _ in range(70):
        mid = 0.5 * (lo + hi)
        if g0(mid) < t0:
            lo = mid
        else:
            hi = mid
    y = 0.5 * (lo + hi)
    gp0 = lambda y: 1.0 + _rz_fprime(y) - _rz_fprime(x0 + y)
    for _ in range(4):
        y -= (g0(y) - t0) / gp0(y)
    # Re-run the update in the arguments' arithmetic (dual or jet) to carry
    # their derivatives: from the exact root, 3 steps are exact through
    # degree 7.
    if not isinstance(x, _NUMBERS) or not isinstance(target, _NUMBERS):
        g = lambda y: y + _rz_f(y) - _rz_f(x + y)
        gp = lambda y: 1.0 + _rz_fprime(y) - _rz_fprime(x + y)
        shift = t0 - primal(target)
        for _ in range(3):
            y = y - (g(y) - (target + shift)) / gp(y)
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
    if primal(m2) < SINGULAR_DENOM ** 2:
        raise DomainSingularity(singular)
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
        if abs(primal(den)) < SINGULAR_DENOM:
            raise DomainSingularity("Moebius right division singular")
        dx, dy = bx - ax, by - ay
        # (b a) conj(d)
        px, py = cx * dx + cy * dy, cy * dx - cx * dy
        if sign < 0:
            return [(dx - px) / den, (dy - py) / den]
        return [(dx + px) / den, (dy + py) / den]
    return div


def _disk_guard(div):
    def guarded(*args):
        out = div(*args)
        r2 = primal(out[0]) ** 2 + primal(out[1]) ** 2
        if r2 >= 1.0:
            raise NoSolutionInChart("QH2 division leaves the unit disk")
        return out
    return guarded


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
# nonzero parts are computed.

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
    if abs(primal(n)) < SINGULAR_DENOM:
        raise DomainSingularity(singular)
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
    k4 = K / 4.0

    def div(b, a):
        # y*a = b  =>  T y = b - a with T y = y - (K/4) b y^+ a, complex-linear
        # in the complexified quaternion y: T = I - k L_b R_a C, C = diag(1,-1,-1,-1).
        # With p = a0 b0, d = av.bv, c = av x bv, g = b0 av + a0 bv and
        # h = b0 av - a0 bv, the matrix M = L_b R_a C has
        #   Re M = [[p + d, -c^T], [c, -(av bv^T + bv av^T) - (p - d) I]],
        #   Im M = [[0, g^T], [g, [h]x]],
        # [h]x the cross-product matrix.  The 8 real unknowns (Re y, Im y)
        # solve [[R, S], [-S, R]] with R = I - k Re M and S = k Im M.  Below,
        # a is scaled by k first, so p, d, c, g and h carry the factor k.
        a0, a1, a2, a3 = a
        b0, b1, b2, b3 = b
        ka1, ka2, ka3 = k4 * a1, k4 * a2, k4 * a3
        ka0 = k4 * a0
        p = ka0 * b0
        d = ka1 * b1 + ka2 * b2 + ka3 * b3
        c1 = ka2 * b3 - ka3 * b2
        c2 = ka3 * b1 - ka1 * b3
        c3 = ka1 * b2 - ka2 * b1
        g1 = b0 * ka1 + ka0 * b1
        g2 = b0 * ka2 + ka0 * b2
        g3 = b0 * ka3 + ka0 * b3
        h1 = b0 * ka1 - ka0 * b1
        h2 = b0 * ka2 - ka0 * b2
        h3 = b0 * ka3 - ka0 * b3
        diag = 1.0 + (p - d)
        r = [[1.0 - (p + d), c1, c2, c3],
             [-c1, diag + 2.0 * (ka1 * b1), ka1 * b2 + b1 * ka2, ka1 * b3 + b1 * ka3],
             [-c2, ka2 * b1 + b2 * ka1, diag + 2.0 * (ka2 * b2), ka2 * b3 + b2 * ka3],
             [-c3, ka3 * b1 + b3 * ka1, ka3 * b2 + b3 * ka2, diag + 2.0 * (ka3 * b3)]]
        s = [[0.0, g1, g2, g3],
             [g1, 0.0, -h3, h2],
             [g2, h3, 0.0, -h1],
             [g3, -h2, h1, 0.0]]
        mat = ([r[i] + s[i] for i in range(4)] +
               [[-x for x in s[i]] + r[i] for i in range(4)])
        rhs = [b0 - a0, 0.0, 0.0, 0.0, 0.0, b1 - a1, b2 - a2, b3 - a3]
        sol = gsolve(pack_matrix(mat), pack(rhs))
        # H_R coordinates: real part of the scalar, imaginary parts of i,j,k.
        return [sol[0], sol[5], sol[6], sol[7]]
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
            domain_check=lambda p: 0.0 <= p[0] < 1.0,
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
            domain_check=lambda p: math.hypot(p[0], p[1]) < 1e3,
            sample=_disk_sampler(0.9),
            distance=_chordal_distance,
        )
    if kind == "qh2":
        sign = 1.0
        return LoopDescriptor(
            name="qh2", dim=2,
            product=_mobius_product(sign),
            left_div=_disk_guard(_mobius_left_div(sign)),
            right_div=_disk_guard(_mobius_right_div(sign)),
            identity=np.zeros(2),
            domain_check=lambda p: math.hypot(p[0], p[1]) < 1.0,
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
            domain_check=lambda p: math.hypot(*p) < 1e3,
            sample=sample,
            params={"K": K},
        )
    raise UnknownKind(f"unknown loop kind: {kind}")


def parse_spec(name):
    """Parse a catalog name string like "qc" or "qhr:K=2.5"."""
    if ":" in name:
        kind, _, rest = name.partition(":")
        key, _, value = rest.partition("=")
        if kind != "qhr" or key != "K":
            raise UnknownKind(f"bad loop name: {name}")
        return LoopSpec(kind=kind, K=float(value))
    return LoopSpec(kind=name)


def catalog_names(K=1.0):
    return ["rz", "qc", "qh2", f"qhr:K={K:g}", "qsu2"]
