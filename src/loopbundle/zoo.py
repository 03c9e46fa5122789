"""The catalog of concrete smooth loops and their chart maps.

Five loops: the R/Z loop, the Moebius loop QC on the complex plane
(stereographic sphere), its unitary-matrix representation QSU(2), the
unit-disk loop QH2 (hyperboloid), and the quaternionic de Sitter family
QHR with curvature constant K.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cnum import (C2, cabs2, cconj, cimag, cprimal, creal, from_coords, mkc,
                   qadd, qconj, qinv, qmul, qnorm2, to_coords)
from .core import LoopDescriptor
from .dual import (Dual, gatan, gatan2, gcos, gfloor, gsin, gsolve, gsqrt,
                   gtan, gtanh, pack, pack_matrix, primal, has_dual)
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

    The solve is well posed only where the left translation is monotone,
    i.e. for x below 1/pi^2; the sampler stays inside that window.
    """
    x0 = primal(x)
    g0 = lambda y: y + primal(_rz_f(y)) - primal(_rz_f(x0 + y))
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
    gp0 = lambda y: 1.0 + primal(_rz_fprime(y)) - primal(_rz_fprime(x0 + y))
    for _ in range(4):
        y -= (g0(y) - t0) / gp0(y)
    # Re-run the update in dual arithmetic to propagate derivatives exactly.
    if isinstance(x, Dual) or isinstance(target, Dual):
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

def _mobius_product(sign):
    # sign = -1: QC  (zeta+eta)/(1 - conj(zeta) eta)
    # sign = +1: QH2 (zeta+eta)/(1 + conj(zeta) eta)
    def prod(a, b):
        z, w = from_coords(a)[0], from_coords(b)[0]
        den = 1.0 + sign * (cconj(z) * w)
        if primal(cabs2(den)) < SINGULAR_DENOM ** 2:
            raise DomainSingularity("Moebius product denominator vanishes")
        return to_coords([(z + w) / den])
    return prod


def _mobius_left_div(sign):
    # Solve z*x = b:  x = (b - z)/(1 - sign * conj(z) b)
    def div(a, b):
        z, w = from_coords(a)[0], from_coords(b)[0]
        den = 1.0 - sign * (cconj(z) * w)
        if primal(cabs2(den)) < SINGULAR_DENOM ** 2:
            raise DomainSingularity("Moebius division denominator vanishes")
        return to_coords([(w - z) / den])
    return div


def _mobius_right_div(sign):
    # Solve y*a = b:  y - sign*(b a) conj(y) = b - a, linear in (y, conj y).
    def div(b, a):
        av, bv = from_coords(a)[0], from_coords(b)[0]
        c = -sign * (bv * av)
        d = bv - av
        den = 1.0 - cabs2(c)
        if abs(primal(den)) < SINGULAR_DENOM:
            raise DomainSingularity("Moebius right division singular")
        return to_coords([(d - c * cconj(d)) / den])
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

def _quat_from_coords(p):
    # H_R element z0 + i(z1 i + z2 j + z3 k) as a complexified quaternion.
    return [mkc(p[0], 0.0), mkc(0.0, p[1]), mkc(0.0, p[2]), mkc(0.0, p[3])]


def _quat_to_coords(q):
    return [creal(q[0]), cimag(q[1]), cimag(q[2]), cimag(q[3])]


def _qhr_product(K):
    k4 = K / 4.0
    def prod(a, b):
        z, w = _quat_from_coords(a), _quat_from_coords(b)
        den = qadd([mkc(1.0), mkc(0.0), mkc(0.0), mkc(0.0)],
                   [k4 * c for c in qmul(qconj(z), w)])
        n2 = qnorm2(den)
        if abs(cprimal(n2)) < SINGULAR_DENOM:
            raise DomainSingularity("QHR product denominator has zero norm")
        return _quat_to_coords(qmul(qadd(z, w), qinv(den, n2)))
    return prod


def _qhr_left_div(K):
    k4 = K / 4.0
    def div(a, b):
        z, w = _quat_from_coords(a), _quat_from_coords(b)
        # z*x = b  =>  (1 - (K/4) b z^+) x = b - z
        m = qadd([mkc(1.0), mkc(0.0), mkc(0.0), mkc(0.0)],
                 [mkc(-1.0) * (k4 * c) for c in qmul(w, qconj(z))])
        n2 = qnorm2(m)
        if abs(cprimal(n2)) < SINGULAR_DENOM:
            raise DomainSingularity("QHR left division singular")
        return _quat_to_coords(qmul(qinv(m, n2), qadd(w, [mkc(-1.0) * c for c in z])))
    return div


def _qhr_right_div(K):
    k4 = K / 4.0

    def apply_map(y, b, a):
        # y - (K/4) b y^+ a, real-linear in the 8 real components of y.
        corr = qmul(qmul(b, qconj(y)), a)
        return qadd(y, [mkc(-k4) * c for c in corr])

    def div(b, a):
        av, bv = _quat_from_coords(a), _quat_from_coords(b)
        rhs_q = qadd(bv, [mkc(-1.0) * c for c in av])
        cols = []
        for m in range(8):
            basis = [mkc(1.0 if m == i else 0.0, 1.0 if m - 4 == i else 0.0)
                     for i in range(4)]
            img = apply_map(basis, bv, av)
            cols.append([creal(img[i]) for i in range(4)] +
                        [cimag(img[i]) for i in range(4)])
        mat = [[cols[m][i] for m in range(8)] for i in range(8)]
        rhs = [creal(rhs_q[i]) for i in range(4)] + [cimag(rhs_q[i]) for i in range(4)]
        if has_dual([x for row in mat for x in row]) or has_dual(rhs):
            amat = pack_matrix(mat)
        else:
            amat = np.array(mat, dtype=float)
        sol = gsolve(amat, pack(rhs))
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
        if not 0.0 <= primal(theta) < math.pi:
            if abs(primal(theta) - math.pi) < 1e-12 or primal(theta) >= math.pi:
                raise PoleSingularity("stereographic chart singular at theta = pi")
            raise ValueError("sphere chart requires 0 <= theta < pi")
        r = gtan(theta / 2.0)
    elif kind == "hyperboloid":
        if primal(theta) < 0.0:
            raise ValueError("hyperboloid chart requires theta >= 0")
        r = gtanh(theta / 2.0)
    else:
        raise UnknownKind(f"unknown chart kind: {kind}")
    return pack([r * gcos(phi), r * gsin(phi)])


def chart_inverse(kind, point):
    """Angles (theta, phi) recovering ``point`` through :func:`chart_map`."""
    x, y = point[0], point[1]
    r = gsqrt(x * x + y * y)
    phi = gatan2(y, x)
    if kind == "sphere":
        theta = 2.0 * gatan(r)
    elif kind == "hyperboloid":
        if primal(r) >= 1.0:
            raise ValueError("hyperboloid chart image lies in the unit disk")
        theta = 2.0 * _gatanh(r)
    else:
        raise UnknownKind(f"unknown chart kind: {kind}")
    return theta, phi


def _gatanh(x):
    if isinstance(x, Dual):
        return Dual(_gatanh(x.re), x.du / (1.0 - x.re * x.re), x.lvl)
    return math.atanh(x)


# -- descriptors ------------------------------------------------------------

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
            # x < 1/pi^2; sampling stays well inside that local-loop
            # window so that products of samples also remain inside it.
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
