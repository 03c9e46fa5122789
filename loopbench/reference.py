"""Independent reference computations for the benchmark's checks.

Nothing here imports loopbundle. Every formula is written from the
definitions: complex Moebius maps, 2x2 unitary matrices, 2x2 complex
matrices for the complexified quaternions, finite differences. A check
that compares a library output with one of these functions compares two
computations that share no code.
"""

import math

import numpy as np

EPS = np.finfo(float).eps


def rel_dist(x, y):
    """Max-norm distance of two chart points, relative to the size of ``y``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(np.max(np.abs(x - y)) / max(1.0, float(np.max(np.abs(y)))))


def circle_dist(x, y):
    """Distance on R/Z, for the coordinate of the rz loop."""
    d = (float(x[0]) - float(y[0]) + 0.5) % 1.0 - 0.5
    return abs(d)


# -- products from their formulas --------------------------------------------

def _rz_f(x):
    return (1.0 - math.cos(2.0 * math.pi * x)) / 4.0


def rz_product(a, b):
    """x + y + f(x) + f(y) - f(x + y) with f(x) = (1 - cos 2 pi x) / 4.

    Returned without the reduction mod 1, so finite differences across
    the identity stay continuous; compare with :func:`circle_dist`.
    """
    x, y = float(a[0]), float(b[0])
    return np.array([x + y + _rz_f(x) + _rz_f(y) - _rz_f(x + y)])


def mobius_product(sign):
    """(z + w) / (1 + sign conj(z) w): sign -1 is qc, sign +1 is qh2."""
    def prod(a, b):
        z, w = complex(a[0], a[1]), complex(b[0], b[1])
        p = (z + w) / (1.0 + sign * z.conjugate() * w)
        return np.array([p.real, p.imag])
    return prod


def su2_matrix(eta):
    """U_eta = [[1, eta], [-conj(eta), 1]] / sqrt(1 + |eta|^2)."""
    s = 1.0 / math.sqrt(1.0 + abs(eta) ** 2)
    return s * np.array([[1.0, eta], [-eta.conjugate(), 1.0]], dtype=complex)


def su2_compensated(a, b):
    """U_a U_b Lambda, with the diagonal phase Lambda that makes the product
    again of the form U_xi; Lambda's phase is arg(1 - conj(a) b)."""
    eta, zeta = complex(a[0], a[1]), complex(b[0], b[1])
    d = 1.0 - eta.conjugate() * zeta
    phi = math.atan2(d.imag, d.real)
    lam = np.diag([complex(math.cos(phi), math.sin(phi)),
                   complex(math.cos(phi), -math.sin(phi))])
    return su2_matrix(eta) @ su2_matrix(zeta) @ lam


def qsu2_product(a, b):
    """The loop coordinate xi read off U_a U_b Lambda = U_xi."""
    m = su2_compensated(a, b)
    xi = m[0, 1] / m[0, 0]
    return np.array([xi.real, xi.imag])


# Complexified quaternions as 2x2 complex matrices: 1 -> I, and the units
# i, j, k -> -i sigma_x, -i sigma_y, -i sigma_z, so that i j = k.
_QBASIS = np.array([
    [[1, 0], [0, 1]],
    [[0, -1j], [-1j, 0]],
    [[0, -1], [1, 0]],
    [[-1j, 0], [0, 1j]],
], dtype=complex)


def _quat(coeffs):
    return np.einsum("k,kab->ab", np.asarray(coeffs, dtype=complex), _QBASIS)


def _quat_coeffs(m):
    # tr(E_k E_k) = -2 for k > 0 and the units are trace-orthogonal.
    return np.array([np.trace(m) / 2.0] +
                    [-np.trace(m @ _QBASIS[k]) / 2.0 for k in (1, 2, 3)])


def qhr_product(K):
    """(z + w)(1 + (K/4) z^+ w)^-1 for z = p0 + i(p1 i + p2 j + p3 k)."""
    def prod(a, b):
        za = [a[0], 1j * a[1], 1j * a[2], 1j * a[3]]
        zb = [b[0], 1j * b[1], 1j * b[2], 1j * b[3]]
        za_conj = [za[0], -za[1], -za[2], -za[3]]
        num = _quat(za) + _quat(zb)
        den = np.eye(2) + (K / 4.0) * (_quat(za_conj) @ _quat(zb))
        c = _quat_coeffs(num @ np.linalg.inv(den))
        return np.array([c[0].real, c[1].imag, c[2].imag, c[3].imag])
    return prod


def reference_product(kind):
    """The reference product for a workload loop class."""
    return {
        "rz": rz_product,
        "qc": mobius_product(-1.0),
        "qh2": mobius_product(1.0),
        "qsu2": qsu2_product,
        "qhr-k1": qhr_product(1.0),
        "qhr-k0": qhr_product(0.0),
    }[kind]


def distance_for(kind):
    return circle_dist if kind == "rz" else rel_dist


# -- structure functions ------------------------------------------------------

def mobius_structure(sign, a):
    """Real-basis structure functions of the Moebius loops.

    The left frame is X_v(z) = g(z) v with g = 1 - sign |z|^2, so
    [X_1, X_i] = -2 sign g (x i - y), i.e. C^0_01 = 2 sign y and
    C^1_01 = -2 sign x at z = x + i y; all other entries vanish up to
    antisymmetry.
    """
    x, y = float(a[0]), float(a[1])
    c = np.zeros((2, 2, 2))
    c[0, 0, 1] = 2.0 * sign * y
    c[1, 0, 1] = -2.0 * sign * x
    c[:, 1, 0] = -c[:, 0, 1]
    return c


FD_STEP = 1e-4


def fd_tolerance(h=FD_STEP):
    """Error budget of the nested central differences: truncation h^2 plus
    rounding eps / h^2, times a margin for the size of the derivatives."""
    return 1e2 * (h * h + EPS / (h * h))


def fd_structure_tensor(prod, a, h=FD_STEP):
    """Structure tensor C^p_ij from central differences of ``prod``.

    R^k_i(a) = d/db^i (a.b)^k at b = e, and dR^k_i/da^m from a mixed
    central difference; the bracket of the frame columns is then solved
    in the frame, as [G_i, G_j] = C^p_ij G_p.
    """
    a = np.asarray(a, dtype=float)
    n = a.size
    eye = np.eye(n)
    r = np.empty((n, n))
    for i in range(n):
        r[:, i] = (prod(a, h * eye[i]) - prod(a, -h * eye[i])) / (2.0 * h)
    dr = np.empty((n, n, n))  # dr[k, i, m] = d R^k_i / d a^m
    for m in range(n):
        ap, am = a + h * eye[m], a - h * eye[m]
        for i in range(n):
            bp, bm = h * eye[i], -h * eye[i]
            dr[:, i, m] = (prod(ap, bp) - prod(ap, bm)
                           - prod(am, bp) + prod(am, bm)) / (4.0 * h * h)
    bracket = np.einsum("mi,kjm->kij", r, dr) - np.einsum("mj,kim->kij", r, dr)
    return np.linalg.solve(r, bracket.reshape(n, n * n)).reshape(n, n, n)


# -- RK4 order, bundles, gauge ------------------------------------------------

def observed_order(err_coarse, err_fine):
    """Convergence order from errors at step counts N and 2N."""
    return math.log2(err_coarse / err_fine)


def winding_value(n, theta, gamma):
    """Transition value of the degree-n bundle: tan(n theta / 2) e^{i gamma}."""
    t = math.tan(0.5 * n * theta)
    return np.array([t * math.cos(gamma), t * math.sin(gamma)])


def s3_norm_defect(w1, w2):
    return abs(abs(w1) ** 2 + abs(w2) ** 2 - 1.0)


def s3_base(z1, z2):
    """Projection of the unit 3-sphere to the circle: z1 / sqrt(1 - |z2|^2)."""
    r = math.sqrt(1.0 - abs(z2) ** 2)
    return np.array([z1.real / r, z1.imag / r])


class PolyPotential:
    """A^i_mu(x) = c0 + sum_k c1[i,mu,k] x_k + c2[i,mu,k] x_k^2.

    Written with + and * only, so it accepts the library's dual numbers;
    its curl comes from the closed-form derivative below.
    """

    def __init__(self, fiber_dim, base_dim, seed):
        rng = np.random.default_rng(seed)
        self.nf, self.db = fiber_dim, base_dim
        self.c0 = 0.3 * rng.standard_normal((fiber_dim, base_dim))
        self.c1 = 0.2 * rng.standard_normal((fiber_dim, base_dim, base_dim))
        self.c2 = 0.1 * rng.standard_normal((fiber_dim, base_dim, base_dim))

    def __call__(self, xs):
        out = np.empty((self.nf, self.db), dtype=object)
        for i in range(self.nf):
            for mu in range(self.db):
                acc = float(self.c0[i, mu])
                for k in range(self.db):
                    acc = acc + float(self.c1[i, mu, k]) * xs[k]
                    acc = acc + float(self.c2[i, mu, k]) * xs[k] * xs[k]
                out[i, mu] = acc
        try:
            return out.astype(float)
        except TypeError:
            return out

    def curl(self, x, mu, nu):
        """d_mu A_nu - d_nu A_mu at x, per fiber component."""
        x = np.asarray(x, dtype=float)
        d_mu_a_nu = self.c1[:, nu, mu] + 2.0 * self.c2[:, nu, mu] * x[mu]
        d_nu_a_mu = self.c1[:, mu, nu] + 2.0 * self.c2[:, mu, nu] * x[nu]
        return d_mu_a_nu - d_nu_a_mu
