"""Forward-mode automatic differentiation: nestable dual numbers and
truncated Taylor jets.

Two engines share the elementaries (``primal``, ``gsin``, ``gcos``,
``gfloor``) of this module.

- ``Jet`` carries the frames, the structure functions and the
  Maurer-Cartan identity.  One pass of a map f(a, e) on jets in the
  point offset alpha and the argument beta gives its Jacobian in e and
  that Jacobian's first and second derivatives in a (``taylor_frame``):
  the coefficients of the monomials alpha^p beta^q with |p| <= 2 and
  |q| <= 1.  Higher monomials are truncated.
- ``Dual`` gives every other derivative: first derivatives (pushforwards,
  Ad and associator differentials, the Lie-equation velocity) from one
  dual level; the second and third derivatives of ``gauge`` (curvature,
  Bianchi) from nesting ``Dual`` inside ``Dual``.

Both are exact in exact arithmetic: no finite-difference truncation
error anywhere.

The generic linear-algebra helpers (``gsolve``, ``ginv``) accept matrices
whose entries are duals, which is what makes frame solves differentiable.

Level dispatch.  The parts of a level-``k`` dual are numbers or duals of
lower levels.  A binary operator on two duals compares their levels: at
equal levels it combines the ``re`` and ``du`` parts; otherwise the
lower-level operand is a constant with respect to the higher epsilon, and
the result has the higher level.  A constant still enters the derivative
part as an explicit zero (``du + 0.0``, ``ar * 0.0 + ad * b``, ...), the
same operations the generic rule "split both operands at the higher
level" performs.  Those zero terms carry NaN and inf from the constant
into the derivative and fix the sign of zero results, so every result and
every constructed node is bit-identical to that generic rule;
``tests/test_dual.py`` keeps it as the reference.

Seeding.  ``seed`` (and so ``jacobian`` and ``dirderiv``, which call it)
wraps only the coordinates whose direction entry is nonzero or a dual; a
coordinate with a plain zero direction stays the number or lower-level
dual it was.  The derivative terms it would have fed are exact zeros that
dense seeding (every coordinate a dual) computed as ``0.0 * x`` terms.
Results can differ from dense seeding only in
- the sign of a zero derivative part;
- a derivative part that dense seeding made NaN because a NaN or inf in an
  unseeded coordinate met such a ``0.0 * x`` term;
- the last bits of a quotient with an operand that is now a plain number:
  a dual quotient multiplies by the divisor's reciprocal, ``x / y`` on
  numbers and ``d / y`` on a dual divide.
A NaN in any coordinate still makes the primal values it reaches NaN.
``tests/test_dual.py`` keeps dense seeding as the reference.
"""

import functools
import itertools
import math

import numpy as np

_NUMBERS = (int, float, np.floating, np.integer)


class Dual:
    """Number ``re + du*eps`` with ``eps**2 == 0``.

    Each epsilon carries a level tag; distinct levels are independent
    nilpotents, so nesting ``jacobian`` calls gives exact higher
    derivatives (mixed terms like ``eps1*eps2`` are kept, not dropped).
    """

    __slots__ = ("re", "du", "lvl")

    def __init__(self, re, du=0.0, lvl=0):
        self.re = re
        self.du = du
        self.lvl = lvl

    def __add__(self, other):
        if other.__class__ is Dual:
            lvl, olvl = self.lvl, other.lvl
            if lvl == olvl:
                return Dual(self.re + other.re, self.du + other.du, lvl)
            if lvl > olvl:
                return Dual(self.re + other, self.du + 0.0, lvl)
            return Dual(self + other.re, 0.0 + other.du, olvl)
        if isinstance(other, _NUMBERS):
            return Dual(self.re + other, self.du, self.lvl)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is Dual:
            lvl, olvl = self.lvl, other.lvl
            if lvl == olvl:
                return Dual(self.re - other.re, self.du - other.du, lvl)
            if lvl > olvl:
                return Dual(self.re - other, self.du - 0.0, lvl)
            return Dual(self - other.re, 0.0 - other.du, olvl)
        if isinstance(other, _NUMBERS):
            return Dual(self.re - other, self.du, self.lvl)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _NUMBERS):
            return Dual(other - self.re, -self.du, self.lvl)
        return NotImplemented

    def __mul__(self, other):
        if other.__class__ is Dual:
            lvl, olvl = self.lvl, other.lvl
            if lvl == olvl:
                ar, br = self.re, other.re
                return Dual(ar * br, ar * other.du + self.du * br, lvl)
            if lvl > olvl:
                ar = self.re
                return Dual(ar * other, ar * 0.0 + self.du * other, lvl)
            br = other.re
            return Dual(self * br, self * other.du + 0.0 * br, olvl)
        if isinstance(other, _NUMBERS):
            return Dual(self.re * other, self.du * other, self.lvl)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is Dual:
            lvl, olvl = self.lvl, other.lvl
            if lvl == olvl:
                inv = _reciprocal(other.re)
                q = self.re * inv
                return Dual(q, (self.du - q * other.du) * inv, lvl)
            if lvl > olvl:
                inv = _reciprocal(other)
                q = self.re * inv
                return Dual(q, (self.du - q * 0.0) * inv, lvl)
            inv = _reciprocal(other.re)
            q = self * inv
            return Dual(q, (0.0 - q * other.du) * inv, olvl)
        if isinstance(other, _NUMBERS):
            return Dual(self.re / other, self.du / other, self.lvl)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _NUMBERS):
            inv = _reciprocal(self)
            return inv * other
        return NotImplemented

    def __neg__(self):
        return Dual(-self.re, -self.du, self.lvl)

    def __pos__(self):
        return self

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise TypeError("Dual.__pow__ supports nonnegative integer exponents")
        out = 1.0
        for _ in range(n):
            out = out * self if isinstance(out, Dual) else self * out
        return out

    def __repr__(self):
        return f"Dual({self.re!r}, {self.du!r}, lvl={self.lvl})"


def _reciprocal(x):
    if x.__class__ is not Dual:
        return 1.0 / x
    inv = _reciprocal(x.re)
    return Dual(inv, -(x.du * inv) * inv, x.lvl)


def has_dual(xs):
    return any(isinstance(x, Dual) for x in xs)


def primal(x):
    """Strip all dual and jet parts, returning the underlying float."""
    while isinstance(x, Dual):
        x = x.re
    if x.__class__ is Jet:
        return float(x.c[0])
    return float(x)


def gsin(x):
    if isinstance(x, Dual):
        return Dual(gsin(x.re), gcos(x.re) * x.du, x.lvl)
    if x.__class__ is Jet:
        return x._trig(0)
    return math.sin(x)


def gcos(x):
    if isinstance(x, Dual):
        return Dual(gcos(x.re), -gsin(x.re) * x.du, x.lvl)
    if x.__class__ is Jet:
        return x._trig(1)
    return math.cos(x)


def gfloor(x):
    # Constant between lattice jumps, so the derivative is zero.
    return float(math.floor(primal(x)))


def pack(xs):
    """Turn a list of scalars into a numpy vector (object dtype if dual)."""
    xs = list(xs)
    if has_dual(xs):
        out = np.empty(len(xs), dtype=object)
        out[:] = xs
        return out
    return np.array([float(x) for x in xs])


def pack_matrix(rows):
    rows = [list(r) for r in rows]
    if any(has_dual(r) for r in rows):
        out = np.empty((len(rows), len(rows[0])), dtype=object)
        for i, r in enumerate(rows):
            out[i, :] = r
        return out
    return np.array([[float(x) for x in r] for r in rows])


def floats_if_plain(a):
    """The array ``a`` as floats when no entry is dual, else ``a`` itself."""
    try:
        return a.astype(float)
    except (TypeError, ValueError):
        return a


_fresh_level = itertools.count(1)


def next_level():
    """Allocate a fresh epsilon level for a new differentiation pass."""
    return next(_fresh_level)


def seed(x, direction, lvl=None):
    """Attach dual parts along ``direction`` to the vector ``x``.

    A coordinate whose direction entry is a plain number equal to zero is
    returned unchanged (the same object), so no dual arithmetic is spent on
    it; see the module docstring for what that can change.
    """
    if lvl is None:
        lvl = next_level()
    return [xi if vi.__class__ is not Dual and vi == 0.0 else Dual(xi, vi, lvl)
            for xi, vi in zip(x, direction)]


def dual_parts(ys, lvl=None):
    """Extract derivatives with respect to the level-``lvl`` epsilon."""
    if lvl is None:
        return [y.du if isinstance(y, Dual) else 0.0 for y in ys]
    return [y.du if isinstance(y, Dual) and y.lvl == lvl else 0.0 for y in ys]


def dirderiv(f, x, v):
    """Directional derivative of vector map ``f`` at ``x`` along ``v``."""
    lvl = next_level()
    return pack(dual_parts(f(seed(list(x), list(v), lvl)), lvl))


def jacobian(f, x):
    """Jacobian matrix of ``f: R^n -> R^m`` at ``x`` (one dual seed per column).

    Entries of ``x`` may already be dual; each seed gets a fresh epsilon
    level, so nesting jacobians gives exact mixed second derivatives.
    """
    x = list(x)
    n = len(x)
    cols = []
    for i in range(n):
        direction = [1.0 if j == i else 0.0 for j in range(n)]
        lvl = next_level()
        cols.append(dual_parts(f(seed(x, direction, lvl)), lvl))
    m = len(cols[0])
    return pack_matrix([[cols[j][i] for j in range(n)] for i in range(m)])


def gdot(a, b):
    out = 0.0
    for x, y in zip(a, b):
        out = out + x * y
    return out


def gmatvec(m, v):
    return pack([gdot(row, v) for row in m])


def gmatmul(a, b):
    bt = list(zip(*[list(r) for r in b]))
    return pack_matrix([[gdot(row, col) for col in bt] for row in a])


def gsolve(a, b):
    """Solve ``a @ x = b`` with partial pivoting; entries may be dual.

    ``b`` may be a vector or a matrix of right-hand sides.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.dtype != object and b.dtype != object:
        return np.linalg.solve(a, b)
    n = a.shape[0]
    vec = b.ndim == 1
    rhs = b.reshape(n, -1)
    aug = [[a[i, j] for j in range(n)] + [rhs[i, k] for k in range(rhs.shape[1])]
           for i in range(n)]
    width = n + rhs.shape[1]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(primal(aug[r][col])))
        if abs(primal(aug[piv][col])) == 0.0:
            raise np.linalg.LinAlgError("singular matrix in gsolve")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = _reciprocal(aug[col][col])
        for r in range(n):
            if r == col:
                continue
            factor = aug[r][col] * inv
            if primal(factor) == 0.0 and not isinstance(factor, Dual):
                continue
            for c in range(col, width):
                aug[r][c] = aug[r][c] - factor * aug[col][c]
    out = pack_matrix([[aug[i][n + k] * _reciprocal(aug[i][i])
                        for k in range(rhs.shape[1])] for i in range(n)])
    return out[:, 0] if vec else out


def ginv(a):
    a = np.asarray(a)
    if a.dtype != object:
        return np.linalg.inv(a)
    n = a.shape[0]
    return gsolve(a, np.eye(n))


# -- Taylor jets ---------------------------------------------------------------

# Highest total degree of a monomial: 2 in alpha plus 1 in beta.  The
# non-constant part N of a jet has N**(JET_DEGREE + 1) == 0.
JET_DEGREE = 3


class JetSpace:
    """Monomials alpha^p beta^q (|p| <= 2, |q| <= 1) in dimension ``n``,
    with the (i, j -> k) table of their truncated products.

    ``index`` maps a monomial, written as the sorted tuples of its alpha and
    beta variable indices (``((0, 0), (1,))`` is alpha_0^2 beta_1), to its
    coefficient position; the constant term is at 0.
    """

    def __init__(self, n):
        alphas = [()] + [(m,) for m in range(n)] + list(
            itertools.combinations_with_replacement(range(n), 2))
        betas = [()] + [(i,) for i in range(n)]
        monos = [(p, q) for q in betas for p in alphas]
        index = {mono: k for k, mono in enumerate(monos)}
        pairs = [(i, j, index[(tuple(sorted(pi + pj)), qi + qj)])
                 for i, (pi, qi) in enumerate(monos)
                 for j, (pj, qj) in enumerate(monos)
                 if len(pi) + len(pj) <= 2 and len(qi) + len(qj) <= 1]
        pairs.sort(key=lambda t: t[2])
        self.size = len(monos)
        self.index = index
        self._i = np.array([t[0] for t in pairs])
        self._j = np.array([t[1] for t in pairs])
        k = np.array([t[2] for t in pairs])
        # Every monomial is 1 times itself, so each k starts a nonempty run.
        self._starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
        # Positions of beta_i, alpha_m beta_i and alpha_l alpha_m beta_i.
        self.beta = np.array([index[((), (i,))] for i in range(n)])
        self.alpha_beta = np.array([[index[((m,), (i,))] for i in range(n)]
                                    for m in range(n)])
        self.alpha2_beta = np.array([[[index[(tuple(sorted((l, m))), (i,))]
                                       for i in range(n)] for m in range(n)]
                                     for l in range(n)])

    def mul(self, x, y):
        return np.add.reduceat(x[self._i] * y[self._j], self._starts)

    def variable(self, value, mono):
        c = np.zeros(self.size)
        c[0] = value
        c[self.index[mono]] = 1.0
        return Jet(c, self)


@functools.lru_cache(maxsize=None)
def jet_space(n):
    return JetSpace(n)


class Jet:
    """Truncated multivariate Taylor polynomial: coefficients ``c`` over the
    monomials of ``space``.  The non-constant part is nilpotent, so the
    reciprocal, sin and cos are finite series in it."""

    __slots__ = ("c", "space")
    __array_ufunc__ = None  # numpy scalars defer to the reflected operators

    def __init__(self, c, space):
        self.c = c
        self.space = space

    def __add__(self, other):
        if other.__class__ is Jet:
            return Jet(self.c + other.c, self.space)
        if isinstance(other, _NUMBERS):
            c = self.c.copy()
            c[0] += other
            return Jet(c, self.space)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is Jet:
            return Jet(self.c - other.c, self.space)
        if isinstance(other, _NUMBERS):
            c = self.c.copy()
            c[0] -= other
            return Jet(c, self.space)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _NUMBERS):
            c = -self.c
            c[0] += other
            return Jet(c, self.space)
        return NotImplemented

    def __mul__(self, other):
        if other.__class__ is Jet:
            return Jet(self.space.mul(self.c, other.c), self.space)
        if isinstance(other, _NUMBERS):
            return Jet(self.c * other, self.space)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is Jet:
            return self * other._reciprocal()
        if isinstance(other, _NUMBERS):
            if other == 0:
                raise ZeroDivisionError("float division by zero")
            return Jet(self.c / other, self.space)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _NUMBERS):
            return self._reciprocal() * other
        return NotImplemented

    def __neg__(self):
        return Jet(-self.c, self.space)

    def _reciprocal(self):
        inv = 1.0 / float(self.c[0])  # ZeroDivisionError, as for floats
        return self._series([inv * (-inv) ** k for k in range(JET_DEGREE + 1)])

    def _trig(self, shift):
        """sin (shift 0) or cos (shift 1): the k-th derivative of sin is
        the (k + shift)-th entry of the cycle sin, cos, -sin, -cos."""
        s, c = math.sin(self.c[0]), math.cos(self.c[0])
        cycle = (s, c, -s, -c)
        return self._series([cycle[(k + shift) % 4] / math.factorial(k)
                             for k in range(JET_DEGREE + 1)])

    def _series(self, taylor):
        """f(x0 + N) = sum_k taylor[k] N^k, with taylor[k] = f^(k)(x0) / k!."""
        mul = self.space.mul
        n = self.c.copy()
        n[0] = 0.0
        acc = n * taylor[-1]
        acc[0] += taylor[-2]
        for t in reversed(taylor[:-2]):
            acc = mul(n, acc)
            acc[0] += t
        return Jet(acc, self.space)


def taylor_frame(f, a, e):
    """One jet pass of ``f(a + alpha, e + beta)`` for a map f: R^n x R^n -> R^n.

    Returns ``(R, dR, d2R)`` at alpha = beta = 0 with
    ``R[k, i] = df^k/dbeta^i``, ``dR[m, k, i] = d R[k, i] / da^m`` and
    ``d2R[l, m, k, i] = d^2 R[k, i] / da^l da^m``.  ``a`` and ``e`` hold real numbers.
    """
    n = len(a)
    space = jet_space(n)
    # inf times a zero coefficient is NaN, as on the float and dual paths,
    # where it passes silently; one errstate per pass, not per multiply.
    with np.errstate(invalid="ignore", over="ignore"):
        ys = f([space.variable(v, ((m,), ())) for m, v in enumerate(a)],
               [space.variable(v, ((), (i,))) for i, v in enumerate(e)])
    coeffs = np.array([y.c for y in ys])
    r = coeffs[:, space.beta]
    dr = coeffs[:, space.alpha_beta].transpose(1, 0, 2)
    d2r = coeffs[:, space.alpha2_beta].transpose(1, 2, 0, 3)
    # The coefficient of alpha_m^2 is half the second derivative.
    d2r[np.diag_indices(n)] *= 2.0
    return r, dr, d2r
