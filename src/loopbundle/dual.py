"""Forward-mode automatic differentiation with nestable dual numbers.

First derivatives come from a single dual level; second and third
derivatives (frame brackets, Jacobi residuals, Bianchi) from nesting
``Dual`` inside ``Dual``.  Everything here is exact in exact arithmetic:
no finite-difference truncation error anywhere.

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


def _parts(x, lvl):
    """Real/dual parts of ``x`` with respect to the level-``lvl`` epsilon."""
    if isinstance(x, Dual) and x.lvl == lvl:
        return x.re, x.du
    return x, 0.0


def _reciprocal(x):
    if x.__class__ is not Dual:
        return 1.0 / x
    inv = _reciprocal(x.re)
    return Dual(inv, -(x.du * inv) * inv, x.lvl)


def has_dual(xs):
    return any(isinstance(x, Dual) for x in xs)


def primal(x):
    """Strip all dual parts, returning the underlying float."""
    while isinstance(x, Dual):
        x = x.re
    return float(x)


def gsin(x):
    if isinstance(x, Dual):
        return Dual(gsin(x.re), gcos(x.re) * x.du, x.lvl)
    return math.sin(x)


def gcos(x):
    if isinstance(x, Dual):
        return Dual(gcos(x.re), -gsin(x.re) * x.du, x.lvl)
    return math.cos(x)


def gtan(x):
    if isinstance(x, Dual):
        t = gtan(x.re)
        return Dual(t, (1.0 + t * t) * x.du, x.lvl)
    return math.tan(x)


def gtanh(x):
    if isinstance(x, Dual):
        t = gtanh(x.re)
        return Dual(t, (1.0 - t * t) * x.du, x.lvl)
    return math.tanh(x)


def gsqrt(x):
    if isinstance(x, Dual):
        s = gsqrt(x.re)
        return Dual(s, x.du * _reciprocal(s + s), x.lvl)
    return math.sqrt(x)


def gatan(x):
    if isinstance(x, Dual):
        return Dual(gatan(x.re), x.du * _reciprocal(1.0 + x.re * x.re), x.lvl)
    return math.atan(x)


def gatan2(y, x):
    if isinstance(y, Dual) or isinstance(x, Dual):
        lvl = max(y.lvl if isinstance(y, Dual) else 0,
                  x.lvl if isinstance(x, Dual) else 0)
        yr, yd = _parts(y, lvl)
        xr, xd = _parts(x, lvl)
        r2 = xr * xr + yr * yr
        return Dual(gatan2(yr, xr), (xr * yd - yr * xd) * _reciprocal(r2), lvl)
    return math.atan2(y, x)


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
