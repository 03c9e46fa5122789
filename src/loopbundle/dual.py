"""Forward-mode automatic differentiation: first-order dual numbers and
truncated Taylor jets.

Two engines, and the complex step below, share the elementaries
(``primal``, ``gsin``, ``gcos``, ``gfloor``) of this module.

- ``Jet`` carries the frames, the structure functions, Maurer-Cartan and
  every gauge derivative: the connection form, the potential, the test
  function of the covariant-derivative commutator and the gauge
  transformation.  One pass of a map f(a, e) on jets in the
  point offset alpha and the argument beta gives its Jacobian in e and
  that Jacobian's derivatives in a up to the order its caller reads
  (``taylor_frame``): the coefficients of the monomials alpha^p beta^q
  with |p| <= order and |q| <= 1.  Higher monomials are truncated, so a
  first-order caller carries no second-order coefficients.
- ``Dual`` gives the first derivatives in one pass: one directional pass
  (``dirderiv``) where a derivative is applied to one vector
  (pushforwards, the canonical form and its batched Lie-equation
  factors, the connection form and the gauge fields), a ``jacobian``
  where the full matrix is needed (frames, Ad and associator
  differentials, a gauge-transformed potential).

Both are exact in exact arithmetic: no finite-difference truncation
error anywhere.

Affine maps.  ``gaffine`` computes b + K xs for a float matrix K, beside
``gdot``.  On jets of one space it is vector mode on the coefficients:
one array operation per entry of xs on the stacked coefficient arrays,
then one jet per row, instead of one scalar product per matrix entry.  On
floats, duals and a caller's carrier it is the ``gdot`` rule, summed in
the same order, so a jet's primal is the float result bit for bit.

Quotients.  A jet quotient ``x / d`` is ``x * r`` with r the reciprocal
series of d, a few table multiplications to build.  A closed form that
divides several numerators by one jet denominator inverts it once: it
wraps d in a ``JetDivisor`` after its singular test, and every quotient
is the ``x * r`` that ``x / d`` computes, bit for bit.  Every other
carrier (floats, complex steps, duals) divides element by element, as
x * (1/d) rounds differently from x / d on floats.

Dispatch.  ``primal``, ``gsin``, ``gcos``, ``gfloor`` and ``near_zero``
test the exact class of their argument, in the order float, ``Jet``,
``Dual``, ndarray with an axis (a batch), complex, and read a ``Dual``'s
primal part by the same ladder.  Only ints, numpy scalars, 0-d arrays
and a caller's carrier (a ``Dual`` subclass) reach the generic rule
after it, so no exception is raised on a hot path.

Complex steps.  The Lie-equation velocity, evaluated thousands of times
on plain floats, is the one first-order pass that runs on Python
``complex`` numbers instead (``complex_step``), whose arithmetic runs in
C (Martins, Sturdza & Alonso, "The complex-step derivative
approximation", *ACM TOMS* 29(3), 2003).  With h = 2**-600, x + i h v is
the dual number x + v eps in floating point: a product's imaginary part
is the dual formula term for term, the product of two imaginary parts,
h**2 d1 d2, rounds to 0, and scaling by the power of two h is exact.  So
the velocity is the ``Dual`` pass's bit for bit; ``complex_step`` states
the bounds of that.

Batches.  The parts of a ``Dual`` may be float numpy arrays with a
trailing batch axis, and the elementaries accept such arrays, so one pass
evaluates a map at many points (vector-mode forward differentiation,
Griewank & Walther, *Evaluating Derivatives*, 2nd ed., SIAM 2008, 3.1).
Every array operation is the elementwise IEEE operation, so column i of
a batched pass is bit-identical to the pass at point i alone.  A
``dirderiv`` whose point holds arrays returns one column per batch
element.  Numpy reports invalid and overflowing elements, which floats
pass silently, so batched passes run under ``quiet``.

Nesting.  A ``Dual`` pass may run inside a jet pass: a jet is a constant
to a ``Dual``, so the dual parts come out as jets and one Taylor pass
differentiates a first-order pass (nested forward mode); a
gauge-transformed potential is such a pass.  A ``Dual`` inside a ``Dual``
is not supported: ``seed`` raises TypeError on a coordinate that is
already a ``Dual``, and a ``Dual`` that a function captures inside
another pass goes undetected and gives a wrong derivative.  A caller that nests brings a leveled carrier, a subclass of
``Dual`` (the tests' references do), whose passes enclose the library's:
to a pass here it is a constant, and ``gsin``/``gcos`` ask it (``_trig``).

Solves.  One rule, ``carry``, takes derivatives through a solve: the float
solve gives the primal and simplified Newton steps the dual or jet parts.
The ``rz`` divisions, the only divisions without a closed form, use it.

Seeding.  ``seed`` (and so ``jacobian`` and ``dirderiv``, which call it)
wraps only the coordinates whose direction entry is not a plain zero; a
coordinate with a zero direction stays the number (or the caller's
carrier) it was.  The derivative terms it would have fed are exact zeros
that dense seeding (every coordinate a dual) computed as ``0.0 * x`` terms.
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

import cmath
import functools
import itertools
import math

import numpy as np

_NUMBERS = (int, float, np.floating, np.integer)


def _power(x, n):
    """``x**n`` of a dual or jet for an integer n >= 0: 1.0 times x, n times."""
    if not isinstance(n, int) or n < 0:
        raise TypeError(f"{x.__class__.__name__}.__pow__ supports nonnegative "
                        "integer exponents")
    out = 1.0
    for _ in range(n):
        out = x * out
    return out


class Dual:
    """Number ``re + du*eps`` with ``eps**2 == 0``: one first-order pass.

    ``re`` and ``du`` may be float arrays of one batch shape, and so may a
    constant operand (see the module docstring).  So may a ``Dual`` of
    another class, a caller's leveled carrier.
    """

    # Only the benchmark tracer's replacement __init__ writes ``lvl``.
    __slots__ = ("re", "du", "lvl")
    __array_ufunc__ = None  # numpy operands defer to the reflected operators

    def __init__(self, re, du=0.0):
        self.re = re
        self.du = du

    def __add__(self, other):
        if other.__class__ is Dual:
            return Dual(self.re + other.re, self.du + other.du)
        if isinstance(other, _CONSTANTS):
            return Dual(self.re + other, self.du)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is Dual:
            return Dual(self.re - other.re, self.du - other.du)
        if isinstance(other, _CONSTANTS):
            return Dual(self.re - other, self.du)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _CONSTANTS):
            return Dual(other - self.re, -self.du)
        return NotImplemented

    def __mul__(self, other):
        if other.__class__ is Dual:
            ar, br = self.re, other.re
            return Dual(ar * br, ar * other.du + self.du * br)
        if isinstance(other, _CONSTANTS):
            return Dual(self.re * other, self.du * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is Dual:
            inv = 1.0 / other.re
            q = self.re * inv
            return Dual(q, (self.du - q * other.du) * inv)
        if isinstance(other, _CONSTANTS):
            return Dual(self.re / other, self.du / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _CONSTANTS):
            inv = 1.0 / self.re
            return Dual(inv, -(self.du * inv) * inv) * other
        return NotImplemented

    def __neg__(self):
        return Dual(-self.re, -self.du)

    def __pos__(self):
        return self

    __pow__ = _power

    def __repr__(self):
        return f"Dual({self.re!r}, {self.du!r})"


def has_dual(xs):
    """Whether any entry of ``xs`` is a carrier: a dual of any class or a
    jet, not a batch array.  A float, the common entry, is ruled out first."""
    for x in xs:
        if x.__class__ is not float and isinstance(x, _CARRIERS):
            return True
    return False


def anyof(mask):
    """A comparison's truth: a bool, or whether any batch element holds."""
    return mask.any() if mask.__class__ is np.ndarray else mask


def allof(mask):
    """A comparison's truth: a bool, or whether every batch element holds."""
    return mask.all() if mask.__class__ is np.ndarray else mask


def near_zero(x, bound):
    """Whether |primal(x)| < bound, on a batch for any element: the
    singular test of a closed form, in one call on its hot float path."""
    c = x.__class__
    if c is float:
        return abs(x) < bound
    if c is Jet:
        return abs(x.c[0]) < bound
    if c is Dual:
        return near_zero(x.re, bound)
    if c is np.ndarray:
        return (abs(x) < bound).any()
    if isinstance(x, Dual):  # a caller's carrier
        return near_zero(x.re, bound)
    return abs(x) < bound  # a complex step, an int or a numpy scalar


def primal(x):
    """Strip all dual and jet parts, returning the underlying float (or
    the float array of a batch: any array with an axis)."""
    c = x.__class__
    if c is float:
        return x
    if c is Jet:
        return float(x.c[0])
    if c is Dual:
        return primal(x.re)
    if c is np.ndarray and x.ndim:
        return x
    if c is complex:
        return x.real
    if isinstance(x, Dual):  # a caller's carrier
        return primal(x.re)
    try:
        return float(x)  # an int, a numpy scalar or a 0-d array
    except TypeError:  # no number: returned as it is
        return x


def gsin(x):
    c = x.__class__
    if c is not float:
        if c is Jet:
            return x._trig(0)
        if c is Dual:
            return Dual(gsin(x.re), gcos(x.re) * x.du)
        if c is np.ndarray and x.ndim:
            return np.sin(x)
        if c is complex:
            return cmath.sin(x)
    try:
        return math.sin(x)  # a float, an int, a numpy scalar or a 0-d array
    except TypeError:  # a caller's carrier
        return x._trig(0)
    except ValueError:  # inf; NaN, as math.sin(nan) is
        return math.nan


def gcos(x):
    c = x.__class__
    if c is not float:
        if c is Jet:
            return x._trig(1)
        if c is Dual:
            return Dual(gcos(x.re), -gsin(x.re) * x.du)
        if c is np.ndarray and x.ndim:
            return np.cos(x)
        if c is complex:
            return cmath.cos(x)
    try:
        return math.cos(x)  # a float, an int, a numpy scalar or a 0-d array
    except TypeError:  # a caller's carrier
        return x._trig(1)
    except ValueError:  # inf; NaN, as math.cos(nan) is
        return math.nan


def gfloor(x):
    # Constant between lattice jumps, so the derivative is zero.
    if x.__class__ is not float:
        x = primal(x)
        if x.__class__ is np.ndarray:
            return np.where(np.isfinite(x), np.floor(x), math.nan)
    try:
        return float(math.floor(x))
    except (ValueError, OverflowError):  # NaN or inf
        return math.nan


def quiet():
    """Numpy error state of the jet routes: NaN and inf pass silently, as on floats."""
    return np.errstate(invalid="ignore", over="ignore")


def pack(xs):
    """The numpy array of a list of scalars (a vector) or of rows (a
    matrix); batch arrays stack to rows.

    With no dual or jet anywhere the array is float, numpy scalars
    included.  Otherwise it is an object array of the same shape holding
    the same objects.  A flat list is scanned for carriers first, so a
    pass's list of duals never raises on the way; only rows that hold
    carriers fall back from the float attempt.  A list is read as it is,
    not copied.
    """
    if xs.__class__ is not list:
        xs = list(xs)
    if has_dual(xs):
        out = np.empty(len(xs), dtype=object)
        out[:] = xs
        return out
    try:
        return np.array(xs, dtype=float)
    except TypeError:  # rows that hold carriers
        return np.array(xs, dtype=object)


def seed(x, direction):
    """Attach dual parts along ``direction`` to the vector ``x``.

    A coordinate whose direction entry is a plain number equal to zero is
    returned unchanged (the same object), so no dual arithmetic is spent on
    it; see the module docstring for what that can change.  A coordinate
    that is already a ``Dual`` raises TypeError: passes do not nest.
    """
    for xi in x:
        if xi.__class__ is Dual:
            raise TypeError("a Dual pass does not nest: a coordinate is already a Dual")
    return [xi if vi == 0.0 else Dual(xi, vi) for xi, vi in zip(x, direction)]


def dual_parts(ys):
    """The derivative parts of a pass's outputs; an output that is not a
    ``Dual`` (a number, a caller's carrier) contributes 0."""
    return [y.du if y.__class__ is Dual else 0.0 for y in ys]


def dirderiv(f, x, v):
    """Directional derivative of vector map ``f`` at ``x`` along ``v``.

    Coordinates of ``x`` may be batch arrays; then each output row holds
    the derivative at every batch point, and column i is the pass at
    point i.  A part that does not depend on the batch point (a scalar)
    is broadcast to the batch shape, so every row has one column per
    point.  A 1-D array direction is read as Python floats (``tolist``).
    """
    x = list(x)
    v = v.tolist() if v.__class__ is np.ndarray and v.ndim == 1 else list(v)
    parts = dual_parts(f(seed(x, v)))
    shapes = [xi.shape for xi in x if xi.__class__ is np.ndarray]
    if shapes:
        shape = np.broadcast_shapes(*shapes)
        parts = [np.broadcast_to(p, shape) for p in parts]
    return pack(parts)


# The complex step h and its inverse, both powers of two (see complex_step).
_STEP = 2.0 ** -600
_UNSTEP = 2.0 ** 600


def complex_step(f, x, v):
    """Directional derivative of vector map ``f`` at ``x`` along ``v``, both
    plain floats, as a list of floats: one evaluation of ``f`` on the
    Python complex numbers x + i h v with h = 2**-600, read as imag / h.

    With this h, x + i h v is the dual number x + v eps in floating point,
    so the result is the ``Dual`` pass's ``dual_parts`` bit for bit as long
    as ``f`` composes the elementaries of this module and the four
    arithmetic operations:

    - a product's imaginary part is a d + b c, the dual formula term for
      term, and scaling by a power of two is exact;
    - the product of two imaginary parts is h**2 d1 d2, which rounds to 0
      whenever |d1 d2| < 2**125, so eps**2 = 0;
    - ``cmath.cos(x + iy)`` is (cos x cosh y, -sin x sinh y), and for tiny
      y cosh y and sinh y round to 1 and y, so ``gcos`` and ``gsin`` give
      the dual rules; ``primal`` gives the real part;
    - a complex quotient rounds differently from the dual reciprocal, but
      not where the divisor's real part is exactly 1, as every catalog
      denominator's is when the step is taken at the identity;
    - a derivative part below 2**-422 in magnitude is subnormal times h,
      so it comes out with an absolute error of about 2**-474.

    A coordinate with a zero direction entry is a complex number too, where
    ``seed`` leaves it a float: a derivative part may then differ from the
    pass in the sign of a zero, or be NaN where an inf or NaN meets that
    zero part, as under dense seeding.
    A numpy scalar in ``f`` would make a numpy complex, which ``float``
    and ``math`` functions take silently as its real part (numpy warns
    with ``ComplexWarning``), losing the derivative; a caller that runs
    foreign closed forms turns that warning into an error.
    """
    ys = f([complex(xi, _STEP * vi) for xi, vi in zip(x, v)])
    return [y.imag * _UNSTEP for y in ys]


def jacobian(f, x):
    """Jacobian matrix of ``f: R^n -> R^m`` at ``x`` (one dual seed per column).

    Entries of ``x`` may be a caller's leveled carrier, not a ``Dual``.
    """
    x = list(x)
    n = len(x)
    cols = [dual_parts(f(seed(x, [1.0 if j == i else 0.0 for j in range(n)])))
            for i in range(n)]
    return pack(list(zip(*cols)))


def gdot(a, b):
    out = 0.0
    for x, y in zip(a, b):
        out = out + x * y
    return out


def gaffine(b, k, xs):
    """The list b + k xs for a float vector b, a float matrix k and a list
    xs of floats, duals or jets: row r is ``gdot(k[r], xs) + b[r]``.

    Jets of one space take one array operation per entry of xs on their
    stacked coefficients, in the order of ``gdot``, so every primal is the
    float result bit for bit; any other list takes the ``gdot`` rule.
    """
    if xs and all(x.__class__ is Jet for x in xs):
        acc = 0.0
        for col, x in zip(k.T, xs):
            acc = acc + col[:, None] * x.c
        acc[:, 0] += b
        space = xs[0].space
        return [Jet(c, space) for c in acc]
    return [gdot(row, xs) + bi for row, bi in zip(k.tolist(), b.tolist())]


# gmatvec, gmatmul, gsolve and ginv: no library code calls them.  They are
# kept only because loopbench/tracer.py looks them up by name; ROADMAP item
# 6 deletes them after the next benchmark change.
def gmatvec(m, v):
    return pack([gdot(row, v) for row in m])


def gmatmul(a, b):
    bt = list(zip(*[list(r) for r in b]))
    return pack([[gdot(row, col) for col in bt] for row in a])


def carry(root, residual, solve0):
    """The root (a list) of residual(y) = 0 with the parts of the carriers
    that ``residual`` closes over, given the float ``root``.

    Simplified Newton steps y <- y - solve0(residual(y)), ``solve0`` the
    inverse float Jacobian at ``root``, each gain one Taylor order
    (Griewank & Walther, *Evaluating Derivatives*, 2nd ed., SIAM 2008,
    ch. 13), so the residual's order (:func:`_order`) sets their number.
    ``root`` then replaces the primal, which the steps can move by rounding."""
    ys = list(root)
    rs = residual(ys)
    for step in range(max(map(_order, rs)), 0, -1):
        ys = [y - d for y, d in zip(ys, solve0(rs))]
        if step > 1:
            rs = residual(ys)
    return [(y - primal(y)) + r for y, r in zip(ys, root)]


def _order(x):
    """The Taylor order of a carrier: 1 for a ``Dual`` over floats, the
    depth of a leveled carrier's tree of parts, its space's degree for a jet."""
    if isinstance(x, Dual):
        return 1 + max(_order(x.re), _order(x.du))
    return x.space.degree if x.__class__ is Jet else 0


def gsolve(a, b):
    """Solve ``a @ x = b`` on floats; ``b`` may be a vector or a matrix."""
    return np.linalg.solve(a, b)


def ginv(a):
    return np.linalg.inv(a)


# -- Taylor jets ---------------------------------------------------------------

class JetSpace:
    """Monomials alpha^p beta^q (|p| <= ``order``, |q| <= 1) in dimension
    ``n``, with the (i, j -> k) table of their truncated products.

    ``index`` maps a monomial, written as the sorted tuples of its alpha and
    beta variable indices (``((0, 0), (1,))`` is alpha_0^2 beta_1), to its
    coefficient position; the constant term is at 0.  The non-constant part
    N of a jet has N**(degree + 1) == 0, ``degree = order + 1``.
    """

    def __init__(self, n, order):
        alphas = [p for d in range(order + 1)
                  for p in itertools.combinations_with_replacement(range(n), d)]
        betas = [()] + [(i,) for i in range(n)]
        monos = [(p, q) for q in betas for p in alphas]
        index = {mono: k for k, mono in enumerate(monos)}
        pairs = [(i, j, index[(tuple(sorted(pi + pj)), qi + qj)])
                 for i, (pi, qi) in enumerate(monos)
                 for j, (pj, qj) in enumerate(monos)
                 if len(pi) + len(pj) <= order and len(qi) + len(qj) <= 1]
        pairs.sort(key=lambda t: t[2])
        self.size = len(monos)
        self.degree = order + 1
        self.index = index
        self._i = np.array([t[0] for t in pairs])
        self._j = np.array([t[1] for t in pairs])
        k = np.array([t[2] for t in pairs])
        # Every monomial is 1 times itself, so each k starts a nonempty run.
        self._starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
        # derivatives[d] = (pos, scale): pos[m_1, ..., m_d, i] is the position
        # of alpha_m1 ... alpha_md beta_i, whose coefficient times
        # scale[m_1, ..., m_d] (the factorials of the repeated m) is the d-th
        # derivative; scale has two trailing unit axes, for k and i.
        self.derivatives = []
        for d in range(order + 1):
            ms = list(itertools.product(range(n), repeat=d))
            pos = [[index[(tuple(sorted(m)), (i,))] for i in range(n)] for m in ms]
            scale = [math.prod(math.factorial(m.count(v)) for v in set(m)) for m in ms]
            self.derivatives.append((np.reshape(pos, (n,) * d + (n,)),
                                     np.reshape(scale, (n,) * d + (1, 1)).astype(float)))

    def mul(self, x, y):
        return np.add.reduceat(x[self._i] * y[self._j], self._starts)

    def variable(self, value, mono):
        c = np.zeros(self.size)
        c[0] = value
        c[self.index[mono]] = 1.0
        return Jet(c, self)


@functools.lru_cache(maxsize=None)
def jet_space(n, order):
    return JetSpace(n, order)


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

    __pow__ = _power

    def _reciprocal(self):
        inv = 1.0 / float(self.c[0])  # ZeroDivisionError, as for floats
        return self._series([inv * (-inv) ** k for k in range(self.space.degree + 1)])

    def _trig(self, shift):
        """sin (shift 0) or cos (shift 1): the k-th derivative of sin is
        the (k + shift)-th entry of the cycle sin, cos, -sin, -cos."""
        s, c = gsin(float(self.c[0])), gcos(float(self.c[0]))
        cycle = (s, c, -s, -c)
        return self._series([cycle[(k + shift) % 4] / math.factorial(k)
                             for k in range(self.space.degree + 1)])

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


class JetDivisor:
    """A jet denominator d inverted once: ``x / JetDivisor(d)`` is
    ``x * r`` with ``r = d._reciprocal()``, which is what ``x / d``
    computes for a jet or a number x, so a closed form that divides
    several numerators by one jet builds its reciprocal series once."""

    __slots__ = ("r",)
    __array_ufunc__ = None  # numpy scalars defer to __rtruediv__

    def __init__(self, d):
        self.r = d._reciprocal()

    def __rtruediv__(self, x):
        return x * self.r


# The classes that carry derivative parts.
_CARRIERS = (Dual, Jet)

# Operands a Dual combines with as constants: numbers, batch arrays, a
# caller's carrier (a Dual of another class) and a jet of an enclosing pass.
_CONSTANTS = _NUMBERS + (np.ndarray, Dual, Jet)


def taylor_frame(f, a, e, order):
    """One jet pass of ``f(a + alpha, e + beta)`` for a map f: R^n x R^n -> R^k,
    carrying the derivatives in a to ``order``, the highest the caller reads.

    Returns ``(R, dR, ..., d^order R)`` at alpha = beta = 0 with
    ``R[k, i] = df^k/dbeta^i``, ``dR[m, k, i] = d R[k, i] / da^m``,
    ``d2R[l, m, k, i] = d^2 R[k, i] / da^l da^m`` and so on.  ``a`` and
    ``e`` hold real numbers; ``order`` is at least 1, as the pass seeds a.
    """
    if order < 1:
        raise ValueError(f"taylor_frame order must be at least 1, got order={order!r}")
    space = jet_space(len(a), order)
    # inf times a zero coefficient is NaN: one errstate per pass, not per multiply.
    with quiet():
        ys = f([space.variable(v, ((m,), ())) for m, v in enumerate(a)],
               [space.variable(v, ((), (i,))) for i, v in enumerate(e)])
    coeffs = np.array([y.c for y in ys]).T
    return tuple(coeffs[pos].swapaxes(-1, -2) * scale for pos, scale in space.derivatives)
