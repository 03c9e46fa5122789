"""Forward-mode automatic differentiation: complex steps for first
derivatives and truncated Taylor jets for every higher order.

The two engines share the elementaries (``primal``, ``gsin``, ``gcos``,
``gfloor``, ``near_zero``) of this module.

- ``Jet`` carries the frames, the structure functions, Maurer-Cartan and
  every gauge derivative: the connection form, the potential, the test
  function of the covariant-derivative commutator and the gauge
  transformation.  One pass of a map f(a, e) on jets in the
  point offset alpha and the argument beta gives its Jacobian in e and
  that Jacobian's derivatives in a up to the order its caller reads
  (``taylor_frame``): the coefficients of the monomials alpha^p beta^q
  with |p| <= order and |q| <= 1.  Higher monomials are truncated, so a
  first-order caller carries no second-order coefficients.
- The complex step (``complex_step``) gives first derivatives in one
  evaluation on the complex numbers x + i h v, h = 2**-600, which are
  the dual numbers x + v eps in floating point (Martins, Sturdza &
  Alonso, "The complex-step derivative approximation", *ACM TOMS* 29(3),
  2003), in the built-in complex arithmetic, which runs in C.  It is
  one directional pass (``dirderiv``) where a derivative is applied to
  one vector (pushforwards, the canonical form and its batched
  Lie-equation factors, the connection form and the gauge fields), one
  step per column (``jacobian``) where the full matrix is needed
  (frames, Ad and associator differentials, a gauge-transformed
  potential), and one bare evaluation per Lie-equation velocity on
  identities stepped in one batch.

Both are exact in exact arithmetic: no finite-difference truncation
error anywhere.

Affine maps.  ``gaffine`` computes b + K xs for a float matrix K, beside
``gdot``.  On jets of one space it is vector mode on the coefficients:
one array operation per entry of xs on the stacked coefficient arrays,
then one jet per row, instead of one scalar product per matrix entry.  On
floats, complex steps and a caller's carrier it is the ``gdot`` rule,
summed in the same order, so a jet's primal is the float result bit for
bit.

Quotients.  A jet quotient ``x / d`` is ``x * r`` with r the reciprocal
series of d, a few table multiplications to build.  A closed form that
divides several numerators by one jet denominator inverts it once: it
wraps d in a ``JetDivisor`` after its singular test, and every quotient
is what ``x / d`` computes, bit for bit.  Floats and complex steps
divide element by element, as x * (1/d) rounds differently from x / d
on floats.

Dispatch.  ``primal``, ``gsin``, ``gcos``, ``gfloor`` and ``near_zero``
test the exact class of their argument, in the order float, ``Jet``,
ndarray with an axis (a batch), complex (numpy's complex by
``isinstance``); ``near_zero`` tests a Python complex, a stage
velocity's or a gauge field's, right after float.  Only ints, real numpy
scalars, 0-d arrays and a caller's carrier reach the generic rule after
it, so no exception is raised on a hot path.

Batches.  A coordinate of a pass may be a float array with a batch
axis; its step is a complex array, and the elementaries accept such
arrays, so one pass evaluates a map at many points (vector-mode forward
differentiation, Griewank & Walther, *Evaluating Derivatives*, 2nd ed.,
SIAM 2008, 3.1).  Every array operation is elementwise, so column i of a
batched pass is the pass on a one-element batch of point i bit for bit.
It is not always the pass on Python complex numbers: numpy divides by a
complex number as a product with its reciprocal, CPython does not.  A
``dirderiv`` whose point holds arrays returns one column per batch
element.  Numpy reports invalid and overflowing elements, which floats
pass silently, so batched passes run under ``quiet``.

Nesting.  A complex step may run inside a jet pass: a jet takes complex
constants and then carries complex coefficients, a derivative comes out
as the jet of their imaginary parts over h, and one Taylor pass
differentiates a first-order pass (nested forward mode); a
gauge-transformed potential is such a pass.  A complex jet's products
and quotients take their constant terms from Python's complex arithmetic
on the operands' constant terms, so the primals of such a pass are those
of the same complex step on numbers bit for bit (on ``rz`` they can
differ in the last bit).  A complex step inside a complex step is not
supported: a complex coordinate raises TypeError, and a complex number
that a function captures from another pass goes undetected, its step
added to the inner one.  A caller that nests brings a leveled carrier
(the tests' references do), whose passes enclose the library's raw
closed forms.  It exposes its primal and derivative parts as ``re`` and
``du`` and its sine and cosine as ``_trig``, which the elementaries and
``carry`` read.

Solves.  One rule, ``carry``, takes derivatives through a solve: the float
solve gives the primal and simplified Newton steps the derivative parts.
The ``rz`` divisions, the only divisions without a closed form, use it.
"""

import cmath
import functools
import itertools
import math

import numpy as np

# The constants a jet combines with: real numbers and complex steps.
_SCALARS = (int, float, complex, np.floating, np.integer)
_COMPLEX = (complex, np.complexfloating)


def _power(x, n):
    """``x**n`` of a jet for an integer n >= 0: 1.0 times x, n times."""
    if not isinstance(n, int) or n < 0:
        raise TypeError(f"{x.__class__.__name__}.__pow__ supports nonnegative "
                        "integer exponents")
    out = 1.0
    for _ in range(n):
        out = x * out
    return out


# Dual, gmatvec, gmatmul, gsolve and ginv: no library code builds a Dual
# or calls the four helpers.  They are kept only because
# loopbench/tracer.py patches Dual.__init__ and looks the helpers up by
# name; ROADMAP item 6 deletes them after the next benchmark change.
class Dual:
    __slots__ = ("re", "du", "lvl")


def _order(x):
    """The Taylor order of a value: 0 for a number, a float batch or a row,
    1 for a complex step (a number or a batch), its space's degree for a
    jet and, for a caller's carrier, one more than the higher order of its
    parts ``re`` and ``du``."""
    c = x.__class__
    if c is float:
        return 0
    if c is Jet:
        return x.space.degree
    if c is np.ndarray:
        return int(x.dtype.kind == "c")
    if isinstance(x, _COMPLEX):  # numpy's complex too
        return 1
    du = getattr(x, "du", None)  # None for a number or a row
    return 0 if du is None else 1 + max(_order(x.re), _order(du))


def has_carrier(xs):
    """Whether any entry of ``xs`` carries derivative parts (see
    :func:`_order`).  A float, the common entry, is ruled out first."""
    for x in xs:
        if x.__class__ is not float and _order(x):
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
    if c is complex:
        return abs(x.real) < bound
    if c is np.ndarray:
        return (abs(x.real) < bound).any()
    return abs(primal(x)) < bound  # a jet, a numpy complex, a number or a carrier


def primal(x):
    """Strip all derivative parts, returning the underlying float (or the
    float array of a batch: any array with an axis).  A jet's constant
    term and a complex step are read by their real part, never by
    ``float``, which drops a numpy complex's imaginary part with only a
    warning."""
    c = x.__class__
    if c is float:
        return x
    if c is Jet:
        return x.c.item(0).real
    if c is np.ndarray and x.ndim:
        return x.real
    if isinstance(x, _COMPLEX):  # numpy's complex too
        return x.real
    try:
        return float(x)  # an int, a numpy scalar or a 0-d array
    except TypeError:  # a caller's carrier
        return primal(x.re)


def _cmath(fn, z):
    """fn(z), or a complex NaN where cmath raises: at an infinite real part
    (as fn(nan) is NaN) and where the step part |h d| passes about 710."""
    try:
        return fn(z)
    except (ValueError, OverflowError):
        return complex(math.nan, math.nan)


def gsin(x):
    c = x.__class__
    if c is not float:
        if c is Jet:
            return x._trig(0)
        if c is np.ndarray and x.ndim:
            return np.sin(x)
        if c is complex or isinstance(x, _COMPLEX):  # numpy's complex too
            return _cmath(cmath.sin, x)
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
        if c is np.ndarray and x.ndim:
            return np.cos(x)
        if c is complex or isinstance(x, _COMPLEX):  # numpy's complex too
            return _cmath(cmath.cos, x)
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

    With no carrier anywhere the array is float, numpy scalars included.
    Otherwise it is an object array of the same shape holding the same
    objects.  A complex entry, Python or numpy, raises TypeError: a float
    array would drop its imaginary part, a complex step's derivative.  A
    list is read as it is, not copied.
    """
    out = np.array(xs)
    if out.dtype.kind in "biuf":
        return out.astype(float, copy=False)
    carrier = False
    for v in out.flat:  # an object array, or a complex one
        if v.__class__ is not float:
            if isinstance(v, _COMPLEX):
                raise TypeError("pack takes no complex entry: a float array would "
                                "drop its imaginary part")
            carrier = carrier or bool(_order(v))
    return out if carrier else out.astype(float)


# The complex step h and its inverse, both powers of two (see complex_step).
_STEP = 2.0 ** -600
_UNSTEP = 2.0 ** 600


def _stepped(x, v):
    """The complex coordinates x + i h v: a Python complex for a number
    (Python floats tested first), a complex array for a float batch."""
    out = []
    for xi, vi in zip(x, v):
        if xi.__class__ is float and vi.__class__ is float:
            out.append(complex(xi, _STEP * vi))
        elif xi.__class__ is np.ndarray and xi.dtype.kind in "biuf":
            z = xi.astype(complex)
            z.imag = _STEP * vi
            out.append(z)
        elif isinstance(xi, _COMPLEX) or xi.__class__ is np.ndarray:
            raise TypeError("a complex step does not nest: a coordinate is already complex")
        elif vi.__class__ is Jet:  # a direction that an enclosing jet pass moves
            out.append(xi + (_STEP * vi) * 1j)
        else:
            out.append(complex(xi, _STEP * vi))
    return out


def _derivatives(ys):
    """The derivative parts of the outputs of a complex step, as a list:
    imag / h, per coefficient for a jet."""
    return [Jet(y.c.imag * _UNSTEP, y.space) if y.__class__ is Jet else y.imag * _UNSTEP
            for y in ys]


def complex_step(f, x, v):
    """Directional derivative of vector map ``f`` at ``x`` along ``v``, as
    a list: one evaluation of ``f`` on the complex numbers x + i h v with
    h = 2**-600, each output read as imag / h (per coefficient for a jet,
    so the pass may run inside a jet pass).

    With this h, x + i h v is the dual number x + v eps in floating point,
    as long as ``f`` composes the elementaries of this module and the four
    arithmetic operations:

    - a product's imaginary part is a d + b c, the dual formula term for
      term, and scaling by a power of two is exact;
    - the product of two imaginary parts is h**2 d1 d2, which rounds to 0
      whenever |d1 d2| < 2**125, so eps**2 = 0;
    - ``cmath.cos(x + iy)`` is (cos x cosh y, -sin x sinh y), and for tiny
      y cosh y and sinh y round to 1 and y, so ``gcos`` and ``gsin`` give
      the dual rules; ``primal`` gives the real part;
    - a quotient's real part is the float quotient; its imaginary part
      rounds differently from a product with the divisor's reciprocal,
      except where the divisor's real part is exactly 1, as every catalog
      denominator's is when the step is taken at the identity;
    - a divisor whose real part is below about 2**-573 |d| in magnitude,
      d its derivative part, no longer makes (h d)**2 negligible, and its
      quotient is not a derivative;
    - a derivative part below 2**-422 in magnitude is subnormal times h,
      so it comes out with an absolute error of up to 2**-475.

    Every coordinate is stepped (dense seeding), a zero direction entry
    to an imaginary part that is a zero of its sign.  A zero derivative
    part then takes the sign that IEEE arithmetic gives the imaginary
    parts: a product with a number is a complex product, so 2.0 * (x - 0i)
    has imaginary part 2 (-0) + 0 x = +0, where the dual rule keeps -0.
    An inf or NaN coordinate makes NaN every derivative part it meets as a
    factor, through inf * 0 or NaN * 0, also along a zero direction entry,
    and a NaN makes the primal values it reaches NaN.

    ``x`` may hold numbers or float batch arrays (see the module
    docstring), and ``v`` jets of an enclosing pass; a complex coordinate,
    scalar or array, raises TypeError, as complex(x, h v) would add the
    two steps.  A numpy scalar in ``f`` makes a numpy complex, which the
    elementaries take as a complex step but ``float`` and ``math``
    functions take silently as its real part (numpy warns with
    ``ComplexWarning``), losing the derivative; a caller that runs foreign
    closed forms turns that warning into an error.  ``_stepped`` makes the
    complex coordinates and ``_derivatives`` reads the outputs; the
    Lie-equation stages (``reconstruct``) step once, in a batch, and read
    each stage's product with ``_derivatives``.
    """
    return _derivatives(f(_stepped(x, v)))


def dirderiv(f, x, v):
    """Directional derivative of vector map ``f`` at ``x`` along ``v``:
    one ``complex_step``, packed.

    Coordinates of ``x`` may be batch arrays; then each output row holds
    the derivative at every batch point, and column i is the pass at
    point i.  A part that does not depend on the batch point (a scalar)
    is broadcast to the batch shape, so every row has one column per
    point.  A 1-D array direction is read as Python floats (``tolist``).
    """
    x = list(x)
    v = v.tolist() if v.__class__ is np.ndarray and v.ndim == 1 else list(v)
    parts = complex_step(f, x, v)
    shapes = [xi.shape for xi in x if xi.__class__ is np.ndarray]
    if shapes:
        shape = np.broadcast_shapes(*shapes)
        parts = [np.broadcast_to(p, shape) for p in parts]
    return pack(parts)


def jacobian(f, x):
    """Jacobian matrix of ``f: R^n -> R^m`` at ``x``: one complex step per
    column."""
    x = list(x)
    n = len(x)
    cols = [complex_step(f, x, [1.0 if j == i else 0.0 for j in range(n)])
            for i in range(n)]
    return pack(list(zip(*cols)))


def gdot(a, b):
    out = 0.0
    for x, y in zip(a, b):
        out = out + x * y
    return out


def gaffine(b, k, xs):
    """The list b + k xs for a float vector b, a float matrix k and a list
    xs of floats, complex steps or jets: row r is ``gdot(k[r], xs) + b[r]``.

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
    reciprocal, sin and cos are finite series in it.  The coefficients
    are complex once a complex step enters (see the module docstring)."""

    __slots__ = ("c", "space")
    __array_ufunc__ = None  # numpy scalars defer to the reflected operators

    def __init__(self, c, space):
        self.c = c
        self.space = space

    def __add__(self, other):
        if other.__class__ is Jet:
            return Jet(self.c + other.c, self.space)
        if isinstance(other, _SCALARS):
            c = self.c.astype(complex) if isinstance(other, complex) else self.c.copy()
            c[0] += other
            return Jet(c, self.space)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is Jet:
            return Jet(self.c - other.c, self.space)
        if isinstance(other, _SCALARS):
            c = self.c.astype(complex) if isinstance(other, complex) else self.c.copy()
            c[0] -= other
            return Jet(c, self.space)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _SCALARS):
            c = -(self.c.astype(complex) if isinstance(other, complex) else self.c)
            c[0] += other
            return Jet(c, self.space)
        return NotImplemented

    def __mul__(self, other):
        if other.__class__ is Jet:
            c = self.space.mul(self.c, other.c)
        elif isinstance(other, _SCALARS):
            c = self.c * other
        else:
            return NotImplemented
        if c.dtype.kind == "c":  # see _constant
            c[0] = self.c.item(0) * _constant(other)
        return Jet(c, self.space)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is Jet:
            q = self * other._reciprocal()
        elif isinstance(other, _SCALARS):
            if other == 0:
                raise ZeroDivisionError("float division by zero")
            q = Jet(self.c / other, self.space)
        else:
            return NotImplemented
        if q.c.dtype.kind == "c":
            q.c[0] = self.c.item(0) / _constant(other)
        return q

    def __rtruediv__(self, other):
        if isinstance(other, _SCALARS):
            q = self._reciprocal() * other
            if q.c.dtype.kind == "c":
                q.c[0] = other / self.c.item(0)
            return q
        return NotImplemented

    def __neg__(self):
        return Jet(-self.c, self.space)

    __pow__ = _power

    def _reciprocal(self):
        inv = 1.0 / self.c.item(0)  # ZeroDivisionError, as for floats
        return self._series([inv * (-inv) ** k for k in range(self.space.degree + 1)])

    def _trig(self, shift):
        """sin (shift 0) or cos (shift 1): the k-th derivative of sin is
        the (k + shift)-th entry of the cycle sin, cos, -sin, -cos."""
        x0 = self.c.item(0)
        s, c = gsin(x0), gcos(x0)
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


def _constant(x):
    """The constant term of a jet or a number.  A complex jet's product or
    quotient takes its constant term from Python's arithmetic on the
    operands' constant terms: numpy multiplies complex numbers with other
    roundings than Python (fused multiply-adds), and a jet quotient
    multiplies by the reciprocal 1 / y0 where Python divides, so otherwise
    a complex step inside a jet pass would not have the primals of the
    same step on numbers bit for bit.  Sums and real products round alike
    in both."""
    return x.c.item(0) if x.__class__ is Jet else x


class JetDivisor:
    """A jet denominator d inverted once: ``x / JetDivisor(d)`` is what
    ``x / d`` computes for a jet or a number x, ``x * r`` with
    ``r = d._reciprocal()``, so a closed form that divides several
    numerators by one jet builds its reciprocal series once."""

    __slots__ = ("r", "d0")
    __array_ufunc__ = None  # numpy scalars defer to __rtruediv__

    def __init__(self, d):
        self.r = d._reciprocal()
        self.d0 = d.c.item(0)

    def __rtruediv__(self, x):
        q = x * self.r
        if q.c.dtype.kind == "c":
            q.c[0] = _constant(x) / self.d0
        return q


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
