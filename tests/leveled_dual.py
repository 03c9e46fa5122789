"""The tests' leveled carrier: ``RefDual``, dual numbers whose epsilons
carry level tags, so that nested passes give exact higher derivatives
(mixed terms like eps1*eps2 are kept, not dropped).

The library's ``Dual`` is one first-order pass and does not nest.  The
references nest their own passes (``ref_seed``, ``ref_jacobian``,
``ref_dirderiv``) around the library's, whose ``Dual`` is always the
innermost pass: to ``RefDual`` it is the highest level, so a ``RefDual``
operator returns NotImplemented for it and the library's operator treats
the ``RefDual`` as a constant.  ``ref_gsolve`` is the one carrier solve of
the references.
"""

import itertools

import numpy as np

from loopbundle.dual import Dual, Jet, gcos, gsin, jet_space, pack, primal

_REF_NUMBERS = (int, float, np.floating, np.integer)

_fresh_level = itertools.count(1)


def next_level():
    """A fresh epsilon level, above every level allocated before."""
    return next(_fresh_level)


class RefDual(Dual):
    """The generic rule of nested forward passes: every operation on two
    duals splits both operands with ``_ref_parts`` at the higher of their
    levels; a lower-level operand is a constant there and enters the
    derivative part as an explicit zero."""

    __slots__ = ()
    nodes = 0

    def __init__(self, re, du=0.0, lvl=0):
        self.re = re
        self.du = du
        self.lvl = lvl
        RefDual.nodes += 1

    def __add__(self, other):
        if isinstance(other, RefDual):
            lvl = max(self.lvl, other.lvl)
            ar, ad = _ref_parts(self, lvl)
            br, bd = _ref_parts(other, lvl)
            return RefDual(ar + br, ad + bd, lvl)
        if isinstance(other, _REF_NUMBERS):
            return RefDual(self.re + other, self.du, self.lvl)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, RefDual):
            lvl = max(self.lvl, other.lvl)
            ar, ad = _ref_parts(self, lvl)
            br, bd = _ref_parts(other, lvl)
            return RefDual(ar - br, ad - bd, lvl)
        if isinstance(other, _REF_NUMBERS):
            return RefDual(self.re - other, self.du, self.lvl)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _REF_NUMBERS):
            return RefDual(other - self.re, -self.du, self.lvl)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, RefDual):
            lvl = max(self.lvl, other.lvl)
            ar, ad = _ref_parts(self, lvl)
            br, bd = _ref_parts(other, lvl)
            return RefDual(ar * br, ar * bd + ad * br, lvl)
        if isinstance(other, _REF_NUMBERS):
            return RefDual(self.re * other, self.du * other, self.lvl)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, RefDual):
            lvl = max(self.lvl, other.lvl)
            ar, ad = _ref_parts(self, lvl)
            br, bd = _ref_parts(other, lvl)
            inv = 1.0 / br if isinstance(br, _REF_NUMBERS) else _ref_reciprocal(br)
            q = ar * inv
            return RefDual(q, (ad - q * bd) * inv, lvl)
        if isinstance(other, _REF_NUMBERS):
            return RefDual(self.re / other, self.du / other, self.lvl)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _REF_NUMBERS):
            inv = _ref_reciprocal(self)
            return inv * other
        return NotImplemented

    def __neg__(self):
        return RefDual(-self.re, -self.du, self.lvl)

    def __pow__(self, n):
        out = 1.0
        for _ in range(n):
            out = out * self if isinstance(out, RefDual) else self * out
        return out

    def _trig(self, shift):
        """sin (shift 0) or cos (shift 1), as ``gsin`` and ``gcos`` ask."""
        if shift:
            return RefDual(gcos(self.re), -gsin(self.re) * self.du, self.lvl)
        return RefDual(gsin(self.re), gcos(self.re) * self.du, self.lvl)

    def __repr__(self):
        return f"RefDual({self.re!r}, {self.du!r}, lvl={self.lvl})"


def _ref_parts(x, lvl):
    if isinstance(x, RefDual) and x.lvl == lvl:
        return x.re, x.du
    return x, 0.0


def _ref_reciprocal(x):
    if isinstance(x, _REF_NUMBERS):
        return 1.0 / x
    inv = _ref_reciprocal(x.re)
    return RefDual(inv, -(x.du * inv) * inv, x.lvl)


# -- leveled passes, for the outer passes of a reference -----------------------

def ref_seed(x, direction, lvl):
    """``dual.seed`` at level ``lvl``: a coordinate with a plain zero
    direction stays as it was.  A library ``Dual`` coordinate would put a
    leveled pass inside a library one, so it raises."""
    if any(xi.__class__ is Dual for xi in x):
        raise TypeError("a leveled pass cannot enclose a library Dual")
    return [xi if vi == 0.0 else RefDual(xi, vi, lvl) for xi, vi in zip(x, direction)]


def _ref_dual_parts(ys, lvl):
    return [y.du if isinstance(y, RefDual) and y.lvl == lvl else 0.0 for y in ys]


def ref_dirderiv(f, x, v):
    lvl = next_level()
    return pack(_ref_dual_parts(f(ref_seed(list(x), list(v), lvl)), lvl))


def ref_jacobian(f, x):
    x = list(x)
    n = len(x)
    cols = []
    for i in range(n):
        lvl = next_level()
        direction = [1.0 if j == i else 0.0 for j in range(n)]
        cols.append(_ref_dual_parts(f(ref_seed(x, direction, lvl)), lvl))
    return pack(list(zip(*cols)))


# -- the carrier solve ---------------------------------------------------------

def ref_gsolve(a, b):
    """Solve ``a @ x = b``: numpy on floats, else Gaussian elimination with
    partial pivoting in carrier arithmetic (the object-dtype solve that
    ``dual.gsolve`` ran before ``carry``)."""
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
            raise np.linalg.LinAlgError("singular matrix in ref_gsolve")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1.0 / aug[col][col]
        for r in range(n):
            if r == col:
                continue
            factor = aug[r][col] * inv
            # A zero factor is skipped only when it is a number: a dual's
            # or a jet's other parts still update the row.
            if not isinstance(factor, (Dual, Jet)) and factor == 0.0:
                continue
            for c in range(col, width):
                aug[r][c] = aug[r][c] - factor * aug[col][c]
    out = pack([[aug[i][n + k] * (1.0 / aug[i][i])
                 for k in range(rhs.shape[1])] for i in range(n)])
    return out[:, 0] if vec else out


# -- comparing carriers --------------------------------------------------------

# The level of the library's Dual in a monomial: above every RefDual level.
TOP = float("inf")


def _coefficients(x, monomial=frozenset(), out=None):
    """Map each product of epsilon levels to its coefficient in ``x``."""
    out = {} if out is None else out
    if isinstance(x, Dual):
        _coefficients(x.re, monomial, out)
        _coefficients(x.du, monomial | {x.lvl if isinstance(x, RefDual) else TOP}, out)
    else:
        out[monomial] = out.get(monomial, 0.0) + float(x)
    return out


def _assert_parts_close(got, want, tol=1e-14):
    """Every part, the primal included, within ``tol`` times the largest
    part of ``want`` (at least 1): third-order parts of the rz division
    reach about 20 and sum terms of about 100."""
    if isinstance(got, Jet) or isinstance(want, Jet):
        cg, cw = dict(enumerate(got.c)), dict(enumerate(want.c))
    else:
        cg, cw = _coefficients(got), _coefficients(want)
    assert set(cg) == set(cw)
    scale = max(1.0, max(abs(v) for v in cw.values()))
    for mono in cg:
        assert abs(cg[mono] - cw[mono]) <= tol * scale, (mono, cg[mono], cw[mono])


def _carrier_maker(kind, rng):
    """Random carriers of one kind around a float: a library ``Dual``, a
    library ``Dual`` over ``RefDual`` nested 1 or 2 levels deep (3 levels
    in all), or jets in two variables of order 2 ("jet", degree 3) or 1
    ("jet1", degree 2)."""
    if kind in ("jet", "jet1"):
        space = jet_space(2, 1 if kind == "jet1" else 2)
        def make(v):
            c = 0.3 * np.array([rng.uniform(-1.0, 1.0) for _ in range(space.size)])
            c[0] = v
            return Jet(c, space)
        return make
    levels = [next_level() for _ in range({"dual": 0, "nested2": 1, "nested3": 2}[kind])]
    def make(v):
        x = v
        for lvl in levels:
            x = RefDual(x, rng.uniform(-0.3, 0.3), lvl)
        return Dual(x, rng.uniform(-0.3, 0.3))
    return make
