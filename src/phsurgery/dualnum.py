"""First-order dual numbers for exact forward-mode differentiation.

Components are generic: nesting Dual inside Dual yields exact second
derivatives, which is what the exterior-calculus layer relies on for
its d^2 = 0 probes, and numpy columns make one Dual a whole batch of
points.
"""

from __future__ import annotations

import numpy as np


class Dual:
    """Number a + b*eps with eps^2 = 0; a and b may be floats, numpy columns or Duals."""

    __slots__ = ("re", "du")
    # a numpy scalar or array on the left defers to the Dual methods instead
    # of building an object array
    __array_ufunc__ = None

    def __init__(self, re, du=0.0):
        self.re = re
        self.du = du

    def __repr__(self):
        return f"Dual({self.re!r}, {self.du!r})"

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re + other.re, self.du + other.du)
        return Dual(self.re + other, self.du)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.re, -self.du)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re * other.re, self.re * other.du + self.du * other.re)
        return Dual(self.re * other, self.du * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            inv = 1.0 / other.re
            return Dual(self.re * inv, (self.du * other.re - self.re * other.du) * inv * inv)
        return Dual(self.re / other, self.du / other)

    def __rtruediv__(self, other):
        inv = 1.0 / self.re
        return Dual(other * inv, -other * self.du * inv * inv)

    def __pow__(self, p):
        if isinstance(p, int):
            if p == 0:
                return Dual(1.0, 0.0)
            if p < 0:
                return 1.0 / (self ** (-p))
            out = self
            for _ in range(p - 1):
                out = out * self
            return out
        # real exponent: positive base only
        return dexp(p * dlog(self))

    def __float__(self):
        raise TypeError("implicit Dual -> float cast would drop the derivative")


def value(x):
    """Real part of a possibly nested dual number."""
    while isinstance(x, Dual):
        x = x.re
    return x


def _lift(f, dfdx):
    def apply(x):
        if isinstance(x, Dual):
            return Dual(apply(x.re), dfdx(x.re) * x.du)
        return f(x)

    return apply


dexp = _lift(np.exp, lambda a: dexp(a))
dlog = _lift(np.log, lambda a: 1.0 / a)
dsqrt = _lift(np.sqrt, lambda a: 0.5 / dsqrt(a))


def seed(x, i):
    """Copy of point x (a sequence) with coordinate i seeded for d/dx_i."""
    return [Dual(c, 1.0) if j == i else Dual(c, 0.0) for j, c in enumerate(x)]


def tangent(y):
    """Dual part of y; 0 for a constant."""
    return y.du if isinstance(y, Dual) else 0.0


def partial(f, x, i):
    """Exact partial derivative of scalar f at point x (whose entries may be duals)."""
    return tangent(f(seed(x, i)))
