"""Tail-probability bounds and their closed algebra.

A tail bound is a non-negative, wide-sense decreasing function of the
excess ``x``; it upper-bounds the probability that a process exceeds its
envelope by more than ``x``.  Two families make up the algebra, and every
operator takes and returns only these (any other bound is a ``TypeError``):

* ``ZeroBound``, identically zero: the deterministic case;
* ``ExpBound``, ``a*exp(-(x-x0)/b)`` with value ``a`` below ``x0``.

They compose in closed form (Jiang & Liu, *Stochastic Network Calculus*,
2008).  ``bf_convolve`` takes the proportional-split upper bound on the
min-plus infimum, ``a1*e^{-x/b1} (x) a2*e^{-x/b2} -> (a1+a2)*e^{-x/(b1+b2)}``
with offsets adding; ``bf_invert`` and ``shift_bound`` act on the
parameters.  Bounds are not clamped to 1 (the composed coefficients
routinely exceed 1 near x=0); callers clamp where a true probability is
needed.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import UnreachableProbability


class BoundingFunction:
    """Wide-sense decreasing tail bound; evaluate with ``f.value(x)`` or ``f(x)``."""

    def value(self, x):
        raise NotImplementedError

    def __call__(self, x):
        return self.value(x)

    @property
    def is_zero(self) -> bool:
        return False


class ZeroBound(BoundingFunction):
    """Identically zero for x >= 0: the deterministic case."""

    def value(self, x):
        return 0.0

    @property
    def is_zero(self) -> bool:
        return True

    def __eq__(self, other):
        return isinstance(other, ZeroBound)

    def __hash__(self):
        return hash("ZeroBound")

    def __repr__(self):
        return "ZeroBound()"


class ExpBound(BoundingFunction):
    """``a * exp(-(x - x0)/b)`` for ``x >= x0``, constant ``a`` below ``x0``.

    Parameters may be floats or Fractions; composition keeps them exact.
    """

    __slots__ = ("a", "b", "x0")

    def __init__(self, a, b, x0=0):
        if a < 0:
            raise ValueError("coefficient a must be >= 0")
        if b <= 0:
            raise ValueError("decay scale b must be > 0")
        if x0 < 0:
            raise ValueError("offset x0 must be >= 0")
        self.a = a
        self.b = b
        self.x0 = x0

    def value(self, x):
        if x <= self.x0:
            return self.a
        return self.a * math.exp(-float(x - self.x0) / float(self.b))

    def params(self):
        return (self.a, self.b, self.x0)

    def __eq__(self, other):
        return isinstance(other, ExpBound) and self.params() == other.params()

    def __hash__(self):
        return hash(("ExpBound", self.a, self.b, self.x0))

    def __repr__(self):
        if self.x0:
            return f"ExpBound({self.a}*e^-(x-{self.x0})/{self.b})"
        return f"ExpBound({self.a}*e^-x/{self.b})"


def _knots(xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """Validated knot arrays of a sampled bound.  Knots closer than the
    smallest normal float apart are refused: ``np.interp`` overflows
    between them."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape or len(xs) < 2:
        raise ValueError("grid bound needs matching 1-d arrays of length >= 2")
    if not np.all(np.diff(xs) >= np.finfo(float).tiny):
        raise ValueError("grid must be strictly increasing, its knots at least "
                         "the smallest normal float apart")
    return xs, ys


# No operator accepts the two sampled bounds below.  They stay as validated
# classes because ``perfbench/tracing.py`` counts their constructions
# (``bounding.grid_bounds_built``), which shows that no stage builds one.


class GridBound(BoundingFunction):
    """Sampled bound, linearly interpolated; constant beyond the grid ends."""

    __slots__ = ("xs", "ys")

    def __init__(self, xs, ys):
        xs, ys = _knots(xs, ys)
        if np.any(ys < 0) or np.any(np.diff(ys) > 1e-12):
            raise ValueError("grid values must be non-negative and non-increasing")
        self.xs = xs
        self.ys = np.minimum.accumulate(ys)

    def value(self, x):
        return float(np.interp(x, self.xs, self.ys))

    def __repr__(self):
        return f"GridBound({len(self.xs)} pts on [{self.xs[0]}, {self.xs[-1]}])"


class GridLowerBound:
    """Sampled increasing bound in [0,1]; constant beyond the grid ends."""

    __slots__ = ("xs", "ys")

    def __init__(self, xs, ys):
        xs, ys = _knots(xs, ys)
        if np.any(ys < -1e-12) or np.any(ys > 1 + 1e-12) or np.any(np.diff(ys) < -1e-12):
            raise ValueError("grid values must be non-decreasing and within [0, 1]")
        self.xs = xs
        self.ys = np.clip(np.maximum.accumulate(ys), 0.0, 1.0)

    def value(self, x):
        return float(np.interp(x, self.xs, self.ys))

    def __repr__(self):
        return f"GridLowerBound({len(self.xs)} pts)"


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


def _closed(op: str, *bounds) -> None:
    """Refuse, with ``TypeError``, a bound outside ``{ExpBound, ZeroBound}``."""
    for f in bounds:
        if not isinstance(f, (ExpBound, ZeroBound)):
            raise TypeError(f"cannot {op} {type(f).__name__}: "
                            "only ExpBound and ZeroBound compose")


def bf_convolve(f: BoundingFunction, g: BoundingFunction) -> BoundingFunction:
    """Min-plus convolution of two tail bounds (sum-of-variables composition).

    A Zero side returns the other; two exponentials give the
    proportional-split closed form (the standard upper bound on the
    infimum, and exactly what reproduces the tandem-path tables).
    """
    _closed("convolve", f, g)
    if f.is_zero:
        return g
    if g.is_zero:
        return f
    return ExpBound(f.a + g.a, f.b + g.b, f.x0 + g.x0)


def bf_invert(f: BoundingFunction, p: float):
    """Smallest ``x`` with ``f(x) <= p``, in closed form.

    Returns 0 when the bound already sits at or below ``p`` at the origin.
    """
    if p <= 0:
        raise UnreachableProbability(f"probability must be positive, got {p}")
    _closed("invert", f)
    if f.is_zero or f.a <= p:
        return 0.0
    return float(f.x0) + float(f.b) * math.log(float(f.a) / float(p))


def shift_bound(f: BoundingFunction, delta) -> BoundingFunction:
    """The bound ``x -> f(x - delta)``.

    Positive ``delta`` pushes the decay right (weaker bound).  Negative
    deltas are clamped at the origin, which only loosens the bound.
    """
    _closed("shift", f)
    if f.is_zero:
        return f
    x0 = f.x0 + delta
    if x0 < 0:
        x0 = 0
    return ExpBound(f.a, f.b, x0)


__all__ = [
    "BoundingFunction",
    "ZeroBound",
    "ExpBound",
    "GridBound",
    "GridLowerBound",
    "bf_convolve",
    "bf_invert",
    "shift_bound",
]
