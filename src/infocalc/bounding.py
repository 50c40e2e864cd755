"""Tail-probability bounding functions and their (min,+) algebra.

Bounding functions are non-negative, wide-sense decreasing functions of the
excess ``x``; they upper-bound the probability that a process exceeds its
envelope by more than ``x``.  The exponential family ``a*exp(-(x-x0)/b)``
(value ``a`` for ``x < x0``) is closed under the convolution upper bound
used throughout: ``a1*e^{-x/b1} (x) a2*e^{-x/b2} -> (a1+a2)*e^{-x/(b1+b2)}``
with offsets adding.  Bounds are not clamped to 1 by default (the composed
coefficients routinely exceed 1 near x=0); pass ``clamp=True`` where a true
probability is needed.

Lower bounding functions (wide-sense increasing, values in [0,1]) mirror the
upper ones and feed the inf-sum ``(f (.) g)(x) = inf_{s>=0} f(x+s) + g(s)``.

Operators without a closed form sample their operands on a grid from 0 to
the sum of their reaches, at most ``max(GRID_STEP, span/4000)`` apart and so
at most 4,001 points.  The inf-sum uses one flat step,
``max(GRID_STEP, span/8000)``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import UnreachableProbability

#: numeric grid step for operators without a closed form (information units)
GRID_STEP = 1e-3
#: numeric grids extend to x0 + GRID_SPAN_FACTOR * b.
GRID_SPAN_FACTOR = 50.0


class BoundingFunction:
    """Wide-sense decreasing tail bound; evaluate with ``f.value(x)`` or ``f(x)``."""

    def value(self, x):
        raise NotImplementedError

    def __call__(self, x):
        return self.value(x)

    @property
    def is_zero(self) -> bool:
        return False

    def limit(self) -> float:
        """Value as x -> +inf."""
        raise NotImplementedError

    def reach(self) -> float:
        """A finite x beyond which the bound is numerically negligible."""
        raise NotImplementedError


class ZeroBound(BoundingFunction):
    """Identically zero for x >= 0: the deterministic case."""

    def value(self, x):
        return 0.0

    def values(self, xs: np.ndarray) -> np.ndarray:
        return np.zeros_like(np.asarray(xs, dtype=float))

    @property
    def is_zero(self) -> bool:
        return True

    def limit(self) -> float:
        return 0.0

    def reach(self) -> float:
        return 0.0

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

    def values(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        return float(self.a) * np.exp(-np.maximum(xs - float(self.x0), 0.0) / float(self.b))

    def limit(self) -> float:
        return 0.0

    def reach(self) -> float:
        return float(self.x0) + GRID_SPAN_FACTOR * float(self.b)

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


class GridBound(BoundingFunction):
    """Sampled bound, linearly interpolated; constant beyond the grid ends."""

    __slots__ = ("xs", "ys")

    def __init__(self, xs, ys):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape or len(xs) < 2:
            raise ValueError("grid bound needs matching 1-d arrays of length >= 2")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("grid must be strictly increasing")
        if np.any(ys < 0) or np.any(np.diff(ys) > 1e-12):
            raise ValueError("grid values must be non-negative and non-increasing")
        self.xs = xs
        self.ys = np.minimum.accumulate(ys)

    def value(self, x):
        return float(np.interp(x, self.xs, self.ys))

    def values(self, xs: np.ndarray) -> np.ndarray:
        return np.interp(np.asarray(xs, dtype=float), self.xs, self.ys)

    def limit(self) -> float:
        return float(self.ys[-1])

    def reach(self) -> float:
        return float(self.xs[-1])

    def __repr__(self):
        return f"GridBound({len(self.xs)} pts on [{self.xs[0]}, {self.xs[-1]}])"


class LowerBoundingFunction:
    """Wide-sense increasing bound with values in [0, 1]."""

    def value(self, x):
        raise NotImplementedError

    def __call__(self, x):
        return self.value(x)

    @property
    def is_zero(self) -> bool:
        return False


class ZeroLowerBound(LowerBoundingFunction):
    """Identically zero: the lower-bounded process never dips below its envelope."""

    def value(self, x):
        return 0.0

    @property
    def is_zero(self) -> bool:
        return True

    def __repr__(self):
        return "ZeroLowerBound()"


class GridLowerBound(LowerBoundingFunction):
    """Sampled increasing bound in [0,1]; constant beyond the grid ends."""

    __slots__ = ("xs", "ys")

    def __init__(self, xs, ys):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape or len(xs) < 2:
            raise ValueError("grid bound needs matching 1-d arrays of length >= 2")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("grid must be strictly increasing")
        if np.any(ys < -1e-12) or np.any(ys > 1 + 1e-12) or np.any(np.diff(ys) < -1e-12):
            raise ValueError("grid values must be non-decreasing and within [0, 1]")
        self.xs = xs
        self.ys = np.clip(np.maximum.accumulate(ys), 0.0, 1.0)

    def value(self, x):
        return float(np.interp(x, self.xs, self.ys))

    def __repr__(self):
        return f"GridLowerBound({len(self.xs)} pts)"


def constant_lower_bound(c: float, x_max: float = 1.0) -> LowerBoundingFunction:
    if c == 0:
        return ZeroLowerBound()
    return GridLowerBound([0.0, x_max], [c, c])


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


def bf_convolve(f: BoundingFunction, g: BoundingFunction, exact: bool = False) -> BoundingFunction:
    """Min-plus convolution of two tail bounds (sum-of-variables composition).

    Exponential pairs use the proportional-split closed form (the standard
    upper bound on the infimum, and exactly what reproduces the tandem-path
    tables); ``exact=True`` returns the true grid infimum instead.
    """
    if f.is_zero:
        return g
    if g.is_zero:
        return f
    if isinstance(f, ExpBound) and isinstance(g, ExpBound):
        if not exact:
            return ExpBound(f.a + g.a, f.b + g.b, f.x0 + g.x0)
        xs = _grid(f.reach() + g.reach())
        return GridBound(xs, [exact_exp_convolution_value(f, g, x) for x in xs])
    return _grid_convolve(f, g)


def _grid(x_max: float) -> np.ndarray:
    n = min(int(x_max / GRID_STEP) + 2, 4001)
    return np.linspace(0.0, max(x_max, GRID_STEP), n)


def _grid_convolve(f: BoundingFunction, g: BoundingFunction) -> GridBound:
    xs = _grid(f.reach() + g.reach())
    fv = f.values(xs)
    gv = g.values(xs)
    out = np.empty_like(xs)
    for k in range(len(xs)):
        out[k] = np.min(fv[: k + 1] + gv[k::-1])
    return GridBound(xs, np.minimum.accumulate(out))


def bf_infsum(f: BoundingFunction, theta: LowerBoundingFunction,
              clamp: bool = False) -> BoundingFunction:
    """Inf-sum ``(f (.) theta)(x) = inf_{s>=0} f(x+s) + theta(s)``: combines an upper
    tail bound with a lower one (difference-of-variables composition)."""
    if theta.is_zero:
        # inf_s f(x+s) = lim f; exactly Zero for vanishing bounds.
        lim = f.limit()
        if lim == 0.0:
            return ZeroBound()
        xs = np.array([0.0, max(f.reach(), 1.0)])
        return GridBound(xs, np.array([lim, lim]))
    if f.is_zero:
        val = theta.value(0.0)
        val = min(val, 1.0) if clamp else val
        return GridBound(np.array([0.0, 1.0]), np.array([val, val]))
    x_max = f.reach()
    s_max = max(x_max, float(theta.xs[-1]) if isinstance(theta, GridLowerBound) else 1.0)
    # single uniform step so f(x + s) reads straight off one flat grid
    step = max(GRID_STEP, (x_max + s_max) / 8000.0)
    xs = np.arange(0.0, x_max + step, step)
    s = np.arange(0.0, s_max + step, step)
    tv = np.array([theta.value(v) for v in s])
    f_flat = f.values(np.arange(0.0, x_max + s_max + 2 * step, step))
    out = np.empty_like(xs)
    for k in range(len(xs)):
        out[k] = np.min(f_flat[k:k + len(s)] + tv)
    out = np.minimum.accumulate(out)
    if clamp:
        out = np.clip(out, 0.0, 1.0)
    return GridBound(xs, out)


def bf_invert(f: BoundingFunction, p: float):
    """Smallest ``x`` with ``f(x) <= p``.

    Closed form for exponentials; bisection to 1e-9 for grids.  Returns 0
    when the bound already sits at or below ``p`` at the origin.
    """
    if p <= 0:
        raise UnreachableProbability(f"probability must be positive, got {p}")
    if f.is_zero:
        return 0.0
    if isinstance(f, ExpBound):
        if f.a <= p:
            return 0.0
        return float(f.x0) + float(f.b) * math.log(float(f.a) / float(p))
    if isinstance(f, GridBound):
        if f.ys[0] <= p:
            return 0.0
        if f.ys[-1] > p:
            raise UnreachableProbability(
                f"bound never drops to {p} on its grid (min {f.ys[-1]})")
        lo, hi = float(f.xs[0]), float(f.xs[-1])
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            if f.value(mid) <= p:
                hi = mid
            else:
                lo = mid
        return hi
    raise TypeError(f"cannot invert {type(f).__name__}")


def shift_bound(f: BoundingFunction, delta) -> BoundingFunction:
    """The bound ``x -> f(x - delta)`` as a valid BoundingFunction.

    Positive ``delta`` pushes the decay right (weaker bound).  Negative
    deltas are clamped at the origin, which only loosens the bound.
    """
    if f.is_zero:
        return f
    if isinstance(f, ExpBound):
        x0 = f.x0 + delta
        if x0 < 0:
            x0 = 0
        return ExpBound(f.a, f.b, x0)
    if isinstance(f, GridBound):
        xs = f.xs + float(delta)
        if xs[0] > 0:
            xs = np.concatenate([[0.0], xs])
            ys = np.concatenate([[f.ys[0]], f.ys])
        else:
            keep = xs >= 0
            keep[np.searchsorted(xs, 0.0, side="right") - 1] = True
            xs, ys = xs[keep], f.ys[keep]
            xs[0] = 0.0
        return GridBound(xs, ys)
    raise TypeError(f"cannot shift {type(f).__name__}")


def exact_exp_convolution_value(f: ExpBound, g: ExpBound, x: float) -> float:
    """True infimum of ``f(s) + g(x-s)`` over ``0 <= s <= x`` (for comparison)."""
    a1, b1, x01 = float(f.a), float(f.b), float(f.x0)
    a2, b2, x02 = float(g.a), float(g.b), float(g.x0)
    cands = [0.0, x]
    if a1 > 0 and a2 > 0:
        # stationary point of a1 e^{-(s-x01)/b1} + a2 e^{-(x-s-x02)/b2}
        s = (b1 * b2 / (b1 + b2)) * (math.log(a1 * b2 / (a2 * b1)) + (x - x02) / b2 + x01 / b1)
        if 0 < s < x:
            cands.append(s)
    cands.extend(v for v in (x01, x - x02) if 0 < v < x)
    return min(f.value(s) + g.value(x - s) for s in cands)


__all__ = [
    "BoundingFunction",
    "ZeroBound",
    "ExpBound",
    "GridBound",
    "LowerBoundingFunction",
    "ZeroLowerBound",
    "GridLowerBound",
    "constant_lower_bound",
    "bf_convolve",
    "bf_infsum",
    "bf_invert",
    "shift_bound",
    "exact_exp_convolution_value",
]
