"""Exact algebra of piecewise-affine, wide-sense increasing curves.

A :class:`Curve` is a continuous piecewise-affine function on ``[0, +inf)``
with non-negative slopes; the last segment extends to infinity.  A curve
may take negative values near zero (affine service tails such as
``r*t - r*T``): convolving two affine tails gives ``min(rate)`` and summed
offsets instead of clipping at zero.  Clipping is applied explicitly via
:meth:`Curve.floor_at`.

Coefficients may be floats or :class:`fractions.Fraction`; all operations
use only field arithmetic, so Fraction-valued curves compose exactly.

Operators: min-plus convolution ``(f (x) g)(t) = inf_{0<=s<=t} f(s)+g(t-s)``,
deconvolution ``(f (/) g)(t) = sup_{s>=0} f(t+s)-g(s)``, and the maximum
horizontal deviation ``h(a, b) = sup_s inf{tau>=0 : a(s) <= b(s+tau)}``, all
computed exactly by breakpoint/envelope analysis.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import InfiniteDeviation, NonMonotoneResult, UnboundedDeconvolution

# Tolerance for merging collinear float segments; Fractions merge exactly.
MERGE_TOL = 1e-12
# Tolerance for continuity stitching of float envelopes.
STITCH_TOL = 1e-9

INF = float("inf")


def _is_exact(x) -> bool:
    return isinstance(x, (int, Fraction))


def _close(a, b, tol):
    if _is_exact(a) and _is_exact(b):
        return a == b
    scale = max(1.0, abs(a), abs(b))
    return abs(a - b) <= tol * scale


class Segment(NamedTuple):
    start: float
    slope: float
    value: float  # value at `start`


class Curve:
    """Piecewise-affine wide-sense increasing function of time."""

    __slots__ = ("segments",)

    def __init__(self, segments: Sequence[Segment | tuple]):
        segs = [Segment(*s) for s in segments]
        if not segs:
            raise ValueError("curve needs at least one segment")
        if segs[0].start != 0:
            raise ValueError("first segment must start at t=0")
        for a, b in zip(segs, segs[1:]):
            if not b.start > a.start:
                raise ValueError("segment start times must be strictly increasing")
            expected = a.value + a.slope * (b.start - a.start)
            if not _close(expected, b.value, STITCH_TOL):
                raise ValueError(f"discontinuity at t={b.start}: {expected} != {b.value}")
        for s in segs:
            if s.slope < 0:
                raise NonMonotoneResult(f"negative slope {s.slope} at t={s.start}")
        self.segments = tuple(_merge(segs))

    # -- constructors -------------------------------------------------

    @classmethod
    def affine(cls, slope, offset=0) -> "Curve":
        """The affine curve ``slope*t + offset`` (offset may be negative)."""
        return cls([Segment(0, slope, offset)])

    @classmethod
    def rate_latency(cls, rate, latency) -> "Curve":
        """Unclipped rate-latency curve ``rate*(t - latency)``."""
        return cls.affine(rate, -rate * latency)

    @classmethod
    def zero(cls) -> "Curve":
        return cls.affine(0, 0)

    # -- evaluation ---------------------------------------------------

    def value(self, t):
        """Value at time ``t >= 0``."""
        if t < 0:
            raise ValueError("curve is defined for t >= 0")
        seg = self._segment_at(t)
        return seg.value + seg.slope * (t - seg.start)

    __call__ = value

    def value_zero_ext(self, t):
        """Value with the zero extension ``f(t) = 0`` for ``t <= 0``."""
        return self.value(t) if t > 0 else 0 * self.segments[0].value

    def _segment_at(self, t) -> Segment:
        chosen = self.segments[0]
        for seg in self.segments:
            if seg.start <= t:
                chosen = seg
            else:
                break
        return chosen

    def breakpoints(self):
        return [s.start for s in self.segments]

    @property
    def final_slope(self):
        return self.segments[-1].slope

    # Long-term rate lim f(t)/t equals the final slope for piecewise-affine f.
    asymptotic_rate = final_slope

    def first_reach(self, y):
        """``inf{u >= 0 : f(u) >= y}``; +inf when never reached."""
        for i, seg in enumerate(self.segments):
            v_end = self._value_at_end(i)
            if seg.value >= y:
                return seg.start
            if y <= v_end and seg.slope > 0:
                return seg.start + (y - seg.value) / seg.slope
        return INF

    def first_reach_strict(self, y):
        """``inf{u >= 0 : f(u) > y}``; differs from :meth:`first_reach` on plateaus."""
        for i, seg in enumerate(self.segments):
            if seg.value > y:
                return seg.start
            if seg.slope > 0 and self._value_at_end(i) > y:
                return seg.start + (y - seg.value) / seg.slope
        return INF

    def _value_at_end(self, i):
        if i + 1 < len(self.segments):
            nxt = self.segments[i + 1]
            return nxt.value
        return INF if self.segments[i].slope > 0 else self.segments[i].value

    # -- transforms ---------------------------------------------------

    def shift_up(self, x) -> "Curve":
        """``f(t) + x`` (written ``f^x`` in the guarantee bounds)."""
        return Curve([Segment(s.start, s.slope, s.value + x) for s in self.segments])

    def floor_at(self, x) -> "Curve":
        """``max(f(t), x)`` (written ``[f]^x`` in the guarantee bounds); adds at most one breakpoint."""
        if self.segments[0].value >= x:
            return self
        t_cross = self.first_reach(x)
        if t_cross == INF:
            return Curve([Segment(0, 0 * self.segments[0].slope, x)])
        segs = [Segment(0, 0 * self.segments[0].slope, x)]
        for i, seg in enumerate(self.segments):
            end = self.segments[i + 1].start if i + 1 < len(self.segments) else INF
            if seg.start > t_cross:
                segs.append(seg)
            elif end > t_cross:
                segs.append(Segment(t_cross, seg.slope, x))
        return Curve(segs)

    def scale(self, k) -> "Curve":
        """``k * f(t)`` for ``k >= 0``."""
        if k < 0:
            raise ValueError("scale factor must be non-negative")
        return Curve([Segment(s.start, k * s.slope, k * s.value) for s in self.segments])

    def __add__(self, other: "Curve") -> "Curve":
        segs = []
        for t in _union_breakpoints(self, other):
            segs.append(Segment(t, self._segment_at(t).slope + other._segment_at(t).slope,
                                self.value(t) + other.value(t)))
        return Curve(segs)

    def subtract(self, other: "Curve") -> "Curve":
        """``f - g``, which may be negative near zero; raises
        :class:`NonMonotoneResult` if any slope turns negative."""
        segs = []
        for t in _union_breakpoints(self, other):
            slope = self._segment_at(t).slope - other._segment_at(t).slope
            if slope < 0:
                raise NonMonotoneResult(f"subtraction yields slope {slope} at t={t}")
            segs.append(Segment(t, slope, self.value(t) - other.value(t)))
        return Curve(segs)

    # -- comparison ---------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Curve) and self.segments == other.segments

    def __hash__(self):
        return hash(self.segments)

    def approx_eq(self, other: "Curve", tol: float = 1e-9) -> bool:
        if len(self.segments) != len(other.segments):
            return False
        return all(
            _close(a.start, b.start, tol) and _close(a.slope, b.slope, tol) and _close(a.value, b.value, tol)
            for a, b in zip(self.segments, other.segments)
        )

    def __repr__(self):
        body = ", ".join(f"({s.start}, {s.slope}, {s.value})" for s in self.segments)
        return f"Curve[{body}]"


def _merge(segs: list[Segment]) -> list[Segment]:
    out = [segs[0]]
    for seg in segs[1:]:
        prev = out[-1]
        if _close(prev.slope, seg.slope, MERGE_TOL):
            continue
        out.append(seg)
    return out


def _union_breakpoints(a: Curve, b: Curve):
    return sorted(set(a.breakpoints()) | set(b.breakpoints()))


# ---------------------------------------------------------------------------
# Envelope machinery: exact pointwise min/max of partially-defined
# piecewise-affine candidates.  Each candidate is (domain_start, domain_end,
# [Segment...]) with segments covering the domain; domain_end may be inf.
# ---------------------------------------------------------------------------


class _Candidate(NamedTuple):
    lo: float
    hi: float
    segments: tuple


def _cand_line_at(c: _Candidate, t):
    """(value, slope) of candidate ``c`` at time ``t`` inside its domain."""
    seg = c.segments[0]
    for s in c.segments:
        if s.start <= t:
            seg = s
        else:
            break
    return seg.value + seg.slope * (t - seg.start), seg.slope


def _envelope(candidates: list[_Candidate], lower: bool) -> list[Segment]:
    events = {c.lo for c in candidates}
    for c in candidates:
        events.update(s.start for s in c.segments)
        if c.hi != INF:
            events.add(c.hi)
    grid = sorted(events)
    pieces: list[Segment] = []
    for i, u in enumerate(grid):
        v = grid[i + 1] if i + 1 < len(grid) else INF
        lines = []
        for c in candidates:
            # candidate must cover the whole interval [u, v)
            if c.lo > u or (c.hi != INF and (v == INF or c.hi < v)):
                continue
            lines.append(_cand_line_at(c, u))
        if not lines:
            continue
        pieces.extend(_line_envelope(lines, u, v, lower))
    return _stitch(pieces)


def _line_envelope(lines, u, v, lower: bool):
    """Envelope of affine pieces ``val + slope*(t-u)`` over ``[u, v)``.

    Lines are deduplicated and sorted so probe-point ties resolve the same
    way regardless of candidate construction order (commutativity).
    """
    lines = sorted(set(lines))
    cuts = {u}
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            v1, s1 = lines[i]
            v2, s2 = lines[j]
            if s1 == s2:
                continue
            t = u + (v2 - v1) / (s1 - s2)
            if t > u and (v == INF or t < v):
                cuts.add(t)
    ordered = sorted(cuts)
    out = []
    for k, t0 in enumerate(ordered):
        if k + 1 < len(ordered):
            probe = (t0 + ordered[k + 1]) / 2
        elif v != INF:
            probe = (t0 + v) / 2
        else:
            probe = t0 + 1
        best = None
        for val, slope in lines:
            y = val + slope * (probe - u)
            if best is None or (y < best[0] if lower else y > best[0]):
                best = (y, val, slope)
        _, val, slope = best
        out.append(Segment(t0, slope, val + slope * (t0 - u)))
    return out


def _stitch(pieces: list[Segment]) -> list[Segment]:
    pieces = sorted(pieces, key=lambda s: s.start)
    out = [pieces[0]]
    for seg in pieces[1:]:
        prev = out[-1]
        if seg.start == prev.start:
            out[-1] = seg
            continue
        expected = prev.value + prev.slope * (seg.start - prev.start)
        if not _close(expected, seg.value, STITCH_TOL):
            raise AssertionError(f"envelope discontinuity at t={seg.start}: {expected} vs {seg.value}")
        if _is_exact(expected) and _is_exact(seg.value) and expected == seg.value:
            pass
        elif expected != seg.value:
            seg = Segment(seg.start, seg.slope, expected)  # snap float fuzz
        if _close(prev.slope, seg.slope, MERGE_TOL):
            continue
        out.append(seg)
    return out


# ---------------------------------------------------------------------------
# Min-plus operators
# ---------------------------------------------------------------------------


def convolve(a: Curve, b: Curve) -> Curve:
    """Min-plus convolution ``inf_{0<=s<=t} a(s) + b(t-s)``, exact.

    For two affine tails the result tail has the smaller slope and the summed
    offsets (affine tails are not clipped at zero): ``r(t-d) (x) r(t-d) = r(t-2d)``.
    """
    candidates = []
    for s in a.breakpoints():
        lift = a.value(s)
        candidates.append(_Candidate(s, INF, tuple(
            Segment(s + seg.start, seg.slope, seg.value + lift) for seg in b.segments)))
    for u in b.breakpoints():
        lift = b.value(u)
        candidates.append(_Candidate(u, INF, tuple(
            Segment(u + seg.start, seg.slope, seg.value + lift) for seg in a.segments)))
    return Curve(_envelope(candidates, lower=True))


def deconvolve(a: Curve, b: Curve) -> Curve:
    """Min-plus deconvolution ``sup_{s>=0} a(t+s) - b(s)``, exact.

    Requires the asymptotic rate of ``a`` to stay within ``b``'s, otherwise the
    supremum diverges (:class:`UnboundedDeconvolution`).
    """
    if a.final_slope > b.final_slope:
        raise UnboundedDeconvolution(
            f"left rate {a.final_slope} exceeds right rate {b.final_slope}")
    candidates = []
    for u in b.breakpoints():
        drop = b.value(u)
        segs = []
        for i, seg in enumerate(a.segments):
            start = seg.start - u
            end = a.segments[i + 1].start - u if i + 1 < len(a.segments) else INF
            if end <= 0:
                continue
            t0 = max(0 * u, start)
            segs.append(Segment(t0, seg.slope, a.value(t0 + u) - drop))
        candidates.append(_Candidate(0 * u, INF, tuple(segs)))
    for s in a.breakpoints()[1:]:
        peak = a.value(s)
        # t -> a(s) - b(s - t) on [0, s]: b's segments reversed around s
        segs = []
        for i, seg in enumerate(b.segments):
            if seg.start >= s:
                break
            end = b.segments[i + 1].start if i + 1 < len(b.segments) else INF
            t_lo = max(0 * s, s - min(end, s))
            segs.append(Segment(t_lo, seg.slope, peak - b.value(min(end, s))))
        if segs:
            candidates.append(_Candidate(0 * s, s, tuple(reversed(segs))))
    return Curve(_envelope(candidates, lower=False))


def horizontal_deviation(alpha: Curve, beta: Curve):
    """Maximum horizontal distance ``h(alpha, beta)``, exact.

    ``h = sup_{s>=0} inf{tau >= 0 : alpha(s) <= beta(s+tau)}``.  The sup is
    evaluated over alpha's breakpoints, the points where alpha crosses a
    value-kink of beta, and the right limits there (plateaus of beta make the
    inner inf jump, so the sup may only be approached from the right).
    """
    if alpha.final_slope > beta.final_slope:
        raise InfiniteDeviation(
            f"arrival rate {alpha.final_slope} exceeds service rate {beta.final_slope}")
    # candidate (s, alpha(s)) pairs carry the exact level: re-evaluating alpha
    # at a crossing point rounds off the kink value and can miss the inverse's
    # jump across a service plateau
    pairs = [(seg.start, seg.value) for seg in alpha.segments]
    for seg in beta.segments:
        s = alpha.first_reach(seg.value)
        if s != INF:
            pairs.append((s, seg.value))
    best = None
    for s, y in pairs:
        for reach in (beta.first_reach(y),
                      beta.first_reach_strict(y) if alpha._segment_at(s).slope > 0 else None):
            if reach is None:
                continue
            if reach == INF:
                raise InfiniteDeviation(f"beta never reaches alpha({s}) = {y}")
            d = reach - s
            if d < 0:
                d = 0 * d
            if best is None or d > best:
                best = d
    return best


__all__ = [
    "Curve",
    "Segment",
    "convolve",
    "deconvolve",
    "horizontal_deviation",
]
