"""Exact scaled comparisons, floor division and sums for float operands.

Spike thresholds and quantization boundaries all have the form
``value <?> scale * integer``.  Plain float evaluation of ``scale * m`` or
``value / scale`` can be off by one ulp, which is enough to flip a floor or
a threshold crossing right at a code boundary.  The helpers here take the
float fast path when the operands are clearly separated and resolve ties
and near-ties exactly, so every comparison is decided as if computed over
the reals.

``ge_scaled`` and ``floor_ratio`` work on one scalar and fall back to
rational arithmetic (floats are rationals); they are the oracles.  The
``*_array`` forms decide a whole array the same way: clear cases by float,
near-ties by the exact error term of Dekker's two-product (Dekker 1971;
Shewchuk 1997, "Adaptive precision floating-point arithmetic"), and send
the few elements outside the range where that term is exact to the scalar
functions.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# Veltkamp's splitting constant 2^27 + 1: splits a double into two halves
# of at most 26 significant bits whose pairwise products are exact.
_SPLIT = 134217729.0
# The two-product error is exact while no split overflows and no partial
# product underflows; outside [_TINY, _HUGE) the scalar function decides.
_HUGE = 2.0**995
_TINY = 2.0**-900
# Integer factors beyond 2^53 do not convert to float exactly.
_EXACT_INT = 2**53


def ge_scaled(value: float, scale: float, factor: int) -> bool:
    """Decide ``value >= scale * factor`` exactly.

    ``value`` must be finite or +/-inf (inf compares correctly through the
    float path); ``scale`` must be finite and positive.
    """
    approx = scale * factor
    if not math.isfinite(value):
        return value > approx
    if value != approx:
        # approx is within 0.5 ulp of the real product, so a gap larger
        # than one ulp cannot change the verdict.
        if abs(value - approx) > math.ulp(max(abs(value), abs(approx))):
            return value > approx
    return Fraction(value) >= Fraction(scale) * factor


def floor_ratio(value: float, scale: float) -> int:
    """Mathematical floor of ``value / scale`` for finite floats, scale > 0."""
    ratio = value / scale
    if not abs(ratio) < 2.0**52:
        # past 2^52 a float quotient can be many units off the floor
        return math.floor(Fraction(value) / Fraction(scale))
    q = math.floor(ratio)
    # Division rounding can land the candidate one code off; fix by exact checks.
    while not ge_scaled(value, scale, q):
        q -= 1
    while ge_scaled(value, scale, q + 1):
        q += 1
    return q


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def ge_scaled_array(values, scale: float, factors) -> np.ndarray:
    """Element-wise ``ge_scaled``: ``values >= scale * factors`` exactly.

    ``values`` (floats) and ``factors`` (integers) broadcast together;
    ``scale`` is one finite positive float.  A gap wider than one ulp is
    decided by float, as in ``ge_scaled``.  In a near-tie ``v - p`` is
    exact (Sterbenz), so ``v >= scale * f`` holds iff ``v - p >= err``,
    where ``p + err`` is the exact product.  Non-finite values, factors
    beyond 2^53 and products outside [2^-900, 2^995) go to ``ge_scaled``.
    """
    v, f = np.broadcast_arrays(
        np.asarray(values, dtype=np.float64), np.asarray(factors, dtype=np.int64)
    )
    f_exact = np.abs(f) <= _EXACT_INT
    ff = f.astype(np.float64)
    with np.errstate(all="ignore"):
        p = scale * ff
        # spacing(inf) and inf - inf are NaN, so non-finite operands are never clear
        clear = (v != p) & (np.abs(v - p) > np.spacing(np.maximum(np.abs(v), np.abs(p))))
        out = clear & (v > p)
        near = ~clear & f_exact & (np.abs(v) < _HUGE) & (np.abs(p) < _HUGE)
        near &= (np.abs(p) >= _TINY) | (f == 0)
        if near.any():
            vn, pn, fn = v[near], p[near], ff[near]
            sh, sl = _split(np.float64(scale))
            fh, fl = _split(fn)
            err = ((sh * fh - pn) + sh * fl + sl * fh) + sl * fl
            out[near] = (vn - pn) >= err
    rest = np.flatnonzero(~(clear & f_exact) & ~near)
    if rest.size:
        flat_v, flat_f, flat_out = v.ravel(), f.ravel(), out.reshape(-1)
        for i in rest.tolist():
            flat_out[i] = ge_scaled(float(flat_v[i]), scale, int(flat_f[i]))
    return out


def floor_ratio_array(values, scale: float) -> np.ndarray:
    """Element-wise ``floor_ratio`` as ``int64``.

    The float quotient is rounded from the real one, so its floor is the
    true floor or one above it; one exact comparison settles which.
    Quotients of magnitude 2^52 or more, and non-finite ones, go to
    ``floor_ratio`` (a result outside ``int64`` raises OverflowError).
    """
    v = np.asarray(values, dtype=np.float64)
    with np.errstate(all="ignore"):
        ratio = v / scale
    ok = np.abs(ratio) < 2.0**52
    q = np.floor(np.where(ok, ratio, 0.0)).astype(np.int64)
    q -= ~ge_scaled_array(np.where(ok, v, 0.0), scale, q)
    rest = np.flatnonzero(~ok)
    if rest.size:
        flat_v, flat_q = v.ravel(), q.reshape(-1)
        for i in rest.tolist():
            flat_q[i] = floor_ratio(float(flat_v[i]), scale)
    return q


def fsum_rows(terms) -> np.ndarray:
    """``math.fsum`` along the last axis: each row's exactly rounded sum,
    independent of term order."""
    terms = np.asarray(terms, dtype=np.float64)
    width, shape = terms.shape[-1], terms.shape[:-1]
    if width == 0:
        return np.zeros(shape)
    flat = terms.ravel().tolist()
    rows = zip(*[iter(flat)] * width)  # consecutive width-long tuples
    return np.fromiter(map(math.fsum, rows), dtype=np.float64, count=math.prod(shape)).reshape(shape)
