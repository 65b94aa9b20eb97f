"""Exact scaled comparisons, floor division and sums for float operands.

Spike thresholds and quantization boundaries all have the form
``value <?> scale * integer``.  Plain float evaluation of ``scale * m`` or
``value / scale`` can be off by one ulp, which is enough to flip a floor or
a threshold crossing right at a code boundary.  The helpers here take the
float fast path when the operands are clearly separated and resolve ties
and near-ties exactly, so every comparison is decided as if computed over
the reals.

``ge_scaled`` and ``floor_ratio`` work on one scalar and fall back to
rational arithmetic (floats are rationals); they are the oracles.  Both
first make the value a Python float, so the float steps round in binary64
(NumPy 2 divides a float32 by a Python float in float32).  ``floor_ratio``
needs no compare at all when the rounded quotient is not an integer: the
true one then lies strictly between the same two integers (Goldberg 1991,
"What every computer scientist should know about floating-point
arithmetic": division is correctly rounded, so monotone).  Only an
integral quotient, a tie or a near-tie, takes the exact check.
``ge_scaled_array`` decides a whole array in one vector pass at every
scale: it moves the scale's exponent onto the values, so the products are
normal floats, compares in plain float where they are all exact, and
otherwise decides clear cases by float and near-ties by the exact error
term of Dekker's two-product (Dekker 1971; Shewchuk 1997, "Adaptive
precision floating-point arithmetic").
``exact_matmul`` is the exactly rounded matrix product: one float matmul
where integer operands make every sum exact, else ``math.fsum`` of each
entry's products (``fsum_rows``).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# Veltkamp's splitting constant 2^27 + 1: splits a double into two halves
# of at most 26 significant bits whose pairwise products are exact.
_SPLIT = 134217729.0
# Integer factors beyond 2^53 do not convert to float exactly.
_EXACT_INT = 2**53


def ge_scaled(value: float, scale: float, factor: int) -> bool:
    """Decide ``value >= scale * factor`` exactly.

    ``value`` must be finite or +/-inf, and is taken as ``float(value)``
    (a numpy float32 too); ``scale`` must be finite and positive.  +inf
    meets every threshold and -inf none, even one whose float product
    overflows.
    """
    if type(value) is not float:  # binary64 steps below; Fraction refuses a float32
        value = float(value)
    approx = scale * factor
    # Let P be the real product.  ``factor`` becomes the nearest float F
    # (F = factor below 2^53), and approx is scale * F rounded to nearest;
    # each rounding errs by at most 2^-53 of its result, or 2^-1075 below
    # the normal range, so |P - approx| < 2^-51 |approx| when approx is
    # normal, and < 2^-1074 when it is subnormal or zero.  Rounding is
    # monotone, so when the computed gap exceeds the computed bound, the
    # real gap |value - approx| exceeds 2^-51 |approx| and is nonzero,
    # hence at least 2^-1074 (both are floats).  Either way it exceeds
    # |P - approx|, so value lies strictly on the side of P it lies of
    # approx, and the float compare decides.  An infinite value with a
    # finite approx passes the test.  An overflowed approx makes the bound
    # inf and the test fail: the rational path decides a finite value, and
    # an infinite one is decided by its sign.
    if abs(value - approx) > abs(approx) * 2.0**-51:
        return value > approx
    if not math.isfinite(value):
        return value > 0
    return Fraction(value) >= Fraction(scale) * factor


def floor_ratio(value: float, scale: float) -> int:
    """Mathematical floor of ``value / scale`` for finite floats, scale > 0.

    Any real value (a numpy float32 or float16 too) is taken as
    ``float(value)``.
    """
    if type(value) is not float:  # the proof below needs a binary64 quotient
        value = float(value)
    ratio = value / scale
    if not -(2.0**52) < ratio < 2.0**52:  # cheaper than abs(); NaN and inf fail too
        # past 2^52 a float quotient can be many units off the floor
        return math.floor(Fraction(value) / Fraction(scale))
    q = math.floor(ratio)
    # ratio = fl(x) for the real x = value / scale, and fl is monotone and
    # keeps every float, q and q + 1 included.  So x <= q would give
    # ratio <= q, and x >= q + 1 would give ratio >= q + 1: when
    # q < ratio < q + 1, floor(x) = q.  An integral ratio is the true floor
    # or one above it (x can round up onto q): one exact check settles it.
    if ratio != q:
        return q
    return q if ge_scaled(value, scale, q) else q - 1


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def ge_scaled_array(values, scale: float, factors) -> np.ndarray:
    """Element-wise ``ge_scaled``: ``values >= scale * factors`` exactly.

    ``values`` (floats) and ``factors`` (integers) broadcast together;
    ``scale`` is one finite positive float, or an int that converts to
    float exactly.  Write ``scale = m * 2^e`` with 1/2 <= m < 1: then
    ``v >= scale * f`` iff ``u >= m * f`` for ``u = v * 2^-e``, which is
    exact unless it underflows, and a zero factor compares ``v >= 0``.  For
    0 < |f| <= 2^53 the rounded product ``p`` of ``m * f`` is a normal
    float of magnitude at least 1/2, so a ``u`` that underflowed or
    overflowed lies clearly apart from it.  When the significant bits of m
    and of the largest ``|f|`` add up to at most 53, every product is exact
    and ``u >= p`` decides.  Otherwise a gap wider than 2^-51 of ``|p|`` is
    decided by float, as in ``ge_scaled`` (infinities are clear; NaN never
    is, and compares False).  In a near-tie ``u - p`` is exact (Sterbenz),
    so ``u >= m * f`` iff ``u - p >= err``, where ``p + err`` is the exact
    product (Dekker's two-product: no split overflows and no partial
    product underflows).  Only near-ties of factors past 2^53, which are
    not exact floats, go to ``ge_scaled``.
    """
    v, f = np.asarray(values, dtype=np.float64), np.asarray(factors, dtype=np.int64)
    if v.shape != f.shape:  # broadcasting costs more than the compare on a small array
        v, f = np.broadcast_arrays(v, f)
    m, e = math.frexp(scale)
    top = max(-int(f.min()), int(f.max())) if f.size else 0
    ff = f.astype(np.float64)
    with np.errstate(all="ignore"):
        u = np.where(f == 0, v, np.ldexp(v, -e))
        p = m * ff
        if m.as_integer_ratio()[0].bit_length() + top.bit_length() <= 53:
            return u >= p  # every product m * f is exact
        clear = np.abs(u - p) > np.abs(p) * 2.0**-51
        out = clear & (u > p)
        near = ~clear & (np.abs(f) <= _EXACT_INT)
        if near.any():
            un, pn = u[near], p[near]
            mh, ml = _split(np.float64(m))
            fh, fl = _split(ff[near])
            err = ((mh * fh - pn) + mh * fl + ml * fh) + ml * fl
            out[near] = (un - pn) >= err
    rest = np.flatnonzero(~clear & ~near)
    if rest.size:
        flat_v, flat_f, flat_out = v.ravel(), f.ravel(), out.reshape(-1)
        for i in rest.tolist():
            flat_out[i] = ge_scaled(float(flat_v[i]), scale, int(flat_f[i]))
    return out


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


def exact_matmul(a, b, mask=None) -> np.ndarray:
    """Exactly rounded ``a @ b`` for ``a`` (..., inputs), ``b`` (inputs,
    outputs): each entry is ``math.fsum`` of its products, independent of
    order.  Where ``mask`` (shaped like ``a``) is False the term is an
    exact +0.0, whatever ``b`` holds.  Both operands are read as float64,
    so an integer past 2^53 rounds to its nearest float first.

    When both operands are integral, so is every product, and while an
    entry's summed magnitudes ``(|a| @ |b|)[r, j]`` stay below 2^53 every
    product and partial sum is exact in any order (Shewchuk 1997): one
    float matmul gives the result.  The bound is tried first as
    ``fl(inputs * fl(max|a| * max|b|)) < 2^53``, then as ``|a| @ |b| < 2^53``:
    rounding is monotone and 2^53 is a float, so either float test passes
    only where the real bound holds, and neither does for inf or NaN.
    An operand of integer dtype needs no integrality test.  Any other
    product goes through ``fsum_rows``.
    """
    a, b = np.asarray(a), np.asarray(b)
    # an integer dtype converts to integral floats: it needs no test
    int_a, int_b = a.dtype.kind in "biu", b.dtype.kind in "biu"
    a, b = a.astype(np.float64, copy=False), b.astype(np.float64, copy=False)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        a = np.where(mask, a, 0.0)
    whole = (int_a or (a == np.floor(a)).all()) and (int_b or (b == np.floor(b)).all())
    with np.errstate(all="ignore"):  # inf and NaN products sum as in math.fsum
        if whole:
            top = float(np.abs(a).max(initial=0.0)) * float(np.abs(b).max(initial=0.0))
            if a.shape[-1] * top < _EXACT_INT or (np.abs(a) @ np.abs(b) < _EXACT_INT).all():
                return a @ b + 0.0  # fsum's zero is +0.0
        terms = a[..., None, :] * b.T
    if mask is not None:
        terms = np.where(mask[..., None, :], terms, 0.0)
    return fsum_rows(terms)
