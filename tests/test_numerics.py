"""Exact scaled comparison and floor: float fast path vs rational truth."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matterhorn import numerics, qnn, spike
from matterhorn.numerics import (
    exact_matmul,
    floor_ratio,
    fsum_rows,
    ge_scaled,
    ge_scaled_array,
)
from matterhorn.qnn import QuantParams, quantize, quantize_array
from matterhorn.spike import (
    ASYMMETRIC,
    SYMMETRIC,
    SnnLayerConfig,
    fire_analytic,
    fire_simulated,
    fire_simulated_array,
    train_times,
)

scales = st.sampled_from([1.0, 0.5, 0.25, 0.1, 0.3, 0.7, 2.5, 3.0, 1e-3, 1e3, math.pi])
# plain scales, then subnormal to huge ones
EXTREME_SCALES = st.one_of(
    scales,
    st.floats(min_value=5e-324, max_value=sys.float_info.max),
    st.sampled_from([5e-324, 2.0**-1022, 1e-310, 1e308, sys.float_info.max]),
)


@settings(max_examples=500, deadline=None)
@given(
    value=st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
    scale=scales,
    factor=st.integers(-40, 40),
)
def test_ge_scaled_matches_rational_oracle(value, scale, factor):
    assert ge_scaled(value, scale, factor) == (Fraction(value) >= Fraction(scale) * factor)


@settings(max_examples=500, deadline=None)
@given(value=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), scale=scales)
def test_floor_ratio_matches_rational_oracle(value, scale):
    assert floor_ratio(value, scale) == math.floor(Fraction(value) / Fraction(scale))


def test_tie_at_representable_product():
    # 0.25 * 3 is exact in binary; the tie is a genuine crossing
    assert ge_scaled(0.75, 0.25, 3)
    assert not ge_scaled(0.7499999999999999, 0.25, 3)


def test_half_over_tenth_is_below_five():
    # float(0.5) / float(0.1) rounds to exactly 5.0, but the true ratio is
    # just under 5: the exact floor must be 4 where the naive one says 5.
    assert math.floor(0.5 / 0.1) == 5
    assert floor_ratio(0.5, 0.1) == 4
    assert not ge_scaled(0.5, 0.1, 5)
    assert ge_scaled(0.5, 0.1, 4)


def _exact_ge(value, scale, factor):
    """``value >= scale * factor`` over the reals; +inf meets every real."""
    if math.isinf(value):
        return value > 0
    return Fraction(value) >= Fraction(scale) * factor


def _ulps_away(x, steps):
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


@settings(max_examples=1000, deadline=None)
@given(
    scale=EXTREME_SCALES,
    factor=st.one_of(st.integers(-40, 40), st.integers(-(2**70), 2**70)),
)
def test_ge_scaled_matches_fraction_at_the_fast_path_edge(scale, factor):
    # values 0-4 ulps either side of the float product (or of the largest
    # float when the product overflows, so the infinities come in too)
    approx = scale * factor
    start = math.copysign(sys.float_info.max, approx) if math.isinf(approx) else approx
    for steps in range(-4, 5):
        value = _ulps_away(start, steps)
        assert ge_scaled(value, scale, factor) == _exact_ge(value, scale, factor), steps


def test_ge_scaled_matches_fraction_next_to_products_of_wide_factors():
    # past 2^53 a factor rounds on its way to float, so the product carries
    # two roundings; values 1-2 ulps off it must still be decided exactly
    rng = np.random.default_rng(0)
    for _ in range(5000):
        scale = float(rng.choice([0.1, 0.37, 1.0, 3.0, math.pi, rng.uniform(0.5, 2.0)]))
        e = int(rng.integers(53, 63))
        factor = int(rng.integers(2**e, 2 ** (e + 1))) * int(rng.choice([-1, 1]))
        for steps in (-2, -1, 1, 2):
            value = _ulps_away(scale * factor, steps)
            assert ge_scaled(value, scale, factor) == _exact_ge(value, scale, factor)


def test_ge_scaled_matches_fraction_on_extreme_operands():
    tiny, huge = 5e-324, sys.float_info.max
    values = [0.0, -0.0, tiny, -tiny, 2.0**-1022, 1e-310, -1e-310, huge, -huge, math.inf, -math.inf]
    values += [_ulps_away(v, s) for v in (0.0, 2.0**-1022, huge) for s in (-2, -1, 1, 2)]
    for scale in (tiny, 1e-310, 2.0**-1022, 0.1, 1.0, 0.37, 1e300, huge):
        for factor in (0, 1, -1, 3, -7, 2**53 + 1, -(2**60)):
            for value in values:
                want = _exact_ge(value, scale, factor)
                assert ge_scaled(value, scale, factor) == want, (value, scale, factor)


def test_floor_ratio_of_a_huge_quotient_is_exact():
    # a float quotient near 2.7e300 is ~1e284 units coarse; the floor must
    # not be found by stepping one unit at a time
    assert floor_ratio(1e300, 0.37) == math.floor(Fraction(1e300) / Fraction(0.37))
    assert quantize(-1e300, QuantParams(n=4, alpha=0.37)) == -8


def test_quantizer_respects_exact_boundary():
    p = QuantParams(n=4, alpha=0.1)
    assert quantize(0.5, p) == 4
    # one ulp up crosses the real boundary
    assert quantize(math.nextafter(0.5, 1.0), p) == 5


def test_firing_paths_agree_on_adversarial_boundary():
    cfg = SnnLayerConfig(n=4, alpha=0.1, mode=ASYMMETRIC, i_max=15, k=0)
    for a in (0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0)):
        assert fire_analytic(a, cfg) == fire_simulated(a, cfg)
    # a potential of exactly 0.5 sits below the alpha*5 threshold step
    assert fire_analytic(0.5, cfg).time == cfg.code_max - 4


def test_extreme_ratio_falls_back_to_rational_path():
    assert floor_ratio(1e308, 1e-308) > 0  # float division overflows to inf
    assert floor_ratio(-1e308, 1e-308) < 0


FLOOR_SCALES = (5e-324, 1e-310, 2.0**-1022, 1e-200, 0.1, 0.37, 1.0, 3.0, 1e100, 1e300)


def _count_ge_scaled(monkeypatch):
    calls = []
    monkeypatch.setattr(numerics, "ge_scaled", lambda *a, _f=ge_scaled: calls.append(a) or _f(*a))
    return calls


def test_floor_ratio_checks_exactly_only_an_integral_quotient(monkeypatch):
    calls = _count_ge_scaled(monkeypatch)
    # a quotient strictly between two integers lies between the same two
    # before rounding: no exact check
    fractional = [(math.nextafter(0.5, 1.0), 0.1), (-3.0, 0.37)]
    fractional += [(2.0**52 - 0.5, 1.0), (-5e-324, 1.0), (1e-310, 0.37)]
    # an integral one is a tie or rounded onto it: 0.5 / 0.1 and 1e300 / 1e290
    # round up onto 5 and 1e10, the other four are exact
    integral = [(0.5, 0.1), (1e300, 1e290), (5e-324, 5e-324), (-1e-310, 5e-324)]
    integral += [(2.0**52 - 1.0, 1.0), (0.0, 3.0)]
    for cases, checks in ((fractional, 0), (integral, 1)):
        for value, scale in cases:
            calls.clear()
            assert (value / scale == math.floor(value / scale)) == bool(checks)
            assert floor_ratio(value, scale) == math.floor(Fraction(value) / Fraction(scale))
            assert len(calls) == checks, (value, scale)


def _near_tie(scale):
    """(k, value) for the first k in +/-1..2^11 with a value whose real
    quotient by ``scale`` is below k but rounds onto k, or None."""
    for k in (k for m in range(1, 2**11) for k in (m, -m)):
        edge = scale * k
        for value in (edge, math.nextafter(edge, -math.inf)):
            if value / scale == k and Fraction(value) < Fraction(scale) * k:
                return k, value
    return None


# A power of two divides exactly.  A float below 3k lies at least 2 ulp(k)
# under it, so its quotient by 3 lies 2/3 ulp(k) under k and rounds away.
NO_NEAR_TIE = (5e-324, 2.0**-1022, 1.0, 3.0)


@pytest.mark.parametrize("scale", FLOOR_SCALES)
def test_floor_ratio_checks_a_planted_near_tie(monkeypatch, scale):
    tie = _near_tie(scale)
    if scale in NO_NEAR_TIE:
        assert tie is None
        return
    k, value = tie
    calls = _count_ge_scaled(monkeypatch)
    assert floor_ratio(value, scale) == k - 1 and len(calls) == 1, (k, value)


def _planted_narrow(dtype, alpha, ks):
    """Each ``dtype`` product alpha*k and its two ``dtype`` neighbours."""
    edges = dtype(alpha) * np.asarray(ks).astype(dtype)
    below, above = np.nextafter(edges, dtype(-np.inf)), np.nextafter(edges, dtype(np.inf))
    return np.concatenate([below, edges, above])


@pytest.mark.parametrize(
    "dtype, ks", [(np.float32, range(-30000, 30000, 7)), (np.float16, range(-2048, 2048, 7))]
)
def test_narrow_floats_are_decided_as_their_float_values(dtype, ks):
    # NumPy 2 divides a float32 by a Python float in float32, and Fraction
    # refuses one: each value must give the floor of float(value)
    p = QuantParams(n=16, alpha=0.37)
    cfg = SnnLayerConfig(n=16, alpha=0.37, k=1)
    values = _planted_narrow(dtype, p.alpha, ks)
    factors = np.tile(np.asarray(ks), 3).tolist()
    for v, k in zip(values, factors):
        floor = math.floor(Fraction(float(v)) / Fraction(p.alpha))
        assert floor_ratio(v, p.alpha) == floor, v
        assert ge_scaled(v, p.alpha, k) == (floor >= k), v
        assert quantize(v, p) == min(max(floor, p.code_min), p.code_max), v
        t = min(max(cfg.code_max - floor, 0), cfg.window - 1)
        assert fire_analytic(v, cfg).time == (None if abs(t - cfg.i_max) <= cfg.k else t), v


@pytest.mark.parametrize("scale", FLOOR_SCALES)
def test_floor_ratio_matches_fraction_next_to_code_boundaries(scale):
    # 0-2 float steps either side of scale * k, for small k, random k and
    # k up to 2^52; a product that overflows is no float and is skipped
    rng = np.random.default_rng(7)
    ks = [0, 1, -1, 2, -2, 7, -8, 1000, -1001, 2**30 + 1, 2**51 + 3, 2**52 - 1, -(2**52) + 1]
    ks += rng.integers(-(2**52), 2**52, 20).tolist()
    for k in ks:
        edge = scale * k
        if math.isinf(edge):
            continue
        for steps in range(-2, 3):
            value = _ulps_away(edge, steps)
            want = math.floor(Fraction(value) / Fraction(scale))
            assert floor_ratio(value, scale) == want, (k, steps)


# --- array forms against the scalar oracles ------------------------------

ALPHAS = (1.0, 0.5, 0.1, 0.37)
SPECIALS = (math.inf, -math.inf, 1e300, -1e300, 5e-324, -5e-324, 2.2250738585072014e-308, 0.0, -0.0)


def _planted(alpha, codes):
    """Every boundary alpha*m of ``codes`` and its two float neighbours."""
    edges = alpha * np.asarray(codes, dtype=np.float64)
    return np.concatenate([np.nextafter(edges, -np.inf), edges, np.nextafter(edges, np.inf)])


def _count_fallbacks(monkeypatch, name):
    calls = []
    scalar = getattr(numerics, name)
    monkeypatch.setattr(numerics, name, lambda *a: calls.append(a) or scalar(*a))
    return calls


@pytest.mark.parametrize("alpha", ALPHAS)
def test_ge_scaled_array_matches_scalar_on_planted_ties(monkeypatch, alpha):
    # small codes, and factors wide enough that both halves of their split
    # carry bits
    wide = [2**40 + 12345, -(2**52 - 3), 987654321987, 2**53 - 1]
    codes = np.concatenate([np.arange(-300, 301), wide])
    values = np.concatenate([_planted(alpha, codes), SPECIALS])
    factors = np.concatenate([codes, codes, codes, np.arange(len(SPECIALS))])
    fallbacks = _count_fallbacks(monkeypatch, "ge_scaled")
    for shift in (-1, 0, 1):  # the boundary's own factor and both neighbours
        got = ge_scaled_array(values, alpha, factors + shift)
        for v, f, g in zip(values.tolist(), (factors + shift).tolist(), got.tolist()):
            assert g == ge_scaled(v, alpha, f), (alpha, v, f)
    # every planted tie and every special value stays on the array path
    assert not fallbacks


def test_ge_scaled_array_fallback_outside_the_exact_range(monkeypatch):
    # near-ties on subnormal products and on products past 2^995 stay on the
    # array path; only those of factors past 2^53 (no exact float) go to the
    # scalar function, and all decide exactly
    cases = [(1e-310, [3, -7]), (2.0**990, [64, -64]), (1.0, [2**60 + 1, -(2**60) - 1])]
    fallbacks = _count_fallbacks(monkeypatch, "ge_scaled")
    for scale, factors in cases:
        ties = scale * np.array(factors, dtype=np.float64)
        probes = np.concatenate([np.nextafter(ties, -np.inf), ties, np.nextafter(ties, np.inf)])
        facs = np.tile(factors, 3)
        got = ge_scaled_array(probes, scale, facs)
        for v, f, g in zip(probes.tolist(), facs.tolist(), got.tolist()):
            assert g == (Fraction(v) >= Fraction(scale) * f), (scale, v, f)
    assert len(fallbacks) == 6 and all(abs(f) > 2**53 for _, _, f in fallbacks)


@pytest.mark.parametrize("scale", [2.0**995, 2.0**997, 1e305, sys.float_info.max])
def test_zero_factor_at_a_huge_scale(scale):
    # v * 2^-e underflows for the tiny values, so a zero factor must compare
    # v itself with 0
    values = np.array([0.0, -0.0, 5e-324, -5e-324, 0.0, 1e300])
    factors = np.array([0, 0, 0, 0, 1, 0])
    got = ge_scaled_array(values, scale, factors)
    assert got.tolist() == [ge_scaled(v, scale, f) for v, f in zip(values.tolist(), factors.tolist())]
    assert got.tolist() == [True, True, True, False, False, True]
    p = QuantParams(3, alpha=scale)
    probes = [0.0, scale, 5e-324, -5e-324, 1e300, -1e300]
    assert quantize_array(probes, p).tolist() == [quantize(a, p) for a in probes]
    cfg = SnnLayerConfig(n=3, alpha=scale)
    want = train_times([fire_simulated(a, cfg) for a in probes])
    assert fire_simulated_array(probes, cfg).tolist() == want.tolist()


def _count_scalar_calls(monkeypatch):
    """Record every call of the scalar ``ge_scaled`` and ``floor_ratio``,
    through numerics and through the names spike and qnn import."""
    calls = []
    for name in ("ge_scaled", "floor_ratio"):
        scalar = getattr(numerics, name)
        for module in (numerics, spike, qnn):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, lambda *a, _f=scalar: calls.append(a) or _f(*a))
    return calls


@pytest.mark.parametrize("mode", [SYMMETRIC, ASYMMETRIC])
def test_quantize_array_floors_exactly_at_every_scale_without_scalar_calls(monkeypatch, mode):
    # 52-bit codes, the widest the array form takes: every code boundary
    # near the clip edges and near zero, and its float neighbours
    for alpha in (5e-324, 1e-310, 3 * 2.0**-1022, 1e-200, 0.37, 1.0, 3.0, 1e100, 1e290, 1e300):
        p = QuantParams(52, alpha=alpha, mode=mode)
        edges = [p.code_min - 1, p.code_min, p.code_min + 1, -2, -1, 0, 1, 2]
        codes = np.array(edges + [p.code_max - 1, p.code_max, p.code_max + 1], dtype=np.int64)
        with np.errstate(over="ignore"):
            values = np.concatenate([_planted(alpha, codes), SPECIALS])
        calls = _count_scalar_calls(monkeypatch)
        got = quantize_array(values, p)
        monkeypatch.undo()
        assert not calls, alpha
        assert got.tolist() == [quantize(v, p) for v in values.tolist()], alpha


@pytest.mark.parametrize("alpha", [5e-324, 1e-310, 1e305])
def test_ramp_and_array_firing_make_no_scalar_calls_at_extreme_scales(monkeypatch, alpha):
    # the ramp's products are subnormal, or overflow at both ends
    cfg = SnnLayerConfig(n=16, alpha=alpha, i_max=2**15 - 1, k=2)
    origin = cfg.code_max + cfg.theta_shift
    rng = np.random.default_rng(0)
    picks = np.unique(np.concatenate([rng.integers(0, cfg.window, 200), [0, 1, cfg.window - 1]]))
    with np.errstate(over="ignore"):
        edges = alpha * (origin - cfg.window + 1 + picks).astype(np.float64)
        probes = np.concatenate([_planted(1.0, edges), SPECIALS])
    calls = _count_scalar_calls(monkeypatch)
    ramp = cfg._ramp
    got = fire_simulated_array(probes, cfg)
    monkeypatch.undo()
    assert not calls
    for i in picks.tolist():  # the least float meeting each sampled threshold
        code = origin - cfg.window + 1 + i
        below = math.nextafter(float(ramp[i]), -math.inf)
        assert _exact_ge(float(ramp[i]), alpha, code), i
        assert math.isinf(below) or not _exact_ge(below, alpha, code), i
    assert [None if t < 0 else t for t in got.tolist()] == [fire_simulated(a, cfg).time for a in probes.tolist()]


@settings(max_examples=300, deadline=None)
@given(
    alpha=st.one_of(st.sampled_from(ALPHAS), EXTREME_SCALES),
    values=st.lists(st.floats(allow_nan=False), min_size=1, max_size=20),
    factors=st.lists(st.integers(-(2**60), 2**60), min_size=1, max_size=20),
)
def test_ge_scaled_array_matches_scalar_on_random_operands(alpha, values, factors):
    values, factors = values[: len(factors)], factors[: len(values)]
    got = ge_scaled_array(np.array(values), alpha, np.array(factors, dtype=np.int64))
    assert got.tolist() == [ge_scaled(v, alpha, f) for v, f in zip(values, factors)]


# scales 2^e, 3*2^e, a non-dyadic one, the int 1, tiny ones (a subnormal
# among them), and one near the top of the float range
EDGE_SCALES = (2.0**-20, 2.0**30, 3 * 2.0**-7, 3 * 2.0**40, 0.37, 1, 2.0**-900, 2.0**-901, 1e-310, 2.0**990)


def _significant_bits(scale) -> int:
    num = Fraction(scale).numerator
    return (num // (num & -num)).bit_length()


@settings(max_examples=300, deadline=None)
@given(
    scale=st.sampled_from(EDGE_SCALES),
    # the factors' top magnitude: significant bits summing to 53 or 54 with
    # the scale's, or a few bits (scale * top reaches 2^995 for 2^990)
    top=st.sampled_from(["53", "54", "31", "32"]),
    data=st.data(),
)
def test_ge_scaled_array_matches_scalar_at_the_certificate_edges(scale, top, data):
    bits = _significant_bits(scale)
    top = {"53": 2 ** (53 - bits) - 1, "54": 2 ** (54 - bits) - 1}.get(top) or int(top)
    factors = data.draw(st.lists(st.integers(-top, top), max_size=6))
    factors.append(top * data.draw(st.sampled_from([1, -1])))
    with np.errstate(over="ignore"):
        products = scale * np.array(factors, dtype=np.float64)  # rounded where inexact
    values = np.concatenate([_planted(1.0, products), [math.inf, -math.inf, math.nan]])
    facs = np.array(factors * 3 + [top] * 3, dtype=np.int64)
    certified = bits + top.bit_length() <= 53
    with pytest.MonkeyPatch.context() as mp:
        slow = []  # Dekker splits and scalar fallbacks
        for name in ("_split", "ge_scaled"):
            mp.setattr(numerics, name, lambda *a, _f=getattr(numerics, name): slow.append(a) or _f(*a))
        got = ge_scaled_array(values, scale, facs)
    assert got.tolist() == [ge_scaled(v, scale, f) for v, f in zip(values.tolist(), facs.tolist())]
    # a planted exact tie is never clear, so only the certificate skips both
    assert (not slow) == certified, (scale, top)
    assert ge_scaled_array(np.zeros(0), scale, np.zeros(0, dtype=np.int64)).shape == (0,)


def _assert_fsum_rows(rows):
    got = fsum_rows(np.array(rows, dtype=np.float64).reshape(len(rows), -1))
    assert [g.hex() for g in got.tolist()] == [math.fsum(row).hex() for row in rows]


FSUM_ROWS = [
    [2.0**52, 2.0**52 - 1, 0.0],  # 2^53 - 1: integers, summed magnitude below 2^53
    [2.0**53, 1.0, 1.0],  # a plain left-to-right sum loses both ones
    [2.0**53 - 1, 1.0, -1.0],  # exact sum below 2^53, summed magnitude not
    [-(2.0**52), -(2.0**52) + 1, -1.0],
    [1.0, -3.0, 0.5],  # one fractional term
    [0.1, 0.2, -0.3],
    [-0.0, -0.0, -0.0],
    [-0.0, 0.0, -0.0],
    [3.0, -3.0, -0.0],
    [math.inf, 1.0, 2.0],
    [math.nan, 1.0, 2.0],
]


@pytest.mark.parametrize("row", FSUM_ROWS)
def test_fsum_rows_matches_math_fsum_row_by_row(row):
    _assert_fsum_rows([row])


def test_fsum_rows_matches_math_fsum_on_mixed_blocks():
    _assert_fsum_rows(FSUM_ROWS)
    _assert_fsum_rows(FSUM_ROWS[:4] + FSUM_ROWS[6:9])  # integer terms only
    with pytest.raises(ValueError):
        fsum_rows([[1.0, 2.0], [-math.inf, math.inf]])  # as math.fsum raises
    assert fsum_rows(np.zeros((3, 0))).tolist() == [0.0, 0.0, 0.0]  # empty rows
    assert fsum_rows(np.zeros((0, 4))).shape == (0,)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(
        st.lists(st.integers(-(2**51), 2**51).map(float), min_size=3, max_size=3),
        min_size=1,
        max_size=5,
    ),
    fraction=st.sampled_from([0.0, 0.5, 2.0**-30]),
)
def test_fsum_rows_matches_math_fsum_on_integer_blocks(rows, fraction):
    rows[0][0] += fraction  # integer blocks, or one fractional term
    _assert_fsum_rows(rows)


def _fsum_products(a, b, mask):
    """``math.fsum`` of each entry's products; masked-out terms are +0.0."""
    return [
        [math.fsum(x * w if m else 0.0 for x, w, m in zip(row, col, keep)) for col in zip(*b)]
        for row, keep in zip(a, mask)
    ]


def _assert_exact_matmul(a, b, mask=None):
    """``exact_matmul`` of the operands as given against ``math.fsum`` of
    the products of their float64 copies."""
    floats = [np.array(x, dtype=np.float64).tolist() for x in (a, b)]
    keep = np.ones(np.shape(a), dtype=bool) if mask is None else np.asarray(mask)
    try:
        want = _fsum_products(*floats, keep.tolist())
    except (ValueError, OverflowError) as exc:  # inf - inf, or an overflowing partial sum
        with pytest.raises(type(exc)):
            exact_matmul(a, b, mask)
        return
    got = exact_matmul(a, b, mask)
    assert [[x.hex() for x in row] for row in got.tolist()] == [[x.hex() for x in row] for row in want]


def _count_magnitude_products(monkeypatch):
    """Shapes of the ``|a| @ |b|`` bounds ``exact_matmul`` computes."""
    products = []

    class Magnitudes(np.ndarray):
        def __matmul__(self, other):
            products.append(self.shape)
            return np.asarray(self) @ np.asarray(other)

    absolute = np.abs
    monkeypatch.setattr(np, "abs", lambda x: absolute(x).view(Magnitudes))
    return products


def test_exact_matmul_takes_the_integer_route_below_2_53(monkeypatch):
    fsums = _count_fallbacks(monkeypatch, "fsum_rows")
    products = _count_magnitude_products(monkeypatch)
    ones = [[1.0], [1.0]]
    # (a, b, certified, by inputs * max|a| * max|b| < 2^53 alone)
    for a, b, certified, cheap in [
        ([[2.0**51, 2.0**51]], ones, True, True),  # 2 x 2^51 x 1 bounds every sum
        ([[2.0**52, 2.0**52 - 1]], ones, True, False),  # that bound reads 2^53, the sum 2^53 - 1
        ([[2.0**52, 2.0**52]], ones, False, False),  # the sum reaches 2^53
        ([[2.0**60, -(2.0**60)]], [[0.0], [0.0]], True, True),  # a zero operand bounds by zero
        ([[math.inf, 1.0]], [[0.0], [1.0]], False, False),  # inf x 0 is NaN
        ([[math.inf, 1.0]], ones, False, False),
        ([[math.nan, 1.0]], ones, False, True),  # not integral: no bound is computed
        ([[1.0, 1.0]], [[math.nan], [1.0]], False, True),
    ]:
        for left in (a, np.array(a, dtype=np.int64)) if math.isfinite(a[0][0]) else (a,):
            fsums.clear()
            products.clear()
            _assert_exact_matmul(left, b)  # an integer-dtype operand takes the same route
            assert (not fsums) == certified, (a, b)
            assert products == ([] if cheap else [(1, 2)]), (a, b)
    _assert_exact_matmul([[2.0**53, 1.0, 1.0]], np.ones((3, 1)))  # a plain sum loses both ones
    # silent +0.0 inputs against negative weights: fsum's zero is +0.0
    _assert_exact_matmul([[0.0, 0.0]], [[-1.0], [-3.0]])
    _assert_exact_matmul([[2.0, 5.0]], [[-1.0], [-3.0]], mask=[[False, False]])
    assert exact_matmul([[0.0]], [[-2.0]]).tolist()[0][0].hex() == "0x0.0p+0"
    # a silent input never touches its weight, even an infinite one
    _assert_exact_matmul([[1.0, 7.0]], [[2.0], [math.inf]], mask=[[True, False]])
    _assert_exact_matmul([[1.0, 7.0]], [[math.inf], [-math.inf]])  # raises as fsum_rows does
    _assert_exact_matmul([[1.0, 7.0]], [[math.inf], [1.0]])


_ENTRIES = {
    "integer": st.integers(-(2**27), 2**27).map(float),
    "real": st.one_of(
        st.floats(-1e3, 1e3),
        st.sampled_from([0.0, -0.0, 0.1, math.inf, -math.inf, math.nan, 1e308, -1e308]),
    ),
}


def _matrix(entry, rows, cols):
    return st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(_ENTRIES)), shape=st.tuples(*[st.integers(1, 4)] * 3), data=st.data())
def test_exact_matmul_matches_math_fsum_of_products(kind, shape, data):
    rows, inputs, outputs = shape
    a = data.draw(_matrix(_ENTRIES[kind], rows, inputs))
    b = data.draw(_matrix(_ENTRIES[kind], inputs, outputs))
    mask = data.draw(st.none() | _matrix(st.booleans(), rows, inputs))
    with np.errstate(all="ignore"):
        _assert_exact_matmul(a, b, mask)


# int64 entries: small ones, and ones past 2^53 that round as floats
_INT_ENTRIES = st.one_of(
    st.integers(-(2**31), 2**31),
    st.sampled_from([0, 2**53 + 1, -(2**62) - 1, 2**63 - 1, -(2**63)]),
)
_FLOAT_ENTRIES = st.one_of(
    _ENTRIES["integer"], st.sampled_from([0.0, -0.0, 0.5, math.inf, -math.inf, math.nan])
)


@settings(max_examples=300, deadline=None)
@given(
    dtypes=st.sampled_from([(np.int64, np.int64), (np.int64, np.float64), (np.float64, np.int64)]),
    shape=st.tuples(*[st.integers(1, 4)] * 3),
    data=st.data(),
)
def test_exact_matmul_reads_an_integer_dtype_operand_as_its_floats(dtypes, shape, data):
    # an integer-dtype operand skips the integrality test: the result is
    # math.fsum's of the products of its floats, and its float64 copy's,
    # bit for bit (an inf - inf raises for both)
    rows, inputs, outputs = shape
    entries = [_INT_ENTRIES if dtype is np.int64 else _FLOAT_ENTRIES for dtype in dtypes]
    a = np.array(data.draw(_matrix(entries[0], rows, inputs)), dtype=dtypes[0])
    b = np.array(data.draw(_matrix(entries[1], inputs, outputs)), dtype=dtypes[1])
    mask = data.draw(st.none() | _matrix(st.booleans(), rows, inputs))
    fa, fb = a.astype(np.float64), b.astype(np.float64)
    keep = np.ones(a.shape, dtype=bool) if mask is None else np.asarray(mask)
    with np.errstate(all="ignore"):
        try:
            want = _fsum_products(fa.tolist(), fb.tolist(), keep.tolist())
        except ValueError:
            for operands in ((a, b), (fa, fb)):
                with pytest.raises(ValueError):
                    exact_matmul(*operands, mask)
            return
        results = [exact_matmul(*operands, mask).tolist() for operands in ((a, b), (fa, fb))]
    assert [[[x.hex() for x in row] for row in got] for got in results] == [
        [[x.hex() for x in row] for row in want]
    ] * 2


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("n, mode", [(1, "symmetric"), (4, "asymmetric"), (8, "symmetric"), (16, "asymmetric")])
def test_quantize_array_matches_scalar(alpha, n, mode):
    p = QuantParams(n=n, alpha=alpha, mode=mode)
    codes = np.arange(p.code_min - 3, p.code_max + 4)
    values = np.concatenate([_planted(alpha, codes[:40]), _planted(alpha, codes[-40:]), SPECIALS])
    got = quantize_array(values, p)
    assert got.tolist() == [quantize(v, p) for v in values.tolist()]
    with pytest.raises(ValueError, match="NaN"):
        quantize_array(np.array([0.0, math.nan]), p)


@settings(max_examples=300, deadline=None)
@given(
    alpha=st.one_of(st.sampled_from(ALPHAS), EXTREME_SCALES),
    n=st.integers(1, 52),
    mode=st.sampled_from([SYMMETRIC, ASYMMETRIC]),
    dtype=st.sampled_from([np.float64, np.float32, np.int64, np.bool_]),
    data=st.data(),
)
def test_quantize_array_matches_quantize_on_drawn_arrays(alpha, n, mode, dtype, data):
    # bit for bit against the scalar quantizer: planted ties alpha * m and
    # their neighbours, +/-inf, and values drawn over and far past the range,
    # as one (rows, 3) array of any real dtype
    p = QuantParams(n=n, alpha=alpha, mode=mode)
    ms = data.draw(st.lists(st.integers(p.code_min - 2, p.code_max + 2), max_size=6))
    with np.errstate(over="ignore"):
        planted = _planted(alpha, ms)
    drawn = data.draw(st.lists(st.floats(allow_nan=False), max_size=9))
    values = np.concatenate([planted, drawn, [math.inf, -math.inf]])
    if dtype is np.int64:
        values = np.clip(np.nan_to_num(values), -(2.0**62), 2.0**62)
    with np.errstate(over="ignore", invalid="ignore"):
        values = values[: len(values) // 3 * 3].astype(dtype).reshape(-1, 3)
    got = quantize_array(values, p)
    assert got.dtype == np.int64 and got.shape == values.shape
    assert got.tolist() == [[quantize(float(v), p) for v in row] for row in values.tolist()]


@settings(max_examples=300, deadline=None)
@given(
    scale=st.one_of(st.sampled_from(ALPHAS), EXTREME_SCALES),
    rows=st.integers(1, 4),
    cols=st.integers(1, 4),
    # (values, factors) shapes: equal, or either one broadcast
    layout=st.sampled_from(["same", "factor row", "factor column", "factor scalar", "value row"]),
    data=st.data(),
)
def test_ge_scaled_array_matches_ge_scaled_on_same_shape_and_broadcast_operands(
    scale, rows, cols, layout, data
):
    full = (rows, cols)
    v_shape = (1, cols) if layout == "value row" else full
    broadcast = {"factor row": (1, cols), "factor column": (rows, 1), "factor scalar": ()}
    f_shape = broadcast.get(layout, full)
    count = math.prod(f_shape)
    factors = data.draw(st.lists(st.integers(-(2**60), 2**60), min_size=count, max_size=count))
    factors = np.array(factors, dtype=np.int64).reshape(f_shape)
    # each value is a planted tie scale * f (rounded where inexact), one of
    # its neighbours, a drawn float or +/-inf
    with np.errstate(over="ignore"):  # a tie or its neighbour may overflow to inf
        ties = (scale * np.broadcast_to(factors, full).astype(np.float64))[: v_shape[0]].ravel()
        picks = data.draw(st.lists(st.integers(0, 5), min_size=ties.size, max_size=ties.size))
        drawn = data.draw(st.lists(st.floats(allow_nan=False), min_size=ties.size, max_size=ties.size))
        choices = (np.nextafter(ties, -np.inf), ties, np.nextafter(ties, np.inf), drawn)
    choices += (np.full(ties.size, math.inf), np.full(ties.size, -math.inf))
    values = np.array([choices[c][i] for i, c in enumerate(picks)]).reshape(v_shape)
    got = ge_scaled_array(values, scale, factors)
    v, f = np.broadcast_arrays(values, factors)
    assert got.shape == full
    assert got.tolist() == [
        [ge_scaled(a, scale, b) for a, b in zip(vr, fr)] for vr, fr in zip(v.tolist(), f.tolist())
    ]
