"""Exact scaled comparison and floor: float fast path vs rational truth."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matterhorn import numerics
from matterhorn.numerics import floor_ratio, floor_ratio_array, ge_scaled, ge_scaled_array
from matterhorn.qnn import QuantParams, quantize, quantize_array
from matterhorn.spike import ASYMMETRIC, SnnLayerConfig, fire_analytic, fire_simulated

scales = st.sampled_from([1.0, 0.5, 0.25, 0.1, 0.3, 0.7, 2.5, 3.0, 1e-3, 1e3, math.pi])


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
    # only the infinities leave the array path; every planted tie stays on it
    assert len(fallbacks) == 3 * 2


def test_ge_scaled_array_fallback_outside_the_exact_range(monkeypatch):
    # near-ties on subnormal products, on products past 2^995 and on factors
    # past 2^53 all go to the scalar function, and still decide exactly
    cases = [(1e-310, [3, -7]), (2.0**990, [64, -64]), (1.0, [2**60 + 1, -(2**60) - 1])]
    fallbacks = _count_fallbacks(monkeypatch, "ge_scaled")
    probes_made = 0
    for scale, factors in cases:
        ties = scale * np.array(factors, dtype=np.float64)
        probes = np.concatenate([np.nextafter(ties, -np.inf), ties, np.nextafter(ties, np.inf)])
        facs = np.tile(factors, 3)
        got = ge_scaled_array(probes, scale, facs)
        probes_made += probes.size
        for v, f, g in zip(probes.tolist(), facs.tolist(), got.tolist()):
            assert g == (Fraction(v) >= Fraction(scale) * f), (scale, v, f)
    assert len(fallbacks) == probes_made


@settings(max_examples=300, deadline=None)
@given(
    alpha=st.sampled_from(ALPHAS),
    values=st.lists(st.floats(allow_nan=False), min_size=1, max_size=20),
    factors=st.lists(st.integers(-(2**60), 2**60), min_size=1, max_size=20),
)
def test_ge_scaled_array_matches_scalar_on_random_operands(alpha, values, factors):
    values, factors = values[: len(factors)], factors[: len(values)]
    got = ge_scaled_array(np.array(values), alpha, np.array(factors, dtype=np.int64))
    assert got.tolist() == [ge_scaled(v, alpha, f) for v, f in zip(values, factors)]


@pytest.mark.parametrize("alpha", ALPHAS)
def test_floor_ratio_array_matches_scalar(monkeypatch, alpha):
    huge = np.array([2.0**52, 2.0**60, -(2.0**61)]) * alpha
    values = np.concatenate([_planted(alpha, np.arange(-300, 301)), SPECIALS[2:], huge])
    values = values[np.abs(values / alpha) < 2.0**62]  # exact floors that fit int64
    fallbacks = _count_fallbacks(monkeypatch, "floor_ratio")
    got = floor_ratio_array(values, alpha)
    assert got.dtype == np.int64
    assert got.tolist() == [floor_ratio(v, alpha) for v in values.tolist()]
    assert len(fallbacks) == np.count_nonzero(np.abs(values / alpha) >= 2.0**52) > 0


@settings(max_examples=300, deadline=None)
@given(
    alpha=st.sampled_from(ALPHAS),
    values=st.lists(st.floats(min_value=-1e12, max_value=1e12), min_size=1, max_size=20),
)
def test_floor_ratio_array_matches_scalar_on_random_values(alpha, values):
    got = floor_ratio_array(np.array(values), alpha)
    assert got.tolist() == [floor_ratio(v, alpha) for v in values]


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
