"""Exact scaled comparison and floor: float fast path vs rational truth."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from matterhorn.numerics import floor_ratio, ge_scaled
from matterhorn.qnn import QuantParams, quantize
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
