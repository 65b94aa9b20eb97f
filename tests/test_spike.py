"""Spike encoding, integration and firing: examples, invariants, oracles."""

import copy
import dataclasses
import itertools
import math
import pickle
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matterhorn import attention, qnn, spike, stats
from matterhorn.spike import (
    ASYMMETRIC,
    SYMMETRIC,
    QuantParams,
    SnnLayerConfig,
    SpikeTrain,
    candidate_fire_time,
    decode_spike,
    decode_spike_array,
    encode_integer,
    encode_integer_array,
    fire_analytic,
    fire_simulated,
    fire_simulated_array,
    integrate,
    integrate_array,
    require_real,
    train_times,
)


def cfg_sym16(k=0, i_max=7, **kw):
    return SnnLayerConfig(n=4, alpha=1.0, mode=SYMMETRIC, i_max=i_max, k=k, **kw)


# --- SpikeTrain ---------------------------------------------------------


def test_train_time_and_silence():
    assert SpikeTrain(8, None).time is None
    assert SpikeTrain(8, 5).time == 5
    assert SpikeTrain(8, None).is_silent


def test_train_is_a_frozen_record_of_window_and_time():
    train = SpikeTrain(8, 5)
    assert train == SpikeTrain(8, 5) and hash(train) == hash((8, 5))
    assert SpikeTrain(8, None) != SpikeTrain(16, None)
    assert train != SpikeTrain(8, 4) and train != (8, 5)
    assert not hasattr(train, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        train.time = 4
    for t in (-1, 8):
        with pytest.raises(ValueError, match="outside window"):
            SpikeTrain(8, t)


# --- configuration ------------------------------------------------------


def test_config_derives_mu():
    assert cfg_sym16().mu == 0  # 16/2 - 1 - 7
    assert SnnLayerConfig(n=4, mode=ASYMMETRIC, i_max=15).mu == 0
    assert SnnLayerConfig(n=4, mode=ASYMMETRIC, i_max=12).mu == 3


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        SnnLayerConfig(n=4, i_max=16)
    with pytest.raises(ValueError):
        SnnLayerConfig(n=4, i_max=7, k=-1)
    with pytest.raises(ValueError):
        SnnLayerConfig(n=4, alpha=0.0)
    with pytest.raises(ValueError):
        SnnLayerConfig(n=4, mode="ternary")


# The scalar oracles read these once or more per call: a class-level
# descriptor (a property, a cached_property) makes every read take the
# generic attribute lookup, even once its value is cached.
_CONSTANTS = ("code_min", "code_max", "window", "mu", "_codebook")


@pytest.mark.parametrize("cls", [QuantParams, SnnLayerConfig])
def test_constants_are_instance_attributes_not_descriptors(cls):
    assert not set(_CONSTANTS) & vars(cls).keys()


def test_cached_constants_stay_out_of_the_fields():
    cfg = SnnLayerConfig(n=4, alpha=0.37, mode=SYMMETRIC, i_max=7, k=1)
    fresh = SnnLayerConfig(n=4, alpha=0.37, mode=SYMMETRIC, i_max=7, k=1)
    derived = (cfg.code_min, cfg.code_max, cfg.window, cfg.mu)
    assert derived == (-8, 7, 16, 0)
    unit, score = cfg._stage_configs  # the attention pipeline's, built on cfg alone
    assert (unit.alpha, score.mode, score.i_max) == (1.0, ASYMMETRIC, 15)
    assert dataclasses.asdict(cfg) == dataclasses.asdict(fresh)
    assert cfg == fresh and hash(cfg) == hash(fresh) and repr(cfg) == repr(fresh)
    wider = dataclasses.replace(cfg, n=5)
    assert (wider.window, wider.code_min, wider.code_max, wider.mu) == (32, -16, 15, 8)
    assert [stage.n for stage in wider._stage_configs] == [5, 5]  # not cfg's, carried over
    assert cfg.window == 16  # the original keeps its own constants
    assert cfg._stage_configs[0] is unit
    moved = dataclasses.replace(cfg, i_max=5, mode=ASYMMETRIC)
    assert (moved.code_min, moved.code_max, moved.window, moved.mu) == (0, 15, 16, 10)
    for name in _CONSTANTS:  # set at construction, frozen after it
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        QuantParams(4).code_min = 0
    assert (cfg.code_min, cfg.mu, cfg._codebook) == (-8, 0, {})


@pytest.mark.parametrize("round_trip", [copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))])
def test_constants_survive_a_copy(round_trip):
    cfg = SnnLayerConfig(n=4, alpha=0.37, i_max=9, k=1, theta_shift=1)
    encode_integer(3, cfg)
    other = round_trip(cfg)
    assert other == cfg and hash(other) == hash(cfg)
    assert [getattr(other, c) for c in _CONSTANTS] == [getattr(cfg, c) for c in _CONSTANTS]
    assert other._codebook is not cfg._codebook
    assert encode_integer(3, other) == encode_integer(3, cfg)


@pytest.mark.parametrize("field", ["i_max", "k", "theta_shift"])
@pytest.mark.parametrize("bad", [0.5, 1.0, True, "1"])
def test_config_refuses_non_integral_codes_and_radii(field, bad):
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        SnnLayerConfig(n=4, **{"i_max": 7, field: bad})


@pytest.mark.parametrize("cls", [QuantParams, SnnLayerConfig])
@pytest.mark.parametrize("bad", [True, "1", None])
def test_config_refuses_a_non_real_scale(cls, bad):
    # alpha=True once built a layer of scale 1; "1" leaked a bare TypeError
    with pytest.raises(ValueError, match="^alpha must be a real number"):
        cls(n=4, alpha=bad)


@pytest.mark.parametrize("cls", [QuantParams, SnnLayerConfig])
def test_config_refuses_a_scale_that_is_no_exact_float(cls):
    # the array kernels compute with float(alpha) and the scalar ones with
    # alpha itself: 2^60 + 1 once quantized 2^60 to 1 on one side, 0 on the other
    for bad in (2**60 + 1, Fraction(1, 3)):
        with pytest.raises(ValueError, match="^scale must be an exact float"):
            cls(n=4, alpha=bad)
    with pytest.raises(ValueError, match="^alpha is too large for a float"):
        cls(n=4, alpha=10**400)  # once an OverflowError from math.isfinite
    for exact in (2**60, np.int64(2**60), Fraction(3, 8), 0.1):
        assert cls(n=4, alpha=exact).alpha == exact


def test_require_real_refuses_what_overflows_a_float():
    for huge in (10**400, Fraction(10**400, 3), -(10**400)):
        with pytest.raises(ValueError, match="^gamma is too large for a float"):
            require_real("gamma", huge)
    require_real("gamma", 2**1000)  # large, but a float holds it


def test_config_accepts_python_and_numpy_integer_fields():
    for value in (1, np.int64(1), np.int32(1), np.uint8(1)):
        cfg = SnnLayerConfig(n=4, i_max=value + 6, k=value, theta_shift=value)
        assert (cfg.mu, cfg.k, cfg.theta_shift) == (0, 1, 1)


def test_dead_zone_clipped_to_window():
    # center near the window edge: only the in-window part is masked
    cfg = SnnLayerConfig(n=3, i_max=7, k=3)
    masked = [t for t in range(8) if cfg.in_dead_zone(t)]
    assert masked == [4, 5, 6, 7]


# --- encode / decode ----------------------------------------------------


def test_encode_most_frequent_code_is_silent():
    assert encode_integer(0, cfg_sym16()).is_silent


def test_encode_max_code_fires_first():
    assert encode_integer(7, cfg_sym16()).time == 0


def test_encode_dead_zone_radius_one_silences_neighbors():
    assert encode_integer(1, cfg_sym16(k=1)).is_silent
    assert encode_integer(-1, cfg_sym16(k=1)).is_silent
    assert encode_integer(2, cfg_sym16(k=1)).time == 5


def test_encode_out_of_range_raises():
    with pytest.raises(ValueError):
        encode_integer(8, cfg_sym16())
    with pytest.raises(ValueError):
        encode_integer(-1, SnnLayerConfig(n=4, mode=ASYMMETRIC, i_max=15))


def test_decode_examples():
    assert decode_spike(SpikeTrain(16, 4), cfg_sym16()) == 3
    assert decode_spike(SpikeTrain(16, None), cfg_sym16()) == 0
    # the flattened region decodes to mu regardless of exact position
    assert decode_spike(SpikeTrain(16, 7), cfg_sym16(k=2)) == 0


def test_round_trip_equals_dead_zone_filter():
    for n in (2, 3, 4):
        for mode in (SYMMETRIC, ASYMMETRIC):
            for k in (0, 1, 2):
                top = 2 ** (n - 1) - 1 if mode == SYMMETRIC else 2**n - 1
                cfg = SnnLayerConfig(n=n, mode=mode, i_max=top - 1, k=k)
                for q in range(cfg.code_min, cfg.code_max + 1):
                    expected = cfg.mu if abs(q - cfg.mu) <= k else q
                    assert decode_spike(encode_integer(q, cfg), cfg) == expected


def test_kernel_recovers_code_outside_dead_zone():
    for mode in (SYMMETRIC, ASYMMETRIC):
        cfg = SnnLayerConfig(n=4, mode=mode, i_max=7, k=1)
        for q in range(cfg.code_min, cfg.code_max + 1):
            t = cfg.code_max - q
            if not cfg.in_dead_zone(t):
                assert cfg.kernel(t) == q


# --- integrate ----------------------------------------------------------


def test_integrate_single_input():
    cfg = cfg_sym16()
    potential = integrate([(encode_integer(3, cfg), 2.0)], cfg)
    assert potential == 6.0


def test_integrate_all_silent_keeps_bias():
    cfg = cfg_sym16()
    potential = integrate([(SpikeTrain(16, None), 3.0)], cfg, bias=5.0)
    assert potential == 5.0


def test_integrate_mixed_signs():
    cfg = cfg_sym16()
    inputs = [(encode_integer(2, cfg), 1.0), (encode_integer(-1, cfg), 1.0)]
    assert integrate(inputs, cfg) == 1.0


def test_integrate_window_mismatch_raises():
    cfg = cfg_sym16()
    with pytest.raises(ValueError):
        integrate([(SpikeTrain(8, None), 1.0)], cfg)


def test_integrate_matches_dot_product_oracle():
    rng = np.random.default_rng(11)
    cfg = cfg_sym16(k=1)
    for _ in range(50):
        codes = rng.integers(cfg.code_min, cfg.code_max + 1, 6)
        weights = rng.integers(-4, 5, 6).astype(float)
        filtered = np.where(np.abs(codes - cfg.mu) <= cfg.k, cfg.mu, codes)
        potential = integrate(
            [(encode_integer(int(q), cfg), w) for q, w in zip(codes, weights)], cfg
        )
        assert potential == float(weights @ filtered)


# --- firing -------------------------------------------------------------


def brute_fire_time(a, cfg):
    """Independent oracle: scan the schedule step by step in exact integer
    arithmetic, clamp at the window end."""
    if math.isinf(a):
        return 0 if a > 0 else cfg.window - 1
    num, den = a.as_integer_ratio()
    alpha_num, alpha_den = cfg.alpha.as_integer_ratio()
    # a >= alpha * m  <=>  num * alpha_den >= alpha_num * den * m
    lhs, unit = num * alpha_den, alpha_num * den
    for t in range(cfg.window):
        if lhs >= unit * (cfg.code_max - t + cfg.theta_shift):
            return t
    return cfg.window - 1


def test_fire_simulated_threshold_walk():
    cfg = cfg_sym16()
    assert fire_simulated(3.0, cfg).time == 4
    assert brute_fire_time(3.0, cfg) == 4


def test_fire_simulated_mask_suppression():
    cfg = cfg_sym16()
    # potential crossing exactly at i_max=7 (code 0)
    assert brute_fire_time(0.0, cfg) == 7
    assert fire_simulated(0.0, cfg).is_silent


def test_fire_simulated_immediate_crossing():
    cfg = cfg_sym16()
    assert fire_simulated(100.0, cfg).time == 0


def test_fire_analytic_examples():
    cfg = cfg_sym16()
    assert fire_analytic(3.0, cfg).time == 4
    assert fire_analytic(1e300, cfg).time == 0
    assert fire_analytic(math.inf, cfg).time == 0
    # deeply negative saturates at the window end by default
    assert fire_analytic(-1e6, cfg).time == 15


def test_fire_rejects_nan():
    cfg = cfg_sym16()
    with pytest.raises(ValueError):
        fire_analytic(math.nan, cfg)


def test_infinite_potential_against_an_overflowing_threshold():
    # alpha * 7 overflows to inf, yet +inf meets that real threshold and
    # -inf meets none; the float compare inf > inf used to say it missed
    cfg = SnnLayerConfig(n=4, alpha=1e308, i_max=7)
    for potential, t in ((math.inf, 0), (-math.inf, 15)):
        want = SpikeTrain(16, t)
        assert fire_simulated(potential, cfg) == fire_analytic(potential, cfg) == want


config_strategy = st.builds(
    SnnLayerConfig,
    n=st.sampled_from([2, 3, 4]),
    alpha=st.sampled_from([1.0, 0.5, 0.25, 0.1, 3.0, 1e-3, math.pi / 4]),
    mode=st.sampled_from([SYMMETRIC, ASYMMETRIC]),
    i_max=st.integers(0, 3),  # always inside the smallest window
    k=st.integers(0, 2),
    theta_shift=st.integers(-1, 1),
)


def _ramp_probes(cfg, steps=None):
    """Each threshold of the ramp (or of the planted ``steps`` only), two
    steps past either end included, with its float neighbours, plus the
    infinities and two huge reals."""
    t = np.arange(-2, cfg.window + 2) if steps is None else np.array(steps) % (cfg.window + 4) - 2
    ties = cfg.alpha * (cfg.code_max + cfg.theta_shift - t).astype(np.float64)
    probes = [np.nextafter(ties, -np.inf), ties, np.nextafter(ties, np.inf)]
    return np.concatenate([*probes, [np.inf, -np.inf, 1e300, -1e300]]).tolist()


@settings(max_examples=150, deadline=None)
@given(
    cfg=config_strategy,
    n=st.integers(2, 16),
    steps=st.lists(st.integers(0, 2**16 + 3), min_size=1, max_size=4),
)
def test_candidate_fire_time_matches_linear_scan(cfg, n, steps):
    # up to 2^6 steps every threshold is probed, wider windows at planted steps
    cfg = dataclasses.replace(cfg, n=n)
    for a in _ramp_probes(cfg, None if n <= 6 else steps):
        assert candidate_fire_time(a, cfg) == brute_fire_time(a, cfg), a


@pytest.mark.parametrize("n", [1, 2, 3, 4, 9, 16])
@pytest.mark.parametrize("theta_shift", [-2, 0, 1])
def test_candidate_fire_time_makes_at_most_n_comparisons(monkeypatch, n, theta_shift):
    calls = []
    exact = spike.ge_scaled
    monkeypatch.setattr(spike, "ge_scaled", lambda *a: calls.append(a) or exact(*a))
    cfg = SnnLayerConfig(n=n, alpha=0.37, theta_shift=theta_shift)
    steps = np.random.default_rng(n).integers(0, cfg.window + 4, 200)
    for a in _ramp_probes(cfg, None if n <= 9 else steps):
        calls.clear()
        candidate_fire_time(a, cfg)
        assert len(calls) <= n, a


@settings(max_examples=300, deadline=None)
@given(
    cfg=config_strategy,
    a=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
)
def test_analytic_matches_simulated_everywhere(cfg, a):
    assert fire_analytic(a, cfg) == fire_simulated(a, cfg)


@settings(max_examples=200, deadline=None)
@given(
    cfg=config_strategy,
    q=st.integers(-8, 15),
)
def test_every_output_satisfies_at_most_one_spike(cfg, q):
    if cfg.code_min <= q <= cfg.code_max:
        train = encode_integer(q, cfg)
        assert int(train.bits.sum()) <= 1
        assert fire_analytic(cfg.alpha * q, cfg).bits.sum() <= 1


@settings(max_examples=200, deadline=None)
@given(
    cfg=config_strategy,
    q=st.integers(-2, 3),
    w=st.sampled_from([-3.0, -1.0, -0.5, 0.5, 1.0, 2.0]),
    bias=st.sampled_from([-1.5, 0.0, 0.25, 2.0]),
)
def test_analytic_matches_simulated_through_encoding(cfg, q, w, bias):
    # same comparison, but the potential is built by real spike integration
    if not cfg.code_min <= q <= cfg.code_max:
        return
    potential = integrate([(encode_integer(q, cfg), w)], cfg, bias=bias)
    assert fire_analytic(potential, cfg) == fire_simulated(potential, cfg)


def test_oracle_equivalence_dense_grid():
    # dense pre-activation grid spanning twice the code range, many configs
    for n in (2, 3, 4):
        for mode in (SYMMETRIC, ASYMMETRIC):
            for k in (0, 1, 2):
                cfg = SnnLayerConfig(n=n, alpha=0.5, mode=mode, i_max=2**n - 2, k=k)
                span = 2 * cfg.alpha * 2 ** (n - 1)
                for a in np.linspace(-span, span, 400):
                    a = float(a)
                    assert fire_analytic(a, cfg) == fire_simulated(a, cfg)


# --- unmasked baseline policy --------------------------------------------


# --- array forms against the scalar oracles ------------------------------


def _time(train):
    return -1 if train.is_silent else train.time


@settings(max_examples=200, deadline=None)
@given(cfg=config_strategy)
def test_encode_and_decode_arrays_match_scalar(cfg):
    codes = np.arange(cfg.code_min, cfg.code_max + 1)
    times = encode_integer_array(codes, cfg)
    assert times.tolist() == [_time(encode_integer(int(q), cfg)) for q in codes]
    every_time = np.arange(-1, cfg.window)
    trains = [SpikeTrain(cfg.window, None)] + [SpikeTrain(cfg.window, t) for t in range(cfg.window)]
    assert decode_spike_array(every_time, cfg).tolist() == [decode_spike(tr, cfg) for tr in trains]


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 8),
    mode=st.sampled_from([SYMMETRIC, ASYMMETRIC]),
    i_max=st.integers(0, 2**8 - 1),
    k=st.integers(0, 2),
    alpha=st.floats(1e-300, 1e300),
)
def test_encode_and_decode_arrays_read_no_scale(n, mode, i_max, k, alpha):
    # why encode takes no --alpha: times and codes are the same at any scale
    unit = SnnLayerConfig(n=n, mode=mode, i_max=i_max % 2**n, k=k)
    scaled = dataclasses.replace(unit, alpha=alpha)
    codes = np.arange(unit.code_min, unit.code_max + 1)
    assert np.array_equal(encode_integer_array(codes, scaled), encode_integer_array(codes, unit))
    every_time = np.arange(-1, unit.window)
    assert np.array_equal(decode_spike_array(every_time, scaled), decode_spike_array(every_time, unit))


@settings(max_examples=200, deadline=None)
@given(
    cfg=config_strategy,
    seed=st.integers(0, 2**32 - 1),
    fan_in=st.integers(1, 6),
)
def test_integrate_array_matches_scalar(cfg, seed, fan_in):
    rng = np.random.default_rng(seed)
    times = rng.integers(-1, cfg.window, (5, fan_in))
    weights = rng.normal(size=(fan_in, 3)) * rng.choice([1.0, 1e-3, 1e3], (fan_in, 3))
    bias = rng.normal(size=3)
    got = integrate_array(times, weights, cfg, bias)
    for row, potentials in zip(times.tolist(), got.tolist()):
        trains = [SpikeTrain(cfg.window, None) if t < 0 else SpikeTrain(cfg.window, t) for t in row]
        for j, potential in enumerate(potentials):
            want = integrate(list(zip(trains, weights[:, j])), cfg, bias=bias[j])
            assert potential.hex() == want.hex()


@settings(max_examples=200, deadline=None)
@given(
    cfg=config_strategy,
    reals=st.lists(st.floats(min_value=-100.0, max_value=100.0), max_size=10),
)
def test_fire_simulated_array_matches_scalar(cfg, reals):
    # every threshold of the ramp, its float neighbours, the infinities and
    # arbitrary reals
    ramp = cfg.alpha * np.arange(cfg.code_min - 2, cfg.code_max + 3, dtype=np.float64)
    potentials = np.concatenate(
        [np.nextafter(ramp, -np.inf), ramp, np.nextafter(ramp, np.inf), [np.inf, -np.inf], reals]
    )
    got = fire_simulated_array(potentials, cfg)
    assert got.tolist() == [_time(fire_simulated(a, cfg)) for a in potentials.tolist()]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 16),
    mode=st.sampled_from([SYMMETRIC, ASYMMETRIC]),
    alpha=st.sampled_from([1.0, 0.37, 0.1, 1e305, 1e-310]),
    theta_shift=st.integers(0, 1),
    k=st.integers(0, 2),
    steps=st.lists(st.integers(0, 2**16 + 3), min_size=1, max_size=4),
)
def test_fire_simulated_array_matches_scalar_at_every_width(
    n, mode, alpha, theta_shift, k, steps
):
    i_max = QuantParams(n=n, mode=mode).code_max  # silent state on code zero
    cfg = SnnLayerConfig(n=n, alpha=alpha, mode=mode, i_max=i_max, k=k, theta_shift=theta_shift)
    # thresholds of planted steps, two past either end of the window included
    t = np.array(steps) % (cfg.window + 4) - 2
    with np.errstate(over="ignore"):
        ties = alpha * (cfg.code_max + theta_shift - t).astype(np.float64)
    potentials = np.concatenate(
        [
            np.nextafter(ties, -np.inf),
            ties,
            np.nextafter(ties, np.inf),
            [np.inf, -np.inf, 1e300, -1e300, 0.0, 5e-324, -5e-324],
        ]
    )
    got = fire_simulated_array(potentials, cfg)
    assert got.tolist() == [_time(fire_simulated(a, cfg)) for a in potentials.tolist()]


# subnormal to near the top of the float range, dyadic and not
RAMP_SCALES = (
    5e-324, 1e-310, 2.0**-1000, 1e-300, 1e-3, 0.1, 0.37,
    1.0, math.pi / 4, 3.0, 1e10, 2.0**995, 1e305, 1.7e308,
)


def _ceiling(x):
    """The least float >= the rational ``x``: -max below the float range,
    inf above it."""
    try:
        c = float(x)  # correctly rounded
    except OverflowError:
        return math.inf if x > 0 else -sys.float_info.max
    return c if Fraction(c) >= x else math.nextafter(c, math.inf)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 16),
    alpha=st.sampled_from(RAMP_SCALES),
    mode=st.sampled_from([SYMMETRIC, ASYMMETRIC]),
    theta_shift=st.one_of(st.integers(-3, 2), st.integers(-3, 2**20)),
    picks=st.lists(st.integers(0, 2**16 - 1), max_size=16),
)
def test_ramp_entries_are_exact_ceilings(n, alpha, mode, theta_shift, picks):
    cfg = SnnLayerConfig(n=n, alpha=alpha, mode=mode, theta_shift=theta_shift)
    ramp = cfg._ramp
    assert ramp.shape == (cfg.window,) and np.all(ramp[1:] >= ramp[:-1])
    # every entry up to 2^6 steps, wider ramps at both ends and picked entries
    last = cfg.window - 1
    ends = range(cfg.window) if n <= 6 else [0, 1, 2, last - 2, last - 1, last]
    entries = sorted({*ends, *(i % cfg.window for i in picks)})
    for i in entries:
        threshold = Fraction(alpha) * (cfg.code_max + theta_shift - (last - i))
        assert ramp[i] == _ceiling(threshold), (i, ramp[i].hex())
    picked = ramp[entries]
    with np.errstate(over="ignore"):  # the float after the largest is +inf
        v = np.concatenate(
            [np.nextafter(picked, -np.inf), picked, np.nextafter(picked, np.inf)]
            + [[np.inf, -np.inf, 0.0, 5e-324, -5e-324]]
        )
    want = train_times([fire_simulated(a, cfg) for a in v.tolist()])
    # the table alone decides: no potential needs the scalar search
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spike, "candidate_fire_time", None)
        assert fire_simulated_array(v, cfg).tolist() == want.tolist()


def test_ramp_table_is_bounded():
    # no table past 2^20 steps or for a threshold code that is no exact
    # float; the array path then bisects, as the scalar search does
    for cfg, match in (
        (SnnLayerConfig(n=21), r"2\^21 steps"),
        (SnnLayerConfig(n=4, theta_shift=2**53), "theta_shift 9007199254740992"),
        (SnnLayerConfig(n=4, theta_shift=-(2**53)), "theta_shift -9007199254740992"),
    ):
        with pytest.raises(ValueError, match=match):
            cfg._ramp
        origin = cfg.code_max + cfg.theta_shift
        with np.errstate(over="ignore"):
            ties = cfg.alpha * np.array([origin, origin - 1, origin - cfg.window + 1], dtype=np.float64)
        v = np.concatenate(
            [np.nextafter(ties, -np.inf), ties, np.nextafter(ties, np.inf), [0.0, np.inf, -np.inf]]
        )
        want = [_time(fire_simulated(a, cfg)) for a in v.tolist()]
        assert fire_simulated_array(v, cfg).tolist() == want
        assert fire_simulated_array(v.reshape(3, 4), cfg).tolist() == np.reshape(want, (3, 4)).tolist()
    edge = SnnLayerConfig(n=4, alpha=0.37, theta_shift=2**53 - 7)  # top code 2^53
    v = np.array([edge._ramp[0], edge._ramp[-1], 0.0, np.inf])
    assert fire_simulated_array(v, edge).tolist() == [_time(fire_simulated(a, edge)) for a in v.tolist()]


def test_array_kernels_reject_bad_inputs():
    cfg = cfg_sym16(k=1)
    with pytest.raises(ValueError, match="representable"):
        encode_integer_array([0, 8], cfg)
    with pytest.raises(ValueError, match="spike times"):
        decode_spike_array([16], cfg)
    with pytest.raises(ValueError, match="spike times"):
        integrate_array([[-2]], np.ones((1, 1)), cfg)
    with pytest.raises(ValueError, match="NaN"):
        fire_simulated_array([0.0, math.nan], cfg)
    with pytest.raises(ValueError, match=r"2\^64-step window do not fit int64"):
        fire_simulated_array([0.0], SnnLayerConfig(n=64))


def test_config_stores_plain_python_numbers():
    # a numpy bit width once wrapped 2**n: window 0 at n = 64, code_max -1 at 70
    assert SnnLayerConfig(n=np.int64(64)).window == 2**64
    assert SnnLayerConfig(n=np.int64(70)).code_max == 2**69 - 1
    wide = SnnLayerConfig(n=np.int64(62), i_max=np.int64(5))
    constants = (wide.code_min, wide.code_max, wide.window, wide.mu)
    assert constants == (-(2**61), 2**61 - 1, 2**62, 2**61 - 6)
    assert all(type(c) is int for c in constants)
    # a numpy float32 scale once made the scalar search raise TypeError
    cfg = SnnLayerConfig(n=8, alpha=np.float32(0.37), i_max=127, k=1)
    edges = cfg.alpha * np.arange(-2, cfg.window + 2, dtype=np.float64)
    v = np.concatenate([np.nextafter(edges, -np.inf), edges, np.nextafter(edges, np.inf)])
    assert [_time(fire_simulated(a, cfg)) for a in v.tolist()] == fire_simulated_array(v, cfg).tolist()
    assert [_time(fire_analytic(a, cfg)) for a in v.tolist()] == fire_simulated_array(v, cfg).tolist()


NUMPY_INTEGERS = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)


@pytest.mark.parametrize("dtype", NUMPY_INTEGERS, ids=lambda t: t.__name__)
def test_numpy_integer_fields_act_as_their_python_twins(dtype):
    # a numpy i_max once wrapped mu (n=4, uint64 i_max 10: mu 2^64 - 3), and
    # a numpy theta_shift near the top of int64 wrapped the threshold codes
    top = int(np.iinfo(dtype).max)
    v = [0.0, 1.0, -1.0, 0.37, 7.5, -8.5, 1e30, -1e30, math.inf, -math.inf]
    for i_max, k, theta_shift in ((10, 1, 0), (15, 0, 1), (0, 2, top - 5), (7, top, top)):
        twin = SnnLayerConfig(n=4, i_max=i_max, k=k, theta_shift=theta_shift)
        cfg = SnnLayerConfig(n=4, i_max=dtype(i_max), k=dtype(k), theta_shift=dtype(theta_shift))
        assert cfg == twin and hash(cfg) == hash(twin)
        assert all(type(x) is int for x in (cfg.i_max, cfg.k, cfg.theta_shift, cfg.mu))
        assert decode_spike_array(np.arange(-1, 16), cfg).tolist() == decode_spike_array(
            np.arange(-1, 16), twin
        ).tolist()
        for a in v:
            assert fire_analytic(a, cfg) == fire_analytic(a, twin)
            assert fire_simulated(a, cfg) == fire_simulated(a, twin)
        assert fire_simulated_array(v, cfg).tolist() == fire_simulated_array(v, twin).tolist()


def test_default_silent_code_is_zero():
    for mode in (SYMMETRIC, ASYMMETRIC):
        cfg = SnnLayerConfig(n=4, mode=mode)
        assert cfg == SnnLayerConfig(n=4, mode=mode, i_max=cfg.code_max) and cfg.mu == 0
        assert type(cfg.i_max) is int and encode_integer(0, cfg).is_silent
    assert SnnLayerConfig(n=4) == SnnLayerConfig(n=4, i_max=7)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 16), mode=st.sampled_from([SYMMETRIC, ASYMMETRIC]))
def test_plain_ttfs_is_the_mask_at_the_last_step(n, mode):
    # plain TTFS: every code fires at code_max - code except the lowest,
    # whose last-step spike the mask silences; the silent train decodes to it
    cfg = SnnLayerConfig(n=n, mode=mode, i_max=2**n - 1, k=0)
    codes = np.arange(cfg.code_min, cfg.code_max + 1)
    times = encode_integer_array(codes, cfg)
    last_step = cfg.code_max - codes == cfg.window - 1
    assert times.tolist() == np.where(last_step, -1, cfg.code_max - codes).tolist()
    assert np.count_nonzero(times == -1) == 1 and cfg.mu == cfg.code_min
    assert decode_spike_array(times, cfg).tolist() == codes.tolist()


# --- codebook -----------------------------------------------------------


def _defined_train(q, cfg):
    """The M-TTFS train of code q, written out from the definition."""
    t = cfg.code_max - q
    if abs(t - cfg.i_max) <= cfg.k:
        return SpikeTrain(cfg.window, None)
    return SpikeTrain(cfg.window, t)


@settings(max_examples=200, deadline=None)
@given(cfg=config_strategy)
def test_encoding_returns_the_shared_train_of_its_definition(cfg):
    for q in range(cfg.code_min, cfg.code_max + 1):
        train = encode_integer(q, cfg)
        assert encode_integer(q, cfg) is train
        assert encode_integer(np.int64(q), cfg) is train
        assert train == _defined_train(q, cfg)
        assert type(train.time) is int or train.time is None


@settings(max_examples=200, deadline=None)
@given(
    cfg=config_strategy,
    a=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    encode_first=st.booleans(),
)
def test_fire_paths_return_the_encoded_train(cfg, a, encode_first):
    t = candidate_fire_time(a, cfg)
    if encode_first:
        expected = encode_integer(cfg.code_max - t, cfg)
    fired = fire_simulated(a, cfg)
    assert fire_analytic(a, cfg) is fired
    if not encode_first:
        expected = encode_integer(cfg.code_max - t, cfg)
    assert fired is expected


@settings(max_examples=100, deadline=None)
@given(cfg=config_strategy)
def test_out_of_range_code_raises_and_adds_no_entry(cfg):
    outside = (cfg.code_min - 1, cfg.code_max + 1)
    for q in outside:  # empty book
        with pytest.raises(ValueError, match="representable range"):
            encode_integer(q, cfg)
    assert cfg._codebook == {}
    for q in range(cfg.code_min, cfg.code_max + 1):
        encode_integer(q, cfg)
    assert len(cfg._codebook) == cfg.window
    for q in outside:  # full book
        with pytest.raises(ValueError, match="representable range"):
            encode_integer(q, cfg)
    assert sorted(cfg._codebook) == list(range(cfg.code_min, cfg.code_max + 1))


@settings(max_examples=100, deadline=None)
@given(cfg=config_strategy, k=st.integers(0, 3))
def test_replaced_config_starts_with_an_empty_book(cfg, k):
    for q in range(cfg.code_min, cfg.code_max + 1):
        encode_integer(q, cfg)
    other = dataclasses.replace(cfg, k=k)
    assert other._codebook == {}
    for q in range(other.code_min, other.code_max + 1):
        assert encode_integer(q, other) == _defined_train(q, other)


@settings(max_examples=100, deadline=None)
@given(cfg=config_strategy)
def test_filled_book_leaves_config_identity_alone(cfg):
    before = (hash(cfg), repr(cfg), dataclasses.asdict(cfg))
    fresh = dataclasses.replace(cfg)
    for q in range(cfg.code_min, cfg.code_max + 1):
        encode_integer(q, cfg)
    assert cfg._codebook and not fresh._codebook
    assert cfg == fresh
    assert (hash(cfg), repr(cfg), dataclasses.asdict(cfg)) == before


def test_full_sixteen_bit_book_stays_bounded():
    cfg = SnnLayerConfig(n=16, i_max=2**15 - 1, k=2)
    tracemalloc.start()
    try:
        for q in range(cfg.code_min, cfg.code_max + 1):
            encode_integer(q, cfg)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(cfg._codebook) == cfg.window == 2**16
    assert held < 16 * 2**20, held  # about 150 bytes a code


@pytest.mark.parametrize(
    "bad",
    [3.5, 3.0, "3", True, None, np.float64(3.0)],
    ids=["float", "integral-float", "str", "bool", "none", "numpy-float"],
)
def test_encode_refuses_non_integer_codes(bad):
    cfg = cfg_sym16()
    for q in range(cfg.code_min, cfg.code_max + 1):
        encode_integer(q, cfg)  # the verdict does not depend on the book
    with pytest.raises(ValueError, match="^code must be an integer"):
        encode_integer(bad, cfg)


@pytest.mark.parametrize(
    "bad",
    [[3.5], [3.0], np.array([True]), np.array([3], dtype=object), ["3"]],
    ids=["float", "integral-float", "bool", "object", "str"],
)
def test_encode_array_refuses_non_integer_codes(bad):
    with pytest.raises(ValueError, match="^codes must be integers"):
        encode_integer_array(bad, cfg_sym16())


_INTEGER_ARRAY_ENTRY_POINTS = {
    "decode_spike_array": lambda a: decode_spike_array(a, cfg_sym16()),
    "integrate_array": lambda a: integrate_array(a[None, :], np.ones((1, 1)), cfg_sym16()),
    "spike_time_histogram": lambda a: stats.spike_time_histogram(a, cfg_sym16()),
    "dead_zone_filter_array": lambda a: qnn.dead_zone_filter_array(a, 0, 0),
    "time_based_accumulate": lambda a: attention.time_based_accumulate(a, [1.0], cfg_sym16()),
    "normalize_scores": lambda a: attention.normalize_scores(a[None, :], 16),
    "attention_pipeline": lambda a: attention.attention_pipeline(
        [[encode_integer(0, cfg_sym16())]], [[1]], a[None, :], cfg_sym16()
    ),
    "attention_reference": lambda a: attention.attention_reference(
        a[None, :], [[1]], [[1]], cfg_sym16()
    ),
}


@pytest.mark.parametrize("bad", [[2.7], [1.0], [True]], ids=["float", "integral-float", "bool"])
@pytest.mark.parametrize("entry", sorted(_INTEGER_ARRAY_ENTRY_POINTS))
def test_array_entry_points_refuse_non_integer_codes_and_times(entry, bad):
    # the rule of encode_integer_array: refused, not truncated or cast
    call = _INTEGER_ARRAY_ENTRY_POINTS[entry]
    call(np.array([1]))
    with pytest.raises(ValueError, match="must be integers, got dtype"):
        call(np.array(bad))


def test_encode_array_accepts_integer_dtypes_and_empty_input():
    cfg = cfg_sym16(k=1)
    want = encode_integer_array(np.array([-8, 0, 2, 7]), cfg).tolist()
    for dtype in (np.int8, np.int32, np.int64):
        assert encode_integer_array(np.array([-8, 0, 2, 7], dtype=dtype), cfg).tolist() == want
    assert encode_integer_array(np.array([0, 2, 7], dtype=np.uint8), cfg).tolist() == want[1:]
    with pytest.raises(ValueError, match="representable"):  # no wrap to -1
        encode_integer_array(np.array([2**64 - 1], dtype=np.uint64), cfg)
    empty = encode_integer_array([], cfg)
    assert empty.dtype == np.int64 and empty.shape == (0,)


# --- silence rate -------------------------------------------------------


def test_silence_rate_monotone_in_k():
    rng = np.random.default_rng(5)
    samples = rng.normal(0.0, 2.0, 2000)
    rates = []
    for k in (0, 1, 2, 3):
        cfg = cfg_sym16(k=k)
        trains = [
            encode_integer(int(np.clip(math.floor(a), -8, 7)), cfg) for a in samples
        ]
        rates.append(stats.spike_time_histogram(train_times(trains), cfg).silence_fraction)
    assert all(lo <= hi for lo, hi in zip(rates, rates[1:]))
    assert rates[1] > rates[0]  # k=1 strictly wider than k=0 on this sample


def test_cached_tables_refuse_a_window_over_2_20_before_allocating():
    cfg = SnnLayerConfig(n=30)  # its tables would hold 2^30 entries, 8 GiB each
    tracemalloc.start()
    try:
        tables = ("_ramp", "ramp"), ("_decode_table", "decode"), ("_term_table", "term")
        facts = ("_same_terms", "filter"), ("_stage_witness", "filter")
        for attr, name in (*tables, ("_filter_table", "filter"), *facts):
            with pytest.raises(ValueError, match=rf"^{name} table of 2\^30 steps exceeds 2\^20$"):
                getattr(cfg, attr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_cached_tables_are_read_only():
    # a config's tables are shared by every later call on it, so a write to
    # one would silently corrupt them all
    cfg = SnnLayerConfig(n=3, k=1)
    for name in ("_ramp", "_decode_table", "_term_table", "_filter_table"):
        table = getattr(cfg, name)
        with pytest.raises(ValueError, match="read-only"):
            table[:] = 0
    assert fire_simulated_array(np.array([3.0, -9.0]), cfg).tolist() == [0, 7]
    # plain values: nothing to write to
    assert cfg._same_terms is True and cfg._stage_witness is None


@pytest.mark.parametrize("mode", [SYMMETRIC, ASYMMETRIC])
@pytest.mark.parametrize("alpha", [1.0, 3.0, 0.37])
def test_filter_table_and_same_terms_follow_their_definitions(mode, alpha):
    # the filter table is the quantized rule of each code, never the spiking
    # round trip; the terms are the same where both sides add one float per
    # code and unit weight, bit for bit
    for i_max, k in itertools.product(range(8), range(3)):
        cfg = SnnLayerConfig(n=3, alpha=alpha, mode=mode, i_max=i_max, k=k)
        codes = range(cfg.code_min, cfg.code_max + 1)
        assert cfg._filter_table.tolist() == [qnn.dead_zone_filter(q, cfg.mu, k) for q in codes]
        scaled = [(alpha * q).hex() for q in cfg._filter_table.tolist()]
        same = scaled == [t.hex() for t in cfg._term_table.tolist()]
        assert cfg._same_terms is same
        # at every scale, exactly where the silent train stands for code zero
        assert same == (cfg.mu == 0)


def _stage_codes(x, cfg):
    """The output stage's two codes of one float, by the scalar oracles:
    (quantized, spiking)."""
    quantized = qnn.dead_zone_filter(qnn.quantize(x, cfg), cfg.mu, cfg.k)
    return quantized, decode_spike(fire_simulated(x, cfg), cfg)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 8),
    mode=st.sampled_from([SYMMETRIC, ASYMMETRIC]),
    i_max=st.integers(0, 2**8 - 1),
    k=st.integers(0, 3),
    alpha=st.sampled_from([1.0, 0.5, 0.37, 1 / 3, 2.0**-1000, 1e300]),
    theta_shift=st.integers(-3, 3),
    floats=st.lists(st.floats(allow_nan=False), max_size=10),
)
def test_stage_witness_matches_the_scalar_oracles(n, mode, i_max, k, alpha, theta_shift, floats):
    # where the fact holds, the scalar oracles agree within 3 ulps of every
    # threshold of either side (and on any drawn float); where it fails,
    # they disagree on the witness
    cfg = SnnLayerConfig(n, alpha, mode, i_max % 2**n, k, theta_shift)
    witness = cfg._stage_witness
    if witness is not None:
        quantized, spiking = _stage_codes(witness, cfg)
        assert quantized != spiking
        return
    shifts = (0, theta_shift)
    for m in range(cfg.code_min + 1 + min(shifts), cfg.code_max + max(shifts) + 1):
        below = above = alpha * m
        near = [below]
        for _ in range(3):
            below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
            near += [below, above]
        for x in near:
            quantized, spiking = _stage_codes(x, cfg)
            assert quantized == spiking, (m, x)
    for x in floats:
        quantized, spiking = _stage_codes(x, cfg)
        assert quantized == spiking, x


def test_stage_witness_takes_far_apart_thresholds_apart():
    # theta_shift 2^40 puts the spiking thresholds 2^40 codes above the
    # quantized ones.  A dead zone over the whole window sends every float
    # to mu on both sides, so the fact holds and both 2^20-code ranges are
    # walked, a chunk at a time, never the span between them
    cfg = SnnLayerConfig(n=20, k=2**20, theta_shift=2**40)
    cfg._filter_table, cfg._decode_table, cfg._ramp  # the tables the fact reads
    tracemalloc.start()
    try:
        assert cfg._stage_witness is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    # fired codes tell the ranges apart: the witness is a float where they differ
    fired = SnnLayerConfig(n=20, k=1, theta_shift=2**40)
    quantized, spiking = _stage_codes(fired._stage_witness, fired)
    assert quantized != spiking
    # a threshold code past 2^53 has no exact float: nothing is claimed
    assert math.isnan(SnnLayerConfig(n=3, theta_shift=2**53)._stage_witness)
