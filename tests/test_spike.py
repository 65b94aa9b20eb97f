"""Spike encoding, integration and firing: examples, invariants, oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matterhorn import spike
from matterhorn.spike import (
    ASYMMETRIC,
    SYMMETRIC,
    SnnLayerConfig,
    SpikeTrain,
    decode_spike,
    decode_spike_array,
    encode_integer,
    encode_integer_array,
    fire_analytic,
    fire_simulated,
    fire_simulated_array,
    integrate,
    integrate_array,
    silence_rate,
)


def cfg_sym16(k=0, i_max=7, **kw):
    return SnnLayerConfig(n=4, alpha=1.0, mode=SYMMETRIC, i_max=i_max, k=k, **kw)


# --- SpikeTrain ---------------------------------------------------------


def test_train_rejects_multiple_spikes():
    with pytest.raises(ValueError):
        SpikeTrain([0, 1, 1, 0])


def test_train_rejects_non_binary():
    # fractional and negative entries must not be cast to 0/1 on the way in
    for bits in ([0, 2, 0, 0], [0.5, 0, 0, 0], [1.7, 0, 0, 0], [-1, 0]):
        with pytest.raises(ValueError, match="0 or 1"):
            SpikeTrain(bits)


def test_train_time_and_silence():
    assert SpikeTrain.silent(8).time is None
    assert SpikeTrain.single(5, 8).time == 5
    assert SpikeTrain.silent(8).is_silent


@given(t=st.integers(0, 15))
def test_train_byte_round_trip(t):
    train = SpikeTrain.single(t, 16)
    packed = train.to_bytes()
    assert len(packed) == 2  # padded to whole bytes
    assert SpikeTrain.from_bytes(packed, 16) == train
    short = SpikeTrain.single(t % 12, 12)  # zero padding bits in the last byte
    assert SpikeTrain.from_bytes(short.to_bytes(), 12) == short


@pytest.mark.parametrize(
    "data, window, match",
    [
        (b"", 16, "2 bytes, got 0"),  # unpackbits would read uninitialised memory
        (b"\x01", 16, "2 bytes, got 1"),  # short buffer must not be zero-padded
        (b"\x00\x00\x00", 16, "2 bytes, got 3"),
        (b"\x00\x80", 12, "padding"),  # a set bit past the window is not dropped
    ],
)
def test_train_from_bytes_rejects_malformed(data, window, match):
    with pytest.raises(ValueError, match=match):
        SpikeTrain.from_bytes(data, window)


def test_train_bit_packing_is_little_endian():
    # spike at t=0 sits in the LSB of the first byte
    assert SpikeTrain.single(0, 16).to_bytes() == b"\x01\x00"
    assert SpikeTrain.single(9, 16).to_bytes() == b"\x00\x02"


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
    assert decode_spike(SpikeTrain.single(4, 16), cfg_sym16()) == 3
    assert decode_spike(SpikeTrain.silent(16), cfg_sym16()) == 0
    # the flattened region decodes to mu regardless of exact position
    assert decode_spike(SpikeTrain.single(7, 16), cfg_sym16(k=2)) == 0


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
            t = cfg.spike_time(q)
            if not cfg.in_dead_zone(t):
                assert cfg.kernel(t) == q


# --- integrate ----------------------------------------------------------


def test_integrate_single_input():
    cfg = cfg_sym16()
    potential = integrate([(encode_integer(3, cfg), 2.0)], cfg)
    assert potential == 6.0


def test_integrate_all_silent_keeps_bias():
    cfg = cfg_sym16()
    potential = integrate([(SpikeTrain.silent(16), 3.0)], cfg, bias=5.0)
    assert potential == 5.0


def test_integrate_mixed_signs():
    cfg = cfg_sym16()
    inputs = [(encode_integer(2, cfg), 1.0), (encode_integer(-1, cfg), 1.0)]
    assert integrate(inputs, cfg) == 1.0


def test_integrate_window_mismatch_raises():
    cfg = cfg_sym16()
    with pytest.raises(ValueError):
        integrate([(SpikeTrain.silent(8), 1.0)], cfg)


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
    """Independent oracle: scan the schedule, clamp at the window end."""
    for t in range(cfg.window):
        if a >= cfg.alpha * (cfg.code_max - t + cfg.theta_shift):
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
    # ... and maps to silence under the baseline-silent-min policy
    assert fire_analytic(-1e6, cfg_sym16(baseline_silent_min=True)).is_silent


def test_fire_rejects_nan():
    cfg = cfg_sym16()
    with pytest.raises(ValueError):
        fire_analytic(math.nan, cfg)


config_strategy = st.builds(
    SnnLayerConfig,
    n=st.sampled_from([2, 3, 4]),
    alpha=st.sampled_from([1.0, 0.5, 0.25, 0.1, 3.0, 1e-3, math.pi / 4]),
    mode=st.sampled_from([SYMMETRIC, ASYMMETRIC]),
    i_max=st.integers(0, 3),  # always inside the smallest window
    k=st.integers(0, 2),
    baseline_silent_min=st.booleans(),
    theta_shift=st.integers(-1, 1),
)


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
    trains = [SpikeTrain.silent(cfg.window)] + [SpikeTrain.single(t, cfg.window) for t in range(cfg.window)]
    assert decode_spike_array(every_time, cfg).tolist() == [decode_spike(tr, cfg) for tr in trains]


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
        trains = [SpikeTrain.silent(cfg.window) if t < 0 else SpikeTrain.single(t, cfg.window) for t in row]
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
    # the walk takes the same first steps when it splits the ramp into chunks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spike, "WALK_BLOCK", 3)
        assert fire_simulated_array(potentials, cfg).tolist() == got.tolist()


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


def test_unmasked_baseline_always_fires():
    cfg = SnnLayerConfig(n=4)  # no mask at all
    assert not cfg.masked and cfg.mu is None
    for q in range(cfg.code_min, cfg.code_max + 1):
        train = encode_integer(q, cfg)
        assert train.time == cfg.code_max - q
        assert decode_spike(train, cfg) == q


def test_baseline_silent_min_maps_floor_code_to_silence():
    cfg = SnnLayerConfig(n=4, baseline_silent_min=True)
    assert encode_integer(cfg.code_min, cfg).is_silent  # t = T-1 becomes silence
    assert encode_integer(cfg.code_min + 1, cfg).time == 14
    # the silent train stands for the minimum code on the way back
    assert decode_spike(SpikeTrain.silent(16), cfg) == cfg.code_min


def test_baseline_silent_min_round_trip():
    cfg = SnnLayerConfig(n=3, mode=ASYMMETRIC, baseline_silent_min=True)
    for q in range(cfg.code_min, cfg.code_max + 1):
        assert decode_spike(encode_integer(q, cfg), cfg) == q


# --- silence rate -------------------------------------------------------


def test_silence_rate_counting():
    trains = [SpikeTrain.silent(8)] * 3 + [SpikeTrain.single(2, 8)] * 7
    assert silence_rate(trains) == 0.3
    assert silence_rate([SpikeTrain.silent(8)]) == 1.0


def test_silence_rate_empty_raises():
    with pytest.raises(ValueError):
        silence_rate([])


def test_silence_rate_monotone_in_k():
    rng = np.random.default_rng(5)
    samples = rng.normal(0.0, 2.0, 2000)
    rates = []
    for k in (0, 1, 2, 3):
        cfg = cfg_sym16(k=k)
        trains = [
            encode_integer(int(np.clip(math.floor(a), -8, 7)), cfg) for a in samples
        ]
        rates.append(silence_rate(trains))
    assert all(lo <= hi for lo, hi in zip(rates, rates[1:]))
    assert rates[1] > rates[0]  # k=1 strictly wider than k=0 on this sample
