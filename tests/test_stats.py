"""Histograms, synthetic samplers and dead-zone sparsity sweeps."""

import re
import sys
import tracemalloc
from dataclasses import replace
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matterhorn import stats
from matterhorn.qnn import quantize_array
from matterhorn.spike import ASYMMETRIC, SnnLayerConfig, encode_integer_array
from matterhorn.stats import (
    ActivationSampler,
    REFERENCE_SILENCE_PCT,
    SpikeHistogram,
    calibrate_gaussian_sigma,
    encode_samples,
    histogram_svg,
    sparsity_sweep,
    spike_time_histogram,
)


def cfg16(k=0):
    return SnnLayerConfig(n=4, i_max=7, k=k)


CFG8 = SnnLayerConfig(n=3)


def silence(times, cfg):
    return spike_time_histogram(times, cfg).silence_fraction


# --- histogram ------------------------------------------------------------


def test_histogram_counts_and_silent_bucket():
    hist = spike_time_histogram([3, 3, -1, -1, -1], CFG8)
    assert hist.counts[3] == 2 and hist.silent == 3
    assert hist.total == 5
    assert hist.silence_fraction == 0.6


def test_histogram_all_center_codes_silent():
    cfg = cfg16()
    hist = spike_time_histogram(encode_samples(np.zeros(50), cfg), cfg)
    assert hist.silence_fraction == 1.0


def test_histogram_uniform_codes():
    cfg = cfg16()
    codes = np.arange(-8, 8, dtype=float)  # one sample per code, alpha=1
    hist = spike_time_histogram(encode_samples(codes + 0.5, cfg), cfg)
    assert hist.silent == 1  # only the mu code collapses at k=0
    occupied = np.flatnonzero(hist.counts)
    assert occupied.size == 15
    assert hist.total == 16


def test_histogram_window_mismatch():
    with pytest.raises(ValueError):  # a time past the 8-step window
        spike_time_histogram([-1, 8], CFG8)
    with pytest.raises(ValueError):
        spike_time_histogram([-2], CFG8)
    with pytest.raises(ValueError):
        spike_time_histogram([], CFG8)


# --- sampler ----------------------------------------------------------------


def test_sampler_determinism():
    a = ActivationSampler(kind="gaussian", scale=2.0, seed=9).sample(1000)
    b = ActivationSampler(kind="gaussian", scale=2.0, seed=9).sample(1000)
    assert np.array_equal(a, b)
    c = ActivationSampler(kind="gaussian", scale=2.0, seed=10).sample(1000)
    assert not np.array_equal(a, c)


def test_sampler_kinds():
    assert ActivationSampler(kind="laplace", scale=1.5, seed=0).sample(10).shape == (10,)
    for kind in ("poisson", "file"):
        with pytest.raises(ValueError, match="unknown sampler kind"):
            ActivationSampler(kind=kind)


@pytest.mark.parametrize(
    "field, bad",
    [
        ("loc", float("inf")),
        ("loc", float("-inf")),
        ("loc", float("nan")),
        ("scale", float("inf")),
        ("scale", float("nan")),
        ("scale", 0.0),
        ("scale", -1.0),
    ],
)
def test_sampler_rejects_non_finite_loc_and_scale(field, bad):
    with pytest.raises(ValueError, match=f"^{field} "):
        ActivationSampler(**{field: bad})


@pytest.mark.parametrize(
    "field, bad", [("loc", "x"), ("loc", None), ("scale", True), ("seed", 1.5), ("seed", "1")]
)
def test_sampler_names_a_field_of_the_wrong_type(field, bad):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        ActivationSampler(**{field: bad})


def test_sampler_refuses_a_negative_seed():
    # numpy accepted it until sample() ran, then refused it naming no field
    with pytest.raises(ValueError, match="^seed must be >= 0"):
        ActivationSampler(seed=-1)
    assert ActivationSampler(seed=0).seed == 0


@pytest.mark.parametrize(
    "count, needle",
    [(2.5, "count must be an integer"), (True, "count must be an integer"), (-1, "count must be >= 0")],
)
def test_sampler_refuses_a_bad_count(count, needle):
    with pytest.raises(ValueError, match=f"^{needle}"):
        ActivationSampler().sample(count)
    assert ActivationSampler().sample(0).shape == (0,)


def test_histogram_determinism_bytes():
    def run():
        sampler = ActivationSampler(kind="gaussian", scale=2.0, seed=3)
        hist = spike_time_histogram(encode_samples(sampler.sample(2000), cfg16()), cfg16())
        return hist.counts.tobytes(), hist.silent

    assert run() == run()


# --- sweep -------------------------------------------------------------------


def test_sweep_monotone_silence():
    sampler = ActivationSampler(kind="gaussian", scale=2.0, seed=1)
    rows = sparsity_sweep(sampler, cfg16(), range(0, 4), count=5000)
    silences = [r.silence for r in rows]
    assert silences == sorted(silences)
    assert all(rows[i].k == i for i in range(4))


def test_sweep_point_mass_is_fully_silent():
    class PointMass:  # every draw quantizes to mu=0
        def sample(self, count):
            return np.full(count, 0.25)

    rows = sparsity_sweep(PointMass(), cfg16(), range(0, 3), count=100)
    assert all(r.silence == 1.0 for r in rows)
    assert all(r.mean_spike_rate == 0.0 for r in rows)


def test_sweep_spike_rate_complements_silence():
    sampler = ActivationSampler(kind="gaussian", scale=1.5, seed=2)
    rows = sparsity_sweep(sampler, cfg16(), [0, 2], count=2000)
    for r in rows:
        assert r.mean_spike_rate == pytest.approx((1 - r.silence) / 16)


def test_sweep_needs_radii():
    with pytest.raises(ValueError):
        sparsity_sweep(ActivationSampler(seed=0), cfg16(), [], count=10)


def test_sweep_refuses_a_radius_that_is_no_integer():
    # k = 1.5 once ran and reported as k = 1
    for k in (1.5, True):
        with pytest.raises(ValueError, match="k must be an integer"):
            sparsity_sweep(ActivationSampler(seed=0), cfg16(), [0, k], count=10)
    assert [r.k for r in sparsity_sweep(ActivationSampler(seed=0), cfg16(), [np.int64(2)], count=10)] == [2]


def test_baseline_silence_is_rare_next_to_masked():
    # plain TTFS masks the last step, so only the floor code, a far-tail
    # event, is silent; the mask at mu = 0 flips the bulk of the distribution
    sigma = calibrate_gaussian_sigma(0.34, cfg16(k=0))
    sampler = ActivationSampler(kind="gaussian", scale=sigma, seed=13)
    samples = sampler.sample(50_000)
    baseline_cfg = SnnLayerConfig(n=4, i_max=15)
    baseline = spike_time_histogram(encode_samples(samples, baseline_cfg), baseline_cfg)
    masked = spike_time_histogram(encode_samples(samples, cfg16(k=0)), cfg16(k=0))
    assert baseline.counts[-1] == 0
    assert baseline.silence_fraction < 0.01
    assert masked.silence_fraction > 0.30


def test_chunked_encoding_and_sweep_match_one_pass(monkeypatch):
    # chunks of 7 over 100 samples, the last one partial, give what one
    # pass over the whole array gives; a 2-D input keeps its shape
    monkeypatch.setattr(stats, "_CHUNK", 7)
    cfg = SnnLayerConfig(n=4, alpha=0.37, i_max=7, k=1)
    sampler = ActivationSampler(scale=2.0, seed=3)
    samples = sampler.sample(100)
    codes = quantize_array(samples, cfg)
    want = encode_integer_array(codes, cfg)
    assert np.array_equal(encode_samples(samples, cfg), want)
    assert np.array_equal(encode_samples(samples.reshape(10, 10), cfg), want.reshape(10, 10))
    rows = sparsity_sweep(sampler, cfg, range(3), count=100)
    assert [r.silence for r in rows] == [
        silence(encode_integer_array(codes, replace(cfg, k=k)), cfg) for k in range(3)
    ]


@st.composite
def sweep_cases(draw):
    n = draw(st.integers(1, 6))
    mode = draw(st.sampled_from(["symmetric", ASYMMETRIC]))
    code_max = 2 ** (n - 1) - 1 if mode == "symmetric" else 2**n - 1
    i_max = draw(st.sampled_from([0, code_max, 2**n - 1]) | st.integers(0, 2**n - 1))
    alpha = draw(st.sampled_from([1.0, 0.37]))
    cfg = SnnLayerConfig(n=n, alpha=alpha, mode=mode, i_max=i_max, k=draw(st.integers(0, 3)))
    radii = draw(st.lists(st.integers(0, 2**n + 1), min_size=1, max_size=8))
    sampler = ActivationSampler(
        kind=draw(st.sampled_from(["gaussian", "laplace"])),
        scale=draw(st.sampled_from([0.5, 2.0, 9.0])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return cfg, radii, sampler, draw(st.integers(1, 400))


@settings(max_examples=150, deadline=None)
@given(sweep_cases())
def test_sweep_rows_are_the_silence_of_encoding_at_each_radius(case):
    # each row, read off one radius-0 histogram, is bit for bit the silent
    # share of the samples re-encoded at that radius, past the window too
    cfg, radii, sampler, count = case
    codes = quantize_array(sampler.sample(count), cfg)
    rows = sparsity_sweep(sampler, cfg, radii, count=count)
    assert [r.k for r in rows] == radii
    for row, k in zip(rows, radii):
        times = encode_integer_array(codes, replace(cfg, k=k))
        assert row.silence == np.count_nonzero(times == -1) / count
        assert row.mean_spike_rate == (1.0 - row.silence) / cfg.window


def test_sweep_refuses_a_negative_radius_and_a_window_too_wide_to_histogram():
    with pytest.raises(ValueError, match="dead-zone radius must be >= 0, got -1"):
        sparsity_sweep(ActivationSampler(seed=0), cfg16(), [0, -1], count=10)
    # 2^30 buckets would take 8 GiB: refused before they are allocated
    with pytest.raises(ValueError, match=r"histogram table of 2\^30 steps exceeds 2\^20"):
        sparsity_sweep(ActivationSampler(seed=0), SnnLayerConfig(n=30), [0], count=10)


def test_encoding_and_sweep_memory_is_a_chunk_above_their_arrays():
    # 2^20 samples at a non-dyadic scale: one whole-array pass peaked at
    # 65 MiB (encode) and 73 MiB (sweep); in chunks, 12 and 20 MiB, of which
    # the 8 MiB output (and the sweep's 8 MiB draw) is the floor
    cfg = SnnLayerConfig(n=4, alpha=0.37, i_max=7, k=1)
    sampler = ActivationSampler(scale=4.0, seed=0)
    samples = sampler.sample(2**20)

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(lambda: encode_samples(samples, cfg)) < 2 * samples.nbytes
    assert peak(lambda: sparsity_sweep(sampler, cfg, range(3), count=2**20)) < 3 * samples.nbytes


# --- calibration --------------------------------------------------------------


def test_calibrated_sigma_hits_target_silence():
    cfg = cfg16(k=0)
    sigma = calibrate_gaussian_sigma(0.34, cfg)
    sampler = ActivationSampler(kind="gaussian", scale=sigma, seed=11)
    rows = sparsity_sweep(sampler, cfg, range(0, 3), count=200_000)
    assert rows[0].silence == pytest.approx(0.34, abs=0.01)
    # wider radii are logged next to the reference percentages, not asserted
    assert set(REFERENCE_SILENCE_PCT) == {0, 1, 2}
    assert rows[1].silence > rows[0].silence


def test_calibration_validation():
    with pytest.raises(ValueError, match="strictly between 0 and 1"):
        calibrate_gaussian_sigma(1.5, cfg16())
    # plain TTFS silences code_min alone: a band below the mean, whose mass
    # grows with sigma toward one half and never reaches 0.6
    needle = re.escape("silence 0.6 in the dead-zone band [-inf, -7.0)")
    with pytest.raises(ValueError, match=needle):
        calibrate_gaussian_sigma(0.6, SnnLayerConfig(n=4, i_max=15))


def test_calibration_follows_a_band_whose_mass_rises_with_sigma():
    # plain TTFS: the band [-inf, -7) excludes the mean, so a wider
    # Gaussian silences more; the bisection runs the other way
    cfg = SnnLayerConfig(n=4, i_max=15)
    sigma = calibrate_gaussian_sigma(0.34, cfg)
    assert abs(NormalDist(0.0, sigma).cdf(-7.0) - 0.34) < 1e-9
    samples = ActivationSampler(scale=sigma, seed=2).sample(50_000)
    assert abs(silence(encode_samples(samples, cfg), cfg) - 0.34) < 0.01


@pytest.mark.parametrize(
    "target, cfg, loc, edges",
    [
        # the band [0, 1) lies beside loc = 3: its mass rises from 0 to a
        # peak near 0.09 and falls back toward 0 as sigma grows
        (0.05, SnnLayerConfig(n=4), 3.0, (0.0, 1.0)),
        # an off-centre dead zone, codes 2..4: a band [2, 5) beside the mean
        (0.1, SnnLayerConfig(n=4, i_max=4, k=1), 0.0, (2.0, 5.0)),
    ],
)
def test_calibration_meets_a_finite_band_beside_loc_past_its_peak(target, cfg, loc, edges):
    sigma = calibrate_gaussian_sigma(target, cfg, loc=loc)
    dist = NormalDist(loc, sigma)
    assert abs(dist.cdf(edges[1]) - dist.cdf(edges[0]) - target) < 1e-9
    # down from the widest sigma, the bisection meets the root past the peak
    wider = NormalDist(loc, 1.01 * sigma)
    assert wider.cdf(edges[1]) - wider.cdf(edges[0]) < target
    samples = ActivationSampler(loc=loc, scale=sigma, seed=2).sample(50_000)
    assert abs(silence(encode_samples(samples, cfg), cfg) - target) < 0.01


def test_calibration_counts_the_clipped_tail_a_dead_zone_reaches():
    # asymmetric mu = 0 is code_min, so every a < alpha is silent, not only [0, alpha)
    cfg = SnnLayerConfig(n=4, alpha=0.5, mode=ASYMMETRIC)
    sigma = calibrate_gaussian_sigma(0.6, cfg)
    assert abs(NormalDist(0.0, sigma).cdf(0.5) - 0.6) < 1e-9
    samples = ActivationSampler(scale=sigma, seed=2).sample(50_000)
    assert abs(silence(encode_samples(samples, cfg), cfg) - 0.6) < 0.01


@pytest.mark.parametrize("alpha", [1e299, 1e300])
def test_calibration_at_a_huge_scale(alpha):
    # 1e9 * 1e300 is inf: that bracket once ended at sigma 0 (exit 3)
    sigma = calibrate_gaussian_sigma(0.4, SnnLayerConfig(n=4, alpha=alpha))
    assert abs(NormalDist(0.0, sigma).cdf(alpha) - 0.5 - 0.4) < 1e-9


def test_calibration_meets_a_band_whose_sigma_passes_half_the_float_range():
    # sigma near 1.33e308 meets it; NormalDist's sigma * sqrt(2) overflows
    # there, so the band is taken at half scale (it was refused, ending at 0)
    alpha = 1.7e308
    sigma = calibrate_gaussian_sigma(0.4, SnnLayerConfig(n=4, alpha=alpha))
    assert sigma > sys.float_info.max / 2
    assert abs(NormalDist(0.0, sigma / 2).cdf(alpha / 2) - 0.5 - 0.4) < 1e-9


@pytest.mark.parametrize(
    "alpha, kw, target, ends",
    [
        # the band [7 alpha, inf) holds at most half the mass: the midpoint
        # (lo + hi) / 2 once overflowed to inf, whose NaN band passed as inf
        (1e299, {"i_max": 0}, 0.9, "0.500000"),
        # [-alpha, inf) holds at least Phi(alpha / float_max) = 0.83 of the
        # mass in the bracket; its overflowed sigma * sqrt(2) once gave a NaN
        # band, returned as inf, then a refusal ending at nan
        (1.7e308, {"k": 1}, 0.4, "0.827838"),
    ],
)
def test_calibration_at_a_huge_scale_refuses_a_band_it_cannot_meet(alpha, kw, target, ends):
    cfg = SnnLayerConfig(n=4, alpha=alpha, **kw)
    with pytest.raises(ValueError, match=rf"cannot calibrate silence {target} .* ends at {ends}$"):
        calibrate_gaussian_sigma(target, cfg)


# --- svg ------------------------------------------------------------------------


def test_svg_is_deterministic_and_wellformed():
    hist = SpikeHistogram(counts=np.array([3, 0, 5, 1]), silent=2)
    svg = histogram_svg(hist)
    assert svg == histogram_svg(hist)
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert svg.count("<rect") == 1 + 5  # background + one bar per bucket
