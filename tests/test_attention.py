"""Time-based accumulation kernel and the spiking attention pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matterhorn.attention import (
    attention_pipeline,
    attention_reference,
    normalize_scores,
    spike_matrix,
    time_based_accumulate,
)
from matterhorn.spike import (
    ASYMMETRIC,
    SYMMETRIC,
    QuantParams,
    SnnLayerConfig,
    SpikeTrain,
    encode_integer,
    integrate,
)


def cfg16(k=0):
    return SnnLayerConfig(n=4, i_max=7, k=k)


def random_trains(rng, cfg, count):
    codes = rng.integers(cfg.code_min, cfg.code_max + 1, count)
    return [encode_integer(int(q), cfg) for q in codes], codes


# --- kernel -------------------------------------------------------------


def test_single_spike_kernel_lookup():
    cfg = cfg16()
    cols = spike_matrix([SpikeTrain.single(4, 16)])
    state = time_based_accumulate(cols, np.array([1.0]), cfg)
    assert state.v == 3.0  # f(4) = 7 - 4
    assert state.events == 1


def test_no_spikes_accumulates_nothing():
    cfg = cfg16()
    cols = spike_matrix([SpikeTrain.silent(16)] * 3)
    state = time_based_accumulate(cols, np.ones(3), cfg)
    assert state.v == 0.0 and state.events == 0
    assert state.t == 15  # consumed the full window regardless


def test_shape_mismatch_raises():
    cfg = cfg16()
    with pytest.raises(ValueError):
        time_based_accumulate(np.zeros((8, 2)), np.ones(2), cfg)
    with pytest.raises(ValueError):
        time_based_accumulate(np.zeros((16, 2)), np.ones(3), cfg)
    with pytest.raises(ValueError):  # a bank with one row per input, not per output
        time_based_accumulate(np.zeros((16, 2)), np.ones((3, 2)), cfg)
    with pytest.raises(ValueError):
        time_based_accumulate(np.zeros((16, 2)), np.ones((2, 3, 1)), cfg)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(0, 2))
def test_matches_mac_integration(seed, k):
    # integer weights keep both accumulation orders exact
    rng = np.random.default_rng(seed)
    cfg = cfg16(k=k)
    trains, _ = random_trains(rng, cfg, 8)
    weights = rng.integers(-6, 7, 8).astype(float)
    state = time_based_accumulate(spike_matrix(trains), weights, cfg)
    oracle = integrate(list(zip(trains, weights)), cfg)
    assert state.v == oracle


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(0, 2),
    inputs=st.integers(1, 10),
    outputs=st.integers(1, 6),
)
def test_bank_matches_per_column_calls(seed, k, inputs, outputs):
    # one pass over a weight bank is the per-column passes, bit for bit
    rng = np.random.default_rng(seed)
    cfg = SnnLayerConfig(n=4, alpha=0.37, i_max=7, k=k)
    trains, _ = random_trains(rng, cfg, inputs)
    cols = spike_matrix(trains)
    bank = rng.normal(size=(inputs, outputs))
    state = time_based_accumulate(cols, bank, cfg)
    assert state.v.shape == (outputs,)
    for j in range(outputs):
        column = time_based_accumulate(cols, bank[:, j], cfg)
        assert state.v[j].hex() == column.v.hex()
        assert state.events == column.events


def test_events_counts_active_steps_only():
    cfg = cfg16()
    trains = [SpikeTrain.single(2, 16), SpikeTrain.single(2, 16), SpikeTrain.single(9, 16)]
    state = time_based_accumulate(spike_matrix(trains), np.ones(3), cfg)
    assert state.events == 2  # two distinct active steps, never T


def test_partial_sum_composition():
    rng = np.random.default_rng(9)
    cfg = cfg16()
    trains, _ = random_trains(rng, cfg, 10)
    weights = rng.integers(-5, 6, 10).astype(float)
    whole = time_based_accumulate(spike_matrix(trains), weights, cfg).v
    part_a = time_based_accumulate(spike_matrix(trains[:4]), weights[:4], cfg).v
    part_b = time_based_accumulate(spike_matrix(trains[4:]), weights[4:], cfg).v
    assert part_a + part_b == whole


# --- normalization stub -------------------------------------------------


def test_normalizer_passes_small_scores_through():
    codes = normalize_scores(np.array([[0, 1, 5]]), 16)
    assert codes.tolist() == [[0, 1, 5]]


def test_normalizer_anchors_overflowing_rows():
    codes = normalize_scores(np.array([[20, 18, 3]]), 16)
    assert codes.tolist() == [[15, 13, 0]]  # shifted by 5, clipped at zero


def test_normalizer_clips_negative_scores_to_silence():
    codes = normalize_scores(np.array([[-7, 2]]), 16)
    assert codes.tolist() == [[0, 2]]


# --- pipeline -----------------------------------------------------------


def test_pipeline_unit_case():
    cfg = cfg16()
    out = attention_pipeline([[encode_integer(1, cfg)]], [[1]], [[1]], cfg)
    assert out.tolist() == [[1]]


def test_pipeline_silent_queries():
    cfg = cfg16()
    q_trains = [[SpikeTrain.silent(16) for _ in range(3)] for _ in range(2)]
    k = np.array([[1, 2, 3], [4, 5, 6]])
    v = np.array([[1, 0], [0, 1]])
    out = attention_pipeline(q_trains, k, v, cfg)
    # zero scores encode to the silent score code, so nothing reaches V
    assert out.tolist() == [[0, 0], [0, 0]]
    assert np.array_equal(out, attention_reference(np.zeros((2, 3), int), k, v, cfg))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 5),
    mode=st.sampled_from([SYMMETRIC, ASYMMETRIC]),
    k=st.integers(0, 2),
    tokens=st.integers(1, 8),
    d_k=st.integers(1, 8),
    d_v=st.integers(1, 8),
)
def test_pipeline_matches_integer_reference(seed, n, mode, k, tokens, d_k, d_v):
    rng = np.random.default_rng(seed)
    cfg = SnnLayerConfig(n=n, mode=mode, i_max=QuantParams(n=n, mode=mode).code_max, k=k)
    q = rng.integers(cfg.code_min, cfg.code_max + 1, (tokens, d_k))
    q[rng.random(tokens) < 0.25] = cfg.mu  # all-silent query rows
    kk = rng.integers(cfg.code_min, cfg.code_max + 1, (tokens, d_k))
    v = rng.integers(cfg.code_min, cfg.code_max + 1, (tokens, d_v))
    q_trains = [[encode_integer(int(c), cfg) for c in row] for row in q]
    got = attention_pipeline(q_trains, kk, v, cfg)
    want = attention_reference(q, kk, v, cfg)
    assert np.array_equal(got, want)


def test_pipeline_asymmetric_queries():
    cfg = SnnLayerConfig(n=3, mode=ASYMMETRIC, i_max=7, k=0)
    rng = np.random.default_rng(12)
    q = rng.integers(0, 8, (3, 2))
    kk = rng.integers(0, 8, (3, 2))
    v = rng.integers(0, 8, (3, 2))
    q_trains = [[encode_integer(int(c), cfg) for c in row] for row in q]
    assert np.array_equal(
        attention_pipeline(q_trains, kk, v, cfg), attention_reference(q, kk, v, cfg)
    )


def test_pipeline_shape_errors():
    cfg = cfg16()
    q_trains = [[encode_integer(1, cfg)]]
    with pytest.raises(ValueError):
        attention_pipeline(q_trains, np.ones((2, 3), int), np.ones((2, 1), int), cfg)
    with pytest.raises(ValueError):
        attention_pipeline(q_trains, np.ones((2, 1), int), np.ones((3, 1), int), cfg)
