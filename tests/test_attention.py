"""Time-based accumulation kernel and the spiking attention pipeline."""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    integrate_array,
    train_times,
)


def cfg16(k=0):
    return SnnLayerConfig(n=4, i_max=7, k=k)


def random_trains(rng, cfg, count):
    codes = rng.integers(cfg.code_min, cfg.code_max + 1, count)
    codes[rng.random(count) < 0.25] = cfg.mu  # about a quarter silent
    return [encode_integer(int(q), cfg) for q in codes], codes


# --- kernel -------------------------------------------------------------


def test_single_spike_kernel_lookup():
    cfg = cfg16()
    times = train_times([SpikeTrain(16, 4)])
    state = time_based_accumulate(times, np.array([1.0]), cfg)
    assert state.v == 3.0  # f(4) = 7 - 4
    assert state.events == 1


def test_no_spikes_accumulates_nothing():
    cfg = cfg16()
    times = train_times([SpikeTrain(16, None)] * 3)
    state = time_based_accumulate(times, np.ones(3), cfg)
    assert state.v == 0.0 and state.events == 0
    assert state.t == 15  # consumed the full window regardless


def test_shape_mismatch_raises():
    cfg = cfg16()
    with pytest.raises(ValueError):  # a time past the 16-step window
        time_based_accumulate([16, -1], np.ones(2), cfg)
    with pytest.raises(ValueError):
        time_based_accumulate([-1, -1], np.ones(3), cfg)
    with pytest.raises(ValueError):  # a bank with one row per input, not per output
        time_based_accumulate([-1, -1], np.ones((3, 2)), cfg)
    with pytest.raises(ValueError):
        time_based_accumulate([-1, -1], np.ones((2, 3, 1)), cfg)
    with pytest.raises(ValueError):  # dense spike columns are not spike times
        time_based_accumulate(np.zeros((16, 2), dtype=int), np.ones(2), cfg)


def test_train_times_and_dense_view():
    trains = [SpikeTrain(16, 4), SpikeTrain(16, None), SpikeTrain(16, 0)]
    assert train_times(trains).tolist() == [4, -1, 0]
    assert np.array_equal(spike_matrix(trains), np.stack([t.bits for t in trains], axis=1))
    with pytest.raises(ValueError):
        train_times([SpikeTrain(16, None), SpikeTrain(8, None)])
    with pytest.raises(ValueError):
        train_times([SpikeTrain(16, None)], window=8)
    with pytest.raises(ValueError):
        train_times([])


def cfg_zero_mu(n, k=0, alpha=1.0):
    return SnnLayerConfig(n=n, alpha=alpha, i_max=2 ** (n - 1) - 1, k=k)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 16), k=st.integers(0, 2))
def test_matches_mac_integration(seed, n, k):
    # both accumulations round exactly, so real weights agree bit for bit
    rng = np.random.default_rng(seed)
    cfg = cfg_zero_mu(n, k)
    trains, _ = random_trains(rng, cfg, 8)
    weights = rng.normal(size=8)
    state = time_based_accumulate(train_times(trains), weights, cfg)
    oracle = integrate(list(zip(trains, weights)), cfg)
    assert state.v.hex() == oracle.hex()


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 16),
    k=st.integers(0, 2),
    inputs=st.integers(1, 10),
    outputs=st.integers(1, 6),
)
def test_bank_matches_per_column_calls(seed, n, k, inputs, outputs):
    # one pass over a weight bank is the per-column passes, bit for bit
    rng = np.random.default_rng(seed)
    cfg = cfg_zero_mu(n, k, alpha=0.37)
    trains, _ = random_trains(rng, cfg, inputs)
    times = train_times(trains)
    bank = rng.normal(size=(inputs, outputs))
    state = time_based_accumulate(times, bank, cfg)
    assert state.v.shape == (outputs,)
    for j in range(outputs):
        column = time_based_accumulate(times, bank[:, j], cfg)
        assert state.v[j].hex() == column.v.hex()
        assert state.v[j].hex() == integrate(list(zip(trains, bank[:, j])), cfg).hex()
        assert state.events == column.events


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 16),
    k=st.integers(0, 2),
    alpha=st.sampled_from([1.0, 0.37]),
    rows=st.integers(1, 8),
    inputs=st.integers(1, 10),
    outputs=st.integers(1, 6),
    weight_bits=st.sampled_from([None, 4, 40, 52]),  # None: real weights
)
@example(seed=1, n=16, k=0, alpha=1.0, rows=4, inputs=10, outputs=3, weight_bits=52)
def test_row_kernel_matches_one_row_calls(seed, n, k, alpha, rows, inputs, outputs, weight_bits):
    # whichever sum the block takes (one integer matmul past the 2^53
    # guard or not, or fsum per row), each row is the one-row call and the
    # scalar oracle, bit for bit
    rng = np.random.default_rng(seed)
    cfg = cfg_zero_mu(n, k, alpha=alpha)
    trains = [random_trains(rng, cfg, inputs)[0] for _ in range(rows)]
    trains[rng.integers(rows)] = [SpikeTrain(cfg.window, None)] * inputs
    if weight_bits is None:
        bank = rng.normal(size=(inputs, outputs))
    else:
        bound = 2**weight_bits
        bank = rng.integers(-bound, bound, size=(inputs, outputs), endpoint=True).astype(float)
    times = np.stack([train_times(row) for row in trains])
    v = integrate_array(times, bank, cfg)
    assert v.shape == (rows, outputs)
    for r in range(rows):
        state = time_based_accumulate(times[r], bank, cfg)
        assert state.events == len({t for t in times[r].tolist() if t >= 0})
        for j in range(outputs):
            assert v[r, j].hex() == state.v[j].hex()
            assert v[r, j].hex() == integrate(list(zip(trains[r], bank[:, j])), cfg).hex()


def test_silent_inputs_never_touch_their_weights():
    # a silent input adds nothing, even where its weight is not finite
    cfg = cfg16()
    times = np.array([[4, -1], [-1, -1]])
    bank = np.array([[2.0, 1.0], [np.inf, np.nan]])
    v = integrate_array(times, bank, cfg)
    events = [time_based_accumulate(row, bank, cfg).events for row in times]
    assert v.tolist() == [[6.0, 3.0], [0.0, 0.0]] and events == [1, 0]


def test_events_counts_active_steps_only():
    cfg = cfg16()
    trains = [SpikeTrain(16, 2), SpikeTrain(16, 2), SpikeTrain(16, 9)]
    state = time_based_accumulate(train_times(trains), np.ones(3), cfg)
    assert state.events == 2  # two distinct active steps, never T


def test_partial_sum_composition():
    rng = np.random.default_rng(9)
    cfg = cfg16()
    trains, _ = random_trains(rng, cfg, 10)
    weights = rng.integers(-5, 6, 10).astype(float)
    whole = time_based_accumulate(train_times(trains), weights, cfg).v
    part_a = time_based_accumulate(train_times(trains[:4]), weights[:4], cfg).v
    part_b = time_based_accumulate(train_times(trains[4:]), weights[4:], cfg).v
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


@pytest.mark.parametrize("scores", [[3, 5], [[[3, 5]]], 4])
def test_normalizer_refuses_scores_that_are_not_a_matrix(scores):
    # a 1-D row or a scalar would leak numpy's AxisError, and a 3-D array
    # would be shifted along its second axis
    with pytest.raises(ValueError, match="2-D"):
        normalize_scores(np.array(scores), 16)


@pytest.mark.parametrize("window, message", [(0, ">= 1"), (-3, ">= 1"), (2.0, "integer")])
def test_normalizer_refuses_a_window_below_one(window, message):
    # at window 0 the clip's upper bound would fall below its lower one, [[-1, -1]]
    with pytest.raises(ValueError, match=message):
        normalize_scores(np.array([[3, 5]]), window)
    assert normalize_scores(np.array([[3, 5]]), 1).tolist() == [[0, 0]]


# --- pipeline -----------------------------------------------------------


def test_pipeline_unit_case():
    cfg = cfg16()
    out = attention_pipeline([[encode_integer(1, cfg)]], [[1]], [[1]], cfg)
    assert out.tolist() == [[1]]


def test_pipeline_silent_queries():
    cfg = cfg16()
    q_trains = [[SpikeTrain(16, None) for _ in range(3)] for _ in range(2)]
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


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    mode=st.sampled_from([SYMMETRIC, ASYMMETRIC]),
    i_max=st.integers(0, 2**8 - 1),
    k=st.integers(0, 2),
    alpha=st.floats(1e-300, 1e300),
)
def test_pipeline_reads_no_scale(seed, n, mode, i_max, k, alpha):
    # why attn takes no --alpha: the pipeline scores in code space
    rng = np.random.default_rng(seed)
    unit = SnnLayerConfig(n=n, mode=mode, i_max=i_max % 2**n, k=k)
    q, kk, v = (rng.integers(unit.code_min, unit.code_max + 1, (4, 3)) for _ in range(3))
    q_trains = [[encode_integer(int(c), unit) for c in row] for row in q]
    scaled = attention_pipeline(q_trains, kk, v, replace(unit, alpha=alpha))
    assert np.array_equal(scaled, attention_pipeline(q_trains, kk, v, unit))


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


def test_pipeline_reads_trains_by_value():
    # codebook trains are shared objects; fresh trains of the same times
    # must give the same output
    cfg = cfg16(k=1)
    rng = np.random.default_rng(8)
    q, kk, v = rng.integers(cfg.code_min, cfg.code_max + 1, (3, 6, 5))
    shared = [[encode_integer(int(c), cfg) for c in row] for row in q]
    fresh = [
        [SpikeTrain(16, None) if tr.is_silent else SpikeTrain(16, tr.time) for tr in row]
        for row in shared
    ]
    assert any(tr.is_silent for row in shared for tr in row)
    assert all(a is not b for ra, rb in zip(shared, fresh) for a, b in zip(ra, rb))
    got = attention_pipeline(shared, kk, v, cfg)
    assert np.array_equal(got, attention_pipeline(fresh, kk, v, cfg))
    assert np.array_equal(got, attention_reference(q, kk, v, cfg))


@pytest.mark.parametrize(
    "q, kk, v, stage",
    [
        # 2^53 + 1 as a float sum rounded to 2^53 without a word
        ([[1, 0]], [[1, 0], [0, 0]], [[2**53 + 1], [0]], "output"),
        # 14 x 2^62 left int64: INT64_MIN on both sides, a cast warning on one
        ([[7, 7]], [[1, 1]], [[2**62]], "output"),
        ([[1]], [[2**50]], [[1]], "scores"),  # 1 x 8 x 2^50 reaches 2^53
    ],
)
def test_pipeline_and_reference_refuse_sums_that_reach_2_53(q, kk, v, stage):
    cfg = cfg16()
    q_trains = [[encode_integer(c, cfg) for c in row] for row in q]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any product or cast
        for run in (
            lambda: attention_pipeline(q_trains, kk, v, cfg),
            lambda: attention_reference(q, kk, v, cfg),
        ):
            with pytest.raises(ValueError, match=rf"^attention {stage} sums reach .* 2\^53"):
                run()


def test_pipeline_and_reference_agree_just_below_2_53():
    # one key: the output reach is 15 x max|V|, the score reach 8 x max|K|
    cfg = cfg16()
    q, kk, v = [[-8]], [[-(2**50 - 1)]], [[(2**53 - 1) // 15]]
    got = attention_pipeline([[encode_integer(-8, cfg)]], kk, v, cfg)
    assert got.tolist() == attention_reference(q, kk, v, cfg).tolist() == [[15 * v[0][0]]]


def test_reference_refuses_what_no_query_train_encodes():
    cfg = cfg16()
    for q in ([[8]], [[-9]]):  # outside [-8, 7]: no train, and no bound on the products
        with pytest.raises(ValueError, match="^Q codes outside representable range"):
            attention_reference(q, [[1]], [[1]], cfg)
    with pytest.raises(ValueError, match="^Q codes must be a 2-D"):
        attention_reference([1], [[1]], [[1]], cfg)
    with pytest.raises(ValueError, match="^V shape"):  # the pipeline's shape rules
        attention_reference([[1]], [[1]], [1], cfg)


def test_warm_pipeline_builds_no_config(monkeypatch):
    # the two stage configs are built once per layer config, on the first call
    cfg = cfg16(k=1)
    rng = np.random.default_rng(5)
    q, kk, v = rng.integers(cfg.code_min, cfg.code_max + 1, (3, 4, 6))
    q_trains = [[encode_integer(int(c), cfg) for c in row] for row in q]
    want = attention_pipeline(q_trains, kk, v, cfg)
    built = []
    post_init = SnnLayerConfig.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(SnnLayerConfig, "__post_init__", counting)
    assert np.array_equal(attention_pipeline(q_trains, kk, v, cfg), want)
    assert built == []
    fresh = replace(cfg)
    assert np.array_equal(attention_pipeline(q_trains, kk, v, fresh), want)
    # the cold call builds both (the unit one equals fresh here: alpha is 1)
    assert sorted(map(id, built)) == sorted(map(id, [fresh, *fresh._stage_configs]))


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    mode=st.sampled_from([SYMMETRIC, ASYMMETRIC]),
    i_max=st.integers(0, 2**6 - 1),
    k=st.integers(0, 2),
    alpha=st.sampled_from([1.0, 0.37, 2.0**-40]),
)
def test_warm_config_gives_the_results_of_a_fresh_one(seed, n, mode, i_max, k, alpha):
    # a config warmed by other heads scores a head as a fresh equal config
    # does, with stage configs equal to the ones built per call before
    rng = np.random.default_rng(seed)
    cfg = SnnLayerConfig(n=n, alpha=alpha, mode=mode, i_max=i_max % 2**n, k=k)
    heads = [rng.integers(cfg.code_min, cfg.code_max + 1, (3, 3, 4)) for _ in range(3)]
    score_cfg = SnnLayerConfig(n=n, mode=ASYMMETRIC, i_max=2**n - 1)
    for q, kk, v in heads:
        q_trains = [[encode_integer(int(c), cfg) for c in row] for row in q]
        fresh = replace(cfg)
        got = attention_pipeline(q_trains, kk, v, cfg)
        assert np.array_equal(got, attention_pipeline(q_trains, kk, v, fresh))
    assert cfg._stage_configs == (replace(cfg, alpha=1.0), score_cfg)


def test_pipeline_memory_does_not_grow_with_window():
    # inputs are spike times, so nothing the pipeline allocates spans the
    # 2^n-step window
    rng = np.random.default_rng(3)
    peaks = {}
    for n in (4, 16):
        cfg = cfg_zero_mu(n, k=1)
        q, kk, v = rng.integers(cfg.code_min, cfg.code_max + 1, (3, 32, 32))
        q_trains = [[encode_integer(int(c), cfg) for c in row] for row in q]
        tracemalloc.start()
        try:
            got = attention_pipeline(q_trains, kk, v, cfg)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, attention_reference(q, kk, v, cfg))
    assert peaks[16] <= 2 * peaks[4], peaks


def test_pipeline_shape_errors():
    cfg = cfg16()
    q_trains = [[encode_integer(1, cfg)]]
    with pytest.raises(ValueError):
        attention_pipeline(q_trains, np.ones((2, 3), int), np.ones((2, 1), int), cfg)
    with pytest.raises(ValueError):
        attention_pipeline(q_trains, np.ones((2, 1), int), np.ones((3, 1), int), cfg)


def test_pipeline_input_errors():
    cfg = cfg16()
    kk, v = np.ones((2, 2), int), np.ones((2, 1), int)
    one, silent = encode_integer(1, cfg), SpikeTrain(16, None)
    with pytest.raises(ValueError, match="differ in length"):  # ragged query rows
        attention_pipeline([[one, silent], [one]], kk, v, cfg)
    with pytest.raises(ValueError, match="differ in length"):
        attention_pipeline([[one, silent], [one, silent, one]], kk, v, cfg)
    with pytest.raises(ValueError, match="window"):  # a train of another window
        attention_pipeline([[one, silent], [one, SpikeTrain(8, None)]], kk, v, cfg)
    with pytest.raises(ValueError, match="window"):  # every train of another window
        attention_pipeline([[SpikeTrain(8, 1)] * 2], kk, v, cfg)
