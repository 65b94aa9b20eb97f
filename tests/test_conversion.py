"""Config derivation and quantized/spiking equivalence sweeps."""

import hashlib
import itertools
import json
import re
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matterhorn.conversion import (
    EquivalenceReport,
    derive_snn_config,
    verify_equivalence,
    zero_centered_i_max,
)
from matterhorn.qnn import QnnLayer, QuantParams, dead_zone_filter, layer_forward, quantize
from matterhorn import conversion, numerics, qnn, spike
from matterhorn.spike import (
    ASYMMETRIC,
    SnnLayerConfig,
    decode_spike,
    encode_integer,
    fire_analytic,
    fire_simulated,
    integrate,
)

# A KEPT no report reaches: comparisons against the scalar references hold
# every mismatch, as strict as before reports were bounded.
ALL = 10**9


def pm_layer(p, k, fan_in=4, fan_out=4, seed=0, bias=None):
    rng = np.random.default_rng(seed)
    cfg = derive_snn_config(p, zero_centered_i_max(p), k)
    return QnnLayer(
        weights=rng.choice([-1.0, 1.0], (fan_in, fan_out)),
        bias=np.zeros(fan_out) if bias is None else bias,
        in_params=p,
        out_params=p,
        mu=cfg.mu,
        k=k,
    ), cfg


# --- derive -------------------------------------------------------------


def test_derive_symmetric():
    cfg = derive_snn_config(QuantParams(n=4, alpha=2.0), i_max=7, k=0)
    assert cfg.window == 16 and cfg.mu == 0 and cfg.alpha == 2.0
    # threshold ramp: alpha * (7 - t)
    assert [cfg.alpha * (cfg.code_max + cfg.theta_shift - t) for t in (0, 1, 7)] == [14.0, 12.0, 0.0]


def test_derive_asymmetric():
    cfg = derive_snn_config(QuantParams(n=4, mode=ASYMMETRIC), i_max=15, k=0)
    assert cfg.mu == 0
    assert cfg.code_max + cfg.theta_shift == 15  # threshold code at t = 0


def test_derive_small_window():
    cfg = derive_snn_config(QuantParams(n=2), i_max=1, k=0)
    assert cfg.window == 4 and cfg.mu == 0


def test_derive_rejects_out_of_window_imax():
    with pytest.raises(ValueError):
        derive_snn_config(QuantParams(n=2), i_max=4, k=0)


# --- verification -------------------------------------------------------


def test_exhaustive_identity_layer_all_codes():
    p = QuantParams(n=4)
    cfg = derive_snn_config(p, zero_centered_i_max(p), 0)
    layer = QnnLayer(
        weights=np.ones((1, 1)), bias=np.zeros(1), in_params=p, out_params=p, mu=0, k=0
    )
    report = verify_equivalence(layer, cfg, domain="exhaustive")
    assert report.passed and report.cases_checked == 16


def test_exhaustive_random_pm_one_layer():
    p = QuantParams(n=3)
    layer, cfg = pm_layer(p, k=1, seed=3)
    report = verify_equivalence(layer, cfg, domain="exhaustive")
    assert report.passed
    assert report.cases_checked == 8**4


def test_exhaustive_with_bias():
    p = QuantParams(n=3)
    layer, cfg = pm_layer(p, k=0, fan_in=3, fan_out=3, seed=9, bias=np.array([0.5, -1.0, 2.0]))
    report = verify_equivalence(layer, cfg, domain="exhaustive")
    assert report.passed


def test_exhaustive_fractional_scale():
    p = QuantParams(n=3, alpha=0.25)
    layer, cfg = pm_layer(p, k=1, fan_in=3, fan_out=2, seed=4)
    assert verify_equivalence(layer, cfg, domain="exhaustive").passed


def test_corrupted_threshold_is_detected():
    p = QuantParams(n=3)
    layer, cfg = pm_layer(p, k=0, seed=1)
    bad = replace(cfg, theta_shift=1)  # schedule offset by one code
    report = verify_equivalence(layer, bad, domain="exhaustive")
    assert not report.passed
    assert report.max_abs_deviation >= 1


def test_sampled_preactivations():
    p = QuantParams(n=4)
    cfg = derive_snn_config(p, zero_centered_i_max(p), 1)
    layer = QnnLayer(
        weights=np.ones((1, 1)), bias=np.zeros(1), in_params=p, out_params=p, mu=0, k=1
    )
    report = verify_equivalence(layer, cfg, domain="sampled", samples=5000, seed=42)
    assert report.passed and report.cases_checked == 5000


def _sampled_control(alpha):
    """n=4, k=1 layer whose threshold schedule is offset by one code."""
    p = QuantParams(n=4, alpha=alpha)
    cfg = replace(derive_snn_config(p, zero_centered_i_max(p), 1), theta_shift=1)
    layer = QnnLayer(weights=[[1.0]], bias=[0.0], in_params=p, out_params=p, mu=0, k=1)
    return layer, cfg


# sha256 of the sorted-key to_dict() JSON of 10,000 sampled draws (seed 5)
# on the offset layer: 4,026 mismatch, so the digest pins their draw order.
SAMPLED_CONTROL_SHA256 = {
    1.0: "54b6be51d3e68e1b3528063231b07e56aef9983e179b760eb55918cd30263af5",
    0.37: "68ec351178db64ebe6b6a8979e7227dc036ec04befe11ea14b3880e2e396df6b",
}


@pytest.mark.parametrize("alpha", sorted(SAMPLED_CONTROL_SHA256))
def test_sampled_control_report_is_pinned(monkeypatch, alpha):
    monkeypatch.setattr(conversion, "KEPT", ALL)
    layer, cfg = _sampled_control(alpha)
    report = verify_equivalence(layer, cfg, domain="sampled", samples=10_000, seed=5)
    assert report.mismatch_count == len(report.mismatches) == 4026
    text = json.dumps(report.to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SAMPLED_CONTROL_SHA256[alpha]


@pytest.mark.parametrize("theta_shift", [0, 1])
@pytest.mark.parametrize(
    "dtype",
    [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64],
    ids=lambda t: t.__name__,
)
def test_numpy_integer_dead_zone_verifies_as_its_python_int_twin(dtype, theta_shift):
    # a numpy mu and k are stored as plain ints: an unsigned mu once wrapped
    # the scalar filter's code - mu (OverflowError in the sampled domain)
    p = QuantParams(n=3)
    cfg = replace(derive_snn_config(p, zero_centered_i_max(p), 1), theta_shift=theta_shift)
    twin, _ = pm_layer(p, k=1, fan_in=2, fan_out=2, seed=4)
    layer = replace(twin, mu=dtype(0), k=dtype(1))
    assert type(layer.mu) is int and type(layer.k) is int
    for kwargs in ({"domain": "exhaustive"}, {"domain": "sampled", "samples": 3000, "seed": 2}):
        got = verify_equivalence(layer, cfg, **kwargs).to_dict()
        assert got == verify_equivalence(twin, cfg, **kwargs).to_dict()
        assert got["passed"] == (theta_shift == 0)


def test_sampled_chunks_keep_the_draw_order(monkeypatch):
    # chunks of 7 over 100 draws, the last one partial, report what one pass
    # over one whole-size draw reports (fired by the closed form here)
    monkeypatch.setattr(conversion, "_SAMPLE_CHUNK", 7)
    monkeypatch.setattr(conversion, "KEPT", ALL)
    layer, cfg = _sampled_control(0.37)
    got = verify_equivalence(layer, cfg, domain="sampled", samples=100, seed=3)
    want = EquivalenceReport(cases_checked=100)
    span = 2.0 * cfg.alpha * 2 ** (cfg.n - 1)
    draws = np.random.default_rng(3).uniform(-span, span, 100).tolist()
    qnn_codes = [dead_zone_filter(quantize(a, layer.out_params), layer.mu, layer.k) for a in draws]
    want.record(draws, qnn_codes, [decode_spike(fire_analytic(a, cfg), cfg) for a in draws])
    assert got.mismatches and got.to_dict() == want.to_dict()


def _scalar_sampled_report(layer, cfg, samples, seed):
    """The sampled report of a per-draw scalar loop: ``fire_simulated`` and
    ``decode_spike`` one draw at a time."""
    report = EquivalenceReport(cases_checked=samples)
    span = 2.0 * cfg.alpha * 2 ** (cfg.n - 1)
    draws = np.random.default_rng(seed).uniform(-span, span, samples).tolist()
    qnn_codes = [dead_zone_filter(quantize(a, layer.out_params), layer.mu, layer.k) for a in draws]
    report.record(draws, qnn_codes, [decode_spike(fire_simulated(a, cfg), cfg) for a in draws])
    return report


def test_sampled_runs_the_scalar_exact_floor_once_per_draw(monkeypatch):
    # the ground truth stays the independent scalar oracle: chunks of 7 over
    # 100 draws, the last one partial, quantize each draw once, in draw order
    calls = []

    def counting_quantize(a, p):
        calls.append(a)
        return quantize(a, p)

    monkeypatch.setattr(conversion, "_SAMPLE_CHUNK", 7)
    monkeypatch.setattr(conversion, "KEPT", ALL)
    monkeypatch.setattr(conversion, "quantize", counting_quantize)
    layer, cfg = _sampled_control(0.37)
    got = verify_equivalence(layer, cfg, domain="sampled", samples=100, seed=3)
    span = 2.0 * cfg.alpha * 2 ** (cfg.n - 1)
    assert calls == np.random.default_rng(3).uniform(-span, span, 100).tolist()
    assert got.mismatches and got.to_dict() == _scalar_sampled_report(layer, cfg, 100, 3).to_dict()
    # numpy codes would compare equal above but not serialize as JSON ints
    assert type(got.max_abs_deviation) is int
    assert all(type(m[side]) is int for m in got.mismatches for side in ("qnn", "snn"))


def test_sampled_draws_take_the_exact_check_only_on_an_integral_quotient(monkeypatch):
    # quantize settles a fractional float quotient inline: floor_ratio, and
    # its exact compare, run once per draw whose a / alpha is an integer
    calls, floors = [], []
    exact, floor = numerics.ge_scaled, qnn.floor_ratio
    monkeypatch.setattr(numerics, "ge_scaled", lambda *a: calls.append(a) or exact(*a))
    monkeypatch.setattr(qnn, "floor_ratio", lambda *a: floors.append(a) or floor(*a))
    layer, cfg = _sampled_control(0.37)
    verify_equivalence(layer, cfg, domain="sampled", samples=10_000, seed=5)
    span = 2.0 * cfg.alpha * 2 ** (cfg.n - 1)
    ratios = np.random.default_rng(5).uniform(-span, span, 10_000) / cfg.alpha
    # real draws almost never tie: here floor_ratio runs on none of 10,000
    integral = np.count_nonzero(ratios == np.floor(ratios))
    assert len(calls) == len(floors) == integral


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 8),
    mode=st.sampled_from(["symmetric", "asymmetric"]),
    alpha=st.sampled_from([1.0, 0.37, 2.0**-1000]),
    i_max_offset=st.integers(-1, 1),
    k=st.integers(0, 1),
    theta_shift=st.integers(-1, 1),
    samples=st.integers(0, 300),
    chunk=st.sampled_from([7, 64, 2**10]),
    seed=st.integers(0, 2**32),
)
@example(
    n=21, mode="symmetric", alpha=0.37, i_max_offset=1, k=1, theta_shift=1, samples=40, chunk=16, seed=5
)  # no ramp table: the array kernel bisects
def test_sampled_report_matches_scalar_reference(
    n, mode, alpha, i_max_offset, k, theta_shift, samples, chunk, seed
):
    p = QuantParams(n=n, alpha=alpha, mode=mode)
    i_max = min(max(zero_centered_i_max(p) + i_max_offset, 0), 2**n - 1)
    cfg = replace(derive_snn_config(p, i_max, k), theta_shift=theta_shift)
    layer = QnnLayer(weights=[[1.0]], bias=[0.0], in_params=p, out_params=p, mu=cfg.mu, k=k)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conversion, "_SAMPLE_CHUNK", chunk)
        mp.setattr(conversion, "KEPT", ALL)
        got = verify_equivalence(layer, cfg, domain="sampled", samples=samples, seed=seed)
        want = _scalar_sampled_report(layer, cfg, samples, seed)
    assert got.to_dict() == want.to_dict()


def test_sampled_memory_does_not_grow_with_the_sample_count():
    layer, cfg = pm_layer(QuantParams(n=4, alpha=0.37), k=1, fan_in=1, fan_out=1)

    def peak(samples):
        tracemalloc.start()
        try:
            report = verify_equivalence(layer, cfg, domain="sampled", samples=samples, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            assert report.passed and report.cases_checked == samples

    peak(16)  # fill the config's codebook first
    assert peak(2**15) < 1.25 * peak(2**13)  # one whole-size draw holds 8 bytes a sample


def test_sampled_refuses_a_negative_count():
    layer, cfg = _sampled_control(1.0)
    with pytest.raises(ValueError, match="samples must be >= 0"):
        verify_equivalence(layer, cfg, domain="sampled", samples=-1)


@pytest.mark.parametrize("seed, needle", [(-1, "seed must be >= 0"), (1.5, "seed must be an integer")])
def test_sampled_refuses_a_bad_seed(seed, needle):
    # numpy refused a negative seed with a message that named no field
    layer, cfg = _sampled_control(1.0)
    with pytest.raises(ValueError, match=needle):
        verify_equivalence(layer, cfg, domain="sampled", samples=10, seed=seed)


@pytest.mark.parametrize("samples", [2.7, 2.0, True, "5", None])
def test_sampled_refuses_a_non_integer_count(samples):
    layer, cfg = _sampled_control(1.0)
    with pytest.raises(ValueError, match="samples must be an integer"):
        verify_equivalence(layer, cfg, domain="sampled", samples=samples)
    report = verify_equivalence(layer, cfg, domain="sampled", samples=np.int64(3))
    assert report.cases_checked == 3


@pytest.mark.parametrize("n", [3, 4, 30])
def test_sampled_refuses_an_overflowing_span(n):
    # the draws span +/-2^n x alpha, a width of 2^(n+1) x alpha; numpy
    # refused a width past the largest float with a bare OverflowError
    for alpha in (2.0 ** (1023 - n), 1e308):
        layer, cfg = pm_layer(QuantParams(n=n, alpha=alpha), k=0, fan_in=1, fan_out=1)
        with pytest.raises(ValueError, match=re.escape(f"scale {alpha!r} at n={n}")):
            verify_equivalence(layer, cfg, domain="sampled", samples=10)
    # one binade lower the width is finite, and the draws run
    layer, cfg = pm_layer(QuantParams(n=n, alpha=2.0 ** (1022 - n)), k=0, fan_in=1, fan_out=1)
    assert verify_equivalence(layer, cfg, domain="sampled", samples=10).cases_checked == 10


@pytest.mark.parametrize("mode", ["symmetric", "asymmetric"])
def test_sampled_refuses_a_window_over_2_63(mode):
    # asymmetric 64-bit codes reach 2^64 - 1: the int64 ground truth would
    # overflow, so the window is refused before any draw (zero samples once
    # returned a passing, empty report)
    p = QuantParams(n=64, alpha=1e-300, mode=mode)
    cfg = derive_snn_config(p, zero_centered_i_max(p), 0)
    layer = QnnLayer(np.ones((1, 1)), np.zeros(1), in_params=p, out_params=p, mu=cfg.mu)
    for samples in (0, 1, 10):
        with pytest.raises(ValueError, match=r"2\^64-step window do not fit int64"):
            verify_equivalence(layer, cfg, domain="sampled", samples=samples)


def test_saturating_inputs_agree():
    # weights all +1 drive pre-activations beyond the clip range
    p = QuantParams(n=3)
    layer = QnnLayer(
        weights=np.ones((4, 1)), bias=np.zeros(1), in_params=p, out_params=p, mu=0, k=0
    )
    cfg = derive_snn_config(p, zero_centered_i_max(p), 0)
    assert verify_equivalence(layer, cfg, domain="exhaustive").passed


def test_config_mismatch_raises():
    p = QuantParams(n=3)
    layer, cfg = pm_layer(p, k=0)
    with pytest.raises(ValueError):
        verify_equivalence(layer, replace(cfg, k=2), domain="exhaustive")
    with pytest.raises(ValueError):
        verify_equivalence(layer, derive_snn_config(QuantParams(n=4), 7, 0), domain="exhaustive")


def _counting_walks(monkeypatch):
    """Patch every binding of the threshold walk; the returned list gets a
    copy of each array the walk is called on."""
    walks = []
    walk = spike.fire_simulated_array

    def counting_walk(potentials, cfg):
        walks.append(np.array(potentials, dtype=np.float64))
        return walk(potentials, cfg)

    for module in (spike, conversion):  # every binding a walk could go through
        monkeypatch.setattr(module, "fire_simulated_array", counting_walk, raising=False)
    return walks


def _counting_blocks(monkeypatch):
    """Patch the code-block builder to log the (start, stop) rows of each
    block it builds; returns the log."""
    blocks = []
    block = conversion._code_block

    def code_block(start, stop, *args):
        blocks.append((start, stop))
        return block(start, stop, *args)

    monkeypatch.setattr(conversion, "_code_block", code_block)
    return blocks


def _assert_blocks_cover(blocks, vectors):
    """The blocks' rows are every vector once, in order."""
    assert [start for start, _ in blocks] == [0] + [stop for _, stop in blocks[:-1]]
    assert blocks[-1][1] == vectors


def _scalar_potentials(layer, input_cfg):
    """The scalar reference's potential of every (vector, output)."""
    codes = range(input_cfg.code_min, input_cfg.code_max + 1)
    return [
        integrate(
            [(encode_integer(q, input_cfg), layer.weights[i, j]) for i, q in enumerate(raw)],
            input_cfg,
            bias=layer.bias[j],
        )
        for raw in itertools.product(codes, repeat=layer.fan_in)
        for j in range(layer.fan_out)
    ]


def _stage_floats(cfg):
    """The floats the output-stage fact walks at a small window: +/-inf,
    +/-max, then each threshold code's product and the floats either side."""
    top = np.finfo(np.float64).max
    p = cfg.alpha * np.arange(cfg.code_min + 1, cfg.code_max + 1, dtype=np.float64)
    ends = [-np.inf, -top, top, np.inf]
    return np.concatenate([ends, np.nextafter(p, -np.inf), p, np.nextafter(p, np.inf)])


def test_exhaustive_walks_thresholds_once_per_output(monkeypatch):
    # a passing layer is settled by its output config: the threshold walk
    # runs once per output config, on the floats either side of each
    # threshold, and never on a potential; a warm call walks nothing
    walks = _counting_walks(monkeypatch)
    layer, cfg = pm_layer(QuantParams(n=2), k=1, fan_in=3, fan_out=2, bias=np.array([0.0, 0.5]))
    for walked in ([_stage_floats(cfg)], []):  # the config cold, then warm
        walks.clear()
        report = verify_equivalence(layer, cfg, domain="exhaustive")
        assert report.passed and report.cases_checked == 4**3
        assert len(walks) == len(walked)
        assert all(np.array_equal(a, b) for a, b in zip(walks, walked))
    # the biased output's potentials are x.5, no threshold's neighbours
    assert not set(_scalar_potentials(layer, cfg)[1::2]) & set(_stage_floats(cfg).tolist())


def test_exhaustive_walks_each_potential_once_for_real_weights(monkeypatch):
    # real weights on an off-centre dead zone (mu = 1: a silent input adds
    # nothing where its code adds alpha) take the per-block route: every
    # (vector, output) potential reaches the walk exactly once
    walks = _counting_walks(monkeypatch)
    p = QuantParams(n=2)
    cfg = derive_snn_config(p, i_max=0, k=1)
    rng = np.random.default_rng(2)
    layer = QnnLayer(rng.normal(size=(3, 2)), np.zeros(2), in_params=p, out_params=p, mu=cfg.mu, k=1)
    report = verify_equivalence(layer, cfg, domain="exhaustive")
    assert report.cases_checked == 4**3
    seen = [v for walked in walks for v in walked.ravel().tolist()]
    expected = _scalar_potentials(layer, cfg)
    assert len(expected) == 4**3 * 2
    assert sorted(seen) == sorted(expected)


def default_input_cfg(layer, cfg):
    """The input encoding ``verify_equivalence`` derives when given none."""
    p_in = layer.in_params
    i_max_in = cfg.i_max if cfg.i_max < 2**p_in.n else zero_centered_i_max(p_in)
    return derive_snn_config(p_in, i_max_in, layer.k)


def reference_exhaustive(layer, cfg):
    """The scalar exhaustive sweep, one code vector at a time."""
    input_cfg = default_input_cfg(layer, cfg)
    codes = range(layer.in_params.code_min, layer.in_params.code_max + 1)
    vectors = list(itertools.product(codes, repeat=layer.fan_in))
    qnn_codes, snn_codes = [], []
    for raw in vectors:
        filtered = [dead_zone_filter(q, input_cfg.mu, input_cfg.k) for q in raw]
        qnn_codes.append(layer_forward(filtered, layer).tolist())
        trains = [encode_integer(q, input_cfg) for q in raw]
        snn_codes.append([])
        for j in range(layer.fan_out):
            inputs = [(trains[i], layer.weights[i, j]) for i in range(layer.fan_in)]
            potential = integrate(inputs, input_cfg, bias=layer.bias[j])
            snn_codes[-1].append(decode_spike(fire_simulated(potential, cfg), cfg))
    report = EquivalenceReport(cases_checked=len(vectors))
    report.record(vectors, qnn_codes, snn_codes)
    return report


@pytest.mark.parametrize(
    "shape, block_terms",
    [
        ((2, 4, 2, 4), conversion.BLOCK_TERMS),
        ((3, 3, 3, 2), conversion.BLOCK_TERMS),
        ((2, 4, 2, 4), 6),  # one vector a block, its outputs in chunks of 3 and 1
    ],
    # ids name the constant, not its value, so retuning it renames no test
    ids=["shape0-BLOCK_TERMS", "shape1-BLOCK_TERMS", "shape2-6"],
)
@pytest.mark.parametrize("mode", ["symmetric", "asymmetric"])
def test_exhaustive_report_matches_scalar_reference(monkeypatch, shape, block_terms, mode):
    # failing configs included: a shifted threshold schedule, an off-centre
    # dead zone (the input's too where the mask fits its window), real
    # weights at non-dyadic scales, mixed widths
    monkeypatch.setattr(conversion, "BLOCK_TERMS", block_terms)
    monkeypatch.setattr(conversion, "KEPT", ALL)
    n_in, n_out, fan_in, fan_out = shape
    rng = np.random.default_rng(11)
    failing = 0
    for k, (alpha, real), shift, off_centre in itertools.product(
        (0, 1, 2), [(1.0, False), (0.37, True), (0.1, True)], (0, 1), (False, True)
    ):
        p_in, p_out = QuantParams(n_in, alpha, mode), QuantParams(n_out, alpha, mode)
        i_max = zero_centered_i_max(p_out) - off_centre
        cfg = replace(derive_snn_config(p_out, i_max, k), theta_shift=shift)
        weights = rng.normal(size=(fan_in, fan_out)) if real else rng.choice([-1.0, 1.0], (fan_in, fan_out))
        layer = QnnLayer(
            weights=weights,
            bias=rng.normal(size=fan_out) if real else np.zeros(fan_out),
            in_params=p_in,
            out_params=p_out,
            mu=cfg.mu,
            k=k,
        )
        want = reference_exhaustive(layer, cfg).to_dict()
        assert verify_equivalence(layer, cfg).to_dict() == want
        failing += not want["passed"]
    assert failing > 0


@settings(max_examples=100, deadline=None)
@example(  # a shifted schedule whose fired codes leave and enter the dead zone
    n_in=3, n_out=3, mode="symmetric", k=1, theta_shift=1, real=False, fan=(2, 2), block_terms=3,
    seed=1, i_max=None,
)
@given(
    n_in=st.integers(1, 3),
    n_out=st.integers(1, 3),
    mode=st.sampled_from(["symmetric", "asymmetric"]),
    k=st.integers(0, 2),
    theta_shift=st.integers(0, 1),
    real=st.booleans(),
    fan=st.tuples(st.integers(1, 3), st.integers(1, 4)),
    block_terms=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    i_max=st.none() | st.integers(0, 7),
)
def test_exhaustive_report_matches_scalar_reference_for_random_layers(
    n_in, n_out, mode, k, theta_shift, real, fan, block_terms, seed, i_max
):
    # small blocks split the vectors across blocks and a vector's outputs
    # across chunks; an off-centre dead zone (the input's too where the
    # mask fits its window) and a shifted threshold schedule make
    # mismatches the report must list in the same order
    fan_in, fan_out = fan
    alpha = 0.37 if real else 1.0
    p_in, p_out = QuantParams(n_in, alpha, mode), QuantParams(n_out, alpha, mode)
    i_max = zero_centered_i_max(p_out) if i_max is None else i_max % 2**n_out
    cfg = replace(derive_snn_config(p_out, i_max, k), theta_shift=theta_shift)
    rng = np.random.default_rng(seed)
    shape = (fan_in, fan_out)
    layer = QnnLayer(
        weights=rng.normal(size=shape) if real else rng.choice([-1.0, 1.0], shape),
        bias=rng.normal(size=fan_out) if real else np.zeros(fan_out),
        in_params=p_in,
        out_params=p_out,
        mu=cfg.mu,
        k=k,
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conversion, "BLOCK_TERMS", block_terms)
        mp.setattr(conversion, "KEPT", ALL)
        got = verify_equivalence(layer, cfg).to_dict()
        assert got == reference_exhaustive(layer, cfg).to_dict()


def _term_tables(layer, input_cfg):
    """Each side's term per input code and unit weight, from the scalar
    oracles: (quantized, spiking)."""
    codes = range(input_cfg.code_min, input_cfg.code_max + 1)
    alpha = layer.in_params.alpha
    quantized = [alpha * dead_zone_filter(q, input_cfg.mu, input_cfg.k) for q in codes]
    spiking = [integrate([(encode_integer(q, input_cfg), 1.0)], input_cfg) for q in codes]
    return quantized, spiking


def _same_terms(layer, input_cfg):
    """Whether the scalar oracles' two term tables match bit for bit."""
    quantized, spiking = _term_tables(layer, input_cfg)
    return [v.hex() for v in quantized] == [v.hex() for v in spiking]


@settings(max_examples=100, deadline=None)
@given(
    n_in=st.integers(1, 3),
    n_out=st.integers(1, 3),
    mode=st.sampled_from(["symmetric", "asymmetric"]),
    k=st.integers(0, 2),
    theta_shift=st.integers(0, 1),
    weights=st.sampled_from(["integer", "pm_one", "real"]),
    alpha=st.sampled_from([1.0, 2.0, 0.5, 0.37]),
    fan=st.tuples(st.integers(1, 3), st.integers(1, 4)),
    seed=st.integers(0, 2**32 - 1),
    i_max=st.none() | st.integers(0, 7),
)
def test_exhaustive_certificate_route_matches_scalar_reference(
    n_in, n_out, mode, k, theta_shift, weights, alpha, fan, seed, i_max
):
    # integer weights in [-3, 3] (zero included) with no bias, +/-1 weights
    # with a real bias, or real weights and bias; a shifted threshold
    # schedule and an off-centre dead zone (the input's too where the mask
    # fits its window) make mismatches.  Where the scalar terms match and
    # the output stage agrees on every float, no potential is walked and no
    # block is built; anywhere else the blocks walk every potential once.
    fan_in, fan_out = fan
    p_in, p_out = QuantParams(n_in, alpha, mode), QuantParams(n_out, alpha, mode)
    i_max = zero_centered_i_max(p_out) if i_max is None else i_max % 2**n_out
    cfg = replace(derive_snn_config(p_out, i_max, k), theta_shift=theta_shift)
    rng = np.random.default_rng(seed)
    shape = (fan_in, fan_out)
    draw = {
        "integer": lambda: rng.integers(-3, 4, shape),
        "pm_one": lambda: rng.choice([-1.0, 1.0], shape),
        "real": lambda: rng.normal(size=shape),
    }
    layer = QnnLayer(
        weights=draw[weights](),
        bias=np.zeros(fan_out) if weights == "integer" else rng.normal(size=fan_out),
        in_params=p_in,
        out_params=p_out,
        mu=cfg.mu,
        k=k,
    )
    encoding = default_input_cfg(layer, cfg)
    proven = _same_terms(layer, encoding) and cfg._stage_witness is None  # warm: no walk
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conversion, "BLOCK_TERMS", 40)
        mp.setattr(conversion, "KEPT", ALL)
        walks = _counting_walks(mp)
        blocks = _counting_blocks(mp)
        got = verify_equivalence(layer, cfg).to_dict()
        assert got == reference_exhaustive(layer, cfg).to_dict()
    if proven:
        assert got["passed"] and walks == [] and blocks == []
    else:
        seen = [v for walked in walks for v in walked.ravel().tolist()]
        assert sorted(seen) == sorted(_scalar_potentials(layer, encoding))


def test_exhaustive_passes_an_equal_table_layer_without_a_block(monkeypatch):
    # a centered input dead zone makes the two term tables equal, so a
    # passing layer is settled by its configs and builds no code block,
    # whatever its weights and scale; its shifted-schedule twin fails there
    # and checks every vector
    monkeypatch.setattr(conversion, "BLOCK_TERMS", 64)
    monkeypatch.setattr(conversion, "KEPT", ALL)
    blocks = _counting_blocks(monkeypatch)
    rng = np.random.default_rng(12)
    for alpha, real in itertools.product((1.0, 0.37), (False, True)):
        layer, cfg = pm_layer(QuantParams(n=3, alpha=alpha), k=1, fan_in=3, fan_out=2)
        bias = rng.normal(size=2) if real else np.array([0.0, 0.5])
        weights = rng.normal(size=(3, 2)) if real else layer.weights
        layer = replace(layer, weights=weights, bias=bias)
        for theta_shift in (0, 1):
            blocks.clear()
            control = replace(cfg, theta_shift=theta_shift)
            report = verify_equivalence(layer, control, domain="exhaustive")
            assert report.to_dict() == reference_exhaustive(layer, control).to_dict()
            assert report.passed == (theta_shift == 0) and report.cases_checked == 8**3
            if report.passed:
                assert blocks == []
            else:
                assert len(blocks) > 2
                _assert_blocks_cover(blocks, 8**3)


@settings(max_examples=100, deadline=None)
@example(  # a control whose bad potentials fall in some of its blocks
    n=2, mode="symmetric", k=0, theta_shift=1, integer_weights=True, alpha=1.0, fan=(3, 1), seed=0
)
@given(
    n=st.integers(1, 3),
    mode=st.sampled_from(["symmetric", "asymmetric"]),
    k=st.integers(0, 2),
    theta_shift=st.integers(0, 1),
    integer_weights=st.booleans(),
    alpha=st.sampled_from([1.0, 2.0, 0.5, 0.37]),
    fan=st.tuples(st.integers(1, 3), st.integers(1, 4)),
    seed=st.integers(0, 2**32 - 1),
)
def test_exhaustive_verdict_route_matches_scalar_reference(
    n, mode, k, theta_shift, integer_weights, alpha, fan, seed
):
    # input codes encoded with the dead zone on zero give equal term tables,
    # which the derived input encoding does only at one width for both
    # sides; integer weights in [-3, 3] with no bias, or +/-1 weights with
    # a real bias.  Small blocks make a run of many, and a shifted threshold
    # schedule puts bad potentials in some.  A stage that agrees on every
    # float settles the run with no block; any other checks every vector.
    fan_in, fan_out = fan
    p_in = p_out = QuantParams(n, alpha, mode)
    cfg = replace(derive_snn_config(p_out, zero_centered_i_max(p_out), k), theta_shift=theta_shift)
    rng = np.random.default_rng(seed)
    shape = (fan_in, fan_out)
    layer = QnnLayer(
        weights=rng.integers(-3, 4, shape) if integer_weights else rng.choice([-1.0, 1.0], shape),
        bias=np.zeros(fan_out) if integer_weights else rng.normal(size=fan_out),
        in_params=p_in,
        out_params=p_out,
        mu=cfg.mu,
        k=k,
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conversion, "BLOCK_TERMS", 3 * fan_out)
        mp.setattr(conversion, "KEPT", ALL)
        blocks = _counting_blocks(mp)
        got = verify_equivalence(layer, cfg).to_dict()
        assert got == reference_exhaustive(layer, cfg).to_dict()
    if cfg._stage_witness is None:
        assert got["passed"] and blocks == []  # settled by the configs
    else:
        _assert_blocks_cover(blocks, 2 ** (n * fan_in))


def test_exhaustive_proves_a_layer_whose_sums_reach_2_53(monkeypatch):
    # (2^51 + 2^51) x |-2| = 2^53: the potentials reach 2^53, where no
    # integer sum bound holds any more; the configs' facts hold for any
    # weights, so no potential is walked
    monkeypatch.setattr(conversion, "KEPT", ALL)
    p = QuantParams(n=2)
    layer = QnnLayer(
        weights=np.full((2, 1), 2.0**51), bias=np.zeros(1), in_params=p, out_params=p
    )
    cfg = derive_snn_config(p, zero_centered_i_max(p), 0)
    assert max(map(abs, _scalar_potentials(layer, cfg))) == 2**53
    cfg._stage_witness  # warm
    walks = _counting_walks(monkeypatch)
    got = verify_equivalence(layer, cfg, domain="exhaustive").to_dict()
    assert got == reference_exhaustive(layer, cfg).to_dict()
    assert got["passed"] and walks == []


def test_exhaustive_proves_a_transformer_size_layer_in_under_a_second():
    # 768 x 768 +/-1 weights at alpha 0.37 with a real bias: 16^768 input
    # vectors, proven from two facts of the config, no sum taken
    p = QuantParams(n=4, alpha=0.37)
    bias = np.random.default_rng(7).normal(size=768)
    layer, cfg = pm_layer(p, k=1, fan_in=768, fan_out=768, seed=7, bias=bias)
    start = time.perf_counter()
    report = verify_equivalence(layer, cfg, domain="exhaustive")
    assert time.perf_counter() - start < 1.0
    assert report.passed and report.cases_checked == 16**768


@pytest.mark.parametrize("n", range(1, 17))
def test_code_block_rows_match_itertools_product(n):
    # 2^16 vectors at most: fan-in 4 up to n = 4, one input from n = 9
    fan_in = max(1, min(4, 16 // n))
    want = np.array(list(itertools.product(range(2**n), repeat=fan_in)), dtype=np.int64)
    vectors = len(want)
    # an odd step, so blocks start off the multiples of 2^n and the last is partial
    step = 2 ** (n * fan_in // 2) + 3
    blocks = [
        conversion._code_block(start, min(start + step, vectors), n, fan_in)
        for start in range(0, vectors, step)
    ]
    assert len(blocks) > 1 and len(blocks[-1]) < step
    assert np.array_equal(np.concatenate(blocks), want)


def test_exhaustive_builds_the_small_domain_tables_once_per_config(monkeypatch):
    # encoding, filtering and decoding run over their finite domains once a
    # config, however many vectors and blocks the sweep holds: the first call
    # on a fresh config builds each table once (the input and output sides
    # share it here), and a second call on the same config builds none, on
    # the certificate route (a centered dead zone, whose stage is walked once)
    # and the per-block route (an off-centre one at fan-in 4, 8 vectors a block)
    monkeypatch.setattr(conversion, "BLOCK_TERMS", 64)
    monkeypatch.setattr(conversion, "KEPT", ALL)
    routes = []
    for fan_in, i_max, walked in ((3, None, 1), (4, 2, 8**4 // 8)):
        layer, cfg = pm_layer(QuantParams(n=3), k=1, fan_in=fan_in, fan_out=2)
        cfg = derive_snn_config(layer.in_params, cfg.i_max if i_max is None else i_max, 1)
        layer = replace(layer, mu=cfg.mu)
        routes.append((layer, cfg, walked, reference_exhaustive(layer, cfg).to_dict()))
    names = ("encode_integer_array", "dead_zone_filter_array", "decode_spike_array")
    counts = dict.fromkeys(names, 0)
    for name in names:
        kernel = getattr(spike if hasattr(spike, name) else qnn, name)

        def counting(*args, _name=name, _kernel=kernel):
            counts[_name] += 1
            return _kernel(*args)

        for module in (conversion, spike, qnn):
            monkeypatch.setattr(module, name, counting, raising=False)
    walks = _counting_walks(monkeypatch)
    for layer, cfg, walked, want in routes:
        for built in (1, 0):  # the config cold, then warm
            counts.update(dict.fromkeys(names, 0))
            walks.clear()
            report = verify_equivalence(layer, cfg, domain="exhaustive")
            assert report.to_dict() == want
            assert counts == dict.fromkeys(names, built)
            assert len(walks) == (walked if cfg.mu else built)


def test_exhaustive_integrates_the_input_trains_once_per_config(monkeypatch):
    # the sweep sums rows of the per-input-code term tables: the trains are
    # integrated once per config, one per input code, to build the spiking
    # side's table, however many blocks or calls the sweep holds, on the
    # certificate route (a centered dead zone: the stage is walked once a
    # config) and the per-block route (an off-centre one, two vectors a block)
    monkeypatch.setattr(conversion, "BLOCK_TERMS", 16)
    integrated = []
    kernel = spike.integrate_array

    def counting(times, *args, **kwargs):
        integrated.append(np.array(times))
        return kernel(times, *args, **kwargs)

    for module in (spike, conversion):
        monkeypatch.setattr(module, "integrate_array", counting, raising=False)
    walks = _counting_walks(monkeypatch)
    p = QuantParams(n=2)
    weights = np.random.default_rng(2).normal(size=(3, 2))
    for i_max, walked in ((1, (1, 0)), (0, (4**3 // 2,) * 2)):
        cfg = derive_snn_config(p, i_max, 1)
        layer = QnnLayer(weights, np.zeros(2), in_params=p, out_params=p, mu=cfg.mu, k=1)
        reports = []
        for shapes, walks_made in zip(([(4, 1)], []), walked):  # the config cold, then warm
            integrated.clear()
            walks.clear()
            report = verify_equivalence(layer, cfg, domain="exhaustive")
            assert report.cases_checked == 4**3 and report.passed == (cfg.mu == 0)
            assert len(walks) == walks_made
            assert [times.shape for times in integrated] == shapes
            reports.append(report.to_dict())
        assert reports[0] == reports[1]


@pytest.mark.parametrize("mode", [spike.SYMMETRIC, ASYMMETRIC])
def test_exhaustive_reports_match_on_cold_and_warm_configs(mode):
    # the tables a config caches change no report: a fresh config and one an
    # earlier call warmed report alike, on the certificate and per-block
    # routes, passing and failing, with the input config shared or built per
    # call.  The warm config keeps its decode and filter tables; where it
    # serves the input side too (theta_shift 0), its term table and terms
    # fact; and its stage fact wherever the input side's terms are the same.
    p = QuantParams(n=3, mode=mode)
    rng = np.random.default_rng(5)
    verdicts = set()
    for k, theta_shift, i_max in itertools.product(range(3), (0, 1), (p.code_max, 1)):
        cfg = SnnLayerConfig(n=3, mode=mode, i_max=i_max, k=k, theta_shift=theta_shift)
        for weights in (rng.choice([-1.0, 2.0], (3, 2)), rng.normal(size=(3, 2))):
            bias = np.array([0.0, 1.0])
            layer = QnnLayer(weights, bias, in_params=p, out_params=p, mu=cfg.mu, k=k)
            cold = verify_equivalence(layer, replace(cfg), domain="exhaustive").to_dict()
            verify_equivalence(layer, cfg, domain="exhaustive")
            kept = {"_decode_table", "_filter_table"}
            kept |= {"_term_table", "_same_terms"} if theta_shift == 0 else set()
            kept |= {"_stage_witness"} if _same_terms(layer, default_input_cfg(layer, cfg)) else set()
            assert kept <= cfg.__dict__.keys()
            assert verify_equivalence(layer, cfg, domain="exhaustive").to_dict() == cold
            verdicts.add(cold["passed"])
    assert verdicts == {True, False}


def test_exhaustive_refuses_a_window_too_wide_before_building_tables():
    # a 2^21-step output window has no ramp table; its 2^21-entry code tables
    # (16 MiB each) are never built, nor the 8 GiB input codes of a 2^30 window
    for n_in, n_out in ((2, 21), (30, 2)):
        p_in, p_out = QuantParams(n=n_in), QuantParams(n=n_out)
        cfg = derive_snn_config(p_out, zero_centered_i_max(p_out), 0)
        layer = QnnLayer(np.ones((1, 1)), np.zeros(1), in_params=p_in, out_params=p_out)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=rf"2\^{max(n_in, n_out)} steps"):
                verify_equivalence(layer, cfg, domain="exhaustive")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


@pytest.mark.parametrize("alpha, real", [(1.0, False), (0.37, True)])
def test_exhaustive_sweep_takes_the_slow_exact_kernels_only_for_real_values(monkeypatch, alpha, real):
    # spike and qnn sum through numerics.exact_matmul and compare through
    # ge_scaled_array, which look fsum_rows and the Dekker split up here:
    # integer sums and dyadic thresholds need neither
    p = QuantParams(n=3, alpha=alpha)
    layer, cfg = pm_layer(p, k=1, seed=5)
    if real:
        rng = np.random.default_rng(5)
        layer = replace(layer, weights=rng.normal(size=(4, 4)), bias=rng.normal(size=4))
    calls = []

    def guard(name, slow):
        def call(*args):
            calls.append(name)
            if not real:
                raise AssertionError(f"{name} reached on an integer layer")
            return slow(*args)

        return call

    for name in ("fsum_rows", "_split"):
        monkeypatch.setattr(numerics, name, guard(name, getattr(numerics, name)))
    monkeypatch.setattr(conversion, "KEPT", ALL)
    got = verify_equivalence(layer, cfg, domain="exhaustive").to_dict()
    assert sorted(set(calls)) == (["_split", "fsum_rows"] if real else [])
    assert got == reference_exhaustive(layer, cfg).to_dict()


def test_exhaustive_memory_is_bounded_by_the_block():
    # vectors are built block by block from their indices, so 16x the
    # vectors does not mean 16x the memory (a shifted schedule: no certificate)
    def peak(fan_in):
        layer, cfg = pm_layer(QuantParams(n=4, alpha=0.37), k=0, fan_in=fan_in, fan_out=1)
        layer = replace(layer, weights=np.random.default_rng(1).normal(size=(fan_in, 1)))
        cfg = replace(cfg, theta_shift=1)
        tracemalloc.start()
        try:
            report = verify_equivalence(layer, cfg, domain="exhaustive")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            assert report.cases_checked == 16**fan_in

    assert peak(4) < 2 * peak(3)  # 2^16 vectors against 2^12


def test_failing_report_memory_does_not_grow_with_the_mismatches():
    # a shifted schedule over 2^20 vectors (n=4, +/-1 5x4 weights, k=1)
    # fails 1.87M of its 4.2M (vector, output) checks; the report holds KEPT
    layer, cfg = pm_layer(QuantParams(n=4), k=1, fan_in=5, fan_out=4)
    control = replace(cfg, theta_shift=1)
    tracemalloc.start()
    try:
        report = verify_equivalence(layer, control, domain="exhaustive")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.cases_checked == 2**20 and report.mismatch_count == 1_872_798
    assert len(report.mismatches) == conversion.KEPT
    assert peak < 16 * 2**20


@pytest.mark.parametrize(
    "domain",
    [{"domain": "exhaustive"}, {"domain": "sampled", "samples": 3000, "seed": 2}],
    ids=["exhaustive", "sampled"],
)
def test_a_bounded_report_is_the_full_reports_prefix(monkeypatch, domain):
    layer, cfg = pm_layer(QuantParams(n=3, alpha=0.37), k=1, fan_in=3, fan_out=2, seed=4)
    control = replace(cfg, theta_shift=1)
    reports = {}
    for kept in (3, ALL):
        monkeypatch.setattr(conversion, "KEPT", kept)
        reports[kept] = verify_equivalence(layer, control, **domain).to_dict()
    bounded, full = reports[3], reports[ALL]
    assert len(full["mismatches"]) == full["mismatch_count"] > 3
    assert bounded["mismatches"] == full["mismatches"][:3]
    bounded["mismatches"] = full["mismatches"]
    assert bounded == full


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 8),
    mode=st.sampled_from(["symmetric", "asymmetric"]),
    i_max=st.integers(0, 2**8 - 1),
    k=st.integers(0, 2),
    theta_shift=st.integers(-1, 1),
    potentials=st.lists(st.floats(allow_nan=False), min_size=1, max_size=20),
)
def test_a_decoded_code_lies_in_the_dead_zone_exactly_when_silent(
    n, mode, i_max, k, theta_shift, potentials
):
    # why the exhaustive verifier checks codes alone: a silent train decodes
    # to mu and a fired one outside [mu - k, mu + k], so codes that agree
    # also agree on silence, whether the train was fired or encoded
    cfg = SnnLayerConfig(n=n, mode=mode, i_max=i_max % 2**n, k=k, theta_shift=theta_shift)
    codes = np.arange(cfg.code_min, cfg.code_max + 1)
    for times in (
        spike.fire_simulated_array(np.array(potentials), cfg),
        spike.encode_integer_array(codes, cfg),
    ):
        decoded = spike.decode_spike_array(times, cfg)
        assert np.array_equal(np.abs(decoded - cfg.mu) <= k, times < 0)


@pytest.mark.parametrize("weights", [[1e308, 1e308], [1e308, -1e308]])
def test_exhaustive_refuses_pre_activations_past_the_float_range(weights):
    p = QuantParams(n=2)
    layer = QnnLayer(
        weights=np.array(weights).reshape(2, 1), bias=np.zeros(1), in_params=p, out_params=p
    )
    cfg = derive_snn_config(p, zero_centered_i_max(p), 0)
    with pytest.raises(ValueError, match="pre-activations up to"):
        verify_equivalence(layer, cfg, domain="exhaustive")


def test_two_layer_chain_end_to_end():
    # decoded codes of layer 1 feed layer 2; both hops stay code-exact
    p = QuantParams(n=3)
    l1, cfg = pm_layer(p, k=1, fan_in=3, fan_out=3, seed=5)
    l2, _ = pm_layer(p, k=1, fan_in=3, fan_out=3, seed=6)
    rng = np.random.default_rng(8)
    for _ in range(200):
        x = rng.integers(p.code_min, p.code_max + 1, 3)
        # encoding collapses the dead zone, so the reference sees filtered inputs
        x_f = np.array([dead_zone_filter(int(q), cfg.mu, cfg.k) for q in x])
        ref = layer_forward(layer_forward(x_f, l1), l2)
        trains = [encode_integer(int(q), cfg) for q in x]
        mid_trains = []
        for j in range(3):
            potential = integrate([(trains[i], l1.weights[i, j]) for i in range(3)], cfg)
            mid_trains.append(fire_simulated(potential, cfg))
        out = []
        for j in range(3):
            potential = integrate([(mid_trains[i], l2.weights[i, j]) for i in range(3)], cfg)
            out.append(decode_spike(fire_simulated(potential, cfg), cfg))
        assert out == ref.tolist()


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([2, 3]),
    mode=st.sampled_from(["symmetric", "asymmetric"]),
    k=st.integers(0, 2),
    alpha=st.sampled_from([1.0, 0.5, 0.25, 2.0]),
    seed=st.integers(0, 2**32 - 1),
    bias_scale=st.floats(0.0, 3.0, allow_nan=False),
)
def test_equivalence_property_random_layers(n, mode, k, alpha, seed, bias_scale):
    # arbitrary float biases are fine: integer-scaled products stay exact
    rng = np.random.default_rng(seed)
    p = QuantParams(n=n, alpha=alpha, mode=mode)
    cfg = derive_snn_config(p, zero_centered_i_max(p), k)
    layer = QnnLayer(
        weights=rng.choice([-1.0, 1.0], (3, 2)),
        bias=rng.normal(scale=bias_scale, size=2) if bias_scale else np.zeros(2),
        in_params=p,
        out_params=p,
        mu=cfg.mu,
        k=k,
    )
    assert verify_equivalence(layer, cfg, domain="exhaustive").passed


@settings(max_examples=200, deadline=None)
@given(
    mode=st.sampled_from(["symmetric", "asymmetric"]),
    k=st.integers(0, 2),
    alpha=st.sampled_from([0.37, 0.1]),
    fan_in=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_integrate_matches_pre_activation_for_real_weights(mode, k, alpha, fan_in, seed):
    # real weights: the spiking potential must round exactly like the
    # ground truth, whatever order the spikes arrive in
    rng = np.random.default_rng(seed)
    p = QuantParams(n=3, alpha=alpha, mode=mode)
    cfg = derive_snn_config(p, zero_centered_i_max(p), k)
    layer = QnnLayer(
        weights=rng.normal(size=(fan_in, 2)),
        bias=rng.normal(size=2),
        in_params=p,
        out_params=p,
        mu=cfg.mu,
        k=k,
    )
    codes = rng.integers(p.code_min, p.code_max + 1, fan_in)
    filtered = [dead_zone_filter(int(q), cfg.mu, cfg.k) for q in codes]
    trains = [encode_integer(int(q), cfg) for q in codes]
    pre = layer.pre_activation(filtered)
    for j in range(2):
        inputs = [(trains[i], layer.weights[i, j]) for i in range(fan_in)]
        potential = integrate(inputs, cfg, bias=layer.bias[j])
        assert potential.hex() == float(pre[j]).hex()


@pytest.mark.parametrize("mode", ["symmetric", "asymmetric"])
def test_equivalence_mixed_in_out_widths(mode):
    # 2-bit inputs feed a 4-bit output: the input trains live in a shorter
    # window than the output's threshold walk
    p_in, p_out = QuantParams(n=2, mode=mode), QuantParams(n=4, mode=mode)
    cfg = derive_snn_config(p_out, zero_centered_i_max(p_out), 1)
    layer = QnnLayer(
        weights=np.random.default_rng(3).choice([-1.0, 1.0], (3, 2)),
        bias=np.zeros(2),
        in_params=p_in,
        out_params=p_out,
        mu=cfg.mu,
        k=1,
    )
    report = verify_equivalence(layer, cfg, domain="exhaustive")
    assert report.cases_checked == 64
    assert report.passed, report.mismatches[:3]


def test_report_shape():
    report = EquivalenceReport()
    report.record(np.array([[1, 2], [3, 4]]), np.array([[0, 3], [7, 7]]), np.array([[0, 3], [7, 7]]))
    assert report.passed and report.mismatches == []
    # row-major order: case (vector) first, then output; every row is its case's
    report.record(np.array([[1, 2], [3, 4]]), np.array([[0, 3], [7, 7]]), np.array([[1, 3], [4, 7]]))
    assert not report.passed
    doc = report.to_dict()
    assert doc["mismatch_count"] == 2 and doc["passed"] is False
    assert doc["max_abs_deviation"] == 3 and type(doc["max_abs_deviation"]) is int
    assert doc["mismatches"] == [
        {"input": [1, 2], "qnn": 0, "snn": 1},
        {"input": [3, 4], "qnn": 7, "snn": 4},
    ]
    assert all(type(m[side]) is int for m in doc["mismatches"] for side in ("qnn", "snn"))


def test_report_counts_every_mismatch_and_holds_the_first_kept(monkeypatch):
    monkeypatch.setattr(conversion, "KEPT", 3)
    report = EquivalenceReport()
    for start in (0, 2, 4):  # the first record leaves room for one more
        draws = np.arange(start, start + 2) + 0.5
        report.record(draws, np.array([0, 0]), np.array([start + 1, -1]))
    assert report.mismatch_count == 6 and report.max_abs_deviation == 5
    assert [m["input"] for m in report.mismatches] == [0.5, 1.5, 2.5]
