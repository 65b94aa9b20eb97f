"""Config derivation and quantized/spiking equivalence sweeps."""

import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matterhorn.conversion import (
    EquivalenceReport,
    derive_snn_config,
    verify_equivalence,
    zero_centered_i_max,
)
from matterhorn.qnn import QnnLayer, QuantParams, dead_zone_filter, layer_forward, quantize
from matterhorn import conversion, spike
from matterhorn.spike import ASYMMETRIC, decode_spike, encode_integer, fire_simulated, integrate


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
    assert [cfg.alpha * cfg.threshold_code(t) for t in (0, 1, 7)] == [14.0, 12.0, 0.0]


def test_derive_asymmetric():
    cfg = derive_snn_config(QuantParams(n=4, mode=ASYMMETRIC), i_max=15, k=0)
    assert cfg.mu == 0
    assert cfg.threshold_code(0) == 15


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
    # a statistics-only encoding that silences the floor code has no
    # quantized counterpart
    with pytest.raises(ValueError, match="baseline_silent_min"):
        verify_equivalence(layer, replace(cfg, baseline_silent_min=True), domain="exhaustive")


def test_exhaustive_walks_thresholds_once_per_output(monkeypatch):
    # the fired code and the dead-zone verdict come from one walk: every
    # (vector, output) potential reaches the array walk exactly once
    seen = []
    walk = spike.fire_simulated_array

    def counting_walk(potentials, cfg):
        seen.extend(np.ravel(potentials).tolist())
        return walk(potentials, cfg)

    for module in (spike, conversion):  # every binding a walk could go through
        monkeypatch.setattr(module, "fire_simulated_array", counting_walk, raising=False)
    layer, cfg = pm_layer(QuantParams(n=2), k=1, fan_in=3, fan_out=2)
    report = verify_equivalence(layer, cfg, domain="exhaustive")
    assert report.passed and report.cases_checked == 4**3
    expected = [
        integrate([(encode_integer(q, cfg), layer.weights[i, j]) for i, q in enumerate(raw)], cfg)
        for raw in itertools.product(range(cfg.code_min, cfg.code_max + 1), repeat=3)
        for j in range(2)
    ]
    assert len(expected) == 4**3 * 2
    assert sorted(seen) == sorted(expected)


def reference_exhaustive(layer, cfg, input_cfg=None):
    """The scalar exhaustive sweep, one code vector at a time."""
    report = EquivalenceReport()
    if input_cfg is None:
        p_in = layer.in_params
        i_max_in = cfg.i_max if cfg.i_max < 2**p_in.n else zero_centered_i_max(p_in)
        input_cfg = derive_snn_config(p_in, i_max_in, layer.k)
    codes = range(layer.in_params.code_min, layer.in_params.code_max + 1)
    for raw in itertools.product(codes, repeat=layer.fan_in):
        filtered = [dead_zone_filter(q, input_cfg.mu, input_cfg.k) for q in raw]
        qnn_out = layer_forward(filtered, layer)
        pre = layer.pre_activation(filtered)
        trains = [encode_integer(q, input_cfg) for q in raw]
        report.cases_checked += 1
        for j in range(layer.fan_out):
            inputs = [(trains[i], layer.weights[i, j]) for i in range(layer.fan_in)]
            potential = integrate(inputs, input_cfg, bias=layer.bias[j])
            spike_out = fire_simulated(potential, cfg)
            snn_code = decode_spike(spike_out, cfg)
            if qnn_out[j] != snn_code:
                report.record(list(raw), int(qnn_out[j]), snn_code)
            q_unmasked = quantize(pre[j], layer.out_params)
            if spike_out.is_silent != (abs(q_unmasked - layer.mu) <= layer.k):
                report.record(list(raw), int(q_unmasked), snn_code)
    return report


@pytest.mark.parametrize(
    "shape, block_terms",
    [
        ((2, 4, 2, 4), conversion.BLOCK_TERMS),
        ((3, 3, 3, 2), conversion.BLOCK_TERMS),
        ((2, 4, 2, 4), 6),  # one vector a block, its outputs in chunks of 3 and 1
    ],
)
@pytest.mark.parametrize("mode", ["symmetric", "asymmetric"])
def test_exhaustive_report_matches_scalar_reference(monkeypatch, shape, block_terms, mode):
    # failing configs included: a shifted threshold schedule, an off-centre
    # input dead zone, real weights at non-dyadic scales, mixed widths
    monkeypatch.setattr(conversion, "BLOCK_TERMS", block_terms)
    n_in, n_out, fan_in, fan_out = shape
    rng = np.random.default_rng(11)
    failing = 0
    for k, (alpha, real), shift, off_centre in itertools.product(
        (0, 1, 2), [(1.0, False), (0.37, True), (0.1, True)], (0, 1), (False, True)
    ):
        p_in, p_out = QuantParams(n_in, alpha, mode), QuantParams(n_out, alpha, mode)
        cfg = replace(derive_snn_config(p_out, zero_centered_i_max(p_out), k), theta_shift=shift)
        weights = rng.normal(size=(fan_in, fan_out)) if real else rng.choice([-1.0, 1.0], (fan_in, fan_out))
        layer = QnnLayer(
            weights=weights,
            bias=rng.normal(size=fan_out) if real else np.zeros(fan_out),
            in_params=p_in,
            out_params=p_out,
            mu=cfg.mu,
            k=k,
        )
        input_cfg = (
            derive_snn_config(p_in, zero_centered_i_max(p_in) - 1, k) if off_centre else None
        )
        want = reference_exhaustive(layer, cfg, input_cfg).to_dict()
        assert verify_equivalence(layer, cfg, input_cfg=input_cfg).to_dict() == want
        failing += not want["passed"]
    assert failing > 0


def test_exhaustive_memory_is_bounded_by_the_block():
    # vectors are built block by block from their indices, so 16x the
    # vectors does not mean 16x the memory
    def peak(fan_in):
        layer, cfg = pm_layer(QuantParams(n=4), k=0, fan_in=fan_in, fan_out=1)
        tracemalloc.start()
        try:
            report = verify_equivalence(layer, cfg, domain="exhaustive")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            assert report.cases_checked == 16**fan_in

    assert peak(4) < 2 * peak(3)  # 2^16 vectors against 2^12


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
    assert report.passed
    report.record([1, 2], 3, 5)
    assert not report.passed
    assert report.max_abs_deviation == 2
    doc = report.to_dict()
    assert doc["mismatch_count"] == 1 and doc["passed"] is False
