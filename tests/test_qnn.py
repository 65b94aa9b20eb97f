"""Quantizer, dead-zone filter, layer forward and masked STE."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matterhorn.qnn import (
    QnnLayer,
    QuantParams,
    dead_zone_filter,
    layer_forward,
    quantize,
    ste_backward,
)
from matterhorn.spike import ASYMMETRIC, SYMMETRIC


# --- quantize -----------------------------------------------------------


def test_quantize_floor_semantics():
    p = QuantParams(n=4, alpha=1.0)
    assert quantize(3.7, p) == 3
    assert quantize(-0.5, p) == -1  # floor toward -inf, not truncation
    assert quantize(100.0, p) == 7
    assert quantize(-0.5, QuantParams(n=4, alpha=1.0, mode=ASYMMETRIC)) == 0


def test_quantize_exact_at_code_boundaries():
    # a exactly on a boundary belongs to the upper code
    p = QuantParams(n=4, alpha=0.5)
    assert quantize(1.0, p) == 2
    assert quantize(0.9999999999999999, p) == 1


def test_quantize_rejects_bad_scale():
    with pytest.raises(ValueError):
        QuantParams(n=4, alpha=-1.0)
    with pytest.raises(ValueError):
        quantize(math.nan, QuantParams(n=4))


@settings(max_examples=300, deadline=None)
@given(
    a=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    alpha=st.sampled_from([1.0, 0.5, 0.1, 2.5, 1e-4, math.e]),
    n=st.sampled_from([2, 3, 4, 8]),
    mode=st.sampled_from([SYMMETRIC, ASYMMETRIC]),
)
def test_quantize_never_leaves_code_range(a, alpha, n, mode):
    p = QuantParams(n=n, alpha=alpha, mode=mode)
    code = quantize(a, p)
    assert p.code_min <= code <= p.code_max


@settings(max_examples=200, deadline=None)
@given(
    a=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
    alpha=st.sampled_from([1.0, 0.5, 0.1, 3.0]),
)
def test_quantize_matches_exact_rational_floor(a, alpha):
    from fractions import Fraction

    p = QuantParams(n=8, alpha=alpha)
    expected = min(max(math.floor(Fraction(a) / Fraction(alpha)), p.code_min), p.code_max)
    assert quantize(a, p) == expected


# --- dead-zone filter ---------------------------------------------------


def test_filter_examples():
    assert dead_zone_filter(1, 0, 1) == 0
    assert dead_zone_filter(5, 0, 1) == 5
    assert dead_zone_filter(3, 3, 0) == 3


@given(q=st.integers(-20, 20), mu=st.integers(-8, 8), k=st.integers(0, 4))
def test_filter_idempotent(q, mu, k):
    once = dead_zone_filter(q, mu, k)
    assert dead_zone_filter(once, mu, k) == once


# --- layer forward ------------------------------------------------------


def identity_layer(n=4, alpha=1.0, k=0):
    p = QuantParams(n=n, alpha=alpha)
    return QnnLayer(
        weights=np.eye(4), bias=np.zeros(4), in_params=p, out_params=p, mu=0, k=k
    )


def test_layer_forward_identity():
    layer = identity_layer()
    x = np.array([1, -2, 3, 5])
    assert np.array_equal(layer_forward(x, layer), x)


def test_layer_forward_hand_case():
    p = QuantParams(n=4, alpha=1.0)
    layer = QnnLayer(
        weights=np.array([[2.0]]), bias=np.array([0.5]),
        in_params=p, out_params=p, mu=0, k=1,
    )
    # 2*3 + 0.5 = 6.5 -> floor 6, outside the radius-1 dead zone
    assert layer_forward(np.array([3]), layer).tolist() == [6]


def test_layer_forward_shape_error():
    layer = identity_layer()
    with pytest.raises(ValueError):
        layer_forward(np.array([1, 2]), layer)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_layer_rejects_non_finite_weights_and_bias(bad):
    p = QuantParams(n=4)
    with pytest.raises(ValueError, match="finite"):
        QnnLayer(weights=np.array([[1.0], [bad]]), bias=np.zeros(1), in_params=p, out_params=p)
    with pytest.raises(ValueError, match="finite"):
        QnnLayer(weights=np.ones((2, 1)), bias=np.array([bad]), in_params=p, out_params=p)


def test_layer_json_round_trip():
    p_in = QuantParams(n=4, alpha=0.5)
    p_out = QuantParams(n=4, alpha=2.0)
    rng = np.random.default_rng(0)
    layer = QnnLayer(
        weights=rng.choice([-1.0, 1.0], (3, 2)),
        bias=np.array([0.25, -0.5]),
        in_params=p_in,
        out_params=p_out,
        mu=0,
        k=1,
    )
    clone = QnnLayer.from_json(layer.to_json())
    assert np.array_equal(clone.weights, layer.weights)
    assert np.array_equal(clone.bias, layer.bias)
    assert clone.in_params == layer.in_params
    assert clone.out_params == layer.out_params
    assert (clone.mu, clone.k) == (layer.mu, layer.k)
    assert clone.msu_backed


def test_layer_descriptor_fields():
    doc = json.loads(identity_layer().to_json())
    assert set(doc) == {"n", "alpha_in", "alpha_out", "mode", "mu", "k", "weights", "bias"}


# --- straight-through estimator ----------------------------------------


def test_ste_passes_inside_range_outside_dead_zone():
    p = QuantParams(n=4, alpha=1.0)
    up = np.ones(3)
    a = np.array([3.5, -4.0, 5.2])
    assert np.array_equal(ste_backward(up, a, p, mu=0, k=0), np.ones(3))


def test_ste_blocks_dead_zone():
    p = QuantParams(n=4, alpha=1.0)
    grad = ste_backward(np.ones(1), np.array([0.4]), p, mu=0, k=0)  # code 0 == mu
    assert grad.tolist() == [0.0]


def test_ste_blocks_clip_saturation():
    p = QuantParams(n=4, alpha=1.0)
    grad = ste_backward(np.ones(2), np.array([12.0, -12.0]), p, mu=0, k=0)
    assert grad.tolist() == [0.0, 0.0]


def _boundary_probes(p):
    # every code boundary alpha*m and both of its float neighbours
    edges = p.alpha * np.arange(p.code_min, p.code_max + 1)
    return np.concatenate([np.nextafter(edges, -np.inf), edges, np.nextafter(edges, np.inf)])


def test_ste_support_matches_forward_set():
    # support == {a : alpha*code_min <= a <= alpha*code_max and code outside zone}
    tenth = QuantParams(n=4, alpha=0.1)
    cases = [
        # dyadic grid: float math is exact
        (QuantParams(n=3, alpha=0.5), 0, 1, np.arange(-3.0, 3.0, 0.125)),
        # float a/alpha rounds 0.5/0.1 up to code 5; the exact forward code is 4
        (tenth, 5, 0, _boundary_probes(tenth)),
        # and rounds -0.7000000000000001/0.1 up to -7; the exact code is -8
        (tenth, -7, 0, _boundary_probes(tenth)),
    ]
    for p, mu, k, grid in cases:
        grad = ste_backward(np.ones_like(grid), grid, p, mu, k)
        for a, g in zip(grid, grad):
            in_range = p.alpha * p.code_min <= a <= p.alpha * p.code_max
            outside = abs(quantize(float(a), p) - mu) > k
            assert (g != 0.0) == (in_range and outside), (p.alpha, mu, a)


def test_toy_training_reduces_loss():
    # two-layer regression with quantized hidden activations and masked STE
    rng = np.random.default_rng(7)
    p = QuantParams(n=4, alpha=0.5)
    mu, k = 0, 1
    x = rng.normal(size=(64, 6))
    teacher = rng.normal(size=(6, 1))
    y = x @ teacher
    w1 = rng.normal(scale=0.5, size=(6, 8))
    w2 = rng.normal(scale=0.5, size=(8, 1))
    lr = 0.01

    def forward(w1, w2):
        pre = x @ w1
        codes = np.clip(np.floor(pre / p.alpha), p.code_min, p.code_max)
        codes = np.where(np.abs(codes - mu) <= k, mu, codes)
        hidden = p.alpha * codes
        out = hidden @ w2
        return pre, hidden, out

    losses = []
    for _ in range(100):
        pre, hidden, out = forward(w1, w2)
        err = out - y
        losses.append(float(np.mean(err**2)))
        d_out = 2 * err / err.size
        d_hidden = d_out @ w2.T
        d_pre = ste_backward(d_hidden, pre, p, mu, k)
        w2 -= lr * hidden.T @ d_out
        w1 -= lr * x.T @ d_pre
    assert losses[-1] < losses[0]
    assert losses[-1] < 0.5 * losses[0]
