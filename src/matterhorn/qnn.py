"""Quantized-layer forward path with dead-zone filtering.

This is the ground-truth side of the spiking-network equivalence check:
activations are symmetric or asymmetric integer codes produced by a
floor-based quantizer, and a dead-zone filter collapses codes near the most
frequent value.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .numerics import floor_ratio, ge_scaled_array
from .spike import SYMMETRIC, QuantParams, require_integer, require_integer_array, require_radius

__all__ = [
    "QuantParams",
    "QnnLayer",
    "quantize",
    "quantize_array",
    "dead_zone_filter",
    "dead_zone_filter_array",
    "layer_forward",
]


def quantize(a: float, p: QuantParams) -> int:
    """Clip(floor(a / alpha)) onto the code range.

    Floor is toward -inf, including negative inputs, and is computed
    exactly for ``float(a)``: a float quotient one ulp off a code boundary
    cannot flip the result.  A Python float whose quotient ``a / alpha``
    lies strictly inside +/-2^52 and is not an integer settles inline, by
    ``floor_ratio``'s own argument (a correctly rounded quotient strictly
    between two integers has the true floor).  Every other finite input
    reaches ``floor_ratio``: an integral quotient (a tie or near-tie) for
    its one exact compare, a quotient past 2^52, and any numpy float or
    int.  +/-inf saturate; NaN raises.
    """
    # NaN and +/-inf fail the range test, as in floor_ratio
    if type(a) is float and -(2.0**52) < (ratio := a / p.alpha) < 2.0**52:
        code = math.floor(ratio)
        if ratio != code:
            return p.code_min if code < p.code_min else p.code_max if code > p.code_max else code
    if not math.isfinite(a):
        if math.isnan(a):
            raise ValueError("cannot quantize NaN")
        return p.code_max if a > 0 else p.code_min
    code = floor_ratio(a, p.alpha)
    # two compares: the min/max builtins cost about as much as the floor
    return p.code_min if code < p.code_min else p.code_max if code > p.code_max else code


def quantize_array(a, p: QuantParams) -> np.ndarray:
    """Element-wise ``quantize`` as ``int64`` (codes of at most 52 bits).

    Finite inputs are first clamped to [alpha * (code_min - 1), alpha *
    (code_max + 1)], rounded: a float outside that interval saturates
    either way, so huge values never reach the exact floor.  Raises
    ValueError for NaN and for an array that is not bool, integer or float
    (numpy would parse strings, where ``quantize`` refuses them).
    """
    a = np.asarray(a)
    if a.dtype.kind not in "biuf":
        raise ValueError(f"cannot quantize an array of dtype {a.dtype}")
    a = a.astype(np.float64, copy=False)
    finite = np.isfinite(a)
    all_finite = finite.all()
    if not all_finite and np.isnan(a).any():
        raise ValueError("cannot quantize NaN")
    if p.n > 52:
        raise ValueError(f"array quantization supports codes of at most 52 bits, got {p.n}")
    lo, hi = p.alpha * (p.code_min - 1), p.alpha * (p.code_max + 1)  # inf when they overflow
    # maximum and minimum: np.clip's dispatch costs more than both on a small array
    v = np.minimum(np.maximum(a if all_finite else np.where(finite, a, 0.0), lo), hi)
    # |v / alpha| <= 2^52 + 1 now, and integers to 2^53 are floats, so the rounded
    # quotient's floor is the true floor or one above it: one exact compare settles it
    codes = np.floor(v / p.alpha).astype(np.int64)
    codes -= ~ge_scaled_array(v, p.alpha, codes)
    if not all_finite:  # +/-inf saturate
        codes = np.where(finite, codes, np.where(a > 0, p.code_max, p.code_min))
    return np.minimum(np.maximum(codes, p.code_min), p.code_max)


def dead_zone_filter(q: int, mu: int, k: int) -> int:
    """Collapse codes within radius k of mu to mu; pass everything else.
    Raises ValueError for a code that is not an integer and for a radius
    that is not an integer >= 0."""
    if type(q) is not int:
        require_integer("code", q)
    k = require_radius(k)
    return mu if abs(q - mu) <= k else int(q)


def dead_zone_filter_array(q, mu: int, k: int) -> np.ndarray:
    """Element-wise ``dead_zone_filter`` of an integer code array."""
    q = require_integer_array("codes", q).astype(np.int64)
    return np.where(np.abs(q - mu) <= require_radius(k), mu, q)


@dataclass
class QnnLayer:
    """One quantized fully-connected layer with a dead-zoned output.

    ``weights`` is input-major (C_i x C_o); entries are exactly +/-1 for
    layers destined for the crossbar.  Bias stays full precision; only
    activations are quantized.  ``mu``/``k`` define the output dead zone.
    """

    weights: np.ndarray
    bias: np.ndarray
    in_params: QuantParams
    out_params: QuantParams
    mu: int = 0
    k: int = 0

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ValueError("weights must be a 2-D matrix")
        if self.bias.shape != (self.weights.shape[1],):
            raise ValueError(
                f"bias shape {self.bias.shape} does not match {self.weights.shape[1]} outputs"
            )
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise ValueError("weights and bias must be finite")
        require_integer("mu", self.mu)
        # plain ints, as in SnnLayerConfig: a numpy unsigned mu wraps the filters
        self.mu, self.k = int(self.mu), require_radius(self.k)

    @property
    def fan_in(self) -> int:
        return int(self.weights.shape[0])

    @property
    def fan_out(self) -> int:
        return int(self.weights.shape[1])

    def pre_activation(self, x_codes) -> np.ndarray:
        """Real pre-activations for integer input codes.

        Each output is an exactly-rounded sum (order-independent), so the
        ground truth does not depend on summation order.
        """
        x = np.asarray(x_codes)
        if x.shape != (self.fan_in,):
            raise ValueError(f"expected {self.fan_in} input codes, got shape {x.shape}")
        scaled = self.in_params.alpha * x.astype(np.float64)
        out = np.empty(self.fan_out, dtype=np.float64)
        for j in range(self.fan_out):
            terms = self.weights[:, j] * scaled
            out[j] = math.fsum(terms) + self.bias[j]
        return out

    @classmethod
    def from_json(cls, text: str) -> "QnnLayer":
        doc = json.loads(text)
        bias = np.asarray(doc["bias"], dtype=np.float64)
        weights, outputs = np.asarray(doc["weights"], dtype=np.float64), bias.size
        if weights.ndim == 1 and outputs and weights.size % outputs == 0:
            weights = weights.reshape(-1, outputs)  # the flat form is input-major
        if not outputs or weights.ndim != 2 or weights.shape[1] != outputs:
            raise ValueError(
                f"weights of shape {weights.shape} are neither a flat input-major list "
                f"of a multiple of {outputs} entries nor a nested (fan_in, {outputs}) matrix"
            )
        mode = doc.get("mode", SYMMETRIC)
        QuantParams(doc["n"], 1.0, mode)  # a bad bit width or mode is no scale's fault
        params = {}
        for key in ("alpha_in", "alpha_out"):
            try:
                params[key] = QuantParams(doc["n"], doc[key], mode)
            except ValueError as exc:  # name the scale that is wrong
                raise ValueError(f"{key}: {exc}") from exc
        return cls(
            weights=weights,
            bias=bias,
            in_params=params["alpha_in"],
            out_params=params["alpha_out"],
            mu=doc.get("mu", 0),
            k=doc.get("k", 0),
        )


def layer_forward(x_codes, layer: QnnLayer) -> np.ndarray:
    """Integer output codes for integer input codes.

    Per output: quantize the pre-activation under the output params, then
    apply the dead-zone filter.
    """
    pre = layer.pre_activation(x_codes)
    out = np.empty(layer.fan_out, dtype=np.int64)
    for j in range(layer.fan_out):
        out[j] = dead_zone_filter(quantize(pre[j], layer.out_params), layer.mu, layer.k)
    return out
