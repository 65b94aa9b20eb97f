"""Quantized-layer forward path with dead-zone filtering and masked STE.

This is the ground-truth side of the spiking-network equivalence check:
activations are symmetric or asymmetric integer codes produced by a
floor-based quantizer, a dead-zone filter collapses codes near the most
frequent value, and training uses a straight-through estimator that blocks
gradients inside the dead zone and outside the clip range.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .numerics import floor_ratio, floor_ratio_array, fsum_rows
from .spike import SYMMETRIC, QuantParams

__all__ = [
    "QuantParams",
    "QnnLayer",
    "quantize",
    "quantize_array",
    "dead_zone_filter",
    "dead_zone_filter_array",
    "layer_forward",
    "ste_backward",
]


def quantize(a: float, p: QuantParams) -> int:
    """Clip(floor(a / alpha)) onto the code range.

    Floor is toward -inf, including negative inputs, and is computed
    exactly: a float quotient one ulp off a code boundary cannot flip the
    result.
    """
    if math.isnan(a):
        raise ValueError("cannot quantize NaN")
    if math.isinf(a):
        return p.code_max if a > 0 else p.code_min
    code = floor_ratio(a, p.alpha)
    return min(max(code, p.code_min), p.code_max)


def quantize_array(a, p: QuantParams) -> np.ndarray:
    """Element-wise ``quantize`` as ``int64`` (codes of at most 52 bits).

    Finite inputs are first clamped to [alpha * (code_min - 1), alpha *
    (code_max + 1)], rounded: a float outside that interval saturates
    either way, so huge values never reach the exact floor.
    """
    a = np.asarray(a, dtype=np.float64)
    if np.isnan(a).any():
        raise ValueError("cannot quantize NaN")
    if p.n > 52:
        raise ValueError(f"array quantization supports codes of at most 52 bits, got {p.n}")
    finite = np.isfinite(a)
    lo, hi = p.alpha * (p.code_min - 1), p.alpha * (p.code_max + 1)  # inf when they overflow
    codes = floor_ratio_array(np.clip(np.where(finite, a, 0.0), lo, hi), p.alpha)
    codes = np.where(finite, codes, np.where(a > 0, p.code_max, p.code_min))
    return np.clip(codes, p.code_min, p.code_max)


def dead_zone_filter(q: int, mu: int, k: int) -> int:
    """Collapse codes within radius k of mu to mu; pass everything else."""
    return mu if abs(q - mu) <= k else int(q)


def dead_zone_filter_array(q, mu: int, k: int) -> np.ndarray:
    """Element-wise ``dead_zone_filter`` of an integer code array."""
    q = np.asarray(q, dtype=np.int64)
    return np.where(np.abs(q - mu) <= k, mu, q)


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
        if self.k < 0:
            raise ValueError(f"dead-zone radius must be >= 0, got {self.k}")

    @property
    def fan_in(self) -> int:
        return int(self.weights.shape[0])

    @property
    def fan_out(self) -> int:
        return int(self.weights.shape[1])

    @property
    def msu_backed(self) -> bool:
        """True when every weight is exactly +/-1 (crossbar-mappable)."""
        return bool(np.all(np.abs(self.weights) == 1.0))

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

    def pre_activation_array(self, x_codes, outputs: slice = slice(None)) -> np.ndarray:
        """``pre_activation`` of each row of a (vectors, fan_in) code block
        for the selected outputs, as a (vectors, outputs) array: the same
        terms, each output summed exactly rounded."""
        x = np.asarray(x_codes)
        if x.ndim != 2 or x.shape[1] != self.fan_in:
            raise ValueError(f"expected rows of {self.fan_in} input codes, got shape {x.shape}")
        scaled = self.in_params.alpha * x.astype(np.float64)
        return fsum_rows(scaled[:, None, :] * self.weights[:, outputs].T) + self.bias[outputs]

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.in_params.n,
                "alpha_in": self.in_params.alpha,
                "alpha_out": self.out_params.alpha,
                "mode": self.in_params.mode,
                "mu": self.mu,
                "k": self.k,
                "weights": self.weights.flatten().tolist(),
                "bias": self.bias.tolist(),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "QnnLayer":
        doc = json.loads(text)
        bias = np.asarray(doc["bias"], dtype=np.float64)
        weights = np.asarray(doc["weights"], dtype=np.float64).reshape(-1, bias.size)
        mode = doc.get("mode", SYMMETRIC)
        return cls(
            weights=weights,
            bias=bias,
            in_params=QuantParams(doc["n"], doc["alpha_in"], mode),
            out_params=QuantParams(doc["n"], doc["alpha_out"], mode),
            mu=int(doc.get("mu", 0)),
            k=int(doc.get("k", 0)),
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


def ste_backward(upstream, a, p: QuantParams, mu: int, k: int) -> np.ndarray:
    """Masked straight-through gradient w.r.t. the pre-activation.

    The upstream gradient passes where a/alpha lies inside the code range
    and the quantized code is outside the dead zone; it is zeroed at clip
    saturation and inside the dead zone.
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    if upstream.shape != a.shape:
        raise ValueError(f"gradient shape {upstream.shape} != activation shape {a.shape}")
    in_range = (a >= p.alpha * p.code_min) & (a <= p.alpha * p.code_max)
    # the forward codes, floored exactly: a float quotient can round onto
    # the next code at a boundary and flip the dead-zone test
    outside_dead_zone = np.abs(quantize_array(a, p) - mu) > k
    return upstream * in_range * outside_dead_zone
