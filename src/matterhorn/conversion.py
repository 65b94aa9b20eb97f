"""Quantized-to-spiking layer conversion and equivalence verification.

``derive_snn_config`` mechanically maps quantizer parameters onto a spiking
layer (window, kernel, threshold schedule, dead-zone center), and
``verify_equivalence`` then checks the converted layer against the
quantized ground truth: exhaustively over all input code vectors, or over
sampled real pre-activations.  Zero mismatches is the predicted outcome
whenever the input-side dead zone is centered on code zero, i.e. silent
inputs genuinely stand for a zero contribution; off-center configurations
surface as honest mismatches in the report.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .qnn import QnnLayer, QuantParams, dead_zone_filter, layer_forward, quantize
from .spike import (
    SnnLayerConfig,
    decode_spike,
    encode_integer,
    fire_simulated,
    integrate,
)

__all__ = [
    "EquivalenceReport",
    "derive_snn_config",
    "zero_centered_i_max",
    "verify_equivalence",
]


def derive_snn_config(p: QuantParams, i_max: int, k: int) -> SnnLayerConfig:
    """Spiking-layer configuration functionally equivalent to ``p``.

    The window matches the code resolution (T = 2**n), the dead-zone
    center becomes ``mu = code_max - i_max``, and the kernel/threshold
    schedule follow from the mode.  Raises ValueError for an ``i_max``
    outside the window.
    """
    return SnnLayerConfig(n=p.n, alpha=p.alpha, mode=p.mode, i_max=i_max, k=k)


def zero_centered_i_max(p: QuantParams) -> int:
    """The i_max that puts the silent state on code zero (mu = 0)."""
    return p.code_max


@dataclass
class EquivalenceReport:
    """Outcome of one verification sweep.

    A mismatch records the offending input, the quantized ground-truth
    code and the decoded spiking code; the sweep passes iff none exist.
    """

    cases_checked: int = 0
    mismatches: list[dict] = field(default_factory=list)
    max_abs_deviation: int = 0

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def record(self, case, qnn_code: int, snn_code: int) -> None:
        self.mismatches.append({"input": case, "qnn": int(qnn_code), "snn": int(snn_code)})
        self.max_abs_deviation = max(self.max_abs_deviation, abs(int(qnn_code) - int(snn_code)))

    def to_dict(self) -> dict:
        return {
            "cases_checked": self.cases_checked,
            "mismatch_count": len(self.mismatches),
            "mismatches": self.mismatches,
            "max_abs_deviation": self.max_abs_deviation,
            "passed": self.passed,
        }


def _check_configs(layer: QnnLayer, cfg: SnnLayerConfig) -> None:
    p = layer.out_params
    if cfg.window != 2**p.n:
        raise ValueError(f"config window {cfg.window} != 2**{p.n}")
    if cfg.mode != p.mode or cfg.alpha != p.alpha:
        raise ValueError("config mode/scale do not match the layer's output params")
    if not cfg.masked or cfg.mu != layer.mu or cfg.k != layer.k:
        raise ValueError(
            f"config dead zone (mu={cfg.mu}, k={cfg.k}) does not match "
            f"layer dead zone (mu={layer.mu}, k={layer.k})"
        )
    if cfg.baseline_silent_min:
        raise ValueError("baseline_silent_min silences a code the quantizer keeps; not verifiable")


def verify_equivalence(
    layer: QnnLayer,
    cfg: SnnLayerConfig,
    domain: str = "exhaustive",
    samples: int = 100_000,
    seed: int = 0,
    input_cfg: SnnLayerConfig | None = None,
) -> EquivalenceReport:
    """Run the quantized and spiking paths side by side and diff the codes.

    domain="exhaustive": every input code vector over the layer's fan-in is
    filtered, pushed through ``layer_forward``, and independently encoded /
    integrated / fired / decoded; the two integer outputs must agree per
    output neuron.  Additionally asserts the dead-zone agreement: the mask
    silences the output exactly when the unfiltered quantized code lies
    within k of mu.

    domain="sampled": draws real pre-activations spanning twice the code
    range and compares filtered quantization against the fired-and-decoded
    code directly.

    The default input encoding reuses the layer's mask position (the mask
    center is global across layers), falling back to the zero-centered
    position when the input window differs.  Comparison happens at the
    integer-code level, which keeps the check exact.
    """
    _check_configs(layer, cfg)
    report = EquivalenceReport()

    if domain == "sampled":
        rng = np.random.default_rng(seed)
        span = 2.0 * cfg.alpha * (2 ** (cfg.n - 1))
        draws = rng.uniform(-span, span, int(samples))
        for a in draws:
            a = float(a)
            qnn_code = dead_zone_filter(quantize(a, layer.out_params), layer.mu, layer.k)
            snn_code = decode_spike(fire_simulated(a, cfg), cfg)
            report.cases_checked += 1
            if qnn_code != snn_code:
                report.record(a, qnn_code, snn_code)
        return report

    if domain != "exhaustive":
        raise ValueError(f"unknown verification domain {domain!r}")

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
            spike = fire_simulated(potential, cfg)
            snn_code = decode_spike(spike, cfg)
            if qnn_out[j] != snn_code:
                report.record(list(raw), int(qnn_out[j]), snn_code)
            # Dead-zone agreement: mask suppression <=> code within k of mu.
            # Only the mask silences here, so the one walk inside
            # fire_simulated settles both this and the code above.
            q_unmasked = quantize(pre[j], layer.out_params)
            if spike.is_silent != (abs(q_unmasked - layer.mu) <= layer.k):
                report.record(list(raw), int(q_unmasked), snn_code)
    return report
