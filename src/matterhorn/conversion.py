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

from dataclasses import dataclass, field

import numpy as np

from .qnn import (
    QnnLayer,
    QuantParams,
    dead_zone_filter,
    dead_zone_filter_array,
    quantize,
    quantize_array,
)
from .spike import (
    SnnLayerConfig,
    decode_spike,
    decode_spike_array,
    encode_integer_array,
    fire_simulated,
    fire_simulated_array,
    integrate_array,
)

__all__ = [
    "EquivalenceReport",
    "derive_snn_config",
    "zero_centered_i_max",
    "verify_equivalence",
]

# Summed terms (vectors x outputs x inputs) one block of the exhaustive
# sweep holds; its temporaries stay near a few MiB whatever the layer.
BLOCK_TERMS = 2**12
# While the summed magnitudes of an output's terms and bias stay below this
# bound (a float sum is within a hair of the exact one, far inside the 4x
# headroom to the largest float), no partial sum of ``math.fsum`` and no
# added bias can overflow.
_RANGE_LIMIT = 2.0**1022


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


def _check_range(layer: QnnLayer) -> None:
    """Refuse weights and bias whose pre-activations can leave the float
    range, where the exact sums overflow."""
    p = layer.in_params
    top = p.alpha * max(-p.code_min, p.code_max)
    with np.errstate(over="ignore"):
        sums = np.abs(layer.weights).sum(axis=0) * top + np.abs(layer.bias)
    bound = float(np.max(sums, initial=0.0))
    if not bound <= _RANGE_LIMIT:
        raise ValueError(
            f"weights and bias drive pre-activations up to {bound:.3g} in magnitude, "
            f"over the {_RANGE_LIMIT:.3g} below which their exact sums cannot overflow"
        )


def _code_block(start: int, stop: int, p: QuantParams, fan_in: int) -> np.ndarray:
    """Rows ``start:stop`` of ``itertools.product(codes, repeat=fan_in)``
    over the codes of ``p``, built from the row indices alone."""
    rest = np.arange(start, stop, dtype=np.int64)
    block = np.empty((rest.size, fan_in), dtype=np.int64)
    for i in range(fan_in - 1, -1, -1):
        rest, digit = np.divmod(rest, 2**p.n)
        block[:, i] = digit + p.code_min
    return block


def verify_equivalence(
    layer: QnnLayer,
    cfg: SnnLayerConfig,
    domain: str = "exhaustive",
    samples: int = 100_000,
    seed: int = 0,
    input_cfg: SnnLayerConfig | None = None,
) -> EquivalenceReport:
    """Run the quantized and spiking paths side by side and diff the codes.

    domain="exhaustive": every input code vector over the layer's fan-in
    is checked, in blocks of about ``BLOCK_TERMS`` summed terms built from
    vector indices, with the array forms of the scalar functions.  The
    quantized side filters the codes, sums each pre-activation exactly
    (``math.fsum``), floors exactly, clips and filters the output.  The
    spiking side, independently, encodes the codes to spike times, sums
    each potential exactly over the spiking inputs, walks the whole
    threshold ramp (never a closed-form floor), masks and decodes.  The two
    integer outputs must agree per output neuron.  Additionally asserts the
    dead-zone agreement: the mask silences the output exactly when the
    unfiltered quantized code lies within k of mu.  The report is the one
    the scalar loop in the tests produces, mismatches in vector order, then
    output, then code check before dead-zone check.  Raises ValueError for
    weights and bias whose pre-activations could overflow.

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
    _check_range(layer)
    vectors = 2 ** (layer.in_params.n * layer.fan_in)
    # A block holds whole vectors, or one vector's outputs in chunks, so the
    # mismatches still come out in vector, then output, order.
    step = max(1, BLOCK_TERMS // max(1, layer.fan_in * layer.fan_out))
    width = max(1, min(layer.fan_out, BLOCK_TERMS // max(1, layer.fan_in)))
    for start in range(0, vectors, step):
        raw = _code_block(start, min(start + step, vectors), layer.in_params, layer.fan_in)
        filtered = dead_zone_filter_array(raw, input_cfg.mu, input_cfg.k)
        trains = encode_integer_array(raw, input_cfg)
        report.cases_checked += len(raw)
        for lo in range(0, layer.fan_out, width):
            outputs = slice(lo, lo + width)
            # Quantized side: exact pre-activation, floor, clip, filter.
            q_unmasked = quantize_array(
                layer.pre_activation_array(filtered, outputs), layer.out_params
            )
            qnn_out = dead_zone_filter_array(q_unmasked, layer.mu, layer.k)
            # Spiking side: integrate the trains, walk the thresholds, mask, decode.
            potentials = integrate_array(
                trains, layer.weights[:, outputs], input_cfg, layer.bias[outputs]
            )
            fired = fire_simulated_array(potentials, cfg)
            snn_out = decode_spike_array(fired, cfg)
            # Per (vector, output): the code check, then the dead-zone
            # agreement (mask suppression <=> unmasked code within k of mu).
            # Only the mask silences here, so the one walk settles both.
            bad = np.stack(
                [qnn_out != snn_out, (fired < 0) != (np.abs(q_unmasked - layer.mu) <= layer.k)],
                axis=-1,
            )
            for b, j, dead_zone in zip(*np.nonzero(bad)):
                qnn_code = (q_unmasked if dead_zone else qnn_out)[b, j]
                report.record(raw[b].tolist(), qnn_code, snn_out[b, j])
    return report
