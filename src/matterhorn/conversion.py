"""Quantized-to-spiking layer conversion and equivalence verification.

``derive_snn_config`` mechanically maps quantizer parameters onto a spiking
layer (window, kernel, threshold schedule, dead-zone center), and
``verify_equivalence`` then checks the converted layer against the
quantized ground truth: exhaustively over all input code vectors, or over
sampled real pre-activations.  Zero mismatches is the predicted outcome
whenever the input-side dead zone is centered on code zero, i.e. silent
inputs genuinely stand for a zero contribution; off-center configurations
surface as honest mismatches in the report.

The exhaustive sweep has one design: term tables, then sums, then stages.
Each side tabulates the term every input code adds per unit weight once
per config, each block sums its rows of the tables exactly rounded, and one
output stage (floor, clip, filter; fire, mask, decode) runs on the sums
with exact threshold and code-boundary compares.  Two facts of the configs,
kept with them, prove a layer with no sum and no block: the input config's
two term tables are one table, and the output config's stage gives one
code on both sides for every float.  A call on warm configs then does only
its range check, whatever the weights, the scale or the fan-in.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import repeat

import numpy as np

from .numerics import exact_matmul
from .qnn import (
    QnnLayer,
    QuantParams,
    dead_zone_filter_array,
    quantize,
    quantize_array,
)
from .spike import (
    SnnLayerConfig,
    decode_spike_array,
    fire_simulated_array,
    require_integer,
)

__all__ = [
    "EquivalenceReport",
    "derive_snn_config",
    "zero_centered_i_max",
    "verify_equivalence",
]

# Products (vectors x outputs x inputs) one block of the exhaustive sweep
# sums.  Integer blocks sum as one matmul and never hold them; any other
# block holds them as one terms tensor, so its temporaries stay near a few
# MiB whatever the layer.
BLOCK_TERMS = 2**14
# Mismatches a report holds as dicts; it counts every other one and takes
# its deviation, so a failing report's memory does not grow with them.
KEPT = 50
# While the summed magnitudes of an output's terms and bias stay below this
# bound (a float sum is within a hair of the exact one, far inside the 4x
# headroom to the largest float), no partial sum of ``math.fsum`` and no
# added bias can overflow.
_RANGE_LIMIT = 2.0**1022
# Pre-activations the sampled domain draws and holds at a time, so its
# memory does not grow with the sample count (2^12 already raised the
# equiv-sampled benchmark's resident peak by 0.3 MiB).
_SAMPLE_CHUNK = 2**10


def derive_snn_config(p: QuantParams, i_max: int, k: int) -> SnnLayerConfig:
    """Spiking-layer configuration functionally equivalent to ``p``.

    The window matches the code resolution (T = 2**n), the dead-zone
    center becomes ``mu = code_max - i_max``, and the kernel/threshold
    schedule follow from the mode.  Raises ValueError for an ``i_max``
    outside the window.
    """
    return SnnLayerConfig(n=p.n, alpha=p.alpha, mode=p.mode, i_max=i_max, k=k)


def zero_centered_i_max(p: QuantParams) -> int:
    """The i_max that puts the silent state on code zero (mu = 0), the
    default of ``SnnLayerConfig``."""
    return p.code_max


@dataclass
class EquivalenceReport:
    """Outcome of one verification sweep.

    A mismatch is a case whose quantized ground-truth code differs from its
    decoded spiking code; the sweep passes iff none exist.  Every mismatch
    is counted and its deviation taken, and the first ``KEPT`` are held as
    the offending input, the quantized code and the spiking code.
    """

    cases_checked: int = 0
    mismatch_count: int = 0
    mismatches: list[dict] = field(default_factory=list)
    max_abs_deviation: int = 0

    @property
    def passed(self) -> bool:
        return self.mismatch_count == 0

    def record(self, cases, qnn_codes, snn_codes) -> None:
        """Record where two code arrays of one shape differ, in row-major
        order; row i of either belongs to ``cases[i]``."""
        at = np.nonzero(np.not_equal(qnn_codes, snn_codes))
        if not at[0].size:
            return
        qnn_codes, snn_codes = np.asarray(qnn_codes)[at], np.asarray(snn_codes)[at]
        self.mismatch_count += len(qnn_codes)
        deviation = np.abs(qnn_codes - snn_codes).max()
        self.max_abs_deviation = max(self.max_abs_deviation, int(deviation))  # no numpy in JSON
        kept = at[0][: KEPT - len(self.mismatches)]
        codes = zip(qnn_codes[: len(kept)].tolist(), snn_codes[: len(kept)].tolist())
        held = zip(np.asarray(cases)[kept].tolist(), codes)
        self.mismatches += [{"input": i, "qnn": q, "snn": s} for i, (q, s) in held]

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def _check_configs(layer: QnnLayer, cfg: SnnLayerConfig) -> None:
    p = layer.out_params
    if cfg.window != 2**p.n:
        raise ValueError(f"config window {cfg.window} != 2**{p.n}")
    if cfg.mode != p.mode or cfg.alpha != p.alpha:
        raise ValueError("config mode/scale do not match the layer's output params")
    if cfg.mu != layer.mu or cfg.k != layer.k:
        raise ValueError(
            f"config dead zone (mu={cfg.mu}, k={cfg.k}) does not match "
            f"layer dead zone (mu={layer.mu}, k={layer.k})"
        )


def _check_range(layer: QnnLayer) -> None:
    """Refuse weights and bias whose pre-activations can leave the float
    range, where the exact sums overflow."""
    p = layer.in_params
    top = p.alpha * max(-p.code_min, p.code_max)
    with np.errstate(over="ignore"):
        magnitudes = np.abs(layer.weights).sum(axis=0)
        bound = float(np.max(magnitudes * top + np.abs(layer.bias), initial=0.0))
    if not bound <= _RANGE_LIMIT:
        raise ValueError(
            f"weights and bias drive pre-activations up to {bound:.3g} in magnitude, "
            f"over the {_RANGE_LIMIT:.3g} below which their exact sums cannot overflow"
        )


def _code_block(start: int, stop: int, n: int, fan_in: int) -> np.ndarray:
    """Rows ``start:stop`` of ``itertools.product(range(2**n), repeat=fan_in)``,
    built from the row indices alone: entry i of row r is the n-bit digit
    of r that starts at bit ``n * (fan_in - 1 - i)``."""
    rows = np.arange(start, stop, dtype=np.int64)
    shifts = np.arange(n * (fan_in - 1), -1, -n, dtype=np.int64)
    return (rows[:, None] >> shifts) & (2**n - 1)


def verify_equivalence(
    layer: QnnLayer,
    cfg: SnnLayerConfig,
    domain: str = "exhaustive",
    samples: int = 100_000,
    seed: int = 0,
) -> EquivalenceReport:
    """Run the quantized and spiking paths side by side and diff the codes.

    domain="exhaustive": every input code vector over the layer's fan-in
    is checked.  Stages whose input takes few values run once per config,
    as read-only tables the config keeps: the filters over the 2^n codes
    (``SnnLayerConfig._filter_table``), ``decode_spike_array`` over the
    times -1..T-1.  Each side's term table holds what an input code adds
    per unit weight: its scaled filtered code (quantized), or its spike's
    scaled kernel value, +0.0 when silent (spiking,
    ``SnnLayerConfig._term_table``).
    One output stage floors exactly, clips and filters the quantized sums,
    and fires the spiking ones by ``fire_simulated_array`` (an exact
    ``searchsorted`` in the config's ramp table, never the quantized
    floor), masks and decodes.

    A (vector, output) check depends on the vector only through its
    potential.  Where the input config's two term tables match bit for bit
    (``SnnLayerConfig._same_terms``: an input dead zone on code zero), each
    pre-activation is its potential, both summing the same rows; where the
    output config's stage agrees on every float (``_stage_witness`` is
    None), no potential fails, so the layer passes with no block, for any
    weights.  Exact verification of quantized networks is SMT-hard in general
    (Henzinger, Lechner & Zikelic, AAAI 2021); one separable, exactly summed
    layer makes it two facts of its configs here.

    Every other layer (an off-centre input dead zone, a stage that differs
    somewhere) is checked in blocks of about ``BLOCK_TERMS`` summed products,
    built from vector indices: a block sums its rows of each term table
    with ``numerics.exact_matmul`` plus the bias, as ``integrate`` and
    ``QnnLayer.pre_activation`` round, then runs the output stage.

    The two integer outputs must agree per output neuron.  That one check
    covers silence: ``cfg`` shares the layer's mu and k, a silent output
    decodes to mu, and a fired one to a code outside [mu - k, mu + k].  The
    report is the one the scalar loop in the tests produces, mismatches in
    vector, then output, order.  Raises ValueError for weights and bias whose
    pre-activations could overflow, and for an input or output window over
    2^20 steps (too wide for the config tables), before any table is built.

    domain="sampled": draws real pre-activations spanning twice the code
    range, ``_SAMPLE_CHUNK`` at a time from one generator stream, and
    compares filtered quantization against the fired-and-decoded code of
    each.  A chunk fires by one ``fire_simulated_array`` call (a lookup in
    the ramp table, or the bisection where the config has none) and
    decodes by one ``decode_spike_array`` call.  Its ground truth is one
    scalar ``quantize`` a draw, in draw order, an exact floor sharing no
    code with the ramp table, so the firing kernel meets an independent
    oracle.  A real draw's quotient is almost never an integer, so
    ``quantize`` settles nearly every draw inline and the chunk's codes
    fill one ``int64`` array; one ``dead_zone_filter_array`` follows, and
    the report records the chunk's mismatches in draw order.  Raises
    ValueError for a sample count or seed that is negative or not an
    integer, for a scale at which the span's width overflows a float, and
    for an output window over 2^63 steps.

    The input encoding follows one rule: the layer's input params, with
    ``cfg``'s mask position where it fits the input window (the mask
    center is global across layers) and the zero-centered one otherwise,
    and radius ``layer.k``.  ``cfg`` must match the layer's output params
    and dead zone; ValueError otherwise.  Comparison happens at the
    integer-code level, which keeps the check exact.
    """
    _check_configs(layer, cfg)
    report = EquivalenceReport()

    if domain == "sampled":
        for name, value in (("samples", samples), ("seed", seed)):
            require_integer(name, value)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        span = 2.0 * cfg.alpha * (2 ** (cfg.n - 1))
        if not np.isfinite(2.0 * span):  # the generator draws over high - low
            raise ValueError(
                f"scale {cfg.alpha!r} at n={cfg.n}: the sampled pre-activations, within "
                f"+/-2^{cfg.n} x scale, span a range wider than the largest float"
            )
        if cfg.n > 63:  # before any draw: a zero-sample run refuses it too
            raise ValueError(f"spike times of a 2^{cfg.n}-step window do not fit int64")
        rng = np.random.default_rng(seed)
        p, mu, k = layer.out_params, layer.mu, layer.k
        for start in range(0, samples, _SAMPLE_CHUNK):
            # one generator stream, so the draws match one whole-size call
            draws = rng.uniform(-span, span, min(_SAMPLE_CHUNK, samples - start))
            snn_codes = decode_spike_array(fire_simulated_array(draws, cfg), cfg)
            truth = np.fromiter(map(quantize, draws.tolist(), repeat(p)), np.int64, len(draws))
            qnn_codes = dead_zone_filter_array(truth, mu, k)
            report.record(draws, qnn_codes, snn_codes)
            report.cases_checked += len(draws)
        return report

    if domain != "exhaustive":
        raise ValueError(f"unknown verification domain {domain!r}")

    _check_range(layer)
    p_in, p_out, k = layer.in_params, layer.out_params, layer.k
    i_max_in = cfg.i_max if cfg.i_max < 2**p_in.n else None  # None: mu = 0
    same = (p_in.n, p_in.alpha, p_in.mode, cfg.theta_shift) == (cfg.n, cfg.alpha, cfg.mode, 0)
    # where the rule yields a config equal to cfg, cfg's tables serve both sides
    input_cfg = cfg if same else SnnLayerConfig(p_in.n, p_in.alpha, p_in.mode, i_max_in, k)
    weights, bias, fan_out = layer.weights, layer.bias, layer.fan_out
    # Each stage whose input takes few values runs once per config, over its
    # whole domain, and the blocks gather from its table: input codes by
    # index, output codes by index (code - code_min), spike times by time +
    # 1.  The spiking tables come first: they refuse a window over 2^20
    # unallocated.  cfg shares the layer's mu and k, so its filter is the
    # output's.
    kernel_in, decoded = input_cfg._term_table, cfg._decode_table
    filtered_out = cfg._filter_table
    report.cases_checked = vectors = 2 ** (p_in.n * layer.fan_in)
    # the certificate of the docstring: equal floats on both sides, one code each
    if input_cfg._same_terms and cfg._stage_witness is None:
        return report

    n, fan_in, same_terms = p_in.n, layer.fan_in, input_cfg._same_terms
    scaled_in = input_cfg.alpha * input_cfg._filter_table
    # Any other layer checks every vector: a block holds whole vectors, or one
    # vector's outputs in chunks, so mismatches come in vector, then output, order.
    step = max(1, BLOCK_TERMS // max(1, fan_in * fan_out))
    width = max(1, min(fan_out, BLOCK_TERMS // max(1, fan_in)))
    for start in range(0, vectors, step):
        rows = _code_block(start, min(start + step, vectors), n, fan_in)
        for lo in range(0, fan_out, width):
            # each side's sums of its gathered terms, exactly rounded
            w, b = weights[:, lo : lo + width], bias[lo : lo + width]
            potentials = exact_matmul(kernel_in[rows], w) + b
            # equal term tables sum to equal floats: one sum serves both sides
            pre = potentials if same_terms else exact_matmul(scaled_in[rows], w) + b
            # quantized side: floor, clip, filter; spiking side: fire, mask, decode
            qnn_codes = filtered_out[quantize_array(pre, p_out) - p_out.code_min]
            snn_codes = decoded[fire_simulated_array(potentials, cfg) + 1]
            report.record(rows + p_in.code_min, qnn_codes, snn_codes)
    return report
