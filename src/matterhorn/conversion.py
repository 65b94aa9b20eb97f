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
per call, each block sums its rows of the tables exactly rounded, and one
output stage (floor, clip, filter; fire, mask, decode) runs on the sums
with exact threshold and code-boundary compares.  On an integer lattice
every sum is one of few integers, so the stage runs once per call on all
reachable sums, as a table each block gathers from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import exact_matmul
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
    decode_spike_array,
    encode_integer_array,
    fire_simulated_array,
    integrate_array,
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


def _check_configs(
    layer: QnnLayer, cfg: SnnLayerConfig, input_cfg: SnnLayerConfig | None = None
) -> None:
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
    if input_cfg is None:
        return
    p = layer.in_params
    if input_cfg.window != 2**p.n:
        raise ValueError(f"input config window {input_cfg.window} != 2**{p.n}")
    if input_cfg.mode != p.mode or input_cfg.alpha != p.alpha:
        raise ValueError("input config mode/scale do not match the layer's input params")
    if not input_cfg.masked:
        raise ValueError("input config has no dead zone (i_max=None)")


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
    input_cfg: SnnLayerConfig | None = None,
) -> EquivalenceReport:
    """Run the quantized and spiking paths side by side and diff the codes.

    domain="exhaustive": every input code vector over the layer's fan-in
    is checked, in blocks of about ``BLOCK_TERMS`` summed products whose
    code indices are built from vector indices.  A stage whose input takes
    few values runs once per call over its whole domain, as a table the
    blocks gather from: the input filter and ``encode_integer_array`` over
    the 2^n input codes, the output filter and dead-zone test over the 2^n
    output codes, ``decode_spike_array`` over the times -1..T-1.

    Term tables, sums, stages: each side's table holds the term an input
    code adds per unit weight, the scaled filtered code (quantized) or the
    scaled kernel value of its spike, +0.0 when silent (spiking, one
    ``integrate_array`` call).  A block sums its rows of each table with
    ``numerics.exact_matmul`` plus the bias, as ``integrate`` and
    ``QnnLayer.pre_activation`` round.  One local stage floors exactly,
    clips and filters the quantized sums, and fires the spiking ones by
    ``fire_simulated_array`` (an exact ``searchsorted`` in the config's ramp
    table, never the quantized floor), masks and decodes them.

    On an integer lattice the stage is tabulated: with integral term tables
    and weights and R = max_j sum_i |w_ij| x max |term| below 2^53, every
    sum is an exact integer in [-R, R] in any order (a plain float
    matmul), so the stage runs once per call on ``fl(s + bias_j)`` for all
    s in [-R, R] and outputs j, and each block gathers from that table by
    its sums.  Equal term tables (an input dead zone on code zero) make
    equal sums, so the check is a table too, one verdict per sum and
    output: a block adds its leading inputs' sums to a table of its
    trailing inputs' sums built once per call, looks up the verdicts, and
    gathers its outputs only where one is bad.  Other layers, and tables
    over ``BLOCK_TERMS`` entries, run the stage on each block's sums.

    The two integer outputs must agree per output neuron, and the mask must
    silence the output exactly when the unfiltered quantized code lies
    within k of mu.  The report is the one the scalar loop in the tests
    produces, mismatches in vector order, then output, then code check
    before dead-zone check.  Raises ValueError for weights and bias whose
    pre-activations could overflow, and for an output window too wide for
    the ramp table, before any table is built.

    domain="sampled": draws real pre-activations spanning twice the code
    range, ``_SAMPLE_CHUNK`` at a time from one generator stream, and
    compares filtered quantization against the fired-and-decoded code of
    each.  A chunk fires by one ``fire_simulated_array`` call (a lookup in
    the ramp table, or the bisection where the config has none) and
    decodes by one ``decode_spike_array`` call; the ground truth stays one
    scalar ``quantize`` a draw, whose exact floor shares no code with the
    ramp table, so the domain checks the firing kernel against an
    independent oracle.  Mismatches come out in draw order.  Raises
    ValueError for a sample count or seed that is negative or not an
    integer, for a scale at which the span's width overflows a float, and
    for an output window over 2^63 steps.

    The default input encoding reuses the layer's mask position (the mask
    center is global across layers), falling back to the zero-centered
    position when the input window differs.  An explicit ``input_cfg``
    must match the layer's input params (window, mode, scale) and be
    masked, as ``cfg`` must match its output params and dead zone;
    ValueError otherwise.  Comparison happens at the integer-code level,
    which keeps the check exact.
    """
    _check_configs(layer, cfg, input_cfg)
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
        rng = np.random.default_rng(seed)
        p, mu, k = layer.out_params, layer.mu, layer.k
        for start in range(0, samples, _SAMPLE_CHUNK):
            # one generator stream, so the draws match one whole-size call
            draws = rng.uniform(-span, span, min(_SAMPLE_CHUNK, samples - start))
            snn_codes = decode_spike_array(fire_simulated_array(draws, cfg), cfg).tolist()
            for a, snn_code in zip(draws.tolist(), snn_codes):
                qnn_code = dead_zone_filter(quantize(a, p), mu, k)
                if qnn_code != snn_code:
                    report.record(a, qnn_code, snn_code)
            report.cases_checked += len(snn_codes)
        return report

    if domain != "exhaustive":
        raise ValueError(f"unknown verification domain {domain!r}")

    if input_cfg is None:
        p_in = layer.in_params
        i_max_in = cfg.i_max if cfg.i_max < 2**p_in.n else zero_centered_i_max(p_in)
        input_cfg = derive_snn_config(p_in, i_max_in, layer.k)
    _check_range(layer)
    p_in, p_out, mu, k = layer.in_params, layer.out_params, layer.mu, layer.k
    weights, bias, fan_out = layer.weights, layer.bias, layer.fan_out
    cfg._ramp  # refuses a window too wide for a table before the tables below
    # Each stage whose input takes few values runs once, over its whole
    # domain, and the blocks gather from its table: input codes by index,
    # output codes by index (code - code_min), spike times by time + 1.
    codes_in = np.arange(p_in.code_min, p_in.code_max + 1)
    filtered_in = dead_zone_filter_array(codes_in, input_cfg.mu, input_cfg.k)
    times_in = encode_integer_array(codes_in, input_cfg)
    codes_out = np.arange(p_out.code_min, p_out.code_max + 1)
    filtered_out = dead_zone_filter_array(codes_out, mu, k)
    in_dead_zone = np.abs(codes_out - mu) <= k
    decoded = decode_spike_array(np.arange(-1, cfg.window), cfg)
    # The term each input code adds per unit weight: its scaled filtered
    # code on the quantized side, its spike's scaled kernel value (+0.0
    # when silent) on the spiking side.
    scaled_in = p_in.alpha * filtered_in.astype(np.float64)
    kernel_in = integrate_array(times_in[:, None], np.ones((1, 1)), input_cfg)[:, 0]
    # With integral terms and weights, every sum is an integer within
    # +/-reach, exact in any order below 2^53 (the float magnitude sums
    # reach 2^53 whenever the real ones do).
    reach = np.abs(weights).sum(axis=0).max(initial=0.0) * max(
        np.abs(scaled_in).max(), np.abs(kernel_in).max()
    )
    integral = all(np.all(a == np.floor(a)) for a in (scaled_in, kernel_in, weights))

    def output_stage(pre, potentials):
        # Quantized side: floor, clip, filter; q holds the unfiltered codes
        # as indices (code - code_min).  Spiking side: fire, mask, decode.
        q = quantize_array(pre, p_out) - p_out.code_min
        fired = fire_simulated_array(potentials, cfg)
        return filtered_out[q], q, fired, decoded[fired + 1]

    if lattice := integral and reach < 2**53 and (2 * reach + 1) * fan_out <= BLOCK_TERMS:
        # Lattice route: quantize and fire each reachable sum once per output,
        # rounded as ``exact_matmul(...) + bias``.  The tables are flat: sum
        # s of output j sits at (s + reach) * fan_out + j.
        reach = int(reach)
        sums = np.arange(-reach, reach + 1, dtype=np.float64)[:, None] + bias
        qnn_flat, q_flat, fired_flat, snn_flat = (t.ravel() for t in output_stage(sums, sums))
        offsets = reach * fan_out + np.arange(fan_out)

        def block_outputs(rows, outputs):
            # integer sums below 2^53, so the matmul and the index are exact
            w, offset = weights[:, outputs], offsets[outputs]
            at_q = ((scaled_in[rows] @ w) * fan_out + offset).astype(np.int64)
            at_s = ((kernel_in[rows] @ w) * fan_out + offset).astype(np.int64)
            return qnn_flat[at_q], q_flat[at_q], fired_flat[at_s], snn_flat[at_s]

    else:

        def block_outputs(rows, outputs):
            # each side's sums of its gathered terms, exactly rounded
            w, b = weights[:, outputs], bias[outputs]
            pre, potentials = (exact_matmul(t[rows], w) + b for t in (scaled_in, kernel_in))
            return output_stage(pre, potentials)

    def check(rows, qnn_out, q, fired, snn_out):
        # Per (vector, output): the code check, then the dead-zone agreement
        # (mask suppression <=> unmasked code within k of mu).  Only the mask
        # silences here, so the one firing settles both.
        code_bad = qnn_out != snn_out
        zone_bad = (fired < 0) != in_dead_zone[q]
        if not (code_bad.any() or zone_bad.any()):
            return
        bad = np.stack([code_bad, zone_bad], axis=-1)
        for b, j, dead_zone in zip(*np.nonzero(bad)):
            qnn_code = q[b, j] + p_out.code_min if dead_zone else qnn_out[b, j]
            report.record((rows[b] + p_in.code_min).tolist(), qnn_code, snn_out[b, j])

    vectors, n, fan_in = 2 ** (p_in.n * layer.fan_in), p_in.n, layer.fan_in
    report.cases_checked = vectors
    # A block holds whole vectors, or one vector's outputs in chunks, so the
    # mismatches still come out in vector, then output, order.
    step = max(1, BLOCK_TERMS // max(1, fan_in * fan_out))
    width = max(1, min(fan_out, BLOCK_TERMS // max(1, fan_in)))
    if lattice and np.array_equal(scaled_in, kernel_in):
        # Equal tables give equal sums, so ``check``'s verdict is a table too.  A
        # block adds its leading inputs' sums to a once-built table of the rest.
        verdict = (qnn_flat != snn_flat) | ((fired_flat < 0) != in_dead_zone[q_flat])
        tail = min(fan_in, (step.bit_length() - 1) // n)
        size, head = 2 ** (n * tail), fan_in - tail
        step -= step % size
        tail_at = scaled_in[_code_block(0, size, n, tail)] @ weights[head:] * fan_out + offsets
        for start in range(0, vectors, step):
            stop = min(start + step, vectors)
            lead = scaled_in[_code_block(start // size, stop // size, n, head)] @ weights[:head]
            at = (lead[:, None] * fan_out + tail_at).reshape(stop - start, fan_out).astype(np.int64)
            if verdict[at].any():  # only a bad block builds its rows and outputs
                rows = _code_block(start, stop, n, fan_in)
                check(rows, qnn_flat[at], q_flat[at], fired_flat[at], snn_flat[at])
        return report
    for start in range(0, vectors, step):
        rows = _code_block(start, min(start + step, vectors), n, fan_in)
        for lo in range(0, fan_out, width):
            # one call, so no block's outputs outlive its check
            check(rows, *block_outputs(rows, slice(lo, lo + width)))
    return report
