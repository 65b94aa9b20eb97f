"""Spike-time distribution analysis and dead-zone sparsity sweeps.

Trained-model activations are replaced by seeded synthetic samplers
(Gaussian by default, peaked at the silent code), which is enough to study
how the dead-zone radius trades spike activity for silence.  Quantitative
silence percentages from trained models serve as calibration targets only
and are reported alongside, never asserted.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from statistics import NormalDist

import numpy as np

from .qnn import quantize_array
from .spike import SnnLayerConfig, _check_times, encode_integer_array
from .spike import require_integer, require_radius, require_real

__all__ = [
    "SpikeHistogram",
    "ActivationSampler",
    "SweepRow",
    "spike_time_histogram",
    "encode_samples",
    "sparsity_sweep",
    "calibrate_gaussian_sigma",
    "histogram_svg",
    "REFERENCE_SILENCE_PCT",
]

# Dead-zone silence percentages used as qualitative calibration anchors
# for the sweep report (k -> percent silent).
REFERENCE_SILENCE_PCT = {0: 34.0, 1: 61.2, 2: 76.4}
# Samples quantized and encoded at a time: ``quantize_array`` and
# ``encode_integer_array`` hold several temporaries of their input's size
# (84 MiB at 2^20 samples for the first), a chunk's worth here.
_CHUNK = 2**16
# Pixel size of the ``histogram_svg`` plot area; its labels take 24 more rows.
_SVG_WIDTH, _SVG_HEIGHT = 640, 320


@dataclass
class SpikeHistogram:
    """Spike counts per firing time plus the silent bucket."""

    counts: np.ndarray
    silent: int = 0

    def __post_init__(self) -> None:
        self.counts = np.asarray(self.counts, dtype=np.int64)

    @property
    def total(self) -> int:
        return int(self.counts.sum()) + self.silent

    @property
    def silence_fraction(self) -> float:
        total = self.total
        return self.silent / total if total else 0.0

    def to_rows(self) -> list[tuple[str, int]]:
        rows: list[tuple[str, int]] = [(str(t), int(c)) for t, c in enumerate(self.counts)]
        rows.append(("silent", self.silent))
        return rows


def spike_time_histogram(times, cfg: SnnLayerConfig) -> SpikeHistogram:
    """Exact bucket counts over a non-empty array of spike times (-1 silent)
    in the window of ``cfg``; a window over 2^20 steps is refused with
    ValueError before its buckets are allocated."""
    cfg._check_table_width("histogram")
    times = _check_times(times, cfg).ravel()
    if not times.size:
        raise ValueError("need at least one spike time")
    spiking = times[times >= 0]
    return SpikeHistogram(np.bincount(spiking, minlength=cfg.window), times.size - spiking.size)


@dataclass(frozen=True)
class ActivationSampler:
    """Seeded Gaussian or Laplace activation source with a finite ``loc``
    and a positive finite ``scale``; identical seeds reproduce identical
    samples bit for bit.  A field or sample count of the wrong type, and a
    negative seed or count, raise ValueError naming it."""

    kind: str = "gaussian"
    loc: float = 0.0
    scale: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("gaussian", "laplace"):
            raise ValueError(f"unknown sampler kind {self.kind!r}")
        require_real("loc", self.loc)
        if not math.isfinite(self.loc):
            raise ValueError(f"loc must be a finite real, got {self.loc}")
        require_real("scale", self.scale)
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be a positive finite real, got {self.scale}")
        require_integer("seed", self.seed)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def sample(self, count: int) -> np.ndarray:
        require_integer("count", count)
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        rng = np.random.default_rng(self.seed)
        if self.kind == "gaussian":
            return rng.normal(self.loc, self.scale, count)
        return rng.laplace(self.loc, self.scale, count)


def encode_samples(samples, cfg: SnnLayerConfig) -> np.ndarray:
    """Quantize real activations under the config's params and encode them
    as spike times, -1 where silent, ``_CHUNK`` samples at a time: the
    result of one pass, with one chunk's temporaries."""
    samples = np.asarray(samples)
    times = np.empty(samples.shape, dtype=np.int64)
    flat_in, flat_out = samples.reshape(-1), times.reshape(-1)
    for start in range(0, flat_in.size, _CHUNK):
        chunk = slice(start, start + _CHUNK)
        flat_out[chunk] = encode_integer_array(quantize_array(flat_in[chunk], cfg), cfg)
    return times


@dataclass
class SweepRow:
    k: int
    silence: float
    mean_spike_rate: float


def sparsity_sweep(
    sampler: ActivationSampler,
    base_cfg: SnnLayerConfig,
    k_range,
    count: int = 20_000,
) -> list[SweepRow]:
    """Silence and spike rate per dead-zone radius over one fixed sample set.

    The samples are encoded once, at radius 0.  A radius-k mask silences
    exactly the times within k of ``i_max``, so radius k's silent trains are
    that histogram's silent bucket plus its spikes at distance 1..k: exact
    counts, as re-encoding at k gives, nondecreasing in k.  The mean spike
    rate counts spikes per (train, step) slot.  A radius that is no integer
    >= 0 raises ValueError.
    """
    radii = [require_radius(k) for k in k_range]
    if not radii:
        raise ValueError("need at least one dead-zone radius")
    cfg = replace(base_cfg, k=0)
    hist = spike_time_histogram(encode_samples(sampler.sample(count), cfg), cfg)
    # silent[d]: trains silent at radius d, for d = 0..T-1 (a wider one silences all)
    by_distance = np.zeros(cfg.window, dtype=np.int64)
    np.add.at(by_distance, np.abs(np.arange(cfg.window) - cfg.i_max), hist.counts)
    silent = hist.silent + np.cumsum(by_distance)
    silences = [int(silent[min(k, cfg.window - 1)]) / hist.total for k in radii]
    return [SweepRow(k, s, (1.0 - s) / cfg.window) for k, s in zip(radii, silences)]


def calibrate_gaussian_sigma(
    target_silence: float, cfg: SnnLayerConfig, loc: float = 0.0
) -> float:
    """Gaussian scale whose quantized codes hit the target silence at cfg.k.

    Solves P(code in dead zone) = target by bisection on sigma using the
    exact band probability P(alpha*(mu-k) <= a < alpha*(mu+k+1)); where the
    dead zone reaches code_min or code_max, that edge is infinite, as the
    clipped tail quantizes into the zone.  Sigma is bisected down from the
    widest, or up where a one-sided band excludes ``loc`` and gains mass as
    sigma grows; raises ValueError, naming the band and the target, when it
    ends more than 1e-9 from the target.
    """
    if not 0.0 < target_silence < 1.0:
        raise ValueError("target silence must lie strictly between 0 and 1")
    lo_edge = -math.inf if cfg.mu - cfg.k <= cfg.code_min else cfg.alpha * (cfg.mu - cfg.k)
    hi_edge = math.inf if cfg.mu + cfg.k >= cfg.code_max else cfg.alpha * (cfg.mu + cfg.k + 1)

    def band(sigma: float) -> float:
        # The band is scale-free.  NormalDist.cdf divides by sigma * sqrt(2),
        # which overflows past about float_max / sqrt(2), so a sigma past
        # float_max / 2 is evaluated with every operand halved (exact for a
        # normal float); any other sigma is evaluated as it is.
        s = 0.5 if sigma > sys.float_info.max / 2 else 1.0
        dist = NormalDist(loc * s, sigma * s)
        return dist.cdf(hi_edge * s) - dist.cdf(lo_edge * s)

    lo, hi = 1e-9 * cfg.alpha, min(1e9 * cfg.alpha, sys.float_info.max)
    rising = lo_edge == -math.inf and hi_edge <= loc or hi_edge == math.inf and lo_edge > loc
    for _ in range(200):
        mid = lo + (hi - lo) / 2
        if (band(mid) > target_silence) != rising:
            lo = mid
        else:
            hi = mid
    sigma = lo + (hi - lo) / 2
    reached = band(sigma)
    if not abs(reached - target_silence) <= 1e-9:  # a NaN band is refused too
        raise ValueError(
            f"cannot calibrate silence {target_silence} in the dead-zone band "
            f"[{lo_edge}, {hi_edge}) (codes {cfg.mu - cfg.k}..{cfg.mu + cfg.k}): "
            f"the bisection on sigma ends at {reached:.6f}"
        )
    return sigma


def histogram_svg(hist: SpikeHistogram) -> str:
    """Minimal deterministic SVG bar chart of a spike-time histogram."""
    rows = hist.to_rows()
    peak = max(count for _, count in rows) or 1
    bar_w = _SVG_WIDTH / len(rows)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT + 24}">',
        f'<rect width="{_SVG_WIDTH}" height="{_SVG_HEIGHT + 24}" fill="white"/>',
    ]
    for i, (label, count) in enumerate(rows):
        bar_h = _SVG_HEIGHT * count / peak
        x = i * bar_w
        fill = "#888888" if label == "silent" else "#336699"
        parts.append(
            f'<rect x="{x + 1:.1f}" y="{_SVG_HEIGHT - bar_h:.1f}" width="{bar_w - 2:.1f}" '
            f'height="{bar_h:.1f}" fill="{fill}"/>'
        )
        parts.append(
            f'<text x="{x + bar_w / 2:.1f}" y="{_SVG_HEIGHT + 14}" font-size="9" '
            f'text-anchor="middle">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
