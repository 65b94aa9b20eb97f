"""Masked time-to-first-spike (M-TTFS) neuron dynamics.

A value is carried by the arrival time of at most one spike inside a window
of ``T = 2**n`` steps.  A temporal mask silences firing times inside the
dead zone ``[i_max - k, i_max + k]``, remapping the most frequent code to
the zero-energy all-silent train.  The module provides:

- integer <-> spike-train encoding with dead-zone collapse,
- membrane integration of weighted input trains,
- the step-by-step masked threshold walk (``fire_simulated``),
- the closed-form firing time (``fire_analytic``), used as an executable
  oracle against the walk,
- silence-rate accounting for sparsity studies.

The ``*_array`` forms of encode, integrate, fire and decode handle a whole
population at once: a population of trains is an ``int64`` array of spike
times with -1 for silent, and the scalar functions are their oracles.

All operations are pure functions; threshold and code-boundary comparisons
are exact (see ``numerics``), so the walk and the closed form agree
bit-exactly for every representable input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import floor_ratio, fsum_rows, ge_scaled, ge_scaled_array

SYMMETRIC = "symmetric"
ASYMMETRIC = "asymmetric"
_MODES = (SYMMETRIC, ASYMMETRIC)
# Potentials x thresholds one step of ``fire_simulated_array`` compares at
# once; bounds the walk's temporaries to a few MiB whatever the window.
WALK_BLOCK = 2**16


@dataclass(frozen=True)
class QuantParams:
    """Bit width, scale and mode of one quantized activation tensor."""

    n: int
    alpha: float = 1.0
    mode: str = SYMMETRIC

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"bit width must be >= 1, got {self.n}")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"scale must be a positive finite real, got {self.alpha}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")

    @property
    def code_min(self) -> int:
        return -(2 ** (self.n - 1)) if self.mode == SYMMETRIC else 0

    @property
    def code_max(self) -> int:
        """Top representable code; also the origin of the time ramp."""
        return 2 ** (self.n - 1) - 1 if self.mode == SYMMETRIC else 2**self.n - 1


@dataclass(frozen=True)
class SnnLayerConfig(QuantParams):
    """Window, scale, kernel and threshold schedule for one M-TTFS layer.

    ``i_max`` is the masked firing time (dead-zone center); ``i_max=None``
    disables the mask entirely (plain TTFS baseline).  ``baseline_silent_min``
    maps the final-step spike, i.e. the minimum code, to silence; it exists
    only to reproduce baseline-TTFS silence statistics and is off by default.
    ``theta_shift`` offsets the threshold schedule by whole codes and is a
    fault-injection hook for negative-control verification runs.
    """

    i_max: int | None = None
    k: int = 0
    baseline_silent_min: bool = False
    theta_shift: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.i_max is not None and not 0 <= self.i_max <= self.window - 1:
            raise ValueError(f"i_max {self.i_max} outside window [0, {self.window - 1}]")
        if self.k < 0:
            raise ValueError(f"dead-zone radius must be >= 0, got {self.k}")

    @property
    def window(self) -> int:
        return 2**self.n

    @property
    def masked(self) -> bool:
        return self.i_max is not None

    @property
    def mu(self) -> int | None:
        """Code represented by the silent train (dead-zone center)."""
        if self.i_max is None:
            return None
        return self.code_max - self.i_max

    def spike_time(self, code: int) -> int:
        """Firing time encoding ``code``; earlier spikes carry larger codes."""
        return self.code_max - code

    def in_dead_zone(self, t: int) -> bool:
        return self.masked and abs(t - self.i_max) <= self.k

    def kernel(self, t: int) -> int:
        """Decode value f(t) of a spike at step t, flattened over the dead zone."""
        if self.in_dead_zone(t):
            return self.mu
        return self.code_max - t

    def threshold_code(self, t: int) -> int:
        """Threshold at step t in units of alpha (a step-wise decreasing ramp)."""
        return self.code_max - t + self.theta_shift


class SpikeTrain:
    """Binary train of length ``window`` carrying at most one spike."""

    __slots__ = ("_window", "_time")

    def __init__(self, bits) -> None:
        arr = np.asarray(bits)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("spike train must be a non-empty 1-D binary vector")
        if not np.all((arr == 0) | (arr == 1)):
            raise ValueError("spike train entries must be 0 or 1")
        hits = np.flatnonzero(arr)
        if hits.size > 1:
            raise ValueError("at most one spike per train")
        self._window = int(arr.size)
        self._time = int(hits[0]) if hits.size else None

    @classmethod
    def silent(cls, window: int) -> "SpikeTrain":
        train = cls.__new__(cls)
        train._window = window
        train._time = None
        return train

    @classmethod
    def single(cls, t: int, window: int) -> "SpikeTrain":
        if not 0 <= t < window:
            raise ValueError(f"spike time {t} outside window [0, {window - 1}]")
        train = cls.__new__(cls)
        train._window = window
        train._time = t
        return train

    @property
    def window(self) -> int:
        return self._window

    @property
    def time(self) -> int | None:
        """Arrival step of the spike, or None for the silent train."""
        return self._time

    @property
    def is_silent(self) -> bool:
        return self._time is None

    @property
    def bits(self) -> np.ndarray:
        """Dense 0/1 vector of length ``window``, built on demand: a train
        stores only its arrival step."""
        bits = np.zeros(self._window, dtype=np.uint8)
        if self._time is not None:
            bits[self._time] = 1
        return bits

    def to_bytes(self) -> bytes:
        """Little-endian bit packing, LSB = t=0, padded to whole bytes."""
        return np.packbits(self.bits, bitorder="little").tobytes()

    @classmethod
    def from_bytes(cls, data: bytes, window: int) -> "SpikeTrain":
        """Inverse of ``to_bytes``: exactly ceil(window / 8) bytes whose
        padding bits past the window are zero."""
        expected = -(-window // 8)
        if len(data) != expected:
            raise ValueError(
                f"a {window}-step train packs into {expected} bytes, got {len(data)}"
            )
        bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")
        if np.any(bits[window:]):
            raise ValueError(f"padding bits past step {window - 1} must be zero")
        return cls(bits[:window])

    def to_list(self) -> list[int]:
        """JSON debug form: plain 0/1 array."""
        return self.bits.tolist()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpikeTrain):
            return NotImplemented
        return self.window == other.window and self._time == other._time

    def __hash__(self) -> int:
        return hash((self.window, self.time))

    def __repr__(self) -> str:
        return f"SpikeTrain(t={self.time}, T={self.window})"


def encode_integer(code: int, cfg: SnnLayerConfig) -> SpikeTrain:
    """Encode an integer code as a spike train under ``cfg``.

    Codes inside the dead zone collapse to the silent train; every other
    code fires exactly once at ``code_max - code``.
    Raises ValueError for codes outside the representable range.
    """
    code = int(code)
    if not cfg.code_min <= code <= cfg.code_max:
        raise ValueError(
            f"code {code} outside representable range [{cfg.code_min}, {cfg.code_max}]"
        )
    if cfg.masked and abs(code - cfg.mu) <= cfg.k:
        return SpikeTrain.silent(cfg.window)
    t = cfg.spike_time(code)
    if cfg.baseline_silent_min and t == cfg.window - 1:
        return SpikeTrain.silent(cfg.window)
    return SpikeTrain.single(t, cfg.window)


def decode_spike(train: SpikeTrain, cfg: SnnLayerConfig) -> int:
    """Decode a spike train back to its integer code via the kernel f(t).

    The silent train decodes to the dead-zone center when the mask is
    active; without a mask it decodes to the minimum code (the only value
    a silent baseline train can stand for).
    """
    if train.window != cfg.window:
        raise ValueError(f"train window {train.window} != config window {cfg.window}")
    t = train.time
    if t is None:
        return cfg.mu if cfg.masked else cfg.code_min
    return cfg.kernel(t)


def integrate(
    inputs: list[tuple[SpikeTrain, float]],
    cfg_prev: SnnLayerConfig,
    bias: float = 0.0,
) -> float:
    """Settled membrane potential after one window of weighted input spikes.

    Each spiking input contributes ``w * (alpha_prev * f(t))``; silent
    inputs contribute nothing.  ``cfg_prev`` carries the scale and kernel
    of the layer that produced the trains.  The contributions are summed
    exactly rounded and the bias is added once, the rule of
    ``QnnLayer.pre_activation``, so the potential does not depend on
    arrival order and matches the quantized ground truth bit for bit.
    """
    window = cfg_prev.window
    terms = []
    for train, weight in inputs:
        if train.window != window:
            raise ValueError(f"train window {train.window} != config window {window}")
        t = train.time
        if t is not None:
            terms.append(weight * (cfg_prev.alpha * cfg_prev.kernel(t)))
    return math.fsum(terms) + float(bias)


def candidate_fire_time(potential: float, cfg: SnnLayerConfig) -> int:
    """First step whose threshold the settled potential meets, pre-mask.

    Integration completes before the threshold scan (the schedule is
    layer-synchronous), so the comparison always uses the final potential.
    If no step qualifies, the window end clamps the code floor: the neuron
    fires at T-1, mirroring quantizer saturation.
    """
    if math.isnan(potential):
        raise ValueError("potential is NaN")
    alpha = cfg.alpha
    origin = cfg.code_max + cfg.theta_shift
    for t in range(cfg.window - 1):
        if ge_scaled(potential, alpha, origin - t):
            return t
    return cfg.window - 1


def _mask_fire_time(t: int, cfg: SnnLayerConfig) -> SpikeTrain:
    if cfg.in_dead_zone(t):
        return SpikeTrain.silent(cfg.window)
    if cfg.baseline_silent_min and t == cfg.window - 1:
        return SpikeTrain.silent(cfg.window)
    return SpikeTrain.single(t, cfg.window)


def fire_simulated(potential: float, cfg: SnnLayerConfig) -> SpikeTrain:
    """Masked threshold walk for a settled potential.

    The candidate spike lands at the first step where the potential meets
    the decreasing threshold; the mask then either passes it through or
    silences it.  A masked candidate is consumed: no later step may fire.
    """
    return _mask_fire_time(candidate_fire_time(potential, cfg), cfg)


def fire_analytic(pre_activation: float, cfg: SnnLayerConfig) -> SpikeTrain:
    """Closed-form firing time for a settled pre-activation.

    The unmasked time is ``clip(code_max + theta_shift - floor(a / alpha),
    0, T-1)``; the mask is applied afterwards.  Produces output identical
    to ``fire_simulated`` on the same potential, for every input, which
    makes it the executable oracle for the walk.
    """
    if math.isnan(pre_activation):
        raise ValueError("pre-activation is NaN")
    if math.isinf(pre_activation):
        t = 0 if pre_activation > 0 else cfg.window - 1
    else:
        t_raw = cfg.code_max + cfg.theta_shift - floor_ratio(pre_activation, cfg.alpha)
        t = min(max(t_raw, 0), cfg.window - 1)
    return _mask_fire_time(t, cfg)


def _check_times(times, cfg: SnnLayerConfig) -> np.ndarray:
    times = np.asarray(times, dtype=np.int64)
    if times.size and (times.min() < -1 or times.max() >= cfg.window):
        raise ValueError(f"spike times outside [-1, {cfg.window - 1}] (-1 is silent)")
    return times


def _mask_times(times: np.ndarray, cfg: SnnLayerConfig) -> np.ndarray:
    """``_mask_fire_time`` of each time: -1 where the mask silences it."""
    silent = np.zeros(times.shape, dtype=bool)
    if cfg.masked:
        silent |= np.abs(times - cfg.i_max) <= cfg.k
    if cfg.baseline_silent_min:
        silent |= times == cfg.window - 1
    return np.where(silent, -1, times)


def _kernel_array(times: np.ndarray, cfg: SnnLayerConfig) -> np.ndarray:
    """``cfg.kernel`` of each spike time (meaningless where silent)."""
    f = cfg.code_max - times
    if cfg.masked:
        f = np.where(np.abs(times - cfg.i_max) <= cfg.k, cfg.mu, f)
    return f


def encode_integer_array(codes, cfg: SnnLayerConfig) -> np.ndarray:
    """Element-wise ``encode_integer``: spike times, -1 where silent.

    A code inside the dead zone is exactly a time inside the mask, so the
    mask that silences fired times also silences encoded codes.
    """
    codes = np.asarray(codes, dtype=np.int64)
    if codes.size and (codes.min() < cfg.code_min or codes.max() > cfg.code_max):
        raise ValueError(
            f"codes outside representable range [{cfg.code_min}, {cfg.code_max}]"
        )
    return _mask_times(cfg.code_max - codes, cfg)


def decode_spike_array(times, cfg: SnnLayerConfig) -> np.ndarray:
    """Element-wise ``decode_spike`` of spike times (-1 silent)."""
    times = _check_times(times, cfg)
    silent_code = cfg.mu if cfg.masked else cfg.code_min
    return np.where(times < 0, silent_code, _kernel_array(times, cfg))


def integrate_array(times, weights, cfg_prev: SnnLayerConfig, bias=0.0) -> np.ndarray:
    """``integrate`` for every row of a population and every output.

    ``times`` is (..., inputs), ``weights`` is (inputs, outputs) and
    ``bias`` broadcasts over (..., outputs).  Each potential is the exactly
    rounded sum of ``w * (alpha_prev * f(t))`` over the spiking inputs
    (silent ones add an exact zero) plus the bias, as in ``integrate``.
    """
    times = _check_times(times, cfg_prev)
    weights = np.asarray(weights, dtype=np.float64)
    scaled = cfg_prev.alpha * _kernel_array(times, cfg_prev).astype(np.float64)
    terms = np.where((times < 0)[..., None, :], 0.0, scaled[..., None, :] * weights.T)
    return fsum_rows(terms) + bias


def fire_simulated_array(potentials, cfg: SnnLayerConfig) -> np.ndarray:
    """Element-wise ``fire_simulated``: masked spike times, -1 where silent.

    Every potential walks the threshold ramp exactly, step by step in
    order, and takes the first step it meets (T-1 if none).  Steps are
    compared in chunks of at most ``WALK_BLOCK`` comparisons, and a
    potential leaves the walk at its first hit, as in the scalar walk.
    """
    v = np.asarray(potentials, dtype=np.float64)
    if np.isnan(v).any():
        raise ValueError("potential is NaN")
    flat = v.ravel()
    times = np.full(flat.shape, cfg.window - 1, dtype=np.int64)
    pending = np.arange(flat.size)
    origin = cfg.code_max + cfg.theta_shift
    start = 0
    while pending.size and start < cfg.window - 1:
        stop = min(cfg.window - 1, start + max(1, WALK_BLOCK // pending.size))
        steps = np.arange(start, stop)
        ge = ge_scaled_array(flat[pending, None], cfg.alpha, origin - steps)
        hit = ge.any(axis=1)
        times[pending[hit]] = steps[ge[hit].argmax(axis=1)]
        pending = pending[~hit]
        start = stop
    return _mask_times(times.reshape(v.shape), cfg)


def silence_rate(trains) -> float:
    """Fraction of all-zero trains in a non-empty collection."""
    trains = list(trains)
    if not trains:
        raise ValueError("silence_rate needs at least one train")
    return sum(1 for tr in trains if tr.is_silent) / len(trains)
