"""Masked time-to-first-spike (M-TTFS) neuron dynamics.

A value is carried by the arrival time of at most one spike inside a window
of ``T = 2**n`` steps.  A temporal mask silences firing times inside the
dead zone ``[i_max - k, i_max + k]``, remapping the most frequent code to
the zero-energy all-silent train.  Plain TTFS is the same mask at the last
step, ``i_max = 2**n - 1`` and ``k = 0``: the lowest code goes silent.  The
module provides:

- integer <-> spike-train encoding with dead-zone collapse,
- membrane integration of weighted input trains,
- the masked threshold search (``fire_simulated``): a bisection over the
  exact threshold comparisons of the ramp, n of them in a window of 2^n,
- the closed-form firing time (``fire_analytic``), used as an executable
  oracle against the search.

A layer's encoding is a codebook of at most ``2**n`` immutable trains:
``encode_integer``, ``fire_simulated`` and ``fire_analytic`` return the
config's shared train for a code, built on first use.

A population of trains is an ``int64`` array of spike times with -1 for
silent.  The ``*_array`` forms of encode, integrate, fire and decode handle
a whole population at once, and the scalar functions are their oracles;
``train_times`` turns a list of ``SpikeTrain`` objects into that form.
``fire_simulated_array`` looks each potential up in the config's ramp table,
the least float meeting each threshold, so a float compare is exact; a
config too wide or shifted too far for the table fires by the bisection.
The exhaustive verifier reads four more: ``_decode_table`` (the code of
each time -1..T-1), ``_term_table`` (what each code adds per unit weight
once encoded and integrated), ``_filter_table`` (the quantized side's
dead-zone filter of each code) and ``_lattice_top`` (whether both sides add
one integer per code and unit weight, and the largest).  All are built on
first use and read-only, and the tables are refused with ValueError for a
window over 2^20 steps.  A config also keeps the attention pipeline's two
stage configs (``_stage_configs``).

All operations are pure functions; threshold and code-boundary comparisons
are exact (see ``numerics``), so the search and the closed form agree
bit-exactly for every representable input.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .numerics import exact_matmul, floor_ratio, ge_scaled, ge_scaled_array

SYMMETRIC = "symmetric"
ASYMMETRIC = "asymmetric"
_MODES = (SYMMETRIC, ASYMMETRIC)
# Widest window a config tabulates (its ramp, decode, term and filter
# tables): 2^20 entries are 8 MiB, and building them takes a few times that
# in temporaries.  Wider windows fire by the scalar bisection.
_RAMP_MAX_BITS = 20


def require_integer(name: str, value) -> None:
    """Refuse ``value`` for the field ``name`` unless it is a Python or
    numpy integer; bool, float and str are refused, integral or not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def require_radius(k) -> int:
    """A dead-zone radius as a plain int, refused with ValueError unless it
    is an integer >= 0."""
    require_integer("k", k)
    if k < 0:
        raise ValueError(f"dead-zone radius must be >= 0, got {k}")
    return int(k)


def require_integer_array(name: str, values) -> np.ndarray:
    """``values`` as an array, refused for the field ``name`` unless it is
    empty or has an integer dtype: float, bool and object arrays are
    refused, not truncated."""
    values = np.asarray(values)
    if values.size and values.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers, got dtype {values.dtype}")
    return values


def require_real(name: str, value) -> None:
    """Refuse ``value`` for the field ``name`` unless it is a real number
    (a Python or numpy integer or float, or a ``Fraction``) that converts to
    float without overflow; bool, str and None are refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        float(value)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float") from None


@dataclass(frozen=True)
class QuantParams:
    """Bit width, scale and mode of one quantized activation tensor.

    The derived constants (``code_min``, ``code_max`` and, on
    ``SnnLayerConfig``, ``window``, ``mu``) are computed once
    per instance; they are not fields, so equality, hashing, ``repr``,
    ``asdict`` and ``replace`` see only the fields.
    """

    n: int
    alpha: float = 1.0
    mode: str = SYMMETRIC

    def __post_init__(self) -> None:
        if isinstance(self.n, bool) or not isinstance(self.n, numbers.Integral) or self.n < 1:
            raise ValueError(f"bit width must be an integer >= 1, got {self.n!r}")
        require_real("alpha", self.alpha)
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"scale must be a positive finite real, got {self.alpha}")
        exact = int(self.alpha) if isinstance(self.alpha, numbers.Integral) else self.alpha
        if float(exact) != exact:  # the array kernels compute with float(alpha)
            raise ValueError(f"scale must be an exact float, got {self.alpha!r}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        # store plain Python numbers: 2**n wraps on a numpy integer, and the
        # scalar oracles' Fraction(alpha) refuses a numpy float32
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "alpha", float(self.alpha))

    @cached_property
    def code_min(self) -> int:
        return -(2 ** (self.n - 1)) if self.mode == SYMMETRIC else 0

    @cached_property
    def code_max(self) -> int:
        """Top representable code; also the origin of the time ramp."""
        return 2 ** (self.n - 1) - 1 if self.mode == SYMMETRIC else 2**self.n - 1


@dataclass(frozen=True)
class SnnLayerConfig(QuantParams):
    """Window, scale, kernel and threshold schedule for one M-TTFS layer.

    ``i_max`` is the masked firing time (dead-zone center); omitted, it is
    ``code_max``, which puts the silent train on code zero (``mu = 0``).
    The dead zone is the only rule that silences a train.  Plain TTFS is
    ``i_max = 2**n - 1, k = 0``: the lowest code, which would fire at T-1,
    goes silent instead, so its silent train stands for ``code_min``.  In
    symmetric mode that code is off centre: ``integrate`` adds nothing where
    the lowest code should add ``alpha * code_min``, the limit of every
    ``i_max`` with ``mu != 0``.
    ``theta_shift`` offsets the threshold schedule by whole codes and is a
    fault-injection hook for negative-control verification runs.
    """

    i_max: int | None = None  # None stores code_max (mu = 0)
    k: int = 0
    theta_shift: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.i_max is None:
            object.__setattr__(self, "i_max", self.code_max)
        require_integer("i_max", self.i_max)
        if not 0 <= self.i_max <= self.window - 1:
            raise ValueError(f"i_max {self.i_max} outside window [0, {self.window - 1}]")
        object.__setattr__(self, "k", require_radius(self.k))
        require_integer("theta_shift", self.theta_shift)
        # plain ints, as for n: a numpy integer wraps mu and the threshold codes
        object.__setattr__(self, "i_max", int(self.i_max))
        object.__setattr__(self, "theta_shift", int(self.theta_shift))

    @cached_property
    def window(self) -> int:
        return 2**self.n

    @cached_property
    def mu(self) -> int:
        """Code represented by the silent train (dead-zone center)."""
        return self.code_max - self.i_max

    @cached_property
    def _codebook(self) -> dict[int, "SpikeTrain"]:
        """Code -> shared ``SpikeTrain``, filled by ``spike._code_train``."""
        return {}

    @cached_property
    def _stage_configs(self) -> tuple["SnnLayerConfig", "SnnLayerConfig"]:
        """The two stage configs of ``attention.attention_pipeline``: this
        config at unit scale (scores live in code space), and the asymmetric
        plain-TTFS config of n bits the non-negative scores re-encode in
        (silence on code zero)."""
        score_cfg = SnnLayerConfig(self.n, mode=ASYMMETRIC, i_max=self.window - 1)
        return replace(self, alpha=1.0), score_cfg

    def _check_table_width(self, name: str) -> None:
        # before any allocation: a 2^30-step window would ask for 8 GiB
        if self.n > _RAMP_MAX_BITS:
            raise ValueError(f"{name} table of 2^{self.n} steps exceeds 2^{_RAMP_MAX_BITS}")

    @cached_property
    def _ramp(self) -> np.ndarray:
        """The firing ramp as one exact table, ascending: entry i is the least
        float >= ``alpha * (code_max + theta_shift - t)`` for t = T-1-i, so a
        potential meets step t exactly when it is >= entry T-1-t.  It holds
        2^n floats, as many as the codebook's trains at most (512 KiB at
        n = 16), built once per config; a window over 2^20 steps, or a
        threshold code beyond 2^53 (no exact float), is refused with
        ValueError, and ``fire_simulated_array`` then bisects.
        """
        self._check_table_width("ramp")
        origin = self.code_max + self.theta_shift
        if max(abs(origin), abs(origin - self.window + 1)) > 2**53:
            raise ValueError(f"threshold codes beyond 2^53 (theta_shift {self.theta_shift})")
        m = np.arange(origin - self.window + 1, origin + 1, dtype=np.int64)
        # m is an exact float, so the rounded product lies within half a
        # spacing of the real one: it is the least float meeting it, or the
        # next float up.  An overflowed +inf stays (only +inf meets it), and
        # -inf becomes -max (every finite value meets it), as in ge_scaled.
        with np.errstate(over="ignore"):
            ramp = self.alpha * m.astype(np.float64)
            ramp = np.where(ge_scaled_array(ramp, self.alpha, m), ramp, np.nextafter(ramp, np.inf))
        ramp.setflags(write=False)
        return ramp

    @cached_property
    def _decode_table(self) -> np.ndarray:
        """``decode_spike_array`` of the times -1..T-1: entry t + 1 decodes t."""
        self._check_table_width("decode")
        table = decode_spike_array(np.arange(-1, self.window), self)
        table.setflags(write=False)
        return table

    @cached_property
    def _term_table(self) -> np.ndarray:
        """Term each code adds per unit weight, encoded and integrated; entry 0 is code_min's."""
        self._check_table_width("term")
        times = encode_integer_array(np.arange(self.code_min, self.code_max + 1), self)
        terms = integrate_array(times[:, None], np.ones((1, 1)), self)[:, 0]
        terms.setflags(write=False)
        return terms

    @cached_property
    def _filter_table(self) -> np.ndarray:
        """The quantized side's filtered code of each code, by the rule of
        ``qnn.dead_zone_filter_array``, never by encoding; entry 0 is code_min's."""
        from .qnn import dead_zone_filter_array  # qnn imports this module

        self._check_table_width("filter")
        codes = np.arange(self.code_min, self.code_max + 1)
        table = dead_zone_filter_array(codes, self.mu, self.k)
        table.setflags(write=False)
        return table

    @cached_property
    def _lattice_top(self) -> float | None:
        """Largest |term| when ``alpha * _filter_table`` and ``_term_table``
        are one integral table (each code adds the same integer per unit
        weight on both sides), else None."""
        terms = self._term_table
        one = np.array_equal(self.alpha * self._filter_table, terms)
        return float(np.abs(terms).max()) if one and np.all(terms == np.floor(terms)) else None

    def in_dead_zone(self, t: int) -> bool:
        return abs(t - self.i_max) <= self.k

    def kernel(self, t: int) -> int:
        """Decode value f(t) of a spike at step t, flattened over the dead zone."""
        if self.in_dead_zone(t):
            return self.mu
        return self.code_max - t


@dataclass(frozen=True, slots=True)
class SpikeTrain:
    """Binary train of ``window`` steps carrying at most one spike.

    A train stores only its arrival step ``time``, None for the silent
    train.  A population of trains is an array of spike times (see
    ``train_times``), not a list of these objects.
    """

    window: int
    time: int | None

    def __post_init__(self) -> None:
        if self.time is not None and not 0 <= self.time < self.window:
            raise ValueError(f"spike time {self.time} outside window [0, {self.window - 1}]")

    @property
    def is_silent(self) -> bool:
        return self.time is None

    @property
    def bits(self) -> np.ndarray:
        """Dense 0/1 vector of length ``window``, built on demand."""
        bits = np.zeros(self.window, dtype=np.uint8)
        if self.time is not None:
            bits[self.time] = 1
        return bits


def encode_integer(code: int, cfg: SnnLayerConfig) -> SpikeTrain:
    """Encode an integer code as a spike train under ``cfg``.

    Codes inside the dead zone collapse to the silent train; every other
    code fires exactly once at ``code_max - code``.  Returns the config's
    shared train for ``code``.  Raises ValueError for a code that is not an
    integer (bool, float and str included) or not representable.
    """
    if type(code) is int:
        try:
            return cfg._codebook[code]
        except KeyError:  # not built yet, or not representable
            pass
    else:
        require_integer("code", code)
    return _code_train(code, cfg)


def decode_spike(train: SpikeTrain, cfg: SnnLayerConfig) -> int:
    """Decode a spike train back to its integer code via the kernel f(t);
    the silent train decodes to the dead-zone center ``mu``."""
    if train.window != cfg.window:
        raise ValueError(f"train window {train.window} != config window {cfg.window}")
    t = train.time
    if t is None:
        return cfg.mu
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
    If no step before T-1 qualifies, the window end clamps the code floor:
    the neuron fires at T-1, mirroring quantizer saturation.

    The ramp ``alpha * (origin - t)`` strictly decreases, so "meets step
    t" is monotone in t, and a bisection over [0, T-1] finds the step with
    n exact ``ge_scaled`` comparisons, no float quotient involved.
    """
    if math.isnan(potential):
        raise ValueError("potential is NaN")
    alpha = cfg.alpha
    origin = cfg.code_max + cfg.theta_shift
    lo, hi = 0, cfg.window - 1  # the answer lies in [lo, hi]
    while lo < hi:
        mid = (lo + hi) >> 1
        if ge_scaled(potential, alpha, origin - mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _code_train(code: int, cfg: SnnLayerConfig) -> SpikeTrain:
    """``cfg``'s shared train for an integer ``code``, built on first use by
    the scalar mask rule: silent where ``code_max - code`` is in the dead
    zone."""
    book = cfg._codebook
    train = book.get(code)
    if train is None:
        code = int(code)
        if not cfg.code_min <= code <= cfg.code_max:
            raise ValueError(
                f"code {code} outside representable range [{cfg.code_min}, {cfg.code_max}]"
            )
        t = cfg.code_max - code
        train = SpikeTrain(cfg.window, None if cfg.in_dead_zone(t) else t)
        book[code] = train
    return train


def _mask_fire_time(t: int, cfg: SnnLayerConfig) -> SpikeTrain:
    # firing at t and encoding code_max - t mask the same times
    return _code_train(cfg.code_max - t, cfg)


def fire_simulated(potential: float, cfg: SnnLayerConfig) -> SpikeTrain:
    """Masked threshold crossing for a settled potential.

    The candidate spike lands at the first step where the potential meets
    the decreasing threshold (``candidate_fire_time``, a bisection over the
    exact comparisons); the mask then either passes it through or silences
    it.  A masked candidate is consumed: no later step may fire.
    """
    return _mask_fire_time(candidate_fire_time(potential, cfg), cfg)


def fire_analytic(pre_activation: float, cfg: SnnLayerConfig) -> SpikeTrain:
    """Closed-form firing time for a settled pre-activation.

    The unmasked time is ``clip(code_max + theta_shift - floor(a / alpha),
    0, T-1)``; the mask is applied afterwards.  Produces output identical
    to ``fire_simulated`` on the same potential, for every input, which
    makes it the executable oracle for the threshold search.
    """
    if math.isnan(pre_activation):
        raise ValueError("pre-activation is NaN")
    if math.isinf(pre_activation):
        t = 0 if pre_activation > 0 else cfg.window - 1
    else:
        t_raw = cfg.code_max + cfg.theta_shift - floor_ratio(pre_activation, cfg.alpha)
        t = 0 if t_raw < 0 else cfg.window - 1 if t_raw >= cfg.window else t_raw
    return _mask_fire_time(t, cfg)


def _check_times(times, cfg: SnnLayerConfig) -> np.ndarray:
    times = require_integer_array("spike times", times)
    if times.size and (times.min() < -1 or times.max() >= cfg.window):
        raise ValueError(f"spike times outside [-1, {cfg.window - 1}] (-1 is silent)")
    return times.astype(np.int64, copy=False)


def _mask_times(times: np.ndarray, cfg: SnnLayerConfig) -> np.ndarray:
    """``_mask_fire_time`` of each time: -1 where the dead zone silences it."""
    return np.where(np.abs(times - cfg.i_max) <= cfg.k, -1, times)


def _kernel_array(times: np.ndarray, cfg: SnnLayerConfig) -> np.ndarray:
    """``cfg.kernel`` of each spike time (meaningless where silent)."""
    return np.where(np.abs(times - cfg.i_max) <= cfg.k, cfg.mu, cfg.code_max - times)


def encode_integer_array(codes, cfg: SnnLayerConfig) -> np.ndarray:
    """Element-wise ``encode_integer``: spike times, -1 where silent.

    A code inside the dead zone is exactly a time inside the mask, so the
    mask that silences fired times also silences encoded codes.  A
    non-empty input must have an integer dtype (``require_integer_array``).
    """
    codes = require_integer_array("codes", codes)
    if codes.size and (codes.min() < cfg.code_min or codes.max() > cfg.code_max):
        raise ValueError(
            f"codes outside representable range [{cfg.code_min}, {cfg.code_max}]"
        )
    return _mask_times(cfg.code_max - codes.astype(np.int64), cfg)


def decode_spike_array(times, cfg: SnnLayerConfig) -> np.ndarray:
    """Element-wise ``decode_spike`` of spike times (-1 silent)."""
    times = _check_times(times, cfg)
    return np.where(times < 0, cfg.mu, _kernel_array(times, cfg))


def integrate_array(times, weights, cfg_prev: SnnLayerConfig, bias=0.0) -> np.ndarray:
    """``integrate`` for every row of a population and every output.

    ``times`` is (..., inputs), ``weights`` is (inputs, outputs) and
    ``bias`` broadcasts over (..., outputs).  Each potential is the exactly
    rounded sum of ``w * (alpha_prev * f(t))`` over the spiking inputs
    (silent ones add an exact zero) plus the bias, as in ``integrate``.
    """
    times = _check_times(times, cfg_prev)
    scaled = cfg_prev.alpha * _kernel_array(times, cfg_prev).astype(np.float64)
    return exact_matmul(scaled, weights, mask=times >= 0) + bias


def fire_simulated_array(potentials, cfg: SnnLayerConfig) -> np.ndarray:
    """Element-wise ``fire_simulated``: masked spike times, -1 where silent.

    The thresholds fall as t grows, so the steps a potential misses are a
    prefix of the window; their count is the number of ``cfg._ramp``
    entries above it, one ``searchsorted``, and it fires at the first step
    it meets, or at T-1 if it meets none.  Where the config's ramp table is
    refused (see ``SnnLayerConfig._ramp``), the scalar ``candidate_fire_time``
    decides each potential instead, by n exact comparisons.  Raises
    ValueError for NaN, and for a window over 2^63 steps, whose spike times
    do not fit ``int64``.
    """
    v = np.asarray(potentials, dtype=np.float64)
    if np.isnan(v).any():
        raise ValueError("potential is NaN")
    if cfg.n > 63:
        raise ValueError(f"spike times of a 2^{cfg.n}-step window do not fit int64")
    try:
        ramp = cfg._ramp
    except ValueError:  # no table: the bisection decides each potential
        times = [candidate_fire_time(a, cfg) for a in v.ravel().tolist()]
        return _mask_times(np.array(times, dtype=np.int64).reshape(v.shape), cfg)
    missed = cfg.window - np.searchsorted(ramp, v, side="right")
    return _mask_times(np.minimum(missed, cfg.window - 1), cfg)


def train_times(trains, window: int | None = None) -> np.ndarray:
    """Spike times of a non-empty list of trains with ``window`` steps each
    (default: the first train's), -1 where silent."""
    if not trains:
        raise ValueError("need at least one train")
    window = trains[0].window if window is None else window
    times = []
    for train in trains:
        if train.window != window:
            raise ValueError(f"train window {train.window} != {window}")
        times.append(-1 if train.time is None else train.time)
    return np.array(times, dtype=np.int64)

