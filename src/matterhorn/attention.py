"""Time-based accumulation for attention score computation.

Instead of one multiply-accumulate per arriving spike, each time step sums
the weights of the inputs spiking at that step and applies the decay value
once: ``V_t = f(t) * sum(w_i | s_i = 1) + V_{t-1}``.  Steps with no spikes
cost nothing, so sparsity passes straight through to work done.  Inputs
arrive as one spike time each (-1 silent), so the work of a pass grows with
the spikes, never with the 2^n-step window.  The attention pipeline runs
each stage as one pass over all query rows: Q x K^T with the query spike
times of every row against the bank of keys, then the normalized scores,
re-encoded as spike times, against V.  Each pass is one
``spike.integrate_array``, a single float matrix product wherever integer
decays and weights make every sum exact, and ``time_based_accumulate`` is
its one-row call.  The two stage configs, the query side at unit scale and
the asymmetric plain-TTFS config the scores re-encode in, are built once per
layer config and kept with it.  Pipeline and reference alike refuse K/V
codes whose sums could reach 2^53 before any work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qnn import dead_zone_filter_array
from .spike import (
    SnnLayerConfig,
    SpikeTrain,
    encode_integer_array,
    integrate_array,
    require_integer,
    require_integer_array,
    train_times,
)

__all__ = [
    "TimeAccState",
    "spike_matrix",
    "time_based_accumulate",
    "normalize_scores",
    "attention_pipeline",
    "attention_reference",
]

# Each stage sums integer products as floats, exact while every sum of
# magnitudes stays below 2^53; so do the reference's int64 sums.
_EXACT_REACH = 2**53


@dataclass
class TimeAccState:
    """Accumulator state after one row's time-based pass.

    ``v`` is the exactly rounded potential ``integrate`` settles on: a float
    per weight vector, an array of them for a bank.  ``events`` counts the
    distinct steps at which at least one input spikes (the work done),
    never the full window unconditionally.  ``time_based_accumulate``
    returns one; the pipeline's row-batched ``integrate_array`` passes
    compute only the potentials.
    """

    v: float | np.ndarray = 0.0
    t: int = -1
    events: int = 0


def spike_matrix(trains: list[SpikeTrain], window: int | None = None) -> np.ndarray:
    """Dense (window x inputs) binary view of trains, one column each."""
    times = train_times(trains, window)  # every train has trains[0].window steps
    return (np.arange(trains[0].window)[:, None] == times).astype(np.uint8)


def time_based_accumulate(times, weights, cfg: SnnLayerConfig) -> TimeAccState:
    """Run the per-step weight-sum accumulation over one window.

    ``times`` holds one spike time per input (-1 silent); ``weights`` is one
    real per input or a bank ``(inputs, outputs)`` read through the same
    times.  A spike at step t adds ``w * (alpha * f(t))`` to each output,
    and each output's terms sum exactly rounded, the rule of ``integrate``.
    This is the one-row call of the kernel ``attention_pipeline`` runs over
    all query rows at once.
    """
    times = require_integer_array("spike times", times).astype(np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    if times.ndim != 1 or weights.ndim not in (1, 2) or weights.shape[0] != times.size:
        raise ValueError(f"weights shape {weights.shape} does not match spike times {times.shape}")
    v = integrate_array(times, weights if weights.ndim == 2 else weights[:, None], cfg)
    events = np.unique(times[times >= 0]).size  # distinct spiking steps
    return TimeAccState(v=float(v[0]) if weights.ndim == 1 else v, t=cfg.window - 1, events=events)


def normalize_scores(scores: np.ndarray, window: int) -> np.ndarray:
    """Quantized stand-in for softmax: anchor each row's maximum in-window.

    Rows whose maximum exceeds the top code are shifted down so the
    maximum lands on ``window - 1``; scores falling below zero after the
    shift clip to code 0, the silent state.  Integer in, integer out.
    Raises ValueError for scores that are not a 2-D integer array and for a
    window that is not an integer >= 1.
    """
    scores = require_integer_array("scores", scores).astype(np.int64)
    if scores.ndim != 2:
        raise ValueError(f"scores must be a 2-D (rows, keys) array, got shape {scores.shape}")
    require_integer("window", window)
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    shift = np.maximum(scores.max(axis=1, keepdims=True) - (window - 1), 0)
    return np.minimum(np.maximum(scores - shift, 0), window - 1)


def _top(codes: np.ndarray) -> int:
    return max(-int(codes.min(initial=0)), int(codes.max(initial=0)))


def _check_kv(k_codes, v_codes, d_k: int, cfg: SnnLayerConfig) -> tuple[np.ndarray, np.ndarray]:
    """K and V codes as int64, refused with ValueError unless shaped (keys,
    d_k) and (keys, d_v), and unless each stage's reach is below 2^53:
    d_k x max|f| x max|K| for the scores (a query kernel value f lies in
    [code_min, code_max]), keys x (2^n - 1) x max|V| for the output (a
    score code lies in [0, 2^n - 1]).  Checked before any work, by the
    pipeline and the reference alike."""
    k_codes = require_integer_array("K codes", k_codes).astype(np.int64, copy=False)
    v_codes = require_integer_array("V codes", v_codes).astype(np.int64, copy=False)
    if k_codes.ndim != 2 or k_codes.shape[1] != d_k:
        raise ValueError(f"K shape {k_codes.shape} does not match d_k={d_k}")
    if v_codes.ndim != 2 or v_codes.shape[0] != k_codes.shape[0]:
        raise ValueError(f"V shape {v_codes.shape} does not match {k_codes.shape[0]} keys")
    reaches = (
        ("scores", "d_k x max|f| x max|K|", d_k * max(-cfg.code_min, cfg.code_max) * _top(k_codes)),
        ("output", "keys x (2^n - 1) x max|V|", len(k_codes) * (cfg.window - 1) * _top(v_codes)),
    )
    for stage, formula, reach in reaches:
        if reach >= _EXACT_REACH:
            raise ValueError(
                f"attention {stage} sums reach {formula} = {reach}, "
                "not below the 2^53 within which they stay exact"
            )
    return k_codes, v_codes


def attention_pipeline(
    q_trains: list[list[SpikeTrain]], k_codes, v_codes, cfg: SnnLayerConfig
) -> np.ndarray:
    """Two-stage attention over spiking queries and integer K/V codes.

    The query trains (rows of equal length, every train of ``cfg``'s
    window) become one (rows, d_k) array of spike times.  Stage one
    accumulates every row against the bank of keys in one pass (Q x K^T
    in code space); stage two normalizes the scores with
    ``normalize_scores``, re-encodes them as spike times and accumulates
    every row against the bank of V columns in one pass.  The two stage
    configs are built once per layer config.  Returns the raw integer
    output matrix, which matches ``attention_reference`` exactly.  Raises
    ValueError for mismatched shapes and for K/V codes whose sums could
    reach 2^53 (see ``_check_kv``).
    """
    if not q_trains or not q_trains[0]:
        raise ValueError("need at least one query train")
    d_k = len(q_trains[0])
    if any(len(row) != d_k for row in q_trains):
        raise ValueError(f"query rows differ in length (first has {d_k} trains)")
    k_codes, v_codes = _check_kv(k_codes, v_codes, d_k, cfg)
    q_times = train_times([train for row in q_trains for train in row], cfg.window)
    unit_cfg, score_cfg = cfg._stage_configs
    scores = integrate_array(q_times.reshape(len(q_trains), d_k), k_codes.T, unit_cfg)
    score_codes = normalize_scores(np.rint(scores).astype(np.int64), score_cfg.window)
    out = integrate_array(encode_integer_array(score_codes, score_cfg), v_codes, score_cfg)
    return np.rint(out).astype(np.int64)


def attention_reference(q_codes, k_codes, v_codes, cfg: SnnLayerConfig) -> np.ndarray:
    """All-integer reference for the spiking pipeline: plain matmuls plus
    the same normalization.

    Takes raw query codes; the query-side dead zone is applied here the
    same way encoding applies it on the spiking side.  The score side's
    dead zone is code zero alone, which decodes to zero, so it changes no
    score.  Raises ValueError for query codes that are not a 2-D array of
    representable codes, and, as the pipeline does, for K/V codes of the
    wrong shape or whose sums could reach 2^53 (see ``_check_kv``).
    """
    q_codes = require_integer_array("Q codes", q_codes).astype(np.int64)
    if q_codes.ndim != 2:
        raise ValueError(f"Q codes must be a 2-D (rows, d_k) array, got shape {q_codes.shape}")
    if q_codes.size and (q_codes.min() < cfg.code_min or q_codes.max() > cfg.code_max):
        raise ValueError(f"Q codes outside representable range [{cfg.code_min}, {cfg.code_max}]")
    k_codes, v_codes = _check_kv(k_codes, v_codes, q_codes.shape[1], cfg)
    q_codes = dead_zone_filter_array(q_codes, cfg.mu, cfg.k)
    return normalize_scores(q_codes @ k_codes.T, 2**cfg.n) @ v_codes
