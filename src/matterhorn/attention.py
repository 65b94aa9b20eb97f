"""Time-based accumulation for attention score computation.

Instead of one multiply-accumulate per arriving spike, each time step sums
the weights of the inputs spiking at that step and applies the decay value
once: ``V_t = f(t) * sum(w_i | s_i = 1) + V_{t-1}``.  Steps with no spikes
cost nothing, so sparsity passes straight through to work done.  Inputs
arrive as one spike time each (-1 silent), so the work of a pass grows with
the spikes, never with the 2^n-step window.  The attention pipeline runs
Q x K^T this way with spiking queries, re-encodes the normalized scores as
spike times, and accumulates them against V.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .numerics import fsum_rows
from .spike import (
    ASYMMETRIC,
    SnnLayerConfig,
    SpikeTrain,
    decode_spike_array,
    encode_integer_array,
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


@dataclass
class TimeAccState:
    """Accumulator state after a time-based pass.

    ``v`` is the exactly rounded potential ``integrate`` settles on: a float
    per weight vector, an array of them for a bank.  ``events`` counts the
    distinct steps at which at least one input spikes (the work done),
    never the full window unconditionally.
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
    and ``math.fsum`` sums each output's terms, the rule of ``integrate``.
    """
    times = np.asarray(times, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    if times.ndim != 1 or weights.ndim not in (1, 2) or weights.shape[0] != times.size:
        raise ValueError(f"weights shape {weights.shape} does not match spike times {times.shape}")
    spiking = times >= 0
    decay = cfg.alpha * decode_spike_array(times, cfg)[spiking].astype(np.float64)
    v = fsum_rows(weights[spiking].T * decay)  # one row of terms per output
    events = len(set(times[spiking].tolist()))
    return TimeAccState(v=float(v) if weights.ndim == 1 else v, t=cfg.window - 1, events=events)


def normalize_scores(scores: np.ndarray, window: int) -> np.ndarray:
    """Quantized stand-in for softmax: anchor each row's maximum in-window.

    Rows whose maximum exceeds the top code are shifted down so the
    maximum lands on ``window - 1``; scores falling below zero after the
    shift clip to code 0, the silent state.  Integer in, integer out.
    """
    scores = np.asarray(scores, dtype=np.int64)
    shift = np.maximum(scores.max(axis=1, keepdims=True) - (window - 1), 0)
    return np.clip(scores - shift, 0, window - 1)


def attention_pipeline(
    q_trains: list[list[SpikeTrain]], k_codes, v_codes, cfg: SnnLayerConfig
) -> np.ndarray:
    """Two-stage attention over spiking queries and integer K/V codes.

    Stage one accumulates each query row against the bank of keys (Q x K^T
    in code space); stage two normalizes the scores with
    ``normalize_scores``, re-encodes them as spike times and accumulates
    each row against the bank of V columns.  Returns the raw integer output
    matrix, which matches ``attention_reference`` exactly.
    """
    k_codes = np.asarray(k_codes, dtype=np.int64)
    v_codes = np.asarray(v_codes, dtype=np.int64)
    if not q_trains or not q_trains[0]:
        raise ValueError("need at least one query train")
    d_k = len(q_trains[0])
    if k_codes.ndim != 2 or k_codes.shape[1] != d_k:
        raise ValueError(f"K shape {k_codes.shape} does not match d_k={d_k}")
    if v_codes.ndim != 2 or v_codes.shape[0] != k_codes.shape[0]:
        raise ValueError(f"V shape {v_codes.shape} does not match {k_codes.shape[0]} keys")
    # Scores are non-negative: asymmetric codes, silence on code zero.
    score_cfg = SnnLayerConfig(n=cfg.n, mode=ASYMMETRIC, i_max=2**cfg.n - 1)
    unit_cfg = replace(cfg, alpha=1.0)  # scores live in code space
    scores = np.rint([
        time_based_accumulate(train_times(row, cfg.window), k_codes.T, unit_cfg).v
        for row in q_trains
    ])
    score_codes = normalize_scores(scores.astype(np.int64), score_cfg.window)
    out = np.zeros((len(q_trains), v_codes.shape[1]), dtype=np.int64)
    for i, times in enumerate(encode_integer_array(score_codes, score_cfg)):
        out[i] = np.rint(time_based_accumulate(times, v_codes, score_cfg).v)
    return out


def attention_reference(q_codes, k_codes, v_codes, cfg: SnnLayerConfig) -> np.ndarray:
    """All-integer reference for the spiking pipeline: plain matmuls plus
    the same normalization.

    Takes raw query codes; the query-side dead zone is applied here the
    same way encoding applies it on the spiking side.  The score side's
    dead zone is code zero alone, which decodes to zero, so it changes no
    score.
    """
    q_codes = np.asarray(q_codes, dtype=np.int64)
    k_codes = np.asarray(k_codes, dtype=np.int64)
    v_codes = np.asarray(v_codes, dtype=np.int64)
    if cfg.masked:
        q_codes = np.where(np.abs(q_codes - cfg.mu) <= cfg.k, cfg.mu, q_codes)
    return normalize_scores(q_codes @ k_codes.T, 2**cfg.n) @ v_codes
