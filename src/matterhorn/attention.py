"""Time-based accumulation for attention score computation.

Instead of one multiply-accumulate per arriving spike, each time step sums
the weights of the inputs spiking at that step and applies the decay value
once: ``V_t = f(t) * sum(w_i | s_i = 1) + V_{t-1}``.  Steps with no spikes
cost nothing, so sparsity passes straight through to work done.  The
attention pipeline runs Q x K^T this way with spiking queries, re-encodes
the normalized scores as spike trains, and accumulates them against V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .spike import ASYMMETRIC, SnnLayerConfig, SpikeTrain, encode_integer

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
    steps of the shared spike columns carrying at least one spike (the work
    done), never the full window unconditionally.
    """

    v: float | np.ndarray = 0.0
    t: int = -1
    events: int = 0


def spike_matrix(trains: list[SpikeTrain], window: int | None = None) -> np.ndarray:
    """Stack trains into a (window x inputs) binary matrix, one column each."""
    if not trains:
        raise ValueError("need at least one train")
    window = window if window is not None else trains[0].window
    cols = np.zeros((window, len(trains)), dtype=np.uint8)
    for i, train in enumerate(trains):
        if train.window != window:
            raise ValueError(f"train window {train.window} != {window}")
        if train.time is not None:
            cols[train.time, i] = 1
    return cols


def time_based_accumulate(spike_columns, weights, cfg: SnnLayerConfig) -> TimeAccState:
    """Run the per-step weight-sum accumulation over one window.

    ``spike_columns`` is (window x inputs) binary; ``weights`` is one real
    per input or a bank ``(inputs, outputs)`` read through the same columns.
    A spike at step t adds ``w * (alpha * f(t))`` to each output, and
    ``math.fsum`` sums each output's terms, the rule of ``integrate``.
    """
    cols = np.asarray(spike_columns, dtype=np.uint8)
    weights = np.asarray(weights, dtype=np.float64)
    if cols.ndim != 2 or cols.shape[0] != cfg.window:
        raise ValueError(f"expected ({cfg.window} x inputs) spike columns, got {cols.shape}")
    if weights.ndim not in (1, 2) or weights.shape[0] != cols.shape[1]:
        raise ValueError(f"weights shape {weights.shape} does not match {cols.shape[1]} inputs")
    active = np.flatnonzero(cols.any(axis=1))  # the steps carrying a spike
    at, inputs = np.nonzero(cols[active])
    decay = np.array([cfg.alpha * cfg.kernel(t) for t in active.tolist()], dtype=np.float64)
    terms = (weights[inputs].T * decay[at]).tolist()  # one row of terms per output
    v = math.fsum(terms) if weights.ndim == 1 else np.array([math.fsum(r) for r in terms])
    return TimeAccState(v=v, t=cfg.window - 1, events=int(active.size))


def normalize_scores(scores: np.ndarray, window: int) -> np.ndarray:
    """Quantized stand-in for softmax: anchor each row's maximum in-window.

    Rows whose maximum exceeds the top code are shifted down so the
    maximum lands on ``window - 1``; scores falling below zero after the
    shift clip to code 0, the silent state.  Integer in, integer out.
    """
    scores = np.asarray(scores, dtype=np.int64)
    shift = np.maximum(scores.max(axis=1, keepdims=True) - (window - 1), 0)
    return np.clip(scores - shift, 0, window - 1)


def _score_config(cfg: SnnLayerConfig) -> SnnLayerConfig:
    # Scores are non-negative: asymmetric encoding, silence on code zero.
    return SnnLayerConfig(
        n=cfg.n, alpha=1.0, mode=ASYMMETRIC, i_max=2**cfg.n - 1, k=0
    )


def attention_pipeline(
    q_trains: list[list[SpikeTrain]],
    k_codes,
    v_codes,
    cfg: SnnLayerConfig,
    score_cfg: SnnLayerConfig | None = None,
    normalizer=normalize_scores,
) -> np.ndarray:
    """Two-stage attention over spiking queries and integer K/V codes.

    Stage one accumulates each query row against the bank of keys (Q x K^T
    in code space); stage two normalizes, re-encodes each row of scores as
    spike trains and accumulates them against the bank of V columns.
    Returns the raw integer output matrix, which matches
    ``attention_reference`` exactly.
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
    if score_cfg is None:
        score_cfg = _score_config(cfg)

    unit_cfg = replace(cfg, alpha=1.0)  # scores live in code space
    unit_score_cfg = replace(score_cfg, alpha=1.0)
    scores = np.rint([
        time_based_accumulate(spike_matrix(row, cfg.window), k_codes.T, unit_cfg).v
        for row in q_trains
    ])
    score_codes = normalizer(scores.astype(np.int64), score_cfg.window)
    out = np.zeros((len(q_trains), v_codes.shape[1]), dtype=np.int64)
    for i, row in enumerate(score_codes):
        trains = [encode_integer(int(c), score_cfg) for c in row]
        cols = spike_matrix(trains, score_cfg.window)
        out[i] = np.rint(time_based_accumulate(cols, v_codes, unit_score_cfg).v)
    return out


def attention_reference(
    q_codes,
    k_codes,
    v_codes,
    cfg: SnnLayerConfig,
    score_cfg: SnnLayerConfig | None = None,
    normalizer=normalize_scores,
) -> np.ndarray:
    """All-integer reference for the spiking pipeline: plain matmuls plus
    the same normalization and dead-zone collapse.

    Takes raw query codes; the query-side dead zone is applied here the
    same way encoding applies it on the spiking side.
    """
    q_codes = np.asarray(q_codes, dtype=np.int64)
    k_codes = np.asarray(k_codes, dtype=np.int64)
    v_codes = np.asarray(v_codes, dtype=np.int64)
    if score_cfg is None:
        score_cfg = _score_config(cfg)
    if cfg.masked:
        q_codes = np.where(np.abs(q_codes - cfg.mu) <= cfg.k, cfg.mu, q_codes)
    scores = q_codes @ k_codes.T
    codes = normalizer(scores, score_cfg.window)
    # The dead zone around the score silence collapses nearby codes.
    collapsed = np.where(np.abs(codes - score_cfg.mu) <= score_cfg.k, score_cfg.mu, codes)
    return collapsed @ v_codes
