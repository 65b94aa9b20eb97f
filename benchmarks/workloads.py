"""The four benchmark workloads, built from a seed.

Each workload builds the program's objects (configs, layers, weights and
inputs) in its constructor; that is the part ``setup_s`` times.  Reference
results are computed separately by ``prepare_references`` so that no
benchmark-side reference work lands in set-up time or in the timed calls.

Work is split into rounds.  ``round(r)`` returns the top-level calls of
round ``r`` as ``Case`` objects; a round always covers the workload's whole
configuration grid, so a run made of whole rounds never over-weights one
configuration.  ``check`` decides whether one call's result is correct and
covers the number of items the inputs imply.

Every call into the library goes through a module attribute
(``conversion.verify_equivalence``, not a from-import), so the traced run
can wrap it.  ``control=True`` builds the workload's negative control: a
fault that the check must catch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

from matterhorn import attention, conversion, crossbar, energy, qnn, spike, stats


@dataclass(frozen=True)
class Case:
    """One top-level call: ``key`` names its inputs for the reference lookup."""

    key: Any
    items: int
    run: Callable[[], Any]


def _pm_one(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.choice([-1.0, 1.0], shape)


class EquivExhaustive:
    """3-bit 4x4 layers over {symmetric, asymmetric} x k in {0, 1, 2}.

    Integer potentials land exactly on thresholds, so the rational tie path
    of ``numerics`` does most of the work.  Item: one input code vector.
    """

    name = "equiv-exhaustive"
    BITS, FAN = 3, 4
    GRID = tuple((mode, k) for mode in (spike.SYMMETRIC, spike.ASYMMETRIC) for k in (0, 1, 2))
    POOL = 4  # weight sets per grid point; rounds cycle through them

    def __init__(self, seed: int, control: bool = False) -> None:
        rng = np.random.default_rng(seed)
        self.pool = []
        for _ in range(self.POOL):
            layers = []
            for mode, k in self.GRID:
                p = qnn.QuantParams(n=self.BITS, alpha=1.0, mode=mode)
                cfg = conversion.derive_snn_config(p, conversion.zero_centered_i_max(p), k)
                layer = qnn.QnnLayer(
                    weights=_pm_one(rng, (self.FAN, self.FAN)),
                    bias=np.zeros(self.FAN),
                    in_params=p,
                    out_params=p,
                    mu=cfg.mu,
                    k=k,
                )
                if control:
                    cfg = replace(cfg, theta_shift=1)
                layers.append((layer, cfg))
            self.pool.append(layers)
        self.vectors = (2**self.BITS) ** self.FAN

    def prepare_references(self) -> None:
        """The reference is the integer ground truth inside the report."""

    def round(self, r: int) -> list[Case]:
        layers = self.pool[r % self.POOL]
        return [
            Case(
                key=(r % self.POOL, i),
                items=self.vectors,
                run=lambda layer=layer, cfg=cfg: conversion.verify_equivalence(
                    layer, cfg, domain="exhaustive"
                ),
            )
            for i, (layer, cfg) in enumerate(layers)
        ]

    def check(self, key, report) -> bool:
        return report.cases_checked == self.vectors and report.passed


class EquivSampled:
    """Sampled pre-activations at n=4, k=1, alternating alpha 1.0 and 0.37.

    Real-valued draws almost never tie, so the float fast path and
    ``qnn.quantize`` dominate.  Item: one sampled pre-activation.
    """

    name = "equiv-sampled"
    ALPHAS = (1.0, 0.37)
    SAMPLES = 10_000

    def __init__(self, seed: int, control: bool = False) -> None:
        self.seed = seed
        self.layers = []
        for alpha in self.ALPHAS:
            p = qnn.QuantParams(n=4, alpha=alpha)
            cfg = conversion.derive_snn_config(p, conversion.zero_centered_i_max(p), 1)
            layer = qnn.QnnLayer(
                weights=np.ones((1, 1)), bias=np.zeros(1), in_params=p, out_params=p, mu=0, k=1
            )
            if control:
                cfg = replace(cfg, theta_shift=1)
            self.layers.append((layer, cfg))

    def prepare_references(self) -> None:
        """The reference is the integer ground truth inside the report."""

    def round(self, r: int) -> list[Case]:
        return [
            Case(
                key=(r, i),
                items=self.SAMPLES,
                run=lambda layer=layer, cfg=cfg, s=self.seed * 1_000_003 + 2 * r + i: (
                    conversion.verify_equivalence(
                        layer, cfg, domain="sampled", samples=self.SAMPLES, seed=s
                    )
                ),
            )
            for i, (layer, cfg) in enumerate(self.layers)
        ]

    def check(self, key, report) -> bool:
        return report.cases_checked == self.SAMPLES and report.passed


class MsuBlock:
    """4-bit non-negative tokens through the six linear components of the
    default ``TransformerBlockShape`` on 256x256 tiles.

    Weights are fixed per seed and reused across tokens.  Item: one
    multiply-accumulate.
    """

    name = "msu-block"
    TOKENS = 16
    ALPHA = 0.25  # a power of two, so a / ALPHA is exact

    def __init__(self, seed: int, control: bool = False) -> None:
        self.control = control
        rng = np.random.default_rng(seed)
        self.cfg = crossbar.MsuConfig(input_bits=4)
        shape = energy.TransformerBlockShape()
        self.weights = [
            _pm_one(rng, (c_in, c_out))
            for _, kind, c_in, c_out in shape.components()
            if kind == "fc"
        ]
        widths = sorted({w.shape[0] for w in self.weights})
        sampler = stats.ActivationSampler(seed=seed + 1)  # a stream apart from the weights
        raw = sampler.sample(self.TOKENS * sum(widths)).reshape(self.TOKENS, -1)
        codes = np.clip(np.floor(raw / self.ALPHA), 0, 2**self.cfg.input_bits - 1)
        codes = codes.astype(np.int64)
        splits = np.cumsum(widths)[:-1]
        self.tokens = [dict(zip(widths, np.split(row, splits))) for row in codes]
        self.refs: dict = {}

    def prepare_references(self) -> None:
        for c, w in enumerate(self.weights):
            w_ref = w.astype(np.int64)
            if self.control:
                w_ref[0, 0] = -w_ref[0, 0]
            for t, token in enumerate(self.tokens):
                self.refs[(t, c)] = token[w.shape[0]] @ w_ref

    def round(self, r: int) -> list[Case]:
        t = r % self.TOKENS
        token = self.tokens[t]
        return [
            Case(
                key=(t, c),
                items=w.size,
                run=lambda x=token[w.shape[0]], w=w: crossbar.tiled_vmm(x, w, self.cfg),
            )
            for c, w in enumerate(self.weights)
        ]

    def check(self, key, result) -> bool:
        ref = self.refs[key]
        return result.shape == ref.shape and bool(np.all(result == ref))


class AttnHeads:
    """One attention head per call: encode 16x64 query codes, run the
    two-stage time-based pipeline against K/V codes.

    Codes come from a Gaussian calibrated so that 61.2% of the query trains
    are silent at n=4, k=1.
    Item: one head.
    """

    name = "attn-heads"
    HEADS = 8
    TOKENS = 16
    TARGET_SILENCE = 0.612

    def __init__(self, seed: int, control: bool = False) -> None:
        self.control = control
        self.cfg = spike.SnnLayerConfig(n=4, alpha=1.0, mode=spike.SYMMETRIC, i_max=7, k=1)
        d_k = energy.TransformerBlockShape().d_k
        sigma = stats.calibrate_gaussian_sigma(self.TARGET_SILENCE, self.cfg)
        raw = stats.ActivationSampler(scale=sigma, seed=seed).sample(
            self.HEADS * 3 * self.TOKENS * d_k
        )
        codes = np.clip(np.floor(raw), self.cfg.code_min, self.cfg.code_max).astype(np.int64)
        self.heads = codes.reshape(self.HEADS, 3, self.TOKENS, d_k)
        self.refs: dict = {}

    def prepare_references(self) -> None:
        for h, (q, k, v) in enumerate(self.heads):
            if self.control:
                v = v.copy()
                v[0, 0] += 1
            self.refs[h] = attention.attention_reference(q, k, v, self.cfg)

    def _head(self, h: int):
        q, k, v = self.heads[h]
        cfg = self.cfg
        q_trains = [[spike.encode_integer(int(c), cfg) for c in row] for row in q]
        return attention.attention_pipeline(q_trains, k, v, cfg)

    def round(self, r: int) -> list[Case]:
        return [Case(key=h, items=1, run=lambda h=h: self._head(h)) for h in range(self.HEADS)]

    def check(self, key, result) -> bool:
        ref = self.refs[key]
        return result.shape == ref.shape and bool(np.all(result == ref))


WORKLOADS = {w.name: w for w in (EquivExhaustive, EquivSampled, MsuBlock, AttnHeads)}
