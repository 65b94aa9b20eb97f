"""Analytical energy and area model for the spiking transformer block.

Energy decomposes into computation (membrane accumulation, decay,
threshold compares) and data movement (inter-core spike transfer, SRAM
weight/threshold reads, KV-cache traffic) on a spatial dataflow
architecture.  Four operating modes are modeled per block:

- ``baseline``   digital TTFS, dense firing
- ``mttfs``      masked encoding, the most frequent code goes silent
- ``deadzone``   mask widened to a radius-k dead zone
- ``msu``        crossbar-backed linear layers plus time-based attention

Unit energies default to measurements on a commercial 22nm process plus a
published crossbar macro; the handful of unpublished per-access costs are
derived from the per-bit SRAM read cost and stamped into every report so
reproduction assumptions stay explicit.  All internal math is in joules;
inputs are picojoules (femtojoules for the in-memory MAC).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

__all__ = [
    "EnergyParams",
    "WorkloadShape",
    "EnergyReport",
    "TransformerBlockShape",
    "AreaEstimate",
    "component_energy",
    "block_energy",
    "scenario_compare",
    "area_estimate",
    "DEFAULT_MODE_RATES",
    "SOTA_SCENARIOS",
]

PJ = 1e-12
FJ = 1e-15

CATEGORIES = (
    "spike_movement",
    "weight_access",
    "leakage",
    "digital_compute",
    "analog_compute",
    "kv_traffic",
    "thresholding",
)

MODES = ("baseline", "mttfs", "deadzone", "msu")

# Uniform per-component spike-rate defaults for the four block modes.
# These are the published aggregate rates applied uniformly, which is an
# approximation; reproduction tolerances account for it.
DEFAULT_MODE_RATES = {
    "baseline": 0.0407,
    "mttfs": 0.0277,
    "deadzone": 0.0165,
    "msu": 0.0165,
}


@dataclass(frozen=True)
class EnergyParams:
    """Unit energies in picojoules (in-memory MAC in femtojoules).

    Fields left as None are derived: per-access threshold/KV costs price
    the datum's bit width at the per-bit SRAM read cost; the input-sum,
    mapping, encoding and decay costs reuse the accumulate/MAC constants.
    Every report stamps the resolved set.
    """

    mac_int4_pj: float = 0.0848
    mac_mixed_pj: float = 0.0663  # 1-bit input x 4-bit weight
    acc_4b_pj: float = 0.0502
    acc_1b_pj: float = 0.0429
    cmp_pj: float = 0.0502  # threshold compare + membrane update
    leak_pj: float = 0.002  # static leakage per cycle
    weight_read_pj_per_bit: float = 0.0985
    spike_move_pj_per_bit: float = 0.18
    cim_fj_per_bit: float = 2.164
    weight_bits: int = 1  # binary weights
    threshold_read_pj: float | None = None
    kv_read_pj: float | None = None
    kv_write_pj: float | None = None
    sum_pj: float | None = None
    map_pj: float | None = None
    encoding_pj: float | None = None
    decay_pj: float | None = None

    def resolved(self, time_steps: int) -> dict[str, float]:
        """Concrete pJ values for a window of ``time_steps`` (activation
        width = log2 T bits)."""
        act_bits = max(1, int(round(math.log2(time_steps))))
        read_bit = self.weight_read_pj_per_bit
        return {
            "mac_int4_pj": self.mac_int4_pj,
            "mac_mixed_pj": self.mac_mixed_pj,
            "acc_4b_pj": self.acc_4b_pj,
            "acc_1b_pj": self.acc_1b_pj,
            "cmp_pj": self.cmp_pj,
            "leak_pj": self.leak_pj,
            "weight_read_pj": read_bit * self.weight_bits,
            "spike_move_pj": self.spike_move_pj_per_bit,  # one bit per spike
            "cim_pj": self.cim_fj_per_bit * FJ / PJ,
            "threshold_read_pj": (
                self.threshold_read_pj if self.threshold_read_pj is not None else read_bit * act_bits
            ),
            "kv_read_pj": self.kv_read_pj if self.kv_read_pj is not None else read_bit * act_bits,
            "kv_write_pj": self.kv_write_pj if self.kv_write_pj is not None else read_bit * act_bits,
            "sum_pj": self.sum_pj if self.sum_pj is not None else self.acc_1b_pj,
            "map_pj": self.map_pj if self.map_pj is not None else self.mac_int4_pj + self.acc_4b_pj,
            "encoding_pj": self.encoding_pj if self.encoding_pj is not None else self.acc_4b_pj,
            "decay_pj": self.decay_pj if self.decay_pj is not None else self.acc_4b_pj,
        }


@dataclass(frozen=True)
class WorkloadShape:
    """Tensor dimensions and spike ratio feeding the energy equations."""

    b: int = 64
    s: int = 128
    c_i: int = 768
    c_o: int = 768
    d_k: int = 64
    h: int = 12
    t: int = 16
    s_r: float = 0.0407

    def __post_init__(self) -> None:
        for name in ("b", "s", "c_i", "c_o", "d_k", "h", "t"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 <= self.s_r <= 1.0:
            raise ValueError(f"spike ratio must lie in [0, 1], got {self.s_r}")

    @property
    def n_fc_out(self) -> int:
        return self.b * self.s * self.c_o

    @property
    def n_qkv_out(self) -> int:
        return self.b * self.h * self.s**2


@dataclass
class EnergyReport:
    """Per-category joules plus the assumption set that produced them."""

    label: str
    categories: dict[str, float]
    assumptions: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        full = {name: 0.0 for name in CATEGORIES}
        full.update(self.categories)
        self.categories = full

    @property
    def total_j(self) -> float:
        return math.fsum(self.categories.values())

    @property
    def total_mj(self) -> float:
        return self.total_j * 1e3

    @property
    def percentages(self) -> dict[str, float]:
        total = self.total_j
        if total == 0.0:
            return {name: 0.0 for name in self.categories}
        return {name: 100.0 * v / total for name, v in self.categories.items()}

    @classmethod
    def merged(cls, label: str, reports: list["EnergyReport"]) -> "EnergyReport":
        cats = {name: math.fsum(r.categories[name] for r in reports) for name in CATEGORIES}
        assumptions: dict = {}
        for r in reports:
            assumptions.setdefault("unit_energies_pj", r.assumptions.get("unit_energies_pj"))
        assumptions["components"] = {r.label: r.total_j for r in reports}
        return cls(label=label, categories=cats, assumptions=assumptions)

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "total_mj": self.total_mj,
            "categories_j": dict(self.categories),
            "percentages": self.percentages,
            "assumptions": self.assumptions,
        }


# Mode -> pricing.  The three digital TTFS modes share one pricing and
# differ only in their spike rates.
_PRICING = {
    "baseline": "digital",
    "mttfs": "digital",
    "deadzone": "digital",
    "msu": "msu",
    "rate_coded": "rate_coded",
}

# Per-spike compute cost inside the spike-processing bracket, keyed by
# (component kind, pricing): the resolved unit energies summed per
# arriving spike.
_SPIKE_COMPUTE = {
    # temporal model: decay of the kernel plus a mixed-precision MAC
    ("fc", "digital"): ("decay_pj", "mac_mixed_pj"),
    ("qkv", "digital"): ("encoding_pj", "mac_mixed_pj"),
    # rate-coded comparison pricing: one accumulate per arriving spike
    ("fc", "rate_coded"): ("acc_4b_pj",),
    ("qkv", "rate_coded"): ("acc_4b_pj",),
    # the crossbar does the MAC in the analog domain (see component_energy)
    ("fc", "msu"): (),
    # time-based accumulation: weights of arriving spikes are summed per
    # step and scaled once per step, so a spike costs one accumulate
    ("qkv", "msu"): ("acc_4b_pj",),
}


def component_energy(
    kind: str, mode: str, shape: WorkloadShape, params: EnergyParams = EnergyParams()
) -> EnergyReport:
    """Energy of one block component of ``kind`` ("fc" or "qkv") in ``mode``.

    An FC layer has B*S*C_o outputs that each integrate C_i inputs over T
    steps; attention scores over the KV cache have B*h*S^2 outputs with a
    d_k inner dimension.  Spike-processing terms (compute, movement, weight
    or KV reads) scale with the spike ratio; leakage and thresholding do
    not.  Under ``msu`` an FC layer keeps its weights in the crossbar, so
    weight access is zero by construction and its compute is analog, and
    attention pays a per-step encoding + MAC for the time-based scaling.
    The digital and rate-coded pricings charge each FC output one KV write
    (``n_out * kv_write_pj``); ``msu`` charges an FC layer none, so its
    ``kv_traffic`` is attention's KV reads alone, and the golden
    ``block_energy_msu.csv`` carries this.
    """
    if mode not in _PRICING:
        raise ValueError(f"unknown mode {mode!r}; expected one of {sorted(_PRICING)}")
    if kind not in ("fc", "qkv"):
        raise ValueError(f"unknown component kind {kind!r}; expected 'fc' or 'qkv'")
    pricing = _PRICING[mode]
    r = params.resolved(shape.t)
    if kind == "fc":
        n_out, per_in = shape.n_fc_out, shape.c_i * shape.t
    else:
        n_out, per_in = shape.n_qkv_out, shape.d_k * shape.t
    spikes = n_out * per_in * shape.s_r  # arriving spikes over all (input, step) slots
    digital = spikes * sum(r[name] for name in _SPIKE_COMPUTE[kind, pricing])
    cats = {
        "spike_movement": spikes * r["spike_move_pj"] * PJ,
        "leakage": n_out * per_in * r["leak_pj"] * PJ,
        "thresholding": n_out * shape.t * (r["cmp_pj"] + r["threshold_read_pj"]) * PJ,
    }
    if kind == "qkv":
        if pricing == "msu":
            digital += n_out * shape.t * (r["encoding_pj"] + r["mac_int4_pj"])
        cats["kv_traffic"] = spikes * r["kv_read_pj"] * PJ
    elif pricing == "msu":
        # input-sum staging, log2(T) bit-plane readouts with shift-and-add,
        # and the signed-recovery mapping
        if (shape.t & (shape.t - 1)) != 0:
            raise ValueError(f"time window must be a power of two, got {shape.t}")
        bits = int(math.log2(shape.t))
        analog = (shape.b * shape.s) * (
            shape.t * shape.c_i * r["sum_pj"]
            + shape.c_o * (bits * (shape.c_i * r["cim_pj"] + r["acc_4b_pj"]) + r["map_pj"])
        )
        cats["analog_compute"] = analog * PJ
    else:
        cats["weight_access"] = spikes * r["weight_read_pj"] * PJ
        cats["kv_traffic"] = n_out * r["kv_write_pj"] * PJ
    cats["digital_compute"] = digital * PJ
    return EnergyReport(
        label=f"{kind}_{mode}",
        categories=cats,
        assumptions={"shape": dict(vars(shape)), "unit_energies_pj": dict(r)},
    )


@dataclass(frozen=True)
class TransformerBlockShape:
    """One encoder block: four projections, two FFN layers, two score ops."""

    batch: int = 64
    seq: int = 128
    hidden: int = 768
    ffn_dim: int = 3072
    heads: int = 12
    time_steps: int = 16

    @property
    def d_k(self) -> int:
        return self.hidden // self.heads

    def components(self) -> tuple[tuple[str, str, int, int], ...]:
        h = self.hidden
        return (
            ("q_proj", "fc", h, h),
            ("k_proj", "fc", h, h),
            ("v_proj", "fc", h, h),
            ("attn_qk", "qkv", self.d_k, self.d_k),
            ("attn_sv", "qkv", self.d_k, self.d_k),
            ("out_proj", "fc", h, h),
            ("ffn_in", "fc", h, self.ffn_dim),
            ("ffn_out", "fc", self.ffn_dim, h),
        )

    def workload(self, c_i: int, c_o: int, s_r: float) -> WorkloadShape:
        return WorkloadShape(
            b=self.batch,
            s=self.seq,
            c_i=c_i,
            c_o=c_o,
            d_k=self.d_k,
            h=self.heads,
            t=self.time_steps,
            s_r=s_r,
        )


def block_energy(
    block: TransformerBlockShape,
    mode: str,
    rates: float | dict[str, float] | None = None,
    params: EnergyParams = EnergyParams(),
) -> EnergyReport:
    """Total block energy for one operating mode.

    ``rates`` may be a single ratio applied to every component, a
    per-component dict (every component must be present), or None for the
    mode's default aggregate rate.
    """
    if mode not in _PRICING:
        raise ValueError(f"unknown mode {mode!r}; expected one of {sorted(_PRICING)}")
    components = block.components()
    if rates is None:
        rates = DEFAULT_MODE_RATES.get(mode, DEFAULT_MODE_RATES["baseline"])
    if isinstance(rates, (int, float)):
        rates = {name: float(rates) for name, _, _, _ in components}
    missing = [name for name, _, _, _ in components if name not in rates]
    if missing:
        raise ValueError(f"missing spike rate for components: {missing}")

    reports = []
    for name, kind, c_i, c_o in components:
        shape = block.workload(c_i, c_o, rates[name])
        rep = component_energy(kind, mode, shape, params)
        reports.append(EnergyReport(label=name, categories=rep.categories, assumptions=rep.assumptions))
    merged = EnergyReport.merged(f"block_{mode}", reports)
    merged.assumptions["mode"] = mode
    merged.assumptions["rates"] = dict(rates)
    merged.assumptions["block"] = dict(vars(block))
    return merged


# (name, time steps, average spike rate, pricing mode) for the published
# spiking-transformer comparison points.
SOTA_SCENARIOS = (
    ("Otters", 15, 0.0514, "rate_coded"),
    ("Sorbet", 16, 0.13, "rate_coded"),
    ("SpikingBERT", 16, 0.25, "rate_coded"),
    ("SpikingLM", 4, 0.33, "rate_coded"),
)

SHARE_GROUPS = {
    "compute": ("digital_compute", "analog_compute", "thresholding"),
    "spike_movement": ("spike_movement",),
    "weight_access": ("weight_access", "kv_traffic"),
    "other": ("leakage",),
}


@dataclass
class ScenarioBreakdown:
    name: str
    time_steps: int
    s_r: float
    mode: str
    total_mj: float
    shares: dict[str, float]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "time_steps": self.time_steps,
            "s_r": self.s_r,
            "mode": self.mode,
            "total_mj": self.total_mj,
            "shares_pct": self.shares,
        }


def scenario_compare(
    scenarios=SOTA_SCENARIOS,
    block: TransformerBlockShape = TransformerBlockShape(),
    params: EnergyParams = EnergyParams(),
) -> list[ScenarioBreakdown]:
    """Percentage breakdown {compute, spike movement, weight access, other}
    per (name, T, s_r, mode) scenario at the block scale."""
    scenarios = list(scenarios)
    if not scenarios:
        raise ValueError("need at least one scenario")
    rows = []
    for name, t_steps, s_r, mode in scenarios:
        scen_block = replace(block, time_steps=int(t_steps))
        report = block_energy(scen_block, mode, rates=float(s_r), params=params)
        total = report.total_j
        shares = {
            group: (100.0 * math.fsum(report.categories[c] for c in cats) / total if total else 0.0)
            for group, cats in SHARE_GROUPS.items()
        }
        rows.append(
            ScenarioBreakdown(
                name=name,
                time_steps=int(t_steps),
                s_r=float(s_r),
                mode=mode,
                total_mj=report.total_mj,
                shares=shares,
            )
        )
    return rows


@dataclass
class AreaEstimate:
    macros_per_block: int
    block_mm2: float
    model_mm2: float
    array_mm2_per_macro: float
    assumptions: dict

    def to_dict(self) -> dict:
        return {
            "macros_per_block": self.macros_per_block,
            "block_mm2": self.block_mm2,
            "model_mm2": self.model_mm2,
            "array_mm2_per_macro": self.array_mm2_per_macro,
            "assumptions": self.assumptions,
        }


def area_estimate(
    block: TransformerBlockShape = TransformerBlockShape(),
    cell_um2: float = 0.59,
    macro_rows: int = 256,
    macro_cols: int = 256,
    macro_area_mm2: float = 0.072,
    routing_factor: float = 1.2,
    blocks_per_model: int = 12,
) -> AreaEstimate:
    """Macro count and silicon area for the block's +/-1 weight matrices.

    Each weight matrix tiles into ceil(rows/256) * ceil(cols/256) macros;
    the macro footprint includes periphery and the analog keep-out, so it
    exceeds the raw cell area.  The routing factor covers interconnect
    overhead outside the macros.
    """
    if macro_rows < 1 or macro_cols < 1 or macro_area_mm2 <= 0:
        raise ValueError("macro dimensions and area must be positive")
    matrices = [(c_i, c_o) for _, kind, c_i, c_o in block.components() if kind == "fc"]
    macros = sum(
        math.ceil(rows / macro_rows) * math.ceil(cols / macro_cols) for rows, cols in matrices
    )
    block_mm2 = macros * macro_area_mm2 * routing_factor
    return AreaEstimate(
        macros_per_block=macros,
        block_mm2=block_mm2,
        model_mm2=block_mm2 * blocks_per_model,
        array_mm2_per_macro=macro_rows * macro_cols * cell_um2 * 1e-6,
        assumptions={
            "cell_um2": cell_um2,
            "macro_rows": macro_rows,
            "macro_cols": macro_cols,
            "macro_area_mm2": macro_area_mm2,
            "routing_factor": routing_factor,
            "blocks_per_model": blocks_per_model,
            "weight_matrices": matrices,
        },
    )
