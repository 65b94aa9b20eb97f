"""Spiking-transformer simulator: masked time-to-first-spike encoding,
quantized-layer equivalence, memristive crossbar arithmetic, time-based
attention, and the block-level energy/area model."""

__version__ = "0.1.0"

from .attention import TimeAccState, attention_pipeline, time_based_accumulate
from .conversion import EquivalenceReport, derive_snn_config, verify_equivalence
from .crossbar import (
    CrossbarMacro,
    MsuConfig,
    analog_column_readout,
    bit_serial_vmm,
    map_signed_weights,
    tiled_vmm,
)
from .energy import (
    EnergyParams,
    EnergyReport,
    TransformerBlockShape,
    area_estimate,
    block_energy,
    scenario_compare,
)
from .qnn import QnnLayer, QuantParams, dead_zone_filter, layer_forward, quantize
from .spike import (
    SnnLayerConfig,
    SpikeTrain,
    decode_spike,
    encode_integer,
    fire_analytic,
    fire_simulated,
    integrate,
)
from .stats import ActivationSampler, SpikeHistogram, sparsity_sweep, spike_time_histogram
