"""Memristive synapse unit: binary crossbar readout and bit-serial VMM.

The unit is one device: signed +/-1 weights map onto the two conductance
states ``G_ON`` and ``G_OFF`` of an nT1R array read at ``V_READ``, in
``MACRO_ROWS`` x ``MACRO_COLS`` macros.  Ohm's law and current summation
perform the binary vector-matrix product in one readout, multi-bit inputs
are fed bit-serially and reconstructed by shift-and-add, and a digital
correction recovers the signed integer result from the non-negative
conductance domain.  The device model is ideal: no noise, drift or IR
drop, binary cells only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spike import require_integer

__all__ = [
    "CrossbarMacro",
    "MsuConfig",
    "map_signed_weights",
    "analog_column_readout",
    "bit_serial_vmm",
    "tiled_vmm",
    "reference_readout",
]

# The signed result and 2 * r_cim of every row band stay at or below this.
_INT64_MAX = 2**63 - 1
G_ON = 100e-6  # Siemens, logic 1
G_OFF = 1e-6  # Siemens, logic 0
V_READ = 0.1  # Volts
# One compute-in-memory macro: ``tiled_vmm`` reads row bands this high, and
# ``energy.area_estimate`` counts macros of this size.
MACRO_ROWS = MACRO_COLS = 256
# ``tiled_vmm`` checks and reads its float64 weights in row chunks of at
# most this many bytes, so a chunk is still in the per-core L2 (2-4 MiB)
# when the bit-plane matmul reads it; its ADC passes take at most this much
# bit-plane product too, unless one band's alone is larger.  msu-block's six
# reads in one single-threaded process on a 2-core Xeon (4 MiB L2), median
# MAC/s by budget: 2^16 601M, 2^17 884M, 2^18 1140M, 2^19 1246M, 2^20 1259M,
# 2^21 1004M, 2^22 999M, whole bands 952M; one check and matmul a band 867M.
_CHUNK_BYTES = 2**19


def map_signed_weights(w) -> np.ndarray:
    """Map a +/-1 weight matrix onto the two-state conductance grid.

    -1 -> G_OFF, +1 -> G_ON; the signed matrix is recoverable as
    ``2 * binary - 1``.  Any other entry raises ValueError.
    """
    w = np.asarray(w, dtype=np.float64)
    if not np.all(np.abs(w) == 1.0):
        raise ValueError("weights must be exactly +1 or -1")
    return np.where(w > 0, G_ON, G_OFF)


@dataclass
class CrossbarMacro:
    """One programmed crossbar array of ``G_ON`` and ``G_OFF`` cells."""

    conductance: np.ndarray

    def __post_init__(self) -> None:
        self.conductance = np.asarray(self.conductance, dtype=np.float64)
        if self.conductance.ndim != 2:
            raise ValueError("conductance grid must be 2-D")
        if not np.all((self.conductance == G_ON) | (self.conductance == G_OFF)):
            raise ValueError("conductance entries must be exactly G_ON or G_OFF")

    @classmethod
    def from_signed(cls, w) -> "CrossbarMacro":
        return cls(conductance=map_signed_weights(w))

    @property
    def rows(self) -> int:
        return int(self.conductance.shape[0])

    @property
    def cols(self) -> int:
        return int(self.conductance.shape[1])

    def binary(self) -> np.ndarray:
        """The stored 0/1 grid (1 where the cell is on)."""
        return (self.conductance == G_ON).astype(np.int64)


def _compensated_adc(currents, n_active) -> np.ndarray:
    """ADC codes after subtracting the off-cell baseline of ``n_active``
    driven rows: exact on-cell counts, clipped to ``[0, n_active]``."""
    counts = currents - n_active * V_READ * G_OFF
    counts /= V_READ * (G_ON - G_OFF)
    np.rint(counts, out=counts)
    np.maximum(counts, 0, out=counts)
    return np.minimum(counts, n_active, out=counts).astype(np.int64)


def analog_column_readout(
    active_rows, macro: CrossbarMacro, compensate_leakage: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Column currents and ADC codes for one binary input vector.

    Current per column sums ``V_READ * G`` over the active rows.  The plain
    ADC model rounds ``I / (G_ON * V_READ)`` and saturates at the row count,
    which is exact only while the aggregate off-cell leakage stays below
    half an LSB.  With ``compensate_leakage`` the digital periphery first
    subtracts the known off-cell baseline for the active-row count (the
    same count the signed correction needs anyway), making the returned
    codes exact on-cell popcounts at any array size.
    """
    active = np.asarray(active_rows)
    if active.shape != (macro.rows,):
        raise ValueError(f"expected {macro.rows} word-line bits, got shape {active.shape}")
    if not np.all((active == 0) | (active == 1)):
        raise ValueError("word-line inputs must be 0 or 1")
    active = active.astype(np.float64)
    currents = V_READ * (active @ macro.conductance)
    if compensate_leakage:
        codes = _compensated_adc(currents, float(active.sum()))
    else:
        lsb = G_ON * V_READ  # the plain ADC step: one on-cell's current
        codes = np.clip(np.rint(currents / lsb), 0, macro.rows).astype(np.int64)
    return currents, codes


def _check_bit_serial_inputs(inputs: np.ndarray, input_bits: int | None) -> int:
    """Refuse inputs that are not non-negative integers within
    ``input_bits``; return the bit length of the largest (0 for none)."""
    if inputs.dtype.kind not in "iu":
        raise ValueError("bit-serial inputs must be integers")
    if inputs.size == 0:
        return 0
    if inputs.min() < 0:
        raise ValueError("bit-serial inputs must be non-negative")
    width = int(inputs.max()).bit_length()
    if input_bits is not None and width > input_bits:
        raise ValueError(f"inputs exceed the {input_bits}-bit budget")
    return width


def bit_serial_vmm(inputs, macro: CrossbarMacro, input_bits: int | None = None) -> np.ndarray:
    """Exact integer VMM of non-negative inputs against the stored 0/1 grid.

    Inputs are fed LSB-first as bit planes; each plane is one analog
    readout, and the digital accumulator shift-adds the per-plane codes.
    Planes above the largest input's bit length read zeros and are skipped.
    """
    inputs = np.asarray(inputs)
    if inputs.shape != (macro.rows,):
        raise ValueError(f"expected {macro.rows} inputs, got shape {inputs.shape}")
    width = _check_bit_serial_inputs(inputs, input_bits)
    planes = max(1, width) if input_bits is None else min(input_bits, max(1, width))
    acc = np.zeros(macro.cols, dtype=np.int64)
    for p in range(planes):
        plane = (inputs >> p) & 1
        _, codes = analog_column_readout(plane, macro, compensate_leakage=True)
        acc += codes << p
    return acc


@dataclass(frozen=True)
class MsuConfig:
    """Input precision of the synapse unit: the bit planes each input is fed
    as.  Its reads compensate the off-cell leakage, so it uses no plain ADC
    step."""

    input_bits: int = 4

    def __post_init__(self) -> None:
        require_integer("input_bits", self.input_bits)
        if self.input_bits < 1:
            raise ValueError("input_bits must be >= 1")


def tiled_vmm(inputs, w_signed, cfg: MsuConfig) -> np.ndarray:
    """Exact signed integer VMM of arbitrary dimensions over a grid of macro
    tiles, returned as int64.

    Each row band (``MACRO_ROWS`` rows) is walked in row chunks of at most
    ``_CHUNK_BYTES`` of float64 weights: each chunk is checked to be exactly
    +/-1 and then read by one matmul of every input bit plane against every
    column while it is still in cache, adding into the band's bit-plane
    product.  Once the products of a group of bands exist (every band of
    the call, unless their products pass ``_CHUNK_BYTES``), one
    leakage-compensated ADC step of ``analog_column_readout`` runs over all
    of them.  Column tiles change no number: a column's on-cell count
    depends only on its own cells and the band's rows.  Codes are
    shift-added over planes and bands and corrected with the bands' input
    sum in integers, so the result ``2 * r_cim - sum(inputs)`` equals the
    monolithic product exactly in any traversal order; scaling it is the
    consuming layer's job.  Inputs whose signed result or doubled band sum
    could leave int64 raise ValueError.  ``CrossbarMacro`` with
    ``bit_serial_vmm``, one per tile, is the device oracle of this function.
    """
    inputs = np.asarray(inputs)
    w_signed = np.asarray(w_signed)
    if w_signed.ndim != 2 or inputs.shape != (w_signed.shape[0],):
        raise ValueError(
            f"input length {inputs.shape} does not match weight rows {w_signed.shape}"
        )
    _check_bit_serial_inputs(inputs, cfg.input_bits)
    c_in, c_out = w_signed.shape
    # A band adds 2 * r - s with 0 <= r <= s, its input sum: a doubled band
    # sum and the total within int64 bound every value an accumulator of
    # 2 * r_cim takes, and so every int64 value taken below.
    values = inputs.tolist()
    band_sums = [sum(values[r0 : r0 + MACRO_ROWS]) for r0 in range(0, c_in, MACRO_ROWS)]
    if 2 * max(band_sums, default=0) > _INT64_MAX or sum(band_sums) > _INT64_MAX:
        raise ValueError(
            f"inputs sum to {sum(band_sums)}, up to {max(band_sums)} in one row band: "
            "the signed result or 2 * r_cim could leave int64"
        )
    # integer inputs hold at most 64 bits; higher planes are all zero
    shifts = np.arange(min(cfg.input_bits, 64))[:, None]
    planes = ((inputs.astype(np.uint64) >> shifts.astype(np.uint64)) & 1).astype(np.float64)
    starts = range(0, c_in, MACRO_ROWS)
    # active rows of every (band, plane): integers, as are the on-cell
    # counts (n_active + bits @ band) / 2, all below 2^53
    n_active = np.add.reduceat(planes, starts, axis=1).T[:, :, None]
    # weight rows per chunk and bands per ADC pass within _CHUNK_BYTES
    chunk_rows = min(MACRO_ROWS, max(1, _CHUNK_BYTES // (8 * max(c_out, 1))))
    group = max(1, _CHUNK_BYTES // (8 * len(shifts) * max(c_out, 1)))
    signed = np.zeros(c_out, dtype=np.int64)
    for g0 in range(0, len(starts), group):
        n = n_active[g0 : g0 + group]
        products = np.empty((len(n), len(shifts), c_out))
        for product, r0 in zip(products, starts[g0 : g0 + group]):
            r1 = min(r0 + MACRO_ROWS, c_in)
            for c0 in range(r0, r1, chunk_rows):
                chunk = np.asarray(w_signed[c0 : min(c0 + chunk_rows, r1)], dtype=np.float64)
                if not ((chunk == 1.0) | (chunk == -1.0)).all():
                    raise ValueError("weights must be exactly +1 or -1")
                bits = planes[:, c0 : c0 + len(chunk)]
                if c0 == r0:
                    np.matmul(bits, chunk, out=product)
                else:
                    product += bits @ chunk
        # in place: on-cell counts (n + bits @ band) / 2, then column currents
        products += n
        products /= 2
        products *= G_ON - G_OFF
        products += n * G_OFF
        products *= V_READ
        codes = _compensated_adc(products, n)
        # r_cim <= s, the group's input sum, so r - (s - r) stays in int64
        r_cim = (codes << shifts).sum(axis=(0, 1))
        signed += r_cim - (sum(band_sums[g0 : g0 + group]) - r_cim)
    return signed


# Reconstructed word-line pattern consistent with the documented three-row
# read-out example: two active rows, column currents (10.1, 0.2, 10.1, 20.0)
# microamperes, ADC codes (1, 0, 1, 2).
REFERENCE_GRID = np.array(
    [
        [1, 0, 1, 1],
        [0, 0, 0, 1],
        [1, 1, 0, 0],
    ]
)
REFERENCE_ACTIVE_ROWS = np.array([1, 1, 0])
REFERENCE_CURRENTS_UA = (10.1, 0.2, 10.1, 20.0)
REFERENCE_CODES = (1, 0, 1, 2)


def reference_readout() -> dict:
    """Replay the documented three-row read-out on the reconstructed grid."""
    macro = CrossbarMacro.from_signed(2 * REFERENCE_GRID - 1)
    currents, codes = analog_column_readout(REFERENCE_ACTIVE_ROWS, macro)
    return {
        "grid": REFERENCE_GRID.tolist(),
        "active_rows": REFERENCE_ACTIVE_ROWS.tolist(),
        "v_read_V": V_READ,
        "g_on_uS": G_ON * 1e6,
        "g_off_uS": G_OFF * 1e6,
        "currents_uA": [float(c) * 1e6 for c in currents],
        "adc_codes": codes.tolist(),
    }
