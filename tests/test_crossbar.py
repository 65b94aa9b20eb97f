"""Crossbar mapping, analog read-out, bit-serial VMM and tiling."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matterhorn import crossbar
from matterhorn.crossbar import (
    G_OFF,
    G_ON,
    MACRO_ROWS,
    V_READ,
    CrossbarMacro,
    MsuConfig,
    REFERENCE_CODES,
    REFERENCE_CURRENTS_UA,
    analog_column_readout,
    bit_serial_vmm,
    map_signed_weights,
    reference_readout,
    tiled_vmm,
)


# --- weight mapping -----------------------------------------------------


def test_map_signed_weights_definition():
    grid = map_signed_weights(np.array([[1.0, -1.0]]))
    assert grid.tolist() == [[G_ON, G_OFF]]
    assert np.all(map_signed_weights(-np.ones((2, 3))) == G_OFF)


def test_map_signed_weights_round_trip():
    rng = np.random.default_rng(0)
    w = rng.choice([-1.0, 1.0], (3, 4))
    macro = CrossbarMacro.from_signed(w)
    assert np.array_equal(2 * macro.binary() - 1, w)


def test_map_rejects_non_binary_weights():
    with pytest.raises(ValueError):
        map_signed_weights(np.array([[0.5, 1.0]]))


# --- analog read-out ----------------------------------------------------


def test_reference_readout_currents_and_codes():
    doc = reference_readout()
    assert doc["currents_uA"] == pytest.approx(list(REFERENCE_CURRENTS_UA), rel=1e-12)
    assert tuple(doc["adc_codes"]) == REFERENCE_CODES


def test_readout_no_active_rows():
    macro = CrossbarMacro.from_signed(np.ones((3, 4)))
    currents, codes = analog_column_readout(np.zeros(3, dtype=int), macro)
    assert np.all(currents == 0.0) and np.all(codes == 0)


def test_readout_all_on_full_drive():
    macro = CrossbarMacro.from_signed(np.ones((4, 2)))
    _, codes = analog_column_readout(np.ones(4, dtype=int), macro)
    assert codes.tolist() == [4, 4]


def test_readout_shape_error():
    macro = CrossbarMacro.from_signed(np.ones((3, 4)))
    with pytest.raises(ValueError):
        analog_column_readout(np.ones(2, dtype=int), macro)


def test_raw_adc_exact_while_leakage_below_half_lsb():
    # off-cell leakage: active * G_OFF * V_READ < lsb/2  <=>  active <= 50
    assert 50 * G_OFF * V_READ < (G_ON * V_READ) / 2
    assert 51 * G_OFF * V_READ > (G_ON * V_READ) / 2
    rng = np.random.default_rng(1)
    w = rng.choice([-1.0, 1.0], (50, 8))
    macro = CrossbarMacro.from_signed(w)
    binary = macro.binary()
    for _ in range(20):
        active = rng.integers(0, 2, 50)
        _, codes = analog_column_readout(active, macro)
        assert np.array_equal(codes, active @ binary)


def test_compensated_adc_exact_at_full_array_size():
    rng = np.random.default_rng(2)
    w = rng.choice([-1.0, 1.0], (256, 16))
    macro = CrossbarMacro.from_signed(w)
    binary = macro.binary()
    active = np.ones(256, dtype=int)  # worst-case leakage: every row driven
    raw_currents, raw_codes = analog_column_readout(active, macro)
    _, codes = analog_column_readout(active, macro, compensate_leakage=True)
    assert np.array_equal(codes, active @ binary)
    assert not np.array_equal(raw_codes, codes)  # raw rounding drifts here


def test_compensated_adc_reads_every_on_cell_count_of_a_tile():
    # column r holds r on-cells, in its first r rows; driving the first n
    # rows gives min(r, n) on-cells, so every 0 <= r <= n <= MACRO_ROWS is read
    r = np.arange(MACRO_ROWS + 1)
    w = np.where(np.arange(MACRO_ROWS)[:, None] < r, 1.0, -1.0)
    macro = CrossbarMacro.from_signed(w)
    for n in range(MACRO_ROWS + 1):
        x = (np.arange(MACRO_ROWS) < n).astype(np.int64)
        want = np.minimum(r, n)
        _, codes = analog_column_readout(x, macro, compensate_leakage=True)
        assert np.array_equal(codes, want), n
        assert np.array_equal(tiled_vmm(x, w, MsuConfig(input_bits=1)), 2 * want - n), n


# --- bit-serial reconstruction ------------------------------------------


def test_bit_serial_zero_inputs():
    macro = CrossbarMacro.from_signed(np.ones((4, 3)))
    assert bit_serial_vmm(np.zeros(4, dtype=int), macro).tolist() == [0, 0, 0]


def test_bit_serial_single_plane_equals_readout():
    rng = np.random.default_rng(3)
    w = rng.choice([-1.0, 1.0], (6, 5))
    macro = CrossbarMacro.from_signed(w)
    bits = rng.integers(0, 2, 6)
    _, codes = analog_column_readout(bits, macro, compensate_leakage=True)
    assert np.array_equal(bit_serial_vmm(bits, macro, input_bits=1), codes)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 24),
    cols=st.integers(1, 24),
    bits=st.integers(1, 6),
)
def test_bit_serial_matches_integer_vmm(seed, rows, cols, bits):
    rng = np.random.default_rng(seed)
    w = rng.choice([-1.0, 1.0], (rows, cols))
    macro = CrossbarMacro.from_signed(w)
    x = rng.integers(0, 2**bits, rows)
    got = bit_serial_vmm(x, macro, input_bits=bits)
    assert np.array_equal(got, x @ macro.binary())


def test_bit_serial_range_error():
    macro = CrossbarMacro.from_signed(np.ones((4, 2)))
    with pytest.raises(ValueError):
        bit_serial_vmm(np.array([16, 0, 0, 0]), macro, input_bits=4)
    with pytest.raises(ValueError):
        bit_serial_vmm(np.array([-1, 0, 0, 0]), macro)


def test_bit_serial_of_an_empty_input():
    # no input has a bit length; tiled_vmm gives zeros here too
    macro = CrossbarMacro.from_signed(np.ones((0, 3)))
    assert bit_serial_vmm(np.zeros(0, dtype=np.int64), macro).tolist() == [0, 0, 0]


@pytest.mark.parametrize(
    "x, input_bits, planes",
    [([3, 1], None, 2), ([1, 1], 1, 1), ([3, 1], 2, 2), ([3, 1], 10**4, 2), ([0, 0], 10**4, 1)],
)
def test_bit_serial_reads_no_plane_above_the_inputs(monkeypatch, x, input_bits, planes):
    # every plane above the inputs' bit length reads zeros; 10^4 planes once took 0.19 s
    macro = CrossbarMacro.from_signed(np.array([[1.0, -1.0], [1.0, 1.0]]))
    x = np.array(x)
    reads = []
    readout = crossbar.analog_column_readout

    def counting(*args, **kwargs):
        reads.append(args[0])
        return readout(*args, **kwargs)

    monkeypatch.setattr(crossbar, "analog_column_readout", counting)
    assert np.array_equal(bit_serial_vmm(x, macro, input_bits), x @ macro.binary())
    assert len(reads) == planes


# --- tiling -------------------------------------------------------------


def test_tiled_matches_untiled_when_smaller_than_a_macro():
    rng = np.random.default_rng(4)
    w = rng.choice([-1.0, 1.0], (12, 9))
    x = rng.integers(0, 16, 12)
    got = tiled_vmm(x, w, MsuConfig())
    assert np.array_equal(got, x @ w.astype(np.int64))


def test_tiled_768x768_nine_macros():
    rng = np.random.default_rng(5)
    w = rng.choice([-1.0, 1.0], (768, 768))
    x = rng.integers(0, 16, 768)
    got = tiled_vmm(x, w, MsuConfig())
    assert got.dtype == np.int64 and np.array_equal(got, x @ w.astype(np.int64))


def test_tiled_ragged_dimensions():
    rng = np.random.default_rng(6)
    w = rng.choice([-1.0, 1.0], (300, 270))  # does not divide the tile size
    x = rng.integers(0, 16, 300)
    assert np.array_equal(tiled_vmm(x, w, MsuConfig()), x @ w.astype(np.int64))


def tile_oracle(x, w, cfg: MsuConfig, tile_cols: int) -> np.ndarray:
    """The device oracle: one programmed macro and one bit-serial read per
    ``MACRO_ROWS`` x ``tile_cols`` tile, visited column-tile-major (the
    reverse of the row-band order)."""
    c_in, c_out = w.shape
    acc = np.zeros(c_out, dtype=np.int64)
    for c0 in range(0, c_out, tile_cols):
        for r0 in range(0, c_in, MACRO_ROWS):
            r1, c1 = min(r0 + MACRO_ROWS, c_in), min(c0 + tile_cols, c_out)
            macro = CrossbarMacro.from_signed(w[r0:r1, c0:c1])
            r_cim = bit_serial_vmm(x[r0:r1], macro, cfg.input_bits)
            acc[c0:c1] += 2 * r_cim - int(x[r0:r1].sum())
    return acc


def test_tiling_traversal_order_is_irrelevant():
    # column-tile-major accumulation over three row bands gives the same integers
    rng = np.random.default_rng(7)
    w = rng.choice([-1.0, 1.0], (600, 30))
    x = rng.integers(0, 16, 600)
    cfg = MsuConfig()
    assert np.array_equal(tile_oracle(x, w, cfg, tile_cols=8), tiled_vmm(x, w, cfg))


DTYPE_MAX = {np.int8: 2**7, np.uint8: 2**8, np.int32: 2**31, np.int64: 2**63, np.uint64: 2**64}


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    c_in=st.integers(1, 3 * MACRO_ROWS),  # 768 rows of 52-bit inputs keep every sum inside int64
    c_out=st.integers(1, 40),
    tile_cols=st.integers(1, 40),
    bits=st.integers(1, 52),
    dtype=st.sampled_from(list(DTYPE_MAX)),
)
def test_tiled_vmm_matches_tile_oracle(seed, c_in, c_out, tile_cols, bits, dtype):
    rng = np.random.default_rng(seed)
    w = rng.choice([-1.0, 1.0], (c_in, c_out))
    x = rng.integers(0, min(2**bits, DTYPE_MAX[dtype]), c_in, dtype=np.uint64).astype(dtype)
    cfg = MsuConfig(input_bits=bits)
    got = tiled_vmm(x, w, cfg)
    assert np.array_equal(got, tile_oracle(x, w, cfg, tile_cols))
    assert np.array_equal(got, x.astype(np.int64) @ w.astype(np.int64))


@pytest.mark.parametrize("bad", [0.0, 0.5, np.nan, np.inf])
def test_tiled_rejects_bad_weight_in_last_band(bad):
    w = np.ones((2 * MACRO_ROWS + 2, 7))
    w[-1, -1] = bad  # rows 512-513 form the last band
    with pytest.raises(ValueError, match="weights must be exactly"):
        tiled_vmm(np.ones(len(w), dtype=np.int64), w, MsuConfig())


@pytest.mark.parametrize(
    "x, message",
    [
        (np.array([1, -1, 0]), "must be non-negative"),
        (np.array([1, 16, 0]), "exceed the 4-bit budget"),
        (np.array([1.0, 2.0, 0.0]), "must be integers"),
    ],
)
def test_tiled_rejects_bad_inputs(x, message):
    with pytest.raises(ValueError, match=message):
        tiled_vmm(x, np.ones((3, 2)), MsuConfig(input_bits=4))


def one_a_band(value: int) -> list[int]:
    """``value`` at the first row of each of three row bands, 0 elsewhere."""
    return ([value] + [0] * (MACRO_ROWS - 1)) * 3


@pytest.mark.parametrize(
    "x",
    [
        [2**61, 2**61 - 1],  # 2 * r_cim = 2^63 - 2
        one_a_band(2**61),  # 3 * 2^61 in total
        [2**62 - 1],
    ],
)
def test_tiled_exact_up_to_the_int64_bound(x):
    cfg = MsuConfig(input_bits=63)
    got = tiled_vmm(np.array(x, dtype=np.uint64), np.ones((len(x), 1)), cfg)
    assert got.dtype == np.int64 and got.tolist() == [sum(x)]


@pytest.mark.parametrize(
    "x",
    [
        [2**62, 2**62],  # the exact result 2^63 leaves int64
        [2**61, 2**61],  # 2 * r_cim = 2^63 leaves int64
        one_a_band(2**62),  # every band fits, the total does not
    ],
)
def test_tiled_refuses_sums_past_int64(x):
    cfg = MsuConfig(input_bits=63)
    with pytest.raises(ValueError, match="could leave int64"):
        tiled_vmm(np.array(x, dtype=np.uint64), np.ones((len(x), 1)), cfg)


@pytest.mark.parametrize("shape", [(3,), (3, 2, 2)])
def test_tiled_rejects_non_matrix_weights(shape):
    with pytest.raises(ValueError, match="does not match weight rows"):
        tiled_vmm(np.ones(3, dtype=np.int64), np.ones(shape), MsuConfig())


def test_tiled_peak_memory_below_the_weight_matrix():
    rng = np.random.default_rng(9)
    w = rng.choice([-1.0, 1.0], (768, 3072))
    x = rng.integers(0, 16, 768)
    tracemalloc.start()
    try:
        tiled_vmm(x, w, MsuConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < w.nbytes  # 18.9 MB; temporaries stay within one row band


# --- chunked reads -----------------------------------------------------
#
# A small byte budget splits each row band into several chunks of
# budget // (8 * c_out) float64 rows, the last one often partial, and the
# bit-plane products into several ADC groups.


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    c_in=st.integers(1, 3 * MACRO_ROWS),
    c_out=st.integers(1, 40),
    chunk_rows=st.floats(0.0, 12.0),  # below one row reads one row a chunk
    bits=st.integers(1, 52),
)
def test_chunked_read_matches_tile_oracle(seed, c_in, c_out, chunk_rows, bits):
    rng = np.random.default_rng(seed)
    w = rng.choice([-1.0, 1.0], (c_in, c_out))
    x = rng.integers(0, 2**bits, c_in, dtype=np.int64)
    cfg = MsuConfig(input_bits=bits)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(crossbar, "_CHUNK_BYTES", max(1, int(8 * c_out * chunk_rows)))
        got = tiled_vmm(x, w, cfg)
    assert np.array_equal(got, tile_oracle(x, w, cfg, tile_cols=7))
    assert np.array_equal(got, x @ w.astype(np.int64))


@pytest.mark.parametrize("bad", [0.5, 0.0, np.nan, np.inf])
@pytest.mark.parametrize(
    "row",
    [
        20,  # first row of the sixth of the second band's chunks (0-3, ..., 20-23, ...)
        31,  # last row of a full chunk
        49,  # last row of the two-row last chunk
    ],
)
def test_chunked_read_rejects_bad_weight(monkeypatch, bad, row):
    monkeypatch.setattr(crossbar, "_CHUNK_BYTES", 8 * 7 * 4)  # four rows of 7 columns
    w = np.ones((MACRO_ROWS + 50, 7))
    w[MACRO_ROWS + row, 3] = bad  # a row of the 50-row second band
    with pytest.raises(ValueError, match="weights must be exactly"):
        tiled_vmm(np.ones(len(w), dtype=np.int64), w, MsuConfig())


@pytest.mark.parametrize("budget", [8, crossbar._CHUNK_BYTES])
@pytest.mark.parametrize("c_in, c_out", [(0, 5), (3, 0), (0, 0)])
def test_chunked_read_of_an_empty_matrix(monkeypatch, budget, c_in, c_out):
    monkeypatch.setattr(crossbar, "_CHUNK_BYTES", budget)
    got = tiled_vmm(np.ones(c_in, dtype=np.int64), np.ones((c_in, c_out)), MsuConfig())
    assert got.dtype == np.int64 and np.array_equal(got, np.zeros(c_out))


def test_chunked_read_peak_memory_is_a_few_chunks():
    rng = np.random.default_rng(9)
    w = rng.choice([-1.0, 1.0], (768, 3072))
    x = rng.integers(0, 16, 768)
    tracemalloc.start()
    try:
        tiled_vmm(x, w, MsuConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # chunk compares, the bit-plane products and their ADC step: 1.8 MiB
    assert peak < 3 * 2**20


def test_input_bits_check_builds_no_big_integer():
    # 2 ** input_bits alone would take 5 MB here, growing with input_bits
    tracemalloc.start()
    try:
        got = tiled_vmm(np.array([3, 1]), np.ones((2, 1)), MsuConfig(input_bits=4 * 10**7))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.tolist() == [4] and peak < 2**20


# --- config validation ------------------------------------------------


def test_msu_config_validation():
    with pytest.raises(ValueError, match="input_bits must be >= 1"):
        MsuConfig(input_bits=0)


@pytest.mark.parametrize("bad", [True, 2.5, 4.0, "4"])
def test_msu_config_refuses_non_integer_input_bits(bad):
    with pytest.raises(ValueError, match="^input_bits must be an integer"):
        MsuConfig(input_bits=bad)
