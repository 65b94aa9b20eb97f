"""Crossbar mapping, analog read-out, bit-serial VMM and tiling."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matterhorn import crossbar
from matterhorn.crossbar import (
    CrossbarMacro,
    G_OFF_DEFAULT,
    G_ON_DEFAULT,
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
    assert grid.tolist() == [[G_ON_DEFAULT, G_OFF_DEFAULT]]
    assert np.all(map_signed_weights(-np.ones((2, 3))) == G_OFF_DEFAULT)


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
    # off-cell leakage: active * g_off * v_read < lsb/2  <=>  active <= 50 (defaults)
    assert 50 * G_OFF_DEFAULT * 0.1 < (G_ON_DEFAULT * 0.1) / 2
    assert 51 * G_OFF_DEFAULT * 0.1 > (G_ON_DEFAULT * 0.1) / 2
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
    assert np.array_equal(tiled_vmm(x, w, MsuConfig()), x @ w.astype(np.int64))
    assert (768 // 256) * (768 // 256) == 9


def test_tiled_ragged_dimensions():
    rng = np.random.default_rng(6)
    w = rng.choice([-1.0, 1.0], (300, 270))  # does not divide the tile size
    x = rng.integers(0, 16, 300)
    assert np.array_equal(tiled_vmm(x, w, MsuConfig()), x @ w.astype(np.int64))


def tile_oracle(x, w, cfg: MsuConfig, tile_cols: int) -> np.ndarray:
    """The device oracle: one programmed macro and one bit-serial read per
    ``cfg.tile_rows`` x ``tile_cols`` tile, visited column-tile-major (the
    reverse of the row-band order)."""
    c_in, c_out = w.shape
    device = dict(v_read=cfg.v_read, g_on=cfg.g_on, g_off=cfg.g_off)
    acc = np.zeros(c_out, dtype=np.int64)
    for c0 in range(0, c_out, tile_cols):
        for r0 in range(0, c_in, cfg.tile_rows):
            r1, c1 = min(r0 + cfg.tile_rows, c_in), min(c0 + tile_cols, c_out)
            macro = CrossbarMacro.from_signed(w[r0:r1, c0:c1], **device)
            r_cim = bit_serial_vmm(x[r0:r1], macro, cfg.input_bits)
            acc[c0:c1] += 2 * r_cim - int(x[r0:r1].sum())
    return cfg.gamma * acc


def test_tiling_traversal_order_is_irrelevant():
    # column-tile-major accumulation gives the same integers
    rng = np.random.default_rng(7)
    w = rng.choice([-1.0, 1.0], (40, 30))
    x = rng.integers(0, 16, 40)
    cfg = MsuConfig(tile_rows=16)
    assert np.array_equal(tile_oracle(x, w, cfg, tile_cols=8), tiled_vmm(x, w, cfg))


DTYPE_MAX = {np.int8: 2**7, np.uint8: 2**8, np.int32: 2**31, np.int64: 2**63, np.uint64: 2**64}


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    c_in=st.integers(1, 60),  # 60 rows of 57-bit inputs keep every sum inside int64
    c_out=st.integers(1, 60),
    tile_rows=st.integers(1, 40),
    tile_cols=st.integers(1, 40),
    bits=st.integers(1, 57),
    dtype=st.sampled_from(list(DTYPE_MAX)),
    gamma=st.one_of(st.just(1.0), st.floats(0.01, 10.0)),
    g_on=st.floats(1e-6, 1e-3),
    off_ratio=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
    v_read=st.floats(0.01, 2.0),
)
def test_tiled_vmm_matches_tile_oracle(
    seed, c_in, c_out, tile_rows, tile_cols, bits, dtype, gamma, g_on, off_ratio, v_read
):
    rng = np.random.default_rng(seed)
    w = rng.choice([-1.0, 1.0], (c_in, c_out))
    x = rng.integers(0, min(2**bits, DTYPE_MAX[dtype]), c_in, dtype=np.uint64).astype(dtype)
    cfg = MsuConfig(
        gamma=gamma,
        input_bits=bits,
        tile_rows=tile_rows,
        v_read=v_read,
        g_on=g_on,
        g_off=g_on * off_ratio,
    )
    got = tiled_vmm(x, w, cfg)
    assert np.array_equal(got, tile_oracle(x, w, cfg, tile_cols))
    assert np.array_equal(got, gamma * (x.astype(np.int64) @ w.astype(np.int64)))


@pytest.mark.parametrize("bad", [0.0, 0.5, np.nan, np.inf])
def test_tiled_rejects_bad_weight_in_last_band(bad):
    w = np.ones((50, 7))
    w[-1, -1] = bad  # rows 48-49 form the last 16-row band
    with pytest.raises(ValueError, match="weights must be exactly"):
        tiled_vmm(np.ones(50, dtype=np.int64), w, MsuConfig(tile_rows=16))


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


@pytest.mark.parametrize(
    "x, tile_rows",
    [
        ([2**61, 2**61 - 1], 256),  # 2 * r_cim = 2^63 - 2
        ([2**61, 2**61, 2**61], 1),  # one input a band: 3 * 2^61 in total
        ([2**62 - 1], 256),
    ],
)
def test_tiled_exact_up_to_the_int64_bound(x, tile_rows):
    cfg = MsuConfig(input_bits=63, tile_rows=tile_rows)
    got = tiled_vmm(np.array(x, dtype=np.uint64), np.ones((len(x), 1)), cfg)
    assert got.tolist() == [float(sum(x))]


@pytest.mark.parametrize(
    "x, tile_rows",
    [
        ([2**62, 2**62], 256),  # the exact result 2^63 leaves int64
        ([2**61, 2**61], 256),  # 2 * r_cim = 2^63 leaves int64
        ([2**62, 2**62, 2**62], 1),  # every band fits, the total does not
    ],
)
def test_tiled_refuses_sums_past_int64(x, tile_rows):
    cfg = MsuConfig(input_bits=63, tile_rows=tile_rows)
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
    c_in=st.integers(1, 60),
    c_out=st.integers(1, 60),
    tile_rows=st.integers(1, 40),
    chunk_rows=st.floats(0.0, 12.0),  # below one row reads one row a chunk
    bits=st.integers(1, 57),
    gamma=st.one_of(st.just(1.0), st.floats(0.01, 10.0)),
    off_ratio=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
)
def test_chunked_read_matches_tile_oracle(
    seed, c_in, c_out, tile_rows, chunk_rows, bits, gamma, off_ratio
):
    rng = np.random.default_rng(seed)
    w = rng.choice([-1.0, 1.0], (c_in, c_out))
    x = rng.integers(0, 2**bits, c_in, dtype=np.int64)
    cfg = MsuConfig(
        gamma=gamma, input_bits=bits, tile_rows=tile_rows, g_off=G_ON_DEFAULT * off_ratio
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(crossbar, "_CHUNK_BYTES", max(1, int(8 * c_out * chunk_rows)))
        got = tiled_vmm(x, w, cfg)
    assert np.array_equal(got, tile_oracle(x, w, cfg, tile_cols=7))
    assert np.array_equal(got, gamma * (x @ w.astype(np.int64)))


@pytest.mark.parametrize("bad", [0.5, 0.0, np.nan, np.inf])
@pytest.mark.parametrize(
    "row",
    [
        20,  # first row of the second of band 1's chunks (16-19, 20-23, 24-27, 28-31)
        31,  # last row of band 1
        49,  # last row of the two-row last band
    ],
)
def test_chunked_read_rejects_bad_weight(monkeypatch, bad, row):
    monkeypatch.setattr(crossbar, "_CHUNK_BYTES", 8 * 7 * 4)  # four rows of 7 columns
    w = np.ones((50, 7))
    w[row, 3] = bad
    with pytest.raises(ValueError, match="weights must be exactly"):
        tiled_vmm(np.ones(50, dtype=np.int64), w, MsuConfig(tile_rows=16))


@pytest.mark.parametrize("budget", [8, crossbar._CHUNK_BYTES])
@pytest.mark.parametrize("c_in, c_out", [(0, 5), (3, 0), (0, 0)])
def test_chunked_read_of_an_empty_matrix(monkeypatch, budget, c_in, c_out):
    monkeypatch.setattr(crossbar, "_CHUNK_BYTES", budget)
    got = tiled_vmm(np.ones(c_in, dtype=np.int64), np.ones((c_in, c_out)), MsuConfig(gamma=0.5))
    want = 0.5 * np.zeros(c_out, dtype=np.int64)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_gamma_is_stored_as_a_float():
    # a Fraction gamma once scaled the codes into an object array
    cfg = MsuConfig(gamma=Fraction(1, 3))
    assert type(cfg.gamma) is float and cfg.gamma == 1 / 3
    x, w = np.array([3, 1, 2]), np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]])
    got = tiled_vmm(x, w, cfg)
    assert got.dtype == np.float64 and got.tolist() == [4 / 3, 0.0]


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


def test_gamma_applies_once_after_tiling():
    rng = np.random.default_rng(8)
    w = rng.choice([-1.0, 1.0], (20, 10))
    x = rng.integers(0, 16, 20)
    got = tiled_vmm(x, w, MsuConfig(gamma=0.25, tile_rows=8))
    assert np.array_equal(got, 0.25 * (x @ w.astype(np.int64)))


# --- config validation ------------------------------------------------


def test_msu_config_validation():
    with pytest.raises(ValueError):
        MsuConfig(gamma=0.0)
    with pytest.raises(ValueError):
        MsuConfig(input_bits=0)
    device_cases = [
        ("v_read", 0.0),
        ("v_read", -0.1),
        ("v_read", float("nan")),
        ("v_read", float("inf")),
        ("g_off", -1e-6),
        ("g_off", float("nan")),
        ("g_off", float("inf")),
        ("g_on", G_OFF_DEFAULT),  # g_on == g_off: no on/off contrast to read
        ("g_on", G_OFF_DEFAULT / 2),
        ("g_on", float("inf")),
        ("g_on", float("nan")),
    ]
    for field, bad in device_cases:
        with pytest.raises(ValueError, match=f"^{field} "):
            MsuConfig(**{field: bad})
        with pytest.raises(ValueError, match=f"^{field} "):
            CrossbarMacro.from_signed(np.ones((2, 2)), **{field: bad})
    MsuConfig(g_off=0.0)  # an ideal off cell is legal
    CrossbarMacro.from_signed(-np.ones((2, 2)), g_off=0.0)


@pytest.mark.parametrize("field", ["gamma", "v_read", "g_on", "g_off"])
@pytest.mark.parametrize("bad", [True, "1", None])
def test_device_constants_must_be_real(field, bad):
    # gamma=True once scaled every read by 1; "1" leaked a bare TypeError
    match = f"^{field} must be a real number"
    with pytest.raises(ValueError, match=match):
        MsuConfig(**{field: bad})
    if field != "gamma":
        with pytest.raises(ValueError, match=match):
            CrossbarMacro.from_signed(np.ones((2, 2)), **{field: bad})
    MsuConfig(gamma=2, v_read=np.float32(0.25), g_off=0)  # ints and numpy floats are reals


@pytest.mark.parametrize("field", ["input_bits", "tile_rows"])
@pytest.mark.parametrize("bad", [True, 2.5, 4.0, "4"])
def test_msu_config_refuses_non_integer_geometry(field, bad):
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        MsuConfig(**{field: bad})
