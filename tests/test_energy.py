"""Energy equations: hand cases, limits, scaling laws, published anchors."""

import math
from dataclasses import replace
from fractions import Fraction

import pytest

from matterhorn.energy import (
    DEFAULT_MODE_RATES,
    EnergyParams,
    EnergyReport,
    TransformerBlockShape,
    area_estimate,
    block_energy,
    component_energy,
    scenario_compare,
)

PJ = 1e-12

UNIT_PARAMS = EnergyParams(
    mac_int4_pj=1.0,
    mac_mixed_pj=1.0,
    acc_4b_pj=1.0,
    acc_1b_pj=1.0,
    cmp_pj=1.0,
    leak_pj=1.0,
    weight_read_pj_per_bit=1.0,
    spike_move_pj_per_bit=1.0,
    cim_fj_per_bit=1000.0,  # 1 pJ
    weight_bits=1,
    threshold_read_pj=1.0,
    kv_read_pj=1.0,
    kv_write_pj=1.0,
    sum_pj=1.0,
    map_pj=1.0,
    encoding_pj=1.0,
    decay_pj=1.0,
)

TINY = TransformerBlockShape(1, 1, 1, 1, 1, 1)  # priced below with c_i = c_o = 1
BLOCK = TransformerBlockShape()


# --- hand-computable unit cases ------------------------------------------


def test_fc_baseline_unit_case():
    # 1*[1*1*(1*(decay+mac+w+move) + leak) + 1*(cmp+th) + kvw] = 8 pJ
    rep = component_energy("fc", "baseline", TINY, 1, 1, 1.0, UNIT_PARAMS)
    assert rep.total_j == pytest.approx(8 * PJ)
    assert rep.categories["digital_compute"] == pytest.approx(2 * PJ)
    assert rep.categories["thresholding"] == pytest.approx(2 * PJ)


def test_qkv_baseline_unit_case():
    # (enc+mac+move+kv_read) + leak + (cmp+th) = 7 pJ
    rep = component_energy("qkv", "baseline", TINY, 1, 1, 1.0, UNIT_PARAMS)
    assert rep.total_j == pytest.approx(7 * PJ)


def test_fc_msu_unit_case():
    # T=2: analog = 2*sum + (cim+acc) + map = 5; digital = move*2 + leak*2 + 2*(cmp+th) = 8
    block = replace(TINY, time_steps=2)
    rep = component_energy("fc", "msu", block, 1, 1, 1.0, UNIT_PARAMS)
    assert rep.categories["analog_compute"] == pytest.approx(5 * PJ)
    assert rep.total_j == pytest.approx(13 * PJ)


def test_qkv_timeacc_unit_case():
    # (acc+move+kv_read) + leak + (enc+mac) + (cmp+th) = 8 pJ
    rep = component_energy("qkv", "msu", TINY, 1, 1, 1.0, UNIT_PARAMS)
    assert rep.total_j == pytest.approx(8 * PJ)


# --- limits and structure -------------------------------------------------


def test_fc_baseline_sparsity_limit():
    rep = component_energy("fc", "baseline", TINY, 1, 1, 0.0, UNIT_PARAMS)
    live = {name for name, v in rep.categories.items() if v > 0}
    assert live == {"leakage", "thresholding", "kv_traffic"}


def test_qkv_baseline_sparsity_limit():
    rep = component_energy("qkv", "baseline", TINY, 1, 1, 0.0, UNIT_PARAMS)
    live = {name for name, v in rep.categories.items() if v > 0}
    assert live == {"leakage", "thresholding"}


def test_qkv_timeacc_sparsity_limit():
    # per-step scaling survives at zero spikes; per-spike terms vanish
    rep = component_energy("qkv", "msu", TINY, 1, 1, 0.0, UNIT_PARAMS)
    live = {name for name, v in rep.categories.items() if v > 0}
    assert live == {"leakage", "thresholding", "digital_compute"}
    assert rep.categories["digital_compute"] == pytest.approx(2 * PJ)  # enc + mac


def test_msu_weight_access_is_zero():
    for s_r in (0.0, 0.3, 1.0):
        rep = component_energy("fc", "msu", BLOCK, 768, 768, s_r)
        assert rep.categories["weight_access"] == 0.0


def test_msu_fc_charges_no_per_output_kv_write():
    # the digital and rate-coded pricings charge every FC output one KV
    # write; msu charges none, and block_energy_msu.csv carries that
    block = replace(TINY, time_steps=2)
    msu = component_energy("fc", "msu", block, 1, 3, 1.0, UNIT_PARAMS)
    assert msu.categories["kv_traffic"] == 0.0
    for mode in ("baseline", "mttfs", "deadzone", "rate_coded"):
        rep = component_energy("fc", mode, block, 1, 3, 1.0, UNIT_PARAMS)
        assert rep.categories["kv_traffic"] == pytest.approx(3 * PJ)  # batch * seq * c_o outputs
    rate = DEFAULT_MODE_RATES["msu"]
    attention_reads = sum(
        component_energy(kind, "msu", BLOCK, c_i, c_o, rate).categories["kv_traffic"]
        for _, kind, c_i, c_o in BLOCK.components()
        if kind == "qkv"
    )
    assert block_energy(BLOCK, "msu").categories["kv_traffic"] == pytest.approx(attention_reads)


def test_msu_requires_power_of_two_window():
    with pytest.raises(ValueError):
        component_energy("fc", "msu", replace(TINY, time_steps=12), 1, 1, 1.0)


def test_report_closure_and_percentages():
    rep = component_energy("fc", "baseline", BLOCK, 768, 768, 0.0407, EnergyParams())
    assert rep.total_j == math.fsum(rep.categories.values())
    assert abs(sum(rep.percentages.values()) - 100.0) < 0.01


def test_spike_processing_categories_linear_in_rate():
    r1 = component_energy("fc", "baseline", BLOCK, 768, 768, 0.07)
    r2 = component_energy("fc", "baseline", BLOCK, 768, 768, 0.14)
    for cat in ("spike_movement", "weight_access", "digital_compute"):
        assert r2.categories[cat] == pytest.approx(2 * r1.categories[cat], rel=1e-12)
    # fixed categories unchanged
    for cat in ("leakage", "thresholding", "kv_traffic"):
        assert r2.categories[cat] == r1.categories[cat]


def test_total_monotone_in_shape_and_rates():
    base = TransformerBlockShape(batch=2, seq=4, hidden=8, heads=2, time_steps=4)
    t0 = component_energy("fc", "baseline", base, 8, 8, 0.2).total_j
    assert component_energy("fc", "baseline", replace(base, batch=3), 8, 8, 0.2).total_j > t0
    assert component_energy("fc", "baseline", replace(base, seq=5), 8, 8, 0.2).total_j > t0
    assert component_energy("fc", "baseline", replace(base, time_steps=8), 8, 8, 0.2).total_j > t0
    assert component_energy("fc", "baseline", base, 8, 8, 0.4).total_j > t0


def test_total_monotone_in_unit_energies():
    block = TransformerBlockShape(batch=2, seq=4, time_steps=4)
    t0 = component_energy("fc", "baseline", block, 8, 8, 0.2, EnergyParams()).total_j
    bumped = {
        "mac_mixed_pj": 0.2,
        "cmp_pj": 0.2,
        "leak_pj": 0.01,
        "weight_read_pj_per_bit": 0.3,
        "spike_move_pj_per_bit": 0.5,
        "decay_pj": 0.5,  # resolved default is acc_4b
    }
    for field, value in bumped.items():
        params = replace(EnergyParams(), **{field: value})
        assert component_energy("fc", "baseline", block, 8, 8, 0.2, params).total_j > t0, field


def test_msu_beats_baseline_at_operating_point():
    rate = DEFAULT_MODE_RATES["msu"]
    assert (
        component_energy("fc", "msu", BLOCK, 768, 768, rate).total_j
        < component_energy("fc", "baseline", BLOCK, 768, 768, rate).total_j
    )


def test_workload_validation():
    with pytest.raises(ValueError, match="spike ratio must lie in"):
        component_energy("fc", "baseline", BLOCK, 768, 768, 1.5)
    with pytest.raises(ValueError):
        TransformerBlockShape(batch=0)
    with pytest.raises(ValueError, match="^d_k must be a positive integer"):
        TransformerBlockShape(hidden=8, heads=16)
    for c_i, c_o in ((0, 768), (768, 0), (1.5, 768), (768, True)):
        with pytest.raises(ValueError, match="^c_[io] must be a positive integer"):
            component_energy("fc", "baseline", BLOCK, c_i, c_o, 0.5)


@pytest.mark.parametrize("bad", [True, "0.1", math.nan, -0.1, 1.5])
def test_malformed_spike_ratio_is_refused(bad):
    with pytest.raises(ValueError, match="^spike ratio must"):
        component_energy("qkv", "msu", TINY, 1, 1, bad)
    with pytest.raises(ValueError, match="^spike ratio must"):
        block_energy(BLOCK, "baseline", rates=bad)


@pytest.mark.parametrize(
    "field, bad",
    [
        ("mac_int4_pj", "x"),
        ("mac_int4_pj", None),  # only the derived costs may be left unset
        ("leak_pj", math.nan),
        ("leak_pj", 10**400),  # once an OverflowError when the report summed it
        ("map_pj", Fraction(10**400, 7)),
        ("cim_fj_per_bit", math.inf),
        ("cmp_pj", -0.01),
        ("acc_4b_pj", True),
        ("kv_read_pj", math.nan),
        ("decay_pj", "0.1"),
        ("weight_bits", 0),
        ("weight_bits", 1.5),
        ("weight_bits", True),
    ],
)
def test_malformed_unit_energy_is_refused(field, bad):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        EnergyParams(**{field: bad})


def test_output_element_counts():
    # every output leaks once per (input, step) slot, c_i * time_steps of them
    block = TransformerBlockShape(batch=3, seq=5, heads=4, time_steps=8)
    fc = component_energy("fc", "baseline", block, 7, 11, 0.1, UNIT_PARAMS)
    qkv = component_energy("qkv", "baseline", block, 7, 11, 0.1, UNIT_PARAMS)
    assert fc.categories["leakage"] == pytest.approx(3 * 5 * 11 * 7 * 8 * PJ)
    assert qkv.categories["leakage"] == pytest.approx(3 * 4 * 5**2 * 7 * 8 * PJ)


# --- block composition ----------------------------------------------------


PUBLISHED_BLOCK_MJ = {"baseline": 16.80, "mttfs": 12.24, "deadzone": 8.31, "msu": 6.14}


def test_block_energy_within_published_band():
    totals = {}
    for mode, anchor in PUBLISHED_BLOCK_MJ.items():
        total = block_energy(BLOCK, mode).total_mj
        totals[mode] = total
        assert abs(total - anchor) / anchor <= 0.20, (mode, total, anchor)
    assert totals["baseline"] > totals["mttfs"] > totals["deadzone"] > totals["msu"]


def test_block_energy_zero_rates_floor():
    rep = block_energy(BLOCK, "baseline", rates=0.0)
    live = {name for name, v in rep.categories.items() if v > 0}
    assert live == {"leakage", "thresholding", "kv_traffic"}


def test_block_energy_missing_component_rate():
    rates = {name: 0.01 for name, _, _, _ in BLOCK.components()}
    rates.pop("ffn_in")
    with pytest.raises(ValueError, match="ffn_in"):
        block_energy(BLOCK, "baseline", rates=rates)


def test_block_energy_unknown_component_rate():
    # a misspelt name next to the true one would otherwise price nothing
    rates = {name: 0.01 for name, _, _, _ in BLOCK.components()}
    rates["ffn_inn"] = 0.9
    with pytest.raises(ValueError, match="unknown components: \\['ffn_inn'\\]"):
        block_energy(BLOCK, "baseline", rates=rates)


def test_block_energy_unknown_mode():
    with pytest.raises(ValueError):
        block_energy(BLOCK, "turbo")


def test_block_report_embeds_assumptions():
    rep = block_energy(BLOCK, "msu")
    assert rep.assumptions["mode"] == "msu"
    assert "unit_energies_pj" in rep.assumptions
    assert set(rep.assumptions["rates"]) == {name for name, _, _, _ in BLOCK.components()}


def test_merged_report_sums_components():
    reps = [
        component_energy("fc", "baseline", BLOCK, 768, 768, 0.0407),
        component_energy("qkv", "baseline", BLOCK, 64, 64, 0.0407),
    ]
    merged = EnergyReport.merged("pair", reps)
    assert merged.total_j == pytest.approx(sum(r.total_j for r in reps))


# --- published comparison scenarios ---------------------------------------


def test_scenario_shares_in_published_bands():
    rows = scenario_compare()
    assert [r.name for r in rows] == ["Otters", "Sorbet", "SpikingBERT", "SpikingLM"]
    in_band = 0
    for row in rows:
        ok = (
            42.0 <= row.shares["spike_movement"] <= 55.0
            and 27.0 <= row.shares["weight_access"] <= 32.0
            and 12.0 <= row.shares["compute"] <= 20.0
        )
        in_band += ok
    assert in_band >= 3, [r.to_dict() for r in rows]


def test_scenario_movement_vanishes_without_spikes():
    rows = scenario_compare([("dead", 16, 0.0, "rate_coded")])
    assert rows[0].shares["spike_movement"] == 0.0


def test_scenario_requires_nonempty_list():
    with pytest.raises(ValueError):
        scenario_compare([])


# --- area ------------------------------------------------------------------


def test_single_macro_matrix():
    block = TransformerBlockShape(hidden=256, ffn_dim=256)
    est = area_estimate(block, routing_factor=1.0)
    assert est.macros_per_block == 6  # six 256x256 matrices, one macro each
    assert est.block_mm2 == pytest.approx(6 * 0.072)


def test_block_macro_count_and_area():
    est = area_estimate()
    assert est.macros_per_block == 108
    assert est.block_mm2 < 10.0
    assert est.model_mm2 <= 120.0


def test_area_scales_with_routing_factor():
    lean = area_estimate(routing_factor=1.0)
    assert lean.block_mm2 == pytest.approx(108 * 0.072)
    assert area_estimate(routing_factor=1.2).block_mm2 > lean.block_mm2
