"""Command-line dispatch: exit codes, determinism, artifact contents."""

import hashlib
import json

import pytest

from matterhorn.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    dispatch,
)


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_no_arguments_prints_usage_and_fails():
    with pytest.raises(SystemExit) as exc:
        dispatch([])
    assert exc.value.code == EXIT_USAGE


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        dispatch(["verify", "--frobnicate"])
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "--fan-in", "0", "--exhaustive"], "--fan-in"),  # would check nothing
        (["verify", "--fan-out", "0", "--exhaustive"], "--fan-out"),
        (["xbar", "--bits", "70"], "--bits"),  # beyond numpy's int64 sampler
        (["xbar", "--bits", "58"], "--bits"),  # fuzz sums would overflow int64
        (["stats", "--count", "-1"], "--count"),
        # zero cases would report a vacuous pass
        (["verify", "--samples", "0"], "--samples"),
        (["xbar", "--fuzz", "0"], "--fuzz"),
        (["attn", "--samples", "0"], "--samples"),
        # the threshold walk and the encode bit list grow as 2^n
        (["verify", "--bits", "40", "--fan-in", "1", "--fan-out", "1", "--samples", "1"], "--bits"),
        (["encode", "--bits", "17", "--codes", "0"], "--bits"),
        # tokens x d_k codes per sample, tokens^2 score trains of 2^n steps
        (["attn", "--tokens", "0"], "--tokens"),
        (["attn", "--dk", "-1"], "--dk"),
        (["attn", "--tokens", "129"], "--tokens"),
        (["attn", "--dk", "129"], "--dk"),
    ],
)
def test_out_of_range_flag_is_usage_error(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        dispatch(argv)
    assert exc.value.code == EXIT_USAGE
    assert f"argument {flag}:" in capsys.readouterr().err


def test_verify_exhaustive_passes(capsys):
    code, out, _ = run(capsys, "verify", "--bits", "3", "--k", "1", "--exhaustive")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["result"]["passed"] is True
    assert doc["result"]["cases_checked"] == 8**4
    assert doc["invocation"]["bits"] == 3


def test_verify_sampled_passes(capsys):
    code, out, _ = run(capsys, "verify", "--bits", "4", "--samples", "2000", "--seed", "5")
    assert code == EXIT_OK
    assert json.loads(out)["result"]["cases_checked"] == 2000


def test_verify_reports_failure_exit_code(tmp_path, capsys):
    # layer whose descriptor disagrees with its own dead zone center
    layer = {
        "n": 3,
        "alpha_in": 1.0,
        "alpha_out": 1.0,
        "mode": "symmetric",
        "mu": 2,  # off-center: silent inputs no longer stand for zero
        "k": 1,
        "weights": [1.0, -1.0, 1.0, 1.0],
        "bias": [0.0, 0.0],
    }
    path = tmp_path / "layer.json"
    path.write_text(json.dumps(layer))
    code, out, _ = run(capsys, "verify", "--weights", str(path), "--exhaustive")
    assert code == EXIT_VERIFY_FAILED
    assert json.loads(out)["result"]["passed"] is False


def test_verify_malformed_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "verify", "--weights", str(path), "--exhaustive")
    assert code == EXIT_CONFIG
    assert "broken.json" in json.loads(err)["detail"]


@pytest.mark.filterwarnings("error")  # no numpy warning may leak out first
@pytest.mark.parametrize(
    "weights, needle",
    [
        ([float("inf"), 1.0], "finite"),  # refused by the layer
        ([1e308, 1e308], "pre-activations up to"),  # sums would overflow
    ],
)
def test_verify_bad_weight_magnitudes_are_config_errors(tmp_path, capsys, weights, needle):
    layer = {"n": 2, "alpha_in": 1.0, "alpha_out": 1.0, "weights": weights, "bias": [0.0]}
    path = tmp_path / "layer.json"
    path.write_text(json.dumps(layer))
    code, _, err = run(capsys, "verify", "--weights", str(path), "--exhaustive")
    assert code == EXIT_CONFIG
    assert needle in json.loads(err)["detail"]


def test_verify_real_weights_pass_exhaustively(tmp_path, capsys):
    # summation order alone used to flip codes for non-integer weights
    layer = {
        "n": 3,
        "alpha_in": 0.1,
        "alpha_out": 0.1,
        "mu": 0,
        "k": 0,
        "weights": [1.1, 0.1, 0.2, 0.2, 0.2, 1.1],
        "bias": [0, 0],
    }
    path = tmp_path / "layer.json"
    path.write_text(json.dumps(layer))
    code, out, _ = run(capsys, "verify", "--weights", str(path), "--exhaustive")
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    assert result["cases_checked"] == 8**3 and result["mismatch_count"] == 0


@pytest.mark.parametrize(
    "n, fan_in, extra, needle",
    [
        (17, 1, ["--samples", "1"], "n=17"),  # wider than --bits accepts
        (4, 6, ["--exhaustive"], "2^24"),  # over the exhaustive budget
        (None, None, ["--bits", "4", "--fan-in", "10", "--exhaustive"], "2^40"),
        # inside the vector budget, but each output walks up to 2^n thresholds
        (None, None, ["--bits", "5", "--fan-in", "4", "--exhaustive"], "134217728 steps"),
        (None, None, ["--bits", "16", "--fan-in", "1", "--samples", "1000"], "65536000 steps"),
        # inside the vector and walk budgets, but 2^20 x 20 x 8 summed terms
        (
            None,
            None,
            ["--bits", "1", "--fan-in", "20", "--fan-out", "8", "--exhaustive"],
            "167772160 terms",
        ),
    ],
)
def test_verify_refuses_unbounded_work(tmp_path, capsys, n, fan_in, extra, needle):
    argv = ["verify", *extra]
    if n is not None:
        layer = {"n": n, "alpha_in": 1, "alpha_out": 1, "weights": [1] * fan_in, "bias": [0]}
        path = tmp_path / "layer.json"
        path.write_text(json.dumps(layer))
        argv += ["--weights", str(path)]
    code, _, err = run(capsys, *argv)
    assert code == EXIT_CONFIG
    assert needle in json.loads(err)["detail"]


def test_encode_round_trip_artifact(capsys):
    code, out, _ = run(capsys, "encode", "--codes", "0,3,-2", "--k", "1")
    assert code == EXIT_OK
    rows = json.loads(out)["result"]
    assert rows[0]["spike_time"] is None  # 0 sits in the dead zone
    assert rows[1] == {"code": 3, "spike_time": 4, "bits": rows[1]["bits"], "decoded": 3}


def test_xbar_replay(capsys):
    code, out, _ = run(capsys, "xbar", "--replay", "reference")
    assert code == EXIT_OK
    doc = json.loads(out)["result"]
    assert doc["currents_uA"] == pytest.approx([10.1, 0.2, 10.1, 20.0], rel=1e-12)
    assert doc["adc_codes"] == [1, 0, 1, 2]


def test_xbar_fuzz(capsys):
    for bits in ("4", "57"):  # 57: the widest budget whose sums stay exact in int64
        code, out, _ = run(capsys, "xbar", "--fuzz", "25", "--seed", "3", "--bits", bits)
        assert code == EXIT_OK
        assert json.loads(out)["result"]["failures"] == 0


def test_attn_fuzz(capsys):
    code, out, _ = run(capsys, "attn", "--samples", "5", "--seed", "2")
    assert code == EXIT_OK
    assert json.loads(out)["result"]["mismatches"] == 0


def test_energy_json_report(capsys):
    code, out, _ = run(capsys, "energy", "--mode", "msu", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)["result"]
    assert doc["categories_j"]["weight_access"] == 0  # weights stay in the macros
    assert doc["categories_j"]["kv_traffic"] > 0  # attention still reads the cache
    assert doc["assumptions"]["mode"] == "msu"
    assert 0.8 * 6.14 <= doc["total_mj"] <= 1.2 * 6.14


def test_energy_csv_report(capsys):
    code, out, _ = run(capsys, "energy", "--mode", "baseline", "--format", "csv")
    assert code == EXIT_OK
    assert out.startswith("# block_energy mode=baseline")
    assert "category,joules" in out


def test_energy_bad_rates_file_is_config_error(tmp_path, capsys):
    path = tmp_path / "rates.json"
    path.write_text('{"q_proj": 0.01}')
    code, _, err = run(capsys, "energy", "--rates", str(path))
    assert code == EXIT_CONFIG
    assert "missing spike rate" in json.loads(err)["detail"]


def test_scenario_table(capsys):
    code, out, _ = run(capsys, "scenario")
    assert code == EXIT_OK
    assert "Otters" in out and "SpikingLM" in out


def test_area_report(capsys):
    code, out, _ = run(capsys, "area")
    doc = json.loads(out)["result"]
    assert code == EXIT_OK
    assert doc["macros_per_block"] == 108
    assert doc["block_mm2"] < 10.0


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# Digests of the exact stats/sweep CSV bytes (header, rows, number formats),
# uncalibrated and calibrated; any byte that changes shows up here.
STATS_CSV_SHA256 = {
    (): "70ff1f784e6a31ac7ea0b38ff82902bc89d54226a988731fc655a631082af52f",
    ("--calibrate", "0.6", "--k", "1"): (
        "ef79ade27c702daf105fe01cea38f9add484943436ff7521eaa8f8e20610f422"
    ),
}
SWEEP_CSV_SHA256 = {
    (): "1877b9cc8235c9eedad362c7a0f087c6c1e6e9ab3c0b91a4c7858395951225c7",
    # calibrated at k=0 even though --k is set
    ("--calibrate", "0.34", "--k", "1"): (
        "db7cbf8f349061c53cd45715d3e96f5218e990ad86de94112aa1e2bfc391bafa"
    ),
}


def test_stats_csv_and_svg(tmp_path, capsys):
    svg_path = tmp_path / "hist.svg"
    for extra, digest in STATS_CSV_SHA256.items():
        code, out, _ = run(
            capsys, "stats", "--count", "500", "--seed", "4", "--svg", str(svg_path), *extra
        )
        assert code == EXIT_OK
        assert sha256(out) == digest, extra
    assert "silence_fraction=" in out
    assert out.strip().splitlines()[-1].startswith("silent,")
    assert svg_path.read_text().startswith("<svg")


def test_stats_baseline_flag(capsys):
    code, out, _ = run(capsys, "stats", "--count", "2000", "--baseline", "--seed", "8")
    assert code == EXIT_OK
    assert "silent decodes to minimum code" in out
    masked_code, masked_out, _ = run(capsys, "stats", "--count", "2000", "--seed", "8")
    assert masked_code == EXIT_OK
    assert "silent decodes to mu=0" in masked_out

    def silence(text):
        line = [l for l in text.splitlines() if "silence_fraction=" in l][0]
        return float(line.split("=")[1])

    assert silence(out) < silence(masked_out)


def test_sweep_table_with_reference_column(capsys):
    for extra, digest in SWEEP_CSV_SHA256.items():
        code, out, _ = run(capsys, "sweep", "--count", "500", "--kmax", "2", "--seed", "4", *extra)
        assert code == EXIT_OK
        assert sha256(out) == digest, extra
    assert "reference_silence_pct" in out
    assert "61.2" in out  # logged alongside, not asserted


def test_outputs_are_deterministic(capsys):
    _, first, _ = run(capsys, "sweep", "--count", "300", "--seed", "7")
    _, second, _ = run(capsys, "sweep", "--count", "300", "--seed", "7")
    assert first == second


def test_env_seed_override(monkeypatch, capsys):
    monkeypatch.setenv("MATTERHORN_SEED", "123")
    _, with_env, _ = run(capsys, "stats", "--count", "200", "--seed", "0")
    monkeypatch.delenv("MATTERHORN_SEED")
    _, explicit, _ = run(capsys, "stats", "--count", "200", "--seed", "123")
    assert with_env == explicit


def test_env_seed_must_be_integer(monkeypatch, capsys):
    monkeypatch.setenv("MATTERHORN_SEED", "not-a-number")
    code, _, err = run(capsys, "stats", "--count", "10")
    assert code == EXIT_CONFIG
    assert "MATTERHORN_SEED" in json.loads(err)["detail"]


def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "area", "--out", str(path))
    assert code == EXIT_OK and out == ""
    assert json.loads(path.read_text())["result"]["macros_per_block"] == 108
