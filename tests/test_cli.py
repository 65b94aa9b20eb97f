"""Command-line dispatch: exit codes, determinism, artifact contents."""

import hashlib
import json
import shlex
from pathlib import Path

import pytest

from matterhorn import cli
from matterhorn.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    MAX_COUNT,
    MAX_FUZZ,
    MAX_SAMPLES,
    dispatch,
)
from matterhorn.energy import TransformerBlockShape


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def usage_error(capsys, *argv):
    """The stderr of a run argparse refuses, with exit 2 before any work."""
    with pytest.raises(SystemExit) as exc:
        dispatch(list(argv))
    assert exc.value.code == EXIT_USAGE
    return capsys.readouterr().err


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
        # the encode bit list grows as 2^n; verify shares the --bits flag and its cap
        (["verify", "--bits", "40", "--fan-in", "1", "--fan-out", "1", "--samples", "1"], "--bits"),
        (["encode", "--bits", "17", "--codes", "0"], "--bits"),
        # tokens x d_k codes per sample, tokens^2 x d_k summed terms per stage
        (["attn", "--tokens", "0"], "--tokens"),
        (["attn", "--dk", "-1"], "--dk"),
        (["attn", "--tokens", "129"], "--tokens"),
        (["attn", "--dk", "129"], "--dk"),
        # memory grows with the sample count and the random layer's size
        (["stats", "--count", str(MAX_COUNT + 1)], "--count"),
        (["sweep", "--count", str(MAX_COUNT + 1)], "--count"),
        (["sweep", "--kmax", "-1"], "--kmax"),
        (["verify", "--fan-in", "3000", "--fan-out", "3000", "--samples", "1"], "--fan-in"),
        (["verify", "--fan-out", "1025", "--samples", "1"], "--fan-out"),
        # about 60 us a fuzzed case: 10^9 cases would run for most of a day
        (["xbar", "--fuzz", str(MAX_FUZZ + 1)], "--fuzz"),
        (["xbar", "--fuzz", "1000000000"], "--fuzz"),
        # n threshold comparisons a sample: about 10 s at this cap and --bits 16
        (["verify", "--samples", str(MAX_SAMPLES + 1)], "--samples"),
        # the baseline fixes its dead zone at the last step, k = 0
        (["stats", "--baseline", "--k", "3", "--count", "10"], "--k"),
        (["stats", "--baseline", "--imax", "2", "--count", "10"], "--imax"),
        (["stats", "--baseline", "--imax", "7", "--k", "0", "--count", "10"], "--imax"),
        (["stats", "--baseline", "--k", "3", "--imax", "2", "--count", "10"], "--imax"),
        # numpy refused a negative seed with exit 3 and a message naming no field
        (["stats", "--seed", "-1", "--count", "10"], "--seed"),
        (["sweep", "--seed", "-1", "--count", "10"], "--seed"),
        (["verify", "--seed", "-1", "--samples", "10"], "--seed"),
        (["attn", "--seed", "-1", "--samples", "1"], "--seed"),
        # the baseline refuses --k given at all, as a --weights file does: even the default
        (["stats", "--baseline", "--k", "0", "--count", "10"], "--k"),
        # int() refused these with exit 3, and an empty list passed with no codes
        (["encode", "--codes", "1.5"], "--codes"),
        (["encode", "--codes", "x"], "--codes"),
        (["encode", "--codes", ","], "--codes"),
        (["encode", "--codes", "0,,3"], "--codes"),
        (["encode", "--codes", ""], "--codes"),
    ],
)
def test_out_of_range_flag_is_usage_error(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        dispatch(argv)
    assert exc.value.code == EXIT_USAGE
    assert f"argument {flag}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag, mode",
    [
        # stats --calibrate 0.3 --dist laplace --scale 9 once sampled a calibrated Gaussian, exit 0
        (["stats", "--calibrate", "0.3", "--dist", "laplace"], "--dist", "--calibrate"),
        (["stats", "--calibrate", "0.3", "--scale", "1.0"], "--scale", "--calibrate"),  # the default
        (["sweep", "--calibrate", "0.3", "--dist", "gaussian"], "--dist", "--calibrate"),
        (["sweep", "--calibrate", "0.3", "--scale", "9"], "--scale", "--calibrate"),
        # xbar --replay reference --fuzz 5 --bits 9 --seed 4 once printed the replay, exit 0
        (["xbar", "--replay", "reference", "--fuzz", "5"], "--fuzz", "--replay"),
        (["xbar", "--replay", "reference", "--bits", "4"], "--bits", "--replay"),
        (["xbar", "--replay", "reference", "--seed", "0"], "--seed", "--replay"),
    ],
)
def test_a_mode_refuses_the_flags_it_never_reads(capsys, argv, flag, mode):
    assert f"argument {flag}: not allowed with argument {mode}" in usage_error(capsys, *argv)


@pytest.mark.parametrize(
    "argv",
    [
        # the pipeline scores in code space, at alpha 1.0 whatever the flag said
        ["attn", "--alpha", "0.37"],
        ["encode", "--codes", "0", "--alpha", "0.37"],  # encoding and decoding read no scale
        ["sweep", "--k", "1"],  # the sweep sets every radius itself, and calibrates at k=0
    ],
)
def test_flags_no_run_reads_are_not_registered(capsys, argv):
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in usage_error(capsys, *argv)


def test_readme_cli_block_runs(tmp_path):
    # a flag removed from the CLI cannot linger in the README's examples
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)[1:] for line in block.splitlines()]
    subcommands = {"verify", "encode", "xbar", "attn", "energy", "scenario", "area", "stats", "sweep"}
    assert {argv[0] for argv in commands} == subcommands
    for i, argv in enumerate(commands):
        if "--svg" in argv:
            argv[argv.index("--svg") + 1] = str(tmp_path / "hist.svg")
        assert dispatch([*argv, "--out", str(tmp_path / f"{i}.out")]) == EXIT_OK, argv
        assert (tmp_path / f"{i}.out").stat().st_size > 0


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


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--bits", "3"),
        ("--alpha", "1.0"),
        ("--mode", "symmetric"),
        ("--imax", "3"),
        ("--k", "0"),
        ("--fan-in", "2"),
        ("--fan-out", "1"),
    ],
)
def test_verify_weights_file_refuses_the_flags_it_sets(tmp_path, capsys, flag, value):
    # the file sets the bit width, scale, mode, dead zone and shape; each
    # value here equals the file's own, and the flag is refused all the same
    # (a run at --k 2 --bits 9 once ran at the file's k 0 and n 3, exit 0)
    layer = {"n": 3, "alpha_in": 1, "alpha_out": 1, "weights": [1.0, -1.0], "bias": [0.0]}
    path = tmp_path / "layer.json"
    path.write_text(json.dumps(layer))
    for given in ([flag, value], [f"{flag}={value}"]):
        with pytest.raises(SystemExit) as exc:
            dispatch(["verify", "--weights", str(path), "--samples", "10", *given])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"argument {flag}: not allowed with a --weights file" in err
    assert run(capsys, "verify", "--weights", str(path), "--samples", "10")[0] == EXIT_OK


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


@pytest.mark.parametrize("domain", [["--exhaustive"], ["--samples", "100"]])
def test_verify_non_integral_bit_width_is_config_error(tmp_path, capsys, domain):
    layer = {"n": 3.5, "alpha_in": 1.0, "alpha_out": 1.0, "weights": [1.0], "bias": [0.0]}
    path = tmp_path / "layer.json"
    path.write_text(json.dumps(layer))
    code, _, err = run(capsys, "verify", "--weights", str(path), *domain)
    assert code == EXIT_CONFIG
    detail = json.loads(err)["detail"]
    assert "bit width must be an integer >= 1, got 3.5" in detail and "alpha_in" not in detail


@pytest.mark.parametrize("field, value", [("mu", 0.9), ("k", 1.7)])
def test_verify_non_integral_dead_zone_is_config_error(tmp_path, capsys, field, value):
    # once cast with int(), these ran as mu=0 and k=1 and passed
    layer = {"n": 3, "alpha_in": 1.0, "alpha_out": 1.0, "weights": [1.0], "bias": [0.0]}
    path = tmp_path / "layer.json"
    path.write_text(json.dumps({**layer, field: value}))
    code, out, err = run(capsys, "verify", "--weights", str(path), "--exhaustive")
    assert code == EXIT_CONFIG and not out
    assert f"{field} must be an integer, got {value}" in json.loads(err)["detail"]


@pytest.mark.parametrize("field", ["alpha_in", "alpha_out"])
@pytest.mark.parametrize("value", [True, "1", None])
def test_verify_non_real_scale_is_config_error(tmp_path, capsys, field, value):
    # true once ran as a scale of 1, and "1" leaked a bare TypeError
    layer = {"n": 3, "alpha_in": 1.0, "alpha_out": 1.0, "weights": [1.0], "bias": [0.0]}
    path = tmp_path / "layer.json"
    path.write_text(json.dumps({**layer, field: value}))
    code, out, err = run(capsys, "verify", "--weights", str(path), "--samples", "10")
    assert code == EXIT_CONFIG and not out
    detail = json.loads(err)["detail"]
    assert f"{field}: alpha must be a real number, got {value!r}" in detail


@pytest.mark.parametrize(
    "alpha, needle",
    [
        (2**60 + 1, "scale must be an exact float"),  # once passed on the rounded scale
        (int("9" * 401), "alpha is too large for a float"),  # once an OverflowError, exit 1
    ],
)
@pytest.mark.parametrize("domain", [["--exhaustive"], ["--samples", "10"]])
def test_verify_scale_no_float_holds_is_config_error(tmp_path, capsys, alpha, needle, domain):
    layer = {"n": 4, "alpha_in": 1.0, "alpha_out": alpha, "weights": [1.0, -1.0], "bias": [0.0, 0.0]}
    path = tmp_path / "layer.json"
    path.write_text(json.dumps(layer))
    code, out, err = run(capsys, "verify", "--weights", str(path), *domain)
    assert code == EXIT_CONFIG and not out
    assert f"alpha_out: {needle}" in json.loads(err)["detail"]


def test_verify_overflowing_sample_span_is_config_error(capsys):
    # the draws span +/-2^4 x 1e308; this leaked numpy's OverflowError (exit 1)
    code, out, err = run(capsys, "verify", "--alpha", "1e308", "--samples", "10")
    assert code == EXIT_CONFIG and not out
    assert "scale 1e+308 at n=4" in json.loads(err)["detail"]


def test_verify_exhaustive_walk_is_not_charged_per_step(capsys):
    # 2^20 vectors x 4 outputs x 2^5 thresholds: refused while every output
    # walked its ramp, one lookup in the config's threshold table each now
    code, out, _ = run(capsys, "verify", "--bits", "5", "--fan-in", "4", "--exhaustive")
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    assert result["passed"] is True and result["cases_checked"] == 2**20


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


def test_verify_weights_file_takes_a_nested_matrix(tmp_path, capsys):
    # a nested (fan_in, outputs) matrix is the same layer as its flat, input-major list
    layer = {"n": 3, "alpha_in": 0.1, "alpha_out": 0.1, "weights": [1.1, 0.1, 0.2, 0.2, 0.2, 1.1]}
    results = []
    for weights in (layer["weights"], [[1.1, 0.1], [0.2, 0.2], [0.2, 1.1]]):
        path = tmp_path / "layer.json"
        path.write_text(json.dumps({**layer, "weights": weights, "bias": [0.5, -0.5]}))
        code, out, _ = run(capsys, "verify", "--weights", str(path), "--exhaustive")
        assert code == EXIT_OK
        results.append(json.loads(out)["result"])
    assert results[0] == results[1] and results[0]["cases_checked"] == 8**3


@pytest.mark.parametrize(
    "weights, shape",
    [
        ([[1.0] * 6, [-1.0] * 6], "(2, 6)"),  # once loaded as a 3 x 4 layer, exit 0
        ([[[1.0] * 4]] * 2, "(2, 1, 4)"),
        ([1.0] * 6, "(6,)"),  # not a multiple of 4 entries
    ],
)
def test_verify_weights_file_of_another_shape_is_config_error(tmp_path, capsys, weights, shape):
    layer = {"n": 3, "alpha_in": 1.0, "alpha_out": 1.0, "weights": weights, "bias": [0.0] * 4}
    path = tmp_path / "layer.json"
    path.write_text(json.dumps(layer))
    code, out, err = run(capsys, "verify", "--weights", str(path), "--exhaustive")
    assert code == EXIT_CONFIG and not out
    detail = json.loads(err)["detail"]
    assert f"weights of shape {shape}" in detail
    assert "flat input-major list of a multiple of 4 entries" in detail
    assert "nested (fan_in, 4) matrix" in detail


@pytest.mark.parametrize(
    "n, fan_in, extra, needle",
    [
        (17, 1, ["--samples", "1"], "n=17"),  # wider than --bits accepts
        (4, 6, ["--exhaustive"], "2^24"),  # over the exhaustive budget
        (None, None, ["--bits", "4", "--fan-in", "10", "--exhaustive"], "2^40"),
        # inside the vector budget, but 2^20 x 20 x 8 summed terms
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
    if n is None:  # a random: layer's budgets follow from argv alone
        err = usage_error(capsys, *argv)
        assert "argument --exhaustive: would " in err and needle in err
        return
    layer = {"n": n, "alpha_in": 1, "alpha_out": 1, "weights": [1] * fan_in, "bias": [0]}
    path = tmp_path / "layer.json"
    path.write_text(json.dumps(layer))
    code, _, err = run(capsys, *argv, "--weights", str(path))
    assert code == EXIT_CONFIG  # a layer file's budgets need the file
    assert needle in json.loads(err)["detail"]


def test_verify_checks_budgets_before_building_the_layer(monkeypatch, capsys):
    def unbuildable(**_):
        raise AssertionError("layer built before the budget check")

    monkeypatch.setattr(cli, "QnnLayer", unbuildable)
    err = usage_error(capsys, "verify", "--fan-in", "1024", "--fan-out", "1024", "--exhaustive")
    assert "argument --exhaustive: would walk (2^4)^1024" in err


def test_encode_round_trip_artifact(capsys):
    code, out, _ = run(capsys, "encode", "--codes", "0,3,-2", "--k", "1")
    assert code == EXIT_OK
    rows = json.loads(out)["result"]
    assert rows[0]["spike_time"] is None  # 0 sits in the dead zone
    assert rows[1] == {"code": 3, "spike_time": 4, "bits": rows[1]["bits"], "decoded": 3}


def test_encode_over_its_printed_bit_budget_is_usage_error(capsys, monkeypatch):
    # 400 codes at --bits 16 printed 288 MB and peaked at 2.3 GiB resident
    with pytest.raises(SystemExit) as exc:
        dispatch(["encode", "--bits", "16", "--codes", ",".join(["0"] * 400)])
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "argument --codes: 400 codes x 2^16 bits" in err
    assert f"budget of 2^{cli.ENCODE_BUDGET_LOG2}" in err
    monkeypatch.setattr(cli, "ENCODE_BUDGET_LOG2", 6)  # the bound itself is inclusive
    assert run(capsys, "encode", "--codes", "0,1,2,3")[0] == EXIT_OK
    with pytest.raises(SystemExit) as exc:
        dispatch(["encode", "--codes", "0,1,2,3,4"])
    assert exc.value.code == EXIT_USAGE and "argument --codes: 5 codes" in capsys.readouterr().err
    code, _, err = run(capsys, "encode", "--codes", "0,99")  # outside the code range
    assert code == EXIT_CONFIG and "code 99" in json.loads(err)["detail"]


def test_verify_records_the_seed_only_where_it_draws(capsys):
    argv = ["verify", "--bits", "3", "--imax", "2", "--fan-in", "2", "--fan-out", "2"]
    runs = [run(capsys, *argv, "--exhaustive", "--seed", seed) for seed in ("9", "1")]
    assert runs[0] == runs[1] and runs[0][0] == EXIT_VERIFY_FAILED
    assert "seed" not in json.loads(runs[0][1])["invocation"]
    code, out, _ = run(capsys, *argv, "--samples", "10", "--seed", "9")
    assert code == EXIT_OK and json.loads(out)["invocation"]["seed"] == 9


def test_xbar_replay(capsys):
    code, out, _ = run(capsys, "xbar", "--replay", "reference")
    assert code == EXIT_OK
    # a fixed read-out draws nothing, so its artifact records no seed
    assert json.loads(out)["invocation"] == {"subcommand": "xbar", "replay": "reference"}
    doc = json.loads(out)["result"]
    assert doc["currents_uA"] == pytest.approx([10.1, 0.2, 10.1, 20.0], rel=1e-12)
    assert doc["adc_codes"] == [1, 0, 1, 2]


def test_xbar_fuzz(capsys):
    for bits in ("4", "57"):  # 57: the widest budget whose sums stay exact in int64
        code, out, _ = run(capsys, "xbar", "--fuzz", "25", "--seed", "3", "--bits", bits)
        assert code == EXIT_OK and json.loads(out)["invocation"]["seed"] == 3
        assert json.loads(out)["result"]["failures"] == 0


# Digests of the exact attn JSON bytes and their exit codes; mu=4 (--imax 3)
# reports mismatches and exits 4.
ATTN_JSON_SHA256 = {
    (): ("540b227086027d927757e316a96c7c6b4e1d572ccac5b82be35a26561e50ac98", EXIT_OK),
    ("--imax", "3"): (
        "421123ba448609226fb65f30077c3684ecf81e440070ddfafb02a25fe61d9b8f",
        EXIT_VERIFY_FAILED,
    ),
}


# Digests of the exact verify --exhaustive JSON bytes and their exit codes.
# --imax 2 puts the dead zone off code zero: 3,538 mismatches, counted,
# and the first 50 pinned in order.  That digest changes on purpose when
# off-centre mu is mended (ROADMAP item 2).
VERIFY_EXHAUSTIVE_JSON_SHA256 = {
    ("--bits", "3", "--k", "1"): (
        "39b93547d29d6c7e58c3b7ae221805270b84991389ac97de8d22f41dda816cb8",
        EXIT_OK,
    ),
    ("--bits", "3", "--imax", "2"): (
        "bbe74e8c7c0cb783964ca2e8d08ff52d92ea984d2ae0d8247ce1a9354206d46e",
        EXIT_VERIFY_FAILED,
    ),
    ("--bits", "4", "--k", "2", "--fan-in", "4", "--fan-out", "6", "--seed", "9"): (
        "a0f84fa2d190fcbdc738bac4408724f7d7642a23267b3002536cb4f7534cb6c0",
        EXIT_OK,
    ),
    ("--bits", "4", "--k", "1", "--alpha", "0.37", "--fan-in", "3", "--fan-out", "4", "--seed", "5"): (
        "fdef4878307e7ec9685e17155a72c82b55da5c1992eb0ebbe1f94687d20992a9",
        EXIT_OK,
    ),
    ("--bits", "16", "--k", "3", "--fan-in", "1", "--fan-out", "8", "--seed", "2"): (
        "c273cd6c7723c376455cdd2ce5aace5b53aed33754999bb206fd8738567e4eeb",
        EXIT_OK,
    ),
    # extreme scales: subnormal, the least float, and products that overflow
    ("--bits", "16", "--k", "3", "--fan-in", "1", "--fan-out", "8", "--seed", "2", "--alpha", "1e-310"): (
        "bb1043f9d9c79a86953e0fb07a0dda46f988465e55bd64e57eb23fa59e96e1aa",
        EXIT_OK,
    ),
    ("--bits", "12", "--k", "2", "--fan-in", "1", "--fan-out", "6", "--seed", "4", "--alpha", "5e-324"): (
        "7cfc1136f8a750e6f30c9e667c6075a5e6ac10744cd2407e8813961afdac1e48",
        EXIT_OK,
    ),
    ("--bits", "4", "--k", "1", "--fan-in", "3", "--fan-out", "4", "--seed", "5", "--alpha", "1e300"): (
        "8f7b06e4d2ec154e7b5e9d689d3dd7ec6fb390abb829fd221dc86c92fd1fa1bb",
        EXIT_OK,
    ),
}


@pytest.mark.parametrize("argv", sorted(VERIFY_EXHAUSTIVE_JSON_SHA256))
def test_verify_exhaustive_json_bytes_are_pinned(capsys, argv):
    digest, want = VERIFY_EXHAUSTIVE_JSON_SHA256[argv]
    code, out, _ = run(capsys, "verify", *argv, "--exhaustive")
    assert code == want and sha256(out) == digest


# Digests of the exact sampled verify JSON bytes (all pass: the sampled
# domain compares output codes only, so mu off zero is no mismatch there).
VERIFY_SAMPLED_JSON_SHA256 = {
    ("--bits", "4", "--samples", "100000", "--seed", "7"): (
        "9be4948d0113882da009ea2ffebd7e2eb8eaa250f3080423a8260e346dcf49fc"
    ),
    ("--bits", "3", "--imax", "2", "--samples", "20000", "--seed", "7"): (
        "7ade98aeae92d1f7248b7cf38fa0f1e87b61494c5a885418c017b09eca26d747"
    ),
    ("--bits", "4", "--alpha", "0.37", "--k", "2", "--samples", "50000", "--seed", "3"): (
        "1ce48e04b473b133156f0ee380be69ffc533fd84873b09ea613aecc360dc91a5"
    ),
    ("--bits", "16", "--samples", "256", "--seed", "1"): (
        "c4570fadd73c43c3b9be7bf0c557904a7110248550fab2b863b31f0d1e8245c1"
    ),
}


@pytest.mark.parametrize("argv", sorted(VERIFY_SAMPLED_JSON_SHA256), ids=" ".join)
def test_verify_sampled_json_bytes_are_pinned(capsys, argv):
    code, out, _ = run(capsys, "verify", *argv)
    assert code == EXIT_OK and sha256(out) == VERIFY_SAMPLED_JSON_SHA256[argv]


def test_attn_fuzz(capsys):
    code, out, _ = run(capsys, "attn", "--samples", "5", "--seed", "2")
    assert code == EXIT_OK
    assert json.loads(out)["result"]["mismatches"] == 0
    for extra, (digest, want) in ATTN_JSON_SHA256.items():
        code, out, _ = run(capsys, "attn", "--tokens", "4", "--dk", "4", "--samples", "20", *extra)
        assert code == want and sha256(out) == digest, extra


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


def test_energy_rates_naming_no_component_is_config_error(tmp_path, capsys):
    rates = {name: 0.01 for name, _, _, _ in TransformerBlockShape().components()}
    rates["ffn_inn"] = 0.9
    path = tmp_path / "rates.json"
    path.write_text(json.dumps(rates))
    code, out, err = run(capsys, "energy", "--rates", str(path))
    assert code == EXIT_CONFIG and out == ""
    assert "ffn_inn" in json.loads(err)["detail"]


@pytest.mark.parametrize(
    "shape, field",
    [
        ({"heads": 0}, "heads"),  # d_k divides by it
        ({"hidden": -768}, "hidden"),
        ({"seq": 2.5}, "seq"),
        ({"time_steps": True}, "time_steps"),
        ({"hidden": 8, "heads": 16}, "d_k"),  # hidden // heads floors to 0
    ],
)
def test_energy_bad_shape_is_config_error(tmp_path, capsys, shape, field):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(shape))
    code, _, err = run(capsys, "energy", "--shape", str(path))
    assert code == EXIT_CONFIG
    assert f"{field} must be a positive integer" in json.loads(err)["detail"]


@pytest.mark.parametrize("batch", [10**300, 10**400], ids=["1e300", "1e400"])
def test_energy_shape_past_the_float_range_is_config_error(tmp_path, capsys, batch):
    # its slot counts once leaked an OverflowError traceback with exit 1
    path = tmp_path / "shape.json"
    path.write_text(json.dumps({"batch": batch}))
    code, out, err = run(capsys, "energy", "--shape", str(path))
    assert code == EXIT_CONFIG and out == ""
    assert "more slots than a float holds" in json.loads(err)["detail"]


@pytest.mark.parametrize(
    "argv, flag, text, field",
    [
        (["scenario"], "--params", '{"mac_int4_pj": "x"}', "mac_int4_pj"),
        (["energy", "--format", "csv"], "--params", '{"leak_pj": NaN}', "leak_pj"),
        (["energy"], "--params", '{"weight_bits": 0}', "weight_bits"),
        (["energy"], "--params", '{"leak_pj": %s}' % ("9" * 401), "leak_pj"),
        (["energy"], "--rates", "true", "spike ratio"),
        (["energy"], "--rates", "1.5", "spike ratio"),
    ],
    ids=[
        "params-str",
        "params-nan",
        "params-weight-bits",
        "params-past-float",
        "rates-bool",
        "rates-out-of-range",
    ],
)
def test_malformed_energy_inputs_are_config_errors(tmp_path, capsys, argv, flag, text, field):
    path = tmp_path / "input.json"
    path.write_text(text)
    code, out, err = run(capsys, *argv, flag, str(path))
    assert code == EXIT_CONFIG and out == ""
    assert json.loads(err)["detail"].startswith(f"{field} must ")


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
    # plain TTFS: the mask at the last step silences the lowest code
    ("--baseline", "--bits", "3", "--mode", "asymmetric"): (
        "9eaa2ca4242d4e94e4c4d57d6e881c92f63ceb918a163482b782a54eef8b0277"
    ),
    ("--baseline", "--dist", "laplace", "--scale", "3"): (
        "6772616c08d5e4c432ee12aae8149303bc2119fe1ac63f08699b9256688a62cb"
    ),
}
SWEEP_CSV_SHA256 = {
    (): "1877b9cc8235c9eedad362c7a0f087c6c1e6e9ab3c0b91a4c7858395951225c7",
    ("--calibrate", "0.34"): (
        "db7cbf8f349061c53cd45715d3e96f5218e990ad86de94112aa1e2bfc391bafa"
    ),
}


# Digests of the exact energy, scenario and area JSON bytes.  Beside the
# categories and totals of the golden CSVs they carry the percentages,
# per-component totals, rates, block and resolved unit energies.
MODEL_JSON_SHA256 = {
    ("energy", "--mode", "baseline", "--format", "json"): (
        "37527a61074b77db37d055e743c8321cf561de6dcfd9cba123a01bf6960db4d4"
    ),
    ("energy", "--mode", "mttfs", "--format", "json"): (
        "61a39f23673c784ebac0999fc6cbd33610c972f210eb474c345485e99ffa27c1"
    ),
    ("energy", "--mode", "deadzone", "--format", "json"): (
        "d9b1b021a416d2d73d3bce90b999f41f6745fdec65be494c7970812532c519e8"
    ),
    ("energy", "--mode", "msu", "--format", "json"): (
        "7d0dc32e34f4a6f5d4f072bb90d9a35c84d1bb20713a7aa204144e9f51274368"
    ),
    ("scenario", "--format", "json"): (
        "2efd008a22878f11a52a067db99d703f30ee7d91c1afd1e8ab1adb207f06c416"
    ),
    ("area",): "62f56217d8291f6118a7372f353c5657a2ab762417226996a210af4648576de1",
}


@pytest.mark.parametrize("argv", sorted(MODEL_JSON_SHA256), ids=" ".join)
def test_model_json_bytes_are_pinned(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK and sha256(out) == MODEL_JSON_SHA256[argv]


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
    argv = ("stats", "--count", "2000", "--baseline", "--seed", "8")
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert "i_max=15 k=0" in out and "silent decodes to mu=-8" in out
    masked_code, masked_out, _ = run(capsys, "stats", "--count", "2000", "--seed", "8")
    assert masked_code == EXIT_OK
    assert "silent decodes to mu=0" in masked_out

    def silence(text):
        line = [l for l in text.splitlines() if "silence_fraction=" in l][0]
        return float(line.split("=")[1])

    assert silence(out) < silence(masked_out)


@pytest.mark.parametrize(
    "extra",
    [argv for argv in STATS_CSV_SHA256 if "--baseline" in argv],
    ids=" ".join,
)
def test_stats_baseline_is_the_mask_at_the_last_step(capsys, extra):
    bits = int(extra[extra.index("--bits") + 1]) if "--bits" in extra else 4
    common = ("stats", "--count", "500", "--seed", "4")
    baseline = run(capsys, *common, *extra)
    rest = [arg for arg in extra if arg != "--baseline"]
    assert baseline[0] == EXIT_OK
    assert run(capsys, *common, *rest, "--imax", str(2**bits - 1)) == baseline


@pytest.mark.parametrize(
    "argv, band",
    [
        # the dead zone holds code_max, so the band is [7, inf): at most half the mass
        (["--imax", "0", "--calibrate", "0.5"], "[7.0, inf)"),
        # plain TTFS silences code_min, a band below the mean: at most half the mass
        (["--baseline", "--calibrate", "0.6"], "[-inf, -7.0)"),
        # the same band at a huge scale, once calibrated to sigma inf
        (["--alpha", "1e299", "--imax", "0", "--calibrate", "0.9"], "[7e+299, inf)"),
    ],
)
def test_stats_refuses_an_unreachable_calibration(capsys, argv, band):
    code, out, err = run(capsys, "stats", "--count", "100", *argv)
    assert code == EXIT_CONFIG and out == ""
    detail = json.loads(err)["detail"]
    assert band in detail and f"silence {argv[-1]}" in detail


def test_stats_calibrates_a_band_that_reaches_the_range_edge(capsys):
    # asymmetric mu = 0 is code_min: the clipped lower tail is silent too
    argv = ("stats", "--mode", "asymmetric", "--calibrate", "0.6", "--count", "20000")
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    line = [l for l in out.splitlines() if "silence_fraction=" in l][0]
    assert abs(float(line.split("=")[1]) - 0.6) < 0.02


def test_stats_calibrates_a_band_whose_mass_rises_with_sigma(capsys):
    # plain TTFS silences code_min: the band [-inf, -7) excludes the mean
    code, out, _ = run(capsys, "stats", "--baseline", "--calibrate", "0.3", "--count", "20000")
    assert code == EXIT_OK
    line = [l for l in out.splitlines() if "silence_fraction=" in l][0]
    assert abs(float(line.split("=")[1]) - 0.3) < 0.02


@pytest.mark.parametrize(
    "argv, target",
    [
        # the band [0, 1) beside loc = 3 peaks near 0.09 at some sigma
        (["stats", "--loc", "3", "--calibrate", "0.05"], 0.05),
        (["sweep", "--loc", "3", "--calibrate", "0.05"], 0.05),
        # an off-centre dead zone, codes 2..4: the band [2, 5) peaks near 0.21
        (["stats", "--imax", "4", "--k", "1", "--calibrate", "0.1"], 0.1),
    ],
)
def test_calibration_meets_a_finite_band_beside_loc(capsys, argv, target):
    code, out, _ = run(capsys, *argv, "--count", "20000")
    assert code == EXIT_OK
    if argv[0] == "stats":
        line = [l for l in out.splitlines() if "silence_fraction=" in l][0]
        silence = float(line.split("=")[1])
    else:  # the sweep calibrates at k = 0, its row "0,silence,..."
        silence = float(next(l for l in out.splitlines() if l.startswith("0,")).split(",")[1])
    assert abs(silence - target) < 0.01


def test_sweep_table_with_reference_column(capsys):
    for extra, digest in SWEEP_CSV_SHA256.items():
        code, out, _ = run(capsys, "sweep", "--count", "500", "--kmax", "2", "--seed", "4", *extra)
        assert code == EXIT_OK
        assert sha256(out) == digest, extra
    assert "reference_silence_pct" in out
    assert "61.2" in out  # logged alongside, not asserted


@pytest.mark.parametrize("command", ["stats", "sweep"])
@pytest.mark.parametrize(
    "flag, value",
    [("loc", "inf"), ("loc", "-inf"), ("loc", "nan"), ("scale", "inf"), ("scale", "nan")],
)
def test_non_finite_sampler_flags_are_config_errors(capsys, command, flag, value):
    code, out, err = run(capsys, command, "--count", "50", f"--{flag}={value}")
    assert code == EXIT_CONFIG and out == ""
    assert json.loads(err)["detail"].startswith(f"{flag} must be")


def test_sweep_kmax_past_all_silent_is_config_error(capsys):
    # at 2 bits, radius 3 already silences every time of the 4-step window;
    # exit 2 names the flag, as encode's and every range check's refusal does
    code, out, _ = run(capsys, "sweep", "--bits", "2", "--kmax", "3", "--count", "50")
    assert code == EXIT_OK
    assert out.strip().splitlines()[-1].startswith("3,1.000000,")
    err = usage_error(capsys, "sweep", "--bits", "2", "--kmax", "4", "--count", "50")
    assert "argument --kmax: 4 exceeds 2^2 - 1 = 3" in err


def test_sweep_encodes_once_whatever_kmax(capsys):
    # 2^17 samples x 4096 radii once exceeded a budget of 2^28 encodes (exit 2);
    # one encode at radius 0 serves every radius
    code, out, _ = run(capsys, "sweep", "--bits", "12", "--kmax", "4095", "--count", "131072")
    assert code == EXIT_OK
    rows = [line for line in out.splitlines() if not line.startswith("#")][1:]
    assert len(rows) == 4096 and rows[-1].startswith("4095,1.000000,")
    err = usage_error(capsys, "sweep", "--bits", "12", "--kmax", "4096", "--count", "131072")
    assert "argument --kmax: 4096 exceeds 2^12 - 1 = 4095" in err


@pytest.mark.parametrize(
    "extra",
    [
        (),
        ("--bits", "5", "--imax", "3", "--dist", "laplace", "--scale", "4"),
        ("--bits", "3", "--mode", "asymmetric", "--imax", "7", "--alpha", "0.37"),
    ],
    ids=lambda extra: " ".join(extra) or "default",
)
def test_stats_silence_at_k_is_the_sweep_row_k(capsys, extra):
    common = ("--count", "3000", "--seed", "11", *extra)
    code, sweep, _ = run(capsys, "sweep", "--kmax", "3", *common)
    assert code == EXIT_OK
    rows = {line.split(",")[0]: line.split(",")[1] for line in sweep.splitlines()[-4:]}
    for k in range(4):
        code, stats, _ = run(capsys, "stats", "--k", str(k), *common)
        assert code == EXIT_OK
        assert f"# silence_fraction={rows[str(k)]}\n" in stats, k


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
    for value in ("not-a-number", "-1"):  # a negative seed is refused before numpy sees it
        monkeypatch.setenv("MATTERHORN_SEED", value)
        code, _, err = run(capsys, "stats", "--count", "10")
        assert code == EXIT_CONFIG
        assert "MATTERHORN_SEED" in json.loads(err)["detail"]


@pytest.mark.parametrize("subcommand", ["encode", "energy", "scenario", "area"])
def test_seed_only_where_something_is_drawn(monkeypatch, capsys, subcommand):
    argv = [subcommand, "--codes", "0"] if subcommand == "encode" else [subcommand]
    with pytest.raises(SystemExit) as exc:
        dispatch([*argv, "--seed", "1"])
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    monkeypatch.setenv("MATTERHORN_SEED", "-1")  # only the subcommands that draw read it
    assert run(capsys, *argv)[0] == EXIT_OK


def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "area", "--out", str(path))
    assert code == EXIT_OK and out == ""
    assert json.loads(path.read_text())["result"]["macros_per_block"] == 108
