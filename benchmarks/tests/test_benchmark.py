"""The benchmark's own checks: negative controls, repeatability, tracing
hygiene, and agreement between BENCHMARK.json, map.json and the harness.

Run from the repository root with ``python3 -m pytest benchmarks/tests``.
Each measured call uses ``seconds=0``: a warm-up call plus one whole round.
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import matterhorn
import run
from layertrace import TARGETS, Tracer, _library_modules
from matterhorn import numerics, spike
from worker import measure
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MAP = json.loads((BENCH / "map.json").read_text())
HELD_OUT_SEED = 2027
EXACT_COUNTS = (
    "spike.silent_frac",
    "attention.events_per_slot",
    "numerics.fraction_constructions_per_item",
)


def fail_frac(name, seed, control=False, trace=False):
    wl = WORKLOADS[name](seed, control=control)
    wl.prepare_references()
    _, tally = measure(wl, 0, trace)
    return tally.failed / tally.attempted


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_negative_control_is_caught(name):
    # equiv-*: theta_shift=1; msu-block: one flipped weight sign in the
    # reference; attn-heads: one perturbed V code in the reference.
    assert fail_frac(name, seed=1, control=True) > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_held_out_seed_passes(name):
    assert fail_frac(name, seed=HELD_OUT_SEED) == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    def counts():
        wl = WORKLOADS[name](5)
        wl.prepare_references()
        metrics, tally = measure(wl, 0, trace=True)
        assert tally.failed == 0
        return {
            k: v
            for k, (v, _) in metrics.items()
            if k.endswith(".calls_per_item") or k in EXACT_COUNTS
        }

    first = counts()
    assert first == counts()
    assert any(v > 0 for k, v in first.items() if k.endswith(".calls_per_item"))


def snapshot():
    """Every binding the tracer may replace, by identity."""
    state = {}
    for mod in _library_modules():
        for key, value in vars(mod).items():
            state[(mod.__name__, key)] = value
            if callable(value) and hasattr(value, "__defaults__"):
                state[(mod.__name__, key, "__defaults__")] = value.__defaults__
    for _, owner, attr in TARGETS:
        if isinstance(owner, type):
            state[(owner.__qualname__, attr)] = owner.__dict__[attr]
    return state


def test_tracer_accounts_self_time_and_restores_bindings():
    before = snapshot()
    original_fire = matterhorn.spike.fire_simulated
    wl = WORKLOADS["equiv-sampled"](3)
    case = wl.round(0)[0]
    tracer = Tracer()
    tracer.install()
    try:
        assert matterhorn.spike.fire_simulated is not original_fire
        assert numerics.Fraction is not before[("matterhorn.numerics", "Fraction")]
        with tracer.case(0, wl.name):
            report = case.run()
    finally:
        tracer.uninstall()
    assert wl.check(case.key, report)

    # Bookkeeping: the self times under the case span add up to its
    # duration, and the per-function aggregates agree with the span's total.
    (totals,) = tracer.cases
    resolution_ns = math.ceil(time.get_clock_info("perf_counter").resolution * 1e9)
    wrapped_self = sum(agg.self_ns for agg in tracer.aggregates.values())
    assert wrapped_self == totals.wrapped_self_ns > 0
    assert abs(totals.self_ns + wrapped_self - totals.duration_ns) <= resolution_ns
    assert sum(agg.calls for agg in tracer.aggregates.values()) > wl.SAMPLES
    spans = [s for s in tracer.spans if s.case == 0]
    assert {s.name for s in spans} == {"conversion.verify_equivalence", wl.name}

    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert matterhorn.spike.fire_simulated is original_fire
    assert spike.fire_simulated is original_fire


def test_self_time_excludes_a_nested_call_of_known_length():
    def spin(ns):
        end = time.perf_counter_ns() + ns
        while time.perf_counter_ns() < end:
            pass

    tracer = Tracer()
    child = tracer._wrap("spike.decode_spike", lambda: spin(60_000_000))
    parent = tracer._wrap("spike.fire_simulated", lambda: (spin(20_000_000), child()))
    with tracer.case(0, "known"):
        parent()
    own, nested = tracer.aggregates["spike.fire_simulated"], tracer.aggregates["spike.decode_spike"]
    (totals,) = tracer.cases
    # 20 ms of the parent's own work, and none of the child's 60 ms; the
    # margin covers scheduling on a shared host, far below the 60 ms.
    assert 20_000_000 <= own.self_ns < 35_000_000
    assert 60_000_000 <= nested.self_ns < 75_000_000
    assert own.total_ns >= own.self_ns + nested.total_ns
    assert totals.self_ns < 5_000_000


def test_spec_matches_harness():
    per_layer = set(Tracer().metrics(1)) | {"trace_overhead"}
    assert {m["name"] for m in SPEC["per_layer"]} == per_layer
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    assert end_to_end == {"items_per_s", "setup_s", "peak_rss_mb"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS) == list(run.WORKLOADS)
    mapped = {m for row in MAP["layers"] for m in row["metrics"]}
    assert mapped == per_layer - {"trace_overhead"}
    for row in MAP["layers"]:
        assert set(row["moves_on"]) | set(row["unchanged_on"]) == set(WORKLOADS)


def test_run_refuses_a_checkout_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "equiv-sampled", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
