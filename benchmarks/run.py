"""Benchmark harness for matterhorn's verified spiking paths.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all --seconds S

Runs from the root of a source checkout and imports the library from its
``src`` directory.  Each workload runs in a fresh single-threaded process
(BLAS and OpenMP pinned to one thread); set-up is timed in that process and
in ``SETUP_SAMPLES`` more processes that only set up, and ``setup_s`` is
their median.  Every top-level call is checked against a reference outside
the timed region.

``--trace 0`` reports the end-to-end metrics:

- ``items_per_s``: verified items per second over the timed phase: one
  round's items over the sum of its calls' median times (see
  ``worker.run_rounds``).  Each call's time is rescaled to nominal host
  speed by a fixed reference loop run beside it (see ``worker.Clock``),
  because the shared host's speed changes by more than the bound.
- ``setup_s``: import ``matterhorn`` and build the workload's objects,
  rescaled to nominal host speed the same way.
- ``peak_rss_mb``: peak resident memory of the workload process.

Failed calls (raised, disagreed with the reference, or checked the wrong
number of items) are reported as ``failed`` out of ``attempted``; their
ratio is printed as ``fail_frac``.

``--trace 1`` reports per-layer metrics from a run that wraps the library's
functions (``layertrace.py``): calls and self time per item for each traced
function, the hardware counts, and ``trace_overhead``.

Every metric is printed as ``name value unit``; the last line is one JSON
object.  ``--workload all`` runs every workload both ways.  The exit code is
4 when any call failed its check, 2 when the checkout has no library and 1
when a workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("equiv-exhaustive", "equiv-sampled", "msu-block", "attn-heads")
SETUP_SAMPLES = 8
CHILD_TIMEOUT_S = 170
THREAD_PINS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
EXIT_CHILD_FAILED = 1
EXIT_NO_LIBRARY = 2
EXIT_CHECK_FAILED = 4


class ChildFailed(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(args: list[str]) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S
    )
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine_info() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": git_sha(),
        "threads": THREAD_PINS,
    }


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One result object; set-up samples come from separate processes."""
    base = ["--workload", name, "--seed", str(seed)]

    def setup_samples() -> list[float]:
        return [run_child([*base, "--setup-only"])["setup_s"] for _ in range(SETUP_SAMPLES // 2)]

    # Set-up samples straddle the main run, so a slow spell of the shared
    # host does not cover all of them.
    setups = [] if trace else setup_samples()
    main = run_child([*base, "--seconds", str(seconds), "--trace", str(trace)])
    result = {
        "correct": main["failed"] == 0,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": main["metrics"],
    }
    if not trace:
        setups += [main["setup_s"], *setup_samples()]
        result["metrics"].update(
            setup_s={"value": statistics.median(setups), "unit": "s"},
            peak_rss_mb={"value": main["peak_rss_mb"], "unit": "MiB"},
        )
    return result


def report(prefix: str, result: dict) -> None:
    fail_frac = result["failed"] / result["attempted"]
    print(f"{prefix}fail_frac {fail_frac:.6g} fraction ({result['failed']}/{result['attempted']})")
    for name, m in sorted(result["metrics"].items()):
        print(f"{prefix}{name} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "matterhorn" / "__init__.py").is_file():
        print(f"no matterhorn sources under {SRC}", file=sys.stderr)
        return EXIT_NO_LIBRARY

    os.environ.update(THREAD_PINS)  # before numpy loads, here and in every child
    print("# " + json.dumps({"machine": machine_info(), "seed": args.seed}))
    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    results = []
    try:
        for name, trace in runs:
            result = run_workload(name, args.seed, args.seconds, trace)
            prefix = f"{name}/" if args.workload == "all" else ""
            report(prefix, result)
            results.append((prefix, result))
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark child failed: {exc}", file=sys.stderr)
        return EXIT_CHILD_FAILED

    final = {
        "correct": all(r["correct"] for _, r in results),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": {p + k: m for p, r in results for k, m in r["metrics"].items()},
    }
    print(json.dumps(final))
    return 0 if final["correct"] else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
