"""One workload in one fresh process; prints one JSON object on its last line.

    python3 benchmarks/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/worker.py --workload NAME --seed N --setup-only

``run.py`` starts this with ``src`` on ``PYTHONPATH`` and BLAS/OpenMP pinned
to one thread.  Set-up time runs from before ``import matterhorn`` to the
end of the workload constructor, so it is measured before numpy is loaded.

On a 2-core host shared with other tenants, speed changes by tens of
percent between runs: over five seeds, raw items per second spread by 0.13
to 0.28 (quartile distance over median) on the four workloads.  Every
time reported is therefore rescaled by one fixed reference loop, which no
change to the library touches, timed beside the measured work: each time is
multiplied by the loop's nominal time over its measured time.  That brought
the same runs' spread down to 0.02 to 0.05.
"""

import time

_REFERENCE_SOURCE = """
class Params:
    __slots__ = ("n", "alpha", "mode")
    def __init__(self, n, alpha=1.0, mode="symmetric"):
        self.n, self.alpha, self.mode = n, alpha, mode
    def __eq__(self, other):
        return (self.n, self.alpha, self.mode) == (other.n, other.alpha, other.mode)
    @property
    def window(self):
        return 2 ** self.n
    def code(self, t):
        return self.n - t if t > 0 else None
def doubled(xs):
    return [x * 2 for x in xs if x % 3]
"""

# The loop's time on a quiet 2-core Xeon at 2.0 GHz.  Only ratios between
# runs matter; this constant keeps the figures close to host seconds.
_NOMINAL_NS = 3.0e5
_SETUP_LOOP_BUDGET_NS = 1e8


def _reference_loop() -> None:
    """Pure-Python work: compile and run a small module, then call into it."""
    namespace: dict = {}
    exec(compile(_REFERENCE_SOURCE, "<reference>", "exec"), namespace)
    namespace["doubled"](range(200))


def _loop_ns(budget_ns: float) -> float:
    """Mean time of the reference loop over repeats lasting at least ``budget_ns``."""
    reps, start = 0, time.perf_counter_ns()
    while True:
        _reference_loop()
        reps += 1
        elapsed = time.perf_counter_ns() - start
        if elapsed >= budget_ns:
            return elapsed / reps


# Set-up time is scaled by samples of the loop taken just before the import
# and just after the build.
_LOOP_BEFORE_SETUP_NS = _loop_ns(_SETUP_LOOP_BUDGET_NS)
_T0 = time.perf_counter()
import matterhorn  # noqa: E402

_T_IMPORT = time.perf_counter() - _T0

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from layertrace import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class Clock:
    """Times calls and rescales each by the reference loop run beside it.

    After each call the loop runs for a quarter of the call's time (at least
    once), so a long call is compared with a long sample of host speed; a
    tenth left twice the spread on ``equiv-exhaustive``.
    """

    def __init__(self) -> None:
        self.last_ns = _loop_ns(0)

    def scale(self, call_ns: int) -> float:
        """Call time at nominal host speed, from the loops either side of it."""
        before, self.last_ns = self.last_ns, _loop_ns(call_ns / 4)
        return call_ns * _NOMINAL_NS / ((before + self.last_ns) / 2)


class Tally:
    """Counts top-level calls and the ones that failed their check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def run(self, wl, case, tracer=None) -> int:
        """One top-level call; returns its time, taken before the check."""
        case_id = self.attempted
        self.attempted += 1
        start = time.perf_counter_ns()
        try:
            if tracer is None:
                result = case.run()
            else:
                with tracer.case(case_id, wl.name):
                    result = case.run()
        except Exception:  # a raising call is a failed call; keep measuring
            elapsed = time.perf_counter_ns() - start
            print(f"call {case.key} raised:", file=sys.stderr)
            traceback.print_exc()
            self.failed += 1
            return elapsed
        elapsed = time.perf_counter_ns() - start
        if not wl.check(case.key, result):
            print(f"call {case.key} disagreed with the reference", file=sys.stderr)
            self.failed += 1
        return elapsed


def run_rounds(wl, tally, clock, seconds, rounds, tracer=None) -> tuple[int, float]:
    """Whole rounds until ``seconds`` have passed.

    Returns the items done and the rate in items per scaled second: the
    items of one round over the sum of its calls' times, where each call's
    time is the median, over the rounds, of that position in the round.
    Every configuration thus counts by its share of the work, and the median
    sheds calls that a burst of load on the shared host slowed more than
    the reference loop saw.
    """
    items, times = 0, []
    deadline = time.perf_counter() + seconds
    for r in rounds:
        cases = wl.round(r)
        times.append([clock.scale(tally.run(wl, case, tracer)) for case in cases])
        items += sum(case.items for case in cases)
        if time.perf_counter() >= deadline:
            break
    round_ns = sum(statistics.median(position) for position in zip(*times))
    return items, items / len(times) / round_ns * 1e9


def measure(wl, seconds: float, trace: bool) -> tuple[dict, Tally]:
    """End-to-end metrics (``trace=False``) or per-layer metrics (``True``)."""
    tally = Tally()
    tally.run(wl, wl.round(0)[0])  # warm-up
    clock = Clock()
    if not trace:
        _, rate = run_rounds(wl, tally, clock, seconds, itertools.count())
        return {"items_per_s": (rate, "items/s")}, tally
    # The traced run repeats round 0, so its counts repeat exactly per seed.
    _, untraced = run_rounds(wl, tally, clock, seconds / 2, itertools.repeat(0))
    tracer = Tracer()
    tracer.install()
    try:
        items, traced = run_rounds(wl, tally, clock, seconds / 2, itertools.repeat(0), tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(items)
    metrics["trace_overhead"] = (untraced / traced, "ratio")
    return metrics, tally


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = Path(__file__).resolve().parents[1] / "src"
    if Path(matterhorn.__file__).resolve().parent.parent != src:
        print(f"matterhorn imported from {matterhorn.__file__}, not {src}", file=sys.stderr)
        return 3

    t_build = time.perf_counter()
    wl = WORKLOADS[args.workload](args.seed)
    setup_s = _T_IMPORT + time.perf_counter() - t_build
    loop_ns = (_LOOP_BEFORE_SETUP_NS + _loop_ns(_SETUP_LOOP_BUDGET_NS)) / 2
    setup_s *= _NOMINAL_NS / loop_ns
    out = {"setup_s": setup_s}
    if not args.setup_only:
        wl.prepare_references()
        metrics, tally = measure(wl, args.seconds, bool(args.trace))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out.update(
            metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            attempted=tally.attempted,
            failed=tally.failed,
            peak_rss_mb=rss_mb,
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
