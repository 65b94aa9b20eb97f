"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each traced library function, at every module
binding callers look it up through (``spike.ge_scaled`` as well as
``numerics.ge_scaled``) and on the class for methods, with a wrapper that
keeps per-function aggregates: calls, total time and self time.  Self time
is a call's duration minus the time of the wrapped calls nested inside it.
Spans (name, start, end, case id) are recorded only for the benchmark's
top-level cases and the wrapped calls made directly from them.
``Tracer.uninstall`` puts every original object back.

Besides time, the wrappers count what the simulated hardware did: silent
trains among the trains returned, time-accumulation events against window
slots, and ``Fraction`` constructions in ``numerics`` (through a counting
callable bound to ``matterhorn.numerics.Fraction``).
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from types import FunctionType

from matterhorn import attention, conversion, crossbar, numerics, qnn, spike

# (metric prefix, owner, attribute); the owner is a module or a class.
TARGETS = (
    ("numerics.ge_scaled", numerics, "ge_scaled"),
    ("numerics.floor_ratio", numerics, "floor_ratio"),
    ("spike.integrate", spike, "integrate"),
    ("spike.fire_simulated", spike, "fire_simulated"),
    ("spike.candidate_fire_time", spike, "candidate_fire_time"),
    ("spike.decode_spike", spike, "decode_spike"),
    ("spike.encode_integer", spike, "encode_integer"),
    ("conversion.verify_equivalence", conversion, "verify_equivalence"),
    ("qnn.layer_forward", qnn, "layer_forward"),
    ("qnn.QnnLayer.pre_activation", qnn.QnnLayer, "pre_activation"),
    ("qnn.quantize", qnn, "quantize"),
    ("qnn.dead_zone_filter", qnn, "dead_zone_filter"),
    ("crossbar.tiled_vmm", crossbar, "tiled_vmm"),
    ("crossbar.CrossbarMacro.from_signed", crossbar.CrossbarMacro, "from_signed"),
    ("crossbar.map_signed_weights", crossbar, "map_signed_weights"),
    ("crossbar.bit_serial_vmm", crossbar, "bit_serial_vmm"),
    ("crossbar.analog_column_readout", crossbar, "analog_column_readout"),
    ("attention.attention_pipeline", attention, "attention_pipeline"),
    ("attention.spike_matrix", attention, "spike_matrix"),
    ("attention.time_based_accumulate", attention, "time_based_accumulate"),
    ("attention.normalize_scores", attention, "normalize_scores"),
)


@dataclass
class Aggregate:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


@dataclass(frozen=True)
class Span:
    case: int
    name: str
    start_ns: int
    end_ns: int


@dataclass(frozen=True)
class CaseTotals:
    """Duration of one case span and the self time of everything under it."""

    case: int
    duration_ns: int
    self_ns: int  # the case span's own self time
    wrapped_self_ns: int  # summed self time of every wrapped call inside it


def _library_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "matterhorn" or name.startswith("matterhorn."))
    ]


def _library_functions(modules):
    """Plain functions defined in the library, each once."""
    seen = {}
    for mod in modules:
        for value in vars(mod).values():
            if isinstance(value, FunctionType) and value.__module__.startswith("matterhorn"):
                seen[id(value)] = value
    return list(seen.values())


class Tracer:
    """Aggregates, spans and hardware counts for one traced phase."""

    def __init__(self) -> None:
        self.aggregates = {name: Aggregate() for name, _, _ in TARGETS}
        self.spans: list[Span] = []
        self.cases: list[CaseTotals] = []
        self.trains = 0
        self.silent_trains = 0
        self.acc_events = 0
        self.acc_slots = 0
        self.fractions = 0
        self._patches: list[tuple[object, str, object]] = []
        # One frame per open span: [nested wrapped time, own self total].
        self._stack: list[list[int]] = [[0, 0]]
        self._case_id = -1

    # --- patching -------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _library_modules()
        functions = _library_functions(modules)
        wrappers = {}  # id(original function) -> its wrapper
        for name, owner, attr in TARGETS:
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                self._patch(owner, attr, classmethod(self._wrap(name, original.__func__)))
            elif isinstance(owner, type):
                self._patch(owner, attr, self._wrap(name, original))
            else:
                wrappers[id(original)] = self._wrap(name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._patch(mod, key, wrappers[id(value)])
        # A default argument is a binding too (attention_pipeline's normalizer).
        for fn in functions:
            defaults = fn.__defaults__ or ()
            if any(id(d) in wrappers for d in defaults):
                swapped = tuple(wrappers.get(id(d), d) for d in defaults)
                self._patch(fn, "__defaults__", swapped, defaults)
        self._patch(numerics, "Fraction", self._counting_fraction)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, value, original=None) -> None:
        if original is None:
            # Read through __dict__ so a classmethod is restored as the descriptor.
            original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def _counting_fraction(self, *args, **kwargs) -> Fraction:
        self.fractions += 1
        return Fraction(*args, **kwargs)

    # --- spans ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        agg = self.aggregates[name]
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            frame = [0, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[0]
                agg.calls += 1
                agg.total_ns += duration
                agg.self_ns += own
                parent = stack[-1]
                parent[0] += duration
                parent[1] += frame[1] + own
                if len(stack) == 2:
                    self.spans.append(Span(self._case_id, name, start, end))
            self._observe(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _observe(self, result) -> None:
        if isinstance(result, spike.SpikeTrain):
            self.trains += 1
            self.silent_trains += result.is_silent
        elif isinstance(result, attention.TimeAccState):
            self.acc_events += result.events
            self.acc_slots += result.t + 1  # a finished pass ends at t = window - 1

    @contextmanager
    def case(self, case_id: int, name: str):
        """Span one top-level call; wrapped calls inside it share its id."""
        if len(self._stack) != 1:
            raise RuntimeError("cases do not nest")
        self._case_id = case_id
        frame = [0, 0]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            duration = end - start
            self.spans.append(Span(case_id, name, start, end))
            self.cases.append(CaseTotals(case_id, duration, duration - frame[0], frame[1]))

    # --- metrics --------------------------------------------------------

    def metrics(self, items: int) -> dict[str, tuple[float, str]]:
        """Per-item figures: calls and self time per function, plus counts."""
        out: dict[str, tuple[float, str]] = {}
        for name, agg in self.aggregates.items():
            out[f"{name}.calls_per_item"] = (agg.calls / items, "calls/item")
            out[f"{name}.self_ns_per_item"] = (agg.self_ns / items, "ns/item")
        out["numerics.fraction_constructions_per_item"] = (self.fractions / items, "count/item")
        out["spike.silent_frac"] = (
            self.silent_trains / self.trains if self.trains else 0.0,
            "fraction",
        )
        out["attention.events_per_slot"] = (
            self.acc_events / self.acc_slots if self.acc_slots else 0.0,
            "events/slot",
        )
        return out

