"""The benchmark harness binds library names by attribute; these tests fail
here, in the library's own suite, when a name it traces or calls is gone."""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def load(name):
    """Import ``benchmarks/<name>.py`` by path, once."""
    key = f"benchmarks_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, BENCHMARKS / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    return sys.modules[key]


def test_every_traced_target_is_defined_on_its_owner():
    for name, owner, attr in load("layertrace").TARGETS:
        assert attr in owner.__dict__, f"{name}: {owner.__name__} defines no {attr!r}"


@pytest.mark.parametrize("workload", sorted(load("workloads").WORKLOADS))
def test_first_round_of_each_workload_matches_its_reference(workload):
    wl = load("workloads").WORKLOADS[workload](seed=0)
    wl.prepare_references()
    cases = wl.round(0)
    assert cases
    for case in cases:
        assert wl.check(case.key, case.run()), (workload, case.key)


@pytest.mark.parametrize("workload", sorted(load("workloads").WORKLOADS))
def test_first_round_of_each_negative_control_fails_a_check(workload):
    # a control whose fault every check misses would let a broken library pass
    wl = load("workloads").WORKLOADS[workload](seed=0, control=True)
    wl.prepare_references()
    assert not all(wl.check(case.key, case.run()) for case in wl.round(0)), workload
