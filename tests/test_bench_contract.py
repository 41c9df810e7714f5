"""The benchmark's span recorder (perfbench/spans.py) still fits the package.

The recorder wraps the functions it names in ``TRACED`` and binds some of
their arguments by name to derive counters.  Renaming or deleting a traced
function, or one of those parameters, would break every traced benchmark run;
these tests catch it.  spans.py is read, never written (no bytecode cache).
"""

import importlib
import inspect
import sys
import types
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# The parameters the recorder's counters bind, per traced function.
BOUND = {
    "qrotor.spectrum.solve_radial": {"grid_points"},
    "qrotor.spectrum.solve_axial": {"grid_points"},
    "qrotor.fivelevel.evolve_populations": {"steps_per_period"},
    "qrotor.raman.stack_average": {"delta", "ring_shifts"},
    "qrotor.output.write_csv": {"path"},
    "qrotor.output.write_json": {"path"},
    "qrotor.output.parallel_map": {"fn", "workers"},
}


@pytest.fixture(scope="module")
def spans():
    module = types.ModuleType("perfbench_spans")
    sys.modules[module.__name__] = module   # dataclasses look the module up
    try:
        exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
        yield module
    finally:
        del sys.modules[module.__name__]


def _traced(spans):
    """(dotted name, module, function name) of every function the recorder wraps."""
    return [(f"{mod}.{fn}", importlib.import_module(mod), fn)
            for mod, fns in spans.TRACED.items() for fn in fns]


def test_recorder_installs_and_uninstalls(spans):
    originals = {name: getattr(module, fn) for name, module, fn in _traced(spans)}
    recorder = spans.Recorder()
    recorder.install()
    try:
        for name, module, fn in _traced(spans):
            assert getattr(module, fn) is not originals[name], name
    finally:
        recorder.uninstall()
    for name, module, fn in _traced(spans):
        assert getattr(module, fn) is originals[name], name


def test_traced_functions_take_the_arguments_the_counters_bind(spans):
    traced = _traced(spans)
    assert set(BOUND) <= {name for name, _, _ in traced}
    for name, module, fn in traced:
        params = inspect.signature(getattr(module, fn)).parameters
        assert BOUND.get(name, set()) <= set(params), name
