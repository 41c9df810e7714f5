"""The benchmark's span recorder (perfbench/spans.py) still fits the package.

The recorder wraps the functions it names in ``TRACED`` and binds some of
their arguments by name to derive counters.  Renaming or deleting a traced
function, or one of those parameters, would break every traced benchmark run;
these tests catch it, and the last one pins what one counter means.  spans.py
is read, never written (no bytecode cache).
"""

import importlib
import inspect
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import qrotor._varpro
import qrotor.raman as raman

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


def test_fit_model_calls_count_the_fit_evaluations(monkeypatch):
    # `raman.fit_model.calls` counts the lineshape fit's evaluations: the
    # basis calls fit_model once per evaluation, so on fig4's calibrated
    # stack the calls equal the sum of nfev over the fit's varpro solutions
    omega_r = 3.142
    tau = np.pi / omega_r
    cal = raman.calibrate_quadratic_scale(omega_r, tau, 80, -0.5374 * omega_r)
    ls = raman.lineshape_from_rabi(omega_r, tau, raman.ring_shifts("quadratic", 80, cal.scale_s),
                                   np.linspace(-8 * omega_r, 8 * omega_r, 1601))
    calls, solutions = [], []
    fit_model, varpro = raman.fit_model, qrotor._varpro.varpro

    def counting(*args):
        calls.append(None)
        return fit_model(*args)

    def recording(*args, **kwargs):
        solutions.append(varpro(*args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(raman, "fit_model", counting)
    monkeypatch.setattr(qrotor._varpro, "varpro", recording)
    raman.fit_lineshape(ls)
    assert solutions and len(calls) == sum(sol.nfev for sol in solutions)
