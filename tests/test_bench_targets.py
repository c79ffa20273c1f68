"""Every function the benchmark's span tracer wraps exists in the package.

The tracer (``mwbench/tracer.py``) looks its targets up by name when a
traced run starts, so a renamed or deleted function would otherwise break
only ``mwbench/run.py --trace`` and ``--self-test``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "mwbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("mwbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


tracer_module = _load_tracer()
TARGETS = tracer_module.TARGETS


@pytest.mark.parametrize("module_name,path", TARGETS,
                         ids=["%s.%s" % target for target in TARGETS])
def test_tracer_target_resolves(module_name, path):
    owner = importlib.import_module("mwlattice." + module_name)
    if "." in path:
        cls_name, attr = path.split(".")
        owner = getattr(owner, cls_name)
        assert attr in vars(owner)
        target = vars(owner)[attr]
    else:
        target = getattr(owner, path)
    assert callable(target)


def test_mw_asks_its_smith_questions_through_the_traced_functions():
    # mw_group goes through cokernel_invariants to invariant_factors, and
    # mwl takes its complement from left_kernel_basis, so both spans read calls
    from mwlattice import catalog, mw

    scenario = catalog._cycle_scenario(2, 5)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        mw.mw_group(scenario)
        mw.mwl(scenario)
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    assert spans["matrices.invariant_factors"][0] >= 1
    assert spans["matrices.left_kernel_basis"][0] == 1
