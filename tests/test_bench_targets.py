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


def _targets():
    spec = importlib.util.spec_from_file_location("mwbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


TARGETS = _targets()


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
