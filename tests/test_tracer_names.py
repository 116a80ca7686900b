"""Every function the benchmark's span tracer wraps must still exist under its traced name."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("span, module_name, attr", traced_names())
def test_traced_attribute_resolves(span, module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        assert hasattr(owner, part), f"{span}: {module_name}.{attr} no longer exists"
        owner = getattr(owner, part)
    assert callable(owner)


def test_superlu_entry_point_resolves():
    # the tracer wraps ``rcto.fem.splu`` outside ``TRACED`` to read the fallback's fill
    import rcto.fem

    assert callable(rcto.fem.splu)
