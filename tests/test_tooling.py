"""The names that perfbench/tracing.py wraps must exist in paraclaw.

The tracer rebinds each (module, attribute) pair by ``getattr`` when it is
installed, so a deleted or renamed name would break every traced benchmark
run.  The tracer's source is read and executed in a private namespace; no
file is imported, written or edited."""

import importlib
import os

import pytest

TRACING_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "perfbench", "tracing.py")


def _traced_names() -> tuple:
    namespace = {"__name__": "perfbench_tracing"}
    with open(TRACING_PATH, encoding="utf-8") as fh:
        exec(compile(fh.read(), TRACING_PATH, "exec"), namespace)
    return namespace["TIMED"] + namespace["COUNTED"]


@pytest.mark.parametrize("modname, attr", _traced_names(), ids=lambda v: v)
def test_traced_name_resolves(modname, attr):
    target = importlib.import_module(f"paraclaw.{modname}")
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)
