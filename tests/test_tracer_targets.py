"""perfbench's span tracer installs on the package as it is: every traced target is bound."""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

import akhabit.cli  # noqa: F401  (loads every module a target names)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("workload"), importlib.import_module("spans")
    finally:
        sys.path.remove(str(PERFBENCH))


def _bound(module_name, attribute):
    """The callable a target wraps: a function, or a class's __init__."""
    value = getattr(sys.modules[module_name], attribute)
    return value.__dict__["__init__"] if inspect.isclass(value) else value


def test_every_traced_target_is_wrapped_and_restored(perfbench):
    workload, spans = perfbench
    targets = [(module, attribute) for _, module, attribute, _ in workload.TRACED]
    originals = [_bound(*target) for target in targets]
    with spans.Tracer("akhabit", workload.TRACED):
        for target, original in zip(targets, originals):
            assert _bound(*target) is not original, target
    assert [_bound(*target) for target in targets] == originals
