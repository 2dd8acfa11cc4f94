"""Every module attribute the benchmark's tracer wraps still exists.

``perfbench/trace.py`` replaces the functions listed in ``PATCHES`` at the
module attribute their callers look them up by.  A refactor that renames or
drops one of them would silently leave that layer untraced, so this test
pins the list to the program.  It only reads ``perfbench/trace.py``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACE = Path(__file__).resolve().parent.parent / "perfbench" / "trace.py"


def _patches():
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


PATCHES = _patches()


def test_patch_list_is_not_empty():
    assert len(PATCHES) > 10


@pytest.mark.parametrize("module, attr, span", PATCHES,
                         ids=[f"{m}.{a}" for m, a, _ in PATCHES])
def test_trace_target_is_callable(module, attr, span):
    target = getattr(importlib.import_module(module), attr, None)
    assert callable(target), f"{module}.{attr} (span {span}) is gone"
