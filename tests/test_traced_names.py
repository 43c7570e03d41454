"""Every function that perfbench/tracing.py traces by name exists in the
package, so deleting a traced name fails here and not only in a traced
benchmark run.  The tracer's source is read, never imported as a package, so
nothing is written under perfbench/."""

import importlib
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced():
    module = types.ModuleType("tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), vars(module))
    return module.TRACED


@pytest.mark.parametrize("module, path", _traced(), ids=lambda v: v)
def test_traced_name_resolves(module, path):
    mod = importlib.import_module(f"nflower.{module}")
    if "." in path:
        cls_name, attr = path.split(".")
        assert attr in vars(getattr(mod, cls_name))
    else:
        assert callable(getattr(mod, path, None))
