"""The benchmark's hooks find every library function they name.

``perfbench/tracing.py`` wraps functions by ``<module>.<function>`` name
and silently skips a name the library no longer has, so a rename would
read as zero calls, or as a set-up probe that never stops.  This test
only reads the benchmark's name lists.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_names() -> list[str]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = {*tracing.SPANS, *tracing.SETUP_SPANS, *tracing.FIRST_WORK.values()}
    return sorted(names)


@pytest.mark.parametrize("qualname", _tracing_names())
def test_traced_name_is_a_library_function(qualname):
    module, attr = qualname.split(".", 1)
    fn = getattr(importlib.import_module(f"shapectl.{module}"), attr, None)
    assert callable(fn), f"shapectl.{qualname} is not a function"
