"""The benchmark's hooks find every library function and argument they name.

``perfbench/tracing.py`` wraps functions by ``<module>.<function>`` name
and silently skips a name the library no longer has, so a rename would
read as zero calls, or as a set-up probe that never stops.  Some hooks
also read an argument by position or by name, so a signature edit would
zero a count without any error.  This test only reads the benchmark.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_names() -> list[str]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = {*tracing.SPANS, *tracing.SETUP_SPANS, *tracing.FIRST_WORK.values()}
    # names hooked outside the lists, such as the gradient reads
    for node in ast.walk(ast.parse(TRACING.read_text())):
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "replace_everywhere"
            and isinstance(node.args[0], ast.Constant)
        ):
            names.add(node.args[0].value)
    return sorted(names)


def _library_function(qualname: str):
    module, attr = qualname.split(".", 1)
    return getattr(importlib.import_module(f"shapectl.{module}"), attr, None)


@pytest.mark.parametrize("qualname", _tracing_names())
def test_traced_name_is_a_library_function(qualname):
    assert callable(_library_function(qualname)), f"shapectl.{qualname} is not a function"


# (function, position, name) of each argument a Tracer hook reads
HOOKED_ARGUMENTS = [
    ("shape_node.rollout_shape", 3, "q_batch"),  # the rollout batch size
    ("autodiff.backward", 0, "loss"),  # tape length and useful-work ratio
]


@pytest.mark.parametrize("qualname, position, name", HOOKED_ARGUMENTS)
def test_hooked_argument_keeps_its_place(qualname, position, name):
    params = list(inspect.signature(_library_function(qualname)).parameters)
    assert params[position] == name, f"shapectl.{qualname} parameters: {params}"
