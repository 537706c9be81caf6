"""Every binding perfbench traces still exists where its tracer looks.

`perfbench/tracing.py` wraps module attributes such as
``kaclab.freezing.dynamic_cost`` by reading ``owner.__dict__[leaf]``; a
refactor that drops one of those names breaks only a traced benchmark run.
The tracing module is read from its file, and nothing is written next to it.
"""

import importlib
import os
import types

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracing.py")
tracing = types.ModuleType("perfbench_tracing")
with open(_PATH) as _fh:
    exec(compile(_fh.read(), _PATH, "exec"), tracing.__dict__)


@pytest.mark.parametrize("name, module_path, attr", tracing.TRACED_BINDINGS,
                         ids=[f"{module}.{attr}" for _, module, attr in tracing.TRACED_BINDINGS])
def test_traced_binding_exists(name, module_path, attr):
    owner = importlib.import_module(module_path)
    *outer, leaf = attr.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert leaf in owner.__dict__, f"{name}: {module_path}.{attr} is gone"
