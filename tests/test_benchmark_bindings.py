"""The benchmark tracer's bindings: it wraps klcert functions by name and
reads counts from their arguments by name, so a renamed function or
argument fails here, on every test run, and not only in a traced pass."""

import importlib
import importlib.util
import inspect
import os
from types import SimpleNamespace

TRACING = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "tracing.py")

# entry points the tracer still names, which the program no longer has
KNOWN_MISSING = {
    "klcert.tracefmt.write_trace",
    "klcert.descent.ista",
    "klcert.descent.barycentric_projection",
    "klcert.descent.alternating_projection",
}


def _tracing():
    """perfbench/tracing.py, loaded from its file (it imports no more than
    the standard library)."""
    spec = importlib.util.spec_from_file_location("_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Value:
    """What an argument the tracer reads may be: an int, a sized rows
    object or a path to a file (this test's own)."""

    def __int__(self):
        return 0

    def __len__(self):
        return 0

    def __fspath__(self):
        return __file__


class _Arguments(dict):
    """Bound arguments that hold every name, and record those read."""

    def __init__(self):
        super().__init__()
        self.read = set()

    def __missing__(self, name):
        self.read.add(name)
        return _Value()


def test_traced_entry_points_exist_and_take_the_arguments_counted():
    tracing = _tracing()
    result = SimpleNamespace(num_steps=0, samples=0,
                             values=lambda: [__file__])
    missing, checked = set(), 0
    for module_name, names in tracing.ENTRY_POINTS.values():
        module = importlib.import_module(module_name)
        for name in names:
            fn = getattr(module, name, None)
            if fn is None:
                missing.add(f"{module_name}.{name}")
                continue
            arguments = _Arguments()
            tracing._counts(name, SimpleNamespace(arguments=arguments),
                            result, None)
            parameters = set(inspect.signature(fn).parameters)
            assert arguments.read <= parameters, (name, arguments.read)
            checked += 1
    assert missing <= KNOWN_MISSING, sorted(missing - KNOWN_MISSING)
    assert checked >= 10
    for module_name, name in tracing.COUNTED.values():
        assert callable(getattr(importlib.import_module(module_name), name))
