"""The benchmark's layer tracer (``bench/tracing.py``) wraps functions and
methods of ``weyl_canon`` by name; every name it lists must still exist,
or ``bench/run.py --trace 1`` breaks."""

import importlib
import importlib.util
from pathlib import Path

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _bench_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    tracing = _bench_tracing()
    pairs = [(module, attr) for module, attr, _ in tracing.FUNCTION_SPANS]
    pairs += [(module, f"{cls}.{attr}") for module, cls, attr, _ in tracing.METHOD_SPANS]
    pairs += [(module, attr) for module, attr, _ in tracing.COUNTED_FUNCTIONS]
    pairs = [(module, path) for module, path in pairs if module.startswith("weyl_canon")]
    assert pairs
    for module, path in pairs:
        owner = importlib.import_module(module)
        for name in path.split("."):
            assert hasattr(owner, name), f"{module}.{path}"
            owner = getattr(owner, name)
        assert callable(owner), f"{module}.{path}"
