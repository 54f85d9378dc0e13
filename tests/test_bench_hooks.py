"""The benchmark tracer's hook names must resolve in the library.

``perfbench/tracer.py`` wraps library functions by module attribute and
reads ``cache_info()`` of the cached ones. A rename or a move that drops
one of those names would leave that layer silently untraced.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_resolve():
    tracer = load_tracer()
    for mod_name, fn_name, _ in tracer.LAYERS:
        fn = getattr(importlib.import_module(mod_name), fn_name, None)
        assert callable(fn), f"{mod_name}.{fn_name}"


def test_cached_functions_expose_cache_info():
    tracer = load_tracer()
    for mod_name, fn_name in tracer.CACHED:
        fn = getattr(importlib.import_module(mod_name), fn_name, None)
        assert callable(getattr(fn, "cache_info", None)), f"{mod_name}.{fn_name}"
