"""Names looked up from outside a module must resolve in the library.

``perfbench/tracer.py`` wraps library functions by module attribute and
reads ``cache_info()`` of the cached ones. A rename or a move that drops
one of those names would leave that layer silently untraced. A stale
``__all__`` entry imports fine and breaks only ``from brmult.x import *``.
"""

import ast
import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import brmult

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


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


@pytest.mark.parametrize(
    "name",
    [m.name for m in pkgutil.iter_modules(brmult.__path__) if m.name != "__main__"],
)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"brmult.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"brmult.{name}.__all__ names {missing}"


def test_package_imports_only_listed_names():
    # brmult/__init__.py re-exports what it imports from its submodules,
    # so each such name must be public there: in the submodule's __all__,
    # or a name without a leading underscore where it has no __all__
    tree = ast.parse(Path(brmult.__file__).read_text())
    unlisted = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"brmult.{node.module}")
            public = getattr(module, "__all__", None)
            if public is None:
                public = [n for n in vars(module) if not n.startswith("_")]
            unlisted += [
                f"brmult.{node.module}.{alias.name}"
                for alias in node.names
                if alias.name not in public
            ]
    assert not unlisted, f"imported by brmult but not public: {unlisted}"


def test_cached_functions_expose_cache_info():
    tracer = load_tracer()
    for mod_name, fn_name in tracer.CACHED:
        fn = getattr(importlib.import_module(mod_name), fn_name, None)
        assert callable(getattr(fn, "cache_info", None)), f"{mod_name}.{fn_name}"


def test_cli_import_loads_every_layer_without_dataclasses():
    # The benchmark child imports brmult.cli in a fresh interpreter without
    # bytecode caches, then wraps the traced layers found in sys.modules.
    # -S keeps what site-packages import at start-up out of the check.
    tracer = load_tracer()
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(ROOT / "src"))
    probe = "import json, sys, brmult.cli; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout
    loaded = set(json.loads(out))
    assert "dataclasses" not in loaded
    assert {mod_name for mod_name, _, _ in tracer.LAYERS} <= loaded


def test_traced_fits_keep_their_table_layer():
    # Each br or mixed fit, and each fit the symmetry and operator checks
    # make, must build its table through a traced table function; a fit
    # or check that bypassed them would drop its spans from every traced
    # benchmark run.
    instance = ROOT / "demos" / "instances" / "max_ideal_pair.txt"
    probe = (
        "import json, sys, brmult.cli\n"
        f"sys.path.insert(0, {str(TRACER.parent)!r})\n"
        "from tracer import Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install({n: m for n, m in sys.modules.items()"
        " if n == 'brmult' or n.startswith('brmult.')})\n"
        "for args in (['br'], ['mixed'], ['verify', 'symmetry'],"
        " ['verify', 'operator']):\n"
        f"    assert brmult.cli.run(args + [{str(instance)!r}])[0] == 0\n"
        "print(json.dumps(tracer.spans))\n"
    )
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout
    spans = json.loads(out)
    fits = [i for i, span in enumerate(spans) if span[0] == "multiplicity.fit"]
    checks = [i for i, span in enumerate(spans) if span[0] == "verify"]
    assert len(fits) == 6 and len(checks) == 2
    for check in checks:
        assert sum(spans[fit][3] == check for fit in fits) == 2
    for fit in fits:
        tables = [
            span for span in spans
            if span[0] == "multiplicity.table" and span[3] == fit
        ]
        assert tables and all(span[4][0] > 0 for span in tables)
