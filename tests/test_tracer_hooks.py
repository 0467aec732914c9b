"""The benchmark tracer patches module-level names of the package from
outside it (bench/tracer.py).  A refactor that drops or renames one of
those names would break `bench/run.py --trace 1` without failing any
other test; these tests load the tracer as shipped and check its hooks.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("oddkg_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _modules(hooks) -> dict:
    return {mod_name: importlib.import_module(mod_name) for mod_name, _, _ in hooks}


def test_every_hooked_name_resolves():
    tracer = _load_tracer()
    modules = _modules(tracer.HOOKS)
    missing = [f"{mod}.{attr}" for mod, attr, _ in tracer.HOOKS
               if not callable(getattr(modules[mod], attr, None))]
    assert missing == []


def test_install_then_restore_puts_the_originals_back():
    tracer = _load_tracer()
    modules = _modules(tracer.HOOKS)
    originals = [getattr(modules[mod], attr) for mod, attr, _ in tracer.HOOKS]
    t = tracer.Tracer()
    t.install(modules)
    try:
        assert all(getattr(modules[mod], attr) is not orig
                   for (mod, attr, _), orig in zip(tracer.HOOKS, originals))
    finally:
        t.restore()
    assert all(getattr(modules[mod], attr) is orig
               for (mod, attr, _), orig in zip(tracer.HOOKS, originals))
