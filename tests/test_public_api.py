"""The package's public surface: what `from oddkg import *` binds."""

import importlib

import oddkg

#: names that served only the tests and were removed from the package
REMOVED = {
    "oddkg.virial": ("virial_rhs", "dH_analytic", "cross_term", "sf_ratio"),
    "oddkg.grid": ("zero_state",),
    "oddkg.exact": ("linear_standing_wave", "standing_wave_energy"),
}


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from oddkg import *", namespace)  # raises if a name in __all__ does not resolve
    del namespace["__builtins__"]
    assert len(set(oddkg.__all__)) == len(oddkg.__all__)
    assert sorted(namespace) == sorted(oddkg.__all__)
    assert all(namespace[name] is getattr(oddkg, name) for name in oddkg.__all__)


def test_removed_names_are_gone():
    for module, names in REMOVED.items():
        mod = importlib.import_module(module)
        assert [n for n in names if hasattr(mod, n) or hasattr(oddkg, n)] == [], module
        assert not set(names) & set(oddkg.__all__)
