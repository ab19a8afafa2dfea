"""Every module-level lru_cache of the kernel has a maxsize, or a scope
that keeps it finite on its own, written down here."""

import importlib
import sys
import types
from functools import lru_cache
from pathlib import Path

import qsuper

KERNEL_MODULES = sorted(p.stem for p in (Path(qsuper.__file__).parent).glob("*.py")
                        if p.stem != "__init__")

# (module, name) -> what one entry is keyed by, and why that stays small
DOCUMENTED_SCOPE = {
    ("glq", "_detA_power_alg"): "one power of detA per shape and exponent",
    ("glq", "detDprime_poly"): "one power of detD' per shape and exponent",
    ("basis", "block_element"): "one basis element per requested index, region and lower index",
    ("basis", "n_ad"): ("one N-family element per requested index, the d = 0 member "
                        "of its Ber orbit and the d = 0 indices below that"),
    ("basis", "omega_global"): ("one basis element per requested index and variant, the "
                                "d = 0 member of its Ber orbit and the indices below that"),
    ("actions", "_window_matrices"): "one matrix list per shape and window degree",
}


def module_caches(modules):
    """(module name, attribute name) -> lru_cache defined in that module,
    found as qsuper.clear_caches finds them."""
    out = {}
    for module in modules:
        short = module.__name__.rsplit(".", 1)[-1]
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                out[(short, name)] = obj
    return out


def unscoped_caches(modules, documented):
    """Caches without a maxsize that documented does not name."""
    return sorted(key for key, cache in module_caches(modules).items()
                  if cache.cache_info().maxsize is None and key not in documented)


def kernel_modules():
    for name in KERNEL_MODULES:
        importlib.import_module(f"qsuper.{name}")
    return [m for n, m in sys.modules.items() if n.startswith("qsuper.")]


def test_every_kernel_cache_is_bounded_or_scoped():
    modules = kernel_modules()
    assert unscoped_caches(modules, DOCUMENTED_SCOPE) == []
    # every scoped entry still names an unbounded cache
    caches = module_caches(modules)
    assert all(caches[key].cache_info().maxsize is None for key in DOCUMENTED_SCOPE)


def test_guard_flags_an_unscoped_cache():
    module = types.ModuleType("qsuper.fake")

    @lru_cache(maxsize=None)
    def grows(x):
        return x

    @lru_cache(maxsize=4)
    def bounded(x):
        return x

    @lru_cache(maxsize=None)
    def scoped(x):
        return x

    for f in (grows, bounded, scoped):
        f.__module__ = module.__name__
        setattr(module, f.__name__, f)
    # a cache imported from another module is checked in its own module
    module.imported = lru_cache(maxsize=None)(len)
    assert unscoped_caches([module], {("fake", "scoped"): "one entry"}) == [("fake", "grows")]
