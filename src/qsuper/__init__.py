"""Exact kernel for quantum supermatrix coordinate algebras.

Subpackages cover Laurent-polynomial coefficients, the straightening
kernel, quantum superspaces and minors, the determinant localization,
dual canonical bases, and quantum-group actions.
"""

import sys

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every module-level lru_cache of the imported kernel modules."""
    for name, module in list(sys.modules.items()):
        if name.startswith(__name__ + "."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
