"""numpy, loaded on first attribute access instead of at ``import cflimits``."""

import importlib.util
import sys


def _lazy_numpy():
    """numpy if already loaded, else a lazy module; a missing numpy still raises here."""
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_numpy()
