"""Modules registered now, executed by their first attribute read or import statement."""

import importlib.util
import sys


def lazy(name: str):
    """``sys.modules[name]``, registered there through ``LazyLoader`` if absent."""
    if name not in sys.modules:
        spec = importlib.util.find_spec(name)
        if spec is None:
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[name]
