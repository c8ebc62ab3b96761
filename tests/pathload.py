"""Load a Python file that is not part of an installed package, by its path."""

import importlib.util
import sys


def load_file(name, path):
    """The module that the file at path defines, registered as name in
    sys.modules (a dataclass looks up its module as it is made)."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module
