"""Every key in ``tools/survivors.txt`` names a live site of ``tools/mutants.py``.

The gauge explains a survivor by its key, which holds the line's text.  An
edit to that line changes the key, and the gauge silently ignores a key that
names no site, so a stale explanation fails here instead.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

MUTANTS = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"


def _mutants():
    """``tools/mutants.py``, loaded by path: ``tools`` is not a package."""
    spec = importlib.util.spec_from_file_location("mutants", MUTANTS)
    module = importlib.util.module_from_spec(spec)
    sys.modules["mutants"] = module  # a dataclass looks its module up while it is defined
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules["mutants"]
    return module


def test_every_survivor_key_names_a_site():
    mutants = _mutants()
    keys = mutants._explained()
    assert keys
    modules = {key.partition(":")[0] for key in keys}
    live = {site.key for module in modules for site in mutants.find_sites(module)}
    assert sorted(set(keys) - live) == []
