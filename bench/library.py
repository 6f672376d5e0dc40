"""Load the pointscatter package from this checkout's source tree.

Kept free of numpy so that the measured import time of pointscatter includes
numpy's own import, as it does for a user starting a fresh process.
"""

from __future__ import annotations

import importlib
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MODULES = ("connection", "schrodinger", "dirac", "analysis", "cli")


class LibraryMissing(RuntimeError):
    """The checkout holds no importable pointscatter source tree."""


def load() -> tuple[SimpleNamespace, float]:
    """Import pointscatter from ROOT/src; return its modules and the import time.

    Refuses a pointscatter found anywhere else (an installed copy would
    measure other code than this checkout's).
    """
    package_init = SRC / "pointscatter" / "__init__.py"
    if not package_init.is_file():
        raise LibraryMissing(f"no pointscatter source under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    package = importlib.import_module("pointscatter")
    modules = {name: importlib.import_module(f"pointscatter.{name}") for name in MODULES}
    import_s = time.perf_counter() - start
    if Path(package.__file__).resolve() != package_init.resolve():
        raise LibraryMissing(f"pointscatter imported from {package.__file__}, not {SRC}")
    return SimpleNamespace(package=package, **modules), import_s
