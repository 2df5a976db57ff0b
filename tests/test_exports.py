"""Every public name of dgdim.core and dgdim.dg has a reader in the program.

A name in a package's __all__ that only its own module and the package
__init__ mention is a dead export: nothing in src/dgdim or bench reads it,
so it can go, or leave __all__ and stay a module-level name.  Tests do not
count as readers.
"""
import importlib
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "dgdim").rglob("*.py")) + sorted(
    (ROOT / "bench").rglob("*.py")
)

# the degreewise rank that the tests use as an independent oracle
TEST_ORACLES = {"field_rank"}


@pytest.mark.parametrize("package", ["dgdim.core", "dgdim.dg"])
def test_every_export_is_read_outside_its_module(package):
    pkg = importlib.import_module(package)
    texts = {path.resolve(): path.read_text(encoding="utf-8") for path in SOURCES}
    unread = []
    for name in pkg.__all__:
        home = Path(sys.modules[getattr(pkg, name).__module__].__file__).resolve()
        skip = {home, Path(pkg.__file__).resolve()}
        word = re.compile(r"\b%s\b" % re.escape(name))
        if not any(word.search(text) for path, text in texts.items()
                   if path not in skip):
            unread.append(name)
    assert sorted(unread) == sorted(TEST_ORACLES & set(pkg.__all__))
