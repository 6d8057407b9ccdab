"""The committed v1 pattern library and helpers for tests that read it.

``tests/data/v1_library`` is a library in the legacy single-``manifest.json``
layout, written by the last version that could write it: three chunks, dedup
on, two duplicates skipped (see ``tests/data/README.md``).  Tests work on
copies, never on the committed files.
"""

from __future__ import annotations

import hashlib
import shutil
from pathlib import Path

V1_LIBRARY = Path(__file__).resolve().parent / "data" / "v1_library"


def copy_v1_library(directory) -> Path:
    """Copy the committed v1 library into ``directory``; returns its root."""
    return Path(shutil.copytree(V1_LIBRARY, Path(directory) / "v1_library"))


def file_tree(root) -> dict[str, str]:
    """Relative path -> sha1 of every file (``"dir"`` for every directory)."""
    root = Path(root)
    return {
        str(path.relative_to(root)): (
            hashlib.sha1(path.read_bytes()).hexdigest() if path.is_file() else "dir"
        )
        for path in sorted(root.rglob("*"))
    }
