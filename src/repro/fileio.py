"""Atomic file replacement, shared by repository storage and the site
build cache."""

from __future__ import annotations

import os
import tempfile


def write_atomic(path: str, text: str) -> None:
    """Replace ``path`` with ``text`` so readers see old or new, never
    a half-written file (temp file in the same directory, then
    rename)."""
    directory = os.path.dirname(path)
    fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise
