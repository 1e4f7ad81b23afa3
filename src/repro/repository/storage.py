"""File-backed persistence for repositories.

A repository directory holds one JSON file per graph plus a small
manifest.  The layout is deliberately boring:

.. code-block:: text

    <root>/
      manifest.json          {"name": ..., "graphs": [...]}
      graphs/<name>.json     graph_to_json output

Saving is atomic per file (:func:`repro.fileio.write_atomic`: write
to a temp name, then rename), so a crash mid-save never corrupts a
previously saved graph.  The site build cache persists through the
same helper.
"""

from __future__ import annotations

import json
import os

from repro.errors import RepositoryError
from repro.fileio import write_atomic
from repro.graph.serialization import graph_from_json, graph_to_json
from repro.repository.repository import Repository

_MANIFEST = "manifest.json"
_GRAPH_DIR = "graphs"


def _safe_filename(name: str) -> str:
    out = "".join(ch if (ch.isalnum() or ch in "-_") else "_" for ch in name)
    return out or "_"


def save_repository(repo: Repository, root: str) -> None:
    """Persist every graph of ``repo`` under directory ``root``."""
    graph_dir = os.path.join(root, _GRAPH_DIR)
    os.makedirs(graph_dir, exist_ok=True)
    manifest = {"name": repo.database.name, "graphs": []}
    for name in repo.graph_names():
        filename = _safe_filename(name) + ".json"
        manifest["graphs"].append({"name": name, "file": filename})
        write_atomic(os.path.join(graph_dir, filename),
                     graph_to_json(repo.graph(name)))
    write_atomic(os.path.join(root, _MANIFEST),
                 json.dumps(manifest, indent=2))


def load_repository(root: str, indexing: bool = True) -> Repository:
    """Load a repository previously saved with :func:`save_repository`."""
    manifest_path = os.path.join(root, _MANIFEST)
    if not os.path.exists(manifest_path):
        raise RepositoryError(f"no repository manifest at {manifest_path}")
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    repo = Repository(manifest.get("name", "strudel"), indexing=indexing)
    for entry in manifest.get("graphs", []):
        path = os.path.join(root, _GRAPH_DIR, entry["file"])
        if not os.path.exists(path):
            raise RepositoryError(f"manifest names missing graph file {path}")
        with open(path, encoding="utf-8") as handle:
            graph = graph_from_json(handle.read())
        graph.name = entry.get("name", graph.name)
        repo.store(graph)
    return repo

