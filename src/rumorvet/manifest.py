"""Run manifests: the provenance record behind every reported number.

A manifest pins the config snapshot, checksums of every input corpus and
model file, checksums of the produced outputs, and the tool version, so
any figure in a report can be re-derived bit-identically from the
referenced artifacts. Manifests carry the only timestamps the tool ever
writes; prediction files and reports stay timestamp-free so repeat runs
compare byte-for-byte.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from importlib import metadata
from pathlib import Path
from typing import Mapping, Optional

from .corpus import walk_tree


def tool_version() -> str:
    try:
        return metadata.version("rumorvet")
    except metadata.PackageNotFoundError:
        return "0+unknown"


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_tree(root, digests: Optional[Mapping[str, str]] = None) -> str:
    """Digest of a directory: every file's (relative path, digest) pair,
    sorted, hashed together. Stable across filesystems and mtimes. digests
    holds the sha256 of files a loader already read (corpus.load_split);
    only the other files are opened."""
    known = digests or {}
    h = hashlib.sha256()
    for rel, entry in walk_tree(root):
        if entry.is_file():
            h.update(rel.encode("utf-8"))
            h.update(b"\0")
            h.update((known.get(entry.path) or sha256_file(entry.path)).encode("ascii"))
            h.update(b"\n")
    return h.hexdigest()


def checksum(path, digests: Optional[Mapping[str, str]] = None) -> str:
    path = Path(path)
    if path.is_dir():
        return "tree:" + sha256_tree(path, digests)
    return "file:" + sha256_file(path)


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce one command's outputs."""

    command: str
    argv: tuple[str, ...]
    config: Mapping[str, object]
    inputs: Mapping[str, str]
    models: Mapping[str, str]
    outputs: Mapping[str, str]
    created_at: str
    tool_version: str = field(default_factory=tool_version)

    def to_dict(self) -> dict:
        return {**asdict(self), "argv": list(self.argv)}


def build_manifest(
    command: str,
    argv: tuple[str, ...],
    config: Mapping[str, object],
    inputs: Optional[Mapping[str, object]] = None,
    models: Optional[Mapping[str, object]] = None,
    outputs: Optional[Mapping[str, object]] = None,
    input_checksums: Optional[Mapping[str, str]] = None,
) -> RunManifest:
    """Checksum every named path and assemble the record. input_checksums
    holds inputs already checksummed (label -> checksum string)."""

    def digest_map(paths: Optional[Mapping[str, object]]) -> dict[str, str]:
        out = {}
        for label, p in (paths or {}).items():
            if p is None:
                continue
            out[label] = checksum(p)
        return out

    return RunManifest(
        command=command,
        argv=tuple(argv),
        config=dict(config),
        inputs={**digest_map(inputs), **(input_checksums or {})},
        models=digest_map(models),
        outputs=digest_map(outputs),
        created_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )


def write_manifest(manifest: RunManifest, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path
