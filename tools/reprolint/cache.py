"""Content-hash incremental cache for reprolint.

Per-file entries store the source digest plus the extracted
:class:`~tools.reprolint.core.ModuleInfo`, the per-file findings, and the
pragma map — so an unchanged file is neither re-parsed nor re-analyzed.
Whole-program rules (R8 layering, R9 lock order) re-run only when their
*fingerprint* changes: the combined import/lock index across all modules
plus the layer manifest and the ``docs/ARCHITECTURE.md`` marker.  Tree
rules (R3 parity, R5 export hygiene) key on the digests of the files they
actually read.  Editing one leaf module therefore re-analyzes exactly
that module and reuses everything else.

The cache is a single JSON file (default ``.reprolint_cache.json`` at the
repo root, gitignored).  A version stamp invalidates it wholesale when
the analyzer itself changes.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

#: Bump when extraction or rule semantics change: stale entries self-invalidate.
CACHE_VERSION = 2


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_file(path: Path) -> str | None:
    try:
        return digest_bytes(path.read_bytes())
    except OSError:
        return None


@dataclass
class CacheStats:
    """What the incremental layer actually did on one run."""

    files_analyzed: int = 0
    files_cached: int = 0
    whole_program_reused: bool = False
    tree_rules_reused: bool = False


@dataclass
class FileEntry:
    """Cached per-file analysis keyed on the source digest."""

    digest: str
    info: dict = field(default_factory=dict)  # ModuleInfo.as_dict()
    findings: list = field(default_factory=list)  # raw per-file Finding.as_dict()
    pragmas: dict = field(default_factory=dict)  # line(str) -> [rule, ...]

    def as_dict(self) -> dict:
        return {
            "digest": self.digest,
            "info": self.info,
            "findings": self.findings,
            "pragmas": self.pragmas,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FileEntry":
        return cls(
            digest=str(d["digest"]),
            info=dict(d.get("info", {})),
            findings=list(d.get("findings", [])),
            pragmas=dict(d.get("pragmas", {})),
        )


class LintCache:
    """Load/update/save the on-disk cache; tolerant of any corruption."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.files: dict[str, FileEntry] = {}
        #: fingerprint -> raw findings for the whole-program rule group
        self.whole_program: dict = {"key": None, "findings": []}
        #: fingerprint -> raw findings for the tree rule group
        self.tree_rules: dict = {"key": None, "findings": []}

    @classmethod
    def load(cls, path: Path) -> "LintCache":
        cache = cls(path)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return cache
        if not isinstance(raw, dict) or raw.get("version") != CACHE_VERSION:
            return cache
        try:
            for rel, entry in raw.get("files", {}).items():
                cache.files[rel] = FileEntry.from_dict(entry)
            wp = raw.get("whole_program", {})
            if isinstance(wp, dict):
                cache.whole_program = {
                    "key": wp.get("key"),
                    "findings": list(wp.get("findings", [])),
                }
            tr = raw.get("tree_rules", {})
            if isinstance(tr, dict):
                cache.tree_rules = {
                    "key": tr.get("key"),
                    "findings": list(tr.get("findings", [])),
                }
        except (KeyError, TypeError, ValueError):
            return cls(path)  # corrupt entry: start fresh
        return cache

    def save(self, live_rels: set[str]) -> None:
        """Atomically persist, pruning entries for files that no longer exist."""
        payload = {
            "version": CACHE_VERSION,
            "files": {
                rel: entry.as_dict()
                for rel, entry in sorted(self.files.items())
                if rel in live_rels
            },
            "whole_program": self.whole_program,
            "tree_rules": self.tree_rules,
        }
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=str(self.path.parent), prefix=self.path.name, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump(payload, fh, separators=(",", ":"))
                os.replace(tmp, self.path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            pass  # a read-only tree just runs uncached


def whole_program_key(
    wp_fingerprints: list, layers: dict[str, int], marker_digest: str | None
) -> str:
    """Key the whole-program rule group on exactly what those rules read."""
    blob = json.dumps(
        {
            "version": CACHE_VERSION,
            "modules": wp_fingerprints,
            "layers": sorted(layers.items()),
            "marker": marker_digest,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return digest_bytes(blob.encode("utf-8"))


def tree_rules_key(root: Path, anchor_rels: list[str]) -> str:
    """Key the tree rule group on the digests of the files those rules read."""
    parts: list[tuple[str, str | None]] = []
    for rel in sorted(set(anchor_rels)):
        parts.append((rel, digest_file(root / rel)))
    blob = json.dumps({"version": CACHE_VERSION, "anchors": parts}, separators=(",", ":"))
    return digest_bytes(blob.encode("utf-8"))
