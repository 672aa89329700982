"""``SpecResolver``: the one seam every consumer resolves specs through.

Before this existed, each layer elaborated specs its own way -- the
session kept a per-batch module cache, the CLI loaded modules directly,
and remote workers re-ran the front end per descriptor.  The resolver
unifies them:

* **any path**: ``.strom`` source and compiled artifacts are both
  accepted everywhere a spec path is (the first four bytes decide);
* **memoized by content**: results key on ``(realpath, content-hash,
  subscript)``, so re-resolving the same unchanged file is a hash of
  its bytes, not a front-end run -- and a *changed* file under the same
  path is never served stale;
* **wire-ready**: :meth:`remote_fields` yields the artifact bytes
  (base64) plus source hash for a ``CheckTarget.remote`` descriptor, so
  remote workers load instead of re-elaborating.

One resolver per long-lived component (session, worker slot, CLI
invocation); sharing one more widely only shares more cache.
"""

from __future__ import annotations

import base64
import os
from typing import Dict, Optional, Tuple

from ..quickltl import DEFAULT_SUBSCRIPT
from .build import (
    CompiledSpec,
    artifact_bytes,
    compile_source,
    load_artifact_bytes,
)
from .format import content_hash, sniff

__all__ = ["SpecResolver"]


class SpecResolver:
    """Resolves spec-like things to compiled bundles, memoized by content."""

    def __init__(
        self,
        *,
        default_subscript: int = DEFAULT_SUBSCRIPT,
        strict: bool = False,
    ) -> None:
        self.default_subscript = default_subscript
        self.strict = strict
        self._bundles: Dict[Tuple[str, str, int], CompiledSpec] = {}
        self._encoded: Dict[str, bytes] = {}
        self.hits = 0
        self.misses = 0

    # -- core ----------------------------------------------------------

    def load(
        self, path: str, *, default_subscript: Optional[int] = None
    ) -> CompiledSpec:
        """Spec source *or* artifact path to a compiled bundle."""
        subscript = (
            default_subscript if default_subscript is not None
            else self.default_subscript
        )
        with open(path, "rb") as handle:
            data = handle.read()
        key = (os.path.realpath(path), content_hash(data), subscript)
        bundle = self._bundles.get(key)
        if bundle is not None:
            self.hits += 1
            return bundle
        self.misses += 1
        bundle = self._elaborate(data, path, subscript)
        self._bundles[key] = bundle
        return bundle

    def load_bytes(
        self,
        data: bytes,
        *,
        source_hash: Optional[str] = None,
        default_subscript: Optional[int] = None,
    ) -> CompiledSpec:
        """Artifact (or raw source) bytes to a bundle -- the remote
        worker entry point, so no staleness probe against local disk."""
        subscript = (
            default_subscript if default_subscript is not None
            else self.default_subscript
        )
        key = ("<bytes>", source_hash or content_hash(data), subscript)
        bundle = self._bundles.get(key)
        if bundle is not None:
            self.hits += 1
            return bundle
        self.misses += 1
        if sniff(data):
            bundle = load_artifact_bytes(data, check_source=False)
        else:
            bundle = compile_source(
                data.decode("utf-8"), default_subscript=subscript
            )
        self._bundles[key] = bundle
        return bundle

    def _elaborate(self, data: bytes, path: str, subscript: int) -> CompiledSpec:
        if sniff(data):
            return load_artifact_bytes(
                data, strict=self.strict, default_subscript=subscript
            )
        return compile_source(
            data.decode("utf-8"), source_path=path, default_subscript=subscript
        )

    def encoded(self, bundle: CompiledSpec) -> bytes:
        """``bundle`` as artifact container bytes, memoized per content.

        The ship-to-worker seam: remote checker workers and shard
        monitor workers both receive these bytes and load them with
        :meth:`load_bytes` instead of re-elaborating, and fanning one
        spec out to N workers serializes it once.
        """
        encoded = self._encoded.get(bundle.source_hash)
        if encoded is None:
            encoded = artifact_bytes(bundle)
            self._encoded[bundle.source_hash] = encoded
        return encoded

    def remote_fields(self, path: str) -> Dict[str, str]:
        """The artifact fields of a remote descriptor for ``path``:
        ``{"artifact_b64": ..., "source_hash": ...}``.
        """
        bundle = self.load(path)
        return {
            "artifact_b64": base64.b64encode(self.encoded(bundle)).decode("ascii"),
            "source_hash": bundle.source_hash,
        }

    def stats(self) -> Tuple[int, int]:
        """``(hits, misses)`` of the content-keyed bundle memo."""
        return (self.hits, self.misses)
