"""The two-phase build/load pipeline: ``compile`` once, ``load`` everywhere.

:func:`compile_spec` runs the whole Specstrom front end (lexer ->
parser -> types -> elaboration -> interning) exactly once and wraps the
result in a :class:`CompiledSpec` bundle: the elaborated module, one
:class:`~repro.checker.compiled.CompiledProperty` per ``check`` (all
sharing one :class:`~repro.quickltl.ProgressionCaches`), and the
SHA-256 of the source it was built from.  :func:`save_artifact`
persists the bundle (see :mod:`.format` for the container layout);
:func:`load_artifact` brings it back in a cold process without touching
the front end -- formulas re-intern, deferred ones included, and the
pre-seeded caches land ready to hit.

Staleness: an artifact records its source path and hash.  When the
source is still present and has changed, loading *recompiles from
source* by default (the artifact is a cache, not the truth); under
``strict=True`` it raises :class:`ArtifactStaleError` instead (CI wants
loud, not helpful).
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from ..checker.compiled import CompiledProperty
from ..quickltl import DEFAULT_SUBSCRIPT, ProgressionCaches
from ..quickltl.progression import formula_size
from ..quickltl.simplify import simplify
from ..specstrom.module import CheckSpec, SpecModule, load_module
from . import codec
from .errors import ArtifactCorruptError, ArtifactFormatError, ArtifactStaleError
from .format import (
    ARTIFACT_VERSION,
    MAGIC,
    content_hash,
    pack,
    read_header,
    sniff,
    unpack,
    write_atomic,
)

__all__ = [
    "ARTIFACT_SUFFIX",
    "CompiledSpec",
    "artifact_bytes",
    "compile_source",
    "compile_spec",
    "default_artifact_path",
    "inspect_artifact",
    "load_artifact",
    "load_artifact_bytes",
    "save_artifact",
]

ARTIFACT_SUFFIX = ".qsa"


class CompiledSpec:
    """A fully elaborated spec module, ready to check or to persist.

    This is the whole-module bundle (the artifact payload); the
    per-property slice a runner consumes is a
    :class:`~repro.checker.compiled.CompiledProperty`, all of which
    share one progression-cache bundle so campaigns over different
    properties of one spec still pool their memoized work.
    """

    def __init__(
        self,
        module: SpecModule,
        *,
        source_hash: str,
        source_path: Optional[str] = None,
    ) -> None:
        self.module = module
        self.source_hash = source_hash
        self.source_path = source_path
        self.caches = ProgressionCaches()
        self.properties: Dict[str, CompiledProperty] = {
            check.name: CompiledProperty(check, caches=self.caches)
            for check in module.checks
        }

    # -- property access ----------------------------------------------

    @property
    def checks(self) -> List[CheckSpec]:
        return self.module.checks

    @property
    def default_subscript(self) -> int:
        return self.module.default_subscript

    def check_named(self, name: str) -> CheckSpec:
        return self.module.check_named(name)

    def property_named(self, name: str) -> CompiledProperty:
        """The compiled bundle for the ``check`` called ``name``."""
        return self.properties[self.module.check_named(name).name]

    # -- build-time work ----------------------------------------------

    def warm(self) -> None:
        """Pre-seed the shared caches with the state-independent work:
        sizes and simplified forms of every property's initial formula.
        Whatever lands here ships inside the artifact, so a cold
        loader's first progression step starts from dict hits."""
        for check in self.module.checks:
            formula_size(check.formula, self.caches.sizes)
            simplify(check.formula, self.caches.simplify)

    def manifest(self) -> List[dict]:
        """Human-readable per-check summary for the artifact header."""
        entries = []
        for check in self.module.checks:
            prop = self.properties[check.name]
            entries.append(
                {
                    "name": check.name,
                    "formula_size": formula_size(check.formula, self.caches.sizes),
                    "dependencies": sorted(check.dependencies),
                    "actions": [action.name for action in check.actions],
                    "events": [event.name for event in check.events],
                    "action_footprint": (
                        sorted(prop.action_dependencies)
                        if prop.action_dependencies is not None
                        else None
                    ),
                }
            )
        return entries


def compile_source(
    source: str,
    *,
    source_path: Optional[str] = None,
    default_subscript: int = DEFAULT_SUBSCRIPT,
) -> CompiledSpec:
    """Elaborate spec source into a warmed :class:`CompiledSpec`."""
    module = load_module(source, default_subscript=default_subscript)
    bundle = CompiledSpec(
        module,
        source_hash=content_hash(source.encode("utf-8")),
        source_path=os.path.abspath(source_path) if source_path else None,
    )
    bundle.warm()
    return bundle


def compile_spec(
    path: str, *, default_subscript: int = DEFAULT_SUBSCRIPT
) -> CompiledSpec:
    """Phase one of the pipeline: front end once, bundle out."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    return compile_source(
        source, source_path=path, default_subscript=default_subscript
    )


def artifact_bytes(bundle: CompiledSpec) -> bytes:
    """Serialize a bundle to the on-disk/wire container format."""
    payload = codec.encode(bundle)
    header = {
        "format": "repro spec artifact",
        "version": ARTIFACT_VERSION,
        "source_hash": bundle.source_hash,
        "source_path": bundle.source_path,
        "default_subscript": bundle.default_subscript,
        "checks": bundle.manifest(),
        "cache_entries": len(bundle.caches),
    }
    return pack(header, payload)


def default_artifact_path(spec_path: str) -> str:
    root, _ext = os.path.splitext(spec_path)
    return root + ARTIFACT_SUFFIX


def save_artifact(bundle: CompiledSpec, path: str) -> str:
    """Phase one's output: atomically write the artifact; returns ``path``."""
    write_atomic(path, artifact_bytes(bundle))
    return path


def _check_stale(
    header: dict, *, strict: bool, default_subscript_override: Optional[int]
) -> Optional[CompiledSpec]:
    """Staleness policy: ``None`` when fresh, a recompiled bundle when
    stale (or :class:`ArtifactStaleError` under ``strict``)."""
    source_path = header.get("source_path")
    if not source_path or not os.path.exists(source_path):
        return None  # sourceless artifact: nothing to compare against
    with open(source_path, "r", encoding="utf-8") as handle:
        source = handle.read()
    if content_hash(source.encode("utf-8")) == header.get("source_hash"):
        return None
    if strict:
        raise ArtifactStaleError(
            f"artifact is stale: {source_path} changed since compilation "
            f"(hash {header.get('source_hash', '?')[:12]}... no longer matches); "
            "recompile with 'repro compile'"
        )
    subscript = (
        default_subscript_override
        if default_subscript_override is not None
        else int(header.get("default_subscript", DEFAULT_SUBSCRIPT))
    )
    return compile_source(
        source, source_path=source_path, default_subscript=subscript
    )


def load_artifact_bytes(
    data: bytes,
    *,
    strict: bool = False,
    check_source: bool = True,
    default_subscript: Optional[int] = None,
) -> CompiledSpec:
    """Phase two: container bytes back to a live bundle.

    ``check_source=False`` skips the staleness probe -- remote workers
    receive artifact bytes from the coordinator and must not second-
    guess them against whatever happens to be on their own disk.
    """
    header, payload = unpack(data, magic=MAGIC)
    if check_source:
        recompiled = _check_stale(
            header, strict=strict, default_subscript_override=default_subscript
        )
        if recompiled is not None:
            return recompiled
    bundle = codec.decode(payload)
    if not isinstance(bundle, CompiledSpec):
        raise ArtifactCorruptError(
            f"artifact payload is a {type(bundle).__name__}, not a compiled spec"
        )
    return bundle


def load_artifact(path: str, *, strict: bool = False) -> CompiledSpec:
    with open(path, "rb") as handle:
        data = handle.read()
    if not sniff(data):
        raise ArtifactFormatError(
            f"{path} is not a spec artifact (did you mean 'repro compile {path}'?)"
        )
    return load_artifact_bytes(data, strict=strict)


def inspect_artifact(path: str) -> dict:
    """Header-only view (no payload decode) for ``repro inspect``."""
    with open(path, "rb") as handle:
        data = handle.read()
    version, header, offset = read_header(data, magic=MAGIC)
    return {
        "path": path,
        "size_bytes": len(data),
        "artifact_version": version,
        "payload_bytes": len(data) - offset,
        **header,
    }
