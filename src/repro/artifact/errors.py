"""Typed failures of the artifact pipeline.

Every way an artifact can be unusable gets its own exception class so
callers (CLI, resolver, worker) can map each to the right recovery:
``ArtifactStaleError`` means "the source changed -- recompile",
``ArtifactVersionError`` means "rebuilt by an incompatible release",
and ``ArtifactCorruptError``/``ArtifactFormatError`` mean the file
itself is damaged or is not an artifact at all.  All inherit
:class:`ArtifactError`.
"""

from __future__ import annotations

__all__ = [
    "ArtifactError",
    "ArtifactFormatError",
    "ArtifactVersionError",
    "ArtifactCorruptError",
    "ArtifactStaleError",
    "ArtifactEncodeError",
]


class ArtifactError(Exception):
    """Base class of every artifact pipeline failure."""


class ArtifactFormatError(ArtifactError):
    """The bytes are not an artifact: bad magic, truncated, bad header."""


class ArtifactVersionError(ArtifactError):
    """The artifact was written under a different ``ARTIFACT_VERSION``."""


class ArtifactCorruptError(ArtifactError):
    """Checksum mismatch or an undecodable/ill-typed payload."""


class ArtifactStaleError(ArtifactError):
    """The spec source changed since compilation (strict mode only --
    the default path recompiles instead of raising)."""


class ArtifactEncodeError(ArtifactError):
    """The compiled spec holds something the codec cannot serialize
    (e.g. a hand-built :class:`~repro.quickltl.Defer` or an atom whose
    closure captures local state; evaluator-built defers pickle through
    their quotes)."""
