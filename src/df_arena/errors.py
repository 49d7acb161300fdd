"""Exception hierarchy shared by all df_arena modules.

Every data or runtime failure raises an :class:`ArenaError` subclass; the
CLI maps those to exit code 1 (usage errors are argparse's exit code 2).
Every output file except the run store is opened by :func:`open_output`.
"""

from contextlib import contextmanager


class ArenaError(Exception):
    """Base class for all data/runtime errors raised by this package."""


class ProtocolError(ArenaError):
    """Malformed or inconsistent dataset protocol file."""


class ScoreFileError(ArenaError):
    """Malformed score file (non-numeric, non-finite, or duplicate entries)."""


class JoinError(ArenaError):
    """Trial/score key sets do not line up under the requested join mode."""


class ManifestError(ArenaError):
    """Invalid arena manifest (schema, references, or coverage)."""


class ScorerError(ArenaError):
    """External scorer subprocess failed or violated the output contract."""


class MetricError(ArenaError):
    """Metric preconditions violated (e.g. single-class input)."""


class StatError(ArenaError):
    """Correlation statistic undefined for the given input."""


class AudioError(ArenaError):
    """Unreadable or unsupported WAV input."""


class AugmentError(ArenaError):
    """Augmentation pipeline configuration or signal-level failure."""


class StoreError(ArenaError):
    """Run store cannot be written."""


@contextmanager
def open_output(path, error_cls: type[ArenaError]):
    """Open ``path`` for binary writing and yield the file.

    An OSError raised in the block, or by the close, becomes
    ``error_cls("cannot write <path>: <reason>")``.
    """
    try:
        with open(path, "wb") as fh:
            yield fh
    except OSError as e:
        raise error_cls(f"cannot write {path}: {e.strerror or e}") from e
