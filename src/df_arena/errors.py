"""Exception hierarchy shared by all df_arena modules.

Every data or runtime failure raises an :class:`ArenaError` subclass; the
CLI maps those to exit code 1 (usage errors are argparse's exit code 2).
Every input file except the run store is read by :func:`read_input`, and
every output file except the run store is opened by :func:`open_output`.
"""

import os
import stat
from contextlib import contextmanager, suppress


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


def read_input(path, error_cls: type[ArenaError]) -> bytes:
    """The bytes of the file ``path``.

    A missing file becomes ``error_cls("file not found: <path>")`` and any
    other OSError, the read included, ``error_cls("cannot read <path>: <reason>")``.
    """
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        raise error_cls(f"file not found: {path}") from None
    except OSError as e:
        raise error_cls(f"cannot read {path}: {e.strerror or e}") from None


def decode_input(data: bytes, path, error_cls: type[ArenaError]) -> str:
    """The UTF-8 text of ``data``, read from ``path``, without a leading byte-order mark.

    Line ends are left as the file holds them. Bytes that are not UTF-8
    become ``error_cls("<path> is not valid UTF-8: <error>")``, whose
    position is the bad byte's offset in the file.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise error_cls(f"{path} is not valid UTF-8: {e}") from None
    return text[1:] if text.startswith("\ufeff") else text


@contextmanager
def open_output(path, error_cls: type[ArenaError]):
    """Open ``path`` for binary writing and yield the file; the file is left whole or absent.

    The bytes go to a new file beside ``path`` that replaces it once the
    block and the close succeed, and is removed when anything fails, so
    ``path`` keeps its earlier bytes or stays absent. An existing ``path``
    that is not a regular file (a device, a FIFO, a symlink) is written in
    place. An OSError raised in the block, or by the close, becomes
    ``error_cls("cannot write <path>: <reason>")``.
    """
    try:
        try:
            in_place = not stat.S_ISREG(os.lstat(path).st_mode)
        except FileNotFoundError:
            in_place = False
        if in_place:
            with open(path, "wb") as fh:
                yield fh
            return
        head, name = os.path.split(path)
        # unique per call; a short prefix of the name keeps it within NAME_MAX. Not
        # mkstemp (mode 0o600): "xb" gives 0o666 less the umask, as "wb" did.
        tmp = os.path.join(head, f".{name[:32]}.{os.urandom(8).hex()}.tmp")
        fh = open(tmp, "xb")
        try:
            with fh:
                yield fh
            os.replace(tmp, path)
        except BaseException:
            with suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as e:
        raise error_cls(f"cannot write {path}: {e.strerror or e}") from e
