"""Span tracing of df_arena's layers from outside the package.

``traced(recorder)`` rebinds the module-level names through which one layer
calls the next (for example ``df_arena.leaderboard.parse_scores``) to timing
wrappers, and restores every original on exit, also when the body raises.
Nothing under ``src/`` is edited.

Run as a script, it executes one ``df-arena`` command in process under the
tracer and writes the spans as JSON when the command ends::

    python3 perfbench/tracer.py SPANS.json -- leaderboard --manifest m.json ...
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import threading
import time


def _wchar() -> int:
    """Bytes this process has passed to write() so far (Linux /proc/self/io)."""
    try:
        with open("/proc/self/io") as fh:
            for line in fh:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _count_read_wav(args, result):
    path = os.fspath(args[0])
    return {"bytes": os.path.getsize(path), "path": path}


def _count_join(args, result):
    kept = len(result.rows)
    return {"kept": kept, "seen": kept + result.dropped_trials + result.dropped_scores}


# (module, attribute, span name, counter). The module is the caller's, so the
# rebinding catches exactly the calls that cross from one layer into the next.
HOOKS = (
    ("df_arena.cli", "evaluate_arena", "leaderboard.evaluate_arena", None),
    ("df_arena.cli", "emit", "leaderboard.emit", None),
    ("df_arena.cli", "store_append", "leaderboard.store_append", None),
    ("df_arena.cli", "store_list", "leaderboard.store_list",
     lambda args, result: {"records": len(result[0])}),
    ("df_arena.cli", "augment_corpus", "augment.augment_corpus",
     lambda args, result: {"ok": len(result.entries), "failed": len(result.failures)}),
    ("df_arena.leaderboard", "parse_protocol", "protocol.parse_protocol",
     lambda args, result: {"lines": len(result.trials)}),
    ("df_arena.leaderboard", "parse_scores", "protocol.parse_scores",
     lambda args, result: {"lines": len(result.scores)}),
    ("df_arena.leaderboard", "join", "protocol.join", _count_join),
    ("df_arena.leaderboard", "evaluate", "metrics.evaluate", None),
    ("df_arena.leaderboard", "pooled_eer", "metrics.pooled_eer", None),
    ("df_arena.augment", "read_wav", "wavio.read_wav", _count_read_wav),
    ("df_arena.augment", "write_wav", "wavio.write_wav", None),
    ("df_arena.augment", "reverberate", "augment.reverberate", None),
)

# Spans whose wchar delta is recorded (the store append is the only writer
# that runs alone on the main thread, so the process-wide counter is its own).
_WRITE_BYTES = {"leaderboard.store_append"}


class SpanRecorder:
    """Spans in memory: name, start, end, parent span id, thread id, counts.

    A span's parent is the innermost open span on its own thread; a span
    opened on a thread with nothing open (a pool worker) gets the innermost
    open span of the thread that created the recorder, which is the one that
    started the pool.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.errors: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_thread = threading.get_ident()
        self._root_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._root_thread:
            return self._root_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._root_stack[-1] if self._root_stack else None
        with self._lock:
            span = {"id": len(self.spans), "name": name, "parent": parent,
                    "thread": threading.get_ident(), "start": 0.0, "end": 0.0, "counts": {}}
            self.spans.append(span)
        stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            yield span["counts"]
        finally:
            span["end"] = time.perf_counter()
            stack.pop()

    def wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as counts:
                before = _wchar() if name in _WRITE_BYTES else None
                result = fn(*args, **kwargs)
                if before is not None:
                    counts["write_bytes"] = _wchar() - before
                if counter is not None:
                    try:
                        counts.update(counter(args, result))
                    except (AttributeError, TypeError, IndexError, OSError) as e:
                        self.errors.append(f"{name}: {type(e).__name__}: {e}")
                return result

        return wrapper


@contextlib.contextmanager
def traced(recorder: SpanRecorder):
    """Rebind every hooked name to a timing wrapper; restore all on exit.

    A hook whose module attribute does not exist is skipped and noted in
    ``recorder.errors``, so a renamed function shows as missing spans rather
    than a crash.
    """
    saved = []
    try:
        for module_name, attr, span_name, counter in HOOKS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                recorder.errors.append(f"{module_name}.{attr}: not found, not traced")
                continue
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, recorder.wrap(span_name, original, counter))
        yield recorder
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        sys.stderr.write("usage: tracer.py SPANS.json -- <df-arena arguments>\n")
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    from df_arena import cli

    recorder = SpanRecorder()
    code = 1
    try:
        with traced(recorder), recorder.span("cli.main"):
            code = cli.main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"spans": recorder.spans, "errors": recorder.errors}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
