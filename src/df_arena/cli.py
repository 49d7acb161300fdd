"""df-arena command line: eval, pool, leaderboard, correlate, augment, history, score.

Exit codes are stable across subcommands: 0 success, 1 data/runtime
failure (one machine-parsable JSON error record on stderr), 2 usage error.
stdout carries only the documented payload; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

from . import __version__
from .errors import ArenaError, AugmentError, open_output
from .vocab import (CATEGORIES, CLIP_POLICIES, EMIT_FORMATS, HIGHER_IS_BONAFIDE, JOIN_MODES,
                    MANIFEST_VERSION, MAX_SCORER_TIMEOUT_S, POLARITIES, PROTOCOL_FORMATS, RANK_KEYS,
                    RECORD_VERSION)

_VERSION_TEXT = (
    f"df-arena {__version__} (manifest_version {MANIFEST_VERSION}, record_version {RECORD_VERSION})"
)


def _number(kind, accept, requirement: str):
    """argparse type: ``kind(text)``, refused with a usage error unless ``accept(value)``."""

    def parse(text: str):
        value = kind(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in "invalid int value: ..."
    return parse


# Each handler imports what it runs, so --version and usage errors load neither
# spec nor store, and history loads store without record or dataclasses.
# perfbench/tracer.py rebinds cli.evaluate_arena, cli.emit, cli.store_append,
# cli.store_list and cli.augment_corpus, so these five stay names of this
# module: each imports its owner on first call. Once the tracer hooks the owning
# modules (ROADMAP item 1a), the handlers can import them directly and these go.
def evaluate_arena(*args, **kwargs):
    from .leaderboard import evaluate_arena

    return evaluate_arena(*args, **kwargs)


def emit(*args, **kwargs):
    from .record import emit

    return emit(*args, **kwargs)


def store_append(*args, **kwargs):
    from .store import store_append

    return store_append(*args, **kwargs)


def store_list(*args, **kwargs):
    from .store import store_list

    return store_list(*args, **kwargs)


def augment_corpus(*args, **kwargs):
    from .augment import augment_corpus

    return augment_corpus(*args, **kwargs)


_positive_int = _number(int, lambda v: v >= 1, ">= 1")


def _discard_unwritten(stream) -> None:
    """Send the text a failed write left buffered in stream to devnull, so that
    the flush at interpreter exit cannot fail again and change the exit code."""
    fd = stream.fileno()
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _write_payload(text: str, out: str | os.PathLike | None) -> None:
    """Write a payload to the file ``out``, or to stdout when there is none."""
    if not out:
        if sys.stdout is None:  # the interpreter started with file descriptor 1 closed
            raise ArenaError("cannot write stdout: it is closed")
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as e:
            _discard_unwritten(sys.stdout)
            raise ArenaError(f"cannot write stdout: {e.strerror or e}") from e
        return
    with open_output(out, ArenaError) as fh:
        fh.write(text.encode("utf-8"))


def _write_json(payload: dict, out: str | None) -> None:
    _write_payload(json.dumps(payload, indent=2, allow_nan=False) + "\n", out)


class _Version(argparse.Action):
    """--version, written as a payload: argparse's own action ignores a failed write."""

    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, dest, nargs=0, default=argparse.SUPPRESS,
                         help="show program's version number and exit")

    def __call__(self, parser, namespace, values, option_string=None):
        _write_payload(_VERSION_TEXT + "\n", None)
        parser.exit()


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="df-arena", description=__doc__)
    p.add_argument("--version", action=_Version)
    p.add_argument("--log-level", default="warning", choices=["debug", "info", "warning", "error"])
    sub = p.add_subparsers(dest="subcommand", required=True)
    # flags that several subcommands share, each defined once
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None)
    joining = argparse.ArgumentParser(add_help=False)
    joining.add_argument("--protocol-format", default=PROTOCOL_FORMATS[0], choices=PROTOCOL_FORMATS)
    joining.add_argument("--polarity", default=HIGHER_IS_BONAFIDE, choices=POLARITIES)
    joining.add_argument("--mode", default=JOIN_MODES[0], choices=JOIN_MODES)

    evalp = sub.add_parser("eval", parents=[joining, out], help="evaluate one score file against one protocol")
    evalp.add_argument("--protocol", required=True)
    evalp.add_argument("--scores", required=True)
    evalp.add_argument("--threshold", type=_number(float, math.isfinite, "a finite number"), default=None,
                       help="fixed accuracy/F1 threshold (default: the EER threshold)")
    evalp.add_argument("--system-id", default=None)
    evalp.add_argument("--dataset-id", default=None)
    evalp.set_defaults(func=cmd_eval)

    poolp = sub.add_parser("pool", parents=[joining, out], help="pooled EER over several protocol/score pairs")
    poolp.add_argument("--pair", nargs=2, action="append", required=True,
                       metavar=("PROTOCOL", "SCORES"))
    poolp.set_defaults(func=cmd_pool)

    lbp = sub.add_parser("leaderboard", parents=[out], help="evaluate a manifest and render the ranking")
    lbp.add_argument("--manifest", required=True)
    lbp.add_argument("--sort", default="pooled_eer", choices=RANK_KEYS)
    lbp.add_argument("--format", default="markdown", choices=EMIT_FORMATS)
    lbp.add_argument("--store", default=None, help="append the run to this store file")
    # accepted for older command lines; leaderboard evaluates sequentially
    lbp.add_argument("--jobs", type=_positive_int, default=1, help=argparse.SUPPRESS)
    lbp.set_defaults(func=cmd_leaderboard)

    corrp = sub.add_parser("correlate", parents=[out], help="correlate dataset EER columns with the average")
    corrp.add_argument("--matrix", required=True, help="CSV: rows=systems, columns=datasets")
    corrp.add_argument("--bins", type=_number(int, lambda v: v >= 2, ">= 2"), default=None,
                       help="mutual-information bins")
    corrp.add_argument("--systems", default=None, help="comma-separated system subset")
    corrp.add_argument("--format", default="csv", choices=["csv", "json"])
    corrp.set_defaults(func=cmd_correlate)

    augp = sub.add_parser("augment", help="perturb a WAV corpus deterministically")
    augp.add_argument("--in", dest="in_dir", required=True)
    augp.add_argument("--out", dest="out_dir", required=True)
    augp.add_argument("--category", required=True, choices=CATEGORIES)
    augp.add_argument("--source", required=True, help="interferer/RIR directory")
    augp.add_argument("--snr-low", type=float, default=None)
    augp.add_argument("--snr-high", type=float, default=None)
    augp.add_argument("--clip-policy", default="peak-normalize", choices=CLIP_POLICIES)
    augp.add_argument("--seed", type=int, required=True)
    augp.add_argument("--jobs", type=_positive_int, default=1)
    augp.set_defaults(func=cmd_augment)

    histp = sub.add_parser("history", parents=[out], help="list runs appended to a store")
    histp.add_argument("--store", required=True)
    histp.add_argument("--format", default="text", choices=["text", "json"])
    histp.set_defaults(func=cmd_history)

    scorep = sub.add_parser("score", parents=[out], help="run an external scorer and write a score file")
    scorep.add_argument("--cmd", required=True, help="scorer command line")
    scorep.add_argument("--list", dest="audio_list", required=True,
                        help="file of newline-separated audio paths")
    scorep.add_argument("--timeout", default=None,
                        type=_number(float, lambda v: 0 < v <= MAX_SCORER_TIMEOUT_S,
                                     f"seconds in (0, {MAX_SCORER_TIMEOUT_S}]"))
    scorep.set_defaults(func=cmd_score)

    return p


def cmd_eval(args) -> int:
    from pathlib import Path

    from .metrics import evaluate
    from .protocol import join, parse_protocol, parse_scores

    trials = parse_protocol(args.protocol, args.protocol_format)
    scores = parse_scores(args.scores)
    system_id = Path(args.scores).stem if args.system_id is None else args.system_id
    dataset_id = Path(args.protocol).stem if args.dataset_id is None else args.dataset_id
    try:
        joined = join(trials, scores, mode=args.mode, polarity=args.polarity)
        if joined.dropped_trials or joined.dropped_scores:
            _log(args, "info", "intersect join dropped %d trials and %d scores",
                 joined.dropped_trials, joined.dropped_scores)
        report = evaluate(joined, system_id, dataset_id, decision_threshold=args.threshold)
    except ArenaError as e:
        raise type(e)(f"scores {args.scores}, protocol {args.protocol}: {e}") from e
    _write_json(report._asdict(), args.out)
    return 0


def cmd_pool(args) -> int:
    from .metrics import pooled_eer
    from .protocol import join, parse_protocol, parse_scores

    joined_sets = []
    n_bona = n_spoof = 0
    for protocol_path, score_path in args.pair:
        trials = parse_protocol(protocol_path, args.protocol_format)
        scores = parse_scores(score_path)
        try:
            joined = join(trials, scores, mode=args.mode, polarity=args.polarity)
        except ArenaError as e:
            raise type(e)(f"scores {score_path}, protocol {protocol_path}: {e}") from e
        joined_sets.append(joined)
        n_bona += int(joined.is_bonafide.sum())
        n_spoof += int((~joined.is_bonafide).sum())
    try:
        value, threshold = pooled_eer(joined_sets)
    except ArenaError as e:
        pairs = "; ".join(f"scores {s}, protocol {p}" for p, s in args.pair)
        raise type(e)(f"{pairs}: {e}") from e
    payload = {
        "pooled_eer": value,
        "pooled_eer_threshold": threshold,
        "n_sets": len(joined_sets),
        "n_bonafide": n_bona,
        "n_spoof": n_spoof,
    }
    _write_json(payload, args.out)
    return 0


_REPORT_SUFFIX = {"markdown": "md", "csv": "csv", "json": "json"}


def cmd_leaderboard(args) -> int:
    from .spec import load_manifest

    manifest = load_manifest(args.manifest)
    record = evaluate_arena(manifest, tool_version=__version__)
    payload = emit(record, args.format, sort=args.sort)
    if args.out is None and manifest.output_dir is not None:
        # manifest-declared output directory: keep a copy next to the run data
        report_path = manifest.output_dir / f"leaderboard.{_REPORT_SUFFIX[args.format]}"
        try:
            manifest.output_dir.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise ArenaError(f"cannot write {report_path}: {e.strerror or e}") from e
        _write_payload(payload, report_path)
        _log(args, "info", "report written to %s", report_path)
    _write_payload(payload, args.out)
    if args.store:  # after every write, so a run that failed to report is not recorded
        store_append(args.store, record)
        _log(args, "info", "appended run %s to %s", record.run_id, args.store)
    return 0


def cmd_correlate(args) -> int:
    from .stats import correlate_matrix, load_matrix_csv

    matrix = load_matrix_csv(args.matrix)
    if args.systems:
        wanted = [s.strip() for s in args.systems.split(",") if s.strip()]
        matrix = matrix.subset(wanted)
    report = correlate_matrix(matrix, bins=args.bins)
    payload = report.to_csv() if args.format == "csv" else report.to_json()
    _write_payload(payload, args.out)
    return 0


def cmd_augment(args) -> int:
    if (args.snr_low is None) != (args.snr_high is None):
        raise UsageError("--snr-low and --snr-high must be given together")
    from .spec import AugmentSpec

    try:
        spec = AugmentSpec(
            category=args.category,
            source_dir=args.source,
            seed=args.seed,
            snr_range_db=None if args.snr_low is None else (args.snr_low, args.snr_high),
            clip_policy=args.clip_policy,
        )
    except AugmentError as e:
        raise UsageError(str(e)) from None
    from .augment import keep_freed_memory

    keep_freed_memory()  # process-wide, so the CLI sets it and augment_corpus does not
    summary = augment_corpus(args.in_dir, args.out_dir, spec, jobs=args.jobs)
    payload = {
        "category": spec.category,
        "seed": spec.seed,
        "files_processed": len(summary.entries),
        "manifest": summary.manifest_path,
        "entries": [vars(e) for e in summary.entries],
        "failures": [{"input": path, "reason": reason} for path, reason in summary.failures],
    }
    _write_json(payload, None)
    if summary.failures:
        _error_record(ArenaError(f"{len(summary.failures)} file(s) failed; see summary"))
        return 1
    return 0


_RUN_LINE = ("{run_id}  {timestamp}  digest={manifest_digest:.12}  systems={n_systems}  "
             "datasets={n_datasets}")
_ISSUE_LINE = "unreadable record at line {line_number} (byte offset {byte_offset}): {reason}"


def cmd_history(args) -> int:
    runs, issues = store_list(args.store)
    runs, issues = [r._asdict() for r in runs], [i._asdict() for i in issues]
    if args.format == "json":
        _write_json({"runs": runs, "issues": issues}, args.out)
        return 0
    lines = [_RUN_LINE.format_map(r) for r in runs] + [_ISSUE_LINE.format_map(i) for i in issues]
    _write_payload("".join(line + "\n" for line in lines), args.out)
    return 0


def cmd_score(args) -> int:
    from .protocol import serialize_scores
    from .scorer import run_external_scorer

    score_set = run_external_scorer(args.cmd, args.audio_list, timeout=args.timeout)
    _write_payload(serialize_scores(score_set), args.out)
    return 0


class UsageError(Exception):
    """Raised by subcommands for argument combinations argparse cannot check."""


# df_arena writes only info and debug records, so at any other --log-level nothing
# would print, and logging is not imported
_LOGGED_LEVELS = ("debug", "info")


def _setup_logging(level: str) -> None:
    if level not in _LOGGED_LEVELS:
        return
    import logging

    logging.basicConfig(
        level=getattr(logging, level.upper()),
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )


def _log(args, level: str, message: str, *values, **kwargs) -> None:
    """Log ``message`` at ``level`` on the ``df_arena`` logger, if ``--log-level`` lets it print."""
    if args.log_level in _LOGGED_LEVELS:
        import logging

        getattr(logging.getLogger("df_arena"), level)(message, *values, **kwargs)


def _error_record(exc: Exception) -> None:
    record = {"error": type(exc).__name__, "message": str(exc)}
    if sys.stderr is None:  # the interpreter started with file descriptor 2 closed
        return
    try:
        sys.stderr.write(json.dumps(record) + "\n")
        sys.stderr.flush()
    except OSError:  # nowhere left to report to; the exit code still says 1
        with contextlib.suppress(OSError):
            _discard_unwritten(sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = None
    try:
        args = parser.parse_args(argv)  # --version writes its payload here
        _setup_logging(args.log_level)
        return args.func(args)
    except UsageError as e:
        parser.error(str(e))  # exits 2
    except ArenaError as e:
        _error_record(e)
        return 1
    except Exception as e:  # unexpected runtime failure: still exit 1, record kept parsable
        if args is not None:
            _log(args, "debug", "unexpected failure", exc_info=True)
        _error_record(e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
