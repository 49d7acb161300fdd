#!/usr/bin/env python3
"""Harness scorer for the subprocess adapter tests.

Reads newline-separated audio paths on stdin and emits one
``path<TAB>score`` line per path, where the score is a stable function of
the basename. Flags simulate the failure modes the adapter must handle:

  --drop-last    omit the final path from the output (incomplete output)
  --exit N       exit with status N after printing diagnostics to stderr
  --garbage      emit a malformed line first
  --last-score S print S as the last path's score
  --sleep S      sleep S seconds before answering (timeout testing)
  --invalid-utf8 STREAM  write the byte 0xff to stdout or stderr first
  --line-end E   end each output line with E instead of '\n'
"""

import argparse
import hashlib
import sys
import time
from pathlib import Path


def score_for(path: str) -> float:
    digest = hashlib.sha256(Path(path).stem.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little") / 2**32


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--drop-last", action="store_true")
    parser.add_argument("--exit", type=int, default=0)
    parser.add_argument("--garbage", action="store_true")
    parser.add_argument("--last-score", default=None)
    parser.add_argument("--sleep", type=float, default=0.0)
    parser.add_argument("--invalid-utf8", choices=["stdout", "stderr"], default=None)
    parser.add_argument("--line-end", default="\n")
    args = parser.parse_args()

    if args.sleep:
        time.sleep(args.sleep)
    paths = [line.strip() for line in sys.stdin if line.strip()]
    if args.invalid_utf8:
        getattr(sys, args.invalid_utf8).buffer.write(b"\xff\n")
    if args.exit != 0:
        print("simulated scorer failure: model checkpoint not found", file=sys.stderr)
        return args.exit
    if args.garbage:
        print("this is not a score line")
    if args.drop_last:
        paths = paths[:-1]
    scores = [f"{score_for(p):.6f}" for p in paths]
    if args.last_score is not None:
        scores[-1] = args.last_score
    for p, score in zip(paths, scores):
        print(f"{p}\t{score}", end=args.line_end)
    return 0


if __name__ == "__main__":
    sys.exit(main())
