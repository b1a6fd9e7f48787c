"""Sweep the size bounds for k-uniform sunflower-free families over a (k, M) grid.

Prints one row per cell with the main bound, the threshold bound when the
ratio M/k is small enough for it to bite, and which of the two is tighter.
"""

import argparse
import csv
import sys
from fractions import Fraction

from sunflower import erdos_rado_threshold, main_bound
from sunflower.bounds import THRESHOLD_K_CEILING


def parse_range(text: str) -> range:
    """An int or lo..hi as a range; argparse rejects a bad or reversed one."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            cells = range(int(lo), int(hi) + 1)
        else:
            cells = range(int(text), int(text) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad range {text!r}") from None
    if not cells:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return cells


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k", type=parse_range, default="2..6", help="k or lo..hi (default 2..6)")
    ap.add_argument("--m", type=parse_range, default="4..20", help="M or lo..hi (default 4..20)")
    ap.add_argument("--out", help="CSV path (default: stdout)")
    args = ap.parse_args(argv)
    if args.k[0] < 1:
        ap.error("--k must be at least 1")
    if args.k[-1] > THRESHOLD_K_CEILING:
        ap.error(
            f"--k above {THRESHOLD_K_CEILING}: the threshold's numerator passes"
            " Python's 4,300-digit int-to-str limit"
        )
    try:
        sink = open(args.out, "w", newline="") if args.out else sys.stdout
    except OSError as exc:
        ap.error(f"cannot open --out: {exc}")
    try:
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(["k", "M", "main_bound", "radius", "threshold", "tighter"])
        for k in args.k:
            threshold = erdos_rado_threshold(k, 3)
            for m in args.m:
                if m < k:
                    continue
                report = main_bound(k, m)
                tighter = "threshold" if Fraction(report.value) > threshold else "main"
                if "degenerate-zero" in report.flags:
                    tighter = "main"
                writer.writerow(
                    [k, m, repr(report.value), repr(report.radius), str(threshold), tighter]
                )
    finally:
        if args.out:
            sink.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
