"""Tabulate the base constant J(q) of the vector bound over a range of q.

Each row carries the minimizer x*, the constant, and the certified error
radius, so the CSV doubles as a regression fixture for the minimizer.
"""

import argparse
import csv
import sys

from sunflower import j_constant


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--q-min", type=int, default=3)
    ap.add_argument("--q-max", type=int, default=64)
    ap.add_argument("--out", help="CSV path (default: stdout)")
    args = ap.parse_args(argv)
    if args.q_min < 2 or args.q_max < args.q_min:
        ap.error("need 2 <= q-min <= q-max")

    sink = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(["q", "x_star", "j", "radius"])
        for q in range(args.q_min, args.q_max + 1):
            res = j_constant(q)
            writer.writerow([q, repr(res.x_star), repr(res.j_value), repr(res.error_radius)])
    finally:
        if args.out:
            sink.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
