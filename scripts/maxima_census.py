"""Exact maxima for small instances, side by side with the bounds capping them.

Runs the branch-and-bound search on every cell of a small census (cyclic
products and uniform families), then reports the maximum, the node count,
and the slack against one bound per cell: the generalized Naslund-Sawin
bound when every modulus is at least 3, the slice bound below when some
modulus is 2, and the Erdos-Rado threshold for uniform cells.  That bound
is not always the tightest one `compare_bounds` knows.  Everything here
finishes in seconds; the point is to eyeball how loose the bounds are at
desk scale.
"""

import argparse
import csv
import math
import sys

from sunflower import (
    erdos_rado_threshold,
    generalized_ns_bound,
    max_sunflower_free_uniform,
    max_sunflower_free_vectors,
)

VECTOR_CELLS = [
    (3,), (4,), (5,), (6,), (7,),
    (3, 3), (4, 4), (2, 6), (3, 5),
    (3, 3, 3), (2, 2, 2),
]
UNIFORM_CELLS = [(2, m) for m in range(4, 9)] + [(3, m) for m in range(4, 7)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--budget-nodes", type=int, default=2_000_000)
    ap.add_argument("--out", help="CSV path (default: stdout)")
    args = ap.parse_args(argv)

    sink = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(["instance", "maximum", "optimal", "nodes", "bound", "slack"])
        for moduli in VECTOR_CELLS:
            res = max_sunflower_free_vectors(moduli, max_nodes=args.budget_nodes)
            if min(moduli) >= 3:
                bound = generalized_ns_bound(moduli)
            else:
                # each of the 2**a slices that fix the a coordinates of modulus
                # 2 keeps them all-equal on every triple, so it is a free
                # family over the moduli >= 3; the point count caps it too
                rest = [d for d in moduli if d >= 3]
                bound = min(math.prod(moduli), 2 ** moduli.count(2) * generalized_ns_bound(rest))
            writer.writerow(
                [
                    "Z" + "x".join(str(d) for d in moduli),
                    res.maximum,
                    res.optimal,
                    res.nodes_explored,
                    bound,
                    bound - res.maximum,
                ]
            )
        for k, m in UNIFORM_CELLS:
            res = max_sunflower_free_uniform(k, m, max_nodes=args.budget_nodes)
            bound = erdos_rado_threshold(k, 3)
            writer.writerow(
                [
                    f"({k},{m})-uniform",
                    res.maximum,
                    res.optimal,
                    res.nodes_explored,
                    str(bound),
                    str(bound - res.maximum),
                ]
            )
    finally:
        if args.out:
            sink.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
