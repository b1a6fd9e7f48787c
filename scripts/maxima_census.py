"""Exact maxima for small instances, side by side with the bounds capping them.

Runs the branch-and-bound search on every cell of a small census (cyclic
products and uniform families), then reports the maximum, the node count,
and the slack against the smallest exact unflagged bound `compare_bounds`
lists for the cell: generalized-ns when every modulus is at least 3,
binary-slice when some modulus is 2, and the Erdos-Rado threshold for
uniform cells.  Float bounds are left out, so the slack stays exact.
Everything here finishes in seconds; the point is to eyeball how loose the
bounds are at desk scale.
"""

import argparse
import csv
import sys

from sunflower import compare_bounds, max_sunflower_free_uniform, max_sunflower_free_vectors

VECTOR_CELLS = [
    (3,), (4,), (5,), (6,), (7,),
    (3, 3), (4, 4), (2, 6), (3, 5),
    (3, 3, 3), (2, 2, 2),
]
UNIFORM_CELLS = [(2, m) for m in range(4, 9)] + [(3, m) for m in range(4, 7)]


def _cells(budget: int):
    """(instance label, search result, compare_bounds context) for each cell."""
    for moduli in VECTOR_CELLS:
        res = max_sunflower_free_vectors(moduli, max_nodes=budget)
        yield "Z" + "x".join(str(d) for d in moduli), res, {"moduli": moduli}
    for k, m in UNIFORM_CELLS:
        res = max_sunflower_free_uniform(k, m, max_nodes=budget)
        yield f"({k},{m})-uniform", res, {"k": k, "M": m}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--budget-nodes", type=int, default=2_000_000)
    ap.add_argument("--out", help="CSV path (default: stdout)")
    args = ap.parse_args(argv)

    sink = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(["instance", "maximum", "optimal", "nodes", "bound", "slack"])
        for label, res, context in _cells(args.budget_nodes):
            bound = min(
                r.value for r in compare_bounds(**context) if r.radius is None and not r.flags
            )
            writer.writerow(
                [label, res.maximum, res.optimal, res.nodes_explored, bound, bound - res.maximum]
            )
    finally:
        if args.out:
            sink.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
