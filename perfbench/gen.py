"""Seeded benchmark inputs: images of sunflower-free products of small caps.

Over Z_3 three distinct vectors form a sunflower exactly when every
coordinate is all-equal or all-distinct, which is exactly when they lie on
an affine line (x + y + z = 0 coordinatewise).  A cap is a set with no three
points on a line, so caps are sunflower-free, and a product of
sunflower-free families is sunflower-free: if the first blocks of a triple
are all equal the second blocks form a sunflower, and if they are not all
equal they must be all distinct in every coordinate where they differ.
Permuting coordinates, applying a bijection of values per coordinate and
shuffling rows preserve the equality pattern of every triple, so every image
of a product is sunflower-free too.  The caps below are checked with the
definitional test in oracle.py before any image is built.

Nothing here imports the package under test; the program receives only the
generated rows and text.
"""

from __future__ import annotations

import random
from itertools import product

# Caps in Z_3^n.  CAP3 and CAP4 have the maximum size for their dimension
# (9 and 20, Pellegrino 1970).
CAP1 = ((0,), (1,))
CAP2 = tuple(product((0, 1), repeat=2))
CAP3 = (
    (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0),
    (1, 0, 1), (1, 1, 2), (1, 2, 2), (2, 1, 2),
)
CAP4 = (
    (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 1, 1), (0, 1, 0, 0),
    (0, 1, 0, 1), (0, 1, 1, 0), (0, 1, 1, 1), (1, 0, 0, 0), (1, 0, 0, 1),
    (1, 0, 1, 2), (1, 0, 2, 2), (1, 1, 0, 2), (1, 2, 0, 2), (2, 0, 1, 2),
    (2, 1, 0, 2), (2, 1, 1, 0), (2, 1, 1, 1), (2, 1, 2, 2), (2, 2, 1, 2),
)
CAPS = (CAP1, CAP2, CAP3, CAP4)


def product_rows(*caps) -> list[tuple[int, ...]]:
    return [sum(parts, ()) for parts in product(*caps)]


def image(rows: list[tuple[int, ...]], rng: random.Random) -> list[tuple[int, ...]]:
    """Permute coordinates, relabel values per coordinate, shuffle rows."""
    n = len(rows[0])
    perm = list(range(n))
    rng.shuffle(perm)
    relabel = []
    for _ in range(n):
        values = [0, 1, 2]
        rng.shuffle(values)
        relabel.append(values)
    out = [tuple(relabel[i][row[perm[i]]] for i in range(n)) for row in rows]
    rng.shuffle(out)
    return out


def third_point(u: tuple[int, ...], z: tuple[int, ...]) -> tuple[int, ...]:
    """The point completing the line through u and z in Z_3^n."""
    return tuple((-a - b) % 3 for a, b in zip(u, z))


def plant(rows: list[tuple[int, ...]], rng: random.Random):
    """Add one point closing exactly one line with the sunflower-free rows.

    The new point z goes last and its two partners go to positions N // 3
    and N - 1, so the only sunflower is (N // 3, N - 1, N): a scan in
    index-lexicographic order meets it after about 70% of all triples.
    Returns the planted rows and that witness.
    """
    members = set(rows)
    n = len(rows[0])
    candidates = []
    for z in product(range(3), repeat=n):
        if z in members:
            continue
        partners = [u for u in rows if third_point(u, z) in members]
        if len(partners) == 2:
            candidates.append((z, partners))
    if not candidates:
        raise ValueError("no point closes exactly one line with these rows")
    z, partners = rng.choice(candidates)
    rng.shuffle(partners)
    first, second = partners
    rest = [r for r in rows if r != first and r != second]
    p = len(rows) // 3
    planted = rest[:p] + [first] + rest[p:] + [second, z]
    return planted, (p, len(rows) - 1, len(rows))


def vector_text(rows) -> str:
    return "".join(",".join(str(c) for c in row) + "\n" for row in rows)


def inline_text(rows) -> str:
    """The CLI's --inline form: ';' separates lines."""
    return ";".join(",".join(str(c) for c in row) for row in rows)
