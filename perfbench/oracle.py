"""Independent checks of the package's answers.

Nothing here imports the package under test.  Freeness is checked with the
definitions themselves, maxima come from a table with their sources, and
counts come from closed forms or naive enumeration.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product


class Reject(Exception):
    """The oracle refused an answer."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise Reject(message)


# ------------------------------------------------------------ definitions


def is_vector_sunflower(x, y, z) -> bool:
    """Three distinct vectors; every coordinate all-equal or all-distinct."""
    if x == y or y == z or x == z:
        return False
    for a, b, c in zip(x, y, z):
        all_equal = a == b == c
        all_distinct = a != b and b != c and a != c
        if not (all_equal or all_distinct):
            return False
    return True


def is_set_sunflower(a: frozenset, b: frozenset, c: frozenset) -> bool:
    """Three distinct sets whose pairwise intersections equal the kernel."""
    if a == b or b == c or a == c:
        return False
    kernel = a & b & c
    return a & b == kernel and a & c == kernel and b & c == kernel


def require_free(points, is_sunflower, what: str) -> None:
    """Cubic definitional scan; for caps and small witnesses only."""
    require(len(set(points)) == len(points), f"{what}: repeated point")
    for x, y, z in combinations(points, 3):
        require(not is_sunflower(x, y, z), f"{what}: sunflower {x} {y} {z}")


# ------------------------------------------------------------ known maxima

_SEED_PROOF = "exhaustive branch and bound of the first release; witness re-checked here"
_GRAPHS = "max degree <= 2 and no 3 disjoint edges leave at most two triangles"

# (kind, parameters) -> (maximum size of a sunflower-free family, source)
MAXIMA = {
    ("vectors", (3, 3, 3)): (9, "Pellegrino 1970: largest cap in AG(3,3)"),
    ("vectors", (3, 3, 3, 3)): (20, "Pellegrino 1970: largest cap in AG(4,3)"),
    ("vectors", (3, 3, 4)): (10, _SEED_PROOF),
    ("vectors", (4, 4, 4)): (12, _SEED_PROOF),
    ("vectors", (2,) * 7): (128, "no three distinct binary vectors form a sunflower"),
    ("uniform", (3, 6)): (10, _SEED_PROOF),
    ("uniform", (3, 7)): (12, _SEED_PROOF),
    ("uniform", (2, 6)): (6, _GRAPHS),
    ("uniform", (2, 9)): (6, _GRAPHS),
}

# Largest caps in AG(n,3), n = 1..6 (Pellegrino 1970; Edel, Ferret, Landjev
# and Storme 2002; Potechin 2008).  Every valid upper bound is at least this.
CAP_MAXIMA = (2, 4, 9, 20, 45, 112)


def maximum(kind: str, params: tuple[int, ...]) -> int:
    return MAXIMA[(kind, params)][0]


def max_union_2(m: int) -> int:
    """Largest union of a sunflower-free graph on [m], m >= 3: two triangles."""
    return min(m, 6)


# ------------------------------------------------------------ instances


def instance_points(kind: str, params: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Candidate points in the documented lexicographic order."""
    if kind == "vectors":
        return list(product(*(range(d) for d in params)))
    k, m = params
    return list(combinations(range(m), k))


def point_sunflower(kind: str):
    if kind == "vectors":
        return is_vector_sunflower
    return lambda a, b, c: is_set_sunflower(frozenset(a), frozenset(b), frozenset(c))


def _comb(n: int, k: int) -> int:
    return math.comb(n, k) if 0 <= k <= n else 0


def sunflower_triples(kind: str, params: tuple[int, ...]) -> int:
    """Number of sunflower triples among all candidate points, in closed form.

    Z_3^n: the affine lines, 3^n (3^n - 1) / 6.  k-subsets of [m]: a
    kernel of size c and three pairwise disjoint petals of size k - c.
    """
    if kind == "vectors":
        require(all(d == 3 for d in params), "closed form covers Z_3^n only")
        n = 3 ** len(params)
        return n * (n - 1) // 6
    k, m = params
    total = 0
    for c in range(k):
        petal = k - c
        total += (
            _comb(m, c) * _comb(m - c, petal) * _comb(m - c - petal, petal)
            * _comb(m - c - 2 * petal, petal)
        )
    return total // 6


def naive_sunflower_triples(kind: str, params: tuple[int, ...]) -> int:
    test = point_sunflower(kind)
    return sum(1 for x, y, z in combinations(instance_points(kind, params), 3) if test(x, y, z))


def triples_through(members: int, witness) -> int:
    """Triples a lexicographic scan of range(members) visits up to witness.

    Every triple whose first index is below the witness's is visited, and
    the witness is the last pair for its first index in every planted input.
    """
    i, j, l = witness
    require(j == members - 2 and l == members - 1, "witness is not the last pair")
    return math.comb(members, 3) - math.comb(members - i - 1, 3)


# ------------------------------------------------------------ search answers


def check_search(result, kind: str, params: tuple[int, ...], exact: bool) -> int:
    """Check one search result; return the budget gap (known minus found)."""
    known = maximum(kind, params)
    pts = [tuple(p) for p in result.witness_points]
    require(len(pts) == result.maximum, "witness size differs from the maximum")
    lex = instance_points(kind, params)
    for i, p in zip(result.witness_indices, pts):
        require(0 <= i < len(lex) and lex[i] == p, f"witness index {i} is not {p}")
    if kind == "vectors" and all(d == 2 for d in params):
        # no triple of distinct binary vectors is a sunflower
        require(len(set(pts)) == len(pts), "repeated witness point")
        require(all(len(p) == len(params) and set(p) <= {0, 1} for p in pts), "bad point")
    else:
        require_free(pts, point_sunflower(kind), f"{kind} {params} witness")
    require(result.maximum <= known, f"maximum {result.maximum} exceeds known {known}")
    if exact or result.optimal:
        require(result.optimal, "exact search stopped early")
        require(result.maximum == known, f"maximum {result.maximum}, known {known}")
    return known - result.maximum


def check_union_report(report, k: int, m: int) -> None:
    require(k == 2, "union maxima are tabulated for k = 2 only")
    members = [frozenset(w) for w in report.witness]
    require(all(len(mem) == k and mem <= set(range(m)) for mem in members), "bad member")
    require_free(members, is_set_sunflower, f"union witness k={k} m={m}")
    union = frozenset().union(*members)
    require(report.optimal, "union search stopped early")
    require(report.max_union == len(union) == max_union_2(m), f"max union for m={m}")


# ------------------------------------------------------------ detection answers


def check_witness(indices, expected, rows, is_sunflower) -> None:
    """A planted input's witness: the expected triple, a sunflower by definition."""
    require(tuple(indices) == tuple(expected), f"witness {indices}, expected {expected}")
    require(is_sunflower(*(rows[i] for i in indices)), "witness is not a sunflower")


def check_plant(rows, witness) -> None:
    """The rows before the last are sunflower-free (by construction), so the
    only sunflowers contain the last row: exactly the witness must."""
    *head, z = rows
    hits = [(i, j, len(head)) for i, j in combinations(range(len(head)), 2)
            if is_vector_sunflower(head[i], head[j], z)]
    require(hits == [tuple(witness)], f"planted sunflowers {hits}, expected {witness}")


# ------------------------------------------------------------ reductions


def check_partition(structure, kept, members: list[frozenset], k: int) -> None:
    """Classes partition the ground set; kept is exactly the transversal members."""
    classes = [frozenset(c) for c in structure.classes]
    require(len(classes) == k, "wrong class count")
    ground = frozenset().union(*members)
    require(sum(len(c) for c in classes) == len(ground), "classes overlap")
    require(frozenset().union(*classes) == ground, "classes miss the ground set")
    transversal = [m for m in members if all(len(m & c) == 1 for c in classes)]
    require(list(kept.members) == transversal, "kept members are not the transversal ones")


def check_pipeline(trace, size: int, k: int) -> None:
    require(trace.input_size == size and trace.k == k, "pipeline input misreported")
    require(all(trace.certificates.values()), f"failed certificate {trace.certificates}")
    require(size >= trace.g_size >= trace.h_size, "stage sizes grow")
    # derandomized partition: |G| >= (k! / k^k) |F|
    require(trace.g_size * k**k >= size * math.factorial(k), "partition guarantee broken")


# ------------------------------------------------------------ bounds


def j_reference(q: int) -> float:
    """min over 0 < x < 1 of (1 - x^q) / ((1 - x) x^((q-1)/3)), over q.

    With x = e^t the log objective is log(sum_{i<q} e^{it}) - (q-1) t / 3,
    convex in t, so a golden-section search finds the global minimum.
    """

    def g(t: float) -> float:
        x = math.exp(t)
        return math.log((1.0 - x**q) / (1.0 - x)) - (q - 1) * t / 3.0

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = -30.0, -1e-6
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    gc, gd = g(c), g(d)
    while b - a > 1e-11:
        if gc < gd:
            b, d, gd = d, c, gc
            c = b - inv_phi * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + inv_phi * (b - a)
            gd = g(d)
    return math.exp(g(0.5 * (a + b))) / q


def check_j(result, q: int, reference: float) -> None:
    require(result.q == q and 0.0 < result.x_star < 1.0, f"bad J minimizer for q={q}")
    require(result.error_radius >= 0.0, "negative radius")
    require(abs(result.j_value - reference) <= 1e-9 * reference, f"J({q}) off the reference")


def check_bound_reports(reports, known: int) -> None:
    """Every at-most bound, and every forcing threshold, is at least the known maximum."""
    require(reports, "no bounds reported")
    for r in reports:
        exact = r.exactness in ("exact-int", "exact-rational")
        require(exact == (r.radius is None), f"{r.name}: radius tag mismatch")
        if "degenerate-zero" in r.flags or "up-to-unspecified-constant" in r.flags:
            continue
        value = Fraction(r.value) if exact else Fraction(r.value + r.radius)
        require(value >= known, f"{r.name} = {r.value} is below the known maximum {known}")


# ------------------------------------------------------------ DIMACS


def parse_dimacs(text: str):
    """(num_vars, clauses, comments) from DIMACS text, header checked."""
    require(text.endswith("\n") and "\r" not in text, "bad line endings")
    header = None
    clauses: list[tuple[int, ...]] = []
    comments: list[str] = []
    for line in text.splitlines():
        if line.startswith("c"):
            require(header is None, "comment after the header")
            comments.append(line[2:])
        elif line.startswith("p "):
            parts = line.split()
            require(len(parts) == 4 and parts[1] == "cnf", f"bad header {line!r}")
            header = (int(parts[2]), int(parts[3]))
        else:
            lits = [int(t) for t in line.split()]
            require(bool(lits) and lits[-1] == 0 and 0 not in lits[:-1], f"bad clause {line!r}")
            clauses.append(tuple(lits[:-1]))
    require(header is not None, "no header")
    require(header[1] == len(clauses), "header clause count differs")
    return header[0], clauses, comments


def check_triple_clauses(clauses, kind: str, params: tuple[int, ...], expected: int) -> None:
    """The all-negative 3-clauses over point variables are exactly the sunflowers."""
    pts = instance_points(kind, params)
    test = point_sunflower(kind)
    count = len(pts)
    seen = set()
    for cl in clauses:
        if len(cl) == 3 and all(lit < 0 and -lit <= count for lit in cl):
            idx = tuple(sorted(-lit - 1 for lit in cl))
            require(idx not in seen, f"repeated triple clause {cl}")
            require(test(*(pts[i] for i in idx)), f"clause {cl} is not a sunflower")
            seen.add(idx)
    require(len(seen) == expected, f"{len(seen)} triple clauses, expected {expected}")
