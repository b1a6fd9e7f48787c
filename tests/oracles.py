"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the slow, obvious way: definitional
scans, exhaustive enumeration in lexicographic order, and high-precision
arithmetic via mpmath.  Nothing imports from the package's internals beyond
plain data (tuples, frozensets), so agreement is meaningful evidence.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial

import mpmath as mp


# ---------------------------------------------------------------- detection


def brute_is_sunflower_sets(sets) -> bool:
    """Definitional check: every pairwise intersection equals the kernel."""
    sets = [frozenset(s) for s in sets]
    if len(sets) < 2 or len(set(sets)) != len(sets):
        raise ValueError("need at least two distinct sets")
    kernel = frozenset.intersection(*sets)
    return all(a & b == kernel for a, b in itertools.combinations(sets, 2))


def brute_find_sunflower_sets(members, t=3):
    """First t-tuple of indices (lex order) forming a sunflower, else None."""
    for idxs in itertools.combinations(range(len(members)), t):
        chosen = [members[i] for i in idxs]
        if len(set(map(frozenset, chosen))) != t:
            continue
        if brute_is_sunflower_sets(chosen):
            return idxs
    return None


def brute_is_sunflower_vectors(x, y, z) -> bool:
    if len({x, y, z}) != 3:
        raise ValueError("need three distinct vectors")
    for a, b, c in zip(x, y, z):
        if not (a == b == c or len({a, b, c}) == 3):
            return False
    return True


def brute_find_sunflower_vectors(members):
    for idxs in itertools.combinations(range(len(members)), 3):
        x, y, z = (members[i] for i in idxs)
        if len({x, y, z}) == 3 and brute_is_sunflower_vectors(x, y, z):
            return idxs
    return None


def brute_sunflower_triples(members, vectors=False):
    """Every index triple (i, j, l), i < j < l, forming a sunflower, in lex order.

    Members must be distinct: sets, or vectors when vectors is true.
    """
    test = (lambda c: brute_is_sunflower_vectors(*c)) if vectors else brute_is_sunflower_sets
    return [
        idxs
        for idxs in itertools.combinations(range(len(members)), 3)
        if test([members[i] for i in idxs])
    ]


def brute_find_ap_triple(members, moduli):
    """First (i, j, l), i < j < l, with m_i + m_l = 2 m_j in every coordinate."""
    for i, j, l in itertools.combinations(range(len(members)), 3):
        x, y, z = members[i], members[j], members[l]
        if all((a + c - 2 * b) % d == 0 for a, b, c, d in zip(x, y, z, moduli)):
            return (i, j, l)
    return None


# ---------------------------------------------------------------- exhaustive extremal search


def _free_sets(points, idxs) -> bool:
    return brute_find_sunflower_sets([points[i] for i in idxs]) is None


def _free_vectors(points, idxs) -> bool:
    return brute_find_sunflower_vectors([points[i] for i in idxs]) is None


def brute_max_free(points, kind) -> tuple[int, tuple[int, ...]]:
    """Maximum sunflower-free subfamily by a lex-order walk over free index sets.

    Freeness is hereditary, so every free index tuple extends a free one a
    point shorter: the walk visits each free tuple once, in lexicographic
    order with prefixes first, and tests with the definitional predicate
    only the triples that the last index adds.  Within one size that order
    is itertools.combinations' order, so the first tuple of the largest
    size is the lexicographically smallest maximum one, as in
    brute_max_free_descent.
    """
    if kind == "sets":
        def sunflower(x, y, z):
            return len({x, y, z}) == 3 and brute_is_sunflower_sets((x, y, z))
    else:
        def sunflower(x, y, z):
            return len({x, y, z}) == 3 and brute_is_sunflower_vectors(x, y, z)

    best: tuple[int, ...] = ()

    def walk(chosen):
        nonlocal best
        if len(chosen) > len(best):
            best = chosen
        for q in range(chosen[-1] + 1 if chosen else 0, len(points)):
            if not any(sunflower(points[a], points[b], points[q])
                       for a, b in itertools.combinations(chosen, 2)):
                walk(chosen + (q,))

    walk(())
    return len(best), best


def brute_max_free_descent(points, kind) -> tuple[int, tuple[int, ...]]:
    """Maximum sunflower-free subfamily by exhaustive descent.

    Scans sizes from |points| down; within a size, itertools.combinations
    yields index tuples in lexicographic order, so the first free family found
    is the lexicographically smallest maximum one.
    """
    check = _free_sets if kind == "sets" else _free_vectors
    n = len(points)
    for r in range(n, 0, -1):
        for idxs in itertools.combinations(range(n), r):
            if check(points, idxs):
                return r, idxs
    return 0, ()


def brute_max_union(k, m) -> tuple[int, tuple[int, ...]]:
    """Largest union over sunflower-free families of k-subsets of range(m).

    The family returned is the smallest attaining it in tuple order, where a
    prefix comes first: the minimum over every free family, by enumeration.
    """
    points = [frozenset(c) for c in itertools.combinations(range(m), k)]
    n = len(points)
    free = [
        idxs
        for r in range(n + 1)
        for idxs in itertools.combinations(range(n), r)
        if _free_sets(points, idxs)
    ]

    def union(idxs):
        return len(frozenset().union(*(points[i] for i in idxs)))

    best = max(map(union, free))
    return best, min(idxs for idxs in free if union(idxs) == best)


def brute_cover_count(members) -> tuple[int, tuple[int, ...]]:
    """Smallest subfamily covering the union, lex-first among the smallest."""
    universe = frozenset().union(*members) if members else frozenset()
    if not universe:
        return 0, ()
    n = len(members)
    for r in range(1, n + 1):
        for idxs in itertools.combinations(range(n), r):
            if frozenset().union(*(members[i] for i in idxs)) == universe:
                return r, idxs
    raise AssertionError("the full family always covers its own union")


def brute_branch_and_bound(points, kind, start, incumbent, union=False, max_nodes=None, thirds=None):
    """(nodes, prunes, best) of the engine's include-first walk, rebuilt plainly.

    Recursive, with candidates narrowed by the definitional triple test over
    every chosen pair.  A node counts once; it records a strictly better
    value, then is pruned when value + |candidates| (for union, the union
    with every candidate) cannot beat the best, else includes its lowest
    candidate and afterwards resumes without it.  Candidates start above the
    last point of start, restricted to those closing no sunflower with it.
    With max_nodes, the node after the budget is counted and nothing more is
    done: the walk stops there with max_nodes + 1 nodes and its incumbent.
    With thirds, the start node is counted and then scanned over the
    candidates d in thirds, in the order given: it is pruned, once, at the
    first d whose bound with the candidates from d up cannot beat the best,
    and otherwise walks from start + [d] with every candidate above d.
    """
    sets = kind == "sets"
    test = brute_is_sunflower_sets if sets else (lambda t: brute_is_sunflower_vectors(*t))

    def value(chosen):
        if union:
            return len(frozenset().union(*(points[i] for i in chosen)))
        return len(chosen)

    def admissible(chosen, q):  # q closes a sunflower with no chosen pair
        return not any(test([points[a], points[b], points[q]])
                       for a, b in itertools.combinations(chosen, 2))

    stats = {"nodes": 0, "prunes": 0, "best": list(incumbent), "value": value(incumbent)}

    class OutOfBudget(Exception):
        pass

    def visit(chosen, cands, thirds=None):
        if max_nodes is not None and stats["nodes"] >= max_nodes:
            stats["nodes"] += 1
            raise OutOfBudget
        stats["nodes"] += 1
        if value(chosen) > stats["value"]:
            stats["value"], stats["best"] = value(chosen), list(chosen)
        if not cands:
            return

        def cut(low):  # the bound with the candidates from low up cannot beat the best
            rest = [q for q in cands if q >= low]
            bound = value(chosen + rest) if union else len(chosen) + len(rest)
            if bound <= stats["value"]:
                stats["prunes"] += 1
                return True
            return False

        if thirds is None:
            if cut(0):
                return
            p, rest = cands[0], cands[1:]
            visit(chosen + [p], [q for q in rest if admissible(chosen + [p], q)])
            visit(chosen, rest)
            return
        for d in thirds:
            if d in cands:
                if cut(d):
                    return
                grown = chosen + [d]
                visit(grown, [q for q in cands if q > d and admissible(grown, q)])

    above = start[-1] + 1 if start else 0
    try:
        visit(
            list(start),
            [q for q in range(above, len(points)) if admissible(list(start), q)],
            thirds,
        )
    except OutOfBudget:
        pass
    return stats["nodes"], stats["prunes"], stats["best"]


# ---------------------------------------------------------------- symmetries


def brute_vector_symmetries(moduli):
    """Every sunflower-preserving map of the vectors over moduli, as a function.

    Each is a permutation s of the coordinates that keeps moduli, composed
    with one permutation of the values of each coordinate: x -> y with
    y[s[i]] = perm_i[x[i]].
    """
    n = len(moduli)
    coordinate_perms = [
        s for s in itertools.permutations(range(n)) if all(moduli[s[i]] == moduli[i] for i in range(n))
    ]
    value_perms = list(itertools.product(*(list(itertools.permutations(range(d))) for d in moduli)))

    def symmetry(s, perms):
        def apply(x):
            y = [0] * n
            for i, v in enumerate(x):
                y[s[i]] = perms[i][v]
            return tuple(y)
        return apply

    return [symmetry(s, perms) for s in coordinate_perms for perms in value_perms]


def brute_set_symmetries(m):
    """Every permutation of range(m), as a function on sorted tuples."""
    def symmetry(perm):
        return lambda x: tuple(sorted(perm[e] for e in x))

    return [symmetry(perm) for perm in itertools.permutations(range(m))]


def brute_orbit_minima(points, symmetries, fixed):
    """Indices of the points first in list order within their orbit.

    The orbits are those of the symmetries that map every point of fixed
    to itself.
    """
    index = {p: i for i, p in enumerate(points)}
    stabilizer = [g for g in symmetries if all(g(p) == p for p in fixed)]
    return [i for i, p in enumerate(points) if all(index[g(p)] >= i for g in stabilizer)]


# ---------------------------------------------------------------- partitions


def brute_transversal_expectation(members, elements, k, partial):
    """Mean count of transversal members over every completion of partial.

    partial assigns classes in range(k) to a prefix of elements; each
    completion assigns the rest uniformly.  A member is transversal when
    its elements lie in pairwise distinct classes and it has k of them.
    """
    rest = len(elements) - len(partial)
    total = 0
    for tail in itertools.product(range(k), repeat=rest):
        cls = dict(zip(elements, list(partial) + list(tail)))
        total += sum(1 for m in members if len(m) == k == len({cls[e] for e in m}))
    return Fraction(total, k**rest)


# ---------------------------------------------------------------- CNF


def brute_cnf_satisfiable(num_vars, clauses) -> bool:
    """Assignment scan; only sensible for small variable counts."""
    if num_vars > 22:
        raise ValueError("too many variables for the brute scan")
    for bits in itertools.product((False, True), repeat=num_vars):
        ok = True
        for clause in clauses:
            if not clause:
                return False
            if not any(bits[abs(l) - 1] == (l > 0) for l in clause):
                ok = False
                break
        if ok:
            return True
    return False


# ---------------------------------------------------------------- bounds, high precision


def er_threshold_alt(k: int, t: int) -> Fraction:
    """Same threshold by a different algebraic route and summation order.

    Expands k!(t-1)^k (1 - sum_s s/((s+1)!(t-1)^s)) term by term and adds the
    terms from s = k-1 downward.
    """
    lead = Fraction(factorial(k) * (t - 1) ** k)
    total = lead
    for s in range(k - 1, 0, -1):
        total -= (
            lead * s / (factorial(s + 1) * (t - 1) ** s)
        )
    return total


def mp_j_objective(q, x):
    return (1 - x**q) / (1 - x) * x ** (-(mp.mpf(q) - 1) / 3) / q


def mp_j_constant(q: int, dps: int = 50):
    """Golden-section minimization of the J objective at high precision."""
    with mp.workdps(dps):
        invphi = (mp.sqrt(5) - 1) / 2
        a, b = mp.mpf("1e-12"), 1 - mp.mpf(10) ** -30  # 1 - x_star is about 2.15 / q
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        fc, fd = mp_j_objective(q, c), mp_j_objective(q, d)
        for _ in range(400):
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - invphi * (b - a)
                fc = mp_j_objective(q, c)
            else:
                a, c, fc = c, d, fd
                d = a + invphi * (b - a)
                fd = mp_j_objective(q, d)
        x = (a + b) / 2
        return x, mp_j_objective(q, x)


def mp_c_d(D: int):
    return 3 * mp.mpf((D - 1) / mp.mpf(2)) ** (mp.mpf(2) / 3)


def mp_ns_vector(D: int, n: int):
    return mp_c_d(D) ** n


def mp_eg_vector(q: int, n: int, dps: int = 50):
    with mp.workdps(dps):
        _, j = mp_j_constant(q, dps)
        return (j * q) ** n


def mp_kostochka(k: int):
    with mp.workdps(50):
        lll = mp.log(mp.log(mp.log(k)))
        ll = mp.log(mp.log(k))
        return mp.factorial(k) * (lll**2 / (2 * ll)) ** k


def mp_main_bound(k: int, M: int):
    with mp.workdps(60):
        ck = mp.ceil(mp.mpf(2) * k / 3)
        a = -(-M // k) - 1
        if a == 0:
            return mp.mpf(0)
        base = mp.mpf(2) ** (mp.mpf(1) / 3) * 3 * mp.e
        return 3 * (ck + 1) * base**k * mp.mpf(a) ** ck


def mp_corollary(k: int, epsilon: float):
    from math import ceil

    with mp.workdps(60):
        expo = ceil(k * (1 - 2 * Fraction(epsilon) / 3))
        base = mp.mpf(2) ** (mp.mpf(1) / 3) * 3 * mp.e
        value = 3 * (mp.ceil(mp.mpf(2) * k / 3) + 1) * base**k
        if k > 1:
            value *= mp.mpf(k) ** expo
        return value


def ns_subset_alt(n: int) -> int:
    return 3 * (n + 1) * sum(comb(n, i) for i in range(n // 3 + 1))


def generalized_ns_alt(moduli) -> int:
    """Sum over index subsets I with |I| <= floor(2n/3) of prod (D_i - 1)."""
    n = len(moduli)
    limit = (2 * n) // 3
    total = 0
    for r in range(limit + 1):
        for idxs in itertools.combinations(range(n), r):
            p = 1
            for i in idxs:
                p *= moduli[i] - 1
            total += p
    return 3 * total


def balanced_alt(n: int, M: int) -> int:
    a = -(-M // n) - 1
    return sum(comb(n, j) * a**j for j in range((2 * n) // 3 + 1))


def close(value, reference, radius=0.0, rel=1e-9) -> bool:
    """|value - reference| within radius plus a relative slack."""
    ref = float(reference)
    return abs(float(value) - ref) <= radius + rel * (1 + abs(ref))
