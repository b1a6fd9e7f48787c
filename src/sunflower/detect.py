"""Certified sunflower detection for set and vector families.

A t-sunflower is a t-tuple of distinct sets whose pairwise intersections
all equal the common intersection (the kernel).  Pairwise disjoint sets
form a sunflower with empty kernel.  For vectors, three distinct vectors
form a sunflower when every coordinate is all-equal or all-distinct across
the triple; the failure mode is a coordinate where exactly two agree.  That
is the set condition on the features x -> {(i, x_i)}, so CompletionKernel
serves both: C closes a sunflower with (A, B) exactly when C contains A & B
and misses A ^ B, so a pair's completions are the AND of per-feature member
columns over A & B minus those over A ^ B.  The kernel also keeps the exact
search's lazy completion table (narrow) and yields every sunflower triple in
lex order (triples): the fast detectors, the search engine, greedy, the
union search and CNF export all use this one object.

Searches scan index combinations in lexicographic order, so the witness
returned is always the lexicographically smallest one.  The definitional
scans, find_sunflower_sets and the pair-lookup find_sunflower_vectors_lookup,
read no feature bitset; they are the path that verifies search answers.
"""

from __future__ import annotations

from itertools import accumulate, combinations, product
from typing import Collection, Iterator, Sequence

from .errors import BadArity, TooLarge
from .model import SetFamily, SunflowerWitness, VectorFamily

# Cap for t >= 4 scans: C(64, 4) is ~600k combinations, still desk scale.
GENERAL_T_MEMBER_CAP = 64


def kernel_of(sets: Sequence[frozenset]) -> frozenset:
    if not sets:
        raise BadArity("kernel of zero sets is undefined")
    return frozenset(sets[0]).intersection(*sets[1:])


def is_sunflower_sets(sets: Sequence[frozenset]) -> bool:
    """Definitional check: every pairwise intersection equals the kernel."""
    if len(sets) < 2:
        raise BadArity("a sunflower needs at least two sets")
    sets = [frozenset(s) for s in sets]
    if len(set(sets)) != len(sets):
        raise BadArity("sunflower petals must be distinct sets")
    kernel = kernel_of(sets)
    return all(a & b == kernel for a, b in combinations(sets, 2))


def find_sunflower_sets(family: SetFamily, t: int = 3) -> SunflowerWitness | None:
    """First t-sunflower in index-lexicographic order, or None.

    For t >= 4 the scan refuses families above GENERAL_T_MEMBER_CAP members;
    the combination count grows too fast to pretend otherwise.
    """
    if t < 2:
        raise BadArity("sunflowers have at least two petals")
    if t >= 4 and len(family) > GENERAL_T_MEMBER_CAP:
        raise TooLarge(
            f"t={t} scan capped at {GENERAL_T_MEMBER_CAP} members, got {len(family)}"
        )
    members = family.members
    for idx in combinations(range(len(members)), t):
        chosen = [members[i] for i in idx]
        kernel = kernel_of(chosen)
        if all(a & b == kernel for a, b in combinations(chosen, 2)):
            return SunflowerWitness(idx, kernel=kernel)
    return None


def find_sunflower_sets_fast(family: SetFamily, t: int = 3) -> SunflowerWitness | None:
    """Kernel scan for 3-sunflowers; agrees with find_sunflower_sets(family, 3)."""
    if t != 3:
        raise BadArity("the fast path handles only t = 3")
    hit = next(CompletionKernel(family.members).triples(), None)
    if hit is None:
        return None
    i, j, _ = hit
    return SunflowerWitness(hit, kernel=family.members[i] & family.members[j])


def bitset(items: Collection[int]) -> int:
    """Bitset of non-negative ints, built in time linear in its size."""
    buf = bytearray((max(items, default=-1) >> 3) + 1)
    for e in items:
        buf[e >> 3] |= 1 << (e & 7)
    return int.from_bytes(buf, "little")


def vector_feature_ids(moduli: Sequence[int]) -> list[range]:
    """ids[i][v] is the feature id of (coordinate i, value v), coordinate-major."""
    starts = accumulate(moduli, initial=0)
    return [range(start, start + d) for start, d in zip(starts, moduli)]


def vector_features(moduli: Sequence[int], vectors) -> list[tuple[int, ...]]:
    """Each vector as the feature ids of its (coordinate, value) pairs."""
    ids = vector_feature_ids(moduli)
    return [tuple(col[v] for col, v in zip(ids, vec)) for vec in vectors]


class CompletionKernel:
    """Pair completions over a member list; bit l stands for member l.

    Members are kept as feature bitsets, and each feature as the bitset of
    the members holding it, so a pair costs O(|A| + |B|) big-int operations
    whatever the member count.  _keep[p][a] = ~completions(a, p) is the
    search's lazy table: row p is made when narrow first sees p.
    """

    def __init__(self, members: Sequence[Collection[int]]):
        self.rows = [bitset(mem) for mem in members]
        holders: dict[int, list[int]] = {}
        for l, mem in enumerate(members):
            for f in mem:
                holders.setdefault(f, []).append(l)
        self.cols = {f: bitset(ls) for f, ls in holders.items()}
        self.full = (1 << len(self.rows)) - 1
        self._keep: list[list[int | None] | None] = [None] * len(self.rows)

    def completions(self, i: int, j: int) -> int:
        """Members l other than i, j with (i, j, l) a 3-sunflower."""
        cols = self.cols
        keep, drop = self.full, 1 << i | 1 << j
        shared, differ = self.rows[i] & self.rows[j], self.rows[i] ^ self.rows[j]
        while shared:
            low = shared & -shared
            keep &= cols[low.bit_length() - 1]
            shared ^= low
        while differ:
            low = differ & -differ
            drop |= cols[low.bit_length() - 1]
            differ ^= low
        return keep & ~drop

    def narrow(self, cands: int, chosen: Sequence[int], p: int) -> int:
        """cands without the completions of (a, p) for each chosen a < p."""
        row = self._keep[p]
        if row is None:
            row = self._keep[p] = [None] * p
        for a in chosen:
            keep = row[a]
            if keep is None:
                keep = row[a] = ~self.completions(a, p)
            cands &= keep
        return cands

    def triples(self) -> Iterator[tuple[int, int, int]]:
        """Every sunflower (i, j, l), i < j < l, in lex order."""
        count = len(self.rows)
        for i in range(count):
            for j in range(i + 1, count):
                above = self.completions(i, j) >> (j + 1)
                while above:
                    low = above & -above
                    yield i, j, j + low.bit_length()
                    above ^= low


def witness_holds(family: SetFamily, witness: SunflowerWitness, t: int | None = None) -> bool:
    """Re-check a set witness against its family."""
    if t is not None and len(witness.indices) != t:
        return False
    if not all(0 <= i < len(family.members) for i in witness.indices):
        return False
    chosen = [family.members[i] for i in witness.indices]
    if len(chosen) < 2:
        return False
    if not is_sunflower_sets(chosen):
        return False
    return witness.kernel is None or witness.kernel == kernel_of(chosen)


def coordinate_classes(x: Sequence[int], y: Sequence[int], z: Sequence[int]) -> tuple[str, ...]:
    """Per-coordinate tag: 'all-equal', 'all-distinct', or 'two-equal'."""
    tags = ("all-equal", "two-equal", "all-distinct")  # by count of distinct values
    return tuple(tags[len({a, b, c}) - 1] for a, b, c in zip(x, y, z))


def is_sunflower_vectors(
    x: Sequence[int], y: Sequence[int], z: Sequence[int]
) -> bool:
    """True when no coordinate has exactly two of the three values equal."""
    x, y, z = tuple(x), tuple(y), tuple(z)
    if len(x) != len(y) or len(y) != len(z):
        raise BadArity("vectors must share one arity")
    if x == y or y == z or x == z:
        raise BadArity("vector sunflower members must be distinct")
    return all(len({a, b, c}) != 2 for a, b, c in zip(x, y, z))


def find_sunflower_vectors(family: VectorFamily) -> SunflowerWitness | None:
    """Kernel scan; agrees with find_sunflower_vectors_lookup (lex-first witness)."""
    members = family.members
    hit = next(CompletionKernel(vector_features(family.moduli, members)).triples(), None)
    if hit is None:
        return None
    triple = [members[i] for i in hit]
    return SunflowerWitness(hit, coordinate_classes=coordinate_classes(*triple))


def find_sunflower_vectors_lookup(family: VectorFamily) -> SunflowerWitness | None:
    """Definitional scan, quadratic when no column holds over 3 values; lex-first witness.

    A pair (x, y) fixes every completing z: z_c = x_c where x and y agree, a
    third value where they differ, and only values present in column c of the
    family can occur there.  Candidates are looked up when they number no
    more than the members above j; else those are tested.
    """
    members = family.members
    index = {m: l for l, m in enumerate(members)}
    columns = [set(col) for col in zip(*members)]
    for (i, x), (j, y) in combinations(enumerate(members), 2):
        count = 1
        for a, b, col in zip(x, y, columns):
            if a != b and not (count := count * (len(col) - 2)):
                break  # a differing coordinate whose column holds only a, b
        if not count:
            continue
        if count <= len(members) - j - 1:
            axes = [(a,) if a == b else col - {a, b} for a, b, col in zip(x, y, columns)]
            l = min((index[z] for z in product(*axes) if index.get(z, -1) > j), default=None)
        else:
            above = range(j + 1, len(members))
            l = next((l for l in above if is_sunflower_vectors(x, y, members[l])), None)
        if l is not None:
            classes = coordinate_classes(x, y, members[l])
            return SunflowerWitness((i, j, l), coordinate_classes=classes)
    return None


def is_ap_triple(x: Sequence[int], y: Sequence[int], z: Sequence[int], moduli) -> bool:
    """Arithmetic progression per coordinate: x_i + z_i = 2 y_i (mod D_i)."""
    return all((a + c - 2 * b) % d == 0 for a, b, c, d in zip(x, y, z, moduli))


def find_ap_triple(family: VectorFamily) -> tuple[int, int, int] | None:
    """First index triple (i, j, l), i < j < l, with m_i + m_l = 2 m_j coordinatewise.

    Members are distinct, so each pair (i, j), in lex order, fixes the third
    term; its index is accepted only above j (with even moduli it may be i).
    """
    members = family.members
    moduli = tuple(family.moduli)
    index = {m: l for l, m in enumerate(members)}
    for i, x in enumerate(members):
        for j in range(i + 1, len(members)):
            z = tuple((2 * b - a) % d for a, b, d in zip(x, members[j], moduli))
            if index.get(z, -1) > j:
                return (i, j, index[z])
    return None
