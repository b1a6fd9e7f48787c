"""Certified sunflower detection for set and vector families.

A t-sunflower is a t-tuple of distinct sets whose pairwise intersections
all equal the common intersection (the kernel).  Pairwise disjoint sets
form a sunflower with empty kernel.  For vectors, three distinct vectors
form a sunflower when every coordinate is all-equal or all-distinct across
the triple; the failure mode is a coordinate where exactly two agree.  That
is the set condition on the features x -> {(i, x_i)}, so CompletionKernel
serves both: C closes a sunflower with (A, B) exactly when C contains A & B
and misses A ^ B, so a pair's completions are the AND of per-feature member
columns over A & B minus those over A ^ B.  The A ^ B side is taken first
and stops once nothing is left: a coordinate whose column holds only the
pair's two values leaves no third one, which is why every family over D = 2
is sunflower-free.  For the same reason the three members of a sunflower
agree on every column holding at most two values: the kernel keys each
member by its features among such complementary pairs, and the members of
one key form a class.  The exact search skips pairs of different keys when
it narrows from scratch.  The kernel yields every sunflower triple in lex
order, pairing each i only with the later members of its class, by buckets
of equal trace on i tested one member at a time (triples): the fast
detectors and CNF export use that, and the exact search narrows through a
lazy table of completions that it owns.

Searches scan index combinations in lexicographic order, so the witness
returned is always the lexicographically smallest one.  The definitional
scans, find_sunflower_sets (pairwise ANDs of member bitsets it builds itself)
and the pair-lookup find_sunflower_vectors_lookup (pairs within one class of
equal values on the columns holding at most two), use no CompletionKernel;
they are the path that verifies search answers.  find_ap_triple pairs each
row only with the later members of its class of equal values on the columns
holding at most two under an odd modulus, and maps them through per-row
tables of third terms.  Both detection scans and the lookup take their
classes from one partition (_places).
"""

from __future__ import annotations

from collections.abc import Collection, Hashable, Iterable, Iterator, Sequence
from itertools import accumulate, combinations, compress, islice, product, repeat
from math import prod
from operator import getitem, gt

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

    Distinct sets, as bitsets, form a sunflower iff every pairwise AND is one
    value K; a tuple with union U stays one with C iff C & U == K.
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
    ids = {e: i for i, e in enumerate(sorted(family.universe))}
    rows = [bitset([ids[e] for e in mem]) for mem in members]

    def extend(idx: tuple[int, ...], kernel: int, union: int) -> tuple[int, ...] | None:
        if len(idx) == t:
            return idx
        for l in range(idx[-1] + 1, len(rows)):
            if rows[l] & union == kernel and (found := extend((*idx, l), kernel, union | rows[l])):
                return found
        return None

    for i, j in combinations(range(len(rows)), 2):
        idx = extend((i, j), rows[i] & rows[j], rows[i] | rows[j])
        if idx:
            return SunflowerWitness(idx, kernel=kernel_of([members[i] for i in idx]))
    return None


def find_sunflower_sets_fast(family: SetFamily) -> SunflowerWitness | None:
    """Kernel scan for 3-sunflowers; agrees with find_sunflower_sets(family, 3)."""
    ids = {e: i for i, e in enumerate(sorted(family.universe))}  # bitsets grow with the ids
    hit = next(CompletionKernel([[ids[e] for e in mem] for mem in family.members]).triples(), None)
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


def _places(keys: Iterable[Hashable]) -> list[tuple[list[int], int]]:
    """Member l's class, the members of its key ascending, and l's place in it."""
    classes: dict[Hashable, list[int]] = {}
    places = []
    for l, key in enumerate(keys):
        cls = classes.setdefault(key, [])
        places.append((cls, len(cls)))
        cls.append(l)
    return places


class CompletionKernel:
    """Pair completions over a member list; bit l stands for member l.

    Members are kept as feature bitsets, and each feature as the bitsets of
    the members holding it and of those missing it.  A pair costs at most
    |A| + |B| big-int operations whatever the member count, and stops after
    the first features of A ^ B that leave no completion.  In triples,
    (i, j, l) is a sunflower iff j, l share a trace t on i and l misses
    rows[j] ^ t; i is paired only with the later members of its key's class
    (below), and j tests its bucket's later members one member at a time.

    keys()[l] is member l's features among the complementary pairs, two
    features of which every member holds exactly one (for vectors, the two
    values of a column holding two).  Members of different keys have no
    completion: one holds f and the other g of some such pair, so both lie
    in A ^ B, and every third member holds one of them.  So the members of
    one key form a class, and both triples and the exact search pair only
    within a class.
    """

    def __init__(self, members: Sequence[Collection[int]]):
        self.rows = [bitset(mem) for mem in members]
        holders: dict[int, list[int]] = {}
        for l, mem in enumerate(members):
            for f in mem:
                holders.setdefault(f, []).append(l)
        self.cols = {f: bitset(ls) for f, ls in holders.items()}
        self.full = (1 << len(self.rows)) - 1
        self.misses = {f: self.full ^ col for f, col in self.cols.items()}

    def keys(self) -> list[int]:
        """Each member's features among the complementary pairs (see the class)."""
        held = set(self.cols.values())
        split = bitset([f for f, miss in self.misses.items() if miss in held])
        return [row & split for row in self.rows]

    def completions(self, i: int, j: int) -> int:
        """Members l other than i, j with (i, j, l) a 3-sunflower."""
        misses = self.misses
        keep = self.full ^ (1 << i | 1 << j)
        shared, differ = self.rows[i] & self.rows[j], self.rows[i] ^ self.rows[j]
        while differ:
            low = differ & -differ
            keep &= misses[low.bit_length() - 1]
            if not keep:
                return 0
            differ ^= low
        cols = self.cols
        while shared:
            low = shared & -shared
            keep &= cols[low.bit_length() - 1]
            shared ^= low
        return keep

    def triples(self) -> Iterator[tuple[int, int, int]]:
        """Every sunflower (i, j, l), i < j < l, in lex order, each within one key."""
        rows = self.rows
        for i, (a, (cls, place)) in enumerate(zip(rows, _places(self.keys()))):
            above = cls[place + 1 :]
            later: dict[int, list[int]] = {}  # per trace, descending
            for j in reversed(above):
                t = rows[j] & a
                if t in later:
                    later[t].append(j)
                else:
                    later[t] = [j]
            for j in above:
                t = rows[j] & a
                bucket = later[t]
                bucket.pop()  # j itself
                if not bucket:
                    continue
                petal = rows[j] ^ t
                for l in reversed(bucket):
                    if not rows[l] & petal:
                        yield i, j, l


def witness_holds(family: SetFamily, witness: SunflowerWitness) -> bool:
    """Re-check a set witness against its family."""
    if not all(0 <= i < len(family.members) for i in witness.indices):
        return False
    chosen = [family.members[i] for i in witness.indices]
    if len(chosen) < 2:
        return False
    if not is_sunflower_sets(chosen):
        return False
    return witness.kernel is None or witness.kernel == kernel_of(chosen)


def _require_one_arity(*vectors: Sequence[int]) -> None:
    if len({len(v) for v in vectors}) > 1:
        raise BadArity("vectors must share one arity")


def coordinate_classes(x: Sequence[int], y: Sequence[int], z: Sequence[int]) -> tuple[str, ...]:
    """Per-coordinate tag: 'all-equal', 'all-distinct', or 'two-equal'."""
    _require_one_arity(x, y, z)
    tags = ("all-equal", "two-equal", "all-distinct")  # by count of distinct values
    return tuple(tags[len({a, b, c}) - 1] for a, b, c in zip(x, y, z))


def is_sunflower_vectors(
    x: Sequence[int], y: Sequence[int], z: Sequence[int]
) -> bool:
    """True when no coordinate has exactly two of the three values equal."""
    x, y, z = tuple(x), tuple(y), tuple(z)
    _require_one_arity(x, y, z)
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
    """Definitional pair lookup over classes; lex-first witness.

    The three members of a sunflower agree on every column holding at most
    two values, so only pairs within one class of equal values on those
    columns are tried: i ascending, then the later members of its class.
    Such a pair (x, y) fixes every completing z: z_c = x_c where x and y
    agree, a third value where they differ, and only values present in
    column c of the family can occur there.  Candidates are looked up when
    they number no more than the class members above j; else those are
    tested.  Over Z2^n every class is one member and no pair is tried.
    """
    members = family.members
    index = {m: l for l, m in enumerate(members)}
    columns = [set(col) for col in zip(*members)]
    split = [len(col) <= 2 for col in columns]
    places = _places(tuple(compress(m, split)) for m in members)
    for i, (x, (cls, place)) in enumerate(zip(members, places)):
        later = cls[place + 1 :]
        for r, j in enumerate(later, 1):
            y = members[j]
            count = prod(len(col) - 2 for a, b, col in zip(x, y, columns) if a != b)
            if count <= len(later) - r:
                axes = [(a,) if a == b else col - {a, b} for a, b, col in zip(x, y, columns)]
                l = min((index[z] for z in product(*axes) if index.get(z, -1) > j), default=None)
            else:
                above = islice(later, r, None)
                l = next((l for l in above if is_sunflower_vectors(x, y, members[l])), None)
            if l is not None:
                tags = coordinate_classes(x, y, members[l])
                return SunflowerWitness((i, j, l), coordinate_classes=tags)
    return None


def is_ap_triple(x: Sequence[int], y: Sequence[int], z: Sequence[int], moduli) -> bool:
    """Arithmetic progression per coordinate: x_i + z_i = 2 y_i (mod D_i)."""
    _require_one_arity(x, y, z, moduli)
    return all((a + c - 2 * b) % d == 0 for a, b, c, d in zip(x, y, z, moduli))


def find_ap_triple(family: VectorFamily) -> tuple[int, int, int] | None:
    """First index triple (i, j, l), i < j < l, with m_i + m_l = 2 m_j coordinatewise.

    The three terms agree on every column holding at most two values under
    an odd modulus d.  Where x_c = z_c, 2 y_c = 2 x_c and 2 is invertible
    mod d, so y_c = x_c; where x_c != z_c they are the column's two values
    u, v, and 2 y_c = u + v with y_c one of them forces u = v.  So row i is
    paired only with the later members of its class of equal values on
    those columns.  An even modulus gives no such split: in Z4^2, (0,0),
    (2,1), (0,2) is an AP across the two values of the first column.

    Members are distinct, so each pair (i, j) fixes the third term (2b - a)
    mod d per coordinate; its index is accepted only above j (with even
    moduli it may be i).  Row i's table for coordinate c maps each value b
    present in column c to (2b - a) mod d, a being x_c, so its size is the
    column's, not d: row i maps the later members of its class through its
    own tables, and looks them all up, with map calls; the first hit in j is
    the lex-first triple.
    """
    members = family.members
    columns = [set(col) for col in zip(*members)]
    split = [len(col) <= 2 and d % 2 for col, d in zip(columns, family.moduli)]
    places = _places(tuple(compress(m, split)) for m in members)
    index = {m: l for l, m in enumerate(members)}.get
    for i, (x, (cls, place)) in enumerate(zip(members, places)):
        above = cls[place + 1 :]
        tables = [{b: (2 * b - a) % d for b in col} for a, col, d in zip(x, columns, family.moduli)]
        later = map(getitem, repeat(members), above)
        terms = map(tuple, map(map, repeat(getitem), repeat(tables), later))
        found = list(map(index, terms, repeat(-1)))
        hits = list(map(gt, found, above))
        if True in hits:
            k = hits.index(True)
            return (i, above[k], found[k])
    return None
