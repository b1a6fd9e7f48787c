"""Constructive reductions between vector families and partite set families.

The pieces compose into one pipeline for a sunflower-free k-uniform family:
partition the ground set into k classes keeping a guaranteed fraction of
members transversal (conditional-expectation derandomization), strip the
classes of size 1 (their elements sit in every surviving member), group the
members by their trace on the size-2 classes and keep the largest group,
then map the remainder into a product of cyclic groups by ranking inside
each class.  Every inequality along the way is recorded with the sizes
needed to re-check it.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from fractions import Fraction

from . import bounds as _bounds
from .detect import (
    find_sunflower_sets_fast,
    find_sunflower_vectors,
    vector_feature_ids,
    vector_features,
)
from .errors import DomainError, InputHasSunflower, NotPartite, OutOfRange
from .model import (
    ModulusVector,
    PartiteStructure,
    SetFamily,
    VectorFamily,
    record,
    union_size,
)
from .rng import SplitMix64


def embed_vectors_as_sets(f: VectorFamily) -> SetFamily:
    """Turn each vector v into the set {(v_i + 1, i + 1) : i}, an n-set.

    Element ids are the completion kernel's (coordinate, value) feature ids
    over the full universe, so the embedding depends only on the moduli.
    The labels carry the (value, coordinate) pairs, 1-based on both sides.
    """
    ids = vector_feature_ids(f.moduli)
    labels = {e: f"({v + 1},{i + 1})" for i, col in enumerate(ids) for v, e in enumerate(col)}
    members = tuple(map(frozenset, vector_features(f.moduli, f.members)))
    return SetFamily(members, labels)


def crt_map(f: VectorFamily) -> VectorFamily:
    """Split each coordinate over Z_m into residues modulo m's prime powers.

    The image coordinate order is per-coordinate: original coordinate i
    becomes the block (v_i mod q_1, ..., v_i mod q_r) with q_j the prime
    powers of m in ascending prime order.  Injective by construction.
    """
    if f.moduli.n == 0:
        raise DomainError("need at least one coordinate to split")
    distinct = set(f.moduli)
    if len(distinct) != 1:
        raise DomainError("residue splitting needs one uniform modulus")
    m = distinct.pop()
    qs = _bounds.factorize(m).prime_powers()
    new_moduli = ModulusVector(tuple(q for _ in range(f.moduli.n) for q in qs))
    members = tuple(
        tuple(v % q for v in vec for q in qs) for vec in f.members
    )
    return VectorFamily(new_moduli, members)


def _rainbow_count_table(k: int) -> list[int]:
    # num[c] / k^k: probability that a member with c classes already hit (all
    # distinct) ends up transversal when its remaining k-c elements are
    # assigned independently and uniformly, (k-c)! / k^(k-c).
    return [math.factorial(k - c) * k**c for c in range(k + 1)]


def ek_guarantee(k: int, family_size: int) -> Fraction:
    """Guaranteed transversal count: (k!/k^k) * family size, exact."""
    return Fraction(math.factorial(k), k**k) * family_size


def _assignment_to_result(
    f: SetFamily, elements: Sequence[int], k: int, assignment: Sequence[int]
) -> tuple[PartiteStructure, SetFamily]:
    cls_of = dict(zip(elements, assignment))
    classes = tuple(
        frozenset(e for e in elements if cls_of[e] == j) for j in range(k)
    )
    structure = PartiteStructure(classes)
    kept = tuple(m for m in f.members if len({cls_of[e] for e in m}) == len(m) == k)
    return structure, SetFamily(kept, f.labels)


def _derandomized_assignment(f: SetFamily, elements: Sequence[int], k: int) -> list[int]:
    num = _rainbow_count_table(k)  # gains scaled by k^k, so the comparisons stay exact
    containing: dict[int, list[int]] = {e: [] for e in elements}
    for mi, mem in enumerate(f.members):
        for e in mem:
            containing[e].append(mi)
    used_mask = [0] * len(f.members)
    used_count = [0] * len(f.members)
    alive = [True] * len(f.members)

    assignment: list[int] = []
    for e in elements:
        mems = containing[e]
        best_j = 0
        best_gain: int | None = None
        for j in range(k):
            bit = 1 << j
            gain = 0
            for mi in mems:
                if not alive[mi]:
                    continue
                c = used_count[mi]
                if used_mask[mi] & bit:
                    gain -= num[c]
                else:
                    gain += num[c + 1] - num[c]
            if best_gain is None or gain > best_gain:
                best_gain = gain
                best_j = j
        assignment.append(best_j)
        bit = 1 << best_j
        for mi in mems:
            if not alive[mi]:
                continue
            if used_mask[mi] & bit:
                alive[mi] = False
            else:
                used_mask[mi] |= bit
                used_count[mi] += 1
    return assignment


def ek_partition(
    f: SetFamily,
    mode: str = "derandomized",
    seed: int | None = None,
    rounds: int = 1,
    threads: int = 1,
) -> tuple[PartiteStructure, SetFamily]:
    """Partition a k-uniform family's ground set into k classes; keep transversal members.

    Derandomized mode assigns elements in ascending id order, each to the
    class maximizing the conditional expected number of transversal members
    under independent uniform assignment of the rest (ties to the lowest
    class index); that choice certifies |G| >= (k!/k^k) |f|.  Seeded mode
    draws one uniform assignment per round from the documented generator
    and keeps the best round (size, then lexicographically smallest
    assignment); its guarantee holds in expectation only.  Derandomized
    mode refuses a seed or rounds other than 1.  ``threads`` is
    accepted for API compatibility and ignored: the rounds are pure-Python
    work that threads cannot overlap.
    """
    k = f.uniformity
    if k is None:
        if f.members:
            raise DomainError("family has mixed member sizes; a k-uniform family is required")
        raise DomainError("empty family: k is undefined")
    if k < 1:
        raise DomainError("k must be at least 1")
    elements = sorted(f.universe)

    if mode == "derandomized":
        if seed is not None or rounds != 1:
            raise DomainError("seed and rounds apply to seeded mode only")
        assignment = _derandomized_assignment(f, elements, k)
        return _assignment_to_result(f, elements, k, assignment)
    if mode != "seeded":
        raise DomainError(f"unknown partition mode {mode!r}")
    if seed is None:
        raise DomainError("seeded mode needs a seed")
    if rounds < 1:
        raise DomainError("rounds must be at least 1")

    stream = SplitMix64(seed)
    rngs = [stream.spawn() for _ in range(rounds)]
    assignments = [[rng.below(k) for _ in elements] for rng in rngs]

    def score(assignment: list[int]) -> tuple:
        _, g = _assignment_to_result(f, elements, k, assignment)
        # larger G first, then lexicographically smallest assignment
        return (-len(g), tuple(assignment))

    best = min(assignments, key=score)
    return _assignment_to_result(f, elements, k, best)


def _require_partite(f: SetFamily, p: PartiteStructure, where: str) -> None:
    for idx, mem in enumerate(f.members):
        if not p.is_transversal(mem):
            raise NotPartite(f"{where}: member {idx} is not transversal to the classes")


def strip_common_elements(
    f: SetFamily, p: PartiteStructure
) -> tuple[SetFamily, frozenset[int]]:
    """Delete the elements of size-1 classes from every member.

    A class of size 1 forces its element into every transversal member, so
    the element lies in the kernel of every triple and removing it changes
    no sunflower/sunflower-free status.  The caller rebuilds the partition
    from the surviving classes.
    """
    _require_partite(f, p, "strip_common_elements")
    removed = frozenset(e for cls in p.classes if len(cls) == 1 for e in cls)
    if not removed:
        return f, removed
    members = tuple(mem - removed for mem in f.members)
    return SetFamily(members, f.labels), removed


def extract_gl(
    g: SetFamily, p: PartiteStructure
) -> tuple[frozenset[int], SetFamily, int, dict[tuple[int, ...], int]]:
    """Group members by their trace on the size-2 classes; keep the best group.

    t is the number of classes of size exactly 2.  Every member picks one
    element from each such class, so the members partition into at most 2^t
    trace groups; the largest group (ties: lexicographically smallest trace)
    has size at least |g| / 2^t.  The returned family H removes the t trace
    elements from each member of that group.
    """
    _require_partite(g, p, "extract_gl")
    if any(len(cls) == 1 for cls in p.classes):
        raise DomainError("size-1 classes present; strip them first")
    two_classes = [sorted(cls) for cls in p.classes if len(cls) == 2]
    t = len(two_classes)

    groups: dict[tuple[int, ...], list[int]] = {}
    for idx, mem in enumerate(g.members):
        trace = tuple(a if a in mem else b for a, b in two_classes)
        groups.setdefault(trace, []).append(idx)

    table = {trace: len(idxs) for trace, idxs in sorted(groups.items())}
    if not groups:
        return frozenset(), SetFamily((), g.labels), t, table

    winner = min(groups.items(), key=lambda kv: (-len(kv[1]), kv[0]))[0]
    chosen = groups[winner]
    removed = frozenset(winner)
    members = tuple(g.members[i] - removed for i in chosen)
    return removed, SetFamily(members, g.labels), t, table


def _class_supports(p: PartiteStructure) -> list[list[int]]:
    return [sorted(cls) for cls in p.classes]


def psi_map(h: SetFamily, p: PartiteStructure) -> VectorFamily:
    """Rank each member's element within its class: coordinate i is the rank.

    Moduli are padded to at least 3 per class so the product-group bounds
    downstream keep their hypotheses; padding only enlarges the codomain.
    """
    _require_partite(h, p, "psi_map")
    supports = _class_supports(p)
    moduli = ModulusVector(tuple(max(3, len(s)) for s in supports))
    ranks = [{e: r for r, e in enumerate(s)} for s in supports]
    vectors = []
    for mem in h.members:
        vec = [0] * p.k
        for e in mem:
            i = p.class_of[e]
            vec[i] = ranks[i][e]
        vectors.append(tuple(vec))
    return VectorFamily(moduli, tuple(vectors))


def psi_inverse(v: VectorFamily, p: PartiteStructure) -> SetFamily:
    """Inverse ranking: coordinate i selects the element of rank v_i in class i."""
    supports = _class_supports(p)
    if v.moduli.n != p.k:
        raise NotPartite(
            f"vector arity {v.moduli.n} does not match the {p.k} classes"
        )
    members = []
    for vec in v.members:
        mem = []
        for i, r in enumerate(vec):
            if r >= len(supports[i]):
                raise OutOfRange(
                    f"rank {r} has no element in class {i} of size {len(supports[i])}"
                )
            mem.append(supports[i][r])
        members.append(frozenset(mem))
    return SetFamily(tuple(members))


@record
class PipelineTrace:
    """Everything needed to re-check each inequality of one pipeline run."""

    input_size: int
    k: int
    universe_size: int
    mode: str
    seed: int | None
    rounds: int
    classes: tuple[tuple[int, ...], ...]
    g_size: int
    ek_lower_bound: Fraction
    ek_expected_only: bool
    stripped_elements: tuple[int, ...]
    t: int
    trace_groups: tuple[tuple[tuple[int, ...], int], ...]
    chosen_trace: tuple[int, ...]
    gl_size: int
    h_size: int
    final_supports: tuple[int, ...]
    final_moduli: tuple[int, ...]
    final_universe_size: int
    generalized_ns_value: int
    main_bound_value: float
    main_bound_radius: float
    main_bound_degenerate: bool
    certificates: Mapping[str, bool]

    def to_json_dict(self) -> dict:
        frac = self.ek_lower_bound
        return {
            "input_size": self.input_size,
            "k": self.k,
            "universe_size": self.universe_size,
            "mode": self.mode,
            "seed": self.seed,
            "rounds": self.rounds,
            "classes": [list(c) for c in self.classes],
            "g_size": self.g_size,
            "ek_lower_bound": f"{frac.numerator}/{frac.denominator}",
            "ek_lower_bound_approx": float(frac),
            "ek_expected_only": self.ek_expected_only,
            "stripped_elements": list(self.stripped_elements),
            "t": self.t,
            "trace_groups": [
                {"trace": list(trace), "count": count}
                for trace, count in self.trace_groups
            ],
            "chosen_trace": list(self.chosen_trace),
            "gl_size": self.gl_size,
            "h_size": self.h_size,
            "final_supports": list(self.final_supports),
            "final_moduli": list(self.final_moduli),
            "final_universe_size": self.final_universe_size,
            "universe_shrunk": self.final_universe_size < self.universe_size,
            "generalized_ns_value": self.generalized_ns_value,
            "main_bound_value": self.main_bound_value,
            "main_bound_radius": self.main_bound_radius,
            "main_bound_degenerate": self.main_bound_degenerate,
            "certificates": dict(sorted(self.certificates.items())),
        }


def pipeline(f: SetFamily, seed: int | None = None, rounds: int = 1) -> PipelineTrace:
    """Run partition, strip, trace-grouping, and ranking on a k-uniform family.

    The partition is seeded (``rounds`` draws from ``seed``, guarantee in
    expectation only) exactly when a seed is given, and derandomized
    otherwise.  The input must be sunflower-free; a found witness aborts the
    run.  All stage sizes and bound values are recorded, and each recorded
    inequality is re-checked from those sizes, never assumed.
    """
    witness = find_sunflower_sets_fast(f)
    if witness is not None:
        raise InputHasSunflower(witness, f)
    k = f.uniformity
    if k is None or k < 1:
        raise DomainError("pipeline needs a k-uniform family with k >= 1")
    m_size = union_size(f)

    mode = "derandomized" if seed is None else "seeded"
    p0, g = ek_partition(f, mode=mode, seed=seed, rounds=rounds)
    g_universe = g.universe
    p1 = PartiteStructure(tuple(cls & g_universe for cls in p0.classes))

    g_stripped, removed = strip_common_elements(g, p1)
    p2 = PartiteStructure(tuple(cls for cls in p1.classes if len(cls) != 1))

    chosen_l, h, t, table = extract_gl(g_stripped, p2)

    h_universe = h.universe
    p3 = PartiteStructure(
        tuple(cls & h_universe for cls in p2.classes if len(cls) >= 3)
    )
    t_family = psi_map(h, p3)

    gen_ns = _bounds.generalized_ns_bound(t_family.moduli)
    mb = _bounds.main_bound(k, m_size)
    degenerate = "degenerate-zero" in mb.flags

    lower = ek_guarantee(k, len(f))
    certificates: dict[str, bool] = {
        "ek_guarantee": Fraction(len(g)) >= lower,
        "group_bound": len(g_stripped) <= (2**t) * len(h),
        "t_sunflower_free": find_sunflower_vectors(t_family) is None,
        "generalized_ns": len(t_family) <= gen_ns,
    }
    if not degenerate:
        certificates["main_bound"] = mb.admits(len(f))

    return PipelineTrace(
        input_size=len(f),
        k=k,
        universe_size=m_size,
        mode=mode,
        seed=seed,
        rounds=rounds,
        classes=tuple(tuple(sorted(cls)) for cls in p0.classes),
        g_size=len(g),
        ek_lower_bound=lower,
        ek_expected_only=(mode == "seeded"),
        stripped_elements=tuple(sorted(removed)),
        t=t,
        trace_groups=tuple((trace, count) for trace, count in table.items()),
        chosen_trace=tuple(sorted(chosen_l)),
        gl_size=len(h),
        h_size=len(h),
        final_supports=tuple(len(cls) for cls in p3.classes),
        final_moduli=tuple(t_family.moduli),
        final_universe_size=sum(len(cls) for cls in p3.classes),
        generalized_ns_value=gen_ns,
        main_bound_value=mb.value,
        main_bound_radius=mb.radius,
        main_bound_degenerate=degenerate,
        certificates=certificates,
    )
