"""Exact maximum sunflower-free families by branch and bound, plus CNF export.

One engine, _Engine, runs every exact search: an include-first depth-first
walk over the points in lexicographic order, on an explicit stack so that
Python's recursion limit never bounds the family size.  Its objective is
the popcount of the OR of the chosen points' weights: the family size when
each point weighs its own bit (here), the union size when a k-subset weighs
its element bitset (conjectures.max_union).  Only the upper bound differs
between the two.  Two facts make the output canonical: improvement is
strict, and a subtree is pruned only when it cannot beat the incumbent, so
the family returned is the lexicographically smallest maximum family
(greedy seeding preserves this: the greedy family is the lex-first maximal
family, and no maximum family is lex-smaller than it).  Every search over
a point is anchored: below the root it visits only [0, c] and [0, c, d], c
and d canonical (see VectorInstance).  The anchor's (c, thirds) list comes
from _anchor_starts, which export_cnf also reads: its symmetry clauses bar,
over the counter's own variables, every second and third point the search
never visits.

Triple constraints come from a detect.CompletionKernel over the points'
features, cached in the engine's lazy table: row p, made when point p is
first narrowed, holds at each chosen a < p the complement of the
completions of (a, p), filled on first read.  Greedy and the anchored
starts narrow with _Engine.narrow; the walk keeps a path memo so that an
include ANDs one memo entry instead of every chosen point's slot, and
settles a leaf or pruned child without pushing it (see _Engine).  Answers
are verified with the definitional scans of detect (for vectors the pair
lookup within classes of equal values on the columns holding at most two),
never with that kernel.  One driver, _solve, runs every search (lifted
over moduli 2, see _binary_split).  time_limit is one deadline, set at
call start, and max_nodes one budget, for greedy's includes and the
engine's nodes; an interrupt during either returns the incumbent
unproved, as a budget exit does.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Mapping, Sequence
from itertools import chain, combinations, combinations_with_replacement, groupby, product
from math import comb, prod
from operator import mul

from .detect import CompletionKernel, bitset, find_sunflower_sets, find_sunflower_vectors_lookup
from .detect import vector_features
from .errors import DomainError, SunflowerError, TooLarge, UsageError
from .model import (
    EXACT_INT,
    ModulusVector,
    SetFamily,
    SunflowerWitness,
    VectorFamily,
    as_modulus_vector,
    record,
)

DEFAULT_POINT_CEILING = 2**16
DEFAULT_NODE_BUDGET = 10**9
CNF_POINT_CEILING = 5000
CNF_VAR_CEILING = 4000
_TIME_CHECK_STRIDE = 4096
_MEMO_WINDOW = 4  # path-memo levels read and written below the current one


@record
class VectorInstance:
    """All vectors over the moduli, in lexicographic order."""

    moduli: ModulusVector

    def point_count(self) -> int:
        return self.moduli.point_count()

    def points(self) -> list[tuple[int, ...]]:
        return list(product(*(range(d) for d in self.moduli)))

    def describe(self) -> dict:
        return {"kind": "vectors", "moduli": list(self.moduli)}

    def point_text(self, point: tuple[int, ...]) -> str:
        return ",".join(str(c) for c in point)

    # Anchor soundness.  A triple is a sunflower unless some coordinate has
    # exactly two equal values, so permuting the values of any coordinate,
    # and coordinates of equal modulus, preserves sunflowers; on k-subsets
    # any permutation of [m] does, and keeps union size.  c_u(x) is the
    # least point of x's orbit under the symmetries fixing point 0 and point
    # u (canonical_points(u)), and c(x) = c_0(x).  Vectors: values outside
    # {0, u_i} become the least such value, then values are sorted within
    # each class of coordinates of equal (modulus, u_i).  k-subsets: the
    # blocks A & u, A - u, u - A and the rest, A = point 0, each keep their
    # size and take their lowest elements.
    # 1. Some g fixing point 0 maps x to c(x) <= x in point (lex) order, and
    #    some h fixing 0 and u maps x to c_u(x) <= x.
    # 2. The witness F* is the first optimal node in include-first preorder:
    #    for family size the lex-smallest maximum family, for union size the
    #    smallest in tuple order, where a prefix comes first.
    # 3. F* contains point 0: translate (vectors) or permute (k-subsets) any
    #    optimal family onto one that holds point 0, which comes first.  Let
    #    x be its second element.
    # 4. g(F*) is also optimal and contains 0.  Its second element is at
    #    most c(x) <= x, so F* being first forces c(x) = x.
    # 5. Let y be F*'s third element and h fix 0 and x with h(y) = c_x(y).
    #    h(F*) is optimal and holds 0 and x; a second element below x would
    #    put it before F*, so its second is x and its third at most
    #    c_x(y) <= y, and F* being first forces c_x(y) = y.
    # So F* is a node [0, c], c canonical, or lies under a start [0, c, d],
    # d = c_c(d), which keeps every candidate above d.  Greedy is unaffected.
    def canonical_points(self, u: tuple[int, ...] | None = None) -> list[int]:
        """Sorted indices of the points c_u(x), u point 0 by default (see above).

        c(x): the 0/1 vectors with their 1s last in each class of equal modulus.
        """
        moduli = self.moduli.moduli
        classes: dict[tuple[int, int], list[int]] = {}  # (modulus, u_i) -> strides
        for i, (d, v) in enumerate(zip(moduli, u or [0] * len(moduli))):
            classes.setdefault((d, v), []).append(prod(moduli[i + 1 :]))
        offsets = []  # per class, the offsets of its ascending value runs
        for (d, v), strides in classes.items():
            values = sorted({0, v, 2 if v == 1 else 1} & set(range(d)))  # 0, u_i, the least other
            runs = combinations_with_replacement(values, len(strides))
            offsets.append([sum(map(mul, run, strides)) for run in runs])
        return sorted(map(sum, product(*offsets)))

    def features(self, points: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
        return vector_features(self.moduli, points)


@record
class UniformInstance:
    """All k-subsets of [m], in lexicographic order of sorted tuples."""

    k: int
    m: int

    def __post_init__(self):
        if self.k < 1:
            raise DomainError("k must be at least 1")
        if self.m < 1:
            raise DomainError("m must be at least 1")

    def point_count(self) -> int:
        return comb(self.m, self.k)

    def points(self) -> list[tuple[int, ...]]:
        return list(combinations(range(self.m), self.k))

    def describe(self) -> dict:
        return {"kind": "uniform", "k": self.k, "m": self.m}

    def point_text(self, point: tuple[int, ...]) -> str:
        return "{" + ",".join(str(e) for e in point) + "}"

    def canonical_points(self, u: tuple[int, ...] | None = None) -> list[int]:
        """Sorted indices of the k-subsets c_u(x), u point 0 by default (see VectorInstance).

        c(x): {0..t-1} | {k..2k-t-1} for t = k, k-1, ..., 0, t = k being point 0.
        """
        k, m, top = self.k, self.m, self.point_count() - 1
        blocks: dict[tuple[bool, bool], list[int]] = {}  # A & u, A - u, u - A, the rest
        for e in range(m):
            blocks.setdefault((e < k, e in (u or range(k))), []).append(e)
        *heads, last = blocks.values()
        subsets = (
            sorted(chain(last[: k - sum(ns)], *(b[:n] for b, n in zip(heads, ns))))
            for ns in product(*(range(len(b) + 1) for b in heads))
            if 0 <= k - sum(ns) <= len(last)
        )
        # lex rank of a sorted k-subset s: C(m, k) - 1 - sum_i C(m - 1 - s_i, k - i)
        return sorted(top - sum(comb(m - 1 - e, k - i) for i, e in enumerate(s)) for s in subsets)

    def features(self, points: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
        return points


Instance = VectorInstance | UniformInstance


def _union_bound(weights: Sequence[int], acc: int, cands: int) -> int:
    """popcount of acc with every candidate's weight."""
    while cands:
        acc |= weights[(cands & -cands).bit_length() - 1]
        cands &= cands - 1
    return acc.bit_count()


class _Engine:
    """Include-first branch and bound on an explicit stack of resume frames.

    A node is (chosen, acc, cands): acc is the OR of the chosen points'
    weights and cands the admissible points above the last chosen one.  A
    node whose popcount(acc) beats the incumbent is recorded; one whose
    bound (popcount(acc) + |cands| without weights, else acc with every
    candidate's weight) cannot beat it is pruned.  Nodes count one per
    visit.  An include tests the narrowed child at once: a leaf or pruned
    child is counted there with the parent's next node (that point
    excluded: the parent's value, no incumbent test), when both come before
    the next budget or clock read, and the scan goes on over the parent's
    cands.  Any other child pushes the parent's (cands, acc) with its memo
    level and the point; popping it resumes the parent without that point.

    table[p][a] = ~kernel.completions(a, p): row p is made on first use and
    slot a filled on first read, by narrow or by the memo walk.  greedy, the
    seed, reads the same deadline and counts its includes against max_nodes.

    Path memo: level d maps a point q to the AND of row q's slots over
    chosen[:d], so including p at depth k narrows by level k's entry for p.
    A new level starts empty whenever chosen[d - 1] is set.  On a miss the
    include extends the deepest of the _MEMO_WINDOW levels below k that
    holds p, ANDing only the missing slots and storing each level on the
    way up to, not into, level k (its later readers ask for points above
    p); when none holds it, narrow computes the level at the window's
    bottom from scratch.  AND is associative, so every node, prune and
    incumbent is that of narrowing over all of chosen, while levels outside
    the window, never written, keep memory bounded on deep paths.
    """

    def __init__(
        self,
        kernel: CompletionKernel | None,
        max_nodes: int,
        deadline: float | None,
        weights: Sequence[int] | None = None,
    ):
        self.kernel = kernel
        self.weights = weights
        self.max_nodes = max_nodes
        self.deadline = deadline
        self.nodes = 0
        self.prunes = 0
        self.best: list[int] = []
        self.best_value = 0
        self.table: list[list[int | None] | None] = [None] * len(kernel.rows) if kernel else []

    def _acc(self, points: Sequence[int]) -> int:
        acc = 0
        for p in points:
            acc |= 1 << p if self.weights is None else self.weights[p]
        return acc

    def seed(self, incumbent: list[int]) -> None:
        self.best = list(incumbent)
        self.best_value = self._acc(incumbent).bit_count()

    def narrow(self, cands: int, chosen: Sequence[int], p: int) -> int:
        """cands without the completions of (a, p) for each chosen a < p."""
        row = self.table[p]
        if row is None:
            row = self.table[p] = [None] * p
        for a in chosen:
            keep = row[a]
            if keep is None:
                keep = row[a] = ~self.kernel.completions(a, p)
            cands &= keep
        return cands

    def greedy(self, chosen: list[int] | None = None) -> list[int]:
        """Lex-first maximal family, built in chosen (a new list by default).

        chosen grows in place, so an interrupt, the deadline or max_nodes
        includes leave a free prefix in it.
        """
        chosen = [] if chosen is None else chosen
        cands, deadline = self.kernel.full, self.deadline
        while cands and len(chosen) < self.max_nodes:
            if deadline is not None and time.monotonic() > deadline:
                break
            p = (cands & -cands).bit_length() - 1
            cands = self.narrow(cands & cands - 1, chosen, p)
            chosen.append(p)
        return chosen

    def run(self, chosen: list[int], cands: int) -> bool:
        """DFS from a start state; True when exhausted within budget."""
        weights, deadline, max_nodes = self.weights, self.deadline, self.max_nodes
        table, completions, narrow = self.table, self.kernel.completions, self.narrow
        nodes, prunes, best_value = self.nodes, self.prunes, self.best_value
        acc = self._acc(chosen)
        # frame d: (cands, acc, memo level d, chosen[d]); the start's frames never pop
        stack: list[tuple[int, int, dict[int, int], int]] = [(0, 0, {}, a) for a in chosen]
        # bound is that of the current cands; with weights it is kept until they change
        start, level, bound = len(stack), {}, None
        check = nodes  # the next node count that reads the clock or the budget
        try:
            while True:
                if nodes >= check:
                    if deadline is not None and nodes % _TIME_CHECK_STRIDE == 0:
                        if time.monotonic() > deadline:  # also before the first node
                            return False
                    if nodes >= max_nodes:
                        nodes += 1
                        return False
                    check = max_nodes
                    if deadline is not None:
                        check = min(check, nodes - nodes % _TIME_CHECK_STRIDE + _TIME_CHECK_STRIDE)
                nodes += 1
                value = acc.bit_count()
                if value > best_value:
                    best_value = value
                    self.best = [frame[3] for frame in stack]
                while cands:  # this node, then each exclude node after a settled child
                    if weights is None:
                        bound = value + cands.bit_count()  # cands lie above acc's bits
                    elif bound is None:
                        bound = _union_bound(weights, acc, cands)
                    if bound <= best_value:
                        prunes += 1
                        cands = 0  # done: the else clause resumes the parent
                        continue
                    low = cands & -cands
                    p = low.bit_length() - 1
                    cands ^= low
                    keep = level.get(p)
                    if keep is None:  # extend the deepest window level below k holding p
                        k = len(stack)
                        j, bottom = k - 1, (k - 1 - _MEMO_WINDOW if k > _MEMO_WINDOW else 0)
                        while j > bottom:
                            keep = stack[j][2].get(p)
                            if keep is not None:
                                break
                            j -= 1
                        else:  # none holds p: level bottom from scratch
                            j = bottom
                            keep = narrow(-1, [frame[3] for frame in stack[:j]], p)
                        row = table[p]  # made by the narrow that began p's memo
                        while j < k:  # no later read asks level k for p: it is not stored
                            a = stack[j][3]
                            slot = row[a]
                            if slot is None:
                                slot = row[a] = ~completions(a, p)
                            keep &= slot
                            j += 1
                            if j < k:
                                stack[j][2][p] = keep
                    child = cands & keep
                    if weights is None:
                        grown, gain = acc | low, value + 1
                        bound = gain + child.bit_count()
                    else:
                        grown = acc | weights[p]
                        gain, bound = grown.bit_count(), _union_bound(weights, grown, child)
                    # a leaf or pruned child (bound == gain: no candidate adds to it),
                    # when its node and this node's next, without p, come before check
                    if nodes + 1 < check and (bound <= best_value or bound == gain):
                        nodes += 2
                        if gain > best_value:
                            best_value = gain
                            self.best = [frame[3] for frame in stack]
                            self.best.append(p)
                        if child:
                            prunes += 1
                        bound = None
                        continue
                    stack.append((cands, acc, level, p))
                    cands, acc, level = child, grown, {}  # level k + 1 reads chosen[k], now p
                    break
                else:
                    if len(stack) == start:
                        return True
                    cands, acc, level, _ = stack.pop()
                    bound = None
        finally:
            self.nodes, self.prunes, self.best_value = nodes, prunes, best_value

    def _bound(self, acc: int, cands: int) -> int:
        if self.weights is None:
            return acc.bit_count() + cands.bit_count()
        return _union_bound(self.weights, acc, cands)

    def run_anchored(self, starts: Sequence[tuple[int, Sequence[int]]]) -> bool:
        """Walk each (c, thirds) in order; True when every start is exhausted.

        Visits [0, c], then scans it over its candidate thirds d: one prune at
        the first d whose bound from d up cannot beat the incumbent, else the
        start [0, c, d] with every candidate above d.  With no start (at most
        one point), or when the root cannot beat the seed, the walk is the
        root's alone: one pruned node when the seed holds every point.
        """
        full, narrow = self.kernel.full, self.narrow
        if not starts or self._bound(0, full) <= self.best_value:
            return self.run([], full)
        for c, thirds in starts:
            cands = narrow(full >> (c + 1) << (c + 1), [0], c)
            if not self.run([0, c], 0):  # the node [0, c], scanned over its thirds below
                return False
            for d in thirds:
                if cands >> d & 1:
                    if self._bound(self._acc([0, c]), cands >> d << d) <= self.best_value:
                        self.prunes += 1
                        break
                    if not self.run([0, c, d], narrow(cands >> (d + 1) << (d + 1), [0, c], d)):
                        return False
        return True


@record
class SearchResult:
    """Outcome of one exact-search run; witness always re-verified."""

    instance: Mapping[str, object]
    maximum: int
    witness_indices: tuple[int, ...]
    witness_points: tuple[tuple[int, ...], ...]
    nodes_explored: int
    optimal: bool
    elapsed: float
    stats: Mapping[str, object]
    bound_checks: tuple[Mapping[str, object], ...] = ()

    def to_json_dict(self) -> dict:
        # elapsed is wall-clock noise and stays out of machine-readable output
        return {
            "instance": dict(self.instance),
            "maximum": self.maximum,
            "exactness": EXACT_INT,
            "optimal": self.optimal,
            "witness_indices": list(self.witness_indices),
            "witness": [list(p) for p in self.witness_points],
            "nodes_explored": self.nodes_explored,
            "stats": dict(self.stats),
            "bound_checks": [dict(c) for c in self.bound_checks],
        }


def greedy_lower_bound(instance: Instance) -> list[int]:
    """Lexicographically first maximal family, as point indices (lifted, see _binary_split)."""
    rest, lift = _binary_split(instance)
    kernel = CompletionKernel(rest.features(rest.points()))
    return lift(_Engine(kernel, DEFAULT_NODE_BUDGET, None).greedy())


def _binary_split(instance: Instance) -> tuple[Instance, Callable[[Sequence[int]], list[int]]]:
    """(rest, lift): rest drops the moduli 2; lift maps a family of rest to every
    point whose other coordinates are a member, ascending.  Else (instance, list).
    A sunflower is all-equal where the modulus is 2, so it lies in one slice
    fixing those coordinates, a copy of rest in point order: s = 2^a s(rest),
    greedy lifts to greedy, and a maximum family first differing from the lift
    of rest's lex-first maximum would precede the copy there.
    """
    moduli = instance.moduli.moduli if isinstance(instance, VectorInstance) else ()
    if 2 not in moduli:
        return instance, list
    steps = [range(0, prod(moduli[i:]), prod(moduli[i + 1 :])) for i in range(len(moduli))]
    rest_at = [sum(o) for o in product(*(r for r, d in zip(steps, moduli) if d != 2))]
    slice_at = [sum(o) for o in product(*(r for r, d in zip(steps, moduli) if d == 2))]
    rest = VectorInstance(ModulusVector(tuple(d for d in moduli if d != 2)))
    return rest, lambda family: sorted(rest_at[r] + s for r in family for s in slice_at)


def _deadline(max_nodes: int, time_limit: float | None) -> float | None:
    """Check both budgets; return the clock reading time_limit from now, or None."""
    if max_nodes < 0:
        raise DomainError("max_nodes cannot be negative")
    if time_limit is not None and not time_limit >= 0:
        raise DomainError("time_limit must be a non-negative number of seconds")
    return None if time_limit is None else time.monotonic() + time_limit


def _solve(
    instance: Instance,
    max_nodes: int,
    deadline: float | None,
    union: bool = False,
) -> tuple[list[tuple[int, ...]], _Engine, list[int], bool]:
    """Run one search; return (points, engine, seed, optimal), engine.best verified.

    union maximizes the union size from the seed [point 0], not greedy: its
    witness must stay the first maximum in tuple order, where a prefix comes first.
    A spent budget (max_nodes 0, or a passed deadline) returns the seed unproved, no kernel built.
    Moduli holding a 2: rest's search under the same budgets, lifted, verified on instance.
    """
    count = instance.point_count()
    if count > DEFAULT_POINT_CEILING:
        raise TooLarge(f"instance has {count} points, ceiling is {DEFAULT_POINT_CEILING}")
    points = instance.points()
    seed = [0] if union and points else []
    expired = deadline is not None and time.monotonic() > deadline
    if expired or not max_nodes:  # the engine reads the clock before the budget
        engine = _Engine(None, max_nodes, deadline, [bitset(p) for p in points[:1]] if union else None)
        engine.seed(seed)
        engine.nodes = int(not expired)
        return points, engine, seed, False
    rest, lift = _binary_split(instance)
    rest_points = points if rest is instance else rest.points()
    kernel = CompletionKernel(rest.features(rest_points))
    # a k-subset's features are its elements, so its kernel row is its bitset
    engine = _Engine(kernel, max_nodes, deadline, weights=kernel.rows if union else None)
    try:
        engine.seed(seed if union else engine.greedy(seed))
        # exact per the anchor argument on VectorInstance
        optimal = engine.run_anchored(_anchor_starts(rest, rest_points))
    except KeyboardInterrupt:  # engine.best is the seed or better once seeded
        optimal = False
        engine.seed(engine.best or seed)
    seed = lift(seed)
    engine.seed(lift(engine.best))
    ok, witness = verify_family_points(instance, [points[i] for i in engine.best])
    if not ok:
        raise SunflowerError(f"internal error: witness fails verification at {witness.indices}")
    return points, engine, seed, optimal


def _anchor_starts(
    instance: Instance, points: list[tuple[int, ...]]
) -> list[tuple[int, list[int]]]:
    """The three-point anchor: each canonical second c, with the points canonical given c.

    The search's starts and the exported CNF's anchor clauses both read it
    (see VectorInstance).
    """
    return [(c, instance.canonical_points(points[c])) for c in instance.canonical_points()[1:]]


def _run_search(instance: Instance, max_nodes: int, time_limit: float | None) -> SearchResult:
    started = time.perf_counter()
    deadline = _deadline(max_nodes, time_limit)
    points, engine, greedy, optimal = _solve(instance, max_nodes, deadline)
    best = engine.best
    result = SearchResult(
        instance=instance.describe(),
        maximum=len(best),
        witness_indices=tuple(best),
        witness_points=tuple(points[i] for i in best),
        nodes_explored=engine.nodes,
        optimal=optimal,
        elapsed=time.perf_counter() - started,
        stats={
            "anchored": bool(points),
            "greedy_size": len(greedy),
            "prunes": engine.prunes,
        },
        bound_checks=_bound_checks(instance, len(best)) if optimal else (),
    )
    for check in result.bound_checks:
        if not check["ok"]:
            raise SunflowerError(
                f"internal error: exact maximum exceeds the {check['name']} bound"
            )
    return result


def _bound_checks(instance: Instance, maximum: int) -> tuple[dict, ...]:
    """The unflagged compare_bounds reports for moduli, or (k, M = m), each with ``ok``.

    Flags (degenerate-zero, up-to-unspecified-constant) mark no checkable
    inequality; a context compare_bounds rejects gets no checks.
    """
    from .bounds import compare_bounds  # here, so building an instance does not load bounds

    if isinstance(instance, VectorInstance):
        context = {"moduli": instance.moduli}
    else:
        context = {"k": instance.k, "M": instance.m}
    try:
        reports = compare_bounds(**context)
    except (DomainError, UsageError):
        return ()
    return tuple({**r.to_json_dict(), "ok": r.admits(maximum)} for r in reports if not r.flags)


def max_sunflower_free_vectors(
    moduli,
    max_nodes: int = DEFAULT_NODE_BUDGET,
    time_limit: float | None = None,
) -> SearchResult:
    """Exact maximum sunflower-free family in the product of cyclic groups."""
    instance = VectorInstance(as_modulus_vector(moduli))
    return _run_search(instance, max_nodes, time_limit)


def max_sunflower_free_uniform(
    k: int,
    m: int,
    max_nodes: int = DEFAULT_NODE_BUDGET,
    time_limit: float | None = None,
) -> SearchResult:
    """Exact maximum sunflower-free family of k-subsets of [m]."""
    instance = UniformInstance(k, m)
    return _run_search(instance, max_nodes, time_limit)


def verify_family_points(
    instance: Instance, points: Sequence[tuple[int, ...]]
) -> tuple[bool, SunflowerWitness | None]:
    """Sunflower-freeness of explicit points; smallest witness when violated.

    Uses the definitional scans (vectors: pair lookup), not the search's kernel.
    """
    if isinstance(instance, VectorInstance):
        fam = VectorFamily(instance.moduli, tuple(points))
        witness = find_sunflower_vectors_lookup(fam)
    else:
        for p in points:
            if len(p) != instance.k or not all(0 <= e < instance.m for e in p):
                raise DomainError(f"point {p} is not a {instance.k}-subset of [{instance.m}]")
        fam = SetFamily(tuple(frozenset(p) for p in points))
        witness = find_sunflower_sets(fam, 3)
    return witness is None, witness


def verify_family(
    instance: Instance, family: VectorFamily | SetFamily
) -> tuple[bool, SunflowerWitness | None]:
    """Sunflower-freeness of a family object against an instance."""
    if isinstance(instance, VectorInstance):
        if not isinstance(family, VectorFamily) or family.moduli != instance.moduli:
            raise DomainError("family does not live over the instance moduli")
        return verify_family_points(instance, family.members)
    if not isinstance(family, SetFamily):
        raise DomainError("uniform instances take set families")
    return verify_family_points(
        instance, tuple(tuple(sorted(mem)) for mem in family.members)
    )


@record
class CnfInstance:
    """CNF whose models are the anchored sunflower-free families of size >= the target."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]
    comments: tuple[str, ...]

    def to_dimacs(self) -> str:
        head = "".join(f"c {c}\n" for c in self.comments)
        head += f"p cnf {self.num_vars} {len(self.clauses)}\n"
        parts = [head]
        for n, group in groupby(self.clauses, len):  # one % per run of equal-length clauses
            run = tuple(group)
            line = "%d " * n + "0\n" if n else " 0\n"  # the empty clause keeps its space
            parts.append(line * len(run) % tuple(chain.from_iterable(run)))
        return "".join(parts)


def export_cnf(instance: Instance, size: int) -> CnfInstance:
    """One variable per point; a clause per sunflower triple; count >= size; the anchor.

    The cardinality side is a sequential counter: s(i, j) (variable
    P + (i-1) size + j) asserts "at least j of the first i points chosen",
    with clauses making each s(i, j) imply that count, and the unit clause
    s(P, size) forcing the target.  A target above the point count P is the
    empty clause instead, so nothing grows with it.  The three-point anchor
    of the search (see VectorInstance) follows, over the counter's own
    variables: x1 when there is a point, and for size >= 2 one clause over
    the canonical second points.  For 2 <= size <= P, point e is the
    second chosen point exactly when s(e, 2) is false, and the third when
    s(e, 3) is false, so (-x_e s(e,2)) bars each e >= 2 that is not a
    canonical second, and for size >= 3 (-x_c s(c,2) -x_e s(e,3)) bars each
    e > c that is not canonical given the canonical second c.  The
    lex-first free family of the target size, with each s(i, j) set to its
    meaning, satisfies every clause, so the formula is satisfiable iff a
    free family of the target size exists; its models are the anchored ones.
    """
    if size < 0:
        raise DomainError("target size cannot be negative")
    count = instance.point_count()
    if count > CNF_POINT_CEILING:
        raise TooLarge(f"CNF export capped at {CNF_POINT_CEILING} points, got {count}")
    pts = instance.points()
    kernel = CompletionKernel(instance.features(pts))
    comments = [
        "sunflower-free family encoding: variable i+1 <=> point i chosen",
        f"instance: {_describe_text(instance)}",
        f"target size: at least {size}",
    ]
    comments.extend(
        f"var {i + 1} = {instance.point_text(p)}" for i, p in enumerate(pts)
    )
    p_count = num_vars = len(pts)
    neg = [-v for v in range(1, p_count + 1)]  # -x_i, one int object per literal
    clauses: list[tuple[int, ...]] = [(neg[i], neg[j], neg[l]) for i, j, l in kernel.triples()]
    comments.insert(3, f"sunflower triple clauses: {len(clauses)}")

    def aux(i: int, j: int) -> int:
        return p_count + (i - 1) * size + j

    if size > p_count:
        clauses.append(())  # a target above the point count: unsatisfiable, no counter
    elif size > 0:
        num_vars = p_count + p_count * size
        clauses.append((-aux(1, 1), 1))
        for j in range(2, size + 1):
            clauses.append((-aux(1, j),))
        for i in range(2, p_count + 1):
            for j in range(1, size + 1):
                clauses.append((-aux(i, j), aux(i - 1, j), i))
                if j >= 2:
                    clauses.append((-aux(i, j), aux(i - 1, j), aux(i - 1, j - 1)))
        clauses.append((aux(p_count, size),))
    anchor = [(1,)] if pts else []
    if pts and size >= 2:
        starts = _anchor_starts(instance, pts)
        anchor.append(tuple(c + 1 for c, _ in starts))
    if 2 <= size <= p_count:
        seconds = {c for c, _ in starts}
        anchor.extend((neg[e], aux(e, 2)) for e in range(2, p_count) if e not in seconds)
    if 3 <= size <= p_count:
        for c, thirds in starts:
            bar, canonical = (neg[c], aux(c, 2)), set(thirds)
            thirds_barred = (e for e in range(c + 1, p_count) if e not in canonical)
            anchor.extend((*bar, neg[e], aux(e, 3)) for e in thirds_barred)
    comments.insert(4, f"symmetry anchor clauses: {len(anchor)}")
    return CnfInstance(num_vars, tuple(clauses + anchor), tuple(comments))


def _describe_text(instance: Instance) -> str:
    d = instance.describe()
    if d["kind"] == "vectors":
        return "vectors over moduli " + ",".join(str(x) for x in d["moduli"])
    return f"{d['k']}-subsets of a {d['m']}-element ground set"


def cnf_satisfiable(cnf: CnfInstance) -> bool:
    """DPLL over static occurrence lists of 3-literal clauses; tiny instances only.

    Branches on the lowest unassigned variable, true first, so the decision
    order matches the point order of the exported encodings.  Short clauses
    are padded with the always-false literal 0; (l1 ... lk) with k > 3
    becomes the chain (l1 l2 y1) (-y1 l3 y2) ... (-y_{k-3} l_{k-1} lk) over
    fresh variables after num_vars, which propagation treats as the clause,
    so they are never decided.  When a literal turns false, each clause
    holding it is skipped if one of its other two literals is true, else
    forces the one not yet false or is a conflict.  The fixpoint is the same
    in any clause order, so the tree is that of plain unit propagation.
    Backtracking is chronological and mutates only the trail.  Formulas over
    more than CNF_VAR_CEILING input variables are refused (chain variables
    do not count).
    """
    n = cnf.num_vars
    if n < 0:
        raise DomainError("num_vars must be at least 0")
    if n > CNF_VAR_CEILING:
        raise TooLarge(f"naive checker capped at {CNF_VAR_CEILING} variables")
    if any(not 0 < abs(lit) <= n for cl in cnf.clauses for lit in cl):
        raise DomainError(f"a literal names no variable in 1..{n}")
    if any(len(cl) == 0 for cl in cnf.clauses):
        return False
    short: list[tuple[int, ...]] = []
    top = n
    for raw in cnf.clauses:
        cl = list(dict.fromkeys(raw))
        if any(-lit in raw for lit in cl):  # a tautology always holds
            continue
        while len(cl) > 3:
            top += 1
            short.append((cl[0], cl[1], top))
            cl[:2] = [-top]
        short.append((*cl, 0, 0)[:3])
    # indexed by literal: slot -v of a list of length 2 top+1 is literal -v;
    # literal 0 starts the trail false, so propagating it forces the units
    value: list[bool | None] = [None] * (2 * top + 1)
    value[0] = False
    trail = [0]
    occurs: list[list[tuple[int, int]]] = [[] for _ in range(2 * top + 1)]
    for a, b, c in short:
        occurs[a].append((b, c))
        occurs[b].append((a, c))
        occurs[c].append((a, b))

    def propagate(i: int) -> bool:
        while i < len(trail):
            for a, b in occurs[-trail[i]]:
                va = value[a]
                if va:
                    continue
                vb = value[b]
                if vb:
                    continue
                if va is None:
                    if vb is not None:
                        value[a], value[-a] = True, False
                        trail.append(a)
                elif vb is None:
                    value[b], value[-b] = True, False
                    trail.append(b)
                else:
                    return False
            i += 1
        return True

    def undo(start: int) -> None:
        for lit in trail[start:]:
            value[lit] = value[-lit] = None
        del trail[start:]

    if not propagate(0):
        return False
    decisions: list[tuple[int, bool, int]] = []
    v = 1
    while True:
        while v <= n and value[v] is not None:
            v += 1
        if v > n:
            return True
        val = True
        while True:
            start = len(trail)
            lit = v if val else -v
            value[lit], value[-lit] = True, False
            trail.append(lit)
            if propagate(start):
                decisions.append((v, val, start))
                v += 1
                break
            undo(start)
            while not val:  # both values failed: flip an earlier decision
                if not decisions:
                    return False
                v, val, start = decisions.pop()
                undo(start)
            val = False
