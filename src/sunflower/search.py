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
family, and no maximum family is lex-smaller than it).

Triple constraints live in the lazy table of detect.CompletionKernel, built
over the points' features: row p, made when point p is first included,
holds at each chosen a < p the complement of the completions of (a, p), and
kernel.narrow is the one narrowing step of the engine and greedy.  Answers are
verified with the definitional scans of detect (for vectors the pair lookup,
quadratic when no column holds more than 3 values), never with that kernel.
time_limit is one deadline, set at call start, for greedy and the engine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Mapping, Sequence

from . import bounds as _bounds
from .detect import CompletionKernel, find_sunflower_sets, find_sunflower_vectors_lookup
from .detect import vector_features
from .errors import DomainError, SunflowerError, TooLarge
from .model import (
    EXACT_INT,
    ModulusVector,
    SetFamily,
    SunflowerWitness,
    VectorFamily,
    as_modulus_vector,
)

DEFAULT_POINT_CEILING = 2**20
DEFAULT_NODE_BUDGET = 10**9
CNF_POINT_CEILING = 5000
_TIME_CHECK_STRIDE = 4096


@dataclass(frozen=True)
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

    # Translation anchor soundness: adding a fixed vector w coordinatewise
    # (mod D_i) is a bijection on each Z_{D_i}, so it preserves every
    # per-coordinate equality pattern among any three points; sunflower
    # triples map to sunflower triples in both directions.  Translating a
    # maximum family by the negation of any of its points yields a maximum
    # family containing the all-zero point, and that translate starts with
    # point index 0, so the lexicographically smallest maximum family
    # always contains point 0.  Anchoring is therefore exact for every
    # moduli vector, mixed or not.
    def supports_anchor(self) -> bool:
        return self.point_count() >= 1

    def features(self, points: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
        return vector_features(self.moduli, points)


@dataclass(frozen=True)
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
        from math import comb

        return comb(self.m, self.k)

    def points(self) -> list[tuple[int, ...]]:
        return list(combinations(range(self.m), self.k))

    def describe(self) -> dict:
        return {"kind": "uniform", "k": self.k, "m": self.m}

    def point_text(self, point: tuple[int, ...]) -> str:
        return "{" + ",".join(str(e) for e in point) + "}"

    def supports_anchor(self) -> bool:
        return False

    def features(self, points: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
        return points


Instance = VectorInstance | UniformInstance


class _Engine:
    """Include-first branch and bound on an explicit stack of resume frames.

    A node is (chosen, acc, cands): acc is the OR of the chosen points'
    weights and cands the admissible points above the last chosen one.  A
    node whose popcount(acc) beats the incumbent is recorded; one whose
    bound (acc | cands without weights, else acc with every candidate's
    weight) cannot beat it is pruned.  Including a point pushes the
    parent's (cands, acc); popping it resumes the parent with that point
    excluded.
    """

    def __init__(
        self,
        kernel: CompletionKernel,
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

    def _acc(self, points: list[int]) -> int:
        acc = 0
        for p in points:
            acc |= 1 << p if self.weights is None else self.weights[p]
        return acc

    def seed(self, incumbent: list[int]) -> None:
        self.best = list(incumbent)
        self.best_value = self._acc(incumbent).bit_count()

    def run(self, chosen: list[int], cands: int) -> bool:
        """DFS from a start state; True when exhausted within budget."""
        weights, narrow, deadline = self.weights, self.kernel.narrow, self.deadline
        max_nodes, nodes, prunes = self.max_nodes, self.nodes, self.prunes
        best_value = self.best_value
        chosen = list(chosen)
        acc = self._acc(chosen)
        stack: list[tuple[int, int]] = []
        try:
            while True:
                if deadline is not None and nodes % _TIME_CHECK_STRIDE == 0:
                    if time.monotonic() > deadline:  # also before the first node
                        return False
                nodes += 1
                if nodes > max_nodes:
                    return False
                value = acc.bit_count()
                if value > best_value:
                    best_value = value
                    self.best = list(chosen)
                if cands:
                    if weights is None:
                        bound = acc | cands
                    else:
                        bound, rest = acc, cands
                        while rest:
                            bound |= weights[(rest & -rest).bit_length() - 1]
                            rest &= rest - 1
                    if bound.bit_count() <= best_value:
                        prunes += 1
                    else:
                        low = cands & -cands
                        p = low.bit_length() - 1
                        cands ^= low
                        stack.append((cands, acc))
                        cands = narrow(cands, chosen, p)
                        chosen.append(p)
                        acc |= low if weights is None else weights[p]
                        continue
                if not stack:
                    return True
                cands, acc = stack.pop()
                chosen.pop()
        finally:
            self.nodes, self.prunes, self.best_value = nodes, prunes, best_value


@dataclass(frozen=True)
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
    """Lexicographically first maximal family, as point indices."""
    return _greedy(CompletionKernel(instance.features(instance.points())))


def _greedy(kernel: CompletionKernel, deadline: float | None = None) -> list[int]:
    chosen: list[int] = []
    cands = kernel.full
    while cands and (deadline is None or time.monotonic() <= deadline):
        p = (cands & -cands).bit_length() - 1
        cands = kernel.narrow(cands & cands - 1, chosen, p)
        chosen.append(p)
    return chosen


def _run_search(
    instance: Instance,
    max_nodes: int,
    time_limit: float | None,
    anchor: bool,
    point_ceiling: int,
) -> SearchResult:
    count = instance.point_count()
    if count > point_ceiling:
        raise TooLarge(f"instance has {count} points, ceiling is {point_ceiling}")
    started = time.perf_counter()
    deadline = None if time_limit is None else time.monotonic() + time_limit
    points = instance.points()
    kernel = CompletionKernel(instance.features(points))
    greedy = _greedy(kernel, deadline)

    search = _Engine(kernel, max_nodes, deadline)
    search.seed(greedy)
    anchored = anchor and instance.supports_anchor()
    if anchored:  # sound per the translation argument on VectorInstance
        optimal = search.run([0], kernel.full & ~1)
    else:
        optimal = search.run([], kernel.full)

    best = search.best
    witness_points = tuple(points[i] for i in best)
    result = SearchResult(
        instance=instance.describe(),
        maximum=len(best),
        witness_indices=tuple(best),
        witness_points=witness_points,
        nodes_explored=search.nodes,
        optimal=optimal,
        elapsed=time.perf_counter() - started,
        stats={
            "anchored": anchored,
            "greedy_size": len(greedy),
            "prunes": search.prunes,
        },
        bound_checks=_bound_checks(instance, len(best)) if optimal else (),
    )
    ok, witness = verify_family_points(instance, witness_points)
    if not ok:
        raise SunflowerError(
            f"internal error: witness fails verification at {witness.indices}"
        )
    for check in result.bound_checks:
        if not check["ok"]:
            raise SunflowerError(
                f"internal error: exact maximum exceeds the {check['name']} bound"
            )
    return result


def _bound_checks(instance: Instance, maximum: int) -> tuple[dict, ...]:
    checks: list[dict] = []

    def add(name: str, value, ok: bool) -> None:
        checks.append({"name": name, "value": value, "ok": bool(ok)})

    if isinstance(instance, VectorInstance):
        mv = instance.moduli
        if mv.n >= 1 and all(d >= 3 for d in mv):
            g = _bounds.generalized_ns_bound(mv)
            add("generalized-ns", g, maximum <= g)
        distinct = set(mv)
        if mv.n >= 1 and len(distinct) == 1:
            d = next(iter(distinct))
            if d > 2:
                nsv = _bounds.ns_vector_bound(d, mv.n)
                add("ns-vector", nsv.value, maximum <= nsv.value + nsv.radius)
                if _bounds.factorize(d).is_prime_power:
                    eg = _bounds.eg_vector_bound(d, mv.n)
                    add("eg-vector", eg.value, maximum <= eg.value + eg.radius)
    else:
        er = _bounds.erdos_rado_threshold(instance.k, 3)
        add(
            "erdos-rado-threshold",
            f"{er.numerator}/{er.denominator}" if er.denominator != 1 else er.numerator,
            Fraction(maximum) <= er,
        )
        ns = _bounds.ns_subset_bound(instance.m)
        add("ns-subset", ns, maximum <= ns)
    return tuple(checks)


def max_sunflower_free_vectors(
    moduli,
    max_nodes: int = DEFAULT_NODE_BUDGET,
    time_limit: float | None = None,
    anchor: bool = True,
    point_ceiling: int = DEFAULT_POINT_CEILING,
    threads: int = 1,
) -> SearchResult:
    """Exact maximum sunflower-free family in the product of cyclic groups.

    ``threads`` is accepted for API compatibility and ignored.
    """
    instance = VectorInstance(as_modulus_vector(moduli))
    return _run_search(instance, max_nodes, time_limit, anchor, point_ceiling)


def max_sunflower_free_uniform(
    k: int,
    m: int,
    max_nodes: int = DEFAULT_NODE_BUDGET,
    time_limit: float | None = None,
    point_ceiling: int = DEFAULT_POINT_CEILING,
    threads: int = 1,
) -> SearchResult:
    """Exact maximum sunflower-free family of k-subsets of [m].

    ``threads`` is accepted for API compatibility and ignored.
    """
    instance = UniformInstance(k, m)
    return _run_search(instance, max_nodes, time_limit, False, point_ceiling)


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


@dataclass(frozen=True)
class CnfInstance:
    """CNF whose models are sunflower-free families of size >= the target."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]
    comments: tuple[str, ...]

    def to_dimacs(self) -> str:
        lines = [f"c {c}" for c in self.comments]
        lines.append(f"p cnf {self.num_vars} {len(self.clauses)}")
        lines.extend(" ".join(str(lit) for lit in cl) + " 0" for cl in self.clauses)
        return "\n".join(lines) + "\n"


def export_cnf(instance: Instance, size: int) -> CnfInstance:
    """One variable per point; a clause per sunflower triple; count >= size.

    The cardinality side is a sequential counter: s_{i,j} (variable
    P + (i-1) size + j) asserts "at least j of the first i points chosen",
    with clauses making each s_{i,j} imply that count, and the unit clause
    s_{P,size} forcing the target.
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
    clauses: list[tuple[int, ...]] = [
        (-(i + 1), -(j + 1), -(l + 1)) for i, j, l in kernel.triples()
    ]
    comments.insert(3, f"sunflower triple clauses: {len(clauses)}")

    num_vars = len(pts)
    if size > 0 and not pts:
        clauses.append(())  # no points, positive target: unsatisfiable
    elif size > 0:
        p_count = len(pts)

        def aux(i: int, j: int) -> int:
            return p_count + (i - 1) * size + j

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
    return CnfInstance(num_vars, tuple(clauses), tuple(comments))


def _describe_text(instance: Instance) -> str:
    d = instance.describe()
    if d["kind"] == "vectors":
        return "vectors over moduli " + ",".join(str(x) for x in d["moduli"])
    return f"{d['k']}-subsets of a {d['m']}-element ground set"


def cnf_satisfiable(cnf: CnfInstance, max_vars: int = 4000) -> bool:
    """DPLL with unit propagation over occurrence lists; tiny instances only.

    Branches on the lowest unassigned variable, trying true first, so the
    decision order matches the point order of the exported encodings.
    Decisions live on an explicit stack, not on Python's call stack.
    """
    if cnf.num_vars > max_vars:
        raise TooLarge(f"naive checker capped at {max_vars} variables")
    n = cnf.num_vars
    clauses = [tuple(cl) for cl in cnf.clauses]
    if any(len(cl) == 0 for cl in clauses):
        return False
    occurs: list[list[int]] = [[] for _ in range(n + 1)]
    for ci, cl in enumerate(clauses):
        for lit in cl:
            occurs[abs(lit)].append(ci)
    assign: list[bool | None] = [None] * (n + 1)

    def set_literal(lit: int, trail: list[int]) -> bool:
        v, val = abs(lit), lit > 0
        if assign[v] is not None:
            return assign[v] == val
        assign[v] = val
        trail.append(v)
        return True

    def propagate(trail: list[int]) -> bool:
        i = 0
        while i < len(trail):
            v = trail[i]
            i += 1
            for ci in occurs[v]:
                cl = clauses[ci]
                unit = 0
                satisfied = False
                open_count = 0
                for lit in cl:
                    a = assign[abs(lit)]
                    if a is None:
                        open_count += 1
                        unit = lit
                        if open_count > 1:
                            break
                    elif (lit > 0) == a:
                        satisfied = True
                        break
                if satisfied or open_count > 1:
                    continue
                if open_count == 0:
                    return False
                if not set_literal(unit, trail):
                    return False
        return True

    def undo(trail: list[int]) -> None:
        for v in trail:
            assign[v] = None

    trail: list[int] = []
    for cl in clauses:
        if len(cl) == 1:
            if not set_literal(cl[0], trail):
                return False
    if not propagate(trail):
        return False

    decisions: list[tuple[int, bool, list[int]]] = []
    v = 1
    while True:
        while v <= n and assign[v] is not None:
            v += 1
        if v > n:
            return True
        value = True
        while True:
            assign[v] = value
            trail = [v]
            if propagate(trail):
                decisions.append((v, value, trail))
                v += 1
                break
            undo(trail)
            while not value:  # both values failed: flip an earlier decision
                if not decisions:
                    return False
                v, value, trail = decisions.pop()
                undo(trail)
            value = False
