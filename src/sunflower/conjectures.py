"""Desk-scale probes of two open questions about sunflower-free k-uniform
families: how large the union of members can get (conjecturally at most a
constant times k^2), and how few members suffice to cover that union
(conjecturally at most 2k).

Nothing here asserts either conjecture.  Reports carry the extremal union
size, the implied constant union/k^2, and the exact minimum cover count,
leaving pass/fail meaningful only for the 2k cover form.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

from .detect import bitset
from .errors import DomainError, TooLarge
from .model import EXACT_INT, SetFamily, record
from .search import DEFAULT_NODE_BUDGET, UniformInstance, _deadline, _solve

COVER_MEMBER_CEILING = 30


@record
class ConjectureReport:
    """Extremal union size and minimum cover for one (k, m) cell."""

    k: int
    m: int
    max_union: int
    witness: tuple[tuple[int, ...], ...]
    implied_d: float
    cover_count: int | None
    cover_members: tuple[int, ...] | None
    cover_pass: bool | None
    optimal: bool
    nodes_explored: int
    elapsed: float

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "m": self.m,
            "max_union": self.max_union,
            "exactness": EXACT_INT,
            "witness": [list(p) for p in self.witness],
            "family_size": len(self.witness),
            "implied_d": self.implied_d,
            "cover_count": self.cover_count,
            "cover_members": None
            if self.cover_members is None
            else list(self.cover_members),
            "cover_pass": self.cover_pass,
            "two_k": 2 * self.k,
            "optimal": self.optimal,
            "nodes_explored": self.nodes_explored,
        }

    def to_csv_row(self) -> str:
        """The CSV_HEADER columns of to_json_dict; nodes is nodes_explored, None is empty."""
        d = self.to_json_dict()
        values = (d["nodes_explored" if col == "nodes" else col] for col in CSV_HEADER.split(","))
        return ",".join("" if v is None else str(v) for v in values)


CSV_HEADER = "k,m,max_union,family_size,implied_d,cover_count,cover_pass,two_k,optimal,nodes"


def max_union(
    k: int,
    m: int,
    max_nodes: int = DEFAULT_NODE_BUDGET,
    time_limit: float | None = None,
) -> ConjectureReport:
    """Maximize the union size over sunflower-free k-uniform families on [m].

    Runs search's driver with the union objective over the k-subsets in
    lexicographic order: a node's value is the size of the chosen members'
    union, and its bound is that union with every still-admissible member.
    Seeded with [point 0], it runs with search's three-point anchor, whose
    node [0, c] is visited before its thirds (it can be the witness), and
    shares its point ceiling (DEFAULT_POINT_CEILING), budgets and interrupt
    handling.  The witness is the first maximum family in tuple order (a
    prefix first), verified sunflower-free by the driver.
    """
    return _max_union(k, m, max_nodes, _deadline(max_nodes, time_limit))


def _max_union(k: int, m: int, max_nodes: int, deadline: float | None) -> ConjectureReport:
    started = time.perf_counter()
    instance = UniformInstance(k, m)
    points, engine, _, optimal = _solve(instance, max_nodes, deadline, union=True)
    witness = tuple(points[i] for i in engine.best)
    family = SetFamily(tuple(frozenset(p) for p in witness))

    cover_n: int | None
    cover_members: tuple[int, ...] | None
    try:
        cover_n, cover_members = cover_count(family)
        cover_pass = cover_n <= 2 * k
    except TooLarge:
        cover_n, cover_members, cover_pass = None, None, None

    return ConjectureReport(
        k=k,
        m=m,
        max_union=engine.best_value,
        witness=witness,
        implied_d=engine.best_value / (k * k),
        cover_count=cover_n,
        cover_members=cover_members,
        cover_pass=cover_pass,
        optimal=optimal,
        nodes_explored=engine.nodes,
        elapsed=time.perf_counter() - started,
    )


def cover_count(f: SetFamily) -> tuple[int, tuple[int, ...]]:
    """Exact minimum number of members whose union is the whole union.

    Branch and bound on the lowest uncovered element: each step branches
    over the members containing it, in index order.  The empty union needs
    zero members.  Families above COVER_MEMBER_CEILING members are refused.
    """
    if len(f) > COVER_MEMBER_CEILING:
        raise TooLarge(f"exact cover capped at {COVER_MEMBER_CEILING} members, got {len(f)}")
    universe = sorted(f.universe)
    if not universe:
        return 0, ()
    pos = {e: i for i, e in enumerate(universe)}
    masks = [bitset([pos[e] for e in mem]) for mem in f.members]
    full = (1 << len(universe)) - 1
    containing: list[list[int]] = [[] for _ in universe]
    for mi, mask in enumerate(masks):
        rest = mask
        while rest:
            containing[(rest & -rest).bit_length() - 1].append(mi)
            rest &= rest - 1
    max_size = max((m.bit_count() for m in masks), default=0)

    best: dict = {"count": len(f) + 1, "members": ()}

    def expand(covered: int, chosen: list[int]) -> None:
        if covered == full:
            if len(chosen) < best["count"]:
                best["count"] = len(chosen)
                best["members"] = tuple(chosen)
            return
        remaining = full & ~covered
        need = -(-remaining.bit_count() // max_size)
        if len(chosen) + need >= best["count"]:
            return
        e = (remaining & -remaining).bit_length() - 1
        for mi in containing[e]:
            chosen.append(mi)
            expand(covered | masks[mi], chosen)
            chosen.pop()

    expand(0, [])
    return best["count"], best["members"]


def conjecture_scan(
    ks: Sequence[int],
    ms: Sequence[int],
    max_nodes: int = DEFAULT_NODE_BUDGET,
    time_limit: float | None = None,
    threads: int = 1,
) -> list[ConjectureReport]:
    """One report per (k, m) cell, k-major order.

    The budgets bound the whole scan: one deadline, set at call start, and
    one node budget, of which each cell gets what the cells before it left.
    A cell left with nothing reports its seed with optimal false.  ``threads``
    is accepted for API compatibility and ignored: the cells are pure-Python
    work that threads cannot overlap.
    """
    cells = []
    for k in ks:
        for m in ms:
            if k < 1 or m < 1:
                raise DomainError("k and m must be at least 1")
            if k <= m:
                cells.append((k, m))
    deadline = _deadline(max_nodes, time_limit)
    reports = []
    for k, m in cells:
        reports.append(_max_union(k, m, max_nodes, deadline))
        max_nodes = max(0, max_nodes - reports[-1].nodes_explored)
    return reports


def scan_to_csv(reports: Sequence[ConjectureReport]) -> str:
    lines = [CSV_HEADER]
    lines.extend(r.to_csv_row() for r in reports)
    return "\n".join(lines) + "\n"
