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
from dataclasses import dataclass
from math import comb
from typing import Mapping, Sequence

from .detect import CompletionKernel, bitset, find_sunflower_sets
from .errors import DomainError, SunflowerError, TooLarge
from .model import EXACT_INT, SetFamily
from .search import (
    DEFAULT_NODE_BUDGET,
    DEFAULT_POINT_CEILING,
    UniformInstance,
    _Engine,
)

COVER_MEMBER_CEILING = 30


@dataclass(frozen=True)
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
        return ",".join(
            str(x)
            for x in (
                self.k,
                self.m,
                self.max_union,
                len(self.witness),
                repr(self.implied_d),
                "" if self.cover_count is None else self.cover_count,
                "" if self.cover_pass is None else self.cover_pass,
                2 * self.k,
                self.optimal,
                self.nodes_explored,
            )
        )


CSV_HEADER = "k,m,max_union,family_size,implied_d,cover_count,cover_pass,two_k,optimal,nodes"


def max_union(
    k: int,
    m: int,
    max_nodes: int = DEFAULT_NODE_BUDGET,
    time_limit: float | None = None,
    point_ceiling: int = DEFAULT_POINT_CEILING,
    cover_ceiling: int = COVER_MEMBER_CEILING,
) -> ConjectureReport:
    """Maximize the union size over sunflower-free k-uniform families on [m].

    Runs the search engine's union objective over the k-subsets in
    lexicographic order: a node's value is the size of the chosen members'
    union, and its bound is that union with every still-admissible member.
    The witness is the lexicographically first family attaining the maximum,
    re-verified sunflower-free before reporting.
    """
    if comb(m, k) > point_ceiling:
        raise TooLarge(f"C({m},{k}) exceeds the point ceiling {point_ceiling}")
    started = time.perf_counter()
    deadline = None if time_limit is None else time.monotonic() + time_limit
    points = UniformInstance(k, m).points()
    # a k-subset's features are its elements, so its kernel row is its bitset
    kernel = CompletionKernel(points)
    engine = _Engine(kernel, max_nodes, deadline, weights=kernel.rows)
    optimal = engine.run([], kernel.full)

    witness = tuple(points[i] for i in engine.best)
    family = SetFamily(tuple(frozenset(p) for p in witness))
    if find_sunflower_sets(family, 3) is not None:
        raise SunflowerError("internal error: union witness contains a sunflower")

    cover_n: int | None
    cover_members: tuple[int, ...] | None
    try:
        cover_n, cover_members = cover_count(family, ceiling=cover_ceiling)
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


def cover_count(f: SetFamily, ceiling: int = COVER_MEMBER_CEILING) -> tuple[int, tuple[int, ...]]:
    """Exact minimum number of members whose union is the whole union.

    Branch and bound on the lowest uncovered element: each step branches
    over the members containing it, in index order.  The empty union needs
    zero members.
    """
    if len(f) > ceiling:
        raise TooLarge(f"exact cover capped at {ceiling} members, got {len(f)}")
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

    ``threads`` is accepted for API compatibility and ignored: the cells are
    pure-Python work that threads cannot overlap.
    """
    cells = []
    for k in ks:
        for m in ms:
            if k < 1 or m < 1:
                raise DomainError("k and m must be at least 1")
            if k <= m:
                cells.append((k, m))
    return [max_union(k, m, max_nodes=max_nodes, time_limit=time_limit) for k, m in cells]


def scan_to_csv(reports: Sequence[ConjectureReport]) -> str:
    lines = [CSV_HEADER]
    lines.extend(r.to_csv_row() for r in reports)
    return "\n".join(lines) + "\n"
