import itertools
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from oracles import brute_cover_count, brute_find_sunflower_sets, brute_max_union

from sunflower import (
    CSV_HEADER,
    ConjectureReport,
    DomainError,
    SetFamily,
    TooLarge,
    conjecture_scan,
    cover_count,
    dump_json,
    max_union,
    parse_set_family,
    scan_to_csv,
)
from sunflower import conjectures, search
from sunflower.detect import CompletionKernel
from sunflower.search import _TIME_CHECK_STRIDE


class TestMaxUnion:
    def test_frozen_row_k2(self):
        values = [max_union(2, m).max_union for m in range(4, 9)]
        assert values == [4, 5, 6, 6, 6]

    def test_k2_saturates_at_dk_squared(self):
        # the 3/2 * 2^2 = 6 plateau from m = 6 on
        assert max_union(2, 12).max_union == 6

    @pytest.mark.parametrize("km", [(1, 4), (2, 4), (2, 5), (3, 4)])
    def test_matches_exhaustive_oracle(self, km):
        k, m = km
        ref, idxs = brute_max_union(k, m)
        rep = max_union(k, m)
        assert rep.max_union == ref
        points = list(itertools.combinations(range(m), k))
        assert rep.witness == tuple(points[i] for i in idxs)  # first in tuple order

    def test_witness_is_free_and_attains_the_union(self):
        rep = max_union(2, 6)
        fam = SetFamily(tuple(frozenset(p) for p in rep.witness), None)
        from sunflower import find_sunflower_sets_fast, union_size

        assert find_sunflower_sets_fast(fam) is None
        assert union_size(fam) == rep.max_union

    def test_implied_d(self):
        rep = max_union(2, 6)
        assert rep.implied_d == 6 / 4

    def test_report_json_shape(self):
        payload = json.loads(dump_json(max_union(2, 5).to_json_dict()))
        assert payload["two_k"] == 4
        assert payload["family_size"] == len(payload["witness"])
        assert "elapsed" not in payload
        assert payload["exactness"] == "exact-int"

    def test_cover_fields(self):
        rep = max_union(2, 5)
        assert rep.cover_count is not None
        assert rep.cover_pass == (rep.cover_count <= 2 * rep.k)

    def test_domain(self):
        with pytest.raises(DomainError):
            max_union(0, 4)
        with pytest.raises(DomainError):
            max_union(2, 0)

    def test_point_ceiling(self):
        # the ceiling is search's DEFAULT_POINT_CEILING, not a parameter
        with pytest.raises(TypeError):
            max_union(2, 5, point_ceiling=10)
        with pytest.raises(TooLarge, match="ceiling is 65536"):
            max_union(6, 24)

    def test_default_point_ceiling_refuses_c_75_3(self):
        with pytest.raises(TooLarge, match="67525 points, ceiling is 65536"):
            max_union(3, 75)

    def test_node_budget_degrades_gracefully(self):
        # the unbudgeted run needs 234 nodes
        rep = max_union(2, 8, max_nodes=50)
        assert not rep.optimal
        assert rep.nodes_explored == 51
        assert brute_find_sunflower_sets(rep.witness) is None
        assert len(set().union(*rep.witness)) == rep.max_union

    def test_deadline_exit_reports_the_engine_counters(self, monkeypatch):
        # the unbudgeted run needs 9,810 nodes; the clock sets the deadline,
        # passes it after the driver's budget check and the engine's first
        # read, and the engine stops one stride in
        reads = iter([0.0, 0.0, 0.0])
        clock = SimpleNamespace(monotonic=lambda: next(reads, float("inf")))
        monkeypatch.setattr(search, "time", clock)
        rep = max_union(2, 20, time_limit=60)
        assert not rep.optimal
        assert rep.nodes_explored > 0
        assert rep.nodes_explored % _TIME_CHECK_STRIDE == 0
        assert brute_find_sunflower_sets(rep.witness) is None

    def test_interrupt_returns_the_incumbent(self, monkeypatch):
        real, count = CompletionKernel.completions, itertools.count(1)

        def completions(self, i, j):
            if next(count) > 40:
                raise KeyboardInterrupt
            return real(self, i, j)

        monkeypatch.setattr(CompletionKernel, "completions", completions)
        rep = max_union(2, 8)
        assert not rep.optimal and rep.nodes_explored > 0
        assert brute_find_sunflower_sets(rep.witness) is None
        assert len(set().union(*rep.witness)) == rep.max_union >= 2

    @pytest.mark.parametrize("budget", [{"max_nodes": -1}, {"time_limit": float("nan")}])
    def test_nonsense_budgets_are_domain_errors(self, budget):
        with pytest.raises(DomainError):
            max_union(2, 6, **budget)
        with pytest.raises(DomainError):
            conjecture_scan([2], [4, 5], **budget)

    def test_expired_deadline_still_returns_a_free_witness(self):
        rep = max_union(2, 11, time_limit=0)
        assert not rep.optimal and rep.nodes_explored == 0
        assert brute_find_sunflower_sets(rep.witness) is None


class TestCoverCount:
    def test_triangle(self):
        fam = parse_set_family("1 2\n2 3\n1 3\n")
        count, members = cover_count(fam)
        assert count == 2
        assert members == (0, 1)

    def test_two_disjoint_triangles(self):
        fam = parse_set_family("1 2\n2 3\n1 3\n4 5\n5 6\n4 6\n")
        count, _ = cover_count(fam)
        assert count == 4

    def test_single_member(self):
        fam = parse_set_family("1 2 3\n")
        assert cover_count(fam) == (1, (0,))

    def test_empty_family(self):
        assert cover_count(SetFamily((), None)) == (0, ())

    def test_matches_exhaustive_oracle(self):
        from randfam import rand_set_family

        from sunflower import SplitMix64

        rng = SplitMix64(808)
        for _ in range(40):
            fam = rand_set_family(rng.spawn(), max_elems=8, max_members=9)
            count, members = cover_count(fam)
            ref_count, _ = brute_cover_count(fam.members)
            assert count == ref_count
            covered = frozenset().union(*(fam.members[i] for i in members))
            assert covered == fam.universe

    def test_member_ceiling(self):
        members = tuple(frozenset({i}) for i in range(31))
        with pytest.raises(TooLarge):
            cover_count(SetFamily(members, None))
        assert cover_count(SetFamily(members[:30], None))[0] == 30

    def test_max_union_reports_no_cover_above_the_ceiling(self, monkeypatch):
        # max_union(2, 6) has 5 members, above a ceiling of 4
        monkeypatch.setattr(conjectures, "COVER_MEMBER_CEILING", 4)
        rep = max_union(2, 6)
        assert (rep.max_union, len(rep.witness)) == (6, 5)
        assert (rep.cover_count, rep.cover_members, rep.cover_pass) == (None, None, None)
        assert rep.to_csv_row() == "2,6,6,5,1.5,,,4,True,7"

    def test_ceiling_is_not_a_parameter(self):
        with pytest.raises(TypeError):
            cover_count(SetFamily((), None), ceiling=40)
        with pytest.raises(TypeError):
            max_union(2, 5, cover_ceiling=40)


class TestConjectureScan:
    def test_grid_is_k_major_and_skips_empty_cells(self):
        reps = conjecture_scan([2, 3], [3, 4])
        assert [(r.k, r.m) for r in reps] == [(2, 3), (2, 4), (3, 3), (3, 4)]

    def test_k_above_m_dropped(self):
        reps = conjecture_scan([3], [2, 3])
        assert [(r.k, r.m) for r in reps] == [(3, 3)]

    def test_threads_do_not_change_results(self):
        a = conjecture_scan([1, 2], [4, 5], threads=1)
        b = conjecture_scan([1, 2], [4, 5], threads=4)
        assert [dump_json(r.to_json_dict()) for r in a] == [
            dump_json(r.to_json_dict()) for r in b
        ]

    def test_domain(self):
        with pytest.raises(DomainError):
            conjecture_scan([0], [4])
        with pytest.raises(DomainError):
            conjecture_scan([1], [0])

    def test_csv_layout(self):
        reps = conjecture_scan([2], [4, 5])
        text = scan_to_csv(reps)
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert (
            CSV_HEADER
            == "k,m,max_union,family_size,implied_d,cover_count,cover_pass,two_k,optimal,nodes"
        )
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "2" and first[1] == "4"
        assert text.endswith("\n")
        assert "\r" not in text

    def test_csv_bytes_are_pinned(self):
        assert scan_to_csv(conjecture_scan([2], range(4, 10))) == (
            "k,m,max_union,family_size,implied_d,cover_count,cover_pass,two_k,optimal,nodes\n"
            "2,4,4,3,1.0,2,True,4,True,4\n"
            "2,5,5,4,1.25,3,True,4,True,5\n"
            "2,6,6,5,1.5,4,True,4,True,7\n"
            "2,7,6,5,1.5,4,True,4,True,43\n"
            "2,8,6,5,1.5,4,True,4,True,89\n"
            "2,9,6,5,1.5,4,True,4,True,159\n"
        )

    def test_csv_writes_none_as_empty(self):
        report = ConjectureReport(
            k=2, m=4, max_union=4, witness=((0, 1), (0, 2), (1, 3)), implied_d=1.0,
            cover_count=None, cover_members=(1, 2), cover_pass=None, optimal=True,
            nodes_explored=4, elapsed=0.0,
        )
        assert report.to_csv_row() == "2,4,4,3,1.0,,,4,True,4"

    def test_node_budget_bounds_the_whole_scan(self):
        # each cell alone may walk the whole budget; the scan shares one.  A
        # budget stop costs one node past what is left, so each non-optimal
        # cell may add one
        reps = conjecture_scan([2, 3], range(8, 16), max_nodes=300)
        assert len(reps) == 16
        stopped = [r for r in reps if not r.optimal]
        assert sum(r.nodes_explored for r in reps) <= 300 + len(stopped)
        assert stopped and reps[0].optimal
        for r in stopped[1:]:  # left with nothing: the seed, point 0
            assert (r.witness, r.nodes_explored) == ((tuple(range(r.k)),), 1)
        unbudgeted = conjecture_scan([2], range(8, 10))
        assert [r.nodes_explored for r in reps[:2]] == [r.nodes_explored for r in unbudgeted]

    def test_deadline_bounds_the_whole_scan(self, monkeypatch):
        # one tick per clock read: the scan sets its deadline at 4.5, and
        # each cell reads the clock before its kernel and, when it runs,
        # again before its engine's first node, so the third cell finds the
        # deadline passed and so does every later one
        ticks = itertools.count()
        monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=ticks.__next__))
        reps = conjecture_scan([2], range(4, 10), time_limit=4.5)
        assert [r.optimal for r in reps] == [True, True, False, False, False, False]
        assert [r.nodes_explored for r in reps] == [4, 5, 0, 0, 0, 0]
        for r in reps[2:]:
            assert (r.witness, r.max_union, r.cover_count) == (((0, 1),), 2, 1)
        assert next(ticks) == 9

    @pytest.mark.parametrize("spent,nodes", [("max_nodes", 1), ("deadline", 0)])
    def test_spent_budget_builds_no_kernel(self, monkeypatch, spent, nodes):
        # every cell reports its seed, point 0, unproved: a node-budget stop
        # counts the node it stops at, a deadline stop none
        built, real = [], CompletionKernel.__init__
        monkeypatch.setattr(
            CompletionKernel, "__init__", lambda self, members: built.append(1) or real(self, members)
        )
        if spent == "max_nodes":
            reps = conjecture_scan([3], range(10, 60), max_nodes=0)
        else:  # the scan sets its deadline at 0.0, and every later read is past it
            reads = iter([0.0])
            clock = SimpleNamespace(monotonic=lambda: next(reads, float("inf")))
            monkeypatch.setattr(search, "time", clock)
            reps = conjecture_scan([3], range(10, 60), time_limit=60)
        assert built == []
        assert [r.to_json_dict() for r in reps] == [
            {
                "k": 3,
                "m": m,
                "max_union": 3,
                "exactness": "exact-int",
                "witness": [[0, 1, 2]],
                "family_size": 1,
                "implied_d": 3 / 9,
                "cover_count": 1,
                "cover_members": [0],
                "cover_pass": True,
                "two_k": 6,
                "optimal": False,
                "nodes_explored": nodes,
            }
            for m in range(10, 60)
        ]

    def test_union_monotone_in_m(self):
        reps = conjecture_scan([2], [4, 5, 6, 7])
        values = [r.max_union for r in reps]
        assert values == sorted(values)


@given(st.integers(1, 3), st.integers(3, 5))
@settings(max_examples=15, deadline=None)
def test_property_union_bounded_by_ground_and_conjecture(k, m):
    if k > m:
        return
    rep = max_union(k, m)
    assert rep.max_union <= m
    # the conjectured inequality at D = implied_d is an identity by definition
    assert rep.implied_d * k * k == pytest.approx(rep.max_union)
