import functools
import itertools
import json
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from oracles import (
    brute_branch_and_bound,
    brute_cnf_satisfiable,
    brute_is_sunflower_sets,
    brute_is_sunflower_vectors,
    brute_max_free,
    brute_max_free_descent,
    brute_orbit_minima,
    brute_set_symmetries,
    brute_sunflower_triples,
    brute_vector_symmetries,
    plain_dimacs,
)

from sunflower import cli
from sunflower import (
    EXACT_INT,
    BoundReport,
    DomainError,
    ModulusVector,
    SetFamily,
    SplitMix64,
    SunflowerError,
    TooLarge,
    UniformInstance,
    VectorFamily,
    VectorInstance,
    as_modulus_vector,
    cnf_satisfiable,
    compare_bounds,
    dump_json,
    export_cnf,
    greedy_lower_bound,
    max_sunflower_free_uniform,
    max_sunflower_free_vectors,
    max_union,
    verify_family,
    verify_family_points,
)
from sunflower import search
from sunflower.detect import CompletionKernel
from sunflower.search import _TIME_CHECK_STRIDE, _Engine


class TestKnownMaxima:
    def test_single_coordinate_is_always_two(self):
        # any 3 distinct values in one coordinate are all-distinct
        for d in (3, 4, 5, 9):
            r = max_sunflower_free_vectors((d,))
            assert r.maximum == 2
            assert r.optimal

    def test_progression_free_counts_in_small_powers_of_three(self):
        assert max_sunflower_free_vectors((3,)).maximum == 2
        assert max_sunflower_free_vectors((3, 3)).maximum == 4
        assert max_sunflower_free_vectors((3, 3, 3)).maximum == 9

    def test_modulus_two_never_has_sunflowers(self):
        # all-distinct needs three values; with D=2 every triple repeats one
        for n in (1, 2, 3):
            r = max_sunflower_free_vectors((2,) * n)
            assert r.maximum == 2**n

    def test_uniform_pairs(self):
        assert max_sunflower_free_uniform(2, 4).maximum == 4
        assert max_sunflower_free_uniform(2, 5).maximum == 5
        assert max_sunflower_free_uniform(2, 6).maximum == 6

    def test_uniform_singletons_cap_at_two(self):
        assert max_sunflower_free_uniform(1, 5).maximum == 2
        assert max_sunflower_free_uniform(1, 2).maximum == 2
        assert max_sunflower_free_uniform(1, 1).maximum == 1

    def test_k_equals_m(self):
        assert max_sunflower_free_uniform(3, 3).maximum == 1

    def test_k_larger_than_m_has_no_points(self):
        r = max_sunflower_free_uniform(3, 2)
        assert r.maximum == 0
        assert r.witness_points == ()


class TestAgainstExhaustiveOracle:
    @pytest.mark.parametrize("moduli", [(3,), (4,), (2, 3), (3, 3), (2, 2, 2), (2, 4)])
    def test_vectors_match_brute_force(self, moduli):
        points = list(itertools.product(*(range(d) for d in moduli)))
        size, idxs = brute_max_free(points, "vectors")
        r = max_sunflower_free_vectors(moduli)
        assert r.maximum == size
        assert r.witness_indices == idxs  # lexicographically smallest maximum

    @pytest.mark.parametrize("km", [(1, 4), (2, 4), (2, 5), (3, 4), (3, 5)])
    def test_uniform_match_brute_force(self, km):
        k, m = km
        points = [frozenset(c) for c in itertools.combinations(range(m), k)]
        size, idxs = brute_max_free(points, "sets")
        r = max_sunflower_free_uniform(k, m)
        assert r.maximum == size
        assert r.witness_indices == idxs


class TestBoundChecks:
    """bound_checks are the unflagged compare_bounds reports of the context, each with ok."""

    @staticmethod
    def unflagged(reports):
        return [{**r.to_json_dict(), "ok": True} for r in reports if not r.flags]

    @pytest.mark.parametrize("moduli", [(3, 3, 3), (3, 3, 4), (4, 4, 4)])
    def test_vectors(self, moduli):
        r = max_sunflower_free_vectors(moduli)
        assert r.optimal
        assert list(r.bound_checks) == self.unflagged(compare_bounds(moduli))

    def test_uniform(self):
        r = max_sunflower_free_uniform(3, 7)
        assert list(r.bound_checks) == self.unflagged(compare_bounds(k=3, M=7))
        assert {c["name"] for c in r.bound_checks} == {
            "erdos-rado-threshold", "main-bound", "ns-subset"
        }

    def test_contexts_compare_bounds_rejects_or_leaves_empty_get_none(self):
        # (2, 3, 3) has one check, binary-slice: 2 * min(9 points, generalized-ns 15)
        assert max_sunflower_free_vectors((2, 3, 3)).bound_checks == (
            {
                "name": "binary-slice",
                "parameters": {"moduli": [2, 3, 3]},
                "value": 18,
                "exactness": EXACT_INT,
                "strictness": "at-most",
                "ok": True,
            },
        )
        assert max_sunflower_free_vectors(()).bound_checks == ()
        r = max_sunflower_free_uniform(3, 2)
        assert r.optimal and r.bound_checks == ()

    @pytest.mark.parametrize("moduli", [(2,), (2, 3), (2, 6), (2, 2, 3), (2, 3, 3), (2, 2, 2)])
    def test_moduli_with_a_two_get_one_binary_slice_check(self, moduli):
        r = max_sunflower_free_vectors(moduli)
        assert r.optimal
        assert [(c["name"], c["ok"]) for c in r.bound_checks] == [("binary-slice", True)]
        assert list(r.bound_checks) == self.unflagged(compare_bounds(moduli))

    def test_degenerate_main_bound_is_left_out(self):
        r = max_sunflower_free_uniform(2, 2)
        assert r.optimal
        assert [c["name"] for c in r.bound_checks] == ["erdos-rado-threshold", "ns-subset"]

    @pytest.mark.parametrize("km", [(1, 1200), (151, 151)])
    def test_values_past_the_double_range(self, km):
        # ns-subset of [1200] and the erdos-rado value at k = 151 exceed the largest double
        r = max_sunflower_free_uniform(*km)
        assert r.optimal and r.bound_checks
        assert all(c["ok"] for c in r.bound_checks)

    def test_a_failing_check_raises(self, monkeypatch):
        low = BoundReport(name="too-low", parameters={}, value=3, exactness=EXACT_INT)
        monkeypatch.setattr("sunflower.bounds.compare_bounds", lambda *a, **kw: [low])
        with pytest.raises(SunflowerError, match="too-low"):
            max_sunflower_free_vectors((3, 3))


class TestFreeSetWalk:
    """The oracle's walk over free index sets against the subset descent."""

    @pytest.mark.parametrize(
        "moduli", [(3,), (2, 3), (2, 2, 2), (3, 3), (2, 2, 3), (3, 4), (2, 6)]
    )
    def test_vectors(self, moduli):
        points = list(itertools.product(*(range(d) for d in moduli)))
        for order in (points, points[::-1]):
            assert brute_max_free(order, "vectors") == brute_max_free_descent(order, "vectors")

    @pytest.mark.parametrize("km", [(1, 4), (2, 4), (2, 5), (3, 4), (3, 5)])
    def test_sets(self, km):
        points = [frozenset(c) for c in itertools.combinations(range(km[1]), km[0])]
        for order in (points, points[::-1]):
            assert brute_max_free(order, "sets") == brute_max_free_descent(order, "sets")


def unanchored_walk(inst, union=False):
    """The engine's walk from the empty root, seeded as the search driver seeds it."""
    kernel = CompletionKernel(inst.features(inst.points()))
    engine = _Engine(kernel, 10**9, None, weights=kernel.rows if union else None)
    engine.seed([0] if union else engine.greedy())
    assert engine.run([], kernel.full)
    return engine


class TestSearchMechanics:
    def test_anchor_does_not_change_the_maximum(self):
        a = max_sunflower_free_vectors((3, 3))
        b = unanchored_walk(VectorInstance(as_modulus_vector((3, 3))))
        assert (a.maximum, list(a.witness_indices)) == (b.best_value, b.best)
        assert a.stats["anchored"]
        with pytest.raises(TypeError):
            max_sunflower_free_vectors((3, 3), anchor=False)

    def test_anchored_witness_contains_the_zero_point(self):
        r = max_sunflower_free_vectors((3, 3, 3))
        assert r.witness_points[0] == (0, 0, 0)

    def test_node_budget_degrades_gracefully(self):
        r = max_sunflower_free_vectors((3, 3, 3), max_nodes=5)
        assert not r.optimal
        assert r.maximum >= r.stats["greedy_size"]
        assert r.nodes_explored <= 5 + 1

    def test_default_point_ceiling_refuses_z2_to_the_17(self):
        # refused before the kernel over 131,072 points is built
        with pytest.raises(TooLarge, match="ceiling is 65536"):
            max_sunflower_free_vectors((2,) * 17)

    def test_engine_depth_is_not_bounded_by_the_recursion_limit(self):
        class NoCompletions(CompletionKernel):  # as in Z2^n, where no triple is a sunflower
            def completions(self, i, j):
                return 0

        points = sys.getrecursionlimit() + 200
        engine = _Engine(NoCompletions([()] * points), max_nodes=points + 300, deadline=None)
        # the include-only path is `points` deep before any budget cut
        assert engine.run([], (1 << points) - 1) is False
        assert engine.nodes == points + 301
        assert engine.best == list(range(points))

    def test_deadline_exit_reports_the_engine_counters(self):
        r = max_sunflower_free_vectors((3, 3, 3, 3), time_limit=0.05)
        assert not r.optimal
        assert r.nodes_explored > 0
        assert r.nodes_explored % _TIME_CHECK_STRIDE == 0
        assert r.maximum >= r.stats["greedy_size"]

    @pytest.mark.parametrize("max_nodes", [0, 1, 4095, 4096, 4097])
    def test_budget_exit_counts_one_node_past_the_budget(self, max_nodes):
        r = max_sunflower_free_vectors((3, 3, 3, 3), max_nodes=max_nodes)
        assert not r.optimal and r.nodes_explored == max_nodes + 1
        assert r.maximum >= r.stats["greedy_size"]
        inst = VectorInstance(as_modulus_vector((3, 3, 3, 3)))
        assert verify_family_points(inst, r.witness_points) == (True, None)

    @pytest.mark.parametrize(
        "reads,max_nodes,nodes",
        [
            (1, 10**9, 0),  # the deadline passes before the first node
            (2, 10**9, _TIME_CHECK_STRIDE),
            (4, 10**9, 3 * _TIME_CHECK_STRIDE),
            (2, _TIME_CHECK_STRIDE, _TIME_CHECK_STRIDE),  # the clock is read first
            (3, _TIME_CHECK_STRIDE, _TIME_CHECK_STRIDE + 1),
            (3, _TIME_CHECK_STRIDE + 5, _TIME_CHECK_STRIDE + 6),
        ],
    )
    def test_fake_clock_deadline_exits_on_a_stride_multiple_before_the_budget(
        self, monkeypatch, reads, max_nodes, nodes
    ):
        inst = VectorInstance(as_modulus_vector((3, 3, 3, 3)))
        kernel = CompletionKernel(inst.features(inst.points()))
        engine = _Engine(kernel, max_nodes, deadline=reads - 1.5)
        engine.seed(_Engine(kernel, max_nodes, None).greedy())
        ticks = itertools.count()  # one tick per clock read; read `reads` passes it
        monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=ticks.__next__))
        assert engine.run_anchored(anchor_starts(inst)) is False
        assert engine.nodes == nodes
        assert next(ticks) == (reads if nodes % _TIME_CHECK_STRIDE == 0 else reads - 1)

    def test_fake_clock_time_limit_stops_the_engine_on_a_stride_multiple(self, monkeypatch):
        ticks = itertools.count()  # greedy reads the clock once per include
        clock = SimpleNamespace(monotonic=ticks.__next__, perf_counter=time.perf_counter)
        monkeypatch.setattr(search, "time", clock)
        r = max_sunflower_free_vectors((3, 3, 3, 3), time_limit=40.5)
        reads_before_engine = r.stats["greedy_size"] + 2  # with the call's start and budget check
        assert not r.optimal
        assert r.nodes_explored == (41 - reads_before_engine) * _TIME_CHECK_STRIDE

    def test_time_limit_covers_greedy(self):
        # unbudgeted, greedy alone takes seconds and picks 1,024 points
        r = max_sunflower_free_vectors((2,) * 9 + (3,), time_limit=0)
        assert not r.optimal and r.nodes_explored == 0
        assert r.stats["greedy_size"] < 1024
        inst = VectorInstance(as_modulus_vector((2,) * 9 + (3,)))
        assert verify_family_points(inst, r.witness_points) == (True, None)

    def test_greedy_past_its_deadline_returns_its_prefix(self, monkeypatch):
        inst = VectorInstance(as_modulus_vector((3, 3, 3)))
        kernel = CompletionKernel(inst.features(inst.points()))
        full = _Engine(kernel, 10**9, None).greedy()
        ticks = itertools.count()  # one tick per clock read
        monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=ticks.__next__))
        assert _Engine(kernel, 10**9, deadline=3.5).greedy() == full[:4]

    def test_greedy_includes_count_against_the_node_budget(self):
        # unbudgeted, greedy alone takes a minute and picks all 4,096 points
        inst = VectorInstance(as_modulus_vector((2,) * 12))
        r = max_sunflower_free_vectors((2,) * 12, max_nodes=0)
        assert not r.optimal and r.stats["greedy_size"] == 0
        assert verify_family_points(inst, r.witness_points) == (True, None)
        r = max_sunflower_free_vectors((2,) * 12, max_nodes=7)
        assert not r.optimal and r.stats["greedy_size"] <= 7
        assert r.maximum >= r.stats["greedy_size"]
        assert verify_family_points(inst, r.witness_points) == (True, None)

    @pytest.mark.parametrize("spent,nodes", [("max_nodes", 1), ("deadline", 0)])
    def test_spent_budget_builds_no_kernel(self, monkeypatch, spent, nodes):
        # the seed, greedy's empty prefix, unproved: a node-budget stop counts
        # the node it stops at, a deadline stop none
        built, real = [], CompletionKernel.__init__
        monkeypatch.setattr(
            CompletionKernel, "__init__", lambda self, members: built.append(1) or real(self, members)
        )
        if spent == "max_nodes":
            r = max_sunflower_free_vectors((3, 3, 3, 3), max_nodes=0)
        else:  # the call sets its deadline at 0.0, and every later read is past it
            reads = iter([0.0])
            clock = SimpleNamespace(monotonic=lambda: next(reads, float("inf")), perf_counter=time.perf_counter)
            monkeypatch.setattr(search, "time", clock)
            r = max_sunflower_free_vectors((3, 3, 3, 3), time_limit=60)
        assert built == []
        assert r.to_json_dict() == {
            "instance": {"kind": "vectors", "moduli": [3, 3, 3, 3]},
            "maximum": 0,
            "exactness": "exact-int",
            "optimal": False,
            "witness_indices": [],
            "witness": [],
            "nodes_explored": nodes,
            "stats": {"anchored": True, "greedy_size": 0, "prunes": 0},
            "bound_checks": [],
        }

    def test_spent_budget_proves_nothing_over_one_point(self):
        # greedy's empty prefix is not a maximum of the one-point instance
        r = max_sunflower_free_uniform(2, 2, max_nodes=0)
        assert (r.maximum, r.nodes_explored, r.optimal) == (0, 1, False)
        assert max_sunflower_free_uniform(2, 2).maximum == 1

    @pytest.mark.parametrize(
        "budget,message",
        [
            ({"max_nodes": -3}, "max_nodes"),
            ({"time_limit": float("nan")}, "time_limit"),
            ({"time_limit": -0.5}, "time_limit"),
        ],
    )
    def test_nonsense_budgets_are_domain_errors(self, budget, message):
        with pytest.raises(DomainError, match=message):
            max_sunflower_free_vectors((3, 3), **budget)
        with pytest.raises(DomainError, match=message):
            max_sunflower_free_uniform(2, 5, **budget)

    def test_greedy_stops_at_max_size(self):
        inst = VectorInstance(as_modulus_vector((3, 3, 3)))
        kernel = CompletionKernel(inst.features(inst.points()))
        assert _Engine(kernel, 5, None).greedy() == _Engine(kernel, 10**9, None).greedy()[:5]

    @staticmethod
    def interrupt_after(monkeypatch, calls):
        real, count = CompletionKernel.completions, itertools.count(1)

        def completions(self, i, j):
            if next(count) > calls:
                raise KeyboardInterrupt
            return real(self, i, j)

        monkeypatch.setattr(CompletionKernel, "completions", completions)

    def test_interrupt_in_greedy_returns_its_prefix(self, monkeypatch):
        full = greedy_lower_bound(VectorInstance(as_modulus_vector((3, 3, 3, 3))))
        self.interrupt_after(monkeypatch, 3)  # greedy's first three points fill 0 + 1 + 2 slots
        r = max_sunflower_free_vectors((3, 3, 3, 3))
        assert not r.optimal and r.nodes_explored == 0 and r.bound_checks == ()
        assert r.witness_indices == tuple(full[:3]) and r.stats["greedy_size"] == 3

    @pytest.mark.parametrize("moduli,calls", [((3, 3, 3, 3), 1000), ((3, 3, 3), 60)])
    def test_interrupt_in_the_engine_returns_the_verified_incumbent(self, monkeypatch, moduli, calls):
        self.interrupt_after(monkeypatch, calls)
        r = max_sunflower_free_vectors(moduli)
        assert not r.optimal and r.nodes_explored > 0 and r.bound_checks == ()
        assert r.maximum == len(r.witness_indices) >= r.stats["greedy_size"]
        inst = VectorInstance(as_modulus_vector(moduli))
        assert verify_family_points(inst, r.witness_points) == (True, None)

    def test_nodes_deterministic_across_thread_settings(self, capsys):
        # search vectors is the one search command that still takes --threads
        outs = []
        for threads in ("1", "8"):
            assert cli.main(["search", "vectors", "--moduli", "3,3,3", "--threads", threads]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["nodes_explored"] == max_sunflower_free_vectors(
            (3, 3, 3)).nodes_explored

    def test_repeat_runs_are_identical(self):
        a = max_sunflower_free_vectors((3, 3, 3))
        b = max_sunflower_free_vectors((3, 3, 3))
        assert dump_json(a.to_json_dict()) == dump_json(b.to_json_dict())

    def test_json_has_no_clock_fields(self):
        r = max_sunflower_free_uniform(2, 4)
        payload = json.loads(dump_json(r.to_json_dict()))
        assert "elapsed" not in payload
        assert payload["exactness"] == "exact-int"

    def test_bound_checks_all_hold(self):
        for r in (
            max_sunflower_free_vectors((3, 3)),
            max_sunflower_free_uniform(2, 5),
        ):
            assert r.bound_checks
            assert all(c["ok"] for c in r.bound_checks)

    def test_greedy_is_free_and_nonempty(self):
        inst = VectorInstance(as_modulus_vector((3, 3)))
        idxs = greedy_lower_bound(inst)
        pts = tuple(inst.points()[i] for i in idxs)
        ok, witness = verify_family_points(inst, pts)
        assert ok and witness is None
        assert len(idxs) >= 1


def anchor_starts(inst):
    """run_anchored's starts, as the search driver builds them."""
    points = inst.points()
    return [(c, inst.canonical_points(points[c])) for c in inst.canonical_points()[1:]]


def cell_id(inst):
    return "-".join(str(v) for v in inst.describe().values())


@functools.lru_cache(maxsize=None)
def orbit_oracle(inst):
    """Orbit minima (indices) under the symmetries fixing point 0, keyed None,
    and under those fixing point 0 and c, keyed c, for each such minimum c > 0."""
    points = inst.points()
    if isinstance(inst, VectorInstance):
        symmetries = brute_vector_symmetries(inst.moduli.moduli)
    else:
        symmetries = brute_set_symmetries(inst.m)
    seconds = brute_orbit_minima(points, symmetries, [points[0]])
    fixing = {c: brute_orbit_minima(points, symmetries, [points[0], points[c]]) for c in seconds[1:]}
    return {None: seconds, **fixing}


ORBIT_CELLS = [
    *(VectorInstance(as_modulus_vector(m)) for m in [(3, 3), (3, 4), (2, 3, 3), (3, 3, 3), (4, 4, 4)]),
    *(UniformInstance(k, m) for k, m in [(2, 6), (3, 6), (3, 7), (4, 7)]),
]


class TestSymmetryAnchor:
    @pytest.mark.parametrize(
        "instance,seconds",
        [
            (VectorInstance(as_modulus_vector((3, 4, 3))), [1, 3, 4, 13, 16]),
            (VectorInstance(as_modulus_vector((3,) * 4)), [1, 4, 13, 40]),
            (VectorInstance(as_modulus_vector((4, 4, 4))), [1, 5, 21]),
            (VectorInstance(as_modulus_vector(())), []),  # one point
            (UniformInstance(3, 7), [1, 9, 31]),
            (UniformInstance(2, 9), [1, 15]),
            (UniformInstance(3, 3), []),  # one point
            (UniformInstance(3, 2), []),  # no point
        ],
    )
    def test_canonical_second_points(self, instance, seconds):
        # the canonical points after point 0; no method returns them alone
        assert instance.canonical_points()[1:] == seconds
        assert not hasattr(instance, "canonical_second_points")

    def test_uniform_canonical_points_are_the_two_block_subsets(self):
        points = UniformInstance(3, 7).points()
        got = [points[i] for i in UniformInstance(3, 7).canonical_points()]
        assert got == [(0, 1, 2), (0, 1, 3), (0, 3, 4), (3, 4, 5)]

    @pytest.mark.parametrize(
        "moduli", [(3, 4, 3), (2, 3, 2), (3, 2, 3), (2, 2, 2, 3), (4, 4), (5, 3)]
    )
    def test_anchor_keeps_the_maximum_and_the_witness(self, moduli):
        a = max_sunflower_free_vectors(moduli)
        b = unanchored_walk(VectorInstance(as_modulus_vector(moduli)))
        assert a.optimal
        assert (a.maximum, list(a.witness_indices)) == (b.best_value, b.best)
        assert a.nodes_explored < b.nodes

    def test_uniform_search_is_anchored_when_it_has_a_point(self):
        assert max_sunflower_free_uniform(2, 5).stats["anchored"] is True
        assert max_sunflower_free_uniform(3, 2).stats["anchored"] is False

    def test_starts_share_one_node_budget(self):
        # the nodes [0, 1], [0, 4], [0, 13] with their starts take 3,165, 1,028 and 47 nodes
        assert max_sunflower_free_vectors((3, 3, 3), max_nodes=4240).optimal
        r = max_sunflower_free_vectors((3, 3, 3), max_nodes=4000)
        assert not r.optimal and r.nodes_explored == 4001

    @pytest.mark.parametrize("inst", ORBIT_CELLS, ids=cell_id)
    def test_canonical_points_are_the_orbit_minima(self, inst):
        oracle = orbit_oracle(inst)
        assert inst.canonical_points() == oracle[None]
        points = inst.points()
        thirds = {c: inst.canonical_points(points[c]) for c in inst.canonical_points()[1:]}
        assert thirds == {c: minima for c, minima in oracle.items() if c is not None}

    @staticmethod
    def unanchored_mismatches(cells, union=False):
        """The cells whose anchored (maximum, witness) differs from the unanchored ones."""
        def anchored(inst):
            _, engine, _, optimal = search._solve(inst, 10**9, None, union=union)
            assert optimal
            return engine.best_value, engine.best

        def unanchored(inst):
            engine = unanchored_walk(inst, union)
            return engine.best_value, engine.best

        return [inst for inst in cells if anchored(inst) != unanchored(inst)]

    # (4, 4, 4) is left out: unanchored, it walks 6.7M nodes
    WITNESS_CELLS = [inst for inst in ORBIT_CELLS if inst.point_count() < 64] + [
        VectorInstance(as_modulus_vector(m)) for m in [(3, 4, 3), (2, 2, 2, 3), (4, 4)]
    ]
    UNION_CELLS = [UniformInstance(k, m) for k in (2, 3) for m in range(k, 10)]

    def test_three_point_anchor_keeps_the_maximum_and_the_witness(self):
        assert self.unanchored_mismatches(self.WITNESS_CELLS) == []
        assert self.unanchored_mismatches(self.UNION_CELLS, union=True) == []

    def test_thirds_under_the_stabilizer_of_point_0_alone_fail_the_witness_test(
        self, monkeypatch
    ):
        # the mutant keeps only thirds that are canonical second points, which
        # test_three_point_anchor_keeps_the_maximum_and_the_witness must catch
        for cls in (VectorInstance, UniformInstance):
            canonical_points = cls.canonical_points
            monkeypatch.setattr(cls, "canonical_points", lambda self, u=None, f=canonical_points: f(self))
        assert self.unanchored_mismatches(self.WITNESS_CELLS)

    @pytest.mark.parametrize(
        "inst",
        [
            *(VectorInstance(as_modulus_vector(m)) for m in [(3, 3), (3, 4), (2, 3, 3), (4, 4)]),
            UniformInstance(2, 6),
            UniformInstance(3, 6),
        ],
        ids=cell_id,
    )
    def test_anchored_search_matches_the_unanchored_oracle_walk(self, inst):
        # the oracle walks every family from the empty root with the
        # definitional triple test only: no kernel, no anchor, no symmetry
        if isinstance(inst, VectorInstance):
            r = max_sunflower_free_vectors(inst.moduli)
            kind, points = "vectors", inst.points()
        else:
            r = max_sunflower_free_uniform(inst.k, inst.m)
            kind, points = "sets", [frozenset(p) for p in inst.points()]
        _, _, best = brute_branch_and_bound(points, kind, [], greedy_lower_bound(inst))
        assert r.optimal
        assert (r.maximum, list(r.witness_indices)) == (len(best), best)

    def test_root_that_cannot_beat_the_seed_is_one_pruned_node(self):
        # greedy takes all of Z2^5, so no start [0, c] can beat it
        r = max_sunflower_free_vectors((2,) * 5)
        assert r.optimal and r.nodes_explored == 1 and r.stats["prunes"] == 1
        assert r.witness_indices == tuple(range(32))

    def test_at_most_one_point_visits_the_root_once(self):
        # one point: its root is pruned, the seed holding it; no point: a bare root
        runs = [
            max_sunflower_free_uniform(1, 1),
            max_sunflower_free_uniform(2, 2),
            max_sunflower_free_vectors(()),
            max_sunflower_free_uniform(3, 2),
        ]
        assert all(r.optimal for r in runs)
        assert [(r.nodes_explored, r.stats["prunes"]) for r in runs] == [(1, 1)] * 3 + [(1, 0)]
        unions = [search._solve(UniformInstance(*km), 10**9, None, union=True) for km in
                  [(1, 1), (2, 2), (3, 2)]]
        assert all(optimal for *_, optimal in unions)
        assert [(e.nodes, e.prunes) for _, e, _, _ in unions] == [(1, 1), (1, 1), (1, 0)]
        assert max_union(1, 1).nodes_explored == 1


class TestPathMemo:
    """The engine's walk, node for node, against a plain recursive one."""

    @staticmethod
    def engine_walk(inst, union, max_nodes=10**9):
        points = inst.points()
        kernel = CompletionKernel(inst.features(points))
        engine = _Engine(kernel, max_nodes, None, weights=kernel.rows if union else None)
        engine.seed([0] if union else greedy_lower_bound(inst))  # greedy outside the budget
        exhausted = engine.run_anchored(anchor_starts(inst))
        return engine.nodes, engine.prunes, engine.best, exhausted

    @staticmethod
    def plain_walk(inst, union, max_nodes=10**9):
        points = inst.points()
        kind = "vectors" if isinstance(inst, VectorInstance) else "sets"
        thirds = orbit_oracle(inst)  # from the oracle, not the package
        if kind == "sets":
            points = [frozenset(p) for p in points]
        best = [0] if union else greedy_lower_bound(inst)
        nodes = prunes = 0
        for c in thirds[None][1:]:  # the starts share one budget
            n, r, best = brute_branch_and_bound(
                points, kind, [0, c], best, union, max_nodes - nodes, thirds[c]
            )
            nodes, prunes = nodes + n, prunes + r
            if nodes > max_nodes:
                break
        return nodes, prunes, best, nodes <= max_nodes

    @pytest.mark.parametrize(
        "inst,union",
        [
            # Z3^3 paths reach depth 9, so some walks start below the window
            (VectorInstance(as_modulus_vector((3, 3, 3))), False),
            (VectorInstance(as_modulus_vector((2, 3, 3))), False),
            (VectorInstance(as_modulus_vector((3, 4))), False),
            (UniformInstance(3, 6), False),
            (UniformInstance(2, 7), True),
            (UniformInstance(3, 5), True),
        ],
    )
    def test_memo_levels_are_cleared_when_their_point_changes(self, inst, union):
        # a memo level left holding the narrowing of an earlier sibling's
        # path would change candidates, and so nodes, prunes or the witness
        assert self.engine_walk(inst, union) == self.plain_walk(inst, union)

    @pytest.mark.parametrize(
        "inst,union,step",
        [
            (VectorInstance(as_modulus_vector((3, 3))), False, 1),
            (VectorInstance(as_modulus_vector((2, 3))), False, 1),
            (UniformInstance(2, 5), False, 1),
            (UniformInstance(2, 7), True, 1),
            (UniformInstance(3, 6), False, 23),
            (VectorInstance(as_modulus_vector((3, 3, 3))), False, 1543),
        ],
    )
    def test_budget_exits_match_the_plain_walk(self, inst, union, step):
        # the engine settles leaf and pruned children at their parent's
        # include; a budget exit must still land on the plain walk's node
        total = self.engine_walk(inst, union)[0]
        for max_nodes in sorted({*range(0, total, step), total - 1, total}):
            engine = self.engine_walk(inst, union, max_nodes)
            assert engine == self.plain_walk(inst, union, max_nodes), max_nodes
            assert engine[3] == (max_nodes == total)


class TestVerify:
    def test_accepts_free_rejects_sunflower(self):
        inst = VectorInstance(as_modulus_vector((3,)))
        ok, witness = verify_family_points(inst, ((0,), (1,)))
        assert ok and witness is None
        ok, witness = verify_family_points(inst, ((0,), (1,), (2,)))
        assert not ok
        assert witness.indices == (0, 1, 2)

    def test_a_rejected_witness_raises_in_every_search(self, monkeypatch):
        def reject(instance, points):
            return False, SimpleNamespace(indices=(0, 1, 2))

        monkeypatch.setattr(search, "verify_family_points", reject)
        with pytest.raises(SunflowerError):
            max_sunflower_free_vectors((3, 3))
        with pytest.raises(SunflowerError):
            max_sunflower_free_uniform(2, 5)
        with pytest.raises(SunflowerError):
            max_union(2, 5)

    def test_all_of_z2_to_the_8_is_free(self):
        inst = VectorInstance(as_modulus_vector((2,) * 8))
        assert verify_family_points(inst, inst.points()) == (True, None)
        # greedy's 256 includes and the one pruned root fit the budget exactly
        r = max_sunflower_free_vectors((2,) * 8, max_nodes=256)
        assert r.maximum == 256 and r.optimal
        assert r.nodes_explored == 1 and r.stats["greedy_size"] == 256
        assert not max_sunflower_free_vectors((2,) * 8, max_nodes=255).optimal

    def test_independent_of_the_completion_kernel(self, monkeypatch):
        def refuse(self, i, j):
            raise AssertionError("verification read the search kernel")

        monkeypatch.setattr(CompletionKernel, "completions", refuse)
        vectors = VectorInstance(as_modulus_vector((3, 3)))
        assert verify_family_points(vectors, ((0, 0), (0, 1), (1, 0), (1, 1))) == (True, None)
        ok, witness = verify_family_points(vectors, ((0, 0), (0, 1), (1, 1), (2, 2)))
        assert not ok and witness.indices == (0, 2, 3)
        uniform = UniformInstance(2, 4)
        assert verify_family_points(uniform, ((0, 1), (1, 2), (0, 2))) == (True, None)
        ok, witness = verify_family_points(uniform, ((0, 1), (0, 2), (1, 2), (0, 3)))
        assert not ok and witness.indices == (0, 1, 3)

    def test_type_mismatch(self):
        inst = UniformInstance(2, 4)
        fam = VectorFamily(ModulusVector((3,)), ((0,),))
        with pytest.raises(DomainError):
            verify_family(inst, fam)

    def test_vector_moduli_mismatch(self):
        inst = VectorInstance(as_modulus_vector((3, 3)))
        fam = VectorFamily(ModulusVector((3,)), ((0,),))
        with pytest.raises(DomainError):
            verify_family(inst, fam)

    def test_vector_family_over_matching_moduli(self):
        inst = VectorInstance(as_modulus_vector((3, 3)))
        free = VectorFamily(ModulusVector((3, 3)), ((0, 0), (0, 1), (1, 0), (1, 1)))
        assert verify_family(inst, free) == (True, None)
        bad = VectorFamily(ModulusVector((3, 3)), ((0, 0), (0, 1), (1, 1), (2, 2)))
        ok, witness = verify_family(inst, bad)
        assert not ok and witness.indices == (0, 2, 3)

    def test_uniform_family_membership(self):
        inst = UniformInstance(2, 4)
        fam = SetFamily((frozenset({0, 1}), frozenset({2, 3})), None)
        ok, _ = verify_family(inst, fam)
        assert ok
        off_ground = SetFamily((frozenset({0, 9}),), None)
        with pytest.raises(DomainError):
            verify_family(inst, off_ground)


class TestCnfExport:
    def test_z3_target_two_golden(self):
        cnf = export_cnf(VectorInstance(as_modulus_vector((3,))), 2)
        text = cnf.to_dimacs()
        lines = text.split("\n")
        assert f"p cnf {cnf.num_vars} {len(cnf.clauses)}" in lines
        assert cnf.num_vars == 9  # 3 point vars + 3*2 counter vars
        # one triple clause: the whole space is a sunflower
        assert lines.count("-1 -2 -3 0") == 1
        assert text.endswith("0\n")
        assert "\r" not in text

    def test_var_map_comments_name_every_point(self):
        cnf = export_cnf(UniformInstance(2, 4), 0)
        text = cnf.to_dimacs()
        for i in range(1, 7):
            assert f"c var {i} = " in text

    def test_size_zero_emits_no_counter(self):
        cnf = export_cnf(VectorInstance(as_modulus_vector((3,))), 0)
        assert cnf.num_vars == 3
        assert cnf_satisfiable(cnf)  # empty selection works

    def test_triple_clauses_deduplicated(self):
        cnf = export_cnf(VectorInstance(as_modulus_vector((3, 3))), 0)
        negatives = [tuple(sorted(c)) for c in cnf.clauses if all(l < 0 for l in c)]
        assert len(negatives) == len(set(negatives))

    def test_no_points_with_positive_target_is_unsat(self):
        cnf = export_cnf(UniformInstance(3, 2), 1)
        assert not cnf_satisfiable(cnf)

    @pytest.mark.parametrize("size", [10, 20000, 10**9])
    def test_target_above_the_point_count_is_the_empty_clause(self, size):
        # no counter: the formula does not grow with the target
        inst = VectorInstance(as_modulus_vector((3, 3)))
        cnf = export_cnf(inst, size)
        triples = export_cnf(inst, 0).clauses[:-1]  # size 0 anchors with x1 alone
        assert cnf.num_vars == 9
        assert cnf.clauses == triples + ((), (1,), (2, 5))
        assert f"c target size: at least {size}" in cnf.to_dimacs()
        assert not cnf_satisfiable(cnf)
        assert export_cnf(inst, 9).num_vars == 9 + 9 * 9  # at the point count, a counter

    def test_negative_size_rejected(self):
        with pytest.raises(DomainError):
            export_cnf(UniformInstance(2, 4), -1)

    def test_point_ceiling(self):
        with pytest.raises(TooLarge):
            export_cnf(VectorInstance(as_modulus_vector((9, 9, 9, 9))), 2)

    @pytest.mark.parametrize("moduli, size", [((2, 3, 3), 6), ((2, 2, 3), 5)],
                             ids=["2-3-3", "2-2-3"])
    def test_split_kernels_export_the_brute_force_triples(self, moduli, size):
        # each column of modulus 2 splits the kernel's keys into classes
        inst = VectorInstance(as_modulus_vector(moduli))
        pts = inst.points()
        assert len(set(CompletionKernel(inst.features(pts)).keys())) > 1
        triples = brute_sunflower_triples(pts, vectors=True)
        cnf = export_cnf(inst, size)
        assert cnf.clauses[: len(triples)] == tuple((-i - 1, -j - 1, -l - 1) for i, j, l in triples)
        assert f"sunflower triple clauses: {len(triples)}" in cnf.comments
        assert cnf.to_dimacs() == plain_dimacs(cnf.num_vars, cnf.clauses, cnf.comments)

    def test_counter_encodes_at_least_s(self):
        # No triple constraints bind in Z_2^2 (no sunflowers), so
        # satisfiability is exactly (s <= point count).
        inst = VectorInstance(as_modulus_vector((2, 2)))
        for s in range(0, 6):
            assert cnf_satisfiable(export_cnf(inst, s)) == (s <= 4)

    def test_matches_search_maximum(self):
        inst = UniformInstance(2, 5)
        best = max_sunflower_free_uniform(2, 5).maximum
        for s in range(1, best + 3):
            assert cnf_satisfiable(export_cnf(inst, s)) == (s <= best)

    @pytest.mark.parametrize(
        "kind,params",
        [
            *(("vectors", m) for m in [(3, 3), (2, 3), (3, 4), (2, 2, 3)]),
            *(("sets", km) for km in [(2, 5), (3, 6), (3, 2)]),  # (3, 2): no points
        ],
    )
    def test_anchored_export_is_satisfiable_up_to_the_brute_maximum(self, kind, params):
        if kind == "vectors":
            inst = VectorInstance(as_modulus_vector(params))
            points = list(itertools.product(*(range(d) for d in params)))
        else:
            inst = UniformInstance(*params)
            points = [frozenset(c) for c in itertools.combinations(range(params[1]), params[0])]
        maximum, _ = brute_max_free(points, kind)
        for size in range(maximum + 2):
            assert cnf_satisfiable(export_cnf(inst, size)) == (size <= maximum), size

    @pytest.mark.parametrize("inst", [c for c in ORBIT_CELLS if c.point_count() < 64], ids=cell_id)
    def test_anchor_admits_exactly_the_canonical_second_and_third_points(self, inst):
        # against the orbit oracle: [0, e] forced as the first two chosen
        # points is satisfiable at size 2 iff e is an orbit minimum fixing 0,
        # and [0, c, e] as the first three at size 3 iff e is one fixing 0 and
        # c, and {0, c, e} is free
        oracle, points = orbit_oracle(inst), inst.points()
        vectors = isinstance(inst, VectorInstance)

        def first_chosen(cnf, prefix):  # units: the prefix in, every other point below its last out
            units = tuple((i + 1,) if i in prefix else (-(i + 1),) for i in range(prefix[-1] + 1))
            return cnf_satisfiable(search.CnfInstance(cnf.num_vars, cnf.clauses + units, ()))

        at_two, at_three = export_cnf(inst, 2), export_cnf(inst, 3)
        for e in range(1, len(points)):
            assert first_chosen(at_two, [0, e]) == (e in oracle[None]), e
        for c in oracle[None][1:]:
            for e in range(c + 1, len(points)):
                triple = (points[0], points[c], points[e])
                free = not (
                    brute_is_sunflower_vectors(*triple) if vectors else brute_is_sunflower_sets(triple)
                )
                assert first_chosen(at_three, [0, c, e]) == (e in oracle[c] and free), (c, e)

    @pytest.mark.parametrize(
        "inst",
        [
            *(VectorInstance(as_modulus_vector(m)) for m in [(3, 3), (3, 4), (2, 3, 3)]),
            *(UniformInstance(k, m) for k, m in [(2, 6), (3, 6)]),
        ],
        ids=cell_id,
    )
    def test_anchor_clauses_follow_the_counter(self, inst):
        # x1, the clause over the canonical seconds, then one clause per point
        # barred as a second or, given a second, as a third; each added clause
        # holds a positive counter literal, so none reads as a sunflower triple
        oracle, count = orbit_oracle(inst), inst.point_count()
        seconds = tuple(c + 1 for c in oracle[None][1:])
        barred_seconds = sum(e not in oracle[None] for e in range(2, count))
        barred_thirds = sum(e not in oracle[c] for c in oracle[None][1:] for e in range(c + 1, count))
        barred = barred_seconds + barred_thirds
        triples = len(export_cnf(inst, 0).clauses) - 1
        for size, n in [(0, 1), (1, 1), (2, 2 + barred_seconds), (3, 2 + barred), (5, 2 + barred)]:
            cnf = export_cnf(inst, size)
            anchor = cnf.clauses[-n:]
            assert anchor[:2] == ((1,), seconds)[:n]
            assert all(len(cl) in (2, 4) and max(cl) > count for cl in anchor[2:])
            assert cnf.comments[3:5] == (
                f"sunflower triple clauses: {triples}",
                f"symmetry anchor clauses: {n}",
            )

    def test_no_points_no_anchor(self):
        cnf = export_cnf(UniformInstance(3, 2), 2)
        assert cnf.clauses == ((),)
        assert "symmetry anchor clauses: 0" in cnf.comments


class TestDpll:
    def test_trivial_formulas(self):
        from sunflower.search import CnfInstance

        assert cnf_satisfiable(CnfInstance(0, (), ()))
        assert not cnf_satisfiable(CnfInstance(1, ((),), ()))
        assert cnf_satisfiable(CnfInstance(2, ((1,), (-2,)), ()))
        assert not cnf_satisfiable(CnfInstance(1, ((1,), (-1,)), ()))

    @pytest.mark.parametrize("cnf", [(-1, (), ()), (-3, ((),), ()), (-1, ((1,),), ())],
                             ids=["no-clause", "empty-clause", "literal-clause"])
    def test_negative_variable_count_is_refused(self, cnf):
        from sunflower.search import CnfInstance

        with pytest.raises(DomainError, match="num_vars must be at least 0"):
            cnf_satisfiable(CnfInstance(*cnf))

    def test_unit_chain_propagation(self):
        from sunflower.search import CnfInstance

        # 1 -> 2 -> 3, with unit 1 and clause requiring -3: unsat
        clauses = ((1,), (-1, 2), (-2, 3), (-3,))
        assert not cnf_satisfiable(CnfInstance(3, clauses, ()))

    def test_flipped_decision_retracts_its_implications(self):
        from sunflower.search import CnfInstance

        # 1 implies 2; under 1 both values of the decision on 3 fail, and
        # 1 = false needs 2 = false, so the implied 2 must be undone too
        clauses = (
            (-1, 2),
            (-1, -3, 4),
            (-1, -3, -4),
            (-1, 3, 4),
            (-1, 3, -4),
            (1, -2),
        )
        assert cnf_satisfiable(CnfInstance(4, clauses, ()))
        assert brute_cnf_satisfiable(4, clauses)

    def test_var_cap(self):
        from sunflower.search import CnfInstance

        with pytest.raises(TooLarge):
            cnf_satisfiable(CnfInstance(4001, ((1,),), ()))

    @pytest.mark.parametrize("clauses", [((3,),), ((-1, 2, -3),), ((0, 1),)])
    def test_literal_outside_the_variables_rejected(self, clauses):
        # slot 3 of a list indexed by literal over 2 variables is literal -2
        from sunflower.search import CnfInstance

        with pytest.raises(DomainError):
            cnf_satisfiable(CnfInstance(2, clauses, ()))

    def test_literals_are_checked_before_an_empty_clause_answers(self):
        from sunflower.search import CnfInstance

        for clauses in [((), (5,)), ((5,),)]:
            with pytest.raises(DomainError, match="no variable in 1..2"):
                cnf_satisfiable(CnfInstance(2, clauses, ()))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_property_matches_assignment_scan(self, data):
        from sunflower.search import CnfInstance

        num_vars = data.draw(st.integers(1, 8))
        lit = st.integers(1, num_vars).flatmap(
            lambda v: st.sampled_from((v, -v))
        )
        clauses = data.draw(
            st.lists(
                st.lists(lit, min_size=1, max_size=3).map(tuple),
                min_size=0,
                max_size=12,
            ).map(tuple)
        )
        mine = cnf_satisfiable(CnfInstance(num_vars, clauses, ()))
        ref = brute_cnf_satisfiable(num_vars, clauses)
        assert mine == ref

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_property_long_clauses_match_assignment_scan(self, data):
        # clauses of up to 6 literals become chains of 3-clauses; repeated
        # and complementary literals are allowed
        from sunflower.search import CnfInstance

        num_vars = data.draw(st.integers(1, 10))
        lit = st.integers(1, num_vars).flatmap(lambda v: st.sampled_from((v, -v)))
        clauses = data.draw(
            st.lists(
                st.lists(lit, min_size=1, max_size=6).map(tuple), max_size=24
            ).map(tuple)
        )
        mine = cnf_satisfiable(CnfInstance(num_vars, clauses, ()))
        assert mine == brute_cnf_satisfiable(num_vars, clauses)

    def test_long_clause_moves_its_watch_past_false_literals(self):
        from sunflower.search import CnfInstance

        # (v, 7) and (v, -7) force each of 1..6 true, so the long clause
        # refutes the formula.  Deciding 1..5 true falsifies it one literal
        # at a time, along its chain, before it propagates -6.  A chain that
        # lost a link would let the search reach a model.
        long_clause = ((-1, -2, -3, -4, -5, -6),)
        forcing = tuple(c for v in range(1, 7) for c in ((v, 7), (v, -7)))
        assert not brute_cnf_satisfiable(7, long_clause + forcing)
        assert not cnf_satisfiable(CnfInstance(7, long_clause + forcing, ()))
        # without the pair forcing 6, 6 = false completes a model
        assert cnf_satisfiable(CnfInstance(7, long_clause + forcing[:-2], ()))

    def test_solving_twice_leaves_the_instance_unchanged(self):
        from sunflower.search import CnfInstance

        for cnf, sat in (
            (export_cnf(VectorInstance(as_modulus_vector((3, 3))), 5), False),
            (export_cnf(VectorInstance(as_modulus_vector((3, 3))), 4), True),
            (CnfInstance(4, ((1, 2, 1), (-1, 3, -3), (-2, -1), (2, 4, -1)), ()), True),
        ):
            clauses, text = cnf.clauses, cnf.to_dimacs()
            assert cnf_satisfiable(cnf) is sat and cnf_satisfiable(cnf) is sat
            assert cnf.clauses == clauses and cnf.to_dimacs() == text

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_property_chained_clauses_match_assignment_scan(self, data):
        # clauses of 4-9 literals become chains of 3-clauses; the short
        # clauses beside them make a share of the formulas unsatisfiable
        from sunflower.search import CnfInstance

        num_vars = data.draw(st.integers(1, 12))
        lit = st.integers(1, num_vars).flatmap(lambda v: st.sampled_from((v, -v)))
        long = data.draw(st.lists(st.lists(lit, min_size=4, max_size=9).map(tuple),
                                  min_size=1, max_size=8))
        short = data.draw(st.lists(st.lists(lit, min_size=1, max_size=2).map(tuple),
                                   max_size=14))
        clauses = tuple(data.draw(st.permutations(long + short)))
        mine = cnf_satisfiable(CnfInstance(num_vars, clauses, ()))
        assert mine == brute_cnf_satisfiable(num_vars, clauses)

    @pytest.mark.parametrize("position", range(9))
    @pytest.mark.parametrize("order", ["ascending", "descending"])
    def test_nine_literal_clause_forces_each_position(self, position, order):
        # units falsify every literal of (1 ... 9) but one, from either end of
        # the chain, so the chain must force that one; 10 and -10 then refute it
        from sunflower.search import CnfInstance

        others = [v for v in range(1, 10) if v != position + 1]
        if order == "descending":
            others.reverse()
        units = tuple((-v,) for v in others)
        base = (tuple(range(1, 10)),) + units
        refute = ((-(position + 1), 10), (-(position + 1), -10))
        assert cnf_satisfiable(CnfInstance(10, base, ()))
        assert not cnf_satisfiable(CnfInstance(10, base + refute, ()))
        assert not brute_cnf_satisfiable(10, base + refute)

    def test_chain_variables_do_not_count_against_the_cap(self, monkeypatch):
        from sunflower.search import CnfInstance

        cnf = CnfInstance(10, (tuple(range(-1, -11, -1)),), ())
        assert cnf_satisfiable(CnfInstance(4000, (tuple(range(3991, 4001)),), ()))
        with pytest.raises(TooLarge, match="capped at 4000 variables"):
            cnf_satisfiable(CnfInstance(4001, (tuple(range(3992, 4002)),), ()))
        with pytest.raises(TypeError):
            cnf_satisfiable(cnf, max_vars=10)  # the cap is CNF_VAR_CEILING alone
        monkeypatch.setattr(search, "CNF_VAR_CEILING", 10)
        assert cnf_satisfiable(cnf)
        monkeypatch.setattr(search, "CNF_VAR_CEILING", 9)
        with pytest.raises(TooLarge):
            cnf_satisfiable(cnf)

    @pytest.mark.parametrize(
        "instance",
        [
            VectorInstance(as_modulus_vector((3, 3, 3))),
            UniformInstance(3, 6),
            UniformInstance(2, 6),
        ],
        ids=["Z3^3", "uniform-3-6", "uniform-2-6"],
    )
    def test_satisfiable_exactly_up_to_the_searched_maximum(self, instance):
        if isinstance(instance, VectorInstance):
            best = max_sunflower_free_vectors(instance.moduli).maximum
        else:
            best = max_sunflower_free_uniform(instance.k, instance.m).maximum
        assert cnf_satisfiable(export_cnf(instance, best))
        assert not cnf_satisfiable(export_cnf(instance, best + 1))

    @pytest.mark.parametrize(
        "cnf, text",
        [
            ((2, (), ("a",)), "c a\np cnf 2 0\n"),
            ((1, ((), (1, -1)), ()), "p cnf 1 2\n 0\n1 -1 0\n"),
            ((3, ((1, -2, 3), (2,)), ("a", "b")), "c a\nc b\np cnf 3 2\n1 -2 3 0\n2 0\n"),
        ],
        ids=["no-clauses", "empty-clause", "comments"],
    )
    def test_dimacs_bytes(self, cnf, text):
        from sunflower.search import CnfInstance

        assert CnfInstance(*cnf).to_dimacs() == text

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_property_dimacs_matches_a_per_clause_formatter(self, data):
        # runs of equal-length clauses are formatted together; empty, unit and
        # long clauses, in any order
        lit = st.integers(1, 40).flatmap(lambda v: st.sampled_from((v, -v)))
        clauses = tuple(data.draw(st.lists(st.lists(lit, max_size=6).map(tuple), max_size=30)))
        comments = tuple(data.draw(st.lists(st.sampled_from(["a", "var 1 = 0,1", ""]), max_size=3)))
        cnf = search.CnfInstance(40, clauses, comments)
        assert cnf.to_dimacs() == plain_dimacs(40, clauses, comments)

    def test_exported_dimacs_matches_a_per_clause_formatter(self):
        runs = ((), (), (7,), (1, -2, 3), (4, 5, -6), (), tuple(range(-1, -15, -1)), (2,), (3,))
        for cnf in (
            search.CnfInstance(15, runs, ("a",)),
            export_cnf(VectorInstance(as_modulus_vector((3, 3, 3))), 10),
            export_cnf(UniformInstance(3, 6), 11),
            export_cnf(VectorInstance(as_modulus_vector((3, 3))), 20),  # above the point count
        ):
            assert cnf.to_dimacs() == plain_dimacs(cnf.num_vars, cnf.clauses, cnf.comments)


class TestInstances:
    def test_vector_points_in_lex_order(self):
        inst = VectorInstance(as_modulus_vector((2, 3)))
        assert inst.points() == list(itertools.product(range(2), range(3)))

    def test_uniform_points_in_lex_order(self):
        inst = UniformInstance(2, 4)
        assert inst.points() == list(itertools.combinations(range(4), 2))

    def test_uniform_domain(self):
        with pytest.raises(DomainError):
            UniformInstance(0, 4)
        with pytest.raises(DomainError):
            UniformInstance(2, 0)

    def test_describe(self):
        assert VectorInstance(as_modulus_vector((3, 4))).describe() == {
            "kind": "vectors",
            "moduli": [3, 4],
        }
        assert UniformInstance(2, 6).describe() == {"kind": "uniform", "k": 2, "m": 6}


class TestPairMasks:
    """Every pair's completion mask, pinned to a definitional brute force."""

    @staticmethod
    def assert_masks_match(inst, is_sunflower, mask=None):
        pts = inst.points()
        mask = mask or CompletionKernel(inst.features(pts)).completions
        for i, j in itertools.combinations(range(len(pts)), 2):
            expected = sum(
                1 << l
                for l in range(len(pts))
                if l not in (i, j) and is_sunflower(pts[i], pts[j], pts[l])
            )
            assert mask(i, j) == expected, (pts[i], pts[j])

    @pytest.mark.parametrize("moduli", [(3, 3, 3), (2, 2, 3)])
    def test_masks_after_greedy_and_search_fills(self, moduli):
        # greedy and the engine fill table slots first; narrow must read them back
        inst = VectorInstance(as_modulus_vector(moduli))
        kernel = CompletionKernel(inst.features(inst.points()))
        engine = _Engine(kernel, 200, None)
        engine.seed(engine.greedy())
        engine.run([], kernel.full)
        self.assert_masks_match(
            inst, brute_is_sunflower_vectors, lambda i, j: ~engine.narrow(-1, (i,), j)
        )

    @pytest.mark.parametrize("moduli", [(2, 3), (3, 4), (2, 2, 3), (3, 3, 3)])
    def test_vector_instances(self, moduli):
        inst = VectorInstance(as_modulus_vector(moduli))
        self.assert_masks_match(inst, brute_is_sunflower_vectors)

    @pytest.mark.parametrize("k,m", [(2, 5), (3, 6)])
    def test_uniform_instances(self, k, m):
        self.assert_masks_match(
            UniformInstance(k, m), lambda a, b, c: brute_is_sunflower_sets((a, b, c))
        )

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_property_narrow_equals_a_naive_and_over_every_chosen_point(self, data):
        # Z2 coordinates split the kernel keys, so narrow skips chosen points
        if data.draw(st.booleans(), label="vectors"):
            moduli = data.draw(st.lists(st.integers(2, 4), min_size=1, max_size=3), label="moduli")
            inst = VectorInstance(as_modulus_vector(moduli))
            is_sunflower = brute_is_sunflower_vectors
        else:
            inst = UniformInstance(data.draw(st.integers(1, 3)), data.draw(st.integers(3, 6)))

            def is_sunflower(a, b, c):
                return brute_is_sunflower_sets((a, b, c))
        pts = inst.points()
        engine = _Engine(CompletionKernel(inst.features(pts)), 10**9, None)
        for _ in range(3):  # later calls also read slots the earlier ones filled
            p = data.draw(st.integers(0, len(pts) - 1), label="p")
            below = st.lists(st.integers(0, p - 1), unique=True) if p else st.just([])
            chosen = data.draw(below, label="chosen")
            cands = data.draw(st.integers(0, (1 << len(pts)) - 1), label="cands")
            expected = cands
            for a in chosen:
                for l, z in enumerate(pts):
                    if l not in (a, p) and is_sunflower(pts[a], pts[p], z):
                        expected &= ~(1 << l)
            assert engine.narrow(cands, chosen, p) == expected

    @pytest.mark.parametrize(
        "moduli,count", [((2,) * 6 + (3,), 64), ((2,) * 7, 0), ((3, 3, 3), 28)]
    )
    def test_greedy_computes_completions_only_within_one_key(self, monkeypatch, moduli, count):
        # Z2^6 x Z3: each key is a class of three points, a sunflower, so greedy
        # keeps two of each and computes one completion per class; Z2^7: none.
        # Z3^3 has one key: all C(8, 2) pairs of greedy's 8 points.
        pairs = []
        real = CompletionKernel.completions

        def completions(kernel, i, j):
            keys = kernel.keys()
            pairs.append((keys[i], keys[j]))
            return real(kernel, i, j)

        monkeypatch.setattr(CompletionKernel, "completions", completions)
        greedy_lower_bound(VectorInstance(as_modulus_vector(moduli)))
        assert all(a == b for a, b in pairs)
        assert len(pairs) == count


@given(st.lists(st.integers(2, 4), min_size=1, max_size=3))
@settings(max_examples=25, deadline=None)
def test_property_small_vector_instances_match_oracle(moduli):
    moduli = tuple(moduli)
    points = list(itertools.product(*(range(d) for d in moduli)))
    if len(points) > 20:
        return
    size, idxs = brute_max_free(points, "vectors")
    r = max_sunflower_free_vectors(moduli)
    assert r.maximum == size
    assert r.witness_indices == idxs
