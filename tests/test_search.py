import itertools
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from oracles import (
    brute_cnf_satisfiable,
    brute_is_sunflower_sets,
    brute_is_sunflower_vectors,
    brute_max_free,
)

from sunflower import (
    DomainError,
    ModulusVector,
    SetFamily,
    SplitMix64,
    TooLarge,
    UniformInstance,
    VectorFamily,
    VectorInstance,
    as_modulus_vector,
    cnf_satisfiable,
    dump_json,
    export_cnf,
    greedy_lower_bound,
    max_sunflower_free_uniform,
    max_sunflower_free_vectors,
    verify_family,
    verify_family_points,
)
from sunflower import search
from sunflower.detect import CompletionKernel
from sunflower.search import _TIME_CHECK_STRIDE, _Engine, _greedy


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


class TestSearchMechanics:
    def test_anchor_does_not_change_the_maximum(self):
        a = max_sunflower_free_vectors((3, 3), anchor=True)
        b = max_sunflower_free_vectors((3, 3), anchor=False)
        assert a.maximum == b.maximum
        assert a.witness_points == b.witness_points
        assert a.stats["anchored"] and not b.stats["anchored"]

    def test_anchored_witness_contains_the_zero_point(self):
        r = max_sunflower_free_vectors((3, 3, 3))
        assert r.witness_points[0] == (0, 0, 0)

    def test_node_budget_degrades_gracefully(self):
        r = max_sunflower_free_vectors((3, 3, 3), max_nodes=5)
        assert not r.optimal
        assert r.maximum >= r.stats["greedy_size"]
        assert r.nodes_explored <= 5 + 1

    def test_point_ceiling(self):
        with pytest.raises(TooLarge):
            max_sunflower_free_vectors((4, 4, 4, 4, 4), point_ceiling=1000)

    def test_engine_depth_is_not_bounded_by_the_recursion_limit(self):
        class NoCompletions:  # as in Z2^n, where no triple is a sunflower
            def narrow(self, cands, chosen, p):
                return cands

        points = sys.getrecursionlimit() + 200
        engine = _Engine(NoCompletions(), max_nodes=points + 300, deadline=None)
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
        full = _greedy(kernel)
        ticks = itertools.count()  # one tick per clock read
        monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=ticks.__next__))
        assert _greedy(kernel, deadline=3.5) == full[:4]

    def test_nodes_deterministic_across_thread_settings(self):
        a = max_sunflower_free_uniform(2, 6, threads=1)
        b = max_sunflower_free_uniform(2, 6, threads=8)
        assert dump_json(a.to_json_dict()) == dump_json(b.to_json_dict())

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


class TestVerify:
    def test_accepts_free_rejects_sunflower(self):
        inst = VectorInstance(as_modulus_vector((3,)))
        ok, witness = verify_family_points(inst, ((0,), (1,)))
        assert ok and witness is None
        ok, witness = verify_family_points(inst, ((0,), (1,), (2,)))
        assert not ok
        assert witness.indices == (0, 1, 2)

    def test_all_of_z2_to_the_8_is_free(self):
        inst = VectorInstance(as_modulus_vector((2,) * 8))
        assert verify_family_points(inst, inst.points()) == (True, None)
        r = max_sunflower_free_vectors((2,) * 8, time_limit=1)
        assert r.maximum == 256 and r.optimal

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

    def test_negative_size_rejected(self):
        with pytest.raises(DomainError):
            export_cnf(UniformInstance(2, 4), -1)

    def test_point_ceiling(self):
        with pytest.raises(TooLarge):
            export_cnf(VectorInstance(as_modulus_vector((9, 9, 9, 9))), 2)

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


class TestDpll:
    def test_trivial_formulas(self):
        from sunflower.search import CnfInstance

        assert cnf_satisfiable(CnfInstance(0, (), ()))
        assert not cnf_satisfiable(CnfInstance(1, ((),), ()))
        assert cnf_satisfiable(CnfInstance(2, ((1,), (-2,)), ()))
        assert not cnf_satisfiable(CnfInstance(1, ((1,), (-1,)), ()))

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
    def assert_masks_match(inst, is_sunflower, kernel=None):
        pts = inst.points()
        kernel = kernel or CompletionKernel(inst.features(pts))
        for i, j in itertools.combinations(range(len(pts)), 2):
            expected = sum(
                1 << l
                for l in range(len(pts))
                if l not in (i, j) and is_sunflower(pts[i], pts[j], pts[l])
            )
            assert ~kernel.narrow(-1, (i,), j) == expected, (pts[i], pts[j])

    @pytest.mark.parametrize("moduli", [(3, 3, 3), (2, 2, 3)])
    def test_masks_after_greedy_and_search_fills(self, moduli):
        # greedy and the engine fill table slots first; narrow must read them back
        inst = VectorInstance(as_modulus_vector(moduli))
        kernel = CompletionKernel(inst.features(inst.points()))
        chosen = _greedy(kernel)
        engine = _Engine(kernel, 200, None)
        engine.seed(chosen)
        engine.run([], kernel.full)
        self.assert_masks_match(inst, brute_is_sunflower_vectors, kernel)

    @pytest.mark.parametrize("moduli", [(2, 3), (3, 4), (2, 2, 3), (3, 3, 3)])
    def test_vector_instances(self, moduli):
        inst = VectorInstance(as_modulus_vector(moduli))
        self.assert_masks_match(inst, brute_is_sunflower_vectors)

    @pytest.mark.parametrize("k,m", [(2, 5), (3, 6)])
    def test_uniform_instances(self, k, m):
        self.assert_masks_match(
            UniformInstance(k, m), lambda a, b, c: brute_is_sunflower_sets((a, b, c))
        )


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
