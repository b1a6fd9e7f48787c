import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from oracles import (
    brute_is_sunflower_sets,
    brute_is_sunflower_vectors,
    brute_transversal_expectation,
)
from randfam import rand_free_uniform_family, rand_partite

from sunflower import (
    DomainError,
    InputHasSunflower,
    ModulusVector,
    NotPartite,
    OutOfRange,
    PartiteStructure,
    SetFamily,
    SplitMix64,
    VectorFamily,
    crt_map,
    dump_json,
    ek_guarantee,
    ek_partition,
    embed_vectors_as_sets,
    extract_gl,
    find_sunflower_sets_fast,
    find_sunflower_vectors,
    parse_set_family,
    parse_vector_family,
    pipeline,
    psi_inverse,
    psi_map,
    strip_common_elements,
)


class TestEmbedVectorsAsSets:
    def test_ids_are_coordinate_major(self):
        f = parse_vector_family("0,0\n2,1\n", (3, 3))
        emb = embed_vectors_as_sets(f)
        # element id = coordinate index * modulus + value: (v, i) -> i*D + v
        assert emb.members == (frozenset({0, 3}), frozenset({2, 4}))

    def test_labels_are_one_based_pairs(self):
        f = parse_vector_family("1,2\n", (3, 3))
        emb = embed_vectors_as_sets(f)
        assert emb.member_labels(emb.members[0]) == ["(2,1)", "(3,2)"]

    def test_sunflower_equivalence_exhaustive_z3sq(self):
        mv = ModulusVector((3, 3))
        points = list(itertools.product(range(3), repeat=2))
        for triple in itertools.combinations(points, 3):
            fam = VectorFamily(mv, triple)
            emb = embed_vectors_as_sets(fam)
            assert brute_is_sunflower_vectors(*triple) == brute_is_sunflower_sets(
                emb.members
            )

    def test_uniformity_equals_arity(self):
        f = parse_vector_family("0,1,2\n2,1,0\n", (3, 3, 3))
        assert embed_vectors_as_sets(f).uniformity == 3


class TestCrtMap:
    def test_worked_example(self):
        f = parse_vector_family("7,11\n", (15, 15))
        g = crt_map(f)
        assert g.moduli == ModulusVector((3, 5, 3, 5))
        assert g.members == ((1, 2, 2, 1),)

    def test_identity_on_prime_power_modulus(self):
        f = parse_vector_family("3\n7\n", (9,))
        g = crt_map(f)
        assert g.moduli == ModulusVector((9,))
        assert g.members == f.members

    def test_requires_uniform_moduli(self):
        f = VectorFamily(ModulusVector((6, 15)), ((0, 0),))
        with pytest.raises(DomainError):
            crt_map(f)

    def test_requires_positive_arity(self):
        f = VectorFamily(ModulusVector(()), ((),))
        with pytest.raises(DomainError):
            crt_map(f)

    def test_preserves_freeness_small_exhaustive(self):
        # Freeness transfers forward only: an image sunflower pulls back to a
        # sunflower (all-equal components mean equality mod 15; one
        # all-distinct component forces pairwise-distinct values), so a free
        # family has a free image.  Checked for every size-3 family over Z_15.
        for triple in itertools.combinations(range(15), 3):
            f = VectorFamily(ModulusVector((15,)), tuple((v,) for v in triple))
            if find_sunflower_vectors(f) is None:
                assert find_sunflower_vectors(crt_map(f)) is None

    def test_the_converse_fails(self):
        # {0, 1, 3} is all-distinct in Z_15 (a sunflower), but its image has
        # first residues 0, 1, 0 mod 3, which is neither all-equal nor
        # all-distinct.
        f = VectorFamily(ModulusVector((15,)), ((0,), (1,), (3,)))
        assert find_sunflower_vectors(f) is not None
        assert find_sunflower_vectors(crt_map(f)) is None

    def test_injective_on_points(self):
        f = VectorFamily(ModulusVector((15,)), tuple((v,) for v in range(15)))
        g = crt_map(f)
        assert len(set(g.members)) == 15


class TestEkPartition:
    def test_guarantee_fraction(self):
        assert ek_guarantee(2, 4) == 2
        assert ek_guarantee(3, 27) == Fraction(27 * 6, 27)
        assert ek_guarantee(1, 5) == 5

    def test_derandomized_meets_guarantee(self):
        rng = SplitMix64(31)
        for _ in range(40):
            k = 1 + rng.below(4)
            m = k + rng.below(11 - k + 1)
            fam = rand_free_uniform_family(rng.spawn(), k, m, cap=16)
            if not fam.members:
                continue
            p, g = ek_partition(fam, mode="derandomized")
            assert len(g.members) >= ek_guarantee(k, len(fam.members))
            assert p.k == k
            for mem in g.members:
                assert p.is_transversal(mem)

    def test_kept_members_are_a_subfamily(self):
        fam = parse_set_family("1 2\n3 4\n1 3\n2 4\n")
        _, g = ek_partition(fam, mode="derandomized")
        assert set(g.members) <= set(fam.members)

    def test_seeded_reproducible(self):
        fam = parse_set_family("1 2\n3 4\n1 3\n2 4\n1 4\n2 3\n")
        a = ek_partition(fam, mode="seeded", seed=5, rounds=3)
        b = ek_partition(fam, mode="seeded", seed=5, rounds=3)
        assert a == b

    def test_seeded_threads_do_not_change_the_answer(self):
        fam = parse_set_family("1 2\n3 4\n1 3\n2 4\n1 4\n2 3\n")
        a = ek_partition(fam, mode="seeded", seed=11, rounds=8, threads=1)
        b = ek_partition(fam, mode="seeded", seed=11, rounds=8, threads=4)
        assert a == b

    def test_more_rounds_never_hurt(self):
        fam = parse_set_family("1 2\n3 4\n1 3\n2 4\n1 4\n2 3\n")
        sizes = []
        for rounds in (1, 2, 8):
            _, g = ek_partition(fam, mode="seeded", seed=2, rounds=rounds)
            sizes.append(len(g.members))
        assert sizes[0] <= sizes[1] <= sizes[2]

    def test_seeded_needs_seed(self):
        fam = parse_set_family("1 2\n3 4\n")
        with pytest.raises(DomainError):
            ek_partition(fam, mode="seeded")

    @pytest.mark.parametrize("run", [ek_partition], ids=["ek_partition"])
    @pytest.mark.parametrize("extra", [{"seed": 7}, {"seed": 3, "rounds": -5}, {"rounds": 0},
                                       {"rounds": 2}])
    def test_derandomized_refuses_seed_and_rounds(self, run, extra):
        fam = parse_set_family("1 2\n3 4\n1 3\n2 4\n")
        with pytest.raises(DomainError, match="seeded mode only"):
            run(fam, **extra)
        with pytest.raises(DomainError, match="seeded mode only"):
            run(fam, mode="derandomized", **extra)
        run(fam, rounds=1)

    def test_mixed_sizes_rejected(self):
        with pytest.raises(DomainError, match="mixed member sizes"):
            ek_partition(parse_set_family("1\n2 3\n"))

    def test_empty_family_rejected(self):
        # k is the family's uniformity, which the empty family does not have
        with pytest.raises(DomainError, match="empty family"):
            ek_partition(SetFamily((), None))

    def test_k1_keeps_everything(self):
        fam = parse_set_family("1\n2\n3\n")
        _, g = ek_partition(fam, mode="derandomized")
        assert len(g.members) == 3


class TestStripCommonElements:
    def test_removes_singleton_class_elements(self):
        fam = parse_set_family("1 2\n1 3\n")
        p = PartiteStructure((frozenset({0}), frozenset({1, 2})))
        stripped, removed = strip_common_elements(fam, p)
        assert removed == frozenset({0})
        assert stripped.members == (frozenset({1}), frozenset({2}))

    def test_noop_without_singletons(self):
        fam = parse_set_family("1 2\n3 4\n")
        p = PartiteStructure((frozenset({0, 2}), frozenset({1, 3})))
        stripped, removed = strip_common_elements(fam, p)
        assert removed == frozenset()
        assert stripped.members == fam.members


class TestExtractGl:
    def test_no_size_two_classes_returns_family_unchanged(self):
        fam = parse_set_family("1 2\n3 4\n1 4\n")
        p = PartiteStructure((frozenset({0, 2, 4}), frozenset({1, 3, 5})))
        removed, h, t, table = extract_gl(fam, p)
        assert t == 0
        assert removed == frozenset()
        assert h.members == fam.members
        assert table == {(): 3}

    def test_worked_example(self):
        # classes {x1,y1} and {a,b,c}; members x1a, x1b, y1c
        fam = SetFamily(
            (frozenset({0, 2}), frozenset({0, 3}), frozenset({1, 4})), None
        )
        p = PartiteStructure((frozenset({0, 1}), frozenset({2, 3, 4})))
        removed, h, t, table = extract_gl(fam, p)
        assert t == 1
        assert removed == frozenset({0})
        assert h.members == (frozenset({2}), frozenset({3}))
        assert table == {(0,): 2, (1,): 1}
        assert len(fam.members) <= 2**t * len(h.members)

    def test_tie_breaks_to_lexicographically_smallest_trace(self):
        fam = SetFamily((frozenset({0, 2}), frozenset({1, 3})), None)
        p = PartiteStructure((frozenset({0, 1}), frozenset({2, 3})))
        removed, h, t, table = extract_gl(fam, p)
        assert t == 2
        assert removed == frozenset({0, 2})  # trace (0, 2) beats (1, 3)
        assert h.members == (frozenset(),)

    def test_rejects_singleton_classes(self):
        fam = parse_set_family("1 2\n")
        p = PartiteStructure((frozenset({0}), frozenset({1, 2})))
        with pytest.raises(DomainError):
            extract_gl(fam, p)

    def test_group_sizes_partition_the_family(self):
        rng = SplitMix64(77)
        for _ in range(30):
            h, p = rand_partite(rng.spawn(), max_k=4, max_class=4)
            if any(len(c) == 1 for c in p.classes):
                continue
            _, _, t, table = extract_gl(h, p)
            assert sum(table.values()) == len(h.members)
            assert len(table) <= 2**t


class TestPsi:
    def test_rank_example_with_padding(self):
        # class sizes 2 and 4 -> moduli 3 and 4
        p = PartiteStructure((frozenset({5, 9}), frozenset({0, 2, 4, 6})))
        fam = SetFamily((frozenset({5, 0}), frozenset({9, 6})), None)
        v = psi_map(fam, p)
        assert v.moduli == ModulusVector((3, 4))
        assert v.members == ((0, 0), (1, 3))

    def test_round_trip(self):
        rng = SplitMix64(13)
        for _ in range(60):
            h, p = rand_partite(rng.spawn())
            assert psi_inverse(psi_map(h, p), p).members == h.members

    def test_sunflower_correspondence(self):
        rng = SplitMix64(14)
        checked = 0
        for _ in range(60):
            h, p = rand_partite(rng.spawn(), max_k=3, max_class=4, max_members=12)
            v = psi_map(h, p)
            if len(h.members) < 3:
                continue
            checked += 1
            assert (find_sunflower_sets_fast(h) is None) == (
                find_sunflower_vectors(v) is None
            )
        assert checked > 20

    def test_non_transversal_member_rejected(self):
        p = PartiteStructure((frozenset({0, 1}), frozenset({2, 3})))
        fam = SetFamily((frozenset({0, 1}),), None)
        with pytest.raises(NotPartite):
            psi_map(fam, p)

    def test_inverse_range_check(self):
        p = PartiteStructure((frozenset({0, 1}),))
        v = VectorFamily(ModulusVector((3,)), ((2,),))  # rank 2, class size 2
        with pytest.raises(OutOfRange):
            psi_inverse(v, p)

    def test_inverse_takes_no_labels(self):
        p = PartiteStructure((frozenset({0, 1}),))
        v = VectorFamily(ModulusVector((3,)), ((1,),))
        assert psi_inverse(v, p).labels is None
        with pytest.raises(TypeError):
            psi_inverse(v, p, labels={1: "a"})

    def test_inverse_arity_check(self):
        p = PartiteStructure((frozenset({0, 1}),))
        v = VectorFamily(ModulusVector((3, 3)), ((0, 0),))
        with pytest.raises(NotPartite):
            psi_inverse(v, p)


class TestPipeline:
    def test_rejects_families_with_sunflowers(self):
        fam = parse_set_family("1 2\n1 3\n1 4\n")
        with pytest.raises(InputHasSunflower) as exc:
            pipeline(fam)
        assert exc.value.witness.indices == (0, 1, 2)

    def test_trace_fields_and_certificates(self):
        fam = parse_set_family("1 2\n3 4\n1 3\n2 4\n")
        tr = pipeline(fam)
        assert tr.input_size == 4
        assert tr.k == 2
        assert tr.mode == "derandomized"
        assert all(tr.certificates.values())
        assert tr.ek_lower_bound == Fraction(2)
        assert tr.g_size >= 2

    def test_seeded_mode_records_seed_and_rounds(self):
        fam = parse_set_family("1 2\n3 4\n1 3\n2 4\n")
        tr = pipeline(fam, seed=9, rounds=4)
        assert tr.mode == "seeded"
        assert tr.seed == 9
        assert tr.rounds == 4
        assert all(tr.certificates.values())

    @pytest.mark.parametrize(
        "extra,outcome",
        [
            pytest.param({"seed": 7}, None, id="seed"),
            pytest.param({"seed": 3, "rounds": -5}, "rounds must be at least 1", id="bad-rounds"),
            pytest.param({"rounds": 0}, "seeded mode only", id="rounds-0-without-seed"),
            pytest.param({"rounds": 2}, "seeded mode only", id="rounds-2-without-seed"),
        ],
    )
    def test_mode_follows_the_seed(self, extra, outcome):
        # a seed selects the seeded partition; without one, rounds other than 1 are refused
        fam = parse_set_family("1 2\n3 4\n1 3\n2 4\n")
        if outcome is not None:
            with pytest.raises(DomainError, match=outcome):
                pipeline(fam, **extra)
            return
        tr = pipeline(fam, **extra)
        p, g = ek_partition(fam, mode="seeded", **extra)
        assert (tr.mode, tr.ek_expected_only, tr.seed) == ("seeded", True, extra["seed"])
        assert tr.classes == tuple(tuple(sorted(c)) for c in p.classes)
        assert tr.g_size == len(g)
        tr = pipeline(fam)
        assert (tr.mode, tr.ek_expected_only, tr.seed, tr.rounds) == (
            "derandomized", False, None, 1)

    def test_json_is_deterministic_and_time_free(self):
        fam = parse_set_family("1 2\n3 4\n1 3\n2 4\n")
        a = dump_json(pipeline(fam).to_json_dict())
        b = dump_json(pipeline(fam).to_json_dict())
        assert a == b
        payload = json.loads(a)
        assert "elapsed" not in payload
        assert "elapsed" not in a

    def test_json_fraction_encoding(self):
        fam = parse_set_family("1 2\n3 4\n1 3\n2 4\n")
        payload = json.loads(dump_json(pipeline(fam).to_json_dict()))
        num, den = payload["ek_lower_bound"].split("/")
        assert int(num) >= 0 and int(den) >= 1
        assert payload["ek_lower_bound_approx"] == pytest.approx(
            int(num) / int(den)
        )

    def test_non_uniform_rejected(self):
        fam = parse_set_family("1\n2 3\n")
        with pytest.raises(DomainError):
            pipeline(fam)

    def test_random_free_families_certify(self):
        rng = SplitMix64(512)
        for _ in range(30):
            k = 1 + rng.below(4)
            m = k + rng.below(11 - k + 1)
            fam = rand_free_uniform_family(rng.spawn(), k, m, cap=14)
            if not fam.members:
                continue
            tr = pipeline(fam)
            assert all(tr.certificates.values()), tr.certificates
            if m > k and not tr.main_bound_degenerate:
                assert len(fam.members) <= tr.main_bound_value + tr.main_bound_radius


@pytest.mark.parametrize(
    "text,kwargs,message",
    [
        pytest.param("\n", {}, "k must be at least 1", id="k-0"),
        pytest.param("1 2\n3 4\n", {"mode": "random"}, "unknown partition mode 'random'",
                     id="unknown-mode"),
    ],
)
def test_checks_no_other_test_reaches(text, kwargs, message):
    # "\n" with allow_empty is {∅}, the one family of uniformity 0
    with pytest.raises(DomainError, match=message):
        ek_partition(parse_set_family(text, allow_empty=True), **kwargs)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_property_pipeline_refuses_every_family_holding_the_empty_member(data):
    # such a family has mixed sizes, is {∅} (k = 0) or holds a sunflower, so
    # pipeline refuses it; this is why `reduce pipeline` has no --allow-empty
    n = data.draw(st.integers(1, 5))
    subsets = st.frozensets(st.integers(0, n - 1), min_size=1)
    members = data.draw(st.lists(subsets, max_size=8, unique=True))
    at = data.draw(st.integers(0, len(members)))
    fam = SetFamily(tuple(members[:at] + [frozenset()] + members[at:]), None)
    with pytest.raises((DomainError, InputHasSunflower)):
        pipeline(fam)


@given(st.integers(1, 6), st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_property_guarantee_matches_formula(k, size):
    from math import factorial

    assert ek_guarantee(k, size) == Fraction(factorial(k), k**k) * size


def assert_steps_maximize_the_conditional_expectation(fam, k):
    # each element goes to the lowest class that maximizes the expected
    # transversal count given the classes already chosen
    structure, _ = ek_partition(fam, mode="derandomized")
    elements = sorted(fam.universe)
    assignment = [structure.class_of[e] for e in elements]
    for i in range(len(elements)):
        values = [
            brute_transversal_expectation(fam.members, elements, k, assignment[:i] + [j])
            for j in range(k)
        ]
        assert assignment[i] == values.index(max(values))
    return assignment


def test_derandomized_steps_weigh_members_by_their_hit_classes():
    # element 3 (of {0,1,3} and {2,3,4}) joins class 2, which keeps both
    # alive; gains from (k-c)! k^(k-c) in place of (k-c)! k^c pick class 0
    fam = SetFamily(tuple(map(frozenset, [(0, 1, 2), (0, 1, 3), (2, 3, 4)])))
    assert assert_steps_maximize_the_conditional_expectation(fam, 3) == [0, 1, 2, 2, 0]


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_property_derandomized_steps_maximize_the_conditional_expectation(data):
    k = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(k, 6))
    pool = list(itertools.combinations(range(n), k))
    members = data.draw(st.lists(st.sampled_from(pool), min_size=len(pool) // 3 or 1, unique=True))
    assert_steps_maximize_the_conditional_expectation(SetFamily(tuple(map(frozenset, members))), k)
