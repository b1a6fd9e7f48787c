import itertools
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from oracles import (
    brute_find_ap_triple,
    brute_find_sunflower_sets,
    brute_find_sunflower_vectors,
    brute_is_sunflower_sets,
    brute_is_sunflower_vectors,
)
from randfam import rand_set_family, rand_vector_family

from sunflower import (
    BadArity,
    ModulusVector,
    SetFamily,
    SplitMix64,
    SunflowerWitness,
    TooLarge,
    VectorFamily,
    coordinate_classes,
    find_ap_triple,
    find_sunflower_sets,
    find_sunflower_sets_fast,
    find_sunflower_vectors,
    is_ap_triple,
    is_sunflower_sets,
    is_sunflower_vectors,
    kernel_of,
    parse_set_family,
    parse_vector_family,
    witness_holds,
)
from sunflower import detect
from sunflower.detect import CompletionKernel, find_sunflower_vectors_lookup
from sunflower.search import VectorInstance, verify_family_points


def fam(text: str) -> SetFamily:
    return parse_set_family(text)


class TestSetPredicates:
    def test_disjoint_triple_is_sunflower(self):
        f = fam("1 2\n3 4\n5 6\n")
        assert is_sunflower_sets(f.members)
        assert kernel_of(f.members) == frozenset()

    def test_shared_kernel_triple(self):
        f = fam("1 2\n1 3\n1 4\n")
        assert is_sunflower_sets(f.members)
        assert kernel_of(f.members) == frozenset({0})

    def test_triangle_is_not_a_sunflower(self):
        f = fam("1 2\n2 3\n1 3\n")
        assert not is_sunflower_sets(f.members)

    def test_two_distinct_sets_always_form_a_pair_sunflower(self):
        f = fam("1 2\n2 3\n")
        assert is_sunflower_sets(f.members)

    def test_duplicate_or_short_input_rejected(self):
        with pytest.raises(BadArity):
            is_sunflower_sets([frozenset({1})])
        with pytest.raises(BadArity):
            is_sunflower_sets([frozenset({1}), frozenset({1})])

    def test_nested_sets_are_not_a_sunflower(self):
        f = fam("1 2\n1 2 3\n1 2 3 4\n")
        assert not is_sunflower_sets(f.members)


class TestFindSets:
    def test_lexicographically_first_witness(self):
        # (0,1,2) and (0,1,3) both work; the scan must return (0,1,2).
        f = fam("1\n2\n3\n4\n")
        w = find_sunflower_sets_fast(f)
        assert w is not None
        assert w.indices == (0, 1, 2)
        assert w.kernel == frozenset()

    def test_fast_none_on_free_family(self):
        f = fam("1 2\n2 3\n1 3\n")
        assert find_sunflower_sets_fast(f) is None

    def test_fast_requires_three_petals(self):
        with pytest.raises(BadArity):
            find_sunflower_sets_fast(fam("1\n2\n"), t=2)

    def test_naive_pair_witness(self):
        w = find_sunflower_sets(fam("1 2\n3 4\n"), t=2)
        assert w is not None and w.indices == (0, 1)

    def test_t4(self):
        f = fam("1 2\n1 3\n1 4\n1 5\n")
        w = find_sunflower_sets(f, t=4)
        assert w is not None and w.indices == (0, 1, 2, 3)

    def test_general_t_member_cap(self):
        members = tuple(frozenset({2 * i, 2 * i + 1}) for i in range(65))
        with pytest.raises(TooLarge):
            find_sunflower_sets(SetFamily(members, None), t=4)

    def test_witness_holds_accepts_and_rejects(self):
        f = fam("1\n2\n3\n")
        w = find_sunflower_sets_fast(f)
        assert witness_holds(f, w)
        bad = fam("1 2\n2 3\n1 3\n")
        assert not witness_holds(bad, w)

    def test_witness_holds_rejects_indices_outside_the_family(self):
        f = fam("1\n2\n3\n")
        assert not witness_holds(f, SunflowerWitness((0, 1, 3)))
        # a duck-typed witness skips the constructor's index checks
        assert not witness_holds(f, SimpleNamespace(indices=(-1, 0, 1), kernel=None))


class TestVectorPredicates:
    def test_coordinate_classes(self):
        assert coordinate_classes((0, 0), (0, 1), (0, 2)) == ("all-equal", "all-distinct")
        assert coordinate_classes((1,), (0,), (1,)) == ("two-equal",)

    def test_two_equal_coordinate_blocks(self):
        assert not is_sunflower_vectors((0, 0), (0, 1), (1, 2))

    def test_all_distinct_line(self):
        assert is_sunflower_vectors((0, 0), (1, 1), (2, 2))

    def test_distinctness_required(self):
        with pytest.raises(BadArity):
            is_sunflower_vectors((0, 0), (0, 0), (1, 1))

    def test_find_returns_classes(self):
        f = parse_vector_family("0,0\n1,1\n2,2\n", (3, 3))
        w = find_sunflower_vectors(f)
        assert w is not None
        assert w.indices == (0, 1, 2)
        assert w.coordinate_classes == ("all-distinct", "all-distinct")

    def test_find_none_on_free_family(self):
        f = parse_vector_family("0,0\n0,1\n1,0\n", (3, 3))
        assert find_sunflower_vectors(f) is None


class TestLookupScan:
    """find_sunflower_vectors_lookup enumerates a pair's completions when
    they are no more than the members above j, else tests those members."""

    @staticmethod
    def spy_on_predicate(monkeypatch) -> list:
        calls = []
        real = detect.is_sunflower_vectors

        def spy(x, y, z):
            calls.append((x, y, z))
            return real(x, y, z)

        monkeypatch.setattr(detect, "is_sunflower_vectors", spy)
        return calls

    def test_scan_branch_when_candidates_outnumber_members(self, monkeypatch):
        # the first pair differs everywhere and each column holds four values:
        # 2^4 = 16 candidates, 3 members left
        members = ((0, 0, 0, 0), (1, 1, 1, 1), (0, 1, 0, 1), (2, 3, 4, 5), (3, 2, 5, 4))
        calls = self.spy_on_predicate(monkeypatch)
        w = find_sunflower_vectors_lookup(VectorFamily(ModulusVector((7,) * 4), members))
        assert w.indices == (0, 1, 3) == brute_find_sunflower_vectors(members)
        assert w.coordinate_classes == ("all-distinct",) * 4
        assert calls == [(members[0], members[1], members[2]), (members[0], members[1], members[3])]

    def test_enumerate_branch_takes_the_least_index_above_j(self, monkeypatch):
        # (0,0),(1,1) has 4 candidates and 4 members above it; three of them
        # complete the pair, and the least index is enumerated third
        members = ((0, 0), (1, 1), (3, 2), (0, 1), (2, 3), (2, 2))
        calls = self.spy_on_predicate(monkeypatch)
        w = find_sunflower_vectors_lookup(VectorFamily(ModulusVector((4, 4)), members))
        assert w.indices == (0, 1, 2) == brute_find_sunflower_vectors(members)
        assert w.coordinate_classes == ("all-distinct", "all-distinct")
        assert calls == []

    def test_candidates_come_from_the_values_in_each_column(self, monkeypatch):
        # every column holds only 0 and 1, so no pair that differs has a
        # completion: nothing is enumerated and no member is tested
        inst = VectorInstance(ModulusVector((7,) * 7))
        points = list(itertools.product((0, 1), repeat=7))
        calls = self.spy_on_predicate(monkeypatch)
        assert verify_family_points(inst, points) == (True, None)
        assert calls == []


class TestApTriples:
    def test_unit_progression_mod_three(self):
        f = parse_vector_family("0\n1\n2\n", (3,))
        assert find_ap_triple(f) == (0, 1, 2)

    def test_no_progression_in_that_index_order_mod_five(self):
        # (0,1,3): 1-0 != 3-1, 0 is not the midpoint of 1 and 3 mod 5, and
        # 3 as middle would need index order (1, 3, 0) which the scan, which
        # always takes the middle-index member as the progression middle,
        # never tests.
        f = parse_vector_family("0\n1\n3\n", (5,))
        assert find_ap_triple(f) is None

    def test_is_ap_triple_modular_wraparound(self):
        # 3, 0, 2 is a progression with difference 2 mod 5.
        assert is_ap_triple((3,), (0,), (2,), ModulusVector((5,)))

    def test_middle_element_convention(self):
        # The middle argument is the progression midpoint: x + z = 2y.
        assert is_ap_triple((0,), (1,), (2,), ModulusVector((5,)))
        assert not is_ap_triple((1,), (0,), (2,), ModulusVector((5,)))
        assert not is_ap_triple((0,), (1,), (3,), ModulusVector((5,)))

    def test_ap_triple_in_odd_modulus_group_is_a_sunflower(self):
        rng = SplitMix64(404)
        found = 0
        for _ in range(200):
            n = 1 + rng.below(4)
            moduli = tuple(rng.choice((3, 5, 7, 9)) for _ in range(n))
            x = tuple(rng.below(d) for d in moduli)
            step = tuple(rng.below(d) for d in moduli)
            y = tuple((a + s) % d for a, s, d in zip(x, step, moduli))
            z = tuple((a + 2 * s) % d for a, s, d in zip(x, step, moduli))
            if len({x, y, z}) != 3:
                continue
            found += 1
            assert is_ap_triple(x, y, z, ModulusVector(moduli))
            assert is_sunflower_vectors(x, y, z)
        assert found > 100  # the guard above must not eat the sample


class TestFastMatchesNaive:
    def test_seeded_corpus(self):
        rng = SplitMix64(2024)
        for _ in range(150):
            f = rand_set_family(rng.spawn(), max_elems=10, max_members=25)
            fast = find_sunflower_sets_fast(f)
            naive = brute_find_sunflower_sets(f.members)
            assert (fast is None) == (naive is None)
            if fast is not None:
                assert witness_holds(f, fast)
                assert fast.indices == naive

    def test_vector_corpus(self):
        rng = SplitMix64(2025)
        for _ in range(150):
            moduli = tuple(2 + rng.below(4) for _ in range(1 + rng.below(3)))
            f = rand_vector_family(rng.spawn(), moduli)
            mine = find_sunflower_vectors(f)
            ref = brute_find_sunflower_vectors(f.members)
            assert (mine is None) == (ref is None)
            if mine is not None:
                assert mine.indices == ref


@given(
    st.lists(
        st.frozensets(st.integers(0, 7), min_size=0, max_size=4),
        min_size=3,
        max_size=10,
        unique=True,
    )
)
@settings(max_examples=80, deadline=None)
def test_property_fast_agrees_with_definitional_scan(members):
    f = SetFamily(tuple(members), None)
    fast = find_sunflower_sets_fast(f)
    ref = brute_find_sunflower_sets(members)
    assert (fast is None) == (ref is None)
    if fast is not None:
        assert fast.indices == ref
        chosen = [members[i] for i in fast.indices]
        assert brute_is_sunflower_sets(chosen)
        assert fast.kernel == frozenset.intersection(*map(frozenset, chosen))


@given(
    st.lists(
        st.frozensets(st.integers(0, 7), min_size=0, max_size=4),
        min_size=2,
        max_size=8,
        unique=True,
    )
)
@settings(max_examples=80, deadline=None)
def test_property_kernel_completions_match_definitional(members):
    # nested and empty members included: a pair never completes itself
    kernel = CompletionKernel(members)
    for i, j in itertools.combinations(range(len(members)), 2):
        expected = sum(
            1 << l
            for l in range(len(members))
            if l not in (i, j)
            and brute_is_sunflower_sets((members[i], members[j], members[l]))
        )
        assert kernel.completions(i, j) == expected


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_property_ap_triple_matches_brute_force(data):
    # even moduli make the pair's third term equal to its first member
    n = data.draw(st.integers(1, 3))
    moduli = tuple(data.draw(st.sampled_from((2, 3, 4, 5, 7))) for _ in range(n))
    members = data.draw(
        st.lists(
            st.tuples(*(st.integers(0, d - 1) for d in moduli)),
            min_size=0,
            max_size=12,
            unique=True,
        )
    )
    f = VectorFamily(ModulusVector(moduli), tuple(members))
    assert find_ap_triple(f) == brute_find_ap_triple(members, moduli)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_property_lookup_scan_matches_brute_force(data):
    n = data.draw(st.integers(1, 4))
    moduli = tuple(data.draw(st.sampled_from((2, 3, 4, 5, 7))) for _ in range(n))
    members = data.draw(
        st.lists(
            st.tuples(*(st.integers(0, d - 1) for d in moduli)),
            min_size=0,
            max_size=14,
            unique=True,
        )
    )
    if len(members) >= 2 and data.draw(st.booleans()):
        # plant a completion of the first two members at a drawn position
        x, y = members[0], members[1]
        if all(a == b or d > 2 for a, b, d in zip(x, y, moduli)):
            z = tuple(
                a if a == b else data.draw(st.sampled_from([v for v in range(d) if v not in (a, b)]))
                for a, b, d in zip(x, y, moduli)
            )
            if z not in members:
                members.insert(data.draw(st.integers(0, len(members))), z)
    w = find_sunflower_vectors_lookup(VectorFamily(ModulusVector(moduli), tuple(members)))
    ref = brute_find_sunflower_vectors(members)
    assert (w is None) == (ref is None)
    if w is not None:
        assert w.indices == ref
        assert w.coordinate_classes == coordinate_classes(*(members[i] for i in ref))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_property_vector_predicate_matches_definitional(data):
    n = data.draw(st.integers(1, 4))
    moduli = tuple(data.draw(st.integers(2, 5)) for _ in range(n))
    vecs = data.draw(
        st.lists(
            st.tuples(*(st.integers(0, d - 1) for d in moduli)),
            min_size=3,
            max_size=3,
            unique=True,
        )
    )
    assert is_sunflower_vectors(*vecs) == brute_is_sunflower_vectors(*vecs)


def test_pairwise_disjoint_always_sunflower():
    for sizes in itertools.product((1, 2, 3), repeat=3):
        base = 0
        members = []
        for s in sizes:
            members.append(frozenset(range(base, base + s)))
            base += s
        assert is_sunflower_sets(members)
