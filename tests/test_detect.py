import itertools
import re
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from oracles import (
    brute_complementary_pairs,
    brute_find_ap_triple,
    brute_find_sunflower_sets,
    brute_find_sunflower_vectors,
    brute_is_sunflower_sets,
    brute_is_sunflower_vectors,
    brute_sunflower_triples,
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
from sunflower.detect import (
    CompletionKernel,
    find_sunflower_vectors_lookup,
    vector_features,
)
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

    def test_fast_memory_does_not_grow_with_the_element_ids(self):
        f = SetFamily(tuple(map(frozenset, ({1, 10**9}, {2}, {3, 10**9}, {4}))), None)
        tracemalloc.start()
        try:
            w = find_sunflower_sets_fast(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # a bitset indexed by the raw ids would take 125 MB
        assert w == find_sunflower_sets(f, 3) and w.indices == (0, 1, 3)

    def test_fast_requires_three_petals(self):
        # the fast path takes no petal count: find_sunflower_sets handles t != 3
        with pytest.raises(TypeError):
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
        with pytest.raises(TypeError):
            witness_holds(f, w, t=3)  # the witness fixes its own petal count

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

    def test_huge_modulus_needs_no_table_of_its_size(self):
        # the third-term tables hold the values present, not all 10**9
        d = 10**9
        f = VectorFamily(ModulusVector((d, 3)), ((d - 1, 2), (0, 1), (5, 1), (1, 0)))
        assert find_ap_triple(f) == (0, 1, 3)
        assert find_ap_triple(VectorFamily(ModulusVector((d,)), ((0,), (7,), (3,)))) is None

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


@pytest.mark.parametrize(
    "call,expected",
    [
        pytest.param(lambda: kernel_of([]), BadArity("kernel of zero sets is undefined"),
                     id="kernel-of-none"),
        pytest.param(lambda: find_sunflower_sets(fam("1\n2\n"), 1),
                     BadArity("sunflowers have at least two petals"), id="one-petal"),
        pytest.param(lambda: witness_holds(fam("1\n2\n"), SunflowerWitness((0,))), False,
                     id="witness-of-one"),
        pytest.param(lambda: is_sunflower_vectors((0, 1), (1,), (2, 2)),
                     BadArity("vectors must share one arity"), id="mixed-arity"),
        # zip would stop at the shortest argument and judge only a prefix
        pytest.param(lambda: coordinate_classes((0, 1), (0,), (0,)),
                     BadArity("vectors must share one arity"), id="classes-mixed-arity"),
        pytest.param(lambda: is_ap_triple((0, 1), (0,), (0,), (3, 3)),
                     BadArity("vectors must share one arity"), id="ap-mixed-arity"),
        pytest.param(lambda: is_ap_triple((0,), (1,), (2,), (3, 3)),
                     BadArity("vectors must share one arity"), id="ap-moduli-arity"),
    ],
)
def test_checks_no_other_test_reaches(call, expected):
    if isinstance(expected, Exception):
        with pytest.raises(type(expected), match=re.escape(str(expected))):
            call()
    else:
        assert call() == expected


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_property_wide_families_match_definitional_scan(data):
    # members are [m] less a hole of at most 3 points of a short window, so
    # they hold up to ~150 elements and three are a sunflower iff the
    # pairwise unions of their holes agree
    m = data.draw(st.integers(4, 152), label="m")
    width = data.draw(st.integers(3, min(m, 8)), label="window")
    lo = data.draw(st.integers(0, m - width), label="window start")
    hole = st.frozensets(st.integers(lo, lo + width - 1), max_size=3)
    holes = data.draw(st.lists(hole, min_size=2, max_size=10, unique=True), label="holes")
    members = [frozenset(range(m)) - h for h in holes]
    t = data.draw(st.integers(2, 4), label="t")
    found = find_sunflower_sets(SetFamily(tuple(members), None), t)
    ref = brute_find_sunflower_sets(members, t)
    assert (found and found.indices) == ref
    if found is not None:
        assert found.kernel == frozenset.intersection(*(members[i] for i in ref))


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


def test_property_vector_completions_match_definitional():
    # A coordinate whose column holds two values gives a pair differing there
    # no completion, so the differing features alone settle such pairs.
    settled_empty = []

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def check(data):
        n = data.draw(st.integers(1, 4))
        moduli = tuple(data.draw(st.sampled_from((2, 3, 4, 5))) for _ in range(n))
        held = [data.draw(st.integers(2, d)) for d in moduli]  # values in use
        members = data.draw(
            st.lists(st.tuples(*(st.integers(0, v - 1) for v in held)), max_size=12, unique=True)
        )
        kernel = CompletionKernel(vector_features(moduli, members))
        for i, j in itertools.combinations(range(len(members)), 2):
            expected = sum(
                1 << l
                for l in range(len(members))
                if l not in (i, j)
                and brute_is_sunflower_vectors(members[i], members[j], members[l])
            )
            assert kernel.completions(i, j) == expected
            settled_empty.append(expected == 0)

    check()
    assert any(settled_empty)


def two_valued_vectors(data, max_size):
    """Moduli over 2, some columns limited to two of their values, e.g. {0, 3} mod 5."""
    n = data.draw(st.integers(1, 4), label="n")
    moduli = tuple(data.draw(st.sampled_from((3, 4, 5, 7))) for _ in range(n))
    values = [
        data.draw(st.sampled_from([range(d)] + list(itertools.combinations(range(d), 2))))
        for d in moduli
    ]
    members = data.draw(
        st.lists(st.tuples(*(st.sampled_from(v) for v in values)), max_size=max_size, unique=True),
        label="members",
    )
    return moduli, members


def check_keys_split_completions(kernel, members, features, vectors):
    """Keys agree exactly on the complementary pairs; keys that differ close nothing."""
    pairs = brute_complementary_pairs(features)
    test = (lambda c: brute_is_sunflower_vectors(*c)) if vectors else brute_is_sunflower_sets
    keys, split = kernel.keys(), 0
    for i, j in itertools.combinations(range(len(members)), 2):
        agree = all((e in features[i]) == (e in features[j]) for e, _ in pairs)
        assert (keys[i] == keys[j]) == agree
        if not agree:
            split += 1
            assert kernel.completions(i, j) == 0
            third = (l for l in range(len(members)) if l not in (i, j))
            assert not any(test([members[i], members[j], members[l]]) for l in third)
    return split


def test_property_members_of_different_keys_have_no_completion():
    splits = []

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def check(data):
        moduli, members = two_valued_vectors(data, 14)
        features = vector_features(moduli, members)
        kernel = CompletionKernel(features)
        splits.append(check_keys_split_completions(kernel, members, features, vectors=True))
        # a column holding two values is a complementary pair: it splits the keys
        two_valued = [len(set(col)) == 2 for col in zip(*members)]
        keys = kernel.keys()
        for i, j in itertools.combinations(range(len(members)), 2):
            if any(a != b for a, b, c in zip(members[i], members[j], two_valued) if c):
                assert keys[i] != keys[j]

    check()
    assert sum(splits) > 0  # the sample must hold pairs of different keys


def test_property_set_members_of_different_keys_have_no_completion():
    splits = []

    @given(
        st.lists(
            st.tuples(st.sampled_from((0, 1)), st.sampled_from((2, 3)),
                      st.frozensets(st.integers(4, 8), max_size=3)).map(
                lambda t: frozenset({t[0], t[1]}) | t[2]),
            max_size=12,
            unique=True,
        )
    )
    @settings(max_examples=100, deadline=None)
    def check(members):
        # each member holds exactly one of 0, 1 and exactly one of 2, 3
        kernel = CompletionKernel(members)
        splits.append(check_keys_split_completions(kernel, members, members, vectors=False))

    check()
    assert sum(splits) > 0  # the sample must hold pairs of different keys


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_property_scans_match_brute_force_on_two_valued_columns(data):
    moduli, members = two_valued_vectors(data, 16)
    f = VectorFamily(ModulusVector(moduli), tuple(members))
    w = find_sunflower_vectors_lookup(f)
    assert (w and w.indices) == brute_find_sunflower_vectors(members)
    assert find_ap_triple(f) == brute_find_ap_triple(members, moduli)


SET_MEMBER_LISTS = st.one_of(
    # empty and nested members arise over a small ground set
    st.lists(st.frozensets(st.integers(0, 7), max_size=5), max_size=12, unique=True),
    # a chain of prefixes, shuffled: nested throughout, no triple
    st.lists(st.integers(0, 9), max_size=10, unique=True).map(
        lambda ks: [frozenset(range(k)) for k in ks]
    ),
    # pairwise disjoint blocks on a shared core: every triple
    st.tuples(st.booleans(), st.lists(st.integers(0, 3), max_size=10)).map(
        lambda args: list(
            {
                frozenset({100} if args[0] else ()) | frozenset(range(10 * n, 10 * n + size)): None
                for n, size in enumerate(args[1])
            }
        )
    ),
)


@given(SET_MEMBER_LISTS)
@settings(max_examples=150, deadline=None)
def test_property_triples_match_brute_enumeration(members):
    assert list(CompletionKernel(members).triples()) == brute_sunflower_triples(members)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_property_vector_triples_match_brute_enumeration(data):
    n = data.draw(st.integers(1, 4))
    moduli = tuple(data.draw(st.sampled_from((2, 3, 4, 5))) for _ in range(n))
    members = data.draw(
        st.lists(
            st.tuples(*(st.integers(0, d - 1) for d in moduli)),
            max_size=14,
            unique=True,
        )
    )
    kernel = CompletionKernel(vector_features(moduli, members))
    assert list(kernel.triples()) == brute_sunflower_triples(members, vectors=True)


@pytest.mark.parametrize(
    "members, vectors",
    [
        # every member after {0} has trace {} on it: one bucket of 14 after {1}
        (
            [frozenset({e}) for e in range(13)]
            + [frozenset({1, 2}), frozenset({3, 4}), frozenset({5, 6, 13})],
            False,
        ),
        (list(itertools.product(range(3), repeat=3)), True),
        ([frozenset(c) for c in itertools.combinations(range(12), 2)], False),
        ([frozenset({0, 1})] + [frozenset({0, 2, p}) for p in range(3, 43)], False),
    ],
    ids=["one-large-bucket", "Z3^3", "two-subsets-of-12", "star-behind-a-pair"],
)
def test_triples_match_brute_force(members, vectors):
    kernel = CompletionKernel(vector_features((3, 3, 3), members) if vectors else members)
    assert list(kernel.triples()) == brute_sunflower_triples(members, vectors=vectors)


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
