import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sunflower import (
    EXACT_INT,
    EXACT_RATIONAL,
    FLOAT_APPROX,
    ArityMismatch,
    BoundReport,
    DomainError,
    DuplicateMember,
    EmptySet,
    ModulusVector,
    OutOfRange,
    PartiteStructure,
    SetFamily,
    SunflowerWitness,
    VectorFamily,
    as_modulus_vector,
    dump_json,
    parse_set_family,
    parse_vector_family,
    union_size,
)
from sunflower.errors import BadArity, NotPartite


class TestParseSetFamily:
    def test_numeric_ids_become_dense_and_sorted(self):
        fam = parse_set_family("5 9\n9 12\n")
        assert fam.members == (frozenset({0, 1}), frozenset({1, 2}))
        assert fam.member_labels(fam.members[0]) == ["5", "9"]
        assert fam.member_labels(fam.members[1]) == ["9", "12"]

    def test_string_labels_sort_lexically(self):
        fam = parse_set_family("b a\nc a\n")
        assert sorted(fam.universe) == [0, 1, 2]
        assert fam.label(0) == "a"
        assert fam.label(1) == "b"
        assert fam.label(2) == "c"

    def test_comments_and_comment_only_lines(self):
        fam = parse_set_family("# header\n1 2 # trailing\n\n# tail\n2 3\n", allow_empty=True)
        assert len(fam.members) == 3
        assert frozenset() in fam.members

    def test_blank_line_rejected_by_default(self):
        with pytest.raises(EmptySet):
            parse_set_family("1 2\n\n3 4\n")

    def test_duplicate_member_reports_both_lines(self):
        with pytest.raises(DuplicateMember) as exc:
            parse_set_family("1 2\n3\n2 1\n")
        assert "line 3" in str(exc.value)
        assert "line 1" in str(exc.value)

    def test_tokens_within_line_dedupe(self):
        fam = parse_set_family("1 2 1\n")
        assert fam.members == (frozenset({0, 1}),)

    def test_mixed_numeric_and_text_labels(self):
        fam = parse_set_family("1 x\n")
        assert {fam.label(e) for e in fam.universe} == {"1", "x"}


class TestParseVectorFamily:
    def test_basic(self):
        fam = parse_vector_family("0,1\n2,0\n# note\n", (3, 3))
        assert fam.members == ((0, 1), (2, 0))

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            parse_vector_family("0,1,2\n", (3, 3))

    def test_blank_line_is_arity_zero(self):
        with pytest.raises(ArityMismatch):
            parse_vector_family("0,1\n\n", (3, 3))

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            parse_vector_family("0,3\n", (3, 3))
        with pytest.raises(OutOfRange):
            parse_vector_family("-1,0\n", (3, 3))

    def test_duplicate_vector(self):
        with pytest.raises(DuplicateMember):
            parse_vector_family("0,1\n0,1\n", (3, 3))


class TestSetFamily:
    def test_equality_ignores_labels(self):
        a = parse_set_family("5 9\n")
        b = parse_set_family("1 2\n")
        assert a == b
        assert a.members == b.members

    def test_uniformity(self):
        assert parse_set_family("1 2\n3 4\n").uniformity == 2
        assert parse_set_family("1\n2 3\n").uniformity is None

    def test_union_size(self):
        fam = parse_set_family("1 2\n2 3\n")
        assert union_size(fam) == 3

    def test_json_round_trip(self):
        fam = parse_set_family("b a\nc a\n")
        again = SetFamily.from_json_dict(fam.to_json_dict())
        assert again.members == fam.members
        assert [again.label(e) for e in sorted(again.universe)] == [
            fam.label(e) for e in sorted(fam.universe)
        ]

    def test_to_text_parse_round_trip_preserves_labels(self):
        fam = parse_set_family("5 9\n9 12\n")
        again = parse_set_family(fam.to_text())
        assert [again.member_labels(m) for m in again.members] == [
            fam.member_labels(m) for m in fam.members
        ]


class TestModulusVector:
    def test_point_count(self):
        mv = ModulusVector((3, 4))
        assert mv.n == 2
        assert mv.point_count() == 12

    def test_rejects_small_moduli(self):
        with pytest.raises(DomainError):
            ModulusVector((3, 1))

    def test_require_min(self):
        with pytest.raises(DomainError):
            ModulusVector((3, 2)).require_min(3)

    def test_coercion_is_idempotent(self):
        mv = ModulusVector((3, 5))
        assert as_modulus_vector(mv) is mv
        assert as_modulus_vector((3, 5)) == mv

    def test_empty_vector_has_one_point(self):
        assert ModulusVector(()).point_count() == 1


class TestVectorFamily:
    def test_validation(self):
        mv = ModulusVector((3, 3))
        with pytest.raises(ArityMismatch):
            VectorFamily(mv, ((0, 1, 2),))
        with pytest.raises(OutOfRange):
            VectorFamily(mv, ((0, 5),))
        with pytest.raises(DuplicateMember):
            VectorFamily(mv, ((0, 1), (0, 1)))


class TestPartiteStructure:
    def test_overlapping_classes_rejected(self):
        with pytest.raises(DomainError):
            PartiteStructure((frozenset({0, 1}), frozenset({1, 2})))

    def test_is_transversal(self):
        p = PartiteStructure((frozenset({0, 1}), frozenset({2, 3})))
        assert p.is_transversal(frozenset({0, 2}))
        assert not p.is_transversal(frozenset({0, 1}))
        assert not p.is_transversal(frozenset({0}))
        assert not p.is_transversal(frozenset({0, 2, 4}))

    def test_class_of(self):
        p = PartiteStructure((frozenset({0, 1}), frozenset({2})))
        assert p.class_of[2] == 1
        assert p.k == 2


class TestSunflowerWitness:
    def test_duplicate_indices_rejected(self):
        with pytest.raises(BadArity):
            SunflowerWitness(indices=(0, 0, 1), kernel=frozenset())

    def test_negative_indices_rejected(self):
        with pytest.raises(BadArity):
            SunflowerWitness(indices=(-1, 0, 1))

    def test_json_uses_labels(self):
        fam = parse_set_family("5 9\n5 12\n5 14\n")
        w = SunflowerWitness(indices=(0, 1, 2), kernel=frozenset({0}))
        d = w.to_json_dict(fam)
        assert d["members"] == [0, 1, 2]
        assert d["kernel"] == ["5"]


class TestBoundReport:
    def test_float_requires_radius(self):
        with pytest.raises(DomainError):
            BoundReport(name="x", parameters={}, value=1.5, exactness=FLOAT_APPROX)

    def test_exact_rejects_radius(self):
        with pytest.raises(DomainError):
            BoundReport(name="x", parameters={}, value=3, exactness=EXACT_INT, radius=0.1)

    def test_rational_serializes_as_ratio_string(self):
        r = BoundReport(
            name="x", parameters={}, value=Fraction(7, 2), exactness=EXACT_RATIONAL
        )
        d = r.to_json_dict()
        assert d["value"] == "7/2"
        assert d["approx"] == 3.5
        assert r.numeric() == 3.5

    def test_int_passthrough(self):
        r = BoundReport(name="x", parameters={}, value=42, exactness=EXACT_INT)
        d = r.to_json_dict()
        assert d["value"] == 42
        assert "approx" not in d

    def test_fraction_parameters_serialize_as_ratio_strings(self):
        r = BoundReport(
            name="x",
            parameters={"eps": Fraction(3, 4), "moduli": (3, 5)},
            value=1,
            exactness=EXACT_INT,
        )
        d = r.to_json_dict()
        assert d["parameters"] == {"eps": "3/4", "moduli": [3, 5]}


class TestDumpJson:
    def test_sorted_compact_newline(self):
        text = dump_json({"b": 1, "a": [1, 2]})
        assert text == '{"a":[1,2],"b":1}\n'

    def test_round_trips_through_stdlib(self):
        payload = {"z": [3, 2], "a": {"nested": True}}
        assert json.loads(dump_json(payload)) == payload


@given(
    st.lists(
        st.frozensets(st.integers(min_value=0, max_value=9), min_size=1, max_size=5),
        min_size=1,
        max_size=12,
        unique=True,
    )
)
@settings(max_examples=60, deadline=None)
def test_text_round_trip_preserves_member_structure(members):
    fam = SetFamily(tuple(members), None)
    again = parse_set_family(fam.to_text())
    assert [sorted(again.member_labels(m)) for m in again.members] == [
        sorted(fam.member_labels(m)) for m in fam.members
    ]


@given(
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 4)),
        min_size=1,
        max_size=10,
        unique=True,
    )
)
@settings(max_examples=60, deadline=None)
def test_vector_family_accepts_in_range_vectors(vectors):
    fam = VectorFamily(ModulusVector((3, 5)), tuple(vectors))
    assert fam.members == tuple(vectors)
