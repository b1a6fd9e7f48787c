import dataclasses
import inspect
import json
import re
from fractions import Fraction
from functools import cached_property

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
from sunflower.model import field, record


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

    def test_whitespace_only_line_is_a_blank_line(self):
        with pytest.raises(EmptySet, match="line 2"):
            parse_set_family("1 2\n \t\n3 4\n")
        fam = parse_set_family("1 2\n \t\n3 4\n", allow_empty=True)
        assert fam.members[1] == frozenset()

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

    def test_non_integer_coordinate(self):
        with pytest.raises(ArityMismatch, match="line 2: non-integer coordinate"):
            parse_vector_family("0,1\n0,x\n", (3, 3))

    @pytest.mark.parametrize(
        "text,exc,message",
        [
            ("0,1\n2,0,1\n", ArityMismatch, "line 2: vector has 3 coordinates, expected 2"),
            ("0,1\n# note\n2,3\n", OutOfRange, "line 3: coordinate 3 outside [0, 3)"),
            ("0,1\n-1,5\n", OutOfRange, "line 2: coordinate -1 outside [0, 3)"),
            ("0,1\n1,0\n 0 ,1\n", DuplicateMember, "line 3: vector repeats the vector from line 1"),
            ("0,1\n0,1 2\n", ArityMismatch, "line 2: non-integer coordinate"),
            ("0,1\n\n", ArityMismatch, "line 2: blank line in vector family"),
        ],
        ids=["arity", "too-large", "negative-first", "duplicate", "inner-space", "blank"],
    )
    def test_error_messages_name_the_line(self, text, exc, message):
        with pytest.raises(exc) as info:
            parse_vector_family(text, (3, 3))
        assert str(info.value) == message

    def test_coordinates_may_carry_whitespace_that_str_strip_removes(self):
        # int() strips whitespace itself, but not U+001F, which str.strip() does
        fam = parse_vector_family(" 0,\t1 \n2\x1f, 0\u3000\n", (3, 3))
        assert fam.members == ((0, 1), (2, 0))
        assert fam == VectorFamily(ModulusVector((3, 3)), ((0, 1), (2, 0)))
        assert type(fam.moduli) is ModulusVector


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
        assert not hasattr(fam, "ground_size")  # union_size is the one name

    def test_has_no_json_codec(self):
        # to_text and parse_set_family are the one serialization
        fam = parse_set_family("b a\n")
        assert not hasattr(fam, "to_json_dict")
        assert not hasattr(SetFamily, "from_json_dict")

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

    def test_to_text_parse_round_trip(self):
        fam = VectorFamily(ModulusVector((3, 4)), ((0, 3), (2, 1)))
        assert fam.to_text() == "0,3\n2,1\n"
        assert parse_vector_family(fam.to_text(), (3, 4)) == fam

    def test_has_no_json_codec(self):
        # to_text and parse_vector_family are the one serialization
        fam = VectorFamily(ModulusVector((3,)), ((0,),))
        assert not hasattr(fam, "to_json_dict")
        assert not hasattr(VectorFamily, "from_json_dict")


class TestPartiteStructure:
    def test_overlapping_classes_rejected(self):
        with pytest.raises(DomainError):
            PartiteStructure((frozenset({0, 1}), frozenset({1, 2})))

    def test_has_no_json_dict(self):
        assert not hasattr(PartiteStructure(({0}, {1})), "to_json_dict")

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

    def test_numeric_saturates_past_the_double_range(self):
        r = BoundReport(name="x", parameters={}, value=2**1024, exactness=EXACT_INT)
        assert r.numeric() == float("inf")
        big = Fraction(-(2**1100), 3)
        q = BoundReport(name="x", parameters={}, value=big, exactness=EXACT_RATIONAL)
        assert q.numeric() == float("-inf")

    def test_int_passthrough(self):
        r = BoundReport(name="x", parameters={}, value=42, exactness=EXACT_INT)
        d = r.to_json_dict()
        assert d["value"] == 42
        assert "approx" not in d

    def test_admits_up_to_value_plus_radius(self):
        f = BoundReport(name="x", parameters={}, value=10.25, exactness=FLOAT_APPROX, radius=0.75)
        assert f.admits(11) and not f.admits(12)
        i = BoundReport(name="x", parameters={}, value=42, exactness=EXACT_INT)
        assert i.admits(42) and not i.admits(43)
        q = BoundReport(name="x", parameters={}, value=Fraction(7, 2), exactness=EXACT_RATIONAL)
        assert q.admits(3) and not q.admits(4)

    def test_fraction_parameters_serialize_as_ratio_strings(self):
        r = BoundReport(
            name="x",
            parameters={"eps": Fraction(3, 4), "moduli": (3, 5)},
            value=1,
            exactness=EXACT_INT,
        )
        d = r.to_json_dict()
        assert d["parameters"] == {"eps": "3/4", "moduli": [3, 5]}


@pytest.mark.parametrize(
    "call,expected",
    [
        pytest.param(lambda: SetFamily((frozenset({-1}),)),
                     OutOfRange("element ids must be non-negative integers, got -1"),
                     id="negative-id"),
        pytest.param(lambda: BoundReport("x", {}, 1, "exact"),
                     DomainError("unknown exactness class 'exact'"), id="unknown-exactness"),
        pytest.param(lambda: BoundReport("x", {}, True, EXACT_INT).to_json_dict(),
                     DomainError("bound value cannot be boolean"), id="bool-value"),
        pytest.param(lambda: SunflowerWitness((0, 1, 2), kernel={5, 3}).to_json_dict(),
                     {"members": [0, 1, 2], "kernel": [3, 5]}, id="witness-json-no-family"),
    ],
)
def test_checks_no_other_test_reaches(call, expected):
    if isinstance(expected, Exception):
        with pytest.raises(type(expected), match=re.escape(str(expected))):
            call()
    else:
        assert call() == expected


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


def _sample(decorate, make_field):
    class Sample:
        """A record using every feature the package's records use."""

        name: str
        size: int = 3
        labels: dict | None = make_field(default=None, compare=False)

        def __post_init__(self):
            if self.size < 0:
                raise ValueError("size must be non-negative")
            object.__setattr__(self, "name", str(self.name))

        @cached_property
        def double(self) -> int:
            return 2 * self.size

    return decorate(Sample)


class TestRecordMatchesFrozenDataclass:
    """`record` against the stdlib's frozen dataclass as the reference."""

    RECORD = _sample(record, field)
    REFERENCE = _sample(dataclasses.dataclass(frozen=True), dataclasses.field)
    CALLS = [
        ((7,), {}),
        (("a", 5), {}),
        (("a",), {"labels": {1: "x"}}),
        ((), {"name": "a", "size": 0, "labels": {}}),
    ]

    def test_signature_and_match_args(self):
        assert inspect.signature(self.RECORD) == inspect.signature(self.REFERENCE)
        assert self.RECORD.__match_args__ == self.REFERENCE.__match_args__ == (
            "name", "size", "labels")

    @pytest.mark.parametrize("args,kwargs", CALLS)
    def test_repr_hash_and_post_init(self, args, kwargs):
        ours, ref = self.RECORD(*args, **kwargs), self.REFERENCE(*args, **kwargs)
        assert repr(ours) == repr(ref)
        assert hash(ours) == hash(ref)
        assert (ours.name, ours.size, ours.labels) == (ref.name, ref.size, ref.labels)
        assert ours.double == ref.double == 2 * ours.size
        assert vars(ours) == vars(ref)  # the cached value included

    @pytest.mark.parametrize("left,right", [
        (("a",), ("a",)),
        (("a", 3, {1: "x"}), ("a", 3)),  # labels take no part in ==
        (("a",), ("b",)),
        (("a", 3), ("a", 4)),
    ])
    def test_equality(self, left, right):
        expected = self.REFERENCE(*left) == self.REFERENCE(*right)
        assert (self.RECORD(*left) == self.RECORD(*right)) == expected
        assert (self.RECORD(*left) != self.RECORD(*right)) != expected
        assert self.RECORD(*left) != self.REFERENCE(*left)

    @pytest.mark.parametrize("args", [(), ("a", 1, None, 4)])
    def test_bad_arguments_raise_the_same_type_error(self, args):
        with pytest.raises(TypeError) as ours:
            self.RECORD(*args)
        with pytest.raises(TypeError) as ref:
            self.REFERENCE(*args)
        assert str(ours.value) == str(ref.value)

    def test_post_init_validation_runs(self):
        for cls in (self.RECORD, self.REFERENCE):
            with pytest.raises(ValueError, match="non-negative"):
                cls("a", -1)

    @pytest.mark.parametrize("name", ["name", "labels", "other"])
    def test_assignment_and_deletion_raise_attribute_error(self, name):
        for obj in (self.RECORD("a"), self.REFERENCE("a")):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(obj, name, 1)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(obj, name)

    def test_package_records_keep_value_semantics(self):
        fam = SetFamily((frozenset({1}),), {1: "a"})
        unlabelled = SetFamily((frozenset({1}),))
        assert fam == unlabelled and hash(fam) == hash(unlabelled)
        assert repr(ModulusVector((3, 3))) == "ModulusVector(moduli=(3, 3))"
        with pytest.raises(AttributeError):
            fam.members = ()
