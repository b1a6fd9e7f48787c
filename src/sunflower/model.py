"""Domain types: set families, vector families, partitions, witnesses, reports.

Families are immutable once built.  Member order is preserved from input
(reductions and searches report indices into that order), while each member
is an unordered set or a coordinate tuple.  The text parser assigns dense
integer ids to element tokens and keeps the original tokens in a label
table; derived families (after stripping or restriction) may hold non-dense
ids, which is fine everywhere downstream.

Text formats are documented in docs/formats.md.  In short: set families are
one member per line, whitespace-separated element tokens, '#' starts a
comment; vector families are one comma-separated vector per line.  A line
that is empty after comment removal but contained a comment marker is
skipped; a genuinely blank line inside a set family is an empty member and
is rejected unless empty members were explicitly allowed.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from functools import cached_property
from operator import contains

from .errors import (
    ArityMismatch,
    BadArity,
    DomainError,
    DuplicateMember,
    EmptySet,
    OutOfRange,
)


def _first_outside(vec: tuple[int, ...], ranges: tuple[range, ...]) -> tuple[int, int] | None:
    """The first coordinate c of ``vec`` outside its range(d), as (c, d), or None.

    The check runs as C-level calls; only a vector that fails it is walked
    in Python.
    """
    if all(map(contains, ranges, vec)):
        return None
    return next((c, r.stop) for c, r in zip(vec, ranges) if c not in r)


def _check_distinct(items: Sequence, what: str, exc=DuplicateMember) -> None:
    seen = {}
    for idx, item in enumerate(items):
        if item in seen:
            raise exc(f"{what} {idx} repeats {what} {seen[item]}")
        seen[item] = idx


_NO_DEFAULT = object()


class _Field:
    __slots__ = ("default", "compare")

    def __init__(self, default, compare: bool):
        self.default = default
        self.compare = compare


def field(*, default, compare: bool = True) -> _Field:
    """A record field's default; ``compare=False`` leaves it out of ``==`` and hash."""
    return _Field(default, compare)


def _key(self) -> tuple:
    return tuple([self.__dict__[name] for name in self._compared])


def _eq(self, other):
    if other.__class__ is self.__class__:
        return _key(self) == _key(other)
    return NotImplemented


def _hash(self) -> int:
    return hash(_key(self))


def _repr(self) -> str:
    body = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self.__match_args__)
    return f"{type(self).__qualname__}({body})"


def _setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls):
    """Make ``cls`` an immutable record of its annotated fields, as ``dataclass(frozen=True)``.

    Loading ``dataclasses`` imports ``inspect`` and generates six methods
    per class; this generates only ``__init__`` (fields in annotation order,
    defaults from the class body, then ``__post_init__`` if the class has
    one) and shares the rest: equality and hash over the compared fields, a
    repr of every field, and assignment and deletion raising
    ``AttributeError``.  Records do not inherit.  Without ``__slots__``,
    ``cached_property`` works and ``__post_init__`` may normalize fields with
    ``object.__setattr__``.
    """
    annotations = cls.__dict__.get("__annotations__", {})
    names = tuple(annotations)
    defaults, compared = {}, []
    for name in names:
        default, compare = cls.__dict__.get(name, _NO_DEFAULT), True
        if isinstance(default, _Field):
            default, compare = default.default, default.compare
            setattr(cls, name, default)
        if compare:
            compared.append(name)
        if default is not _NO_DEFAULT:
            defaults[name] = default
    params = "".join(f", {n}=_defaults[{n!r}]" if n in defaults else f", {n}" for n in names)
    lines = [f"    _set(self, {n!r}, {n})" for n in names]
    if hasattr(cls, "__post_init__"):
        lines.append("    self.__post_init__()")
    namespace = {"__name__": cls.__module__, "_defaults": defaults, "_set": object.__setattr__}
    exec("\n".join([f"def __init__(self{params}):", *lines]), namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {**annotations, "return": None}
    cls.__init__ = init
    cls.__match_args__ = names
    cls._compared = tuple(compared)
    cls.__eq__, cls.__hash__, cls.__repr__ = _eq, _hash, _repr
    cls.__setattr__, cls.__delattr__ = _setattr, _delattr
    return cls


@record
class SetFamily:
    """Finite family of finite sets over non-negative integer element ids.

    ``labels`` maps ids back to external tokens and never takes part in
    equality; two families are equal when their member tuples are equal.
    """

    members: tuple[frozenset[int], ...]
    labels: Mapping[int, str] | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(frozenset(m) for m in self.members))
        for mem in self.members:
            for e in mem:
                if not isinstance(e, int) or e < 0:
                    raise OutOfRange(f"element ids must be non-negative integers, got {e!r}")
        _check_distinct(self.members, "member")
        if self.labels is not None:
            object.__setattr__(self, "labels", dict(self.labels))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    @cached_property
    def universe(self) -> frozenset[int]:
        out: set[int] = set()
        for mem in self.members:
            out |= mem
        return frozenset(out)

    @cached_property
    def uniformity(self) -> int | None:
        """Common member size, or None when sizes are mixed or the family is empty."""
        sizes = {len(m) for m in self.members}
        if len(sizes) == 1:
            return sizes.pop()
        return None

    def label(self, e: int) -> str:
        if self.labels is not None and e in self.labels:
            return self.labels[e]
        return str(e)

    def member_labels(self, mem: Iterable[int]) -> list[str]:
        return [self.label(e) for e in sorted(mem)]

    def to_text(self) -> str:
        lines = [" ".join(self.member_labels(mem)) for mem in self.members]
        return "".join(line + "\n" for line in lines)

    def to_json_dict(self) -> dict:
        return {
            "members": [sorted(mem) for mem in self.members],
            "labels": {str(e): self.label(e) for e in sorted(self.universe)},
        }

    @staticmethod
    def from_json_dict(obj: Mapping) -> "SetFamily":
        if "members" not in obj:
            raise DomainError("set family JSON needs a 'members' key")
        labels = None
        if obj.get("labels"):
            labels = {int(k): str(v) for k, v in obj["labels"].items()}
        return SetFamily(tuple(frozenset(m) for m in obj["members"]), labels)


def union_size(family: SetFamily) -> int:
    """Number of elements appearing in at least one member."""
    return len(family.universe)


@record
class ModulusVector:
    """Tuple of per-coordinate moduli, each at least 2."""

    moduli: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "moduli", tuple(int(d) for d in self.moduli))
        for d in self.moduli:
            if d < 2:
                raise DomainError(f"modulus {d} is below 2")

    @property
    def n(self) -> int:
        return len(self.moduli)

    def __iter__(self):
        return iter(self.moduli)

    def __len__(self) -> int:
        return len(self.moduli)

    def point_count(self) -> int:
        return math.prod(self.moduli)

    def require_min(self, lo: int) -> None:
        """Raise unless every modulus is at least ``lo``."""
        for d in self.moduli:
            if d < lo:
                raise DomainError(f"modulus {d} is below the required minimum {lo}")


def as_modulus_vector(moduli) -> ModulusVector:
    if isinstance(moduli, ModulusVector):
        return moduli
    return ModulusVector(tuple(moduli))


@record
class VectorFamily:
    """Family of distinct vectors, coordinate i ranging over [0, moduli[i])."""

    moduli: ModulusVector
    members: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        mv = as_modulus_vector(self.moduli)
        object.__setattr__(self, "moduli", mv)
        object.__setattr__(self, "members", tuple(tuple(map(int, v)) for v in self.members))
        n, ranges = mv.n, tuple(map(range, mv))
        for v in self.members:
            if len(v) != n:
                raise ArityMismatch(f"vector {v} has {len(v)} coordinates, expected {n}")
            bad = _first_outside(v, ranges)
            if bad is not None:
                raise OutOfRange(f"coordinate {bad[0]} outside [0, {bad[1]}) in vector {v}")
        _check_distinct(self.members, "vector")

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def to_text(self) -> str:
        return "".join(",".join(str(c) for c in v) + "\n" for v in self.members)

    def to_json_dict(self) -> dict:
        return {
            "moduli": list(self.moduli),
            "members": [list(v) for v in self.members],
        }

    @staticmethod
    def from_json_dict(obj: Mapping) -> "VectorFamily":
        if "moduli" not in obj or "members" not in obj:
            raise DomainError("vector family JSON needs 'moduli' and 'members' keys")
        return VectorFamily(
            ModulusVector(tuple(obj["moduli"])),
            tuple(tuple(v) for v in obj["members"]),
        )


@record
class PartiteStructure:
    """Ordered partition of a ground set into pairwise disjoint classes."""

    classes: tuple[frozenset[int], ...]

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(frozenset(c) for c in self.classes))
        seen: set[int] = set()
        for i, cls in enumerate(self.classes):
            if seen & cls:
                raise DomainError(f"class {i} overlaps an earlier class")
            seen |= cls

    @property
    def k(self) -> int:
        return len(self.classes)

    @cached_property
    def ground(self) -> frozenset[int]:
        out: set[int] = set()
        for cls in self.classes:
            out |= cls
        return frozenset(out)

    @cached_property
    def class_of(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for i, cls in enumerate(self.classes):
            for e in cls:
                out[e] = i
        return out

    def is_transversal(self, mem: frozenset[int]) -> bool:
        """True when the member meets every class in exactly one element."""
        if len(mem) != self.k or not mem <= self.ground:
            return False
        hit = [0] * self.k
        for e in mem:
            hit[self.class_of[e]] += 1
        return all(h == 1 for h in hit)

    def to_json_dict(self) -> dict:
        return {"classes": [sorted(c) for c in self.classes]}


@record
class SunflowerWitness:
    """Indices of members forming a sunflower, plus the certifying structure.

    ``kernel`` is set for set-family witnesses; ``coordinate_classes`` (one of
    'all-equal' / 'all-distinct' per coordinate) for vector witnesses.
    """

    indices: tuple[int, ...]
    kernel: frozenset[int] | None = None
    coordinate_classes: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        if len(set(self.indices)) != len(self.indices):
            raise BadArity("witness indices must be distinct")
        if any(i < 0 for i in self.indices):
            raise BadArity("witness indices must be non-negative")
        if self.kernel is not None:
            object.__setattr__(self, "kernel", frozenset(self.kernel))

    def to_json_dict(self, family: SetFamily | None = None) -> dict:
        out: dict = {"members": list(self.indices)}
        if self.kernel is not None:
            if family is not None:
                out["kernel"] = family.member_labels(self.kernel)
            else:
                out["kernel"] = sorted(self.kernel)
        if self.coordinate_classes is not None:
            out["coordinate_classes"] = list(self.coordinate_classes)
        return out


EXACT_INT = "exact-int"
EXACT_RATIONAL = "exact-rational"
FLOAT_APPROX = "float"


@record
class BoundReport:
    """One evaluated bound: value, exactness class, and comparison strictness.

    Exact values carry no radius; float values carry an absolute error
    radius so that callers can certify inequalities conservatively.
    """

    name: str
    parameters: Mapping[str, object]
    value: int | Fraction | float
    exactness: str
    strictness: str = "at-most"
    radius: float | None = None
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "parameters", dict(self.parameters))
        if self.exactness in (EXACT_INT, EXACT_RATIONAL):
            if self.radius is not None:
                raise DomainError("exact bounds carry no error radius")
        elif self.exactness == FLOAT_APPROX:
            if self.radius is None:
                raise DomainError("float bounds must carry an error radius")
        else:
            raise DomainError(f"unknown exactness class {self.exactness!r}")

    def numeric(self) -> float:
        """float(value), saturating to inf where an exact value passes the double range."""
        try:
            return float(self.value)
        except OverflowError:
            return math.inf if self.value > 0 else -math.inf

    def admits(self, size: int) -> bool:
        """Whether a family of this size is consistent with the bound, radius included."""
        return size <= self.value + (self.radius or 0)

    def to_json_dict(self) -> dict:
        if isinstance(self.value, Fraction):
            value = f"{self.value.numerator}/{self.value.denominator}"
            approx = self.numeric()
        elif isinstance(self.value, bool):  # guard: bools are ints
            raise DomainError("bound value cannot be boolean")
        else:
            value = self.value
            approx = None
        out: dict = {
            "name": self.name,
            "parameters": {k: _json_param(v) for k, v in sorted(self.parameters.items())},
            "value": value,
            "exactness": self.exactness,
            "strictness": self.strictness,
        }
        if approx is not None:
            out["approx"] = approx
        if self.radius is not None:
            out["radius"] = self.radius
        if self.flags:
            out["flags"] = list(self.flags)
        return out


def _json_param(v):
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, tuple):
        return list(v)
    return v


def dump_json(obj) -> str:
    """Canonical JSON: sorted keys, no whitespace variation, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _split_comment(raw: str) -> tuple[str, bool]:
    if "#" in raw:
        return raw.split("#", 1)[0], True
    return raw, False


def parse_set_family(text: str, allow_empty: bool = False) -> SetFamily:
    """Parse the one-member-per-line set family format.

    Element tokens are compared as strings.  Ids are assigned densely in
    sorted token order (numeric order when every token is an integer), so
    parsing is deterministic and independent of member order.
    """
    raw_members: list[tuple[int, tuple[str, ...]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body, had_comment = _split_comment(raw)
        tokens = body.split()
        if not tokens:
            if had_comment:
                continue
            if not allow_empty:
                raise EmptySet(f"line {lineno}: empty member")
            # blank line accepted as the empty set
            raw_members.append((lineno, ()))
            continue
        raw_members.append((lineno, tuple(dict.fromkeys(tokens))))

    all_tokens = sorted({t for _, toks in raw_members for t in toks})
    try:
        all_tokens = sorted(all_tokens, key=lambda t: (int(t), t))
    except ValueError:
        pass  # non-numeric tokens: plain string order
    ids = {tok: i for i, tok in enumerate(all_tokens)}

    members: list[frozenset[int]] = []
    seen: dict[frozenset[int], int] = {}
    for lineno, toks in raw_members:
        mem = frozenset(ids[t] for t in toks)
        if mem in seen:
            raise DuplicateMember(
                f"line {lineno}: member repeats the member from line {seen[mem]}"
            )
        seen[mem] = lineno
        members.append(mem)
    return SetFamily(tuple(members), {i: t for t, i in ids.items()})


def parse_vector_family(text: str, moduli) -> VectorFamily:
    """Parse the one-vector-per-line comma-separated format.

    Each line is checked here, so that errors name it, and the family is
    built without checking its members a second time.
    """
    mv = as_modulus_vector(moduli)
    n, ranges = mv.n, tuple(map(range, mv))
    members: list[tuple[int, ...]] = []
    seen: dict[tuple[int, ...], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body, had_comment = _split_comment(raw)
        if not body.strip():
            if had_comment:
                continue
            raise ArityMismatch(f"line {lineno}: blank line in vector family")
        try:
            vec = tuple(map(int, body.split(",")))  # int() strips whitespace
        except ValueError:
            try:  # but not U+001F, which str.strip() removes
                vec = tuple(int(p.strip()) for p in body.split(","))
            except ValueError as exc:
                raise ArityMismatch(f"line {lineno}: non-integer coordinate") from exc
        if len(vec) != n:
            raise ArityMismatch(f"line {lineno}: vector has {len(vec)} coordinates, expected {n}")
        bad = _first_outside(vec, ranges)
        if bad is not None:
            raise OutOfRange(f"line {lineno}: coordinate {bad[0]} outside [0, {bad[1]})")
        if vec in seen:
            raise DuplicateMember(
                f"line {lineno}: vector repeats the vector from line {seen[vec]}"
            )
        seen[vec] = lineno
        members.append(vec)
    family = object.__new__(VectorFamily)
    object.__setattr__(family, "moduli", mv)
    object.__setattr__(family, "members", tuple(members))
    return family
