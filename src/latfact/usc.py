"""Compactly supported upper semicontinuous functions into the naturals.

Values form a multiplicative lattice under the order dual to the pointwise
one: the zero function is the top element and the identity for pointwise
addition (the lattice product), joins are pointwise minima, finite meets
pointwise maxima, and an absorbing bottom ``b`` is adjoined.  Such a
function takes finitely many values and splits along its level sets into a
sum of characteristic functions of compact sets; those characteristic
functions are exactly the radical elements, which makes every value a
product of radicals constructively.

Three space kinds are shipped: finite and countable discrete spaces
(compact = finite) and the one-point compactification of a countable
discrete space, carried as its eventually-constant function subfamily
(exceptional finite map + tail default + value at the added point).  That
subfamily is closed under addition, binary joins/meets and decomposition.
Arbitrary infinite meets have no finite representation and are not
exposed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import BottomElement, EmptyFamily, ParseError, SpaceMismatch

FINITE_DISCRETE = "finite_discrete"
COUNTABLE_DISCRETE = "countable_discrete"
ONE_POINT = "one_point_compactified"


class _InfinityPoint:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INF = _InfinityPoint()


@dataclass(frozen=True)
class Space:
    """One of the shipped Hausdorff spaces; points are naturals (plus the
    added point for the compactified kind)."""

    kind: str
    size: Optional[int] = None

    def __post_init__(self):
        if self.kind not in (FINITE_DISCRETE, COUNTABLE_DISCRETE, ONE_POINT):
            raise ParseError(f"unknown space kind {self.kind!r}")
        if self.kind == FINITE_DISCRETE and (self.size is None or self.size < 1):
            raise ParseError("finite discrete space needs a positive size")
        if self.kind != FINITE_DISCRETE and self.size is not None:
            raise ParseError(f"{self.kind} takes no size")

    @property
    def discrete(self) -> bool:
        return self.kind in (FINITE_DISCRETE, COUNTABLE_DISCRETE)

    def valid_point(self, p) -> bool:
        if p is INF:
            return self.kind == ONE_POINT
        if not isinstance(p, int) or p < 0:
            return False
        return self.size is None or p < self.size


def finite_discrete(n: int) -> Space:
    return Space(FINITE_DISCRETE, n)


def countable_discrete() -> Space:
    return Space(COUNTABLE_DISCRETE)


def one_point_compactified() -> Space:
    return Space(ONE_POINT)


@dataclass(frozen=True)
class USCFun:
    """A compactly supported upper semicontinuous function, or the bottom.

    Discrete kinds: ``values`` is the finite support (point, value > 0).
    Compactified kind: ``values`` are the exceptions to ``default``, and
    ``at_infinity`` (>= default, forced by semicontinuity at the added
    point) is the value there.
    """

    space: Space
    is_bottom: bool = False
    values: tuple = ()
    default: int = 0
    at_infinity: int = 0

    def __post_init__(self):
        if self.is_bottom:
            if self.values or self.default or self.at_infinity:
                raise ParseError("the bottom carries no values")
            return
        pairs = tuple(sorted((int(p), int(v)) for p, v in self.values))
        object.__setattr__(self, "values", pairs)
        seen = set()
        for p, v in pairs:
            if not self.space.valid_point(p):
                raise ParseError(f"point {p} outside {self.space}")
            if p in seen:
                raise ParseError(f"duplicate point {p}")
            seen.add(p)
            if v < 0:
                raise ParseError("values must be nonnegative")
        if self.space.discrete:
            if self.default or self.at_infinity:
                raise ParseError("discrete functions have zero tail")
            if any(v == 0 for _, v in pairs):
                raise ParseError("support entries must be positive")
        else:
            if any(v == self.default for _, v in pairs):
                raise ParseError("exceptional entries must differ from the default")
            if self.at_infinity < self.default:
                raise ParseError("semicontinuity at the added point needs "
                                 "value at infinity >= tail default")

    # -- constructors ------------------------------------------------------

    @classmethod
    def bottom(cls, space: Space) -> "USCFun":
        return cls(space, is_bottom=True)

    @classmethod
    def zero(cls, space: Space) -> "USCFun":
        return cls(space)

    @classmethod
    def compactified(cls, exceptional: dict, default: int, at_infinity: int) -> "USCFun":
        space = one_point_compactified()
        vals = tuple((p, v) for p, v in exceptional.items() if v != default)
        return cls(space, values=vals, default=default, at_infinity=at_infinity)

    # -- evaluation ---------------------------------------------------------

    def at(self, point) -> int:
        if self.is_bottom:
            raise BottomElement("the bottom is not an integer-valued function")
        if not self.space.valid_point(point):
            raise ParseError(f"point {point!r} outside {self.space}")
        if point is INF:
            return self.at_infinity
        for p, v in self.values:
            if p == point:
                return v
        return self.default

    def positive_values(self) -> list[int]:
        if self.is_bottom:
            raise BottomElement("the bottom has no value set")
        vals = {v for _, v in self.values} | {self.default, self.at_infinity}
        return sorted(v for v in vals if v > 0)

    def max_value(self) -> int:
        vals = self.positive_values()
        return vals[-1] if vals else 0


@dataclass(frozen=True)
class CompactSet:
    """A compact subset of one of the shipped spaces.

    Discrete kinds carry a finite set of points.  The compactified kind
    carries either a finite set (with or without the added point) or a
    cofinite set, which must include the added point to be compact.
    """

    space: Space
    members: frozenset = frozenset()
    cofinite: bool = False
    include_inf: bool = False

    def __post_init__(self):
        if self.space.discrete and (self.cofinite or self.include_inf):
            raise ParseError("discrete compacts are finite point sets")
        if self.cofinite and not self.include_inf:
            raise ParseError("a cofinite set misses compactness without the added point")

    def contains(self, point) -> bool:
        if point is INF:
            return self.include_inf
        if self.cofinite:
            return point not in self.members  # members = excluded points
        return point in self.members

    def superset_of(self, other: "CompactSet") -> bool:
        if self.space != other.space:
            raise SpaceMismatch("compact sets over different spaces")
        probes = set(self.members) | set(other.members) | {self._fresh(other)}
        if self.space.kind == ONE_POINT:
            probes.add(INF)
        return all(self.contains(p) for p in probes if other.contains(p))

    def _fresh(self, other):
        fresh = 0
        used = set(self.members) | set(other.members)
        while fresh in used:
            fresh += 1
        return fresh

    def char(self) -> USCFun:
        """Characteristic function; a radical element of the lattice."""
        if self.space.discrete:
            return USCFun(self.space, values=tuple((p, 1) for p in self.members))
        if self.cofinite:
            return USCFun(self.space, values=tuple((p, 0) for p in self.members),
                          default=1, at_infinity=1)
        return USCFun(self.space, values=tuple((p, 1) for p in self.members),
                      default=0, at_infinity=1 if self.include_inf else 0)


@dataclass(frozen=True)
class Decomposition:
    """Level-set split of a function: base value, increments, and a weakly
    decreasing tower of compact level sets whose weighted characteristic
    sum reproduces the function."""

    space: Space
    values: tuple  # strictly increasing positive values k0 < ... < kn
    level_sets: tuple  # C0 >= C1 >= ... >= Cn

    @property
    def base_coefficient(self) -> int:
        return self.values[0] if self.values else 0

    def increments(self) -> list[int]:
        return [self.values[i] - self.values[i - 1] for i in range(1, len(self.values))]

    def radical_chain(self) -> list[USCFun]:
        """The canonical ascending chain of radical factors: C0 repeated
        k0 times, then each Ci repeated by its increment."""
        chain = []
        if not self.values:
            return chain
        chain.extend([self.level_sets[0].char()] * self.values[0])
        for i, inc in enumerate(self.increments(), start=1):
            chain.extend([self.level_sets[i].char()] * inc)
        return chain


# ---------------------------------------------------------------------------
# lattice operations
# ---------------------------------------------------------------------------


def _same_space(fs: Sequence[USCFun]) -> Space:
    space = fs[0].space
    for f in fs[1:]:
        if f.space != space:
            raise SpaceMismatch(f"{f.space} vs {space}")
    return space


def _combine(f: USCFun, g: USCFun, op) -> USCFun:
    space = _same_space([f, g])
    points = {p for p, _ in f.values} | {p for p, _ in g.values}
    if space.discrete:
        vals = {p: op(f.at(p), g.at(p)) for p in points}
        return USCFun(space, values=tuple((p, v) for p, v in vals.items() if v))
    default = op(f.default, g.default)
    vals = {p: op(f.at(p), g.at(p)) for p in points}
    return USCFun(space,
                  values=tuple((p, v) for p, v in vals.items() if v != default),
                  default=default,
                  at_infinity=op(f.at_infinity, g.at_infinity))


def add(f: USCFun, g: USCFun) -> USCFun:
    """Pointwise sum, the lattice product; the bottom is absorbing."""
    _same_space([f, g])
    if f.is_bottom or g.is_bottom:
        return USCFun.bottom(f.space)
    return _combine(f, g, lambda a, b: a + b)


def join_d(fs: Iterable[USCFun]) -> USCFun:
    """Pointwise minimum; the bottom is dropped unless it is all there is."""
    fs = list(fs)
    if not fs:
        raise EmptyFamily("join needs at least one operand")
    _same_space(fs)
    proper = [f for f in fs if not f.is_bottom]
    if not proper:
        return USCFun.bottom(fs[0].space)
    acc = proper[0]
    for f in proper[1:]:
        acc = _combine(acc, f, min)
    return acc


def meet_d(fs: Iterable[USCFun]) -> USCFun:
    """Pointwise maximum over a finite family; any bottom forces the bottom."""
    fs = list(fs)
    if not fs:
        raise EmptyFamily("meet needs at least one operand")
    _same_space(fs)
    if any(f.is_bottom for f in fs):
        return USCFun.bottom(fs[0].space)
    acc = fs[0]
    for f in fs[1:]:
        acc = _combine(acc, f, max)
    return acc


def leq_d(f: USCFun, g: USCFun) -> bool:
    """The dual order: f below g when f dominates g pointwise."""
    space = _same_space([f, g])
    if f.is_bottom:
        return True
    if g.is_bottom:
        return False
    if space.kind == FINITE_DISCRETE:
        points = range(space.size)
    else:
        supports = {p for p, _ in f.values} | {p for p, _ in g.values}
        fresh = 0
        while fresh in supports:
            fresh += 1
        points = set(supports) | {fresh}
        if space.kind == ONE_POINT:
            points.add(INF)
    return all(f.at(p) >= g.at(p) for p in points)


def scale(f: USCFun, n: int) -> USCFun:
    acc = USCFun.zero(f.space)
    for _ in range(n):
        acc = add(acc, f)
    return acc


def is_radical(f: USCFun):
    """A function is radical exactly when it is a characteristic function
    of a compact set, i.e. takes no value above one.

    Returns (flag, witness); for a non-radical f the witness is the pair
    (n, A) with n the maximal value and A the support: n * char(A) lies
    below f in the dual order yet char(A) does not.
    """
    if f.is_bottom:
        raise BottomElement("radicality is asked of proper functions only")
    n = f.max_value()
    if n <= 1:
        return True, None
    return False, (n, support_set(f))


def support_set(f: USCFun) -> CompactSet:
    return level_set(f, 1)


def level_set(f: USCFun, k: int) -> CompactSet:
    """Preimage of [k, infinity); compact for k >= 1."""
    if f.is_bottom:
        raise BottomElement("the bottom has no level sets")
    if k < 1:
        raise ParseError("level sets are taken at positive thresholds")
    exceptional = {p for p, v in f.values if v >= k}
    if f.space.discrete:
        return CompactSet(f.space, frozenset(exceptional))
    inf_in = f.at_infinity >= k
    if f.default >= k:
        excluded = {p for p, v in f.values if v < k}
        return CompactSet(f.space, frozenset(excluded), cofinite=True, include_inf=inf_in)
    return CompactSet(f.space, frozenset(exceptional), include_inf=inf_in)


def decompose(f: USCFun) -> Decomposition:
    """Split f along its level sets; recomposition is exact and the
    expanded multiset of characteristic functions is the canonical
    ascending radical chain of f."""
    if f.is_bottom:
        raise BottomElement("the bottom does not decompose")
    values = tuple(f.positive_values())
    levels = tuple(level_set(f, k) for k in values)
    return Decomposition(f.space, values, levels)


def recompose(d: Decomposition) -> USCFun:
    acc = USCFun.zero(d.space)
    if not d.values:
        return acc
    acc = add(acc, scale(d.level_sets[0].char(), d.values[0]))
    for i, inc in enumerate(d.increments(), start=1):
        acc = add(acc, scale(d.level_sets[i].char(), inc))
    return acc


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def space_to_doc(space: Space) -> dict:
    doc = {"kind": space.kind}
    if space.size is not None:
        doc["points"] = space.size
    return doc


def space_from_doc(doc: dict) -> Space:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ParseError("space descriptor needs a 'kind'")
    return Space(doc["kind"], doc.get("points"))


def fun_to_doc(f: USCFun) -> dict:
    doc = {"space": space_to_doc(f.space)}
    if f.is_bottom:
        doc["bottom"] = True
        return doc
    if f.values:
        doc["support"] = [[p, v] for p, v in f.values]
    if f.default:
        doc["default"] = f.default
    if f.at_infinity:
        doc["infinity"] = f.at_infinity
    return doc


def fun_from_doc(doc: dict) -> USCFun:
    if not isinstance(doc, dict):
        raise ParseError("function document must be an object")
    space = space_from_doc(doc.get("space", {}))
    if doc.get("bottom"):
        return USCFun.bottom(space)
    support = doc.get("support", [])
    pairs = tuple((int(p), int(v)) for p, v in support)
    return USCFun(space, values=pairs,
                  default=int(doc.get("default", 0)),
                  at_infinity=int(doc.get("infinity", 0)))


# ---------------------------------------------------------------------------
# sampling and exhaustive enumeration (test surface)
# ---------------------------------------------------------------------------


def random_function(space: Space, rng, max_value: int = 5, max_points: int = 6) -> USCFun:
    if space.kind == FINITE_DISCRETE:
        return USCFun(space, values=tuple(
            (p, v) for p in range(space.size) if (v := rng.randrange(0, max_value + 1))
        ))
    if space.kind == COUNTABLE_DISCRETE:
        pts = rng.sample(range(3 * max_points), rng.randrange(0, max_points + 1))
        return USCFun(space, values=tuple(
            (p, rng.randrange(1, max_value + 1)) for p in pts
        ))
    default = rng.randrange(0, max_value)
    pts = rng.sample(range(3 * max_points), rng.randrange(0, max_points + 1))
    exceptional = {}
    for p in pts:
        v = rng.randrange(0, max_value + 1)
        if v != default:
            exceptional[p] = v
    return USCFun.compactified(exceptional, default,
                               default + rng.randrange(0, max_value - default + 1))


def all_functions(space: Space, max_value: int):
    """Every function on a finite discrete space with values up to the cap."""
    if space.kind != FINITE_DISCRETE:
        raise ParseError("exhaustive enumeration needs a finite space")
    for combo in itertools.product(range(max_value + 1), repeat=space.size):
        yield USCFun(space, values=tuple((p, v) for p, v in enumerate(combo) if v))


def definitional_radical(f: USCFun, fragment: Sequence[USCFun]) -> USCFun:
    """The radical from its defining formula: the join of all g in the
    quantification fragment with some multiple of g below f dually.

    Capping the fragment's values is sound: any qualifying g outside the
    cap dominates the characteristic function of its support, which also
    qualifies and contributes at least as much to the pointwise-min join.
    """
    if f.is_bottom:
        raise BottomElement("the bottom does not decompose")
    n = max(f.max_value(), 1)
    qualifiers = [g for g in fragment if not g.is_bottom and leq_d(scale(g, n), f)]
    return join_d(qualifiers) if qualifiers else USCFun.zero(f.space)
