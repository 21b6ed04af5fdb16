"""Language-level contract for multiplicative lattices.

A multiplicative lattice here is a complete lattice carrying a commutative
monoid multiplication whose identity is the top element and which
distributes over arbitrary joins.  Backends come in two kinds:

* finite, table-driven lattices that quantify exhaustively, and
* presented infinite lattices (``instances``) whose operations are closed
  forms and whose quantifiers run over a recorded :class:`TestWindow`.

Derived operations (residual, radical, localization, the principal-element
predicate family, dimension) have generic exhaustive implementations in
this module; instance backends override them with closed forms and remain
answerable to the defining formulas on their windows.

:class:`MultLattice` is the one backend protocol.  A new backend implements
the primitives (top, bottom, leq, mul, join2, meet2, and elements or
window) plus whichever of the declared methods below it can answer; every
caller calls them directly.  Declared methods with a generic form here
work on finite carriers (``proper_radicals_above``, ``maximals_above``,
``valuation``); the others raise :class:`~latfact.errors.CapabilityMissing`
unless the backend overrides them (``radical_product_membership``,
``principal_join_below``, ``unit_vector``/``maximal_index`` for maximal
spectra indexed by the naturals, and ``c_lattice_note``, the
justification that the backend is a C-lattice).  A caller that has
another way to answer catches ``CapabilityMissing`` and takes it.  What a
quantified verdict covers comes from the sample itself: a
:class:`TestWindow` carries its ``scope``, "exhaustive" for the whole of a
finite carrier and "window-verified" otherwise.

The predicate family runs on an :class:`OpTable` that the lattice creates
lazily and keeps while callers quantify over the same sample: it interns
elements to dense ints (the sample first) and memoizes leq, mul, join2,
meet2 and residual on those ids in one ``array('i')`` row per first
operand.  ``OpTable.lookup`` answers one pair per call; ``OpTable.pairs``
answers a whole row of pairs in one call, which the W^2 meet- and
join-principal loops use to compare one row of each side per outer
element.  A miss calls the backend's own primitive, so guards and closed
forms are unchanged and lookups that leave a window still reach the
closed form.

Lattice contexts are immutable after construction and every operation is
a pure read (the internal caches only memoize, and the op table interns
and grows its rows under its own lock); concurrent use needs no
synchronization, and reports iterate elements in canonical order so the
output does not depend on evaluation order.
"""

from __future__ import annotations

import itertools
import random
import threading
from array import array
from dataclasses import dataclass, field
from itertools import repeat
from typing import Hashable, Iterable, Optional, Sequence

from .errors import (
    CapabilityMissing,
    ForeignElement,
    HypothesisViolated,
    InvariantViolation,
    NotPrime,
)

_POWER_BOUND = 512  # longest power chain the generic valuation walks


@dataclass(frozen=True)
class ElemRef:
    """Opaque handle naming one element of a specific lattice context.

    Handles compare equal only inside one context; every backend operation
    rejects handles carrying a foreign ``lattice_id``.
    """

    lattice_id: str
    key: Hashable


@dataclass(frozen=True)
class TestWindow:
    """Finite quantification surface: a generated window of a presented
    lattice, or the whole of a finite carrier.

    Contains top and bottom and is closed under pairwise mul/join/meet up
    to the size budget under which it was generated.  ``scope`` labels the
    verdicts obtained by quantifying over it: "window-verified", never
    proved, unless the sample is the whole of a finite carrier
    ("exhaustive").
    """

    sample: tuple[ElemRef, ...]
    generation_note: str
    scope: str = "window-verified"

    __test__ = False  # keep pytest collection away from the Test- prefix

    def __iter__(self):
        return iter(self.sample)

    def __len__(self):
        return len(self.sample)


@dataclass
class PredicateRecord:
    """Element predicate flags with a witness for every false flag.

    ``ell_principal`` is meet principal and join principal together;
    ``ell_invertible`` adds cancellativity.  ``mode`` records whether the
    quantified flags were evaluated exhaustively or over a window.
    """

    element: ElemRef
    mode: str  # "exhaustive" | "window-verified"
    cancellative: bool = True
    weak_meet_principal: bool = True
    meet_principal: bool = True
    weak_join_principal: bool = True
    join_principal: bool = True
    ell_principal: bool = True
    ell_invertible: bool = True
    compact: bool = True
    ell_radical: bool = True
    ell_prime: bool = True
    maximal: bool = True
    witnesses: dict = field(default_factory=dict)

    def flag(self, name: str) -> bool:
        return getattr(self, name)


@dataclass
class LatticePredicates:
    """Whole-lattice flags: modularity, domain, principal generation."""

    mode: str
    modular: bool
    domain: bool
    principally_generated: bool
    witnesses: dict = field(default_factory=dict)


class OpTable:
    """Primitive results on interned element ids.

    Elements get dense ids in first-seen order, the quantifier sample the
    table was made for first, so sample elements get small ids.  Each of
    ``OPS`` keeps one ``array('i')`` row per first-operand id, indexed by
    the second-operand id and holding the result id (``leq``: 0 or 1), with
    -1 where nothing has been computed yet; a row is as long as the largest
    second operand requested of it and doubles when it grows.  mul, join2
    and meet2 are commutative by the lattice axioms, so they file an
    operand pair under its larger id; their rows are indexed by the smaller
    one and stay about as long as the sample.  ``lookup`` gives a function
    answering one pair per call and ``pairs`` answers a whole list of
    pairs in one call, from the same rows; a miss in either calls the
    backend's own method on the operands in the order they were asked
    for.  The table never references its lattice -- every lookup is
    handed it -- so the two are freed together by reference counting.  Interning and row growth run under one lock;
    reads take none, since a filled entry never changes.
    """

    OPS = ("leq", "mul", "join2", "meet2", "residual")
    COMMUTATIVE = frozenset({"mul", "join2", "meet2"})

    def __init__(self, sample: tuple[ElemRef, ...]):
        self.sample = sample
        self.refs: list[ElemRef] = []
        self._ids: dict = {}
        self._rows = {op: [] for op in self.OPS}
        self._lock = threading.Lock()
        self.sample_ids = [self.intern(ref) for ref in sample]

    def intern(self, ref: ElemRef) -> int:
        i = self._ids.get(ref)
        if i is None:
            with self._lock:
                i = self._ids.get(ref)
                if i is None:
                    i = len(self.refs)
                    self.refs.append(ref)
                    self._ids[ref] = i
        return i

    def lookup(self, lattice: "MultLattice", op: str):
        """``f(i, j) -> int`` evaluating ``lattice.<op>`` on ids."""
        rows = self._rows[op]
        miss = self._miss
        commutative = op in self.COMMUTATIVE

        def f(i, j):
            r, c = (j, i) if commutative and i < j else (i, j)
            try:
                v = rows[r][c]
            except (IndexError, TypeError):  # no row for r yet, or too short
                v = -1
            if v < 0:
                v = miss(lattice, op, i, j, r, c)
            return v

        return f

    def pairs(self, lattice: "MultLattice", op: str,
              left: Iterable[int], right: Iterable[int]) -> list[int]:
        """``[lattice.<op>(i, j) for i, j in zip(left, right)]`` on ids.

        The batched form of ``lookup``: one call fills a whole row of a
        quantifier loop from the same memo rows, with misses going through
        the same path, so a caller compares lists instead of making one
        Python call per entry.  Pass ``itertools.repeat(i)`` to hold an
        operand fixed.
        """
        rows = self._rows[op]
        miss = self._miss
        commutative = op in self.COMMUTATIVE
        out = []
        append = out.append
        for i, j in zip(left, right):
            if commutative and i < j:
                r, c = j, i
            else:
                r, c = i, j
            try:
                v = rows[r][c]
            except (IndexError, TypeError):  # no row for r yet, or too short
                v = -1
            if v < 0:
                v = miss(lattice, op, i, j, r, c)
            append(v)
        return out

    def _miss(self, lattice, op, i, j, r, c) -> int:
        result = getattr(lattice, op)(self.refs[i], self.refs[j])
        v = int(result) if op == "leq" else self.intern(result)
        with self._lock:
            rows = self._rows[op]
            if r >= len(rows):
                rows.extend([None] * (r + 1 - len(rows)))
            row = rows[r]
            if row is None:
                row = rows[r] = array("i", [-1]) * (c + 1)
            elif c >= len(row):
                row.extend(array("i", [-1]) * (max(c + 1, 2 * len(row)) - len(row)))
            row[c] = v
        return v


class MultLattice:
    """Abstract multiplicative lattice backend.

    Subclasses provide the primitive operations (order, mul, binary join
    and meet, top/bottom) and enumeration or window machinery; the derived
    operations below work for any finite backend and are overridden with
    closed forms by the shipped instances.
    """

    def __init__(self, lattice_id: str):
        self.id = lattice_id
        self._radical_cache: dict = {}
        self._localize_cache: dict = {}
        self._primes_cache: Optional[list] = None
        self._maximals_cache: Optional[list] = None
        self._ops: Optional[OpTable] = None

    # ------------------------------------------------------------------
    # primitives
    # ------------------------------------------------------------------

    @property
    def top(self) -> ElemRef:
        raise NotImplementedError

    @property
    def bottom(self) -> ElemRef:
        raise NotImplementedError

    def leq(self, x: ElemRef, y: ElemRef) -> bool:
        raise NotImplementedError

    def mul(self, x: ElemRef, y: ElemRef) -> ElemRef:
        raise NotImplementedError

    def join2(self, x: ElemRef, y: ElemRef) -> ElemRef:
        raise NotImplementedError

    def meet2(self, x: ElemRef, y: ElemRef) -> ElemRef:
        raise NotImplementedError

    def label(self, x: ElemRef) -> str:
        return repr(x.key)

    # ------------------------------------------------------------------
    # enumeration surface
    # ------------------------------------------------------------------

    def elements(self) -> Sequence[ElemRef]:
        raise CapabilityMissing(f"{self.id}: carrier is not finitely enumerable")

    def window(self, budget: int = 48, seed: int = 0) -> TestWindow:
        """Quantification sample.  This generic form is the whole finite
        carrier, scoped exhaustive; presented backends override it with a
        generated window."""
        return TestWindow(tuple(self.elements()), "entire finite carrier", "exhaustive")

    def is_compact(self, x: ElemRef) -> bool:
        """Compactness, as the backend declares it (its class docstring
        gives the justification)."""
        self._own(x)
        raise CapabilityMissing(f"{self.id}: no compactness declaration")

    def c_lattice_note(self) -> str:
        """Why the backend is a C-lattice: generated under joins by a
        multiplicatively closed set of compact elements.  The SP checks
        take this as a hypothesis; a backend without a justification
        raises CapabilityMissing and fails it."""
        raise CapabilityMissing(f"{self.id}: no C-lattice justification")

    # ------------------------------------------------------------------
    # guards and folds
    # ------------------------------------------------------------------

    def _own(self, *refs: ElemRef) -> None:
        for ref in refs:
            if not isinstance(ref, ElemRef) or ref.lattice_id != self.id:
                raise ForeignElement(f"element {ref!r} does not belong to lattice {self.id!r}")

    def join(self, refs: Iterable[ElemRef]) -> ElemRef:
        """Finite join fold; the empty join is the bottom element."""
        acc = self.bottom
        for ref in refs:
            acc = self.join2(acc, ref)
        return acc

    def meet(self, refs: Iterable[ElemRef]) -> ElemRef:
        """Finite meet fold; the empty meet is the top element."""
        acc = self.top
        for ref in refs:
            acc = self.meet2(acc, ref)
        return acc

    def power(self, x: ElemRef, n: int) -> ElemRef:
        self._own(x)
        acc = self.top
        for _ in range(n):
            acc = self.mul(acc, x)
        return acc

    def lt(self, x: ElemRef, y: ElemRef) -> bool:
        return self.leq(x, y) and x != y

    # ------------------------------------------------------------------
    # derived operations (generic exhaustive forms)
    # ------------------------------------------------------------------

    def residual(self, y: ElemRef, x: ElemRef) -> ElemRef:
        """Largest a with a*x <= y, computed as the join over all such a."""
        self._own(y, x)
        return self.join(a for a in self.elements() if self.leq(self.mul(a, x), y))

    def radical(self, x: ElemRef) -> ElemRef:
        """Join of all y with some power below x.

        Finite backends compute both the power-join form and the meet of
        the primes above x and insist the two agree; the prime-meet value
        is returned.
        """
        self._own(x)
        cached = self._radical_cache.get(x)
        if cached is not None:
            return cached
        qualifiers = [y for y in self.elements() if self._some_power_below(y, x)]
        by_powers = self.join(qualifiers)
        by_primes = self.meet(q for q in self.primes() if self.leq(x, q))
        if by_powers != by_primes:
            raise InvariantViolation(
                f"{self.id}: radical forms disagree at {self.label(x)}: "
                f"power-join {self.label(by_powers)} vs prime-meet {self.label(by_primes)}"
            )
        self._radical_cache[x] = by_primes
        return by_primes

    def _some_power_below(self, y: ElemRef, x: ElemRef) -> bool:
        seen = set()
        cur = y
        while cur not in seen:
            if self.leq(cur, x):
                return True
            seen.add(cur)
            cur = self.mul(cur, y)
        return False

    def localize(self, x: ElemRef, p: ElemRef) -> ElemRef:
        """Join of compact a admitting a compact b not below p with a*b <= x."""
        self._own(x, p)
        if not self.is_prime_elem(p):
            raise NotPrime(f"{self.label(p)} is not a prime element of {self.id}")
        key = (x, p)
        cached = self._localize_cache.get(key)
        if cached is not None:
            return cached
        carrier = list(self.elements())
        outside = [b for b in carrier if not self.leq(b, p)]
        result = self.join(
            a for a in carrier if any(self.leq(self.mul(a, b), x) for b in outside)
        )
        self._localize_cache[key] = result
        return result

    def valuation(self, x: ElemRef, m: ElemRef) -> int:
        """The exponent k with localize(x, m) = m ** k, for nonzero x and
        maximal m (``represent.v`` checks both).

        The generic form walks the power chain of m.  Outside the radical
        factorial hypotheses the matching power need not be unique; the
        smallest is returned, and HypothesisViolated when there is none.
        """
        target = self.localize(x, m)
        power = self.top
        for k in range(_POWER_BOUND):
            if power == target:
                return k
            nxt = self.mul(power, m)
            if nxt == power:
                break
            power = nxt
        raise HypothesisViolated(
            f"{self.id}: localization of {self.label(x)} at {self.label(m)} "
            f"is not a power of the maximal"
        )

    # ------------------------------------------------------------------
    # prime / maximal structure
    # ------------------------------------------------------------------

    def is_prime_elem(self, p: ElemRef) -> bool:
        self._own(p)
        if p == self.top:
            return False
        for a, b in itertools.combinations_with_replacement(self.elements(), 2):
            if self.leq(self.mul(a, b), p) and not (self.leq(a, p) or self.leq(b, p)):
                return False
        return True

    def is_maximal_elem(self, m: ElemRef) -> bool:
        self._own(m)
        if m == self.top:
            return False
        return not any(self.lt(m, y) and y != self.top for y in self.elements())

    def is_radical_elem(self, x: ElemRef) -> bool:
        return self.radical(x) == x

    def primes(self) -> list[ElemRef]:
        if self._primes_cache is None:
            self._primes_cache = [p for p in self.elements() if self.is_prime_elem(p)]
        return self._primes_cache

    def maximals(self) -> list[ElemRef]:
        if self._maximals_cache is None:
            self._maximals_cache = [m for m in self.elements() if self.is_maximal_elem(m)]
        return self._maximals_cache

    def maximals_above(self, x: ElemRef) -> list[ElemRef]:
        """The maximal elements above x, in catalog order."""
        self._own(x)
        return [m for m in self.maximals() if self.leq(x, m)]

    def proper_radicals_above(self, x: ElemRef) -> list[ElemRef]:
        """The radical elements above x other than the top: the candidate
        factors of a radical chain whose product is x."""
        self._own(x)
        return [r for r in self.elements()
                if self.is_radical_elem(r) and r != self.top and self.leq(x, r)]

    def minimal_primes_above(self, x: ElemRef) -> list[ElemRef]:
        self._own(x)
        above = [p for p in self.primes() if self.leq(x, p)]
        return [p for p in above if not any(self.lt(q, p) for q in above)]

    def dimension(self) -> int:
        """Length of the longest chain of prime elements, minus one."""
        primes = self.primes()
        order = sorted(range(len(primes)), key=lambda i: sum(
            1 for j in range(len(primes)) if self.leq(primes[j], primes[i])
        ))
        height = [1] * len(primes)
        for pos, i in enumerate(order):
            for j in order[:pos]:
                if self.lt(primes[j], primes[i]):
                    height[i] = max(height[i], height[j] + 1)
        return max(height, default=0) - 1

    # ------------------------------------------------------------------
    # closed-form catalogs (CapabilityMissing unless the backend has one)
    # ------------------------------------------------------------------

    def radical_product_membership(self, x: ElemRef) -> tuple:
        """Whether x is a product of radical elements, read off the
        backend's radical catalog: (True, the radical factors) or
        (False, None).  Finite carriers saturate the radicals under
        products; presented backends answer in closed form."""
        raise CapabilityMissing(f"{self.id}: no radical catalog; use the factorization engine")

    def principal_join_below(self, x: ElemRef) -> ElemRef:
        """Join of the principal elements below x in the full lattice.

        A window cannot attain such a join when it is a proper limit of
        principals, so only a backend that knows it in closed form
        declares it; ``lattice_predicates`` quantifies over its sample
        otherwise."""
        raise CapabilityMissing(f"{self.id}: no closed form for joins of principals")

    def unit_vector(self, index: int) -> ElemRef:
        """The maximal element at ``index`` of a countably infinite maximal
        spectrum indexed by the naturals."""
        raise CapabilityMissing(f"{self.id}: the maximal spectrum is not indexed by the naturals")

    def maximal_index(self, m: ElemRef) -> int:
        """The index of the maximal element m; inverse to ``unit_vector``."""
        raise CapabilityMissing(f"{self.id}: the maximal spectrum is not indexed by the naturals")

    # ------------------------------------------------------------------
    # predicate family
    # ------------------------------------------------------------------

    def _quantifier_sample(self, sample: Optional[TestWindow]) -> tuple[tuple[ElemRef, ...], str]:
        """The refs to quantify over and their scope: the given sample, or
        else the backend's own window."""
        win = sample if sample is not None else self.window()
        return tuple(win.sample), win.scope

    def _op_table(self, refs: tuple[ElemRef, ...]) -> OpTable:
        """The lattice's op table for this quantifier sample.

        The table is made on first use and kept while callers quantify
        over the same sample; another sample gets a fresh table, so its
        elements take the small ids.  Threads that race here may each get
        a table of their own, which costs only the sharing.
        """
        table = self._ops
        if table is None or table.sample != refs:
            table = self._ops = OpTable(refs)
        return table

    def element_predicates(self, x: ElemRef, sample: Optional[TestWindow] = None) -> PredicateRecord:
        """Evaluate the full predicate family at x from the defining formulas.

        Quantified flags run over the whole carrier (finite backends) or a
        window; compactness, primality and maximality use the backend's
        exact catalogs where they exist.  A witness is recorded for every
        false flag.
        """
        self._own(x)
        refs, mode = self._quantifier_sample(sample)
        rec = PredicateRecord(element=x, mode=mode)
        table = self._op_table(refs)
        ref_of = table.refs
        ids = table.sample_ids
        xi = table.intern(x)
        leq, mul, join2, meet2, residual = (table.lookup(self, op) for op in OpTable.OPS)
        pairs = table.pairs
        zero_res = residual(table.intern(self.bottom), xi)
        mul_row = pairs(self, "mul", repeat(xi), ids)  # x*y for y in ids
        res_row = pairs(self, "residual", ids, repeat(xi))  # (y : x) for y in ids

        first_with_product: dict = {}
        for y, product in zip(ids, mul_row):
            other = first_with_product.setdefault(product, y)
            if other != y:
                rec.cancellative = False
                rec.witnesses["cancellative"] = (ref_of[other], ref_of[y])
                break

        for y, res in zip(ids, res_row):
            if meet2(xi, y) != mul(res, xi):
                rec.weak_meet_principal = False
                rec.witnesses["weak_meet_principal"] = (ref_of[y],)
                break

        # The W^2 loops build one row of each side per outer element y and
        # compare the rows; the first mismatching column gives the first
        # failing pair (y, z) in product order.
        if not rec.weak_meet_principal:
            rec.meet_principal = False  # meet principal implies the weak form
            rec.witnesses["meet_principal"] = rec.witnesses["weak_meet_principal"]
        else:
            for y, res in zip(ids, res_row):
                left = pairs(self, "meet2", repeat(y), mul_row)
                right = pairs(self, "mul", pairs(self, "meet2", repeat(res), ids), repeat(xi))
                if left != right:
                    rec.meet_principal = False
                    rec.witnesses["meet_principal"] = (
                        ref_of[y], ref_of[ids[_first_mismatch(left, right)]])
                    break

        for y, product in zip(ids, mul_row):
            if not leq(residual(product, xi), join2(y, zero_res)):
                rec.weak_join_principal = False
                rec.witnesses["weak_join_principal"] = (ref_of[y],)
                break

        if not rec.weak_join_principal:
            rec.join_principal = False  # join principal implies the weak form
            rec.witnesses["join_principal"] = rec.witnesses["weak_join_principal"]
        else:
            for y, product in zip(ids, mul_row):
                left = pairs(self, "join2", repeat(y), res_row)
                right = pairs(self, "residual", pairs(self, "join2", repeat(product), ids),
                              repeat(xi))
                if left != right:
                    rec.join_principal = False
                    rec.witnesses["join_principal"] = (
                        ref_of[y], ref_of[ids[_first_mismatch(left, right)]])
                    break

        rec.ell_principal = rec.meet_principal and rec.join_principal
        if not rec.ell_principal:
            rec.witnesses.setdefault(
                "ell_principal",
                rec.witnesses.get("meet_principal", rec.witnesses.get("join_principal")),
            )
        rec.ell_invertible = rec.ell_principal and rec.cancellative
        if not rec.ell_invertible:
            rec.witnesses.setdefault(
                "ell_invertible",
                rec.witnesses.get("ell_principal", rec.witnesses.get("cancellative")),
            )

        rec.compact = self.is_compact(x)
        rec.ell_radical = self.is_radical_elem(x)
        if not rec.ell_radical:
            rec.witnesses["ell_radical"] = (self.radical(x),)
        rec.ell_prime = self.is_prime_elem(x)
        rec.maximal = self.is_maximal_elem(x)
        return rec

    def lattice_predicates(self, sample: Optional[TestWindow] = None) -> LatticePredicates:
        """Modularity, domain, and principal generation over the sample."""
        refs, mode = self._quantifier_sample(sample)
        out = LatticePredicates(mode=mode, modular=True, domain=True, principally_generated=True)
        table = self._op_table(refs)
        ref_of = table.refs
        ids = table.sample_ids
        leq, mul, join2, meet2 = (table.lookup(self, op) for op in ("leq", "mul", "join2", "meet2"))

        for x, y, z in itertools.product(ids, ids, ids):
            if leq(x, z) and meet2(join2(x, y), z) != join2(x, meet2(y, z)):
                out.modular = False
                out.witnesses["modular"] = (ref_of[x], ref_of[y], ref_of[z])
                break

        bottom = table.intern(self.bottom)
        for a, b in itertools.combinations_with_replacement(ids, 2):
            if a != bottom and b != bottom and mul(a, b) == bottom:
                out.domain = False
                out.witnesses["domain"] = (ref_of[a], ref_of[b])
                break

        try:
            bad = next((x for x in refs if self.principal_join_below(x) != x), None)
            out.witnesses["principally_generated_scope"] = "closed-form"
        except CapabilityMissing:
            window = TestWindow(refs, "shared predicate sample", mode)
            principal = [r for r in refs if self.element_predicates(r, window).ell_principal]
            bad = next((x for x in refs
                        if self.join(p for p in principal if self.leq(p, x)) != x), None)
        if bad is not None:
            out.principally_generated = False
            out.witnesses["principally_generated"] = (bad,)
        return out


def _first_mismatch(left: list, right: list) -> int:
    """Index of the first position where two equal-length rows differ."""
    return next(k for k, (a, b) in enumerate(zip(left, right)) if a != b)


def grow_window(
    lattice: MultLattice,
    seeds: Sequence[ElemRef],
    budget: int,
    note: str,
    extra: Sequence[ElemRef] = (),
) -> TestWindow:
    """Deterministically close a seed sample under mul/join/meet up to budget.

    Elements are kept in first-seen order with top, bottom and the seeds in
    front, so reports quantified over the window are reproducible.
    """
    ordered: list[ElemRef] = []
    seen = set()

    def add(ref):
        if ref not in seen:
            seen.add(ref)
            ordered.append(ref)

    add(lattice.top)
    add(lattice.bottom)
    for ref in seeds:
        add(ref)
    for ref in extra:
        add(ref)
    frontier = 0
    while len(ordered) < budget:
        before = len(ordered)
        pool = list(ordered)
        for a in pool[frontier:]:
            for b in pool:
                for combined in (lattice.mul(a, b), lattice.join2(a, b), lattice.meet2(a, b)):
                    add(combined)
                    if len(ordered) >= budget:
                        break
                if len(ordered) >= budget:
                    break
            if len(ordered) >= budget:
                break
        if len(ordered) == before:
            break
        frontier = before
    return TestWindow(tuple(ordered), note)


def seeded_rng(seed: int) -> random.Random:
    """Local RNG so sampled suites never touch global random state."""
    return random.Random(seed)
