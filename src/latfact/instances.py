"""Presented lattices with closed-form arithmetic.

Four families, covering both the positive and the negative side of the
SP characterizations:

* ``dedekind(k)`` -- exponent-vector lattices modelling the nonzero ideals
  of a Dedekind domain with k (or countably many) maximal ideals, plus a
  zero element.  Multiplication adds exponents, order reverses the
  componentwise order, the radical clips exponents to one.
* ``power_of_j(j)`` -- the sublattice of elements containing a power of a
  fixed squarefree j, i.e. vectors supported inside supp(j).
* ``rank2_valuation()`` -- the chain of ideals of the rank-two lex value
  monoid; its prime chain has length three, so it is the stock
  counterexample with a nonmaximal prime.
* ``numerical_monoid(gens)`` -- ideals I = I + H of a numerical monoid
  under containment, with the bounded "members plus tail ray"
  representation.

Each backend declares its compact elements, its prime catalog and its
C-lattice justification (``c_lattice_note``) in closed form instead of a
computed certificate; its class docstring says why they hold, and the
closed forms are answerable to the defining formulas on windows (see the
instance tests).
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Optional, Sequence

from .core import ElemRef, MultLattice, TestWindow, grow_window, seeded_rng
from .errors import (
    CapabilityMissing,
    InvalidGenerators,
    NotPrime,
    NotRadical,
    ParseError,
    ZeroElement,
)

PRIME_LABELS = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)

ZERO_KEY = "zero"


def _vec_key(vec: dict) -> tuple:
    return tuple(sorted((i, e) for i, e in vec.items() if e > 0))


class DedekindExponentLattice(MultLattice):
    """Exponent-vector model of the ideals of a Dedekind domain.

    Nonzero elements are finite-support maps prime-index -> positive
    exponent (the empty map is the top / unit ideal); ``zero`` is the
    bottom.  Order: v <= w iff v dominates w componentwise (more factors
    means smaller ideal).  All nonzero elements are compact and
    invertible: they model principal-after-localization finitely
    generated ideals, and the bottom is compact trivially.  Exponent
    addition of nonzero vectors never reaches zero, so the lattice is a
    domain; it is distributive, hence modular.  The prime catalog is zero
    and the unit vectors.
    """

    def __init__(self, prime_count: Optional[int], lattice_id: Optional[str] = None,
                 indices: Optional[Sequence[int]] = None):
        if indices is not None:
            self.indices: Optional[tuple[int, ...]] = tuple(sorted(indices))
        elif prime_count is not None:
            if prime_count < 1:
                raise ParseError("dedekind instance needs at least one prime")
            self.indices = tuple(range(prime_count))
        else:
            self.indices = None  # countably many primes, labels on demand
        self._index_set = frozenset(self.indices) if self.indices is not None else None
        super().__init__(
            lattice_id or (f"dedekind:{prime_count}" if self.indices is not None
                           else "dedekind:unbounded"))

    # -- element handling -------------------------------------------------

    def _mk(self, vec: dict) -> ElemRef:
        key = _vec_key(vec)
        self._check_support(dict(key))
        return ElemRef(self.id, key)

    def _from_key(self, key: tuple) -> ElemRef:
        """The element with a canonical key (sorted, positive exponents)
        built by the caller; only the support is checked, in O(k)."""
        if self._index_set is not None:
            for i, _ in key:
                if i not in self._index_set:
                    raise ParseError(f"{self.id}: prime index {i} outside the instance")
        return ElemRef(self.id, key)

    def _check_support(self, vec: dict) -> None:
        if self.indices is not None:
            bad = [i for i in vec if i not in self.indices]
            if bad:
                raise ParseError(f"{self.id}: prime index {bad[0]} outside the instance")

    def vec(self, x: ElemRef) -> dict:
        self._own(x)
        if x.key == ZERO_KEY:
            raise ZeroElement(f"{self.id}: the zero element has no exponent vector")
        return dict(x.key)

    def is_zero(self, x: ElemRef) -> bool:
        self._own(x)
        return x.key == ZERO_KEY

    def element(self, exponents: dict) -> ElemRef:
        return self._mk({int(i): int(e) for i, e in exponents.items()})

    def element_to_doc(self, x: ElemRef) -> dict:
        """Sparse map {prime_index: exponent}; the zero element is marked."""
        self._own(x)
        if x.key == ZERO_KEY:
            return {"zero": True}
        return {str(i): e for i, e in x.key}

    def element_from_doc(self, doc: dict) -> ElemRef:
        if doc.get("zero"):
            return self.bottom
        return self.element({int(i): int(e) for i, e in doc.items()})

    def unit_vector(self, index: int) -> ElemRef:
        return self._mk({index: 1})

    def prime_label(self, index: int):
        return PRIME_LABELS[index] if index < len(PRIME_LABELS) else f"p{index}"

    @property
    def top(self) -> ElemRef:
        return ElemRef(self.id, ())

    @property
    def bottom(self) -> ElemRef:
        return ElemRef(self.id, ZERO_KEY)

    def label(self, x: ElemRef) -> str:
        self._own(x)
        if x.key == ZERO_KEY:
            return "zero"
        if not x.key:
            return "top"
        return ",".join(f"{self.prime_label(i)}:{e}" for i, e in x.key)

    # -- lattice primitives ------------------------------------------------

    def leq(self, x, y):
        self._own(x, y)
        if x.key == ZERO_KEY:
            return True
        if y.key == ZERO_KEY:
            return False
        xv, yv = dict(x.key), dict(y.key)
        return all(xv.get(i, 0) >= e for i, e in yv.items())

    def mul(self, x, y):
        self._own(x, y)
        if ZERO_KEY in (x.key, y.key):
            return self.bottom
        xv = dict(x.key)
        for i, e in y.key:
            xv[i] = xv.get(i, 0) + e
        return self._mk(xv)

    # join2, meet2 and residual build the canonical key straight from the
    # operands' sorted keys: a join keeps the common support at the smaller
    # exponent, a meet merges both supports at the larger, and y : x keeps
    # the primes where y has the larger exponent, at the difference.

    def join2(self, x, y):
        self._own(x, y)
        if x.key == ZERO_KEY:
            return y
        if y.key == ZERO_KEY:
            return x
        xv = dict(x.key)
        return self._from_key(tuple([(i, e if e <= f else f)
                                     for i, e in y.key if (f := xv.get(i))]))

    def meet2(self, x, y):
        self._own(x, y)
        if ZERO_KEY in (x.key, y.key):
            return self.bottom
        return self._from_key(_merge_max(x.key, y.key))

    # -- closed-form derived operations -------------------------------------

    def residual(self, y, x):
        self._own(y, x)
        if x.key == ZERO_KEY:
            return self.top
        if y.key == ZERO_KEY:
            return self.bottom
        xv = dict(x.key)
        return self._from_key(tuple([(i, e - f) for i, e in y.key
                                     if e > (f := xv.get(i, 0))]))

    def radical(self, x):
        self._own(x)
        if x.key == ZERO_KEY:
            return self.bottom
        return self._mk({i: 1 for i, _ in x.key})

    def localize(self, x, p):
        self._own(x, p)
        if not self.is_prime_elem(p):
            raise NotPrime(f"{self.label(p)} is not prime in {self.id}")
        if p.key == ZERO_KEY:
            return self.bottom if x.key == ZERO_KEY else self.top
        if x.key == ZERO_KEY:
            return self.bottom
        (idx, _), = p.key
        e = dict(x.key).get(idx, 0)
        return self._mk({idx: e})

    def is_compact(self, x):
        self._own(x)
        return True

    def c_lattice_note(self) -> str:
        return "every element is compact and a join of compacts"

    def is_prime_elem(self, p):
        self._own(p)
        return p.key == ZERO_KEY or (len(p.key) == 1 and p.key[0][1] == 1)

    def is_maximal_elem(self, m):
        self._own(m)
        return len(m.key) == 1 and m.key[0][1] == 1 if m.key != ZERO_KEY else False

    def is_radical_elem(self, x):
        self._own(x)
        return x.key == ZERO_KEY or all(e == 1 for _, e in x.key)

    def primes(self):
        if self.indices is None:
            raise CapabilityMissing(f"{self.id}: countably many primes, no finite catalog")
        return [self.bottom] + [self.unit_vector(i) for i in self.indices]

    def maximals(self):
        if self.indices is None:
            raise CapabilityMissing(f"{self.id}: countably many maximals")
        return [self.unit_vector(i) for i in self.indices]

    def minimal_primes_above(self, x):
        self._own(x)
        if x.key == ZERO_KEY:
            return [self.bottom]
        if not x.key:
            return []
        return [self.unit_vector(i) for i, _ in x.key]

    def dimension(self):
        # chain: zero < any unit vector; closed form independent of k
        return 1

    def valuation(self, x, m) -> int:
        """Exponent in x of the prime of the maximal m; the closed form
        behind v."""
        self._own(x)
        if x.key == ZERO_KEY:
            raise ZeroElement(f"{self.id}: valuation undefined at zero")
        return dict(x.key).get(self.maximal_index(m), 0)

    def maximal_index(self, m: ElemRef) -> int:
        self._own(m)
        if not self.is_maximal_elem(m):
            raise ParseError(f"{self.label(m)} is not a maximal element")
        return m.key[0][0]

    def maximals_above(self, x: ElemRef) -> list[ElemRef]:
        self._own(x)
        if x.key == ZERO_KEY:
            if self.indices is None:
                raise CapabilityMissing(f"{self.id}: zero lies below every maximal")
            return self.maximals()
        return [self.unit_vector(i) for i, _ in x.key]

    def principal_join_below(self, x: ElemRef) -> ElemRef:
        """Join of the principal elements below x in the full lattice;
        here every element is itself principal (zero included)."""
        self._own(x)
        return x

    def radical_product_membership(self, x: ElemRef):
        """Every element is a product of radical elements here: nonzero
        vectors decompose along their exponent level sets, zero is itself
        radical.  Returns (True, witness chain)."""
        self._own(x)
        if x.key == ZERO_KEY:
            return True, [self.bottom]
        if not x.key:
            return True, []
        return True, list(_level_chain(self, dict(x.key)))

    def proper_radicals_above(self, x: ElemRef) -> list[ElemRef]:
        """Proper radical elements >= x: subsets of the support of x."""
        self._own(x)
        if x.key == ZERO_KEY:
            raise ZeroElement(f"{self.id}: zero has no proper radical factor set")
        support = [i for i, _ in x.key]
        out = []
        for r in range(1, len(support) + 1):
            for combo in itertools.combinations(support, r):
                out.append(self._mk({i: 1 for i in combo}))
        return out

    def window(self, budget: int = 48, seed: int = 0) -> TestWindow:
        """Deterministic sample: a full small exponent grid when it fits,
        otherwise seeded sparse vectors; always closed under radicals."""
        active = self.indices if self.indices is not None else tuple(range(4))
        k = len(active)
        refs = []
        grid_max = 0
        while (grid_max + 2) ** k <= budget - 2 and grid_max < 8:
            grid_max += 1
        rng = seeded_rng(seed)
        if grid_max >= 2 or k == 1:
            for combo in itertools.product(range(grid_max + 1), repeat=k):
                refs.append(self._mk(dict(zip(active, combo))))
            note = f"exponent grid 0..{grid_max} over {k} primes, plus zero"
            attempts = 0
            while len(refs) < budget - 2 and attempts < 4 * budget:
                vec = {i: rng.randrange(0, grid_max + 4) for i in active}
                ref = self._mk(vec)
                if ref not in refs:
                    refs.append(ref)
                attempts += 1
            if attempts:
                note += f", topped up with seeded vectors (seed={seed})"
        else:
            for i in active:
                refs.append(self.unit_vector(i))
            while len(refs) < budget - 2:
                vec = {i: rng.randrange(0, 4) for i in rng.sample(active, min(3, k))}
                refs.append(self._mk(vec))
            note = f"seeded sparse vectors (seed={seed}) over {k} primes, plus zero"
        refs.extend(self.radical(r) for r in list(refs))
        ordered = []
        seen = set()
        for r in [self.top, self.bottom] + refs:
            if r not in seen:
                seen.add(r)
                ordered.append(r)
        return TestWindow(tuple(ordered), note)


def _merge_max(a: tuple, b: tuple) -> tuple:
    """Merge of two sorted (index, exponent) keys, the larger exponent
    where both have the index."""
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        p, q = a[i], b[j]
        if p[0] < q[0]:
            out.append(p)
            i += 1
        elif q[0] < p[0]:
            out.append(q)
            j += 1
        else:
            out.append(p if p[1] >= q[1] else q)
            i += 1
            j += 1
    return (*out, *a[i:], *b[j:])


def _level_chain(lattice: DedekindExponentLattice, vec: dict) -> Iterable[ElemRef]:
    """Ascending chain of squarefree vectors whose sum is vec."""
    values = sorted(set(vec.values()))
    prev = 0
    for v in values:
        level = {i for i, e in vec.items() if e >= v}
        piece = lattice._mk({i: 1 for i in level})
        for _ in range(v - prev):
            yield piece
        prev = v


def dedekind(k: Optional[int]) -> DedekindExponentLattice:
    """Exponent lattice over the first k primes (None = unbounded)."""
    return DedekindExponentLattice(k)


class PowerOfJSublattice(DedekindExponentLattice):
    """Elements of the exponent lattice supported inside supp(j), plus zero.

    Models the ideals containing a power of a fixed invertible radical
    zero-dimensional j; the maximal elements are the unit vectors in
    supp(j) and the spectrum is the discrete space on supp(j).
    """

    def __init__(self, j: dict):
        j = {int(i): int(e) for i, e in j.items() if e}
        if not j:
            raise NotRadical("j must be a nonzero squarefree vector")
        bad = [i for i, e in j.items() if e != 1]
        if bad:
            raise NotRadical(f"j has exponent >= 2 at prime index {bad[0]}")
        support = tuple(sorted(j))
        super().__init__(None,
                         lattice_id=f"power-of-j:{'.'.join(map(str, support))}",
                         indices=support)
        self.j = _vec_key(j)

    def j_element(self) -> ElemRef:
        return ElemRef(self.id, self.j)


def power_of_j(j: dict) -> PowerOfJSublattice:
    return PowerOfJSublattice(j)


def power_of_j_from_int(n: int) -> PowerOfJSublattice:
    """Build the sublattice for the principal ideal of a squarefree integer."""
    if n < 2:
        raise NotRadical(f"need a squarefree integer >= 2, got {n}")
    vec = {}
    rest = n
    for idx, p in enumerate(PRIME_LABELS):
        while rest % p == 0:
            vec[idx] = vec.get(idx, 0) + 1
            rest //= p
    if rest != 1:
        raise ParseError(f"{n} has a prime factor beyond the built-in labels")
    return PowerOfJSublattice(vec)


# ---------------------------------------------------------------------------
# rank-2 valuation monoid ideal lattice
# ---------------------------------------------------------------------------

_EMPTY = ("E",)


class Rank2ValuationIdealLattice(MultLattice):
    """Ideals of the positive cone of Z^2 under the lexicographic order.

    The carrier is a chain: the principal ideals P(a, b) = (a, b) + H
    interleaved with the non-finitely-generated ideals L(a) = {(x, y) :
    x > a}, with the empty ideal at the bottom.  Principal elements are
    compact; L(a) is the join of the strictly smaller principals and is
    not compact.  The prime chain Empty < L(0) < P(0, 1) has length
    three, so the lattice has dimension two and P(1, 0) has no radical
    factorization.  Sums of nonempty ideals are nonempty, so the lattice
    is a domain, and it is modular because the carrier is a chain.
    """

    def __init__(self):
        super().__init__("rank2-valuation")

    # -- element handling --------------------------------------------------

    def principal(self, a: int, b: int) -> ElemRef:
        if a < 0 or (a == 0 and b < 0):
            raise ParseError(f"({a},{b}) is not in the positive cone")
        return ElemRef(self.id, ("P", a, b))

    def limit(self, a: int) -> ElemRef:
        if a < 0:
            raise ParseError(f"Limit({a}) undefined for negative a")
        return ElemRef(self.id, ("L", a))

    @property
    def top(self):
        return ElemRef(self.id, ("P", 0, 0))

    @property
    def bottom(self):
        return ElemRef(self.id, _EMPTY)

    def label(self, x):
        self._own(x)
        kind = x.key[0]
        if kind == "E":
            return "Empty"
        if kind == "L":
            return f"Limit({x.key[1]})"
        a, b = x.key[1], x.key[2]
        return "Top" if (a, b) == (0, 0) else f"Principal({a},{b})"

    @staticmethod
    def _rank(key) -> tuple:
        # ascending rank = descending ideal: Top smallest, Empty largest
        if key[0] == "E":
            return (math.inf, 2, 0)
        if key[0] == "L":
            return (key[1], 1, 0)
        return (key[1], 0, key[2])

    # -- chain primitives ----------------------------------------------------

    def leq(self, x, y):
        self._own(x, y)
        return self._rank(x.key) >= self._rank(y.key)

    def join2(self, x, y):
        self._own(x, y)
        return x if self._rank(x.key) <= self._rank(y.key) else y

    def meet2(self, x, y):
        self._own(x, y)
        return x if self._rank(x.key) >= self._rank(y.key) else y

    def mul(self, x, y):
        self._own(x, y)
        kx, ky = x.key, y.key
        if kx == _EMPTY or ky == _EMPTY:
            return self.bottom
        if kx[0] == "P" and ky[0] == "P":
            return self.principal(kx[1] + ky[1], kx[2] + ky[2])
        if kx[0] == "L" and ky[0] == "L":
            return self.limit(kx[1] + ky[1] + 1)
        p, l = (kx, ky) if kx[0] == "P" else (ky, kx)
        return self.limit(p[1] + l[1])

    # -- closed-form derived operations ---------------------------------------

    def residual(self, y, x):
        self._own(y, x)
        if x.key == _EMPTY:
            return self.top
        if y.key == _EMPTY:
            return self.bottom
        if self.leq(x, y):
            return self.top
        if y.key[0] == "P" and x.key[0] == "P":
            a, b = y.key[1] - x.key[1], y.key[2] - x.key[2]
            return self.principal(a, b)
        if y.key[0] == "P" and x.key[0] == "L":
            return self.limit(y.key[1] - x.key[1] - 1)
        if y.key[0] == "L" and x.key[0] == "P":
            return self.limit(y.key[1] - x.key[1])
        return self.limit(y.key[1] - x.key[1] - 1)

    def radical(self, x):
        self._own(x)
        key = x.key
        if key == _EMPTY or key == ("P", 0, 0):
            return ElemRef(self.id, key)
        if key[0] == "P" and key[1] == 0:
            return self.principal(0, 1)
        return self.limit(0)

    def localize(self, x, p):
        self._own(x, p)
        if not self.is_prime_elem(p):
            raise NotPrime(f"{self.label(p)} is not prime in {self.id}")
        if p.key == _EMPTY:
            return self.bottom if x.key == _EMPTY else self.top
        if p.key == ("P", 0, 1):
            return x
        # p = Limit(0): join of the principals P(e, *) with e >= first(x)
        if x.key == _EMPTY:
            return self.bottom
        if not self.leq(x, p):
            return self.top
        if x.key[0] == "L":
            return x
        return self.limit(x.key[1] - 1)

    def is_compact(self, x):
        self._own(x)
        return x.key[0] != "L"

    def c_lattice_note(self) -> str:
        return "principals are multiplicatively closed and join-dense"

    def is_prime_elem(self, p):
        self._own(p)
        return p.key in (_EMPTY, ("L", 0), ("P", 0, 1))

    def is_maximal_elem(self, m):
        self._own(m)
        return m.key == ("P", 0, 1)

    def is_radical_elem(self, x):
        self._own(x)
        return self.radical(x) == x

    def primes(self):
        return [self.bottom, self.limit(0), self.principal(0, 1)]

    def maximals(self):
        return [self.principal(0, 1)]

    def minimal_primes_above(self, x):
        self._own(x)
        return [p for p in self.primes() if self.leq(x, p)
                and not any(self.lt(q, p) and self.leq(x, q) for q in self.primes())]

    def dimension(self):
        return 2

    def principal_join_below(self, x: ElemRef) -> ElemRef:
        """Join of the principal elements below x in the full lattice:
        principals and the empty ideal are principal themselves, and each
        Limit(a) is the join of the principals with first coordinate a+1."""
        self._own(x)
        return x

    def radical_product_membership(self, x: ElemRef):
        """Products of the radical elements are exactly the powers of the
        maximal (Principal(0,k)), the Limit ideals, Top and Empty."""
        self._own(x)
        key = x.key
        if key == _EMPTY:
            return True, [self.bottom]
        if key[0] == "L":
            return True, [self.limit(0)] * (key[1] + 1)
        if key[1] == 0:
            return True, [self.principal(0, 1)] * key[2]
        return False, None

    def grid_set(self, x: ElemRef, a_max: int, b_span: int) -> frozenset:
        """Brute-force truncation of the ideal to a finite grid; the oracle
        the catalog arithmetic is tested against."""
        self._own(x)
        pts = []
        for a in range(0, a_max + 1):
            for b in range(-b_span, b_span + 1):
                if a == 0 and b < 0:
                    continue
                if self._contains_point(x, a, b):
                    pts.append((a, b))
        return frozenset(pts)

    def _contains_point(self, x, a, b):
        key = x.key
        if key == _EMPTY:
            return False
        if key[0] == "L":
            return a > key[1]
        return a > key[1] or (a == key[1] and b >= key[2])

    def window(self, budget: int = 48, seed: int = 0) -> TestWindow:
        refs = [self.top, self.bottom]
        for b in range(0, 5):
            refs.append(self.principal(0, b))
        for a in (1, 2, 3):
            for b in (-3, -1, 0, 1, 3):
                refs.append(self.principal(a, b))
        for a in range(0, 4):
            refs.append(self.limit(a))
        ordered = []
        seen = set()
        for r in refs:
            if r not in seen:
                seen.add(r)
                ordered.append(r)
        return TestWindow(tuple(ordered[:budget]),
                          "catalog sample: principals with small coordinates, limits, bounds")


def rank2_valuation() -> Rank2ValuationIdealLattice:
    return Rank2ValuationIdealLattice()


# ---------------------------------------------------------------------------
# numerical monoid ideal lattice
# ---------------------------------------------------------------------------


class NumericalMonoidIdealLattice(MultLattice):
    """Ideals I = I + H of a numerical monoid, ordered by containment.

    An ideal is kept as the key (mask, c): everything from c on is in the
    ideal, and bit m of the int ``mask`` is set for each member m below c.
    c is kept at its minimum, one past the largest non-member, so each
    ideal has one key.  Order, join and meet are and-not, or and and on
    the masks, products shift-OR one mask over the set bits of the other,
    and a residual tests one shifted mask per monoid element; labels,
    ``members_below``, ``contains`` and the element literals read members
    and are independent of the mask form.

    The prime catalog is {empty, M = H minus 0}: any prime containing a
    nonzero x would contain a high power of the principal ideal of x and
    hence x itself.  Every ideal has a finite minimal generating set (its
    members outside I + M), so all ideals are compact.  The closure of a
    set is the union of the closures of its singletons by construction,
    so the ideal system is finitary.
    """

    def __init__(self, generators: Sequence[int]):
        gens = tuple(sorted(set(int(g) for g in generators)))
        if not gens or any(g < 1 for g in gens):
            raise InvalidGenerators(f"generators must be positive integers: {generators!r}")
        if math.gcd(*gens) != 1 if len(gens) > 1 else gens[0] != 1:
            raise InvalidGenerators(f"generators must have gcd 1: {generators!r}")
        self.generators = gens
        self._membership, self.frobenius = _monoid_membership(gens)
        # members of the monoid as a mask: the sieve up to the Frobenius
        # number, then every value beyond it
        self._monoid_mask = sum(1 << v for v in self._membership) | -(1 << (self.frobenius + 1))
        self._top_ref = None
        self._max_ref = None
        super().__init__("numerical:" + ",".join(map(str, gens)))

    # -- monoid helpers ----------------------------------------------------

    def in_monoid(self, value: int) -> bool:
        if value < 0:
            return False
        if value > self.frobenius:
            return True
        return value in self._membership

    def monoid_members(self, bound: int) -> list[int]:
        return [v for v in range(bound) if self.in_monoid(v)]

    # -- element handling ----------------------------------------------------

    def _mk(self, members: Iterable[int], allin: int) -> ElemRef:
        mask = 0
        for m in members:
            if m < allin:
                mask |= 1 << m
        return self._norm(mask, allin)

    def _norm(self, mask: int, allin: int) -> ElemRef:
        """The ideal holding the bits of mask below allin and everything
        from allin on, with allin lowered to one past its largest gap."""
        allin = (~mask & ((1 << allin) - 1)).bit_length()
        return ElemRef(self.id, (mask & ((1 << allin) - 1), allin))

    def ideal(self, generators: Iterable[int]) -> ElemRef:
        """Smallest ideal containing the given monoid elements."""
        gens = sorted(set(int(g) for g in generators))
        if not gens:
            return self.bottom
        bad = [g for g in gens if not self.in_monoid(g)]
        if bad:
            raise ParseError(f"{bad[0]} is not an element of the monoid {self.id}")
        allin = gens[0] + self.frobenius + 1
        members = {g + h for g in gens for h in self.monoid_members(allin)}
        return self._mk({m for m in members if m < allin}, allin)

    def ideal_from_members(self, members: Iterable[int], allin: int) -> ElemRef:
        """The ideal holding the given values and every value from allin
        on, the set that a label {m1,...,c+} names; ParseError when that
        set is not an ideal of the monoid."""
        members = sorted(set(members))
        bad = next((v for v in members if not self.in_monoid(v)), None)
        if bad is not None:
            raise ParseError(f"{bad} is not an element of the monoid {self.id}")
        if allin <= self.frobenius:
            raise ParseError(f"{allin}+ contains the gap {self.frobenius} of the monoid {self.id}")
        x = self._mk(members, allin)
        for m, g in itertools.product(members, self.generators):
            if not self.contains(x, m + g):
                raise ParseError(f"not an ideal of {self.id}: it holds {m} but not {m} + {g}")
        return x

    def contains(self, x: ElemRef, value: int) -> bool:
        self._own(x)
        if x.key == _EMPTY:
            return False
        mask, allin = x.key
        return value >= allin or (value >= 0 and bool(mask >> value & 1))

    def members_below(self, x: ElemRef, bound: int) -> list[int]:
        self._own(x)
        if x.key == _EMPTY:
            return []
        mask, allin = x.key
        return [v for v in range(bound) if v >= allin or mask >> v & 1]

    @property
    def top(self) -> ElemRef:
        if self._top_ref is None:
            self._top_ref = self.ideal([0])
        return self._top_ref

    @property
    def bottom(self) -> ElemRef:
        return ElemRef(self.id, _EMPTY)

    def maximal_ideal(self) -> ElemRef:
        if self._max_ref is None:
            first = min(self.generators)
            self._max_ref = self._mk(self.monoid_members(first + self.frobenius + 2)[1:],
                                     first + self.frobenius + 2)
        return self._max_ref

    def label(self, x):
        self._own(x)
        if x.key == _EMPTY:
            return "empty"
        mask, allin = x.key
        if x == self.top:
            return "H"
        if x == self.maximal_ideal():
            return "M"
        parts = [str(m) for m in range(allin) if mask >> m & 1] + [f"{allin}+"]
        return "{" + ",".join(parts) + "}"

    # -- primitives -----------------------------------------------------------

    def leq(self, x, y):
        self._own(x, y)
        if x.key == _EMPTY:
            return True
        if y.key == _EMPTY:
            return False
        (xm, xa), (ym, ya) = x.key, y.key
        # ya - 1 is a gap of y, so a ray of x starting lower is not inside
        return xa >= ya and not (xm & ~ym & ((1 << ya) - 1))

    def mul(self, x, y):
        """X + Y: the sums of the masks, plus the rays [xa + min Y, inf)
        and [ya + min X, inf), below which no ray element can land."""
        self._own(x, y)
        if x.key == _EMPTY or y.key == _EMPTY:
            return self.bottom
        (xm, xa), (ym, ya) = x.key, y.key
        sums = 0
        bits = xm
        while bits:
            low = bits & -bits
            sums |= ym << (low.bit_length() - 1)
            bits ^= low
        allin = min(xa + _lowest(ym, ya), ya + _lowest(xm, xa))
        return self._norm(sums, allin)

    def join2(self, x, y):
        self._own(x, y)
        if x.key == _EMPTY:
            return y
        if y.key == _EMPTY:
            return x
        (xm, xa), (ym, ya) = x.key, y.key
        return self._norm(xm | ym, min(xa, ya))

    def meet2(self, x, y):
        self._own(x, y)
        if x.key == _EMPTY or y.key == _EMPTY:
            return self.bottom
        (xm, xa), (ym, ya) = x.key, y.key
        allin = max(xa, ya)
        top = 1 << allin
        return self._norm((xm | (top - (1 << xa))) & (ym | (top - (1 << ya))), allin)

    # -- closed-form derived operations -----------------------------------------

    def residual(self, y, x):
        """Largest ideal A with A + X inside Y: the monoid elements h with
        h + xa >= ya (the ray of X lands in Y, whose ya - 1 is a gap) and
        no member of X shifted by h on a gap of Y; everything from
        max(ya, Frobenius + 1) on qualifies."""
        self._own(y, x)
        if x.key == _EMPTY:
            return self.top
        if y.key == _EMPTY:
            return self.bottom
        (xm, xa), (ym, ya) = x.key, y.key
        scan_to = max(ya, self.frobenius + 1)
        gaps = ~ym & ((1 << ya) - 1)
        candidates = self._monoid_mask & ((1 << scan_to) - 1) & -(1 << max(ya - xa, 0))
        hits = 0
        while candidates:
            low = candidates & -candidates
            if not (xm << (low.bit_length() - 1)) & gaps:
                hits |= low
            candidates ^= low
        return self._norm(hits, scan_to)

    def radical(self, x):
        self._own(x)
        if x.key == _EMPTY:
            return self.bottom
        if x == self.top:
            return self.top
        return self.maximal_ideal()

    def localize(self, x, p):
        self._own(x, p)
        if not self.is_prime_elem(p):
            raise NotPrime(f"{self.label(p)} is not prime in {self.id}")
        if p.key == _EMPTY:
            return self.bottom if x.key == _EMPTY else self.top
        return x  # at M the only compact outside is the top, which acts trivially

    def is_compact(self, x):
        self._own(x)
        return True

    def c_lattice_note(self) -> str:
        return ("every ideal is finitely generated, hence compact, and the "
                "compacts (all ideals) are multiplicatively closed and join-dense")

    def is_prime_elem(self, p):
        self._own(p)
        return p.key == _EMPTY or p == self.maximal_ideal()

    def is_maximal_elem(self, m):
        self._own(m)
        return m == self.maximal_ideal()

    def is_radical_elem(self, x):
        return self.radical(x) == x

    def primes(self):
        return [self.bottom, self.maximal_ideal()]

    def maximals(self):
        return [self.maximal_ideal()]

    def dimension(self):
        return 1

    def r_invertible(self, x: ElemRef):
        """Decide whether some ideal J makes X + J principal.

        If X + J = y + H, then y = min(X) + min(J), and adding min(J) to
        any member of X shows every member differs from min(X) by a monoid
        element; so only the principal ideal of min(X) can be invertible.
        Returns (flag, witness or obstruction element).
        """
        self._own(x)
        if x.key == _EMPTY:
            return False, "the empty ideal is absorbing, never invertible"
        lead = self.members_below(x, x.key[1] + 1)[0]
        if x == self.ideal([lead]):
            return True, self.top
        blocker = next(v for v in self.members_below(x, lead + self.frobenius + 2)
                       if not self.in_monoid(v - lead))
        return False, blocker

    def principal_join_below(self, x: ElemRef) -> ElemRef:
        """Join of the principal elements below x in the full lattice:
        every ideal is the union of the principal ideals of its members,
        and principal ideals here are invertible, hence principal elements."""
        self._own(x)
        return x

    def radical_product_membership(self, x: ElemRef):
        """Products of {H, M, empty} are H, empty and the powers of M."""
        self._own(x)
        if x.key == _EMPTY:
            return True, [self.bottom]
        if x == self.top:
            return True, []
        m = self.maximal_ideal()
        power = m
        chain = [m]
        lead = self.members_below(x, x.key[1] + 1)[0]
        while self.members_below(power, power.key[1] + 1)[0] <= lead:
            if power == x:
                return True, list(chain)
            power = self.mul(power, m)
            chain.append(m)
        return False, None

    def window(self, budget: int = 48, seed: int = 0) -> TestWindow:
        seeds = [self.maximal_ideal()]
        for g in self.monoid_members(3 * max(self.generators) + self.frobenius + 2)[:8]:
            seeds.append(self.ideal([g]))
        pairs = list(itertools.combinations(self.monoid_members(12 + self.frobenius), 2))[:6]
        for a, b in pairs:
            seeds.append(self.ideal([a, b]))
        return grow_window(self, seeds, budget,
                           f"principal ideals of small elements and small two-generated "
                           f"ideals of {self.id}, closed under ops up to budget {budget}")


def _lowest(mask: int, allin: int) -> int:
    """Smallest member of the numerical ideal with key (mask, allin)."""
    return (mask & -mask).bit_length() - 1 if mask else allin


def numerical_monoid(generators: Sequence[int]) -> NumericalMonoidIdealLattice:
    return NumericalMonoidIdealLattice(generators)


def _monoid_membership(gens) -> tuple[frozenset, int]:
    """Membership sieve plus Frobenius number (largest gap; -1 for N0)."""
    g0 = min(gens)
    bound = g0 * max(gens) + max(gens) + 1
    while True:
        reachable = bytearray(bound + g0 + 1)
        reachable[0] = 1
        for v in range(bound + g0 + 1):
            if reachable[v]:
                for g in gens:
                    if v + g <= bound + g0:
                        reachable[v + g] = 1
        run = 0
        for v in range(bound + g0, -1, -1):
            if reachable[v]:
                run += 1
                if run >= g0:
                    break
            else:
                run = 0
        gaps = [v for v in range(bound + g0 + 1) if not reachable[v]]
        if run >= g0 or not gaps:
            frob = max(gaps) if gaps else -1
            return frozenset(v for v in range(frob + 1) if reachable[v]), frob
        bound *= 2
