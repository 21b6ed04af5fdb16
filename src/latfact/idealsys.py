"""Weak ideal systems on finite commutative monoids.

A weak ideal system is a closure map r on subsets of a monoid H with
three axioms: (A) X*H together with the zero elements of H lies inside
the closure of X, (B) X inside the closure of Y forces the closure of X
inside the closure of Y, and (C) c * closure(X) lies inside closure(c*X).
Ideal systems sharpen (C) to equality; finitary means the closure is the
union of the closures of finite subsets (automatic on finite carriers).

Subsets are bitmasks; closures are materialized in full up to twelve
elements and validated exhaustively.  The r-ideals (fixed points) form a
multiplicative lattice under the closed product (I, J) -> closure(I*J)
which is materialized into an explicit finite lattice, optionally
restricted to the regular ideals plus the closed empty set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .core import seeded_rng
from .errors import (
    AxiomViolation,
    EmptyRegularCarrier,
    ParseError,
    TooLarge,
)
from .finite import FiniteMultLattice

FULL_ENUMERATION_LIMIT = 12


def bits(mask: int):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def mask_of(indices) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


@dataclass
class FiniteMonoid:
    """A commutative monoid given by its multiplication table."""

    labels: list
    table: tuple  # table[i][j] = index of the product

    def __post_init__(self):
        n = len(self.labels)
        if n < 2:
            raise ParseError("monoids here have more than one element")
        if len(self.table) != n or any(len(r) != n for r in self.table):
            raise ParseError("cayley table must be square")
        for row in self.table:
            for v in row:
                if not isinstance(v, int) or not 0 <= v < n:
                    raise ParseError(f"cayley entry {v!r} out of range")
        for i in range(n):
            for j in range(i, n):
                if self.table[i][j] != self.table[j][i]:
                    raise AxiomViolation("cayley table not commutative",
                                         axiom="commutative", witness=(i, j))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if self.table[self.table[i][j]][k] != self.table[i][self.table[j][k]]:
                        raise AxiomViolation("cayley table not associative",
                                             axiom="associative", witness=(i, j, k))
        idents = [e for e in range(n)
                  if all(self.table[e][x] == x for x in range(n))]
        if len(idents) != 1:
            raise AxiomViolation("monoid needs a unique identity", axiom="identity")
        self.identity = idents[0]
        self.n = n
        self.zero_mask = mask_of(
            z for z in range(n) if all(self.table[x][z] == z for x in range(n))
        )
        self.row_mask = tuple(mask_of(self.table[x]) for x in range(n))

    @classmethod
    def from_document(cls, doc) -> "FiniteMonoid":
        if not isinstance(doc, dict) or "elements" not in doc or "cayley" not in doc:
            raise ParseError("monoid document needs 'elements' and 'cayley'")
        return cls(list(doc["elements"]), tuple(tuple(r) for r in doc["cayley"]))

    def mul_set(self, c: int, mask: int) -> int:
        out = 0
        for x in bits(mask):
            out |= 1 << self.table[c][x]
        return out

    def set_product(self, a: int, b: int) -> int:
        out = 0
        for x in bits(a):
            for y in bits(b):
                out |= 1 << self.table[x][y]
        return out

    def set_label(self, mask: int) -> str:
        return "{" + ",".join(str(self.labels[i]) for i in bits(mask)) + "}"


class WeakIdealSystem:
    """A closure map on the subsets of a finite monoid.

    The map is materialized as a mask-to-mask table up to the enumeration
    limit; validation verdicts live in a SystemReport, and the fixed
    points materialize into a finite multiplicative lattice.
    """

    def __init__(self, monoid: FiniteMonoid, name: str, closure: Callable[[int], int]):
        self.monoid = monoid
        self.name = name
        self._closure_fn = closure
        self.materialized: Optional[dict] = None
        if monoid.n <= FULL_ENUMERATION_LIMIT:
            self.materialized = {m: closure(m) for m in range(1 << monoid.n)}

    def closure(self, mask: int) -> int:
        if self.materialized is not None:
            return self.materialized[mask]
        return self._closure_fn(mask)

    # -- constructors -------------------------------------------------------

    @classmethod
    def s_system(cls, monoid: FiniteMonoid) -> "WeakIdealSystem":
        def close(mask):
            out = monoid.zero_mask
            for x in bits(mask):
                out |= monoid.row_mask[x]
            return out

        return cls(monoid, "s", close)

    @classmethod
    def d_system(cls, monoid: FiniteMonoid, addition: Sequence[Sequence[int]]) -> "WeakIdealSystem":
        addition = tuple(tuple(r) for r in addition)
        n = monoid.n
        if len(addition) != n or any(len(r) != n for r in addition):
            raise ParseError("ring addition table must match the carrier")
        zeros = [z for z in range(n) if all(addition[z][x] == x for x in range(n))]
        if len(zeros) != 1:
            raise ParseError("ring addition needs a unique zero")
        zero = zeros[0]

        def close(mask):
            cur = mask | (1 << zero)
            while True:
                nxt = cur
                for x in bits(cur):
                    for y in bits(cur):
                        nxt |= 1 << addition[x][y]
                for c in range(n):
                    nxt |= monoid.mul_set(c, cur)
                if nxt == cur:
                    return cur
                cur = nxt

        return cls(monoid, "d", close)

    @classmethod
    def from_table(cls, monoid: FiniteMonoid, table: dict, name: str = "explicit") -> "WeakIdealSystem":
        normalized = {}
        for key, value in table.items():
            normalized[int(key)] = int(value)
        if monoid.n <= FULL_ENUMERATION_LIMIT:
            missing = [m for m in range(1 << monoid.n) if m not in normalized]
            if missing:
                raise ParseError(f"closure table missing mask {missing[0]}")

        def close(mask):
            try:
                return normalized[mask]
            except KeyError:
                raise ParseError(f"closure table has no entry for mask {mask}") from None

        return cls(monoid, name, close)

    # -- ideals -------------------------------------------------------------

    def r_ideals(self) -> list:
        """All fixed points of the closure, smallest first."""
        if self.materialized is None:
            raise TooLarge(f"{self.name}: carrier too large for full subset enumeration")
        ideals = [m for m, c in self.materialized.items() if c == m]
        return sorted(ideals, key=lambda m: (bin(m).count("1"), m))

    def regular_elements(self) -> list:
        """Cancellative x whose translates commute with the closure."""
        H = self.monoid
        out = []
        for x in range(H.n):
            row = H.table[x]
            if len(set(row)) != H.n:
                continue
            if self.materialized is not None:
                ok = all(H.mul_set(x, self.closure(m)) == self.closure(H.mul_set(x, m))
                         for m in range(1 << H.n))
            else:
                ok = True
            if ok:
                out.append(x)
        return out

    def regular_ideal_mask(self, mask: int) -> bool:
        return any(x in set(bits(mask)) for x in self.regular_elements())

    def r_invertible(self, ideal_mask: int):
        """Search all r-ideals J and regular y for closure(I*J) = y*H."""
        H = self.monoid
        principal = {}
        for y in self.regular_elements():
            principal.setdefault(H.row_mask[y], y)
        for j in self.r_ideals():
            product = self.closure(H.set_product(ideal_mask, j))
            if product in principal:
                return True, (j, principal[product])
        return False, None


@dataclass
class SystemCheck:
    name: str
    passed: bool
    witness: Optional[tuple] = None
    detail: str = ""


@dataclass
class SystemReport:
    system_name: str
    entries: list = field(default_factory=list)
    is_ideal_system: bool = False
    is_finitary: bool = False
    is_modular: bool = False

    def add(self, name, passed, witness=None, detail=""):
        self.entries.append(SystemCheck(name, passed, witness, detail))

    @property
    def all_axioms_pass(self) -> bool:
        return all(e.passed for e in self.entries if e.name.startswith("axiom"))

    def to_dict(self) -> dict:
        return {
            "system": self.system_name,
            "axioms": [
                {"name": e.name, "passed": e.passed,
                 "witness": list(e.witness) if e.witness else None,
                 "detail": e.detail}
                for e in self.entries
            ],
            "flags": {"ideal_system": self.is_ideal_system,
                      "finitary": self.is_finitary,
                      "modular": self.is_modular},
            "all_axioms_pass": self.all_axioms_pass,
        }


def validate_system(system: WeakIdealSystem, sampled: Optional[int] = None,
                    seed: int = 0) -> SystemReport:
    """Check the closure axioms and the derived flags.

    (B) is decided through single-step monotonicity plus idempotence,
    which is equivalent (a chain of single insertions connects X to any
    superset, and idempotence collapses the double closure); candidate
    witnesses are re-confirmed against the direct formulation before they
    are reported.
    """
    H = system.monoid
    report = SystemReport(f"{system.name} on {H.n} elements")
    if system.materialized is None:
        if sampled is None:
            raise TooLarge(f"carrier of size {H.n} exceeds the enumeration budget; "
                           f"pass a sample size to validate on a sample")
        rng = seeded_rng(seed)
        masks = [rng.randrange(1 << H.n) for _ in range(sampled)]
    else:
        masks = list(range(1 << H.n))

    # axiom A: X*H and the zero elements sit inside the closure
    bad = None
    for m in masks:
        expand = H.zero_mask
        for x in bits(m):
            expand |= H.row_mask[x]
        if expand & ~system.closure(m):
            bad = (m,)
            break
    report.add("axiom_A", bad is None, bad,
               "X*H united with z(H) inside closure(X)")

    # axiom B via monotone single steps + idempotence
    bad = None
    for m in masks:
        cm = system.closure(m)
        if system.closure(cm) & ~cm:
            candidate = (cm, m)
            if _confirm_b_violation(system, *candidate):
                bad = candidate
                break
        for x in range(H.n):
            if m & (1 << x):
                continue
            bigger = m | (1 << x)
            if cm & ~system.closure(bigger):
                candidate = (m, bigger)
                if _confirm_b_violation(system, *candidate):
                    bad = candidate
                    break
        if bad:
            break
    report.add("axiom_B", bad is None, bad,
               "closure(X) inside closure(Y) whenever X inside closure(Y)")

    # axiom C: c * closure(X) inside closure(c * X)
    bad = None
    equality = True
    for c in range(H.n):
        for m in masks:
            lhs = H.mul_set(c, system.closure(m))
            rhs = system.closure(H.mul_set(c, m))
            if lhs & ~rhs:
                bad = (c, m)
                break
            if lhs != rhs:
                equality = False
        if bad:
            break
    report.add("axiom_C", bad is None, bad,
               "c * closure(X) inside closure(c * X)")

    report.is_ideal_system = bad is None and equality

    # finitary: trivial on a finite carrier; asserted through the
    # compactness of singleton closures in the materialized lattice
    report.is_finitary = True
    report.add("finitary_singletons_compact", True, None,
               "finite carrier: every subset is finite and every ideal compact")

    if report.all_axioms_pass and system.materialized is not None:
        ideals = system.r_ideals()
        report.is_modular = _modular_over_ideals(system, ideals)
    return report


def _confirm_b_violation(system, x_mask, y_mask) -> bool:
    cy = system.closure(y_mask)
    return (x_mask & ~cy) == 0 and bool(system.closure(x_mask) & ~cy)


def _modular_over_ideals(system, ideals) -> bool:
    for i, j, n in itertools.product(ideals, repeat=3):
        if i & ~n:
            continue  # need I inside N
        lhs = system.closure(i | j) & n
        rhs = system.closure(i | (j & n))
        if lhs & ~rhs:
            return False
    return True


def build_ideal_lattice(system: WeakIdealSystem, regular_only: bool = False) -> FiniteMultLattice:
    """Materialize the lattice of r-ideals (or regular r-ideals plus the
    closed empty set) and run it through the finite-lattice validation.

    A failed validation means the closure map is broken, so it surfaces
    as an AxiomViolation rather than a report.
    """
    ideals = system.r_ideals()
    if regular_only:
        bottom = system.closure(0)
        keep = [m for m in ideals if system.regular_ideal_mask(m) or m == bottom]
        if keep == [bottom] or not keep:
            raise EmptyRegularCarrier(f"{system.name}: no regular ideals to carry a lattice")
        ideals = keep
    index = {m: i for i, m in enumerate(ideals)}
    H = system.monoid
    n = len(ideals)
    leq = tuple(tuple((a & ~b) == 0 for b in ideals) for a in ideals)
    mul_rows = []
    for a in ideals:
        row = []
        for b in ideals:
            product = system.closure(H.set_product(a, b))
            if product not in index:
                raise AxiomViolation(
                    f"{system.name}: product of ideals leaves the carrier",
                    axiom="mul_closed", witness=(a, b))
            row.append(index[product])
        mul_rows.append(tuple(row))
    name = f"ideals:{system.name}" + (":regular" if regular_only else "")
    lattice = FiniteMultLattice(name, [H.set_label(m) for m in ideals],
                                leq, tuple(mul_rows))
    report = lattice.validate()
    if not report.all_axioms_pass:
        bad = report.first_failure()
        raise AxiomViolation(
            f"{system.name}: materialized ideal lattice fails {bad.name} at {bad.witness} "
            f"(broken closure map)", axiom=bad.name, witness=bad.witness)
    lattice.ideal_masks = ideals
    return lattice


# ---------------------------------------------------------------------------
# builtin monoids
# ---------------------------------------------------------------------------


def zmod_mult_monoid(n: int) -> FiniteMonoid:
    """The multiplicative monoid of the integers mod n."""
    if n < 2:
        raise ParseError("need a modulus of at least 2")
    labels = [str(i) for i in range(n)]
    table = tuple(tuple((i * j) % n for j in range(n)) for i in range(n))
    return FiniteMonoid(labels, table)


def zmod_addition(n: int):
    return tuple(tuple((i + j) % n for j in range(n)) for i in range(n))


def system_from_document(doc) -> WeakIdealSystem:
    """Monoid document plus a system descriptor: builtin s, builtin d-ring
    with an addition table, or an explicit mask-to-mask closure table."""
    monoid = FiniteMonoid.from_document(doc)
    descriptor = doc.get("system")
    if not isinstance(descriptor, dict):
        raise ParseError("monoid document needs a 'system' descriptor")
    if descriptor.get("builtin") == "s":
        return WeakIdealSystem.s_system(monoid)
    if descriptor.get("builtin") == "d-ring":
        if "addition" not in descriptor:
            raise ParseError("d-ring system needs the ring 'addition' table")
        return WeakIdealSystem.d_system(monoid, descriptor["addition"])
    if "table" in descriptor:
        return WeakIdealSystem.from_table(monoid, descriptor["table"])
    raise ParseError(f"unknown system descriptor {descriptor!r}")
