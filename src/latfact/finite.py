"""Explicit table-driven finite multiplicative lattices.

Documents carry an order matrix and a multiplication table over 0-based
indices; labels are decorative.  Loading derives join/meet tables and runs
the full axiom validation, so downstream modules only ever see usable
lattices.  Every element of a finite lattice is compact (joins are finite),
hence every valid table is a C-lattice.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

from .core import ElemRef, MultLattice, seeded_rng
from .errors import AxiomViolation, InvalidModulus, ParseError

MAX_EXHAUSTIVE = 64  # cubic axiom loops beyond this fall back to sampling
_SAMPLED_TRIPLES = 20000


@dataclass
class AxiomCheck:
    name: str
    passed: bool
    witness: Optional[tuple] = None
    detail: str = ""


@dataclass
class ValidationReport:
    """Per-axiom verdicts with first failing witness, plus structure flags."""

    lattice_name: str
    mode: str  # "exhaustive" | "sampled"
    entries: list = field(default_factory=list)
    modular: bool = False
    domain: bool = False
    c_lattice: bool = True

    def add(self, name, passed, witness=None, detail=""):
        self.entries.append(AxiomCheck(name, passed, witness, detail))

    @property
    def all_axioms_pass(self) -> bool:
        return all(e.passed for e in self.entries)

    def first_failure(self) -> Optional[AxiomCheck]:
        for e in self.entries:
            if not e.passed:
                return e
        return None

    def to_dict(self) -> dict:
        return {
            "lattice": self.lattice_name,
            "mode": self.mode,
            "axioms": [
                {"name": e.name, "passed": e.passed,
                 "witness": list(e.witness) if e.witness else None,
                 "detail": e.detail}
                for e in self.entries
            ],
            "flags": {"modular": self.modular, "domain": self.domain,
                      "c_lattice": self.c_lattice},
            "all_axioms_pass": self.all_axioms_pass,
        }


class FiniteMultLattice(MultLattice):
    """A multiplicative lattice given by explicit leq and mul tables.

    ``ideal_masks`` is None unless ``idealsys.build_ideal_lattice`` made the
    lattice; then entry i is the bitmask of the r-ideal that element i is.
    """

    _counter = 0
    ideal_masks: Optional[list] = None

    def __init__(self, name, labels, leq, mul):
        FiniteMultLattice._counter += 1
        lattice_id = f"finite:{name}#{FiniteMultLattice._counter}"
        self.name = name
        self.n = len(labels)
        self.labels = list(labels)
        self._leq = leq
        self._mul = mul
        self._top_idx = self._unique_bound(upper=True)
        self._bottom_idx = self._unique_bound(upper=False)
        self._join_tab, self._join_fail = self._derive(least_upper=True)
        self._meet_tab, self._meet_fail = self._derive(least_upper=False)
        self._residual_cache = {}
        self._validations: dict = {}  # seed -> ValidationReport
        super().__init__(lattice_id)

    # -- construction ---------------------------------------------------

    @classmethod
    def from_document(cls, doc) -> "FiniteMultLattice":
        """Parse a lattice document; structural and order defects raise
        ParseError, everything else is left for validate()."""
        if not isinstance(doc, dict):
            raise ParseError("lattice document must be a JSON object")
        for key in ("elements", "leq", "mul"):
            if key not in doc:
                raise ParseError(f"lattice document missing {key!r}")
        labels = doc["elements"]
        if not isinstance(labels, list) or not labels:
            raise ParseError("'elements' must be a nonempty list of names")
        n = len(labels)
        leq = _parse_matrix(doc["leq"], n, "leq", {0, 1, True, False})
        mul = _parse_matrix(doc["mul"], n, "mul", set(range(n)))
        leq = tuple(tuple(bool(v) for v in row) for row in leq)
        mul = tuple(tuple(int(v) for v in row) for row in mul)
        _check_order(leq, n)
        return cls(doc.get("name", "unnamed"), labels, leq, mul)

    def _unique_bound(self, upper):
        hits = [
            i for i in range(self.n)
            if all((self._leq[j][i] if upper else self._leq[i][j]) for j in range(self.n))
        ]
        return hits[0] if len(hits) == 1 else None

    def _derive(self, least_upper):
        table = [[None] * self.n for _ in range(self.n)]
        failure = None
        for i in range(self.n):
            for j in range(i, self.n):
                if least_upper:
                    bounds = [k for k in range(self.n) if self._leq[i][k] and self._leq[j][k]]
                    best = [u for u in bounds if all(self._leq[u][k] for k in bounds)]
                else:
                    bounds = [k for k in range(self.n) if self._leq[k][i] and self._leq[k][j]]
                    best = [u for u in bounds if all(self._leq[k][u] for k in bounds)]
                if len(best) == 1:
                    table[i][j] = table[j][i] = best[0]
                elif failure is None:
                    failure = (i, j)
        return table, failure

    # -- primitives ------------------------------------------------------

    @property
    def top(self) -> ElemRef:
        if self._top_idx is None:
            raise AxiomViolation(f"{self.name}: no unique top element", axiom="unique_top")
        return ElemRef(self.id, self._top_idx)

    @property
    def bottom(self) -> ElemRef:
        if self._bottom_idx is None:
            raise AxiomViolation(f"{self.name}: no unique bottom element", axiom="unique_bottom")
        return ElemRef(self.id, self._bottom_idx)

    def elements(self):
        return [ElemRef(self.id, i) for i in range(self.n)]

    def ref(self, index: int) -> ElemRef:
        if not 0 <= index < self.n:
            raise ParseError(f"{self.name}: element index {index} out of range")
        return ElemRef(self.id, index)

    def ref_by_label(self, label: str) -> ElemRef:
        try:
            return ElemRef(self.id, self.labels.index(label))
        except ValueError:
            raise ParseError(f"{self.name}: no element labelled {label!r}") from None

    def leq(self, x, y):
        self._own(x, y)
        return self._leq[x.key][y.key]

    def mul(self, x, y):
        self._own(x, y)
        return ElemRef(self.id, self._mul[x.key][y.key])

    def join2(self, x, y):
        self._own(x, y)
        k = self._join_tab[x.key][y.key]
        if k is None:
            raise AxiomViolation(f"{self.name}: join undefined", axiom="joins_exist",
                                 witness=(x.key, y.key))
        return ElemRef(self.id, k)

    def meet2(self, x, y):
        self._own(x, y)
        k = self._meet_tab[x.key][y.key]
        if k is None:
            raise AxiomViolation(f"{self.name}: meet undefined", axiom="meets_exist",
                                 witness=(x.key, y.key))
        return ElemRef(self.id, k)

    def label(self, x):
        self._own(x)
        return str(self.labels[x.key])

    def is_compact(self, x):
        self._own(x)
        return True  # every join over a finite carrier is finite

    def c_lattice_note(self) -> str:
        return "finite carrier: every element is compact"

    def radical_product_membership(self, x):
        """Saturate the radical elements under products from the top;
        (True, factors) when x is reached, else (False, None)."""
        self._own(x)
        radicals = [r for r in self.elements() if self.is_radical_elem(r)]
        parent = {self.top: None}
        queue = [self.top]
        while queue:
            cur = queue.pop()
            for r in radicals:
                nxt = self.mul(cur, r)
                if nxt not in parent:
                    parent[nxt] = (cur, r)
                    queue.append(nxt)
        if x not in parent:
            return False, None
        witness = []
        node = x
        while parent[node] is not None:
            node, r = parent[node]
            witness.append(r)
        return True, witness[::-1]

    def residual(self, y, x):
        self._own(y, x)
        key = (y.key, x.key)
        hit = self._residual_cache.get(key)
        if hit is None:
            hit = super().residual(y, x)
            self._residual_cache[key] = hit
        return hit

    # -- validation -------------------------------------------------------

    def validate(self, seed: int = 0) -> ValidationReport:
        """Check the full axiom list and record modular/domain flags.

        Order axioms re-pass by construction; the cubic checks run
        exhaustively up to MAX_EXHAUSTIVE elements and on seeded samples
        beyond that, drawn with ``seed`` (mode recorded in the report).
        """
        cached = self._validations.get(seed)
        if cached is not None:
            return cached
        n = self.n
        exhaustive = n <= MAX_EXHAUSTIVE
        report = ValidationReport(self.name, "exhaustive" if exhaustive else "sampled")
        for name in ("order_reflexive", "order_antisymmetric", "order_transitive"):
            report.add(name, True, detail="checked at parse time")
        report.add("unique_top", self._top_idx is not None,
                   None if self._top_idx is not None else ())
        report.add("unique_bottom", self._bottom_idx is not None,
                   None if self._bottom_idx is not None else ())
        report.add("joins_exist", self._join_fail is None, self._join_fail)
        report.add("meets_exist", self._meet_fail is None, self._meet_fail)

        mul = self._mul
        leq = self._leq
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        bad = next(((i, j) for i, j in pairs if mul[i][j] != mul[j][i]), None)
        report.add("mul_commutative", bad is None, bad)

        triples = self._triples(seed, exhaustive)
        bad = next(((i, j, k) for i, j, k in triples
                    if mul[mul[i][j]][k] != mul[i][mul[j][k]]), None)
        report.add("mul_associative", bad is None, bad,
                   "" if bad is None else "mul not associative at (i,j,k)")

        if self._top_idx is not None:
            t = self._top_idx
            bad = next((i for i in range(n) if mul[t][i] != i), None)
            report.add("identity_is_top", bad is None, (bad,) if bad is not None else None)
        else:
            report.add("identity_is_top", False, (), "no top element")

        if self._join_fail is None:
            jt = self._join_tab
            bad = next(((x, a, b) for x, a, b in self._triples(seed + 1, exhaustive)
                        if jt[mul[x][a]][mul[x][b]] != mul[x][jt[a][b]]), None)
            report.add("mul_distributes_over_join", bad is None, bad)
        else:
            report.add("mul_distributes_over_join", False, self._join_fail, "joins undefined")

        if self._bottom_idx is not None:
            z = self._bottom_idx
            bad = next((i for i in range(n) if mul[i][z] != z), None)
            report.add("bottom_annihilates", bad is None, (bad,) if bad is not None else None)
        else:
            report.add("bottom_annihilates", False, (), "no bottom element")

        # structure flags (not axioms)
        report.modular = True
        report.domain = True
        if self._join_fail is None and self._meet_fail is None:
            jt, mt = self._join_tab, self._meet_tab
            for x, y, z in self._triples(seed + 2, exhaustive):
                if leq[x][z] and mt[jt[x][y]][z] != jt[x][mt[y][z]]:
                    report.modular = False
                    break
            if self._bottom_idx is not None:
                zb = self._bottom_idx
                report.domain = not any(
                    mul[a][b] == zb for a in range(n) if a != zb
                    for b in range(n) if b != zb
                )
        self._validations[seed] = report
        return report

    def _triples(self, seed, exhaustive):
        n = self.n
        if exhaustive:
            return ((i, j, k) for i in range(n) for j in range(n) for k in range(n))
        rng = seeded_rng(seed)
        return ((rng.randrange(n), rng.randrange(n), rng.randrange(n))
                for _ in range(_SAMPLED_TRIPLES))


def _parse_matrix(rows, n, name, allowed):
    if not isinstance(rows, list) or len(rows) != n:
        raise ParseError(f"{name!r} must be a {n}x{n} matrix")
    for row in rows:
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"{name!r} must be square ({n}x{n})")
        for v in row:
            if not isinstance(v, (int, bool)) or v not in allowed:
                raise ParseError(f"{name!r} entry {v!r} out of range")
    return rows


def _check_order(leq, n):
    for i in range(n):
        if not leq[i][i]:
            raise ParseError(f"leq not reflexive at {i}")
    for i in range(n):
        for j in range(n):
            if i != j and leq[i][j] and leq[j][i]:
                raise ParseError(f"not antisymmetric: ({i}, {j})")
    for i in range(n):
        for j in range(n):
            if leq[i][j]:
                for k in range(n):
                    if leq[j][k] and not leq[i][k]:
                        raise ParseError(f"leq not transitive at ({i}, {j}, {k})")


def load(doc) -> FiniteMultLattice:
    """Build and validate a finite lattice; axiom failures raise."""
    lattice = FiniteMultLattice.from_document(doc)
    report = lattice.validate()
    if not report.all_axioms_pass:
        bad = report.first_failure()
        raise AxiomViolation(
            f"{lattice.name}: axiom {bad.name} fails at {bad.witness}",
            axiom=bad.name,
            witness=bad.witness,
        )
    return lattice


def loads(text: str) -> FiniteMultLattice:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    return load(doc)


def validate_document(doc) -> ValidationReport:
    """Validator entry point that never raises on content defects.

    Parse-stage failures (malformed shape, broken order axioms) come back
    as a report whose corresponding entry fails, so mutation screening can
    treat every defect uniformly.
    """
    try:
        lattice = FiniteMultLattice.from_document(doc)
    except ParseError as exc:
        report = ValidationReport(doc.get("name", "unnamed") if isinstance(doc, dict) else "unnamed",
                                  "exhaustive")
        report.add("document_well_formed", False, None, str(exc))
        return report
    report = lattice.validate()
    return report


def save(lattice: FiniteMultLattice) -> dict:
    """Document round-trip: save(load(doc)) reproduces doc's tables."""
    return {
        "name": lattice.name,
        "elements": list(lattice.labels),
        "leq": [[1 if v else 0 for v in row] for row in lattice._leq],
        "mul": [list(row) for row in lattice._mul],
    }


def dumps(lattice: FiniteMultLattice) -> str:
    return json.dumps(save(lattice), sort_keys=True)


def materialize_from_divisors(n: int) -> FiniteMultLattice:
    """Ideal lattice of the integers modulo n as a divisor table.

    Element d stands for the ideal generated by d; d <= e holds when e
    divides d, multiplication is gcd(d*e, n), the top is 1 and the bottom
    is n itself.  The result always passes validation, is modular, and is
    a domain exactly when n is prime.
    """
    if not isinstance(n, int) or n < 2:
        raise InvalidModulus(f"modulus must be an integer >= 2, got {n!r}")
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    index = {d: i for i, d in enumerate(divisors)}
    leq = tuple(
        tuple(d % e == 0 for e in divisors) for d in divisors
    )
    mul = tuple(
        tuple(index[math.gcd(d * e, n)] for e in divisors) for d in divisors
    )
    lattice = FiniteMultLattice(f"zmod:{n}", [str(d) for d in divisors], leq, mul)
    report = lattice.validate()
    if not report.all_axioms_pass:
        raise AxiomViolation(f"divisor lattice of {n} failed validation")
    return lattice
