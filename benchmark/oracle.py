"""The benchmark's own lattice arithmetic: input documents and expected
verdicts, computed without latfact.

Divisor tables of Z/n are built from a prime signature, so tables with the
same signature are isomorphic and cost the same whichever primes the seed
picks.  Mutated tables get their expected verdict from an exhaustive axiom
check that follows the order of latfact's validation report.
"""

from __future__ import annotations

import math
import re

# The axioms of a finite multiplicative lattice, in report order.
AXIOMS = (
    "order_reflexive", "order_antisymmetric", "order_transitive",
    "unique_top", "unique_bottom", "joins_exist", "meets_exist",
    "mul_commutative", "mul_associative", "identity_is_top",
    "mul_distributes_over_join", "bottom_annihilates",
)


def divisors(factors) -> list[int]:
    """All divisors of prod(p**e) for factors [(p, e), ...]."""
    out = [1]
    for p, e in factors:
        out = [d * p ** k for d in out for k in range(e + 1)]
    return out


def divisor_table(factors, rng) -> dict:
    """Lattice document of the ideals of Z/n, n = prod(p**e), with the
    elements in a seeded order.  Element d is the ideal (d): d <= e when e
    divides d, and d * e = gcd(d * e, n)."""
    n = math.prod(p ** e for p, e in factors)
    elems = divisors(factors)
    rng.shuffle(elems)
    index = {d: i for i, d in enumerate(elems)}
    return {
        "name": f"zmod:{n}",
        "elements": [str(d) for d in elems],
        "leq": [[1 if d % e == 0 else 0 for e in elems] for d in elems],
        "mul": [[index[math.gcd(d * e, n)] for e in elems] for d in elems],
    }


def mutate(doc, rng) -> tuple[dict, str]:
    """Copy of doc with one table entry changed: a mul entry off or on the
    diagonal, or one flipped order entry."""
    n = len(doc["elements"])
    out = {"name": doc["name"] + ":mutated", "elements": list(doc["elements"]),
           "leq": [row[:] for row in doc["leq"]], "mul": [row[:] for row in doc["mul"]]}
    kind = rng.choice(("mul", "mul", "mul-diagonal", "leq"))
    i = rng.randrange(n)
    j = i if kind == "mul-diagonal" else rng.choice([k for k in range(n) if k != i])
    if kind == "leq":
        out["leq"][i][j] = 1 - out["leq"][i][j]
    else:
        old = out["mul"][i][j]
        out["mul"][i][j] = (old + 1 + rng.randrange(n - 1)) % n
    return out, f"{kind}[{i}][{j}]"


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Tables:
    """Order and multiplication tables with the derived bounds, for
    deciding the axioms and checking witnesses."""

    def __init__(self, doc):
        self.leq = doc["leq"]
        self.mul = doc["mul"]
        n = self.n = len(self.leq)
        self.up = [sum(1 << j for j in range(n) if self.leq[i][j]) for i in range(n)]
        self.down = [sum(1 << i for i in range(n) if self.leq[i][j]) for j in range(n)]
        full = (1 << n) - 1
        tops = [i for i in range(n) if self.down[i] == full]
        bottoms = [i for i in range(n) if self.up[i] == full]
        self.top = tops[0] if len(tops) == 1 else None
        self.bottom = bottoms[0] if len(bottoms) == 1 else None

    def join(self, i, j):
        """The least upper bound, or None when it is not unique."""
        bounds = self.up[i] & self.up[j]
        least = [u for u in _bits(bounds) if bounds & ~self.up[u] == 0]
        return least[0] if len(least) == 1 else None

    def meet(self, i, j):
        bounds = self.down[i] & self.down[j]
        greatest = [u for u in _bits(bounds) if bounds & ~self.down[u] == 0]
        return greatest[0] if len(greatest) == 1 else None

    def violates(self, axiom, w) -> bool:
        """Does witness w refute the axiom?"""
        leq, mul = self.leq, self.mul
        if axiom == "order_reflexive":
            return not leq[w[0]][w[0]]
        if axiom == "order_antisymmetric":
            return w[0] != w[1] and leq[w[0]][w[1]] and leq[w[1]][w[0]]
        if axiom == "order_transitive":
            i, j, k = w
            return leq[i][j] and leq[j][k] and not leq[i][k]
        if axiom == "unique_top":
            return self.top is None
        if axiom == "unique_bottom":
            return self.bottom is None
        if axiom == "joins_exist":
            return self.join(*w) is None
        if axiom == "meets_exist":
            return self.meet(*w) is None
        if axiom == "mul_commutative":
            return mul[w[0]][w[1]] != mul[w[1]][w[0]]
        if axiom == "mul_associative":
            i, j, k = w
            return mul[mul[i][j]][k] != mul[i][mul[j][k]]
        if axiom == "identity_is_top":
            return self.top is None or mul[self.top][w[0]] != w[0]
        if axiom == "mul_distributes_over_join":
            x, a, b = w
            ab = self.join(a, b)
            lhs = self.join(mul[x][a], mul[x][b])
            return ab is None or lhs is None or lhs != mul[x][ab]
        if axiom == "bottom_annihilates":
            return self.bottom is None or mul[w[0]][self.bottom] != self.bottom
        raise ValueError(f"unknown axiom {axiom}")

    def first_violation(self):
        """The first axiom in report order that fails, with a witness, by
        an exhaustive search; None when the tables are a valid lattice."""
        n, every = self.n, range(self.n)
        searches = {
            "order_reflexive": ((i,) for i in every),
            "order_antisymmetric": ((i, j) for i in every for j in every),
            "order_transitive": ((i, j, k) for i in every for j in _bits(self.up[i])
                                 for k in _bits(self.up[j] & ~self.up[i])),
            "joins_exist": ((i, j) for i in every for j in range(i, n)),
            "meets_exist": ((i, j) for i in every for j in range(i, n)),
            "mul_commutative": ((i, j) for i in every for j in range(i, n)),
            "mul_associative": ((i, j, k) for i in every for j in every for k in every),
            "identity_is_top": ((i,) for i in every),
            "mul_distributes_over_join": ((x, a, b) for x in every for a in every for b in every),
            "bottom_annihilates": ((i,) for i in every),
        }
        for axiom in AXIOMS:
            if axiom in ("unique_top", "unique_bottom"):
                if self.violates(axiom, ()):
                    return axiom, ()
                continue
            for w in searches[axiom]:
                if self.violates(axiom, w):
                    return axiom, w
        return None


def order_error_witness(message: str):
    """(axiom, witness) named by a parse-stage order error message."""
    for axiom, word in (("order_reflexive", "reflexive"),
                        ("order_antisymmetric", "antisymmetric"),
                        ("order_transitive", "transitive")):
        if word in message:
            return axiom, tuple(int(v) for v in re.findall(r"\d+", message))
    return None, ()


# ---------------------------------------------------------------------------
# monoids of Z/n
# ---------------------------------------------------------------------------


def zmod_monoid_doc(n, system, rng) -> tuple[dict, list]:
    """Multiplicative monoid of Z/n with its elements in a seeded order,
    carrying the s-system or the ring (d-) system.  Returns the document
    and the residue at each index."""
    residues = list(range(n))
    rng.shuffle(residues)
    index = {r: i for i, r in enumerate(residues)}
    doc = {
        "name": f"zmod-mult:{n}",
        "elements": [str(r) for r in residues],
        "cayley": [[index[a * b % n] for b in residues] for a in residues],
    }
    if system == "s":
        doc["system"] = {"builtin": "s"}
    else:
        doc["system"] = {"builtin": "d-ring",
                         "addition": [[index[(a + b) % n] for b in residues] for a in residues]}
    return doc, residues


def ideal_count(n, system, residues) -> int:
    """Number of r-ideals: divisors of n for the ring system; for the
    s-system, the subsets holding 0 that are closed under multiplication
    by the monoid, counted by brute force."""
    if system == "d":
        return sum(1 for d in range(1, n + 1) if n % d == 0)
    index = {r: i for i, r in enumerate(residues)}
    # rows[i]: mask of the multiples of residues[i]
    rows = [sum({1 << index[a * b % n] for b in range(n)}) for a in residues]
    zero = 1 << index[0]
    count = 0
    for mask in range(1 << n):
        if mask & zero and all(rows[i] & ~mask == 0 for i in _bits(mask)):
            count += 1
    return count
