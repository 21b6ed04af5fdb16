"""Radical factorization engine and the SP characterization checks.

The engine peels off the radical at every step: y = sqrt(x), then the
remainder x' = (x : y), verifying x = y * x' before accepting (the step
identity can fail when the usual hypotheses do not hold, and a concrete
witness beats a wrong chain).  Remainders repeat or run past the step
budget only outside those hypotheses; both are reported as a stall and
treated as inconclusive.  Chains come back ascending because the radical
is monotone and remainders grow along the iteration.

The condition checker evaluates the six equivalent shapes of the SP
property (radical factoriality; dimension plus invertible factorization;
primes maximal and above invertible radicals; ascending-chain
factorization; invertible radicals of compacts; invertible compacts with
compact radicals) and reports per-condition verdicts with witnesses plus
an agreement flag.  Disagreement on a backend satisfying the hypotheses
signals a bug, which is the point of running all six.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .core import ElemRef, MultLattice, PredicateRecord, TestWindow
from .errors import (
    CapabilityMissing,
    HypothesisViolated,
    InvariantViolation,
    Stalled,
    StepFailed,
    ZeroElement,
)

DEFAULT_MAX_STEPS = 64

FLAVORS = ("lattice-4.6", "domain-7.7", "monoid-8.5")


@dataclass
class FactorChain:
    """An ascending chain of proper radical factors with verified product."""

    lattice_id: str
    source: ElemRef
    factors: tuple
    product_check: bool

    def __iter__(self):
        return iter(self.factors)

    def __len__(self):
        return len(self.factors)

    def to_doc(self, lattice: MultLattice) -> dict:
        return {
            "source": lattice.label(self.source),
            "factors": [lattice.label(f) for f in self.factors],
            "product_check": self.product_check,
        }


def radical_factor(lattice: MultLattice, x: ElemRef,
                   max_steps: int = DEFAULT_MAX_STEPS) -> FactorChain:
    """Iterate y = sqrt(x), x = (x : y) until the remainder is the top.

    Every step is verified against the reconstruction identity; the
    returned chain multiplies back to the source, each factor is radical,
    and the factors ascend.
    """
    lattice._own(x)
    top = lattice.top
    if x == top:
        return FactorChain(lattice.id, x, (), True)
    factors = []
    cur = x
    seen = {cur}
    for step in range(max_steps):
        y = lattice.radical(cur)
        rest = lattice.residual(cur, y)
        if lattice.mul(y, rest) != cur:
            raise StepFailed(
                step,
                f"{lattice.label(cur)} != {lattice.label(y)} * ({lattice.label(cur)} : "
                f"{lattice.label(y)}) at step {step}",
                witness=(cur, y, rest),
            )
        factors.append(y)
        if rest == top:
            return _checked_chain(lattice, x, factors)
        if rest in seen:
            raise Stalled(
                f"remainder {lattice.label(rest)} repeated at step {step} "
                f"without reaching the top"
            )
        seen.add(rest)
        cur = rest
    raise Stalled(f"no factorization within {max_steps} steps; inconclusive")


def _checked_chain(lattice, source, factors) -> FactorChain:
    for f in factors:
        if not lattice.is_radical_elem(f):
            raise InvariantViolation(f"factor {lattice.label(f)} is not radical")
        if f == lattice.top:
            raise InvariantViolation("a proper chain never carries the top")
    for a, b in zip(factors, factors[1:]):
        if not lattice.leq(a, b):
            raise StepFailed(0, f"chain not ascending at {lattice.label(a)}, {lattice.label(b)}",
                             witness=(a, b))
    prod = lattice.top
    for f in factors:
        prod = lattice.mul(prod, f)
    if prod != source:
        raise InvariantViolation(
            f"chain product {lattice.label(prod)} differs from {lattice.label(source)}"
        )
    return FactorChain(lattice.id, source, tuple(factors), True)


def canonical_chain(lattice: MultLattice, x: ElemRef,
                    max_steps: int = DEFAULT_MAX_STEPS) -> FactorChain:
    """The unique ascending proper-radical chain on backends where it is
    unique; the first factor is always the radical of x."""
    lattice._own(x)
    if x == lattice.bottom and x != lattice.top:
        raise ZeroElement(f"{lattice.id}: the zero element has no proper chain")
    chain = radical_factor(lattice, x, max_steps)
    if chain.factors and chain.factors[0] != lattice.radical(x):
        raise InvariantViolation("canonical chain must start at the radical")
    return chain


def is_product_of_radicals(lattice: MultLattice, x: ElemRef):
    """Exact membership of x in the closure of the radical elements under
    products, from the backend's radical catalog (finite carriers saturate
    the closure; CapabilityMissing without a catalog).
    Returns (flag, witness chain or None).
    """
    lattice._own(x)
    return lattice.radical_product_membership(x)


@dataclass
class ChainSearch:
    """Every ascending proper-radical chain with the given product."""

    unique: bool
    chains: list
    canonical: Optional[tuple]

    def __bool__(self):
        return self.unique


def verify_uniqueness(lattice: MultLattice, x: ElemRef, bound: int) -> ChainSearch:
    """Enumerate ascending proper-radical chains of length <= bound whose
    product is x and compare against the engine's chain."""
    lattice._own(x)
    if x == lattice.top:
        return ChainSearch(True, [()], ())
    candidates = lattice.proper_radicals_above(x)
    # linear extension of the lattice order, so ascending chains always
    # move forward through the candidate list
    ranks = {r: sum(1 for s in candidates if lattice.leq(s, r)) for r in candidates}
    candidates.sort(key=lambda r: (ranks[r], lattice.label(r)))
    found = []

    def extend(prefix, product, start):
        if len(prefix) > bound:
            return
        if product == x and prefix:
            found.append(tuple(prefix))
        if len(prefix) == bound:
            return
        for idx in range(start, len(candidates)):
            r = candidates[idx]
            if prefix and not lattice.leq(prefix[-1], r):
                continue
            nxt = lattice.mul(product, r)
            if lattice.leq(x, nxt):
                prefix.append(r)
                extend(prefix, nxt, idx)
                prefix.pop()

    extend([], lattice.top, 0)
    canonical = None
    try:
        canonical = canonical_chain(lattice, x).factors
    except (StepFailed, Stalled, ZeroElement):
        pass
    unique = len(found) == 1 and canonical is not None and found[0] == canonical
    return ChainSearch(unique, found, canonical)


# ---------------------------------------------------------------------------
# SP condition suite
# ---------------------------------------------------------------------------


@dataclass
class ConditionVerdict:
    number: int
    label: str
    value: bool
    scope: str  # "exhaustive" | "window-verified" | "closed-form"
    witness: Optional[str] = None


@dataclass
class ConditionReport:
    flavor: str
    lattice_id: str
    conditions: list = field(default_factory=list)
    agreement: bool = False
    hypothesis_notes: list = field(default_factory=list)

    def values(self):
        return [c.value for c in self.conditions]

    def to_doc(self) -> dict:
        return {
            "flavor": self.flavor,
            "lattice": self.lattice_id,
            "conditions": [
                {"number": c.number, "label": c.label, "value": c.value,
                 "scope": c.scope, "witness": c.witness}
                for c in self.conditions
            ],
            "agreement": self.agreement,
            "hypotheses": list(self.hypothesis_notes),
        }


_CONDITION_LABELS = {
    "lattice-4.6": (
        "every element is a product of radical elements",
        "dimension at most one and invertible elements factor into radicals",
        "nonzero primes are maximal and above an invertible radical",
        "every element has an ascending radical chain",
        "the radical of every nonzero compact is invertible",
        "nonzero compacts are invertible and radicals of compacts are compact",
    ),
    "domain-7.7": (
        "every proper ideal is a product of radical ideals",
        "dimension at most one and invertible ideals factor into radicals",
        "nonzero primes are maximal and contain an invertible radical ideal",
        "every nonzero ideal has an ascending radical chain",
        "the radical of every nonzero finitely generated ideal is invertible",
        "Pruefer: finitely generated ideals invertible, their radicals finitely generated",
    ),
    "monoid-8.5": (
        "every ideal is a product of radical ideals",
        "dimension at most one and invertible ideals factor into radicals",
        "nontrivial prime ideals are maximal and contain an invertible radical ideal",
        "every nontrivial ideal has an ascending radical chain",
        "the radical of every nontrivial finitely generated ideal is invertible",
        "Pruefer monoid: finitely generated ideals invertible with finitely generated radicals",
    ),
}


def check_sp_conditions(lattice: MultLattice, flavor: str,
                        window: Optional[TestWindow] = None) -> ConditionReport:
    """Evaluate the equivalent SP conditions on one backend.

    The preamble hypotheses (principally generated C-lattice domain) are
    checked first, on a small window for the quantified parts; a backend
    that fails them gets a HypothesisViolated instead of a report.
    """
    if flavor not in FLAVORS:
        raise HypothesisViolated(f"unknown flavor {flavor!r}")
    report = ConditionReport(flavor=flavor, lattice_id=lattice.id)
    report.hypothesis_notes = _check_hypotheses(lattice)

    win = window or lattice.window()
    scope = win.scope
    labels = _CONDITION_LABELS[flavor]
    preds: dict = {}

    def predicates(x) -> PredicateRecord:
        if x not in preds:
            preds[x] = lattice.element_predicates(x, win)
        return preds[x]

    nonzero = [x for x in win if x != lattice.bottom]
    compacts = [x for x in nonzero if lattice.is_compact(x)]

    # 1: radical factoriality
    value, witness, sc = _factoriality(lattice, win, scope)
    report.conditions.append(ConditionVerdict(1, labels[0], value, sc, witness))

    # 2: dimension <= 1 and invertibles factor
    dim = lattice.dimension()
    if dim > 1:
        report.conditions.append(ConditionVerdict(
            2, labels[1], False, "closed-form", f"dimension {dim}"))
    else:
        value, witness, sc = _invertibles_factor(lattice, nonzero, predicates, scope)
        report.conditions.append(ConditionVerdict(2, labels[1], value, sc, witness))

    # 3: nonzero primes maximal and above an invertible radical
    value, witness = _primes_shape(lattice, win, predicates)
    report.conditions.append(ConditionVerdict(
        3, labels[2], value, _catalog_scope(scope), witness))

    # 4: ascending chains for every element
    value, witness = _engine_sweep(lattice, win)
    report.conditions.append(ConditionVerdict(4, labels[3], value, scope, witness))

    # 5: radicals of nonzero compacts invertible
    value, witness = None, None
    for x in compacts:
        rad = lattice.radical(x)
        if not predicates(rad).ell_invertible:
            value, witness = False, f"radical of {lattice.label(x)} is {lattice.label(rad)}, not invertible"
            break
    if value is None:
        value = True
    report.conditions.append(ConditionVerdict(5, labels[4], value, scope, witness))

    # 6: compacts invertible, radicals of compacts compact
    value, witness = None, None
    for x in compacts:
        if not predicates(x).ell_invertible:
            value, witness = False, f"compact {lattice.label(x)} is not invertible"
            break
        if not lattice.is_compact(lattice.radical(x)):
            value, witness = False, f"radical of {lattice.label(x)} is not compact"
            break
    if value is None:
        value = True
    report.conditions.append(ConditionVerdict(6, labels[5], value, scope, witness))

    report.agreement = len(set(report.values())) == 1
    return report


def _check_hypotheses(lattice: MultLattice) -> list:
    try:
        notes = ["C-lattice: " + lattice.c_lattice_note()]
    except CapabilityMissing:
        raise HypothesisViolated(f"{lattice.id}: not declared a C-lattice") from None
    lp = lattice.lattice_predicates(lattice.window(budget=20))
    if not lp.domain:
        raise HypothesisViolated(f"{lattice.id}: not a lattice domain")
    notes.append(f"domain: {lp.mode}")
    if not lp.principally_generated:
        raise HypothesisViolated(f"{lattice.id}: not principally generated")
    notes.append(f"principally generated: {lp.mode}")
    return notes


def _catalog_verdict(lattice, x) -> Optional[bool]:
    """Whether the backend's radical catalog decomposes x, or None when it
    has no catalog and the caller falls back to the engine."""
    try:
        ok, _ = lattice.radical_product_membership(x)
    except CapabilityMissing:
        return None
    return ok


def _catalog_scope(scope: str) -> str:
    """Scope of a verdict read off a catalog (the radical or the prime
    catalog).  A catalog answer is exact, so it is not window-verified:
    exhaustive on a whole finite carrier, closed-form otherwise."""
    return "exhaustive" if scope == "exhaustive" else "closed-form"


def _factoriality(lattice, win, scope):
    for x in win:
        ok = _catalog_verdict(lattice, x)
        if ok is None:
            try:
                radical_factor(lattice, x)
            except (StepFailed, Stalled) as exc:
                return False, f"{lattice.label(x)}: {exc}", scope
        elif not ok:
            return False, f"{lattice.label(x)} is not a product of radicals", _catalog_scope(scope)
    return True, None, scope


def _invertibles_factor(lattice, nonzero, predicates, scope):
    for x in nonzero:
        if not predicates(x).ell_invertible:
            continue
        ok = _catalog_verdict(lattice, x)
        if ok is None:
            try:
                radical_factor(lattice, x)
            except (StepFailed, Stalled) as exc:
                return False, f"invertible {lattice.label(x)} does not factor: {exc}", scope
        elif not ok:
            return (False, f"invertible {lattice.label(x)} is not a product of radicals",
                    _catalog_scope(scope))
    return True, None, scope


def _primes_shape(lattice, win, predicates):
    for p in lattice.primes():
        if p == lattice.bottom:
            continue
        if not lattice.is_maximal_elem(p):
            return False, f"nonmaximal prime {lattice.label(p)}"
        below = [r for r in win
                 if lattice.leq(r, p) and lattice.is_radical_elem(r)
                 and r != lattice.bottom and predicates(r).ell_invertible]
        if not below:
            return False, f"prime {lattice.label(p)} has no invertible radical below it"
    return True, None


def _engine_sweep(lattice, win):
    for x in win:
        try:
            radical_factor(lattice, x)
        except (StepFailed, Stalled) as exc:
            if _catalog_verdict(lattice, x):
                raise InvariantViolation(
                    f"engine fails on {lattice.label(x)} but the radical catalog "
                    f"decomposes it"
                ) from exc
            return False, f"{lattice.label(x)}: {exc}"
    return True, None
