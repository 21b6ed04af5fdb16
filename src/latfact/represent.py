"""Maximal spectra and the function-lattice representation.

For a radical factorial backend, the localization of a nonzero element at
a maximal m is a power of m; the exponent defines a valuation v_m, the map
m -> v_m(x) is a compactly supported function on the spectrum, and sending
x to that function (and the zero element to the adjoined bottom) is an
isomorphism onto the lattice of such functions.  All shipped instances
have discrete spectra, so the inverse topology is carried as a discrete
descriptor plus the basic open sets V(x) for finite backends, and
homeomorphism degenerates to equal cardinality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .core import ElemRef, MultLattice, TestWindow
from .errors import (
    CapabilityMissing,
    HypothesisViolated,
    NotMaximal,
    UnsupportedTopology,
    ZeroElement,
)
from .factor import Stalled, StepFailed, canonical_chain, radical_factor
from .usc import (
    CompactSet,
    Space,
    USCFun,
    countable_discrete,
    decompose,
    finite_discrete,
    leq_d,
    add as usc_add,
)


@dataclass
class MaxSpectrum:
    """The maximal elements of a lattice as a topological space.

    ``points`` lists maximal elements for finite spectra (None when the
    spectrum is countably infinite and the maximals come from
    ``unit_vector``/``maximal_index``).  ``basis`` holds the basic open
    sets V(x) for finite backends, and ``separation`` a witness pair of
    compacts with join top for every two distinct points (the spectrum is
    Hausdorff and zero-dimensional).
    """

    lattice_id: str
    space: Space
    discrete: bool = True
    points: Optional[tuple] = None
    basis: dict = field(default_factory=dict)
    separation: dict = field(default_factory=dict)

    def cardinality(self) -> Optional[int]:
        return None if self.points is None else len(self.points)


def build_spectrum(lattice: MultLattice, with_basis: bool = False) -> MaxSpectrum:
    """Materialize the spectrum; discrete for every shipped backend.

    A finite maximal catalog gives a finite spectrum; without one the
    maximals must be indexed by the naturals.  ``with_basis`` asks for
    the basic open sets V(x), which only a finite carrier enumerates."""
    try:
        points = tuple(sorted(lattice.maximals(), key=lattice.label))
    except CapabilityMissing:
        lattice.unit_vector(0)  # CapabilityMissing unless indexed by the naturals
        return MaxSpectrum(lattice.id, countable_discrete(), True, None)
    spec = MaxSpectrum(lattice.id, finite_discrete(len(points)), True, points)
    for i, m in enumerate(points):
        for j, n in enumerate(points):
            if i < j:
                # maximal joins of distinct maximals are the top
                spec.separation[(i, j)] = (m, n)
    if with_basis:
        for x in lattice.elements():
            spec.basis[lattice.label(x)] = tuple(
                i for i, m in enumerate(points) if lattice.leq(x, m)
            )
    return spec


def point_of(spectrum: MaxSpectrum, lattice: MultLattice, m: ElemRef) -> int:
    if spectrum.points is not None:
        return spectrum.points.index(m)
    return lattice.maximal_index(m)


def maximal_at(spectrum: MaxSpectrum, lattice: MultLattice, point: int) -> ElemRef:
    if spectrum.points is not None:
        return spectrum.points[point]
    return lattice.unit_vector(point)


def v(lattice: MultLattice, x: ElemRef, m: ElemRef) -> int:
    """The exponent with localize(x, m) = m ** k.

    Instances answer by exponent lookup; finite backends compare against
    the power chain of m (``MultLattice.valuation``).  Outside the radical
    factorial hypotheses the matching power need not be unique; the
    smallest is returned and the uniqueness clause is only asserted where
    the hypotheses hold.
    """
    lattice._own(x, m)
    if x == lattice.bottom:
        raise ZeroElement(f"{lattice.id}: valuations are defined at nonzero elements")
    if not lattice.is_maximal_elem(m):
        raise NotMaximal(f"{lattice.label(m)} is not maximal in {lattice.id}")
    return lattice.valuation(x, m)


def alpha(lattice: MultLattice, x: ElemRef, spectrum: Optional[MaxSpectrum] = None) -> USCFun:
    """The function point -> v(x) on the spectrum; support is exactly the
    set of maximal elements above the radical of x, hence finite."""
    lattice._own(x)
    if x == lattice.bottom:
        raise ZeroElement(f"{lattice.id}: the zero element maps to the bottom")
    spectrum = spectrum or build_spectrum(lattice)
    values = {}
    for m in lattice.maximals_above(lattice.radical(x)):
        values[point_of(spectrum, lattice, m)] = v(lattice, x, m)
    return USCFun(spectrum.space, values=tuple(
        (p, val) for p, val in values.items() if val
    ))


@dataclass
class PhiMap:
    """Two-way evaluator between lattice elements and functions."""

    lattice: MultLattice
    spectrum: MaxSpectrum

    def forward(self, x: ElemRef) -> USCFun:
        self.lattice._own(x)
        if x == self.lattice.bottom:
            return USCFun.bottom(self.spectrum.space)
        return alpha(self.lattice, x, self.spectrum)

    def backward(self, f: USCFun) -> ElemRef:
        """Preimage construction: radical elements for the level sets of f
        (meets of the maximals in each compact level set), multiplied with
        the level multiplicities."""
        if f.space != self.spectrum.space:
            raise UnsupportedTopology("function lives on a different spectrum")
        if f.is_bottom:
            return self.lattice.bottom
        result = self.lattice.top
        for piece in decompose(f).radical_chain():
            result = self.lattice.mul(result, self._radical_preimage(piece))
        return result

    def _radical_preimage(self, char_fun: USCFun) -> ElemRef:
        points = [p for p, v_ in char_fun.values if v_ == 1]
        return self.lattice.meet(
            maximal_at(self.spectrum, self.lattice, p) for p in points
        )


def build_phi(lattice: MultLattice, window: Optional[TestWindow] = None) -> PhiMap:
    """Check the representation hypotheses, then hand out the evaluator.

    Requires a (window-verified) principally generated radical factorial
    C-lattice domain; dimension is checked first since the prime catalog
    is cheap and a long prime chain is the usual way to fail.
    """
    dim = lattice.dimension()
    if dim > 1:
        raise HypothesisViolated(f"{lattice.id}: dimension {dim} exceeds one")
    small = window or lattice.window(budget=20)
    lp = lattice.lattice_predicates(small)
    if not lp.domain:
        raise HypothesisViolated(f"{lattice.id}: not a lattice domain")
    if not lp.principally_generated:
        raise HypothesisViolated(f"{lattice.id}: not principally generated")
    for x in small:
        try:
            radical_factor(lattice, x)
        except (StepFailed, Stalled) as exc:
            raise HypothesisViolated(f"{lattice.id}: not radical factorial: {exc}") from exc
    return PhiMap(lattice, build_spectrum(lattice))


@dataclass
class IsoCheck:
    name: str
    passed: bool
    witness: Optional[str] = None


@dataclass
class IsoReport:
    lattice_id: str
    checks: list = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_doc(self) -> dict:
        return {
            "lattice": self.lattice_id,
            "checks": [
                {"name": c.name, "passed": c.passed, "witness": c.witness}
                for c in self.checks
            ],
            "all_pass": self.all_pass,
        }


def verify_iso(phi: PhiMap, window: TestWindow) -> IsoReport:
    """Check that the evaluator is a monoid and order isomorphism on the
    window: additivity, order reflection both ways, injectivity, and
    surjectivity onto the functions assembled from window images."""
    L = phi.lattice
    report = IsoReport(L.id)
    images = {x: phi.forward(x) for x in window}

    # additivity: phi(xy) = phi(x) + phi(y)
    bad = None
    for x in window:
        for y_ in window:
            lhs = phi.forward(L.mul(x, y_))
            rhs = usc_add(images[x], images[y_])
            if lhs != rhs:
                bad = f"phi({L.label(x)} * {L.label(y_)}) mismatches the sum"
                break
        if bad:
            break
    report.checks.append(IsoCheck("additive", bad is None, bad))

    bad = None
    for x in window:
        for y_ in window:
            if L.leq(x, y_) != leq_d(images[x], images[y_]):
                bad = f"order disagrees at {L.label(x)}, {L.label(y_)}"
                break
        if bad:
            break
    report.checks.append(IsoCheck("order_reflecting", bad is None, bad))

    seen = {}
    bad = None
    for x, f in images.items():
        if f in seen and seen[f] != x:
            bad = f"{L.label(x)} and {L.label(seen[f])} share an image"
            break
        seen[f] = x
    report.checks.append(IsoCheck("injective", bad is None, bad))

    bad = None
    for x, f in images.items():
        back = phi.backward(f)
        if back != x:
            bad = f"preimage of phi({L.label(x)}) came back as {L.label(back)}"
            break
    report.checks.append(IsoCheck("surjective_on_window", bad is None, bad))
    return report


def homeomorphic(first: MaxSpectrum, second: MaxSpectrum) -> bool:
    """Spectrum comparison; for discrete (finite or countable) spectra this
    is a cardinality check."""
    if not (first.discrete and second.discrete):
        raise UnsupportedTopology("only discrete spectra are comparable")
    return first.cardinality() == second.cardinality()


def chain_level_sets(lattice: MultLattice, chain) -> list[frozenset]:
    """Map a radical chain to the point sets carried by its factors, for
    comparison with a function decomposition."""
    spectrum = build_spectrum(lattice)
    out = []
    for f in chain:
        fun = alpha(lattice, f, spectrum)
        out.append(frozenset(p for p, v_ in fun.values if v_ == 1))
    return out


def engine_agrees_with_decomposition(lattice: MultLattice, x: ElemRef) -> bool:
    """The engine's canonical chain and the level-set split of alpha(x)
    must carry the same multiset of level sets."""
    spectrum = build_spectrum(lattice)
    chain = canonical_chain(lattice, x)
    image = alpha(lattice, x, spectrum)
    from_chain = sorted(
        tuple(sorted(s)) for s in chain_level_sets(lattice, chain.factors)
    )
    from_fun = sorted(
        tuple(sorted(p for p in range(spectrum.cardinality() or 0)
                     if piece.contains(p)))
        for piece in _expanded_levels(image)
    )
    return from_chain == from_fun


def _expanded_levels(f: USCFun) -> list[CompactSet]:
    d = decompose(f)
    out = []
    if not d.values:
        return out
    out.extend([d.level_sets[0]] * d.values[0])
    for i, inc in enumerate(d.increments(), start=1):
        out.extend([d.level_sets[i]] * inc)
    return out
