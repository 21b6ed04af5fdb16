import pytest

from latfact import factor, finite, idealsys, instances
from latfact.core import ElemRef, MultLattice
from latfact.errors import (
    CapabilityMissing,
    HypothesisViolated,
    Stalled,
    StepFailed,
    ZeroElement,
)


def test_factor_examples_zmod(zmod12):
    four = zmod12.ref_by_label("4")
    chain = factor.radical_factor(zmod12, four)
    assert [zmod12.label(f) for f in chain] == ["2", "2"]
    assert chain.product_check
    assert factor.radical_factor(zmod12, zmod12.top).factors == ()
    zero_chain = factor.radical_factor(zmod12, zmod12.bottom)
    assert [zmod12.label(f) for f in zero_chain] == ["6", "2"]


def test_factor_chain_is_ascending_and_sound(zmod12):
    for x in zmod12.elements():
        chain = factor.radical_factor(zmod12, x)
        prod = zmod12.top
        for a, b in zip(chain.factors, chain.factors[1:]):
            assert zmod12.leq(a, b)
        for f in chain:
            assert zmod12.is_radical_elem(f)
            prod = zmod12.mul(prod, f)
        assert prod == x


def test_factor_dedekind_example(dedekind3):
    chain = factor.radical_factor(dedekind3, dedekind3.element({0: 2, 1: 1}))
    assert [dedekind3.vec(f) for f in chain] == [{0: 1, 1: 1}, {0: 1}]


def test_factor_fails_with_witness_on_rank2():
    L = instances.rank2_valuation()
    with pytest.raises(StepFailed) as err:
        factor.radical_factor(L, L.principal(1, 0))
    assert err.value.step == 0
    cur, y, rest = err.value.witness
    assert L.mul(y, rest) != cur


def test_factor_fails_on_numerical_nonprincipal_gap():
    N = instances.numerical_monoid((2, 3))
    with pytest.raises(StepFailed):
        factor.radical_factor(N, N.ideal([3]))


def test_factor_inconclusive_when_budget_too_small():
    L = instances.dedekind(1)
    with pytest.raises(Stalled) as err:
        factor.radical_factor(L, L.element({0: 5}), max_steps=2)
    assert err.value.inconclusive


class _LyingRadical(MultLattice):
    """Two-chain whose radical lies: forces a repeated remainder."""

    def __init__(self):
        super().__init__("lying")

    @property
    def top(self):
        return ElemRef(self.id, 1)

    @property
    def bottom(self):
        return ElemRef(self.id, 0)

    def leq(self, x, y):
        return x.key <= y.key

    def mul(self, x, y):
        return ElemRef(self.id, min(x.key, y.key))

    def join2(self, x, y):
        return ElemRef(self.id, max(x.key, y.key))

    def meet2(self, x, y):
        return self.mul(x, y)

    def radical(self, x):
        return self.top  # wrong for the bottom; the engine must notice

    def residual(self, y, x):
        return y if x == self.top else self.top

    def label(self, x):
        return str(x.key)


def test_factor_stalls_on_repeating_remainder():
    L = _LyingRadical()
    with pytest.raises(Stalled, match="repeated"):
        factor.radical_factor(L, L.bottom)


def test_zero_dimensional_hypothesis_engine_completeness():
    # wherever every maximal above x sits over a compact weak-meet-principal
    # zero-dimensional radical element, the engine must succeed on every
    # zero-dimensional x; divisor lattices satisfy this for every element
    for n in (8, 12, 30, 36):
        L = finite.materialize_from_divisors(n)
        maxes = L.maximals()
        for x in L.elements():
            primes_above = [p for p in L.primes() if L.leq(x, p)]
            if not all(L.is_maximal_elem(p) for p in primes_above):
                continue  # x is not zero-dimensional
            hypothesis = all(
                any(L.is_radical_elem(r) and L.element_predicates(r).weak_meet_principal
                    and L.leq(r, m) and
                    all(L.is_maximal_elem(q) for q in L.primes() if L.leq(r, q))
                    for r in L.elements())
                for m in maxes if L.leq(x, m)
            )
            if x != L.top and hypothesis:
                chain = factor.radical_factor(L, x)
                assert chain.product_check


def test_is_product_of_radicals(zmod12):
    ok, witness = factor.is_product_of_radicals(zmod12, zmod12.bottom)
    assert ok
    prod = zmod12.top
    for f in witness:
        assert zmod12.is_radical_elem(f)
        prod = zmod12.mul(prod, f)
    assert prod == zmod12.bottom
    for x in zmod12.elements():
        if zmod12.is_radical_elem(x):
            assert factor.is_product_of_radicals(zmod12, x)[0]


def test_is_product_of_radicals_negative():
    N = instances.numerical_monoid((2, 3))
    ok, _ = factor.is_product_of_radicals(N, N.ideal([3]))
    assert not ok
    R = instances.rank2_valuation()
    ok, _ = factor.is_product_of_radicals(R, R.principal(1, 0))
    assert not ok
    ok, chain = factor.is_product_of_radicals(R, R.limit(2))
    assert ok and chain == [R.limit(0)] * 3


def test_canonical_chain(dedekind3):
    L = dedekind3
    chain = factor.canonical_chain(L, L.element({0: 2, 1: 2, 2: 1}))
    assert [L.vec(f) for f in chain] == [{0: 1, 1: 1, 2: 1}, {0: 1, 1: 1}]
    assert chain.factors[0] == L.radical(L.element({0: 2, 1: 2, 2: 1}))
    radical = L.element({0: 1, 2: 1})
    assert factor.canonical_chain(L, radical).factors == (radical,)
    with pytest.raises(ZeroElement):
        factor.canonical_chain(L, L.bottom)


def test_verify_uniqueness(dedekind3):
    L = dedekind3
    search = factor.verify_uniqueness(L, L.element({0: 2, 1: 1}), bound=3)
    assert search.unique
    assert [L.vec(f) for f in search.chains[0]] == [{0: 1, 1: 1}, {0: 1}]
    assert factor.verify_uniqueness(L, L.top, bound=3).unique


def test_uniqueness_can_fail_outside_domains(zmod12):
    search = factor.verify_uniqueness(zmod12, zmod12.bottom, bound=3)
    assert not search.unique
    assert len(search.chains) > 1
    for chain in search.chains:
        prod = zmod12.top
        for f in chain:
            prod = zmod12.mul(prod, f)
        assert prod == zmod12.bottom


def test_check_sp_rejects_non_domains(zmod12):
    with pytest.raises(HypothesisViolated):
        factor.check_sp_conditions(zmod12, "lattice-4.6")
    with pytest.raises(HypothesisViolated):
        factor.check_sp_conditions(zmod12, "no-such-flavor")


def test_check_sp_positive_on_two_chain():
    L = finite.load({
        "name": "two-chain",
        "elements": ["0", "1"],
        "leq": [[1, 1], [0, 1]],
        "mul": [[0, 0], [0, 1]],
    })
    report = factor.check_sp_conditions(L, "lattice-4.6")
    assert report.agreement and set(report.values()) == {True}
    assert all(c.scope == "exhaustive" for c in report.conditions[:1])


def test_check_sp_report_document(dedekind3):
    report = factor.check_sp_conditions(dedekind3, "domain-7.7")
    doc = report.to_doc()
    assert doc["agreement"] is True
    assert len(doc["conditions"]) == 6
    assert {c["number"] for c in doc["conditions"]} == set(range(1, 7))


# every declared backend method, called at an element x and a maximal m
PROTOCOL = (
    ("radical_product_membership", lambda L, x, m: L.radical_product_membership(x)),
    ("proper_radicals_above", lambda L, x, m: L.proper_radicals_above(x)),
    ("principal_join_below", lambda L, x, m: L.principal_join_below(x)),
    ("valuation", lambda L, x, m: L.valuation(x, m)),
    ("maximals_above", lambda L, x, m: L.maximals_above(x)),
    ("unit_vector", lambda L, x, m: L.unit_vector(0)),
    ("maximal_index", lambda L, x, m: L.maximal_index(m)),
    ("c_lattice_note", lambda L, x, m: L.c_lattice_note()),
)


def test_capability_missing_without_catalog():
    class Bare(_LyingRadical):
        pass

    L = Bare()
    with pytest.raises(CapabilityMissing):
        factor.is_product_of_radicals(L, L.bottom)
    # a backend with only the primitives answers no declared method, and
    # says so with CapabilityMissing rather than AttributeError
    for _, call in PROTOCOL:
        for x in (L.top, L.bottom):
            with pytest.raises(CapabilityMissing):
                call(L, x, L.bottom)  # the bottom is the maximal of the two-chain


def test_check_sp_needs_a_declared_c_lattice():
    class Undeclared(finite.FiniteMultLattice):
        c_lattice_note = MultLattice.c_lattice_note  # no justification

    doc = {"name": "two-chain", "elements": ["0", "1"],
           "leq": [[1, 1], [0, 1]], "mul": [[0, 0], [0, 1]]}
    assert factor.check_sp_conditions(finite.load(doc), "lattice-4.6").agreement
    with pytest.raises(HypothesisViolated, match="not declared a C-lattice"):
        factor.check_sp_conditions(Undeclared.from_document(doc), "lattice-4.6")


def _d_system_ideals_12():
    return idealsys.build_ideal_lattice(idealsys.WeakIdealSystem.d_system(
        idealsys.zmod_mult_monoid(12), idealsys.zmod_addition(12)))


@pytest.mark.parametrize("make", [
    lambda: instances.dedekind(3),
    lambda: instances.dedekind(None),
    lambda: instances.power_of_j_from_int(30),
    instances.rank2_valuation,
    lambda: instances.numerical_monoid((3, 5)),
    lambda: finite.materialize_from_divisors(12),
    _d_system_ideals_12,
], ids=["dedekind:3", "dedekind:unbounded", "power-of-j:30", "rank2",
        "numerical:3,5", "zmod:12", "d-system:zmod:12"])
def test_shipped_backends_answer_the_protocol(make):
    L = make()
    try:
        m = L.maximals()[0]
    except CapabilityMissing:
        m = L.unit_vector(0)
    assert L.c_lattice_note()  # every shipped backend is a declared C-lattice
    for name, call in PROTOCOL:
        for x in (L.top, m):
            try:
                result = call(L, x, m)
            except CapabilityMissing:
                continue
            if name == "valuation":
                assert result == (0 if x == L.top else 1), (name, L.label(x))
            elif name == "maximal_index":
                assert L.unit_vector(result) == m
            elif name == "radical_product_membership":
                assert result[0] is True, (name, L.label(x))
            elif name in ("proper_radicals_above", "maximals_above"):
                assert all(L.leq(x, r) for r in result), (name, L.label(x))
            elif name == "c_lattice_note":
                assert isinstance(result, str) and result, name
            else:
                L._own(result)
    if isinstance(L, finite.FiniteMultLattice):
        assert (L.ideal_masks is None) == (L.name == "zmod:12")
        assert L.ideal_masks is None or len(L.ideal_masks) == L.n


def test_factor_chain_serialization(zmod12):
    chain = factor.radical_factor(zmod12, zmod12.ref_by_label("4"))
    doc = chain.to_doc(zmod12)
    assert doc == {"source": "4", "factors": ["2", "2"], "product_check": True}
