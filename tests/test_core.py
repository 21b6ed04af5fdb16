import pytest

from latfact import finite
from latfact.core import ElemRef, TestWindow
from latfact.errors import ForeignElement, NotPrime
from latfact.props import localization_checks


def two_chain():
    return finite.load({
        "name": "two-chain",
        "elements": ["0", "1"],
        "leq": [[1, 1], [0, 1]],
        "mul": [[0, 0], [0, 1]],
    })


def three_chain_nilpotent():
    # 0 < m < 1 with m*m = 0
    return finite.load({
        "name": "three-chain",
        "elements": ["0", "m", "1"],
        "leq": [[1, 1, 1], [0, 1, 1], [0, 0, 1]],
        "mul": [[0, 0, 0], [0, 0, 1], [0, 1, 2]],
    })


def test_foreign_elements_rejected(zmod12):
    other = finite.materialize_from_divisors(6)
    with pytest.raises(ForeignElement):
        zmod12.leq(other.top, zmod12.top)
    with pytest.raises(ForeignElement):
        zmod12.radical(ElemRef("nowhere", 0))


def test_refs_equal_only_within_context(zmod12):
    other = finite.materialize_from_divisors(12)
    assert zmod12.top != other.top
    assert zmod12.top == ElemRef(zmod12.id, zmod12.top.key)


def test_residual_examples(zmod12, zmod12_oracle):
    four = zmod12.ref_by_label("4")
    two = zmod12.ref_by_label("2")
    expected = zmod12_oracle.divisor_of(zmod12_oracle.residual(4, 2))
    assert zmod12.label(zmod12.residual(four, two)) == str(expected) == "2"
    # the top is the multiplicative identity, so (y : top) = y
    for y in zmod12.elements():
        assert zmod12.residual(y, zmod12.top) == y


def test_residual_adjunction_exhaustive(zmod12):
    elems = zmod12.elements()
    for a in elems:
        for x in elems:
            for y in elems:
                assert zmod12.leq(zmod12.mul(a, x), y) == zmod12.leq(a, zmod12.residual(y, x))


def test_radical_examples(zmod12, zmod12_oracle):
    four = zmod12.ref_by_label("4")
    assert zmod12.label(zmod12.radical(four)) == str(zmod12_oracle.divisor_of(zmod12_oracle.radical(4)))
    assert zmod12.radical(zmod12.top) == zmod12.top
    # nilradical of Z/12 is generated by 6
    assert zmod12.label(zmod12.radical(zmod12.bottom)) == "6"


def test_localize_examples(zmod12):
    two = zmod12.ref_by_label("2")
    three = zmod12.ref_by_label("3")
    four = zmod12.ref_by_label("4")
    assert zmod12.label(zmod12.localize(zmod12.bottom, two)) == "4"
    # localization is the unit exactly off the prime
    assert zmod12.localize(three, two) == zmod12.top
    # powers of a maximal are fixed under its localization
    assert zmod12.localize(four, two) == four
    with pytest.raises(NotPrime):
        zmod12.localize(two, four)


def test_localization_identity_suite_small_moduli():
    for n in (8, 12, 30):
        L = finite.materialize_from_divisors(n)
        for name, (ok, witness) in localization_checks(L).items():
            assert ok, f"zmod:{n} {name} fails at {witness}"


def test_minimal_prime_localization_radical(zmod12):
    # the radical of a localization at a minimal covering prime is the prime
    for x in zmod12.elements():
        for p in zmod12.minimal_primes_above(x):
            assert zmod12.radical(zmod12.localize(x, p)) == p


def test_primes_and_dimension(zmod12):
    labels = sorted(zmod12.label(p) for p in zmod12.primes())
    assert labels == ["2", "3"]  # the zero ideal is not prime: 4 * 3 = 0
    assert zmod12.dimension() == 0
    assert two_chain().dimension() == 0


def test_element_predicates_top_invertible(zmod12):
    rec = zmod12.element_predicates(zmod12.top)
    assert rec.ell_invertible and rec.mode == "exhaustive"


def test_element_predicates_witnesses(zmod12):
    rec = zmod12.element_predicates(zmod12.ref_by_label("2"))
    assert rec.weak_meet_principal
    assert not rec.cancellative
    y, z = rec.witnesses["cancellative"]
    assert zmod12.mul(zmod12.ref_by_label("2"), y) == zmod12.mul(zmod12.ref_by_label("2"), z)
    assert y != z


def test_principal_products_stay_principal(zmod12):
    # products of principal elements are principal; invertibility of a
    # product forces invertibility of both factors and conversely
    elems = zmod12.elements()
    recs = {x: zmod12.element_predicates(x) for x in elems}
    for x in elems:
        for y in elems:
            product = zmod12.mul(x, y)
            if recs[x].ell_principal and recs[y].ell_principal:
                assert recs[product].ell_principal
            assert recs[product].ell_invertible == (
                recs[x].ell_invertible and recs[y].ell_invertible
            )


def test_modular_weak_meet_principal_cancellative_invertible():
    for lattice in (two_chain(), three_chain_nilpotent()):
        assert lattice.validate().modular
        for x in lattice.elements():
            rec = lattice.element_predicates(x)
            if rec.cancellative and rec.weak_meet_principal:
                assert rec.ell_invertible


def test_domain_nonzero_principal_is_invertible():
    lattice = two_chain()
    assert lattice.validate().domain
    for x in lattice.elements():
        rec = lattice.element_predicates(x)
        if x != lattice.bottom and rec.ell_principal:
            assert rec.ell_invertible


def test_lattice_predicates_examples(zmod12):
    lp = zmod12.lattice_predicates()
    assert (lp.modular, lp.domain, lp.principally_generated) == (True, False, True)
    assert "domain" in lp.witnesses
    small = two_chain().lattice_predicates()
    assert (small.modular, small.domain, small.principally_generated) == (True, True, True)


def test_bottom_annihilates(zmod12):
    for x in zmod12.elements():
        assert zmod12.mul(x, zmod12.bottom) == zmod12.bottom


def test_window_for_finite_is_whole_carrier(zmod12):
    window = zmod12.window()
    assert len(window) == zmod12.n
    assert zmod12.top in window.sample and zmod12.bottom in window.sample


def test_predicates_on_explicit_window(zmod12, dedekind3):
    window = TestWindow(tuple(zmod12.elements()[:4]), "prefix sample")
    rec = zmod12.element_predicates(zmod12.top, window)
    assert rec.mode == "window-verified"
    # without a sample the scope is the backend's own window's: the whole
    # finite carrier, or a generated window of a presented backend
    assert zmod12.element_predicates(zmod12.top).mode == "exhaustive"
    assert dedekind3.element_predicates(dedekind3.top).mode == "window-verified"
