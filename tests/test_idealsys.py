import pytest

from latfact import finite, idealsys
from latfact.errors import AxiomViolation, EmptyRegularCarrier, ParseError, TooLarge
from latfact.idealsys import FiniteMonoid, WeakIdealSystem, bits, mask_of


@pytest.fixture(scope="module")
def s4():
    return WeakIdealSystem.s_system(idealsys.zmod_mult_monoid(4))


@pytest.fixture(scope="module")
def d12():
    return WeakIdealSystem.d_system(idealsys.zmod_mult_monoid(12),
                                    idealsys.zmod_addition(12))


def test_monoid_table_validation():
    with pytest.raises(AxiomViolation, match="commutative"):
        FiniteMonoid(["a", "b"], ((0, 1), (0, 1)))
    with pytest.raises(AxiomViolation, match="identity"):
        FiniteMonoid(["a", "b"], ((0, 0), (0, 0)))
    with pytest.raises(ParseError):
        FiniteMonoid(["a"], ((0,),))
    monoid = idealsys.zmod_mult_monoid(4)
    assert monoid.identity == 1
    assert set(bits(monoid.zero_mask)) == {0}


def test_s_system_closure_and_ideals(s4):
    assert s4.closure(mask_of([2])) == mask_of([0, 2])
    assert s4.closure(mask_of([3])) == mask_of([0, 1, 2, 3])
    ideals = [s4.monoid.set_label(m) for m in s4.r_ideals()]
    assert ideals == ["{0}", "{0,2}", "{0,1,2,3}"]


def test_s_system_axioms(s4):
    report = idealsys.validate_system(s4)
    assert report.all_axioms_pass
    assert report.is_ideal_system and report.is_finitary and report.is_modular


def test_d_system_matches_divisor_lattice(d12):
    report = idealsys.validate_system(d12)
    assert report.all_axioms_pass and report.is_modular
    lattice = idealsys.build_ideal_lattice(d12)
    divisors = finite.materialize_from_divisors(12)
    assert lattice.n == divisors.n == 6
    mapping = {}
    for i, label in enumerate(divisors.labels):
        d = int(label)
        mask = mask_of((d * k) % 12 for k in range(12))
        mapping[i] = lattice.ideal_masks.index(mask)
    for i in range(divisors.n):
        for j in range(divisors.n):
            assert divisors._leq[i][j] == lattice._leq[mapping[i]][mapping[j]]
            assert mapping[divisors._mul[i][j]] == lattice._mul[mapping[i]][mapping[j]]


def test_ideal_lattice_validates(s4):
    lattice = idealsys.build_ideal_lattice(s4)
    assert lattice.validate().all_axioms_pass
    assert lattice.c_lattice_note()


def test_regular_sublattice(s4, d12):
    for system in (s4, d12):
        regular = idealsys.build_ideal_lattice(system, regular_only=True)
        assert regular.n == 2  # only the full ideal is regular for these monoids
        assert regular.validate().all_axioms_pass
    assert d12.regular_elements() == [1, 5, 7, 11]


def test_empty_regular_carrier_guard(s4):
    class NoRegulars(WeakIdealSystem):
        def regular_elements(self):
            return []

    broken = NoRegulars(s4.monoid, "no-regulars", s4.closure)
    with pytest.raises(EmptyRegularCarrier):
        idealsys.build_ideal_lattice(broken, regular_only=True)


def test_r_invertibility(s4, d12):
    # a principal ideal of a regular element is invertible through J = H
    full = s4.closure(mask_of([1]))
    ok, witness = s4.r_invertible(full)
    assert ok and witness is not None
    ok, _ = s4.r_invertible(mask_of([0, 2]))
    assert not ok
    invertible = [m for m in d12.r_ideals() if d12.r_invertible(m)[0]]
    assert invertible == [d12.closure(mask_of([1]))]


def test_invertibility_bridge(s4, d12):
    # system-invertible ideals are weak meet principal cancellative lattice
    # elements; with modularity they are lattice-invertible; and in the
    # regular sublattice, lattice invertibility forces system invertibility
    for system in (s4, d12):
        lattice = idealsys.build_ideal_lattice(system)
        for i, mask in enumerate(lattice.ideal_masks):
            rec = lattice.element_predicates(lattice.ref(i))
            if system.r_invertible(mask)[0]:
                assert rec.weak_meet_principal and rec.cancellative
                assert rec.ell_invertible
        regular = idealsys.build_ideal_lattice(system, regular_only=True)
        for i, mask in enumerate(regular.ideal_masks):
            rec = regular.element_predicates(regular.ref(i))
            assert rec.ell_invertible == system.r_invertible(mask)[0]


def test_regular_lattice_principally_generated(s4, d12):
    # modular system + every regular ideal a closed union of invertible
    # ideals forces a principally generated regular lattice
    for system in (s4, d12):
        assert idealsys.validate_system(system).is_modular
        invertible = [m for m in system.r_ideals() if system.r_invertible(m)[0]]
        regular = idealsys.build_ideal_lattice(system, regular_only=True)
        bottom_mask = system.closure(0)
        for mask in regular.ideal_masks:
            if mask == bottom_mask:
                continue
            below = 0
            for j in invertible:
                if (j & ~mask) == 0:
                    below |= j
            assert system.closure(below) == mask  # hypothesis holds here
        assert regular.lattice_predicates().principally_generated


def test_compactness_statements(s4):
    # finite carrier: singleton closures are compact elements, so the
    # finitary formulations agree
    lattice = idealsys.build_ideal_lattice(s4)
    for x in range(s4.monoid.n):
        closure = s4.closure(mask_of([x]))
        idx = lattice.ideal_masks.index(closure)
        assert lattice.is_compact(lattice.ref(idx))


def test_mutated_closure_detected(s4):
    table = dict(s4.materialized)
    table[mask_of([2])] = mask_of([0, 1, 2])  # inject a non-ideal closure
    mutant = WeakIdealSystem.from_table(s4.monoid, table, name="mutant")
    report = idealsys.validate_system(mutant)
    assert not report.all_axioms_pass
    bad = next(e for e in report.entries if not e.passed)
    assert bad.witness is not None


def test_axiom_b_witness_shape(s4):
    # break monotonicity: closure({3}) stops containing closure({})'s zero
    table = dict(s4.materialized)
    table[mask_of([0, 2])] = mask_of([0, 2, 3])
    mutant = WeakIdealSystem.from_table(s4.monoid, table, name="mutant-b")
    report = idealsys.validate_system(mutant)
    entry = {e.name: e for e in report.entries}["axiom_B"]
    if not entry.passed:
        x_mask, y_mask = entry.witness
        assert x_mask & ~mutant.closure(y_mask) == 0
        assert mutant.closure(x_mask) & ~mutant.closure(y_mask)


def test_document_round_trip():
    doc = {
        "name": "zmod-mult-4",
        "elements": ["0", "1", "2", "3"],
        "cayley": [[(i * j) % 4 for j in range(4)] for i in range(4)],
        "system": {"builtin": "s"},
    }
    system = idealsys.system_from_document(doc)
    assert system.name == "s"
    doc["system"] = {"builtin": "d-ring",
                     "addition": [[(i + j) % 4 for j in range(4)] for i in range(4)]}
    assert idealsys.system_from_document(doc).name == "d"
    doc["system"] = {"table": {str(m): system.closure(m) for m in range(16)}}
    explicit = idealsys.system_from_document(doc)
    assert explicit.closure(mask_of([2])) == system.closure(mask_of([2]))
    doc["system"] = {"builtin": "unknown"}
    with pytest.raises(ParseError):
        idealsys.system_from_document(doc)


def test_too_large_without_sampling():
    monoid = idealsys.zmod_mult_monoid(14)  # 2^14 subsets exceed the budget
    system = WeakIdealSystem.s_system(monoid)
    with pytest.raises(TooLarge):
        idealsys.validate_system(system)
    report = idealsys.validate_system(system, sampled=500)
    assert report.all_axioms_pass
