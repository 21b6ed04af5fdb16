import json

import pytest

from latfact import finite
from latfact.errors import AxiomViolation, InvalidModulus, ParseError


def chain_doc(mul_mm):
    return {
        "name": "three-chain",
        "elements": ["0", "m", "1"],
        "leq": [[1, 1, 1], [0, 1, 1], [0, 0, 1]],
        "mul": [[0, 0, 0], [0, mul_mm, 1], [0, 1, 2]],
    }


def test_two_chain_is_domain():
    lattice = finite.load({
        "name": "two-chain",
        "elements": ["0", "1"],
        "leq": [[1, 1], [0, 1]],
        "mul": [[0, 0], [0, 1]],
    })
    report = lattice.validate()
    assert report.all_axioms_pass and report.domain and report.modular


def test_nilpotent_chain_is_not_domain():
    report = finite.load(chain_doc(0)).validate()
    assert report.all_axioms_pass and not report.domain


def test_cyclic_leq_is_rejected():
    doc = chain_doc(0)
    doc["leq"][2][0] = 1  # 1 <= 0 alongside 0 <= 1
    with pytest.raises(ParseError, match="antisymmetric"):
        finite.FiniteMultLattice.from_document(doc)
    report = finite.validate_document(doc)
    assert not report.all_axioms_pass


def test_non_square_and_out_of_range_rejected():
    doc = chain_doc(0)
    doc["leq"] = [[1, 1], [0, 1]]
    with pytest.raises(ParseError, match="matrix"):
        finite.FiniteMultLattice.from_document(doc)
    doc = chain_doc(0)
    doc["mul"][0][0] = 7
    with pytest.raises(ParseError, match="out of range"):
        finite.FiniteMultLattice.from_document(doc)


def test_identity_axiom_failure_has_witness():
    doc = chain_doc(0)
    doc["mul"][2] = [0, 1, 1]  # top * top = m
    report = finite.validate_document(doc)
    entry = {e.name: e for e in report.entries}["identity_is_top"]
    assert not entry.passed and entry.witness is not None
    with pytest.raises(AxiomViolation):
        finite.load(doc)


def test_distributivity_failure_flagged():
    # divisor lattice of 12 with one corrupted product entry
    doc = finite.save(finite.materialize_from_divisors(12))
    i, j = 1, 2  # 2 * 3 should be 6
    assert doc["elements"][doc["mul"][i][j]] == "6"
    doc["mul"][i][j] = doc["mul"][j][i] = 0
    report = finite.validate_document(doc)
    failing = {e.name for e in report.entries if not e.passed}
    assert failing & {"mul_associative", "mul_distributes_over_join", "identity_is_top"}


def test_materialize_examples(zmod12, zmod12_oracle):
    assert zmod12.labels == ["1", "2", "3", "4", "6", "12"]
    two, three, four, six = (zmod12.ref_by_label(s) for s in "2346")
    assert zmod12.mul(two, three) == six
    assert zmod12.mul(four, six) == zmod12.bottom
    # every product matches the set-level oracle
    for d in (1, 2, 3, 4, 6, 12):
        for e in (1, 2, 3, 4, 6, 12):
            got = zmod12.mul(zmod12.ref_by_label(str(d)), zmod12.ref_by_label(str(e)))
            assert zmod12.label(got) == str(zmod12_oracle.divisor_of(zmod12_oracle.product(d, e)))


def test_materialize_prime_gives_two_chain():
    lattice = finite.materialize_from_divisors(7)
    assert lattice.n == 2
    assert lattice.validate().domain


def test_materialize_eight_is_chain():
    lattice = finite.materialize_from_divisors(8)
    assert lattice.labels == ["1", "2", "4", "8"]
    two, four = lattice.ref_by_label("2"), lattice.ref_by_label("4")
    assert lattice.mul(two, four) == lattice.bottom  # gcd(8, 8) = 8
    assert not lattice.validate().domain


def test_materialize_domain_iff_prime():
    for n in range(2, 40):
        report = finite.materialize_from_divisors(n).validate()
        assert report.all_axioms_pass and report.modular
        is_prime = all(n % k for k in range(2, n))
        assert report.domain == is_prime


def test_invalid_modulus():
    with pytest.raises(InvalidModulus):
        finite.materialize_from_divisors(1)


def test_round_trip_bit_for_bit():
    for n in (12, 30, 360):
        doc = finite.save(finite.materialize_from_divisors(n))
        again = finite.save(finite.load(doc))
        assert json.dumps(doc, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_loads_rejects_bad_json():
    with pytest.raises(ParseError):
        finite.loads("not json {")


def test_large_tables_validate_in_sampled_mode():
    n = 70
    labels = [str(i) for i in range(n)]
    leq = [[1 if i <= j else 0 for j in range(n)] for i in range(n)]
    mul = [[min(i, j) for j in range(n)] for i in range(n)]  # meet multiplication
    # chain order: top is index n-1, identity must be the top
    mul = [[min(i, j) for j in range(n)] for i in range(n)]
    lattice = finite.FiniteMultLattice("big-chain", labels,
                                       tuple(tuple(bool(v) for v in row) for row in leq),
                                       tuple(tuple(row) for row in mul))
    report = lattice.validate()
    assert report.mode == "sampled"
    assert report.all_axioms_pass


def test_compactness_declared_for_finite(zmod12):
    assert all(zmod12.is_compact(x) for x in zmod12.elements())
    assert zmod12.c_lattice_note()
