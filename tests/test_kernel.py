"""The op-table kernel against the loop-over-refs reference.

``reference_element_predicates`` and ``reference_lattice_predicates`` are
the predicate family written directly on element handles and the backend
primitives, without the op table; the kernel must reproduce every flag and
every witness of them.  The module also checks that a lattice and its op
table are freed together and that threads may share one lattice.
"""

import gc
import itertools
import sys
import threading
import weakref

import pytest

from latfact import finite, idealsys, instances
from latfact.core import ElemRef, LatticePredicates, OpTable, PredicateRecord, TestWindow
from latfact.errors import CapabilityMissing


def reference_element_predicates(L, x, sample=None) -> PredicateRecord:
    L._own(x)
    refs, mode = L._quantifier_sample(sample)
    rec = PredicateRecord(element=x, mode=mode)
    zero_res = L.residual(L.bottom, x)
    mul_x = {y: L.mul(x, y) for y in refs}
    res_to_x = {y: L.residual(y, x) for y in refs}

    first_with_product: dict = {}
    for y in refs:
        other = first_with_product.setdefault(mul_x[y], y)
        if other != y:
            rec.cancellative = False
            rec.witnesses["cancellative"] = (other, y)
            break

    for y in refs:
        if L.meet2(x, y) != L.mul(res_to_x[y], x):
            rec.weak_meet_principal = False
            rec.witnesses["weak_meet_principal"] = (y,)
            break

    if not rec.weak_meet_principal:
        rec.meet_principal = False
        rec.witnesses["meet_principal"] = rec.witnesses["weak_meet_principal"]
    else:
        for y, z in itertools.product(refs, refs):
            if L.meet2(y, mul_x[z]) != L.mul(L.meet2(res_to_x[y], z), x):
                rec.meet_principal = False
                rec.witnesses["meet_principal"] = (y, z)
                break

    for y in refs:
        if not L.leq(L.residual(mul_x[y], x), L.join2(y, zero_res)):
            rec.weak_join_principal = False
            rec.witnesses["weak_join_principal"] = (y,)
            break

    if not rec.weak_join_principal:
        rec.join_principal = False
        rec.witnesses["join_principal"] = rec.witnesses["weak_join_principal"]
    else:
        for y, z in itertools.product(refs, refs):
            if L.join2(y, res_to_x[z]) != L.residual(L.join2(mul_x[y], z), x):
                rec.join_principal = False
                rec.witnesses["join_principal"] = (y, z)
                break

    rec.ell_principal = rec.meet_principal and rec.join_principal
    if not rec.ell_principal:
        rec.witnesses.setdefault(
            "ell_principal",
            rec.witnesses.get("meet_principal", rec.witnesses.get("join_principal")),
        )
    rec.ell_invertible = rec.ell_principal and rec.cancellative
    if not rec.ell_invertible:
        rec.witnesses.setdefault(
            "ell_invertible",
            rec.witnesses.get("ell_principal", rec.witnesses.get("cancellative")),
        )

    rec.compact = L.is_compact(x)
    rec.ell_radical = L.is_radical_elem(x)
    if not rec.ell_radical:
        rec.witnesses["ell_radical"] = (L.radical(x),)
    rec.ell_prime = L.is_prime_elem(x)
    rec.maximal = L.is_maximal_elem(x)
    return rec


def reference_lattice_predicates(L, sample=None) -> LatticePredicates:
    refs, mode = L._quantifier_sample(sample)
    out = LatticePredicates(mode=mode, modular=True, domain=True, principally_generated=True)

    for x, y, z in itertools.product(refs, refs, refs):
        if L.leq(x, z) and L.meet2(L.join2(x, y), z) != L.join2(x, L.meet2(y, z)):
            out.modular = False
            out.witnesses["modular"] = (x, y, z)
            break

    for a, b in itertools.combinations_with_replacement(refs, 2):
        if a != L.bottom and b != L.bottom and L.mul(a, b) == L.bottom:
            out.domain = False
            out.witnesses["domain"] = (a, b)
            break

    try:  # the backend declares the closed form unless it raises CapabilityMissing
        L.principal_join_below(L.top)
        hook = L.principal_join_below
    except CapabilityMissing:
        hook = None
    if hook is not None:
        out.witnesses["principally_generated_scope"] = "closed-form"
        for x in refs:
            if hook(x) != x:
                out.principally_generated = False
                out.witnesses["principally_generated"] = (x,)
                break
    else:
        window = TestWindow(refs, "shared predicate sample")
        principal = [r for r in refs if reference_element_predicates(L, r, window).ell_principal]
        for x in refs:
            below = [p for p in principal if L.leq(p, x)]
            if L.join(below) != x:
                out.principally_generated = False
                out.witnesses["principally_generated"] = (x,)
                break
    return out


def _ideal_lattice():
    system = idealsys.WeakIdealSystem.d_system(idealsys.zmod_mult_monoid(12),
                                               idealsys.zmod_addition(12))
    return idealsys.build_ideal_lattice(system)


# (name, lattice factory, window budget; None quantifies the finite carrier)
CASES = [
    ("dedekind:3", lambda: instances.dedekind(3), 24),
    ("power-of-j:30", lambda: instances.power_of_j_from_int(30), 24),
    ("rank2", instances.rank2_valuation, 48),
    ("numerical:3,5,7", lambda: instances.numerical_monoid((3, 5, 7)), 64),
    ("zmod:12", lambda: finite.materialize_from_divisors(12), None),
    ("zmod:720", lambda: finite.materialize_from_divisors(720), None),
    ("d-system:zmod:12", _ideal_lattice, None),
]


def _sample(L, budget):
    if budget is None:
        return None
    return L.window(budget=budget)


def _outside(L, refs):
    """An element reached by one operation on the sample but not in it."""
    inside = set(refs)
    for a, b in itertools.product(refs, refs):
        for c in (L.mul(a, b), L.residual(a, b), L.join2(a, b), L.meet2(a, b)):
            if c not in inside:
                return c
    return None


@pytest.mark.parametrize("name,make,budget", CASES, ids=[c[0] for c in CASES])
def test_kernel_matches_reference(name, make, budget):
    L = make()
    sample = _sample(L, budget)
    refs, _ = L._quantifier_sample(sample)
    for x in refs:
        assert L.element_predicates(x, sample) == reference_element_predicates(L, x, sample), \
            f"{name} at {L.label(x)}"
    assert L.lattice_predicates(sample) == reference_lattice_predicates(L, sample)

    # a sample that leaves out part of what it generates, and an element
    # outside it: results off the sample come from the backend's closed form
    half = TestWindow(tuple(refs[: max(2, len(refs) // 2)]), "half sample")
    x = _outside(L, half.sample)
    assert x is not None and x not in half.sample
    for y in (x, half.sample[-1]):
        assert L.element_predicates(y, half) == reference_element_predicates(L, y, half), \
            f"{name} at {L.label(y)} on the half sample"
    assert L.lattice_predicates(half) == reference_lattice_predicates(L, half)


def _weak_part(L, x, flag, budget):
    """The window elements y at which the weak form of flag holds at x,
    top first.  Quantified over them, the weak flag holds, and a failure
    of the full flag lies off the top row and the top column, where the
    full condition reduces to the weak one."""
    zero_res = L.residual(L.bottom, x)
    weak = {
        "meet_principal": lambda y: L.meet2(x, y) == L.mul(L.residual(y, x), x),
        "join_principal": lambda y: L.leq(L.residual(L.mul(x, y), x), L.join2(y, zero_res)),
    }[flag]
    keep = tuple(y for y in L.window(budget=budget) if weak(y))
    assert keep[0] == L.top
    return TestWindow(keep, f"weak {flag} part")


@pytest.mark.parametrize("gens,element,flag", [
    ((3, 5), "M", "meet_principal"),
    ((3, 5), "{6,8,9,11+}", "meet_principal"),
    ((3, 5, 7), "{3,5,6,8+}", "join_principal"),
], ids=["3,5 M", "3,5 {6,8,9,11+}", "3,5,7 {3,5,6,8+}"])
def test_principal_witness_at_a_later_row_and_column(gens, element, flag):
    # the batched rows must report the first failing pair in product order
    L = instances.numerical_monoid(gens)
    x = next(y for y in L.window(budget=24) if L.label(y) == element)
    sample = _weak_part(L, x, flag, 24)
    rec = L.element_predicates(x, sample)
    assert rec == reference_element_predicates(L, x, sample)
    assert rec.flag("weak_" + flag) and not rec.flag(flag)
    row, column = (sample.sample.index(w) for w in rec.witnesses[flag])
    assert row > 1 and column > 1, (row, column)


def test_kernel_reports_false_flags_with_witnesses():
    # the reference comparison above must not pass vacuously
    L = instances.rank2_valuation()
    rec = L.element_predicates(L.limit(0), L.window())
    assert not rec.compact and not rec.ell_principal
    assert rec.witnesses["ell_principal"]
    lp = finite.materialize_from_divisors(12).lattice_predicates()
    assert not lp.domain and lp.witnesses["domain"]


def test_each_sample_gets_small_ids():
    # a table is kept while the sample stays the same, and a new sample
    # starts a fresh one, so rows indexed by sample ids stay short
    L = instances.dedekind(3)
    small, large = L.window(budget=20), L.window(budget=36)
    L.lattice_predicates(small)
    first = L._ops
    L.element_predicates(L.top, small)
    assert L._ops is first
    L.element_predicates(L.top, large)
    assert L._ops is not first
    assert L._ops.sample_ids == list(range(len(large)))


def test_lattice_and_op_table_are_freed_together():
    gc.disable()
    try:
        L = instances.dedekind(3)
        window = L.window(budget=24)
        for x in window:
            L.element_predicates(x, window)
        L.lattice_predicates(window)
        assert len(L._ops.refs) > len(window)
        alive = weakref.ref(L)
        table = weakref.ref(L._ops)
        del L
        assert alive() is None
        assert table() is None
    finally:
        gc.enable()


def test_threads_share_one_op_table():
    expected_lattice = instances.dedekind(2)
    window = expected_lattice.window(budget=20)
    expected = [expected_lattice.element_predicates(x, window) for x in window]

    shared = instances.dedekind(2)
    # a bare table interning many fresh elements at once, which makes a
    # lost update in interning likely to show within the time bound
    bare = OpTable(())
    fresh = [ElemRef("probe", i) for i in range(30000)]
    results = [None] * 4
    errors = []
    start = threading.Barrier(4, timeout=60)

    def work(slot):
        try:
            start.wait()
            for ref in fresh:
                bare.intern(ref)
            # every thread walks the same order, so they miss on the same
            # entries at the same time
            results[slot] = [shared.element_predicates(x, window) for x in window]
        except Exception as exc:  # reported below with the slot
            errors.append((slot, exc))

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(slot,)) for slot in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads), "worker threads did not finish"
    finally:
        sys.setswitchinterval(previous)
    assert not errors, errors
    for slot in range(4):
        assert results[slot] == expected, f"thread {slot}"
    for table in (bare, shared._ops):
        assert len(table.refs) == len(set(table.refs)), "an element was interned twice"
        assert all(table.intern(ref) == i for i, ref in enumerate(table.refs))
