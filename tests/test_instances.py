import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from latfact import instances
from latfact.core import ElemRef
from latfact.errors import (
    InvalidGenerators,
    NotPrime,
    NotRadical,
    ParseError,
    ZeroElement,
)

PRIMES = (2, 3, 5)


def to_int(L, x):
    if L.is_zero(x):
        return 0
    return math.prod(PRIMES[i] ** e for i, e in L.vec(x).items())


# ---------------------------------------------------------------------------
# exponent lattice against integer-ideal arithmetic
# ---------------------------------------------------------------------------


def test_dedekind_examples(dedekind3):
    L = dedekind3
    a = L.element({0: 1})
    b = L.element({0: 1, 1: 1})
    assert L.vec(L.mul(a, b)) == {0: 2, 1: 1}
    assert L.vec(L.radical(L.element({0: 3, 2: 2}))) == {0: 1, 2: 1}
    assert L.dimension() == 1
    assert L.vec(L.residual(L.element({0: 2, 1: 1}), a)) == {0: 1, 1: 1}


def test_dedekind_matches_integer_ideals(dedekind3):
    L = dedekind3
    rng = random.Random(4)
    vectors = [{i: rng.randrange(0, 4) for i in range(3)} for _ in range(60)]
    refs = [L.element(v) for v in vectors]
    for x, y in itertools.product(refs[:30], refs[:30]):
        nx, ny = to_int(L, x), to_int(L, y)
        assert to_int(L, L.mul(x, y)) == nx * ny
        assert to_int(L, L.join2(x, y)) == math.gcd(nx, ny)
        assert to_int(L, L.meet2(x, y)) == nx * ny // math.gcd(nx, ny)
        assert to_int(L, L.residual(x, y)) == nx // math.gcd(nx, ny)
        assert L.leq(x, y) == (ny and nx % ny == 0)


def test_dedekind_zero_cases(dedekind3):
    L = dedekind3
    x = L.element({0: 2})
    assert L.mul(x, L.bottom) == L.bottom
    assert L.residual(L.bottom, x) == L.bottom
    assert L.residual(x, L.bottom) == L.top
    assert L.radical(L.bottom) == L.bottom
    assert L.leq(L.bottom, x) and not L.leq(x, L.bottom)
    with pytest.raises(ZeroElement):
        L.vec(L.bottom)


def test_dedekind_window_adjunction(dedekind3):
    # closed-form residual against its defining property on a window
    L = dedekind3
    window = list(L.window(budget=200))
    assert L.top in window and L.bottom in window
    rng = random.Random(9)
    sample = rng.sample(window, 40)
    for x in sample:
        for y in sample:
            res = L.residual(y, x)
            assert L.leq(L.mul(res, x), y)  # the residual itself qualifies
            for a in sample[:20]:
                assert L.leq(L.mul(a, x), y) == L.leq(a, res)


def test_dedekind_radical_is_prime_meet_on_window(dedekind3):
    L = dedekind3
    for x in L.window(budget=200):
        above = [p for p in L.primes() if L.leq(x, p)]
        assert L.radical(x) == L.meet(above)


def test_dedekind_localization_definition_on_window(dedekind3):
    L = dedekind3
    window = list(L.window(budget=200))
    for p in L.primes():
        for x in window[:80]:
            closed = L.localize(x, p)
            # upper bound over all window qualifiers
            for a in window[:40]:
                if any(not L.leq(b, p) and L.leq(L.mul(a, b), x) for b in window[:40]):
                    assert L.leq(a, closed)
            # attainment: the closed form qualifies through its cofactor
            b = L.residual(x, closed)
            assert L.mul(closed, b) == x or x == L.bottom
            if x != L.bottom and p != L.bottom:
                assert not L.leq(b, p)


def test_dedekind_localize_examples(dedekind3):
    L = dedekind3
    p = L.unit_vector(0)
    x = L.element({0: 3, 1: 2})
    assert L.vec(L.localize(x, p)) == {0: 3}
    assert L.localize(L.element({1: 2}), p) == L.top  # off the prime
    assert L.localize(L.bottom, p) == L.bottom
    with pytest.raises(NotPrime):
        L.localize(x, L.element({0: 2}))


def test_dedekind_capability_catalogs(dedekind3):
    L = dedekind3
    assert sorted(L.label(m) for m in L.maximals()) == ["2:1", "3:1", "5:1"]
    assert L.bottom in L.primes()
    assert all(L.is_compact(x) for x in L.window(budget=30))
    unbounded = instances.dedekind(None)
    assert unbounded.dimension() == 1
    assert unbounded.vec(unbounded.element({7: 2})) == {7: 2}


def test_dedekind_rejects_bad_vectors(dedekind3):
    with pytest.raises(ParseError):
        dedekind3.element({5: 1})  # only three primes here


def test_dedekind_lattice_predicates(dedekind3):
    lp = dedekind3.lattice_predicates(dedekind3.window(budget=20))
    assert (lp.modular, lp.domain, lp.principally_generated) == (True, True, True)
    assert lp.mode == "window-verified"


def test_dedekind_sparse_map_serialization(dedekind3):
    x = dedekind3.element({0: 2, 2: 1})
    doc = dedekind3.element_to_doc(x)
    assert doc == {"0": 2, "2": 1}
    assert dedekind3.element_from_doc(doc) == x
    assert dedekind3.element_to_doc(dedekind3.bottom) == {"zero": True}
    assert dedekind3.element_from_doc({"zero": True}) == dedekind3.bottom
    assert dedekind3.element_to_doc(dedekind3.top) == {}


def test_radical_factorial_structure_consequences():
    # on the radical factorial backends: dimension at most one, every
    # localization at a maximal is a power of it or the localized zero,
    # and every compact window element is a principal element
    for L in (instances.dedekind(2), instances.power_of_j_from_int(30)):
        assert L.dimension() <= 1
        window = L.window(budget=30)
        for m in L.maximals():
            zero_loc = L.localize(L.bottom, m)
            for x in window:
                loc = L.localize(x, m)
                power = L.top
                hits = loc == zero_loc
                for _ in range(12):
                    hits = hits or loc == power
                    power = L.mul(power, m)
                assert hits
        for x in window:
            if L.is_compact(x):
                assert L.element_predicates(x, window).ell_principal


# ---------------------------------------------------------------------------
# rank-2 valuation catalog against the grid oracle
# ---------------------------------------------------------------------------

A_MAX, B_SPAN = 6, 20
INNER_A, INNER_B = 3, 10


def grid_points(L, x):
    return L.grid_set(x, A_MAX, B_SPAN)


def inner(points):
    return frozenset((a, b) for a, b in points if a <= INNER_A and abs(b) <= INNER_B)


def catalog_sample(L):
    out = [L.top, L.bottom]
    for a in range(0, 3):
        for b in (-3, -1, 0, 2):
            if a > 0 or b >= 0:
                out.append(L.principal(a, b))
    out.extend(L.limit(a) for a in range(0, 3))
    return out


def test_rank2_mul_matches_grid_sums():
    L = instances.rank2_valuation()
    sample = catalog_sample(L)
    for x, y in itertools.product(sample, repeat=2):
        got = inner(grid_points(L, L.mul(x, y)))
        sums = {(a1 + a2, b1 + b2)
                for a1, b1 in grid_points(L, x) for a2, b2 in grid_points(L, y)}
        assert got == inner(sums), (L.label(x), L.label(y))


def test_rank2_order_join_meet_match_grids():
    L = instances.rank2_valuation()
    sample = catalog_sample(L)
    for x, y in itertools.product(sample, repeat=2):
        gx, gy = grid_points(L, x), grid_points(L, y)
        assert L.leq(x, y) == (gx <= gy)
        assert grid_points(L, L.join2(x, y)) == gx | gy
        assert grid_points(L, L.meet2(x, y)) == gx & gy


def test_rank2_radical_matches_set_radical():
    L = instances.rank2_valuation()
    for x in catalog_sample(L):
        got = grid_points(L, L.radical(x))
        expected = frozenset(
            (a, b) for a, b in grid_points(L, L.top)
            if any(L._contains_point(x, n * a, n * b) for n in range(1, 9))
        )
        assert got == expected, L.label(x)


def test_rank2_residual_adjunction():
    L = instances.rank2_valuation()
    sample = catalog_sample(L)
    for x, y in itertools.product(sample, repeat=2):
        res = L.residual(y, x)
        assert L.leq(L.mul(res, x), y)
        for a in sample:
            assert L.leq(L.mul(a, x), y) == L.leq(a, res)


def test_rank2_localize_grid():
    L = instances.rank2_valuation()
    p = L.limit(0)
    for x in catalog_sample(L):
        closed = L.localize(x, p)
        # every grid point of the closed form is reached by a qualifying
        # principal: the principal of the point itself
        cofactors = [L.principal(0, f) for f in range(0, 2 * B_SPAN + 8)]
        for a, b in grid_points(L, closed):
            q = L.principal(a, b)
            assert any(
                not L.leq(w, p) and L.leq(L.mul(q, w), x) for w in cofactors
            ), (L.label(x), (a, b))
        # and qualifiers stay below the closed form
        for q in catalog_sample(L):
            if L.is_compact(q) and any(
                not L.leq(w, p) and L.leq(L.mul(q, w), x) for w in cofactors
            ):
                assert L.leq(q, closed)


def test_rank2_examples():
    L = instances.rank2_valuation()
    assert L.label(L.radical(L.principal(1, 0))) == "Limit(0)"
    assert L.label(L.mul(L.limit(0), L.limit(0))) == "Limit(1)"
    assert L.dimension() == 2
    assert [L.label(p) for p in L.primes()] == ["Empty", "Limit(0)", "Principal(0,1)"]
    assert not L.is_compact(L.limit(0))
    assert L.is_compact(L.principal(2, -5))
    rec = L.element_predicates(L.limit(0))
    assert not rec.ell_invertible and rec.mode == "window-verified"


def test_rank2_localize_at_maximal_is_identity():
    L = instances.rank2_valuation()
    m = L.principal(0, 1)
    for x in catalog_sample(L):
        assert L.localize(x, m) == x


# ---------------------------------------------------------------------------
# key-built exponent arithmetic against the dict-based definitions
# ---------------------------------------------------------------------------


def reference_join2(L, x, y):
    if x.key == instances.ZERO_KEY:
        return y
    if y.key == instances.ZERO_KEY:
        return x
    xv, yv = dict(x.key), dict(y.key)
    return L._mk({i: min(xv.get(i, 0), yv.get(i, 0)) for i in set(xv) & set(yv)})


def reference_meet2(L, x, y):
    if instances.ZERO_KEY in (x.key, y.key):
        return L.bottom
    xv, yv = dict(x.key), dict(y.key)
    return L._mk({i: max(xv.get(i, 0), yv.get(i, 0)) for i in set(xv) | set(yv)})


def reference_residual(L, y, x):
    if x.key == instances.ZERO_KEY:
        return L.top
    if y.key == instances.ZERO_KEY:
        return L.bottom
    xv, yv = dict(x.key), dict(y.key)
    return L._mk({i: max(yv.get(i, 0) - xv.get(i, 0), 0) for i in set(xv) | set(yv)})


EXPONENT_LATTICES = [instances.dedekind(k) for k in range(1, 6)] + [
    instances.dedekind(None), instances.power_of_j_from_int(30)]


@st.composite
def exponent_elements(draw, L):
    """Zero, the top, or a sparse vector over the lattice's primes (zero
    exponents included, which the canonical key drops)."""
    kind = draw(st.sampled_from(["zero", "top", "vector", "vector", "vector"]))
    if kind == "zero":
        return L.bottom
    if kind == "top":
        return L.top
    indices = L.indices if L.indices is not None else range(12)
    vec = draw(st.dictionaries(st.sampled_from(indices), st.integers(0, 6), max_size=5))
    return L.element(vec)


@st.composite
def exponent_triples(draw):
    L = draw(st.sampled_from(EXPONENT_LATTICES))
    return L, draw(exponent_elements(L)), draw(exponent_elements(L))


@settings(max_examples=400, deadline=None)
@given(exponent_triples())
def test_exponent_ops_match_dict_reference(case):
    L, x, y = case
    assert L.join2(x, y) == reference_join2(L, x, y)
    assert L.meet2(x, y) == reference_meet2(L, x, y)
    assert L.residual(x, y) == reference_residual(L, x, y)
    assert L.residual(y, x) == reference_residual(L, y, x)


def test_exponent_ops_check_the_support():
    L = instances.power_of_j_from_int(30)
    stray = ElemRef(L.id, ((3, 1),))  # 7 does not divide 30
    for call in (lambda: L.join2(stray, stray), lambda: L.meet2(stray, L.top),
                 lambda: L.residual(stray, L.top)):
        with pytest.raises(ParseError, match="prime index 3 outside"):
            call()


# ---------------------------------------------------------------------------
# numerical monoid ideals against explicit set arithmetic
# ---------------------------------------------------------------------------

BOUND = 40


def explicit(N, x):
    return frozenset(N.members_below(x, BOUND))


def test_numerical_closure_example():
    N = instances.numerical_monoid((2, 3))
    ideal = N.ideal([3])
    members = explicit(N, ideal)
    expected = {3 + h for h in range(BOUND) if N.in_monoid(h)}
    assert members == {m for m in expected if m < BOUND}
    assert N.label(ideal) == "{3,5+}"


def test_numerical_radical_and_primes():
    N = instances.numerical_monoid((2, 3))
    assert N.radical(N.ideal([3])) == N.maximal_ideal()
    assert N.radical(N.top) == N.top
    assert N.radical(N.bottom) == N.bottom
    assert N.dimension() == 1
    assert [N.label(p) for p in N.primes()] == ["empty", "M"]


def test_numerical_ops_match_set_arithmetic():
    N = instances.numerical_monoid((2, 3))
    seeds = [N.top, N.bottom, N.maximal_ideal(), N.ideal([2]), N.ideal([3]),
             N.ideal([4, 5]), N.ideal([6, 7]), N.mul(N.maximal_ideal(), N.maximal_ideal())]
    for x, y in itertools.product(seeds, repeat=2):
        sx, sy = explicit(N, x), explicit(N, y)
        sums = {a + b for a in sx for b in sy if a + b < BOUND // 2}
        assert {m for m in explicit(N, N.mul(x, y)) if m < BOUND // 2} == sums
        assert explicit(N, N.join2(x, y)) == sx | sy
        assert explicit(N, N.meet2(x, y)) == sx & sy
        assert N.leq(x, y) == (sx <= sy)


def test_numerical_window_matches_set_arithmetic():
    # window-scale agreement between the canonical representation and
    # plain set arithmetic, all pairs
    N = instances.numerical_monoid((2, 3))
    window = list(N.window(budget=30))
    for x, y in itertools.product(window, repeat=2):
        sx, sy = explicit(N, x), explicit(N, y)
        assert N.leq(x, y) == (sx <= sy)
        assert explicit(N, N.join2(x, y)) == sx | sy
        assert explicit(N, N.meet2(x, y)) == sx & sy
        half = BOUND // 2
        sums = {a + b for a in sx for b in sy if a + b < half}
        assert {m for m in explicit(N, N.mul(x, y)) if m < half} == sums


def test_numerical_residual_adjunction():
    N = instances.numerical_monoid((2, 3))
    seeds = [N.top, N.bottom, N.maximal_ideal(), N.ideal([2]), N.ideal([3]),
             N.ideal([5]), N.ideal([4, 7])]
    for x, y in itertools.product(seeds, repeat=2):
        res = N.residual(y, x)
        assert N.leq(N.mul(res, x), y)
        for a in seeds:
            assert N.leq(N.mul(a, x), y) == N.leq(a, res)


NUMERICAL_GENERATORS = [(2, 3), (3, 5), (3, 5, 7), (4, 5, 6), (1,)]


@pytest.mark.parametrize("gens", NUMERICAL_GENERATORS, ids=lambda g: ",".join(map(str, g)))
def test_numerical_mask_ops_match_set_arithmetic(gens):
    # every pair of a window against plain sets truncated at a bound past
    # every ray start involved, so the truncation decides each ideal
    N = instances.numerical_monoid(gens)
    window = list(N.window(budget=40))
    g0 = min(gens)
    ray_start = max(next(c for c in itertools.count() if all(N.contains(x, c + i) for i in range(g0)))
                    for x in window if x != N.bottom)
    bound = 2 * ray_start + 1
    sets = {x: frozenset(N.members_below(x, bound)) for x in window}
    monoid = [h for h in range(bound) if N.in_monoid(h)]
    for x, y in itertools.product(window, repeat=2):
        sx, sy = sets[x], sets[y]
        assert N.leq(x, y) == (sx <= sy)
        assert frozenset(N.members_below(N.join2(x, y), bound)) == sx | sy
        assert frozenset(N.members_below(N.meet2(x, y), bound)) == sx & sy
        assert frozenset(N.members_below(N.mul(x, y), bound)) == \
            {a + b for a in sx for b in sy if a + b < bound}
        res = N.residual(y, x)
        if y != N.bottom:  # sums past the bound land in the ray of y
            assert frozenset(N.members_below(res, bound)) == {
                h for h in monoid if all(h + v in sy for v in sx if h + v < bound)}
        assert N.leq(N.mul(res, x), y)
        for a in window[:8]:
            assert N.leq(N.mul(a, x), y) == N.leq(a, res)


def test_numerical_invertibility():
    N = instances.numerical_monoid((2, 3))
    ok, witness = N.r_invertible(N.maximal_ideal())
    assert not ok and witness == 3  # 3 - 2 = 1 is not in the monoid
    ok, _ = N.r_invertible(N.ideal([5]))
    assert ok


def test_numerical_radical_products():
    N = instances.numerical_monoid((2, 3))
    m = N.maximal_ideal()
    # the products of the radical ideals are exactly the powers of M
    power = m
    for k in range(1, 6):
        ok, chain = N.radical_product_membership(power)
        assert ok and len(chain) == k
        assert explicit(N, power) == frozenset(range(2 * k, BOUND))
        power = N.mul(power, m)
    ok, _ = N.radical_product_membership(N.ideal([3]))
    assert not ok


def test_trivial_numerical_monoid_is_factorial():
    N = instances.numerical_monoid((1,))
    m = N.maximal_ideal()
    for n in range(1, 8):
        assert N.power(m, n) == N.ideal([n])
        ok, chain = N.radical_product_membership(N.ideal([n]))
        assert ok and len(chain) == n


def test_numerical_generator_validation():
    with pytest.raises(InvalidGenerators):
        instances.numerical_monoid((2, 4))
    with pytest.raises(InvalidGenerators):
        instances.numerical_monoid(())
    assert instances.numerical_monoid((3, 5, 7)).frobenius == 4


def test_numerical_membership_errors():
    N = instances.numerical_monoid((2, 3))
    with pytest.raises(ParseError):
        N.ideal([1])  # 1 is a gap of the monoid


# ---------------------------------------------------------------------------
# power-of-j sublattice
# ---------------------------------------------------------------------------


def test_power_of_j_carrier():
    L = instances.power_of_j_from_int(30)
    assert L.indices == (0, 1, 2)
    assert L.vec(L.j_element()) == {0: 1, 1: 1, 2: 1}
    with pytest.raises(ParseError):
        L.element({3: 1})  # 7 does not divide 30
    with pytest.raises(NotRadical):
        instances.power_of_j_from_int(12)  # 12 = 2^2 * 3 is not squarefree
    with pytest.raises(NotRadical):
        instances.power_of_j({})


def test_power_of_j_maximals_are_support():
    L = instances.power_of_j_from_int(10)
    assert L.indices == (0, 2)
    assert sorted(L.label(m) for m in L.maximals()) == ["2:1", "5:1"]
    assert L.dimension() == 1


def test_localization_identities_on_instance_windows(dedekind3):
    from latfact.props import localization_checks

    for L, budget in ((dedekind3, 24), (instances.rank2_valuation(), 30),
                      (instances.numerical_monoid((2, 3)), 16)):
        window = L.window(budget=budget)
        for name, (ok, witness) in localization_checks(L, window).items():
            assert ok, f"{L.id} {name} fails at {witness}"


def test_window_contains_bounds(dedekind3):
    for L in (dedekind3, instances.rank2_valuation(),
              instances.numerical_monoid((2, 3)), instances.power_of_j_from_int(30)):
        window = L.window()
        assert L.top in window.sample
        assert L.bottom in window.sample
        assert window.generation_note
        for x in window:
            assert L.mul(L.top, x) == x  # the top is the identity
