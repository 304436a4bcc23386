"""Property tests of the coordinate arithmetic, the unit inverse and the
Teichmueller lift over Galois rings with s > 1 and truncated polynomial
rings over non-prime fields."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaincodes import GaloisRing, TruncatedPolyRing, zmod
from chaincodes.errors import NotAUnit
from oracles import ring_power

RINGS = [GaloisRing(2, 3, 3), GaloisRing(3, 3, 2), GaloisRing(2, 4, 2),
         GaloisRing(5, 2, 3), GaloisRing(11, 2, 5),
         TruncatedPolyRing(4, 3), TruncatedPolyRing(9, 2),
         TruncatedPolyRing(8, 2), TruncatedPolyRing(25, 4)]

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)


def elements(ring):
    m = ring.pr if isinstance(ring, GaloisRing) else ring.q
    return st.tuples(*[st.integers(0, m - 1)] * len(ring.zero))


@pytest.mark.parametrize("ring", RINGS, ids=repr)
@SETTINGS
@given(data=st.data())
def test_unit_times_its_inverse_is_one(ring, data):
    a = data.draw(elements(ring).filter(ring.is_unit))
    assert ring.mul(a, ring.invert_unit(a)) == ring.one


@pytest.mark.parametrize("ring", RINGS, ids=repr)
@SETTINGS
@given(data=st.data())
def test_lift_is_a_fixed_multiplicative_section(ring, data):
    c, d = data.draw(st.tuples(*[st.integers(0, ring.q - 1)] * 2))
    t = ring.lift(c)
    assert ring.project(t) == c
    assert ring_power(ring, t, ring.q) == t
    assert ring.lift(ring.residue.mul(c, d)) == ring.mul(t, ring.lift(d))


GALOIS_RINGS = [zmod(8), zmod(121), GaloisRing(3, 2, 2), GaloisRing(2, 3, 3),
                GaloisRing(11, 2, 5)]


@pytest.mark.parametrize("ring", GALOIS_RINGS, ids=repr)
@SETTINGS
@given(data=st.data())
def test_galois_sums_are_coordinate_wise_mod_pr(ring, data):
    a, b = data.draw(st.tuples(elements(ring), elements(ring)))
    m = ring.pr
    assert ring.add(a, b) == tuple((x + y) % m for x, y in zip(a, b))
    assert ring.sub(a, b) == tuple((x - y) % m for x, y in zip(a, b))
    assert ring.neg(a) == tuple((-x) % m for x in a)


@pytest.mark.parametrize("ring", [zmod(121), zmod(8), GaloisRing(3, 2, 2),
                                  TruncatedPolyRing(4, 2)], ids=repr)
@SETTINGS
@given(data=st.data())
def test_invert_unit_of_a_non_unit_raises_not_a_unit(ring, data):
    a = data.draw(elements(ring).filter(lambda x: not ring.is_unit(x)))
    with pytest.raises(NotAUnit):
        ring.invert_unit(a)


AXIOM_RINGS = [zmod(8), zmod(121), GaloisRing(3, 2, 2), GaloisRing(2, 3, 3),
               TruncatedPolyRing(4, 2), TruncatedPolyRing(2, 3)]


@pytest.mark.parametrize("ring", AXIOM_RINGS, ids=repr)
@SETTINGS
@given(data=st.data())
def test_ring_axioms(ring, data):
    a, b, c = data.draw(st.tuples(*[elements(ring)] * 3))
    add, mul = ring.add, ring.mul
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert add(a, b) == add(b, a)
    assert mul(a, b) == mul(b, a)
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


@pytest.mark.parametrize("ring", AXIOM_RINGS, ids=repr)
def test_gamma_is_nilpotent_of_index_nu(ring):
    powers = [ring.one]
    for _ in range(ring.nu):
        powers.append(ring.mul(powers[-1], ring.gamma))
    assert powers[ring.nu] == ring.zero
    assert powers[ring.nu - 1] != ring.zero


@pytest.mark.parametrize("ring", AXIOM_RINGS, ids=repr)
@SETTINGS
@given(data=st.data())
def test_valuation_of_a_product(ring, data):
    a, b = data.draw(st.tuples(elements(ring), elements(ring)))
    v = ring.valuation
    assert v(ring.mul(a, b)) == min(ring.nu, v(a) + v(b))
