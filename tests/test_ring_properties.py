"""Property tests of the unit inverse and the Teichmueller lift over Galois
rings with s > 1 and truncated polynomial rings over non-prime fields."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaincodes import GaloisRing, TruncatedPolyRing
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
