import random

import pytest

from chaincodes import GaloisRing, TruncatedPolyRing, make_ring, residue_ring, zmod
from chaincodes.errors import (DigitNotInT, InvalidConvention, InvalidParams,
                               MixedRings, NotAUnit, RejectedModulus)
from chaincodes.fields import default_modulus, get_field
from oracles import (invert_unit_by_exponent, teichmuller_by_iteration,
                     teichmuller_by_power)


@pytest.fixture(scope="module")
def z8():
    return zmod(8)


@pytest.fixture(scope="module")
def z9():
    return zmod(9)


@pytest.fixture(scope="module")
def gr83():
    # GR(8, 3): p=2, r=3, s=3 with modulus z^3 + 6z^2 + 5z + 7 over Z8
    return GaloisRing(2, 3, 3, modulus=(7, 5, 6, 1))


def test_zmod_basic(z8):
    assert z8.nu == 3
    assert z8.q == 2
    assert z8.size() == 8
    assert z8.gamma == (2,)


def test_teichmuller_set_z8(z8):
    reps = sorted(z8.representative_set())
    assert reps == [(0,), (1,)]


def test_decompose_compose_z8(z8):
    digits = z8.decompose(z8.coerce(6))
    assert digits == ((0,), (1,), (1,))  # 6 = 0 + 1*2 + 1*4
    assert z8.compose(digits) == (6,)


def test_decompose_roundtrip_exhaustive(z8, z9):
    for ring in (z8, z9):
        for a in ring.elements():
            assert ring.compose(ring.decompose(a)) == a


def test_teichmuller_idempotent_under_frobenius():
    # tau(c)^q == tau(c) for every residue code c
    z9 = zmod(9, convention="teichmuller")
    for c in z9.residue.elements():
        t = z9.lift(c)
        assert z9._pow(t, z9.q) == t
        assert z9.project(t) == c


def test_teichmuller_z9():
    z9 = zmod(9, convention="teichmuller")
    assert z9.lift(2) == (8,)  # 8^3 = 512 = 8 mod 9


def test_digits_convention_z9():
    z9d = zmod(9, convention="digits")
    assert z9d.lift(2) == (2,)
    assert sorted(z9d.representative_set()) == [(0,), (1,), (2,)]


def test_digits_convention_rejected_for_extension():
    with pytest.raises(InvalidConvention):
        GaloisRing(2, 2, 2, convention="digits")


def test_galois_ring_modulus_rejected():
    # z^3 + z^2 projects to a reducible polynomial over F_2
    with pytest.raises(RejectedModulus):
        GaloisRing(2, 3, 3, modulus=(0, 0, 1, 1))


def test_gr83_xi_order_seven(gr83):
    xi = gr83.teichmuller_generator()
    powers = {gr83._pow(xi, k) for k in range(1, 8)}
    assert len(powers) == 7
    assert gr83._pow(xi, 7) == gr83.one
    assert len(gr83.representative_set()) == 8


def test_gr83_homomorphism_exhaustive(gr83):
    f = gr83.residue
    els = list(gr83.elements())
    for a in els[:64]:
        for b in els[:64]:
            assert gr83.project(gr83.mul(a, b)) == f.mul(gr83.project(a),
                                                         gr83.project(b))
            assert gr83.project(gr83.add(a, b)) == f.add(gr83.project(a),
                                                         gr83.project(b))


def test_valuation_and_units(z8):
    assert z8.valuation(z8.coerce(6)) == 1
    assert z8.valuation(z8.coerce(4)) == 2
    assert z8.valuation(z8.zero) == 3
    assert z8.is_unit(z8.coerce(3))
    assert not z8.is_unit(z8.coerce(6))
    assert z8.mul(z8.coerce(3), z8.invert_unit(z8.coerce(3))) == z8.one


def test_invert_unit_z121():
    z121 = zmod(121)
    assert z121.invert_unit(z121.coerce(2)) == (61,)
    with pytest.raises(NotAUnit):
        z121.invert_unit(z121.coerce(11))


@pytest.mark.parametrize("m", [4, 8, 27, 121, 125])
def test_invert_unit_by_pow_matches_the_exponent_formula(m):
    ring = zmod(m)
    for a in ring.elements():
        if ring.valuation(a) == 0:
            assert ring.invert_unit(a) == invert_unit_by_exponent(ring, a)
        else:
            with pytest.raises(NotAUnit):
                ring.invert_unit(a)


# (p, r, s): GR(121,5), GR(8,3), GR(27,2), GR(16,2)
TEICHMULLER_RINGS = [(11, 2, 5), (2, 3, 3), (3, 3, 2), (2, 4, 2)]


@pytest.mark.parametrize("p, r, s", TEICHMULLER_RINGS)
def test_lift_matches_the_iteration_oracle(p, r, s):
    ring = GaloisRing(p, r, s)
    codes = range(ring.q) if ring.q <= 1000 else \
        [0, 1] + random.Random(707).sample(range(2, ring.q), 200)
    for c in codes:
        assert ring.lift(c) == teichmuller_by_iteration(ring, c)


@pytest.mark.parametrize("p, r, s", TEICHMULLER_RINGS + [(5, 3, 3)])
def test_lift_matches_the_full_power_oracle(p, r, s):
    # lift(c) = y^(p^(r-1)) with y over c^(p^k), k = -(r-1) mod s, against
    # x^(q^(r-1)) with x over c itself
    ring = GaloisRing(p, r, s)
    rng = random.Random(1231)
    codes = [0, 1] + [rng.randrange(2, ring.q) for _ in range(300)]
    for c in codes:
        assert ring.lift(c) == teichmuller_by_power(ring, c)


@pytest.mark.parametrize("ring", [GaloisRing(*prs)
                                  for prs in TEICHMULLER_RINGS]
                         + [TruncatedPolyRing(4, 3), TruncatedPolyRing(9, 2),
                            TruncatedPolyRing(8, 2)], ids=repr)
def test_newton_inverse_matches_the_exponent_oracle(ring):
    """Every element of a small ring; 200 seeded draws from GR(121,5)."""
    if ring.size() <= 1000:
        elements = list(ring.elements())
    else:
        rng = random.Random(808)
        # coerce reduces each coordinate, whose modulus divides the size
        elements = [ring.coerce([rng.randrange(ring.size())
                                 for _ in ring.zero]) for _ in range(200)]
    for a in elements:
        if ring.is_unit(a):
            assert ring.invert_unit(a) == invert_unit_by_exponent(ring, a)
        else:
            with pytest.raises(NotAUnit):
                ring.invert_unit(a)


def test_unit_part(z8):
    a = z8.coerce(6)
    u = z8.unit_part(a)
    assert z8.is_unit(u)
    assert z8.mul(u, z8.gamma_power(1)) == a


def test_shift_down(z8):
    assert z8.shift_down(z8.coerce(6), 1) == (3,)
    assert z8.shift_down(z8.coerce(4), 2) == (1,)


def test_valuation_laws_exhaustive():
    ring = zmod(27)
    for a in ring.elements():
        for b in ring.elements():
            va, vb = ring.valuation(a), ring.valuation(b)
            vm = ring.valuation(ring.mul(a, b))
            assert vm == min(va + vb, ring.nu)
            assert ring.valuation(ring.add(a, b)) >= min(va, vb)


def test_truncated_poly_ring():
    ring = TruncatedPolyRing(4, 2)  # F_4[u]/(u^2)
    assert ring.size() == 16
    assert ring.q == 4
    assert ring.mul(ring.gamma, ring.gamma) == ring.zero
    for a in ring.elements():
        assert ring.compose(ring.decompose(a)) == a
        assert ring.project(ring.lift(ring.project(a))) == ring.project(a)


def test_truncated_lift_is_constant():
    ring = TruncatedPolyRing(9, 3)
    for c in ring.residue.elements():
        t = ring.lift(c)
        assert t[1:] == (0,) * (ring.nu - 1)
        assert ring.project(t) == c


def test_element_wrapper_mixed_rings(z8, z9):
    a = z8.element(3)
    b = z9.element(3)
    with pytest.raises(MixedRings):
        _ = a + b
    assert (a * a).coords == (1,)
    assert a.is_unit()
    assert (a.inverse() * a).coords == (1,)


def test_compose_rejects_non_digits(z8):
    with pytest.raises(DigitNotInT):
        z8.compose(((0,), (1,)))  # wrong length
    with pytest.raises(DigitNotInT):
        z8.compose(((0,), (3,), (1,)))  # 3 is not in T


def test_make_ring_roundtrip(gr83):
    for ring in (zmod(8), gr83, TruncatedPolyRing(4, 2)):
        clone = make_ring(ring.descriptor())
        assert clone == ring


def test_residue_ring_wraps_field(z9):
    rr = residue_ring(z9)
    assert rr.nu == 1
    assert rr.q == 3
    assert rr.size() == 3


def test_default_and_explicit_modulus_share_one_field():
    assert get_field(3, 2) is get_field(3, 2, default_modulus(3, 2))
    assert GaloisRing(3, 2, 2).residue is get_field(3, 2)


@pytest.mark.parametrize("p, h", [(4, 1), (6, 2), (1, 1), (9, 2)])
def test_get_field_rejects_a_p_that_is_not_prime(p, h):
    with pytest.raises(InvalidParams):
        get_field(p, h)


def test_identity_is_family_and_parameters():
    assert zmod(4) == GaloisRing(2, 2, 1) and zmod(4) is not GaloisRing(2, 2, 1)
    assert hash(zmod(4)) == hash(GaloisRing(2, 2, 1))
    assert zmod(4) != zmod(4, convention="teichmuller")
    assert zmod(4) != zmod(8) and zmod(9) != zmod(4)
    # F_4 as a Galois ring and as a truncated ring with nu = 1
    assert GaloisRing(2, 1, 2) != TruncatedPolyRing(4, 1)
    assert TruncatedPolyRing(4, 2) == TruncatedPolyRing(4, 2)
    assert TruncatedPolyRing(4, 2) != TruncatedPolyRing(4, 3)
    assert len({zmod(4), GaloisRing(2, 2, 1), TruncatedPolyRing(4, 2),
                TruncatedPolyRing(4, 2), GaloisRing(2, 1, 2)}) == 3
    assert get_field(5) == get_field(5) and get_field(5) != get_field(7)
    assert get_field(2, 2) != get_field(2)
    # F_9 by two moduli: the same p and h, different fields
    assert get_field(3, 2, (1, 0, 1)) == get_field(3, 2)
    assert get_field(3, 2, (2, 2, 1)) != get_field(3, 2)
    assert len({get_field(2, 2), get_field(3), get_field(3, 2)}) == 3


@pytest.mark.parametrize("ring", [zmod(4), zmod(9), GaloisRing(2, 2, 2),
                                  TruncatedPolyRing(4, 2),
                                  TruncatedPolyRing(2, 3)], ids=repr)
def test_coordinates_are_reduced_and_enumerated_in_order(ring):
    m = ring.pr if isinstance(ring, GaloisRing) else ring.q
    width = len(ring.zero)
    els = list(ring.elements())
    assert len(els) == ring.size() == m ** width
    assert els == sorted(els) and els[0] == ring.zero
    assert ring.coerce(m + 1) == ring.one
    assert ring.coerce([m + c for c in range(width)]) == tuple(
        c % m for c in range(width))
    with pytest.raises(ValueError):
        ring.coerce((0,) * (width + 1))
    with pytest.raises(MixedRings):
        ring.coerce(zmod(25).element(1))
    assert ring.coerce(ring.element(3)) == ring.coerce(3)
    g = ring.one
    for e in range(ring.nu + 2):
        assert ring.gamma_power(e) == g
        g = ring.mul(g, ring.gamma)
