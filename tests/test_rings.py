import json
import pickle
import random

import pytest

from chaincodes import GaloisRing, TruncatedPolyRing, make_ring, residue_ring, zmod
from chaincodes.rings import ChainRingSpec
from chaincodes.errors import (DigitNotInT, InvalidConvention, InvalidParams,
                               MixedRings, NotAUnit, RejectedModulus)
from chaincodes.fields import default_modulus, get_field
from oracles import (galois_product_by_division,
                     galois_product_by_schoolbook, invert_unit_by_exponent,
                     teichmuller_by_iteration, teichmuller_by_power,
                     teichmuller_by_root_power)


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
    with pytest.raises(InvalidConvention):
        GaloisRing(3, 2, 1, convention="gray")


def test_galois_ring_modulus_rejected():
    # z^3 + z^2 projects to a reducible polynomial over F_2
    with pytest.raises(RejectedModulus):
        GaloisRing(2, 3, 3, modulus=(0, 0, 1, 1))
    # not monic (leading 3), or of degree 2, not s = 3
    for modulus in [(1, 1, 0, 3), (1, 1, 1)]:
        with pytest.raises(RejectedModulus, match="monic of degree s"):
            GaloisRing(2, 3, 3, modulus=modulus)


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


@pytest.mark.parametrize("m", [4, 8, 9, 25, 27, 121])
def test_zmod_bound_ops_equal_the_general_methods(m):
    # Z_{p^r} fixes its ops per ring; the s-tuple methods of the class,
    # called on the same ring, must give the same answers for every pair
    ring = zmod(m)
    general = {name: getattr(GaloisRing, name).__get__(ring)
               for name in ("add", "sub", "neg", "mul", "project",
                            "valuation", "invert_unit")}
    for name in general:
        assert name in vars(ring), name
    elements = list(ring.elements())
    for a in elements:
        for name in ("neg", "project", "valuation"):
            assert getattr(ring, name)(a) == general[name](a), (name, a)
        if a[0] % ring.p:
            assert ring.invert_unit(a) == general["invert_unit"](a), a
        else:
            for invert in (ring.invert_unit, general["invert_unit"]):
                with pytest.raises(NotAUnit):
                    invert(a)
        for b in elements:
            for name in ("add", "sub", "mul"):
                assert getattr(ring, name)(a, b) == general[name](a, b), \
                    (name, a, b)
    assert ring.valuation(ring.zero) == general["valuation"](ring.zero) \
        == ring.r


@pytest.mark.parametrize("ring", [
    GaloisRing(2, 2, 2), GaloisRing(3, 2, 2), GaloisRing(2, 3, 3),
    # 3 = 1 + p: the reduction needs the modulus mod p^r, not mod p
    GaloisRing(2, 2, 3, modulus=(3, 1, 0, 1))], ids=repr)
def test_galois_product_matches_long_division_on_every_pair(ring):
    els = list(ring.elements())
    assert [ring.mul(a, b) for a in els for b in els] == \
        [galois_product_by_division(ring, a, b) for a in els for b in els]


@pytest.mark.parametrize("ring", [GaloisRing(11, 2, 5), GaloisRing(11, 1, 5)],
                         ids=repr)
def test_galois_product_matches_long_division_on_seeded_pairs(ring):
    rng = random.Random(24)
    pairs = [tuple(tuple(rng.randrange(ring.pr) for _ in range(ring.s))
                   for _ in range(2)) for _ in range(2000)]
    assert [ring.mul(a, b) for a, b in pairs] == \
        [galois_product_by_division(ring, a, b) for a, b in pairs]


@pytest.mark.parametrize("ring", [zmod(9), zmod(25, convention="teichmuller"),
                                  GaloisRing(3, 2, 2),
                                  TruncatedPolyRing(4, 2)], ids=repr)
def test_rings_survive_pickling(ring):
    copy = pickle.loads(pickle.dumps(ring))
    assert copy == ring and copy.convention == ring.convention
    a, b = list(ring.elements())[-2:]
    assert copy.mul(a, b) == ring.mul(a, b)
    assert copy.valuation(ring.gamma) == 1


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
    # lift(c) = xi^(aS) xi^b from the two power tables, against x^(q^(r-1))
    # with x over c itself
    ring = GaloisRing(p, r, s)
    rng = random.Random(1231)
    codes = [0, 1] + [rng.randrange(2, ring.q) for _ in range(300)]
    for c in codes:
        assert ring.lift(c) == teichmuller_by_power(ring, c)


# GR(121,2), GR(8,4), GR(27,3), GR(25,3), GR(121,5), and the fields
# GR(11,1,5), GR(4,1,2)
@pytest.mark.parametrize("p, r, s", [(11, 2, 2), (2, 3, 4), (3, 3, 3),
                                     (5, 2, 3), (11, 2, 5), (11, 1, 5),
                                     (2, 1, 2)])
def test_table_lift_matches_the_power_oracles(p, r, s):
    # every code of the small rings, 500 seeded codes of the large ones;
    # the iteration oracle x -> x^q on a sample, as it is the slowest
    ring = GaloisRing(p, r, s)
    codes = range(ring.q) if ring.q <= 4000 else \
        [0, 1, ring.q - 1] + random.Random(27).sample(range(2, ring.q), 500)
    lifts = [ring.lift(c) for c in codes]
    assert lifts == [teichmuller_by_root_power(ring, c) for c in codes]
    assert lifts == [teichmuller_by_power(ring, c) for c in codes]
    sample = list(codes)[::max(1, len(codes) // 40)]
    assert [ring.lift(c) for c in sample] == \
        [teichmuller_by_iteration(ring, c) for c in sample]
    assert ring.teichmuller_generator() == \
        teichmuller_by_power(ring, ring.residue.generator())


@pytest.mark.parametrize("m", [2, 4, 5, 8, 9, 25, 27, 121])
def test_teichmuller_generator_of_z_mod_prime_power(m):
    # the lift of the residue field's generator: the Teichmueller element
    # over it, or under the digit convention the generator's digit, which
    # is that element at r = 1
    ring = zmod(m, convention="teichmuller")
    assert ring.teichmuller_generator() == \
        teichmuller_by_power(ring, ring.residue.generator())
    digits = zmod(m, convention="digits")
    assert digits.teichmuller_generator() == (digits.residue.generator(),)


@pytest.mark.parametrize("ring", [
    GaloisRing(11, 2, 5), GaloisRing(3, 2, 2), zmod(121),
    zmod(9, convention="teichmuller")], ids=repr)
def test_lifts_leave_no_per_element_state(ring):
    # the first lift builds two tables of about sqrt(q) powers (none for
    # s = 1); a thousand more lifts add nothing to the ring
    def state():
        return {name: len(value) if hasattr(value, "__len__") else value
                for name, value in vars(ring).items() if name != "residue"
                and not callable(value)}

    ring.lift(1)
    before = state()
    rng = random.Random(1000)
    for _ in range(1000):
        ring.lift(rng.randrange(ring.q))
    assert state() == before
    tables = vars(ring)["_teichmuller"]
    if ring.s == 1:
        assert tables is None
    else:
        S, big, small = tables
        assert len(big) == len(small) == S and (S - 1) ** 2 <= ring.q - 2 \
            < S ** 2


def test_no_lift_table_is_built_by_the_constructor():
    ring = GaloisRing(11, 2, 5)
    assert ring._teichmuller is None
    ring.mul(ring.one, ring.gamma)
    assert ring._teichmuller is None


# (p, r, s) over p in {2, 3, 11}, r in {1, 2, 5} and s in {2, 3, 5}
PACKED_RINGS = [(p, r, s) for p in (2, 3, 11) for r in (1, 2, 5)
                for s in (2, 3, 5)]


@pytest.mark.parametrize("p, r, s", PACKED_RINGS)
def test_packed_product_matches_the_schoolbook_oracle(p, r, s):
    ring = GaloisRing(p, r, s)
    m = ring.pr
    rng = random.Random(p * 100 + r * 10 + s)
    top = (m - 1,) * s  # every slot at its widest
    pairs = [(top, top), (ring.one, top), (ring.zero, top)] + [
        tuple(tuple(rng.choice((0, m - 1, rng.randrange(m)))
                    for _ in range(s)) for _ in range(2))
        for _ in range(150)]
    assert [ring.mul(a, b) for a, b in pairs] == \
        [galois_product_by_schoolbook(ring, a, b) for a, b in pairs]


@pytest.mark.parametrize("ring", [
    # z^3 + z + 3 over Z_8 (3 = 1 + p), z^2 + 2z + 2 over Z_9, and over
    # Z_121 z^5 + 13 (13 = 2 + p) and z^5 + 2z + 1
    GaloisRing(2, 3, 3, modulus=(3, 1, 0, 1)),
    GaloisRing(3, 2, 2, modulus=(2, 2, 1)),
    GaloisRing(11, 2, 5, modulus=(13, 0, 0, 0, 0, 1)),
    GaloisRing(11, 2, 5, modulus=(1, 2, 0, 0, 0, 1))], ids=repr)
def test_packed_product_under_a_non_default_modulus(ring):
    rng = random.Random(2727)
    pairs = [tuple(tuple(rng.randrange(ring.pr) for _ in range(ring.s))
                   for _ in range(2)) for _ in range(300)]
    assert [ring.mul(a, b) for a, b in pairs] == \
        [galois_product_by_schoolbook(ring, a, b) for a, b in pairs] == \
        [galois_product_by_division(ring, a, b) for a, b in pairs]


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


@pytest.mark.parametrize("ring", [GaloisRing(2, 3, 3), GaloisRing(3, 2, 2),
                                  zmod(27), zmod(8)], ids=repr)
def test_valuation_is_the_least_coordinate_valuation(ring):
    # gcd(p^r, a) = p^v against dividing each coordinate by p
    def least(a):
        best = ring.r
        for c in a:
            v = 0
            while c and c % ring.p == 0:
                c //= ring.p
                v += 1
            best = min(best, v) if c else best
        return best

    for a in ring.elements():
        assert ring.valuation(a) == \
            GaloisRing.valuation(ring, a) == least(a), a


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
    assert (a - a).coords == (0,) and (-a).coords == (5,)
    assert a == z8.element(11) and a != b and a != 3
    assert len({a, z8.element(11), -a}) == 2
    assert (a.valuation(), z8.element(4).valuation()) == (0, 2)
    assert repr(a) == "RingElement(Z_8, (3,))"


def test_compose_rejects_non_digits(z8):
    with pytest.raises(DigitNotInT):
        z8.compose(((0,), (1,)))  # wrong length
    with pytest.raises(DigitNotInT):
        z8.compose(((0,), (3,), (1,)))  # 3 is not in T


def test_make_ring_roundtrip(gr83):
    for ring in (zmod(8), gr83, TruncatedPolyRing(4, 2)):
        clone = make_ring(ring.descriptor())
        assert clone == ring


def test_chain_ring_spec_is_an_immutable_value():
    spec = ChainRingSpec(family="galois", p=3, r=2, s=2)
    assert spec == ChainRingSpec("galois", 3, 2, 2)
    assert hash(spec) == hash(ChainRingSpec(family="galois", p=3, r=2, s=2))
    assert spec != ChainRingSpec(family="galois", p=3, r=2, s=3)
    assert (spec.modulus, spec.q, spec.nu, spec.convention) == (None,) * 4
    with pytest.raises(AttributeError):
        spec.p = 5
    assert make_ring(spec) == GaloisRing(3, 2, 2)
    assert make_ring(ChainRingSpec(family="truncated", q=4, nu=2)) == \
        TruncatedPolyRing(4, 2)


def test_chain_ring_spec_with_a_foreign_field_is_refused():
    with pytest.raises(InvalidParams, match="take no keys"):
        make_ring(ChainRingSpec(family="galois", p=5, r=1, s=1, q=5))
    with pytest.raises(InvalidParams, match="take no keys"):
        make_ring(ChainRingSpec(family="truncated", q=4, nu=2, p=2))


Z9_DESCRIPTOR = {"family": "galois", "p": 3, "r": 2, "s": 1}
F9_DESCRIPTOR = {"family": "galois", "p": 3, "r": 1, "s": 2}
TP_DESCRIPTOR = {"family": "truncated", "q": 4, "nu": 2}


@pytest.mark.parametrize("descriptor", [
    {}, {"p": 3, "r": 2, "s": 1}, [1], "z9", None,
    {"family": "galois", "p": 3, "r": 2, "s": 1, "modulus": 5},
    {"family": "galois", "p": 3, "r": 2, "s": 1, "modulus": ["a", 1]},
    # a key of another family, or of none
    *({**Z9_DESCRIPTOR, key: value}
      for key, value in [("q", 9), ("nu", 2), ("colour", "red")]),
    *({**TP_DESCRIPTOR, key: value} for key, value in
      [("convention", "teichmuller"), ("p", 2), ("modulus", [1, 1, 1])]),
    # a falsy modulus is not the default one
    *({**F9_DESCRIPTOR, "modulus": m} for m in ([], 0, False, "")),
    *({**Z9_DESCRIPTOR, "modulus": m} for m in ([], 0, False, "")),
    # a bool is not an integer
    *({**Z9_DESCRIPTOR, key: True} for key in ("p", "r", "s")),
    *({**TP_DESCRIPTOR, key: True} for key in ("q", "nu")),
    {**F9_DESCRIPTOR, "modulus": [True, 0, 1]},
    {**F9_DESCRIPTOR, "modulus": [1.0, 0, 1]}])
def test_malformed_descriptor_is_invalid_params(descriptor):
    error = InvalidParams
    if isinstance(descriptor, dict) and descriptor.get("modulus") in ([], ""):
        error = RejectedModulus  # an empty modulus has the wrong degree
    with pytest.raises(error):
        make_ring(descriptor)


@pytest.mark.parametrize("ring", [
    zmod(9), zmod(9, convention="teichmuller"), GaloisRing(2, 2, 2),
    GaloisRing(3, 2, 2), GaloisRing(3, 2, 2, modulus=(2, 2, 1)),
    TruncatedPolyRing(4, 2), TruncatedPolyRing(2, 3)], ids=repr)
def test_descriptor_and_pickle_give_the_ring_back(ring):
    descriptor = ring.descriptor()
    assert tuple(descriptor) == ("family", *type(ring).descriptor_keys)
    assert make_ring(descriptor) == ring
    assert make_ring(json.loads(json.dumps(descriptor))) == ring
    assert pickle.loads(pickle.dumps(ring)) == ring
    # a missing or null modulus is the default one
    if "modulus" in descriptor \
            and ring.modulus == default_modulus(ring.p, ring.s):
        assert make_ring({**descriptor, "modulus": None}) == ring
        del descriptor["modulus"]
        assert make_ring(descriptor) == ring


# a huge exponent or p is refused too, but a test runs those in a
# subprocess (tests/test_cli.py), since unrefused they exhaust memory or time
@pytest.mark.parametrize("build", [
    lambda: GaloisRing(2, 256, 1), lambda: GaloisRing(2, 16, 16),
    lambda: GaloisRing(3, 162, 1), lambda: TruncatedPolyRing(2, 256)],
    ids=["2^256", "2^(16*16)", "3^162", "tp(2,256)"])
def test_a_ring_of_2_to_the_256_elements_is_refused(build):
    with pytest.raises(InvalidParams, match="fewer than 2\\^256 elements"):
        build()


def test_the_largest_ring_and_field_are_built():
    assert TruncatedPolyRing(2, 255).size() == 2 ** 255
    assert GaloisRing(3, 161, 1).size() < 2 ** 256 < 3 ** 162
    assert get_field(2, 20).q == 2 ** 20


@pytest.mark.parametrize("p, h", [(2, 21), (11, 6), (1031, 2)])
def test_an_extension_field_of_more_than_2_to_the_20_elements_is_refused(
        p, h):
    with pytest.raises(InvalidParams, match="limited to 2\\^20 elements"):
        get_field(p, h)


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


@pytest.mark.parametrize("build, value", [
    (lambda: zmod(12), 12), (lambda: zmod(1), 1),
    (lambda: TruncatedPolyRing(6, 2), 6),
    (lambda: make_ring({"family": "truncated", "q": 6, "nu": 2}), 6)],
    ids=["zmod(12)", "zmod(1)", "tp(6,2)", "descriptor"])
def test_a_modulus_that_is_not_a_prime_power_is_invalid_params(build, value):
    with pytest.raises(InvalidParams, match=f"^{value} is not a prime power"):
        build()


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
