import random
from itertools import product

import pytest

from chaincodes.errors import InvalidParams
from chaincodes.fields import (ExtField, factorize, get_field, is_irreducible,
                              prime_power_split)
from oracles import clear_column_by_row_update, zech_tables_by_polynomials

# (p, h, modulus); the last two have no primitive z + c, so their generator
# has degree 2 (F_3^4: z^2 + z)
FIELDS = [(11, 5, None), (2, 8, None), (13, 4, None),
          (3, 4, (2, 0, 1, 0, 1)), (3, 6, (1, 0, 2, 0, 0, 0, 1))]


@pytest.mark.parametrize("p, h, modulus", FIELDS)
def test_tables_match_the_polynomial_oracle(p, h, modulus):
    field = ExtField(p, h, modulus)
    field.mul(1, 1)
    gen, exp, log, zech = zech_tables_by_polynomials(field)
    assert field.generator() == gen
    assert field._exp == exp
    assert field._log == log
    assert field._zech == zech


def test_degree_two_generators():
    assert ExtField(3, 4, (2, 0, 1, 0, 1)).generator() == 12  # z^2 + z
    assert ExtField(3, 6, (1, 0, 2, 0, 0, 0, 1)).generator() == 14  # z^2+z+2


@pytest.mark.parametrize("p", [2, 3, 5])
def test_is_irreducible_matches_sympy(p):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for h in range(1, 5):
        for tail in product(range(p), repeat=h):
            coeffs = list(tail) + [1]  # little-endian, monic
            expected = sympy.Poly(list(reversed(coeffs)), x,
                                  modulus=p).is_irreducible
            assert is_irreducible(coeffs, p) == expected, (p, coeffs)


@pytest.mark.parametrize("build", [lambda: get_field(2, 0),
                                   lambda: get_field(3, -1),
                                   lambda: get_field(3, 1.5),
                                   lambda: ExtField(5, 1),
                                   lambda: ExtField(5, 0)],
                         ids=["get_field(2,0)", "get_field(3,-1)",
                              "get_field(3,1.5)", "ExtField(5,1)",
                              "ExtField(5,0)"])
def test_bad_h_is_rejected(build):
    with pytest.raises(InvalidParams):
        build()


def test_constants_zero_and_moduli_of_the_wrong_degree_are_refused():
    assert not is_irreducible([3], 5) and not is_irreducible([0, 0], 5)
    for field in (get_field(5), ExtField(5, 2)):
        with pytest.raises(ZeroDivisionError):
            field.inv(0)
    for modulus in [(2, 0, 0, 1), (2, 0, 3)]:  # degree 3; not monic
        with pytest.raises(ValueError, match="monic of degree h"):
            ExtField(5, 2, modulus)
    assert (repr(get_field(5)), repr(ExtField(5, 2))) == ("F_5", "F_5^2")


def test_tables_are_built_on_the_first_lookup_as_plain_lists():
    field = ExtField(13, 3)
    names = ("_exp", "_log", "_zech")
    assert field.generator() == 15  # z + 2, found without the tables
    assert not any(isinstance(getattr(field, n), list) for n in names)
    assert field.add(1, 1) == 2
    assert all(type(getattr(field, n)) is list for n in names)
    # no per-read hook on the class
    assert not {"__getattr__", "__getattribute__"} & set(vars(ExtField))
    assert not any(isinstance(v, property) for v in vars(ExtField).values())


def test_a_stand_in_held_across_the_build_still_reads_the_tables():
    eager = ExtField(5, 3)
    lazy = ExtField(5, 3)  # walk_clear holds the Zech stand-in in a local
    prow, row = list(range(1, 125, 3)), list(range(2, 125, 3))
    walked = [eager.walk_codes(r) for r in (prow, row)]
    assert not isinstance(lazy._zech, list)
    lazy.walk_clear(walked, 1, walked[0], 0)
    assert lazy.plain_codes(walked[1]) == clear_column_by_row_update(
        eager, [prow, row], 1, prow, 0)[1]


@pytest.mark.parametrize("p, h", [(3, 2), (2, 4), (11, 2)])
def test_coords_and_from_coords_round_trip(p, h):
    # every code of F_9, F_16 and F_121; coordinates are read mod p
    field = get_field(p, h)
    rng = random.Random(p * h)
    for a in field.elements():
        coords = field.coords(a)
        assert len(coords) == h and all(0 <= c < p for c in coords)
        assert sum(c * p ** i for i, c in enumerate(coords)) == a
        assert field.from_coords(coords) == a
        wrapped = [c + p * rng.randint(-3, 3) for c in coords]
        assert field.from_coords(wrapped) == a
        assert field.from_coords(tuple(c - p for c in coords)) == a


@pytest.mark.parametrize("p, h", [(2, 8), (3, 4), (11, 2)])
def test_neg_is_the_additive_inverse(p, h):
    field = ExtField(p, h)
    assert field.neg(0) == 0
    for a in field.elements():
        assert field.add(a, field.neg(a)) == 0
        assert field.sub(a, a) == 0


@pytest.mark.parametrize("p, h", [(2, 1), (11, 1), (2, 4), (3, 2), (11, 2),
                                  (11, 5)])
def test_walk_ops_are_the_plain_ops_in_walk_codes(p, h):
    # walk_clear is the plain row update and walk_ratio is y * x^-1, read
    # through walk_codes and back through plain_codes; zero stays 0 and
    # the Zech -1 mark (x = -f*y) included
    F = get_field(p, h)
    rng = random.Random(p * 10 + h)
    codes = [0, 1, F.q - 1] + [rng.randrange(F.q) for _ in range(20)]
    for _ in range(150):
        width = rng.randint(1, 6)
        c = rng.randrange(width)
        prow = [rng.choice(codes) for _ in range(width)]
        prow[c] = prow[c] or 1
        rows = [[rng.choice(codes) for _ in range(width)] for _ in range(4)]
        # a row that the update cancels entry by entry beyond c
        rows.append([F.neg(F.mul(5 % F.q or 1, e)) for e in prow])
        # entries before c are read from neither row: the update is the
        # plain one on rows zero there, and a row zero at c stays
        zeroed = [[0] * c + row[c:] for row in rows]
        updated = clear_column_by_row_update(F, zeroed, 1, [0] * c + prow[c:],
                                             c)
        plain = [new if i and row[c] else row
                 for i, (row, new) in enumerate(zip(rows, updated))]
        walked = [F.walk_codes(row) for row in rows]
        F.walk_clear(walked, 1, F.walk_codes(prow), c)
        assert walked == [F.walk_codes(row) for row in plain]
        assert [F.plain_codes(row) for row in walked] == plain
        assert not any(row[c] for row in plain[1:]) and not any(plain[-1])
    for x in filter(None, codes):
        for y in codes:
            wx, wy = F.walk_codes([x, y])
            assert F.walk_ratio(wx, wy) == \
                F.walk_codes([F.mul(y, F.inv(x))])[0]


def test_characteristics_are_bounded_before_trial_division():
    # trial division stops by 2^16, so a prime of 2^32 or more is refused;
    # a power of a prime below 2^32 is still split, through its root when
    # no factor below 2^16 divides it
    assert prime_power_split(4294967291) == (4294967291, 1)  # < 2^32
    assert prime_power_split(65537 ** 2) == (65537, 2)
    assert prime_power_split(4294967291 ** 7) == (4294967291, 7)
    assert prime_power_split(2 ** 255) == (2, 255)
    assert prime_power_split(3 ** 4000) == (3, 4000)
    # 2^1279 - 1 is prime: a float root of it, taken at e = 1, overflows
    for n in (2 ** 61 - 1, 4294967311, 65537 * 65539, (2 ** 61 - 1) ** 2,
              3 * 2 ** 40, 2 ** 1279 - 1, 10 ** 4299 + 1):
        with pytest.raises(InvalidParams, match=r"not a power of a prime "
                                                r"below 2\^32"):
            prime_power_split(n)
    for n in (-4, 0, 1, 6, 6 ** 40, 65535 ** 3):
        with pytest.raises(InvalidParams, match="is not a prime power"):
            prime_power_split(n)
    with pytest.raises(InvalidParams, match=r"numbers below 2\^32"):
        get_field(2 ** 61 - 1)
    with pytest.raises(InvalidParams, match=r"numbers below 2\^32"):
        factorize(2 ** 32)
    assert factorize(2 ** 32 - 1) == [3, 5, 17, 257, 65537]
