"""Finite commutative chain rings.

Two families are constructible: Galois rings GR(p^r, s) given by a monic
modulus over Z_{p^r}, and truncated polynomial rings F_q[u]/(u^nu).  Raw
elements are tuples of ints (the canonical coordinates); the ring object
carries all the arithmetic, and :class:`RingElement` is a thin wrapper for
the scalar-level API.

Every ring exposes the maximal-ideal generator ``gamma``, the nilpotency
index ``nu``, the residue field, a distinguished transversal T of the
residue field (Teichmueller set or, for Z_{p^r}, the digit set {0..p-1}),
and the unique digit expansion a = sum(t_i * gamma^i) over T.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate, product, repeat
from math import gcd, isqrt
from operator import lshift

from .errors import (MALFORMED, DigitNotInT, InvalidConvention,
                     InvalidParams, MixedRings, NotAUnit, RejectedModulus)
from .fields import _poly_divmod, get_field, prime_power_split

TEICHMULLER = "teichmuller"
DIGITS = "digits"


# a ring descriptor as a record: make_ring reads the fields that are set
ChainRingSpec = namedtuple("ChainRingSpec",
                           "family p r s modulus q nu convention",
                           defaults=(None,) * 7)


class RingElement:
    """Scalar wrapper; arithmetic between mixed rings raises MixedRings."""

    __slots__ = ("ring", "coords")

    def __init__(self, ring, coords):
        self.ring = ring
        self.coords = coords

    def _apply(self, op, other):
        if not isinstance(other, RingElement) or other.ring != self.ring:
            raise MixedRings("operands come from different rings")
        return RingElement(self.ring, op(self.coords, other.coords))

    def __add__(self, other):
        return self._apply(self.ring.add, other)

    def __sub__(self, other):
        return self._apply(self.ring.sub, other)

    def __mul__(self, other):
        return self._apply(self.ring.mul, other)

    def __neg__(self):
        return RingElement(self.ring, self.ring.neg(self.coords))

    def __eq__(self, other):
        return (isinstance(other, RingElement) and other.ring == self.ring
                and other.coords == self.coords)

    def __hash__(self):
        return hash(self.coords)

    def valuation(self):
        return self.ring.valuation(self.coords)

    def is_unit(self):
        return self.ring.valuation(self.coords) == 0

    def inverse(self):
        return RingElement(self.ring, self.ring.invert_unit(self.coords))

    def __repr__(self):
        return f"RingElement({self.ring!r}, {self.coords})"


class ChainRing:
    """Shared behaviour; subclasses provide the coordinate arithmetic, the
    modulus `coord_modulus` of each coordinate, the `family`, the names
    `descriptor_keys` of the constructor arguments and the identity `key`
    = (family, *constructor arguments)."""

    _reps = None
    _rep_set = None

    # --- coordinates ------------------------------------------------------

    def coerce(self, x):
        """Coordinates of an int (not a bool), an element or a list of ints."""
        m, width = self.coord_modulus, len(self.zero)
        if type(x) is int:
            return tuple([x % m] + [0] * (width - 1))
        if isinstance(x, RingElement):
            if x.ring != self:
                raise MixedRings("element from another ring")
            return x.coords
        if isinstance(x, (list, tuple)) and all(type(c) is int for c in x):
            if len(x) != width:
                raise ValueError(f"expected {width} coordinates")
            return tuple([c % m for c in x])
        raise TypeError(f"expected an int or a list of ints; got {x!r}")

    def elements(self):
        return product(range(self.coord_modulus), repeat=len(self.zero))

    def _pow(self, a, e):
        acc = self.one
        while e:
            if e & 1:
                acc = self.mul(acc, a)
            a = self.mul(a, a)
            e >>= 1
        return acc

    # --- digit expansion -------------------------------------------------

    def decompose(self, a):
        """Digits (t_0, ..., t_{nu-1}) in T with a = sum t_i gamma^i."""
        digits = []
        for _ in range(self.nu):
            t = self.lift(self.project(a))
            digits.append(t)
            a = self.shift_down(self.sub(a, t), 1)
        return tuple(digits)

    def compose(self, digits):
        if len(digits) != self.nu:
            raise DigitNotInT(f"expected {self.nu} digits")
        rep = self.representative_set()
        acc = self.zero
        for i, t in enumerate(digits):
            t = self.coerce(t)
            if t not in rep:
                raise DigitNotInT(f"{t} is not a representative")
            acc = self.add(acc, self.mul(t, self.gamma_power(i)))
        return acc

    def gamma_power(self, e):
        return self._pow(self.gamma, e)

    def representatives(self):
        """T as a list, indexed by residue code."""
        if self._reps is None:
            self._reps = [self.lift(c) for c in self.residue.elements()]
        return self._reps

    def representative_set(self):
        if self._rep_set is None:
            self._rep_set = frozenset(self.representatives())
        return self._rep_set

    def teichmuller_generator(self):
        """The lift of the residue field's generator, which is xi with T =
        {0, xi, ..., xi^{q-1} = 1} only under the Teichmuller convention."""
        return self.lift(self.residue.generator())

    # --- misc -------------------------------------------------------------

    def is_unit(self, a):
        return self.valuation(a) == 0

    def unit_part(self, a):
        return self.shift_down(a, self.valuation(a))

    def invert_unit(self, a):
        """Newton lifting (von zur Gathen & Gerhard, Modern Computer Algebra,
        9.1): if a v = 1 mod gamma^k then a v (2 - a v) = 1 mod gamma^2k,
        starting from the residue-field inverse."""
        c = self.project(a)
        if c == 0:
            raise NotAUnit(f"{a} has positive valuation")
        v = self._embed(self.residue.inv(c))
        two = self.add(self.one, self.one)
        precision = 1
        while precision < self.nu:
            v = self.mul(v, self.sub(two, self.mul(a, v)))
            precision *= 2
        return v

    def element(self, x):
        return RingElement(self, self.coerce(x))

    def size(self):
        return self.q ** self.nu

    # --- element JSON ----------------------------------------------------

    def element_to_json(self, a):
        if len(a) == 1:
            return a[0]
        return list(a)

    # --- identity ----------------------------------------------------------

    def descriptor(self):
        """The family, and each constructor argument under its key."""
        args = [list(a) if isinstance(a, tuple) else a for a in self.key[1:]]
        return {"family": self.family, **dict(zip(self.descriptor_keys, args))}

    def __reduce__(self):  # rebuilt: GaloisRing's bound ops do not pickle
        return type(self), self.key[1:]

    def __eq__(self, other):
        return isinstance(other, ChainRing) and other.key == self.key

    def __hash__(self):
        return hash(self.key)


def _check_size(base, exponent, name):
    """Refuse a ring of base^exponent >= 2^256 elements; the bit length of
    the base decides before a power that large is built."""
    if exponent * (base.bit_length() - 1) >= 256 or base ** exponent >> 256:
        raise InvalidParams(f"{name} is limited to fewer than 2^256 elements")


class GaloisRing(ChainRing):
    """GR(p^r, s) = Z_{p^r}[z]/(modulus); elements are s-tuples mod p^r."""

    family = "galois"
    descriptor_keys = ("p", "r", "s", "modulus", "convention")

    def __init__(self, p, r, s, modulus=None, convention=None):
        if not all(type(x) is int for x in (p, r, s)) or min(p - 1, r, s) < 1:
            raise InvalidParams(f"GR(p^r, s) needs integers p >= 2 and r, s "
                                f">= 1; got p={p!r}, r={r!r}, s={s!r}")
        _check_size(p, r * s, "GR(p^r, s)")
        self.p = p
        self.r = r
        self.s = s
        self.pr = self.coord_modulus = p ** r
        self.nu = r
        self.q = p ** s
        if modulus is not None:
            if not all(type(c) is int for c in modulus):
                raise InvalidParams("modulus coefficients must be integers")
            modulus = tuple(c % self.pr for c in modulus)
            if len(modulus) != s + 1 or modulus[-1] != 1:
                raise RejectedModulus("modulus must be monic of degree s")
        try:  # the residue field checks p and makes the default modulus
            self.residue = get_field(p, s, modulus)
        except ValueError as exc:
            raise RejectedModulus(str(exc)) from exc
        if modulus is None:
            modulus = self.residue.modulus
        self.modulus = modulus
        if convention is None:
            convention = DIGITS if s == 1 else TEICHMULLER
        if convention == DIGITS and s != 1:
            raise InvalidConvention("digit representatives need s = 1")
        if convention not in (TEICHMULLER, DIGITS):
            raise InvalidConvention(convention)
        self.convention = convention
        self.key = (self.family, p, r, s, modulus, convention)
        self.zero = (0,) * s
        self.one = tuple([1] + [0] * (s - 1))
        self.gamma = tuple([p % self.pr] + [0] * (s - 1))
        self._teichmuller = None  # see lift
        self._valuations = {p ** v: v for v in range(r + 1)}
        # mul's slots hold a product's coefficients folded by z^i mod f
        m = self.pr
        self._slot = w = (s * (m - 1) ** 2 * (s * m - s - m + 2)).bit_length()
        self._shifts = shifts = tuple(range(0, w * s, w))
        self._fold = [sum(map(lshift, _poly_divmod([0] * i + [1], modulus, m),
                              shifts)) for i in range(s, 2 * s - 1)]
        if s == 1:
            self._bind_zmod_ops()

    def _bind_zmod_ops(self):
        """Fix Z_{p^r} ops on the one coordinate as instance attributes."""
        p, m, r, vals = self.p, self.pr, self.r, self._valuations

        def invert_unit(a):
            try:
                return (pow(a[0], -1, m),)
            except ValueError:
                raise NotAUnit(f"{a} has positive valuation") from None

        self.add = lambda a, b: ((a[0] + b[0]) % m,)
        self.sub = lambda a, b: ((a[0] - b[0]) % m,)
        self.neg = lambda a: (-a[0] % m,)
        self.mul = lambda a, b: (a[0] * b[0] % m,)
        self.project = lambda a: a[0] % p
        self.valuation = lambda a: vals[gcd(m, a[0])]
        self.invert_unit = invert_unit
        e = 1 if self.convention == DIGITS else p ** (r - 1)  # see lift
        self.lift = lambda code: (pow(code % p, e, m),)

    # --- coordinate arithmetic --------------------------------------------

    def add(self, a, b):
        m = self.pr
        return tuple([(x + y) % m for x, y in zip(a, b)])

    def sub(self, a, b):
        m = self.pr
        return tuple([(x - y) % m for x, y in zip(a, b)])

    def neg(self, a):
        m = self.pr
        return tuple([(-x) % m for x in a])

    def mul(self, a, b):
        """Kronecker product: each operand packed in w-bit slots of one int,
        one int product, its slots s .. 2s - 2 folded onto the low s by the
        packed rows z^i mod f, each slot then mod p^r; no slot carries."""
        w, shifts = self._slot, self._shifts
        full = sum(map(lshift, a, shifts)) * sum(map(lshift, b, shifts))
        mask = (1 << w) - 1
        low, full = full & ((1 << w * self.s) - 1), full >> w * self.s
        for row in self._fold:
            low += (full & mask) * row
            full >>= w
        m = self.pr
        return tuple([(low >> k & mask) % m for k in shifts])

    def valuation(self, a):
        """The least valuation of a coordinate: gcd(p^r, a) = p^v."""
        return self._valuations[gcd(self.pr, *a)]

    def shift_down(self, a, e):
        if e == 0:
            return a
        d = self.p ** e
        return tuple(c // d for c in a)

    def project(self, a):
        return self.residue.from_coords(a)

    def lift(self, code):
        """The Teichmueller element xi^l over a residue code g^l (s > 1),
        as xi^(aS) * xi^b for l = aS + b, from two tables of S powers made
        on the first lift.  xi = y^(p^(r-1)), y the coordinate lift of
        g^(p^k), k = -(r-1) mod s: that power kills the 1 + pGR part of a
        unit and lands over g^(p^(k+r-1)) = g."""
        if not code:
            return self.zero
        if self._teichmuller is None:
            F, S = self.residue, isqrt(self.q - 2) + 1
            y = self._embed(F.pow(F.generator(), self.p ** (-(self.r - 1)
                                                            % self.s)))
            xi = self._pow(y, self.p ** (self.r - 1))
            small, big = (list(accumulate(repeat(x, S - 1), self.mul,
                                          initial=self.one))
                          for x in (xi, self._pow(xi, S)))
            self._teichmuller = S, big, small
        S, big, small = self._teichmuller
        a, b = divmod(self.residue._log[code], S)
        return self.mul(big[a], small[b])

    def _embed(self, code):
        """The residue code as an element by its coordinates."""
        return self.residue.coords(code)

    def additive_coords(self):
        """(M, f), f an additive isomorphism onto (Z/M)^s, M = p^r."""
        return self.pr, tuple

    def __repr__(self):
        if self.s == 1:
            return f"Z_{self.pr}"
        return f"GR({self.pr},{self.s})"


class TruncatedPolyRing(ChainRing):
    """F_q[u]/(u^nu); elements are nu-tuples of residue-field codes."""

    family = "truncated"
    descriptor_keys = ("q", "nu")

    def __init__(self, q, nu):
        if not all(type(x) is int and x >= 1 for x in (q, nu)):
            raise InvalidParams(f"F_q[u]/(u^nu) needs integers q, nu >= 1; "
                                f"got q={q!r}, nu={nu!r}")
        _check_size(q, nu, "F_q[u]/(u^nu)")
        self.p, self.h = prime_power_split(q)
        self.q = self.coord_modulus = q
        self.nu = nu
        self.key = (self.family, q, nu)
        self.residue = get_field(self.p, self.h)
        self.zero = (0,) * nu
        self.one = tuple([1] + [0] * (nu - 1))
        self.gamma = tuple(1 if i == 1 else 0 for i in range(nu)) \
            if nu > 1 else (0,)
        self.convention = TEICHMULLER  # constants satisfy t^q = t

    def add(self, a, b):
        f = self.residue
        return tuple(f.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        f = self.residue
        return tuple(f.sub(x, y) for x, y in zip(a, b))

    def neg(self, a):
        f = self.residue
        return tuple(f.neg(x) for x in a)

    def mul(self, a, b):
        f, nu = self.residue, self.nu
        out = [0] * nu
        for i, ai in enumerate(a):
            if ai:
                for j in range(nu - i):
                    if b[j]:
                        out[i + j] = f.add(out[i + j], f.mul(ai, b[j]))
        return tuple(out)

    def valuation(self, a):
        for i, c in enumerate(a):
            if c:
                return i
        return self.nu

    def shift_down(self, a, e):
        if e == 0:
            return a
        return a[e:] + (0,) * e

    def project(self, a):
        return a[0]

    def lift(self, code):
        return tuple([code] + [0] * (self.nu - 1))

    _embed = lift

    def additive_coords(self):
        """(M, f), f an additive isomorphism onto (Z/p)^(nu h): the h base-p
        digits of each of the nu field codes."""
        coords = self.residue.coords
        return self.p, lambda a: tuple(c for x in a for c in coords(x))

    def __repr__(self):
        return f"F_{self.q}[u]/(u^{self.nu})"


def make_ring(spec):
    """A ring from a descriptor dict, or a ChainRingSpec's set fields: the
    `family` picks the class, called with its `descriptor_keys` (None if
    missing); any other key or a malformed value raises InvalidParams."""
    if isinstance(spec, ChainRingSpec):
        spec = {k: v for k, v in spec._asdict().items() if v is not None}
    try:
        family = spec["family"]
        for cls in (GaloisRing, TruncatedPolyRing):
            if cls.family == family:
                break
        else:
            raise InvalidParams(f"unknown ring family {family!r}")
        extra = spec.keys() - {"family", *cls.descriptor_keys}
        if extra:
            raise InvalidParams(f"{family} rings take no keys {sorted(extra)}")
        return cls(*map(spec.get, cls.descriptor_keys))
    except MALFORMED as exc:
        raise InvalidParams(f"malformed ring descriptor: {exc!r}") from exc


def zmod(m, convention=None):
    """Z_m for a prime power m."""
    p, r = prime_power_split(m)
    return GaloisRing(p, r, 1, convention=convention)


def residue_ring(ring):
    """The residue field of `ring` packaged as a nu = 1 chain ring."""
    if isinstance(ring, GaloisRing):  # the modulus is reduced mod p
        return GaloisRing(ring.p, 1, ring.s, ring.modulus)
    return TruncatedPolyRing(ring.q, 1)
