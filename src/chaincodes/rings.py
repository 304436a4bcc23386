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

from dataclasses import dataclass
from itertools import product

from .errors import (DigitNotInT, InvalidConvention, InvalidParams,
                     MixedRings, NotAUnit, RejectedModulus)
from .fields import default_modulus, factorize, get_field, prime_power_split

TEICHMULLER = "teichmuller"
DIGITS = "digits"


@dataclass(frozen=True)
class ChainRingSpec:
    family: str  # "galois" | "truncated"
    p: int | None = None
    r: int | None = None
    s: int | None = None
    modulus: tuple | None = None
    q: int | None = None
    nu: int | None = None
    convention: str | None = None


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
    modulus `coord_modulus` of each coordinate and the identity `key`."""

    _reps = None
    _rep_set = None

    # --- coordinates ------------------------------------------------------

    def coerce(self, x):
        if isinstance(x, RingElement):
            if x.ring != self:
                raise MixedRings("element from another ring")
            return x.coords
        m, width = self.coord_modulus, len(self.zero)
        if isinstance(x, int):
            return tuple([x % m] + [0] * (width - 1))
        x = tuple(int(c) % m for c in x)
        if len(x) != width:
            raise ValueError(f"expected {width} coordinates")
        return x

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
        """xi with T = {0, xi, xi^2, ..., xi^{q-1} = 1}."""
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

    def element_from_json(self, obj):
        if isinstance(obj, int):
            return self.coerce(obj)
        return self.coerce(tuple(obj))

    # --- identity ----------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, ChainRing) and other.key == self.key

    def __hash__(self):
        return hash(self.key)


class GaloisRing(ChainRing):
    """GR(p^r, s) = Z_{p^r}[z]/(modulus); elements are s-tuples mod p^r."""

    family = "galois"

    def __init__(self, p, r, s, modulus=None, convention=None):
        if not all(isinstance(x, int) and x >= 1 for x in (p, r, s)):
            raise InvalidParams(f"GR(p^r, s) needs integers p, r, s >= 1; "
                                f"got p={p!r}, r={r!r}, s={s!r}")
        if factorize(p) != [p]:
            raise InvalidParams(f"GR(p^r, s) needs a prime p; got p={p}")
        self.p = p
        self.r = r
        self.s = s
        self.pr = self.coord_modulus = p ** r
        self.nu = r
        self.q = p ** s
        if modulus is None:
            modulus = default_modulus(p, s)
        modulus = tuple(c % self.pr for c in modulus)
        if len(modulus) != s + 1 or modulus[-1] != 1:
            raise RejectedModulus("modulus must be monic of degree s")
        try:
            self.residue = get_field(p, s, modulus)
        except ValueError as exc:
            raise RejectedModulus(str(exc)) from exc
        self.modulus = modulus
        if convention is None:
            convention = DIGITS if s == 1 else TEICHMULLER
        if convention == DIGITS and s != 1:
            raise InvalidConvention("digit representatives need s = 1")
        if convention not in (TEICHMULLER, DIGITS):
            raise InvalidConvention(convention)
        self.convention = convention
        self.key = ("galois", p, r, s, modulus, convention)
        self.zero = (0,) * s
        self.one = tuple([1] + [0] * (s - 1))
        self.gamma = tuple([p % self.pr] + [0] * (s - 1))
        self._lift_cache = {}
        # reduction rows: z^(s+i) mod modulus, i = 0..s-2
        rows = [tuple((-c) % self.pr for c in modulus[:-1])]
        for _ in range(s - 2):
            prev = rows[-1]
            shifted = (0,) + prev[:-1]
            lead = prev[-1]
            rows.append(tuple((shifted[i] + lead * rows[0][i]) % self.pr
                              for i in range(s)))
        self._red_rows = rows

    # --- coordinate arithmetic --------------------------------------------

    def add(self, a, b):
        m = self.pr
        if self.s == 1:
            return ((a[0] + b[0]) % m,)
        return tuple([(x + y) % m for x, y in zip(a, b)])

    def sub(self, a, b):
        m = self.pr
        if self.s == 1:
            return ((a[0] - b[0]) % m,)
        return tuple([(x - y) % m for x, y in zip(a, b)])

    def neg(self, a):
        m = self.pr
        if self.s == 1:
            return ((-a[0]) % m,)
        return tuple([(-x) % m for x in a])

    def mul(self, a, b):
        s, m = self.s, self.pr
        if s == 1:
            return ((a[0] * b[0]) % m,)
        full = [0] * (2 * s - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    full[i + j] += ai * bj
        res = [c % m for c in full[:s]]
        for i in range(s - 1):
            c = full[s + i] % m
            if c:
                row = self._red_rows[i]
                for k in range(s):
                    res[k] = (res[k] + c * row[k]) % m
        return tuple(res)

    def invert_unit(self, a):
        if self.s == 1:
            try:
                return (pow(a[0], -1, self.pr),)
            except ValueError:
                raise NotAUnit(f"{a} has positive valuation") from None
        return super().invert_unit(a)

    def valuation(self, a):
        best = self.r
        for c in a:
            if c:
                v = 0
                while c % self.p == 0:
                    c //= self.p
                    v += 1
                if v < best:
                    best = v
                    if v == 0:
                        return 0
        return best

    def shift_down(self, a, e):
        if e == 0:
            return a
        d = self.p ** e
        return tuple(c // d for c in a)

    def project(self, a):
        p = self.p
        if self.s == 1:
            return a[0] % p
        return self.residue.from_coords([c % p for c in a])

    def lift(self, code):
        cached = self._lift_cache.get(code)
        if cached is not None:
            return cached
        if self.convention == DIGITS:
            out = (code % self.p,)
        else:
            # x^(p^(r-1)) is the Teichmueller element over c^(p^(r-1)) for
            # any x over c, so lift a p^k-th power with k = -(r-1) mod s
            k = -(self.r - 1) % self.s
            y = self._embed(self.residue.pow(code, self.p ** k))
            out = self._pow(y, self.p ** (self.r - 1))
        self._lift_cache[code] = out
        return out

    def _embed(self, code):
        """The residue code as an element by its coordinates."""
        return self.residue.coords(code)

    def additive_coords(self):
        """(M, f), f an additive isomorphism onto (Z/M)^s, M = p^r."""
        return self.pr, tuple

    # --- identity ----------------------------------------------------------

    def descriptor(self):
        return {"family": "galois", "p": self.p, "r": self.r, "s": self.s,
                "modulus": list(self.modulus), "convention": self.convention}

    def __repr__(self):
        if self.s == 1:
            return f"Z_{self.pr}"
        return f"GR({self.pr},{self.s})"


class TruncatedPolyRing(ChainRing):
    """F_q[u]/(u^nu); elements are nu-tuples of residue-field codes."""

    family = "truncated"

    def __init__(self, q, nu):
        if not all(isinstance(x, int) and x >= 1 for x in (q, nu)):
            raise InvalidParams(f"F_q[u]/(u^nu) needs integers q, nu >= 1; "
                                f"got q={q!r}, nu={nu!r}")
        self.p, self.h = prime_power_split(q)
        self.q = self.coord_modulus = q
        self.nu = nu
        self.key = ("truncated", q, nu)
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

    def descriptor(self):
        return {"family": "truncated", "q": self.q, "nu": self.nu}

    def __repr__(self):
        return f"F_{self.q}[u]/(u^{self.nu})"


def make_ring(spec):
    """Build a ring from a ChainRingSpec or a JSON-style descriptor dict."""
    if isinstance(spec, dict):
        spec = ChainRingSpec(
            family=spec["family"],
            p=spec.get("p"), r=spec.get("r"), s=spec.get("s"),
            modulus=tuple(spec["modulus"]) if spec.get("modulus") else None,
            q=spec.get("q"), nu=spec.get("nu"),
            convention=spec.get("convention"))
    if spec.family == "galois":
        return GaloisRing(spec.p, spec.r, spec.s, spec.modulus,
                          spec.convention)
    if spec.family == "truncated":
        return TruncatedPolyRing(spec.q, spec.nu)
    raise ValueError(f"unknown ring family {spec.family!r}")


def zmod(m, convention=None):
    """Z_m for a prime power m."""
    p, r = prime_power_split(m)
    return GaloisRing(p, r, 1, convention=convention)


def residue_ring(ring):
    """The residue field of `ring` packaged as a nu = 1 chain ring."""
    if isinstance(ring, GaloisRing):
        red = tuple(c % ring.p for c in ring.modulus)
        return GaloisRing(ring.p, 1, ring.s, red)
    return TruncatedPolyRing(ring.q, 1)
