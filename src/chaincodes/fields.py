"""Finite field arithmetic on plain integer codes.

A field element is an int.  For a prime field it is the value in [0, p).
For an extension field F_{p^h} it encodes the polynomial coordinates
(c_0, ..., c_{h-1}) as sum(c_i * p**i); multiplication goes through
discrete log/antilog tables and addition through a Zech logarithm table,
so all hot-loop operations are table lookups on ints.
"""

from __future__ import annotations

from functools import reduce
from operator import mul

from .errors import InvalidParams


def prime_power_split(n):
    """(p, e) with n = p**e, or raise ValueError."""
    factors = factorize(n)
    if len(factors) != 1:
        raise ValueError("not a prime power")
    p, e = factors[0], 0
    while n > 1:
        n //= p
        e += 1
    return p, e


def factorize(n):
    """Distinct prime factors of n (trial division; n stays small here)."""
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return factors


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (coefficient lists, little-endian)

def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mulmod(a, b, mod, p):
    res = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    return _poly_divmod(res, mod, p)


def _poly_divmod(a, mod, p):
    # remainder of a modulo the monic polynomial mod
    a = _poly_trim(list(a))
    deg = len(mod) - 1
    inv_lead = pow(mod[-1], p - 2, p)
    while a and len(a) - 1 >= deg:
        shift = len(a) - 1 - deg
        coef = (a[-1] * inv_lead) % p
        for i, mi in enumerate(mod):
            a[shift + i] = (a[shift + i] - coef * mi) % p
        _poly_trim(a)
    return a


def _poly_powmod(a, e, mod, p):
    result = [1]
    base = _poly_divmod(a, mod, p)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _poly_sub(a, b, p):
    n = max(len(a), len(b))
    return _poly_trim([((a[i] if i < len(a) else 0)
                        - (b[i] if i < len(b) else 0)) % p
                       for i in range(n)])


def _poly_gcd(a, b, p):
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        inv = pow(b[-1], p - 2, p)
        bm = [(c * inv) % p for c in b]
        a = _poly_trim(_poly_divmod(a, bm, p))
        a, b = b, a
    return a


def is_irreducible(coeffs, p):
    """Irreducibility of a polynomial over F_p (coeffs little-endian)."""
    coeffs = _poly_trim(list(coeffs))
    n = len(coeffs) - 1
    if n < 1:
        return False
    if n == 1:
        return True
    x = [0, 1]
    # x^(p^n) == x mod f
    xp = _poly_powmod(x, p ** n, coeffs, p)
    if _poly_sub(xp, x, p):
        return False
    for d in factorize(n):
        xq = _poly_powmod(x, p ** (n // d), coeffs, p)
        g = _poly_sub(xq, x, p)
        if len(_poly_gcd(coeffs, g, p)) - 1 != 0:
            return False
    return True


def default_modulus(p, h):
    """Lexicographically smallest monic irreducible of degree h over F_p."""
    if h == 1:
        return (0, 1)
    for code in range(p ** h):
        coeffs = _digits(code, p, h) + [1]
        if is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise AssertionError("no irreducible polynomial found")


def _digits(code, p, h):
    out = []
    for _ in range(h):
        out.append(code % p)
        code //= p
    return out


def _encode(digits, p):
    return reduce(lambda acc, d: acc * p + d, reversed(digits), 0)


# ---------------------------------------------------------------------------


class _Field:
    """Shared behaviour: the elements are the codes 0..q-1, and a field is
    identified by its `key`."""

    zero = 0
    one = 1

    def elements(self):
        return range(self.q)

    def __eq__(self, other):
        return isinstance(other, _Field) and other.key == self.key

    def __hash__(self):
        return hash(self.key)


class PrimeField(_Field):
    """F_p with elements 0..p-1."""

    def __init__(self, p):
        self.p = p
        self.h = 1
        self.q = p
        self.modulus = (0, 1)
        self.key = ("PrimeField", p)

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def axpy(self, xs, f, ys):
        """[x + f*y for x, y in zip(xs, ys)]."""
        p = self.p
        return [(x + f * y) % p for x, y in zip(xs, ys)]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def pow(self, a, e):
        return pow(a, e, self.p)

    def generator(self):
        facs = factorize(self.p - 1) if self.p > 2 else []
        for g in range(1, self.p):
            if all(pow(g, (self.p - 1) // f, self.p) != 1 for f in facs):
                return g
        raise AssertionError("no generator found")

    def coords(self, a):
        return (a,)

    def from_coords(self, coords):
        return coords[0] % self.p

    def __repr__(self):
        return f"F_{self.p}"


class ExtField(_Field):
    """F_{p^h} via log/antilog and Zech logarithm tables."""

    def __init__(self, p, h, modulus=None):
        if not isinstance(h, int) or h < 2:
            raise InvalidParams(f"F_(p^h) tables need an integer h >= 2; "
                                f"got h={h!r}")
        self.p = p
        self.h = h
        self.q = p ** h
        if modulus is None:
            modulus = default_modulus(p, h)
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != h + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree h")
        if not is_irreducible(list(modulus), p):
            raise ValueError("modulus reducible over F_p")
        self.modulus = modulus
        self.key = ("ExtField", p, h, modulus)
        self._build_tables()

    def _build_tables(self):
        p, h, q = self.p, self.h, self.q
        mod = list(self.modulus)
        facs = factorize(q - 1)
        for code in range(p, q):  # start at the class of z
            gen = _digits(code, p, h)
            if all(_poly_trim(_poly_powmod(gen, (q - 1) // f, mod, p)) != [1]
                   for f in facs):
                break
        else:
            raise AssertionError("no multiplicative generator found")
        # one step multiplies the digit vector by the generator: row i holds
        # digit i of gen * z^j mod the modulus, for j = 0..h-1
        cols = [_poly_mulmod(gen, [0] * j + [1], mod, p) for j in range(h)]
        rows = list(zip(*(c + [0] * (h - len(c)) for c in cols)))
        powers = [p ** i for i in range(h)]
        exp = [0] * (q - 1)
        log = [0] * q  # log[0] unused
        cur = [1] + [0] * (h - 1)
        for i in range(q - 1):
            exp[i] = e = sum(map(mul, cur, powers))
            log[e] = i
            cur = [sum(map(mul, cur, row)) % p for row in rows]
        # zech[x] = log(1 + g^x); -1 marks 1 + g^x == 0.  Adding 1 changes
        # only the constant digit, which wraps from p - 1 to 0.
        top = p - 1
        self._zech = [log[e + 1] if e % p != top
                      else log[e - top] if e != top else -1 for e in exp]
        self._exp = exp
        self._log = log
        self._gen = code
        self._neg_one = 1 if p == 2 else exp[(q - 1) // 2]

    def generator(self):
        return self._gen

    def add(self, a, b):
        if a == 0:
            return b
        if b == 0:
            return a
        la, lb = self._log[a], self._log[b]
        z = self._zech[(lb - la) % (self.q - 1)]
        if z < 0:
            return 0
        return self._exp[(la + z) % (self.q - 1)]

    def neg(self, a):
        return self.mul(a, self._neg_one)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def axpy(self, xs, f, ys):
        """[x + f*y for x, y in zip(xs, ys)], with log f looked up once."""
        if f == 0:
            return list(xs)
        log, exp, zech, n = self._log, self._exp, self._zech, self.q - 1
        lf = log[f]
        out = []
        for x, y in zip(xs, ys):
            if y and x:
                z = zech[(lf + log[y] - log[x]) % n]
                x = 0 if z < 0 else exp[(log[x] + z) % n]
            elif y:
                x = exp[(lf + log[y]) % n]
            out.append(x)
        return out

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._exp[(-self._log[a]) % (self.q - 1)]

    def pow(self, a, e):
        if a == 0:
            return 0 if e else 1
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def coords(self, a):
        return tuple(_digits(a, self.p, self.h))

    def from_coords(self, coords):
        return _encode([c % self.p for c in coords], self.p)

    def __repr__(self):
        return f"F_{self.p}^{self.h}"


_FIELD_CACHE = {}


def get_field(p, h=1, modulus=None):
    """Shared field instances so the big Zech tables are built once; the
    cache is keyed on the resolved modulus, so the default and an explicit
    copy of it share one field.  A p that is not prime, or an h that is
    not an integer >= 1, is rejected."""
    if factorize(p) != [p]:
        raise InvalidParams(f"F_(p^h) needs a prime p; got p={p}")
    if not isinstance(h, int) or h < 1:
        raise InvalidParams(f"F_(p^h) needs an integer h >= 1; got h={h!r}")
    if h == 1:
        modulus = (0, 1)
    elif modulus is None:
        modulus = default_modulus(p, h)
    key = (p, h, tuple(c % p for c in modulus))
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = PrimeField(p) if h == 1 else ExtField(p, h, modulus)
    return _FIELD_CACHE[key]
