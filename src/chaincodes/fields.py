"""Finite field arithmetic on plain integer codes.

A field element is an int.  For a prime field it is the value in [0, p).
For an extension field F_{p^h} it encodes the polynomial coordinates
(c_0, ..., c_{h-1}) as sum(c_i * p**i); multiplication goes through
discrete log/antilog tables and addition through a Zech logarithm table,
so all hot-loop operations are table lookups on ints.  The tables are
built on the first lookup, once per process for each field `get_field`
hands out; constructing a field only validates its modulus and finds a
generator.
"""

from __future__ import annotations

from operator import mul

from .errors import InvalidParams


def prime_power_split(n):
    """(p, e) with n = p**e, or raise InvalidParams."""
    factors = factorize(n)
    if len(factors) != 1:
        raise InvalidParams(f"{n} is not a prime power")
    p, e = factors[0], 0
    while n > 1:
        n //= p
        e += 1
    return p, e


def factorize(n):
    """Distinct prime factors of n by trial division, which is slow for
    a large prime factor; nothing bounds n yet (ROADMAP item 13)."""
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


# ---------------------------------------------------------------------------


class _Field:
    """Shared behaviour: the elements are the codes 0..q-1, and a field is
    identified by its `key`.  Every elimination (walk_clear) runs on walk
    codes: zero is 0, and a nonzero code is itself (ExtField: 1 + log)."""

    zero = 0
    one = 1

    def elements(self):
        return range(self.q)

    def walk_codes(self, row):
        return row

    plain_codes = walk_codes  # the codes of walk_codes(row) = row

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

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def walk_ratio(self, x, y):  # y / x, x != 0
        return y * pow(x, -1, self.p) % self.p

    def walk_clear(self, rows, start, prow, c):
        """Clear column c of rows[start:] with the pivot row `prow` (prow[c]
        != 0): a row nonzero at c is replaced by zeros up to c and its
        updated entries after c, read from neither row before c; the others
        stay.  Row lists are replaced, never changed."""
        p, f0 = self.p, None
        for i in range(start, len(rows)):
            x = rows[i][c]
            if x:
                if f0 is None:
                    f0 = p - pow(prow[c], -1, p)
                    head, tail = [0] * (c + 1), prow[c + 1:]
                f = x * f0
                rows[i] = head + [(a + f * b) % p
                                  for a, b in zip(rows[i][c + 1:], tail)]

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


class _UnbuiltTable:
    """Stand-in for one of an ExtField's tables until the first lookup,
    which builds all three and puts the real lists in their place."""

    __slots__ = ("field", "name")

    def __init__(self, field, name):
        self.field = field
        self.name = name

    def __getitem__(self, i):
        table = getattr(self.field, self.name)
        if table is self:
            self.field._build_tables()
            table = getattr(self.field, self.name)
        return table[i]


class ExtField(_Field):
    """F_{p^h} via log/antilog and Zech logarithm tables, built on the first
    lookup; from then on `_exp`, `_log` and `_zech` are plain lists."""

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
        mod, n = list(modulus), self.q - 1
        facs = factorize(n)
        for code in range(p, self.q):  # start at the class of z
            gen = _digits(code, p, h)
            if all(_poly_trim(_poly_powmod(gen, n // f, mod, p)) != [1]
                   for f in facs):
                break
        else:
            raise AssertionError("no multiplicative generator found")
        self._gen = code
        self._exp = _UnbuiltTable(self, "_exp")
        self._log = _UnbuiltTable(self, "_log")
        self._zech = _UnbuiltTable(self, "_zech")

    def _build_tables(self):
        p, h, q = self.p, self.h, self.q
        mod = list(self.modulus)
        gen = _digits(self._gen, p, h)
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
        # -1 = g^((q-1)/2) for odd p, and -a = a in characteristic 2
        if a == 0 or self.p == 2:
            return a
        n = self.q - 1
        return self._exp[(self._log[a] + n // 2) % n]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._exp[(-self._log[a]) % (self.q - 1)]

    def walk_codes(self, row):  # 0, and 1 + log x in [1, q - 1] for x != 0
        log = self._log
        return [x and 1 + log[x] for x in row]

    def plain_codes(self, row):  # the codes of walk_codes(row) = row
        exp = self._exp
        return [w and exp[w - 1] for w in row]

    def walk_ratio(self, x, y):  # y / x, x != 0: a log difference
        return y and (y - x) % (self.q - 1) + 1

    def walk_clear(self, rows, start, prow, c):
        """Clear column c as PrimeField does, on walk codes: a row with x at c
        gains f * prow, log f = log x - log prow[c] + log(-1), and a + f b
        for a, b != 0 is a (1 + f b / a), one lookup in its Zech list."""
        zech, n = self._zech, self.q - 1
        lp = prow[c] - (n // 2 if self.p != 2 else 0)  # -1 = g^(n/2)
        head, tail = [0] * (c + 1), prow[c + 1:]
        for i in range(start, len(rows)):
            x = rows[i][c]
            if x:
                lf, out = x - lp, head[:]
                append = out.append
                for a, b in zip(rows[i][c + 1:], tail):
                    if not b:
                        append(a)
                    elif a:
                        z = zech[(lf + b - a) % n]
                        append(0 if z < 0 else (a + z - 1) % n + 1)
                    else:
                        append((lf + b - 1) % n + 1)
                rows[i] = out

    def pow(self, a, e):
        if a == 0:
            return 0 if e else 1
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def coords(self, a):
        return tuple(_digits(a, self.p, self.h))

    def from_coords(self, coords):  # one Horner pass from the top digit
        p, acc = self.p, 0
        for c in reversed(coords):
            acc = acc * p + c % p
        return acc

    def __repr__(self):
        return f"F_{self.p}^{self.h}"


_FIELD_CACHE = {}


def get_field(p, h=1, modulus=None):
    """Shared field instances so the big Zech tables are built at most once
    per process, on the first lookup; a ring that never computes in its
    residue field never builds them.  The cache is keyed on the resolved
    modulus, so the default and an explicit copy of it share one field.
    A p that is not prime, or an h that is not an integer >= 1, is
    rejected."""
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
