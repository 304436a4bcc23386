"""Convolutional codes over R[z] for a finite chain ring R.

An encoder is a polynomial matrix G(z) = sum G_i z^i; the code is the set
of gamma-linear combinations of its rows with polynomial digit vectors over
the transversal T.  Column distances are computed by exhaustive message
enumeration on the truncated sliding matrices, the first block narrowed to
the socle heads of G_0, one per diagonal exponent: (q^s - 1)/(q - 1) q^(jk)
messages for d_j with s heads; the MDP property is decided either through
those distances or through the minor criterion on the L-th sliding matrix.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import (CodeLoadError, CrossCheckFailed, InvalidParams,
                     NotDelayFree, NotReduced, NuNotDividingK,
                     PreconditionViolated, UnequalRowDegrees, ZeroRow,
                     check_budget)
from .linalg import (RingMatrix, _gamma_multiples_in_later_rows, _pivot_rows,
                     _shifted_rows, diagonal_exponents, gamma_dimension,
                     is_gamma_linearly_independent, module_solve_left)
from .rings import make_ring

DISTANCES = "distances"
MINORS = "minors"

DEFAULT_DISTANCE_BUDGET = 10 ** 7

# the most pivots the minors and superregularity walks recurse through, a
# frame each, leaving room under Python's default recursion limit of 1000
MAX_WALK_DEPTH = 256


class PolyMatrix:
    """Polynomial matrix as a list of coefficient matrices G_0..G_m, each
    k x n (an explicit k or n must agree with them)."""

    __slots__ = ("ring", "k", "n", "coeffs")

    def __init__(self, ring, coeffs, k=None, n=None):
        coeffs = list(coeffs)
        if any(k not in (None, c.rows) or n not in (None, c.cols)
               for c in coeffs):
            raise ValueError(f"k={k}, n={n} disagree with the coefficients")
        # every coefficient, zero ones too, before the trailing ones go
        first = coeffs[0] if coeffs else None
        if any(c.ring != ring or c.rows != first.rows or c.cols != first.cols
               for c in coeffs):
            raise ValueError("coefficient matrices disagree")
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        if coeffs:
            k, n = first.rows, first.cols
        elif k is None or n is None:
            raise ValueError("zero polynomial matrix needs explicit k, n")
        self.ring = ring
        self.k = k
        self.n = n
        self.coeffs = tuple(coeffs)

    @property
    def degree(self):
        """Degree m; -1 for the zero matrix."""
        return len(self.coeffs) - 1

    def coefficient(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return RingMatrix.zeros(self.ring, self.k, self.n)

    def row_degree(self, i):
        """Degree of row i, or None for a zero row."""
        z = self.ring.zero
        for d in range(len(self.coeffs) - 1, -1, -1):
            if any(e != z for e in self.coeffs[d].row(i)):
                return d
        return None

    def row_degrees(self):
        degs = [self.row_degree(i) for i in range(self.k)]
        if any(d is None for d in degs):
            raise ZeroRow("polynomial matrix has a zero row")
        return degs

    def reversed_coeffs(self):
        return PolyMatrix(self.ring, list(self.coeffs)[::-1],
                          k=self.k, n=self.n)

    def to_json(self):
        return {"coeffs": [m.to_json() for m in self.coeffs],
                "k": self.k, "n": self.n}

    @classmethod
    def from_json(cls, obj, ring):
        coeffs = [RingMatrix.from_json(m) for m in obj["coeffs"]]
        return cls(ring, coeffs, k=obj.get("k"), n=obj.get("n"))

    def __eq__(self, other):
        return (isinstance(other, PolyMatrix) and other.ring == self.ring
                and other.coeffs == self.coeffs and other.k == self.k
                and other.n == self.n)

    def __repr__(self):
        return f"PolyMatrix({self.k}x{self.n}, deg={self.degree})"


# ---------------------------------------------------------------------------
# encoder predicates

def leading_coefficient_matrix(G: PolyMatrix) -> RingMatrix:
    rows = []
    for i in range(G.k):
        d = G.row_degree(i)
        if d is None:
            raise ZeroRow(f"row {i} is zero")
        rows.append(G.coeffs[d].row(i))
    return RingMatrix._canonical(G.ring, rows, G.n)


def is_reduced(G: PolyMatrix):
    return is_gamma_linearly_independent(leading_coefficient_matrix(G))


def is_delay_free(G: PolyMatrix):
    return is_gamma_linearly_independent(G.coefficient(0))


def gamma_degree(G: PolyMatrix):
    """Sum of row degrees; only an invariant for reduced encoders."""
    if not is_reduced(G):
        raise NotReduced("gamma-degree requires a reduced encoder")
    return sum(G.row_degrees())


def _sliding_rows(blocks, j, zero_block):
    """Rows of the block upper-triangular Toeplitz matrix with blocks[c-b]
    at block (b, c); blocks are lists of rows, zero_block fills the rest."""
    blocks = blocks[:j + 1] + [zero_block] * (j + 1 - len(blocks))
    return [[e for c in range(j + 1)
             for e in (blocks[c - b] if c >= b else zero_block)[i]]
            for b in range(j + 1) for i in range(len(zero_block))]


def sliding_matrix(G: PolyMatrix, j: int) -> RingMatrix:
    """Block upper-triangular Toeplitz matrix of size (j+1)k x (j+1)n."""
    rows = _sliding_rows([c.data for c in G.coeffs], j,
                         [[G.ring.zero] * G.n] * G.k)
    return RingMatrix._canonical(G.ring, rows, (j + 1) * G.n)


def _residue_sliding_rows(G: PolyMatrix, j: int):
    """The rows of sliding_matrix(G, j) projected to the residue field,
    each block G_0..G_j projected once."""
    return _sliding_rows([c.residue_rows() for c in G.coeffs[:j + 1]], j,
                         [[0] * G.n] * G.k)


# ---------------------------------------------------------------------------
# bounded-degree polynomial linear algebra

def is_polynomial_gamma_basis(G: PolyMatrix):
    """Whether the rows of G(z) form a gamma-basis of their module: they
    are a gamma-generator sequence over T[z] and gamma-linearly independent.

    Generator sequence, decided first, by the walk of
    is_gamma_generator_sequence (_gamma_multiples_in_later_rows) on the
    rows of S.  From the last row up, gamma g_i passes when it is zero, a
    shifted later row, or in their row module (module_solve_left).  A
    pass is proven, and at degree 0 the answer is exact: by induction
    from the last row the R[z]-span of a polynomial gamma-generator
    sequence is its T[z]-span, since c(z) = t(z) + gamma a'(z) with t(z)
    in T[z] gives c g_j = t g_j + a' (gamma g_j), with gamma g_j in the
    span of the later rows.

    Independence.  The constant terms of those passes put gamma G_0[i] in
    the R-span of the rows of G_0 after i (a shifted row z^t g_j, t > 0,
    has none), so G_0 is a gamma-generator sequence.  It is then
    independent, i.e. G delay-free, exactly when the nu - e of its pivots
    sum to k (gamma_dimension), which decides G of degree 0.  A delay-free
    encoder is independent: in a relation sum a_i(z) g_i(z) = 0 with T-digit
    polynomials a_i not all zero, the coefficient of the lowest power z^s
    in any a_i is sum a_(i,s) G_0[i] = 0, a T-dependency of the rows of
    G_0.  Any other encoder is decided on the shifted rows z^t g_i,
    t <= top, cut from S_(top + deg G).  Over a field (nu = 1), T = F and
    top = (k - 1) deg G is exact.  If the rows have rank r < k, take r
    independent rows I, a row i not in I and r columns J with minor(I, J)
    != 0.  For every column c, the singular matrix on rows I + {i} and
    columns J + {c} expands along c to sum a_l(z) g_l(z)_c = 0, a_l the
    signed minors on J: so sum a_l g_l = 0 with a_i = +-minor(I, J) != 0
    and deg a_l <= r deg G <= top.

    At nu > 1, an encoder whose every entry has valuation >= nu - 1 is
    G = gamma^(nu-1) H, decided exactly as at nu = 1, with top = (k - 1)
    deg G.  Every gamma g_i is 0, so the rows are a gamma-generator
    sequence, and for T-digit polynomials a_i, sum a_i g_i = gamma^(nu-1)
    sum a_i h_i is 0 exactly when sum a-bar_i h-bar_i = 0 over F[z], H-bar
    the projection of H, with a-bar_i = 0 only for a_i = 0 (lift(project(t))
    = t on T).  So G, and each stack of its shifted rows, is independent
    exactly when H-bar, or its stack, is: the nu = 1 bound applies.  Any
    other encoder at nu > 1 is decided on top = deg G, which misses a
    dependency with higher-degree digits."""
    return _is_gamma_basis(G, gamma_dimension(G.coefficient(0)) == G.k)


def _is_gamma_basis(G: PolyMatrix, delay_free):
    """is_polynomial_gamma_basis(G) given whether the nu - e of the pivots
    of G_0 sum to k, which for a gamma-generator sequence G_0 is whether G
    is delay-free."""
    ring, m, low = G.ring, max(G.degree, 0), G.ring.nu - 1
    exact = not low or all(ring.valuation(x) >= low
                           for c in G.coeffs for row in c.data for x in row)
    top = (G.k - 1) * m if exact else m
    shifts = range(top + 1)
    S = sliding_matrix(G, top + m)
    # exact: every gamma * g_i is 0, so the walk would pass every row
    return (exact or _gamma_multiples_in_later_rows(S, G.k, shifts)) and (
        delay_free or m > 0 and is_gamma_linearly_independent(
            _shifted_rows(S, G.k, range(G.k), shifts)))


def is_free_code(G: PolyMatrix):
    """Whether the row module of G(z) over R[z] is free.

    Bounded-degree coefficient stacking: greedily keep the rows that are
    not in the R[z]-span of the rows kept before them; the module is free
    iff no gamma-power kills a nonzero combination of the kept rows.  The
    digit-polynomial degree bound deg(G) + 2 is not proven.  No library
    path calls this; acceptance criterion 13 asserts it (ROADMAP item 5)."""
    m = max(G.degree, 0)
    shifts = range(m + 3)
    S = sliding_matrix(G, 2 * m + 2)
    kept = []
    for i in range(G.k):
        if not module_solve_left(_shifted_rows(S, G.k, kept, shifts),
                                 S.data[i]):
            kept.append(i)
    exps = diagonal_exponents(_shifted_rows(S, G.k, kept, shifts))
    return len(exps) == len(kept) * len(shifts) and not any(exps)


# ---------------------------------------------------------------------------
# the code object

class ConvCode:
    """Convolutional code of a gamma-encoder, validated on construction."""

    def __init__(self, ring, n, encoder: PolyMatrix):
        if encoder.n != n or encoder.ring != ring:
            raise ValueError("encoder does not match ring or length")
        # the rows of [G_0 | G_1 | ... | G_m]; pivots in G_0's columns give
        # G_0's exponents (validation) and the socle heads of column_distance
        coeffs = encoder.coeffs or (encoder.coefficient(0),)
        self._rows = RingMatrix._canonical(ring, [
            [e for G_e in coeffs for e in G_e.row(a)]
            for a in range(encoder.k)], len(coeffs) * n)
        self._pivots = _pivot_rows(self._rows, width=n)[0]
        self.ring = ring
        self.n = n
        self.encoder = encoder
        self.k = encoder.k
        if not _is_gamma_basis(encoder, self.delay_free()):
            raise ValueError("encoder rows do not form a gamma-basis")
        self._reduced = None
        self._distances = {}  # j -> d_j, each walked once
        self._steps = None  # see _walk_rows
        self._reversed = None  # see _reversed_code

    def reduced(self):
        if self._reduced is None:
            self._reduced = is_reduced(self.encoder)
        return self._reduced

    def delay_free(self):
        # G_0 of a gamma-basis is a gamma-generator sequence
        # (is_polynomial_gamma_basis), so its gamma-dimension decides it
        return sum(self.ring.nu - e for _, e, _ in self._pivots) == self.k

    @property
    def delta(self):
        """Gamma-degree; defined through a reduced encoder."""
        if not self.reduced():
            raise NotReduced("gamma-degree requires a reduced encoder")
        return sum(self.encoder.row_degrees())

    def to_json(self):
        return {"ring": self.ring.descriptor(), "n": self.n,
                "encoder": self.encoder.to_json(),
                "claimed": {"k": self.k, "delta": self.delta}}

    @classmethod
    def from_json(cls, obj):
        try:
            code = cls(*read_code(obj))
        except (ValueError, TypeError) as exc:
            raise CodeLoadError(str(exc)) from exc
        claimed = obj.get("claimed")  # None or an object (read_code)
        if claimed is not None and claimed.get("delta") is not None:
            code._reduced = True  # read_code found its gamma-degree
        return code

    def __repr__(self):
        return f"ConvCode(n={self.n}, k={self.k}, ring={self.ring!r})"


def read_code(obj):
    """(ring, n, encoder) of a code JSON object whose claimed k and
    gamma-degree, where given, are the encoder's; not validated."""
    try:
        ring = make_ring(obj["ring"])
        n, encoder = obj["n"], PolyMatrix.from_json(obj["encoder"], ring)
    except (KeyError, ValueError, TypeError) as exc:
        raise CodeLoadError(str(exc)) from exc
    claimed = {} if obj.get("claimed") is None else obj["claimed"]
    if not isinstance(claimed, dict):
        raise CodeLoadError(f"claimed must be an object, not {claimed!r}")
    if encoder.n != n or claimed.get("k") not in (None, encoder.k):
        raise CodeLoadError(f"n={n}, claimed k={claimed.get('k')}, but the "
                            f"encoder is {encoder.k} x {encoder.n}")
    delta = claimed.get("delta")
    if delta is not None and delta != (got := gamma_degree(encoder)):
        raise CodeLoadError(f"claimed delta={delta} but encoder has "
                            f"gamma-degree {got}")
    return ring, n, encoder


# ---------------------------------------------------------------------------
# column distances

def column_distance(C: ConvCode, j, budget=DEFAULT_DISTANCE_BUDGET):
    """Minimum truncated weight of u S_j over the T-messages u with a
    nonzero first block; the budget counts all (q^k - 1) q^(jk) of them.

    Lemma: C_j, the codewords cut to j + 1 blocks, is an R-module; if v in
    C_j has v_0 != 0, of least valuation e, then gamma^(nu-1-e) v is in
    C_j with a nonzero socle first block (killed by gamma) and weight at
    most wt(v), and a unit multiple keeps the weight.  The s heads
    gamma^(nu-1-e) row, (row, e, _) in C._pivots, are R-combinations of
    the rows of G(z) whose first blocks are an F-basis of the socle of the
    row module of G_0; the walk puts T-digits on them, the first nonzero
    one 1 (a socle vector times t depends on t mod gamma only), and any on
    block rows 1..j of S_j.  Proof that it covers every v of the lemma up
    to a unit: the head combination H with v's first block leaves v - H in
    C_j with zero first block, so v - H = u S_j for a T-message u (the
    rows of S_j are a gamma-generator sequence) with u_0 G_0 = 0, hence
    u_0 = 0 (G_0 is delay-free) and v = H + (v - H) is visited.

    The code remembers each d_j, and the walk stops at the first weight
    that reaches the floor d_i, the largest one remembered for an i < j
    (1 if none): cutting a visited word to i + 1 blocks keeps its nonzero
    first block, so every weight of the walk is at least d_i.  The checks
    of j >= 0, k >= 1 and delay-freeness and the budget apply to every
    call."""
    if j < 0:
        raise InvalidParams(f"column distances need j >= 0; got j={j}")
    if not C.k:
        raise InvalidParams("the code is {0}: it has no column distances")
    if not C.delay_free():
        raise NotDelayFree("column distances need a delay-free encoder")
    # (q^k - 1) q^(jk) = q^((j+1)k) - q^(jk)
    check_budget(f"weight evaluations for column distance j={j}", C.ring.q,
                 (j + 1) * C.k, budget, minus=j * C.k)
    if j not in C._distances:
        floor = max((d for i, d in C._distances.items() if i < j), default=1)
        rows, s, length = _walk_rows(C, j)
        least = length + 1
        for weight in _normalised_weights(C.ring, rows, s, length):
            if weight < least:
                least = weight
                if least <= floor:
                    break
        C._distances[j] = least
    return C._distances[j]


def _walk_rows(C: ConvCode, j):
    """(steps, s, length) of column_distance's walk: the Gray steps of the
    s socle heads, then of block rows 1..j of S_j (row a of [G_0 | G_1 |
    ...] after b zero blocks in block row b), cut to the length (j+1) n of
    S_j.  A row's steps for t < q - 1 are the (coordinate, value, entry
    index) triples of the nonzero additive coordinates of (reps[t+1] -
    reps[t]) row, one list per distinct difference (under the digits
    transversal of Z_(p^r) every difference is 1).  The code keeps the
    s + k rows, the differences and the nonzero coordinates of t e for
    each distinct t and entry e from its first walk."""
    ring, n, s = C.ring, C.n, len(C._pivots)
    _, coords = ring.additive_coords()
    if C._steps is None:
        reps, mul = ring.representatives(), ring.mul
        rows = [[mul(ring.gamma_power(ring.nu - 1 - e), x) for x in row]
                for row, e, _ in C._pivots] + list(C._rows.data)
        diffs = list(map(ring.sub, reps[1:], reps))
        entries = {e for row in rows for e in row}
        C._steps = rows, diffs, {
            t: {e: [(i, x) for i, x in enumerate(coords(mul(t, e))) if x]
                for e in entries} for t in dict.fromkeys(diffs)}
    rows, diffs, nonzero = C._steps
    length, d = (j + 1) * n, len(coords(ring.zero))
    walk = []
    for b, row in [(0, row) for row in rows[:s]] + [
            (b, row) for b in range(1, j + 1) for row in rows[s:]]:
        cut = list(enumerate(row[:length - b * n], b * n))
        lists = {t: [(p * d + i, x, p) for p, e in cut for i, x in known[e]]
                 for t, known in nonzero.items()}
        walk.append([lists[t] for t in diffs])
    return walk, s, length


def _normalised_weights(ring, rows, s, length):
    """The weight of sum_r reps[u_r] row r, a word of `length` positions,
    for each T-message u whose first nonzero digit is 1, at r < s, rows[r]
    being the Gray steps of row r (_walk_rows): (q^s - 1)/(q - 1) q^(N-s)
    messages of N rows (all normalised ones of S_j for block row 0 as
    s = k heads).  Head r starts from its t = 0 step, the row itself, and
    the later digits run in reflected q-ary Gray order (Knuth, TAOCP 4A,
    7.2.1.1, Algorithm H), the last rows fastest: a digit moving up from t
    adds step t, one moving down to t subtracts it."""
    reps = ring.representatives()
    if reps[0] != ring.zero or reps[1] != ring.one:
        raise CrossCheckFailed("transversal does not start with 0 and 1")
    M, coords = ring.additive_coords()
    q, N, width = ring.q, len(rows), length * len(coords(ring.zero))
    vecs = rows[::-1]  # vecs[i]: row N-1-i, Gray digit i
    for r in range(s):
        m = N - 1 - r  # free digits 0..m-1 are the rows after r
        acc, nz = [0] * width, [0] * length
        for c, v, pos in vecs[m][0]:
            acc[c] = v
            nz[pos] += 1
        weight = sum(1 for x in nz if x)
        yield weight
        a, o, f = [0] * m, [1] * m, list(range(m + 1))
        while f[0] < m:
            i = f[0]
            f[0] = 0
            sign = o[i]
            t = a[i] = a[i] + sign
            step = vecs[i][t - 1 if sign > 0 else t]
            if t == 0 or t == q - 1:
                o[i] = -sign
                f[i] = f[i + 1]
                f[i + 1] = i + 1
            for c, v, pos in step:
                old = acc[c]
                new = acc[c] = (old + sign * v) % M
                if not old:
                    nz[pos] += 1
                    weight += nz[pos] == 1
                elif not new:
                    nz[pos] -= 1
                    weight -= not nz[pos]
            yield weight


DistanceBounds = namedtuple("DistanceBounds",
                            "L N per_j generalized_singleton")


def distance_profile(C: ConvCode, max_j, budget=DEFAULT_DISTANCE_BUDGET):
    """(d_0, ..., d_max_j), the column distances up to max_j >= 0."""
    if max_j < 0:
        raise InvalidParams(f"a distance profile needs max_j >= 0; "
                            f"got max_j={max_j}")
    return tuple(column_distance(C, j, budget=budget)
                 for j in range(max_j + 1))


# ---------------------------------------------------------------------------
# bounds

def generalized_singleton_bound(n, k, delta, nu):
    """Free-distance Singleton-type bound for an (n,k,delta) code."""
    if k < 1 or n < 1 or nu < 1 or delta < 0:
        raise InvalidParams(f"bad parameters n={n}, k={k}, delta={delta}")
    f = delta // k
    # n(f+1) - ceil((k(f+1) - delta)/nu) + 1, in integers
    return n * (f + 1) + (delta - k * (f + 1)) // nu + 1


def column_distance_bound(j, n, params, k):
    """Column-distance bound from the constant-block parameters
    (k_0..k_{nu-1}); out-of-range parameter indices count as zero."""
    nu = len(params)
    if k < 1 or n < 1 or nu < 1 or j < 0 or any(p < 0 for p in params):
        raise InvalidParams("bad column-distance-bound inputs")

    def kp(i):
        return params[i] if 0 <= i < nu else 0

    if j <= nu:
        head = sum(kp(i) for i in range(0, nu - j + 1))
        tail = sum(s * kp(nu - (s - 1)) for s in range(2, j + 1))
        return (j + 1) * (n - head) - tail + 1
    return (j + 1) * n - sum(params) - k - (j - nu) * params[0] + 1


def optimal_cd_bound(j, n, k, nu):
    """Column-distance bound under the distance-optimal parameter choice:
    (n - k/nu)(j + 1) + 1 for nu | k, column_distance_bound with the
    parameters (k/nu, 0, ..., 0); at j = 0 the block Singleton bound
    n - ceil(k/nu) + 1 for any k, and past j = 0 none for nu not dividing
    k (2(1 + z, 1) over Z4 has d_2 = 3 > 2)."""
    if k < 1 or nu < 1 or j < 0 or n < -(-k // nu):
        raise InvalidParams(f"bad parameters n={n}, k={k}, nu={nu}, j={j}")
    if j and k % nu:
        raise NuNotDividingK(f"no column-distance bound at j={j}: nu={nu} "
                             f"does not divide k={k}")
    return (n - -(-k // nu)) * (j + 1) + 1


def L_index(n, k, delta, nu):
    """Largest j whose column-distance bound stays within the Singleton
    bound; closed form available only when nu divides k and n > k/nu."""
    if k < 1 or nu < 1:
        raise InvalidParams(f"bad parameters k={k}, nu={nu}")
    if k % nu:
        raise NuNotDividingK(
            f"L has no implemented closed form when nu={nu} does not "
            f"divide k={k}")
    if n <= k // nu:
        raise InvalidParams(f"L needs n > k/nu; got n={n}, k={k}, nu={nu}")
    return delta // k + (delta // nu) // (n - k // nu)


def field_L_index(n, k, delta):
    """L for the residue-field code with the same (n,k,delta): L_index at
    nu = 1."""
    return L_index(n, k, delta, 1)


def embedding_preserves_L(n, k, delta):
    """Whether the ring L equals the field L for (n,k,delta): exactly when
    delta < n - k."""
    return delta < n - k


# the largest j whose column-distance bound distance_bounds lists
MAX_BOUNDS_J = 10 ** 4


def distance_bounds(n, k, delta, nu, max_j=None):
    L = L_index(n, k, delta, nu)
    N = k - (k // nu) * nu
    top = L if max_j is None else max_j
    if top > MAX_BOUNDS_J:
        raise InvalidParams(f"bounds are listed up to j = {MAX_BOUNDS_J}; "
                            f"got j = {top}")
    return DistanceBounds(
        L=L, N=N,
        per_j=tuple(optimal_cd_bound(j, n, k, nu) for j in range(top + 1)),
        generalized_singleton=generalized_singleton_bound(n, k, delta, nu))


# ---------------------------------------------------------------------------
# MDP predicates

def _check_mdp_preconditions(C: ConvCode):
    ring = C.ring
    if not C.delay_free():
        raise PreconditionViolated("encoder is not delay-free")
    if C.k % ring.nu:
        raise PreconditionViolated(
            f"nu={ring.nu} does not divide k={C.k}")
    k0 = C.k // ring.nu
    expected = (k0,) + (0,) * (ring.nu - 1)
    got = tuple(sum(e == i for _, e, _ in C._pivots) for i in range(ring.nu))
    if got != expected:
        raise PreconditionViolated(
            f"constant-block parameters {got} differ from {expected}")
    if not C.reduced():
        raise PreconditionViolated(
            "encoder is not reduced; gamma-degree undefined")
    return k0


def check_walk_depth(what, depth):
    """Refuse a walk through more than MAX_WALK_DEPTH pivots before it
    starts or its rows are built."""
    if depth > MAX_WALK_DEPTH:
        raise InvalidParams(f"{what} = {depth} is past the walk depth limit "
                            f"{MAX_WALK_DEPTH}")


def _minors_condition(field, rows, L, n, k0):
    """Every admissible column selection of a sliding-type matrix, given by
    its rows projected to the residue field, has gamma-linearly independent
    rows: the projected rows restricted to it have full column rank.  That
    residue-rank test holds for rows that are a gamma-generator sequence,
    nu times as many as the (L+1)k0 selected columns.

    S_L of a validated encoder is one.  Validation proves gamma g_i =
    sum_(j>i) a_j(z) g_j(z) with a_j in T[z] (is_polynomial_gamma_basis),
    so gamma times row (b, i) of S_L, z^b g_i cut at degree L, is
    sum a_(j,t) row(b+t, j): each of those rows comes later in block-row
    order or is cut to zero.  An identity between rows holds on every
    subset of the columns, so every selection is one too.

    One depth-first walk over the selections in lexicographic order shares
    the elimination of each prefix.  It starts from the projected rows that
    are not zero (the gamma-layers of a lifted code project to zero), in
    the field's walk codes.  A node holds the rows its prefix did not take
    as pivots, with the prefix's columns cleared; choosing column t takes
    the first of them that is nonzero at t as the pivot, clears t from the
    rest (walk_clear) and hands them to the child.  With no pivot the
    prefix is dependent, so every selection through it fails and the
    answer is False; a prefix with a pivot at every position passes.  At
    the last two with two rows left (as for field and lifted codes), two
    columns have rank 2 exactly when both are nonzero and their keys
    differ: y / x for (x, y) (walk_ratio), -1 (no code) if x = 0.  One
    sweep keeps the next-to-last keys and tests each last one.  With more
    rows left, the general step takes the last two positions too."""
    ratio, clear = field.walk_ratio, field.walk_clear
    need, total = (L + 1) * k0, (L + 1) * n
    # admissible choices for position c: t_(s*k0+1) > s*n (1-based)
    last_lo = (need - 1) // k0 * n if (need - 1) % k0 == 0 else 0

    def last_two(rows, lo):
        first_last = max(lo + 1, last_lo)  # after some next-to-last t' < t
        seen = set()
        r0, r1 = rows
        for t in range(lo, total):
            x, y = r0[t], r1[t]
            if x or y:
                key = ratio(x, y) if x else -1
                if t >= first_last and key in seen:
                    return False
                seen.add(key)
            elif t >= first_last or t < total - 1:
                return False
        return True

    def independent(rows, c, start):
        if c == need:
            return True
        lo = max(start, (c // k0) * n) if c % k0 == 0 else start
        if c == need - 2 and len(rows) == 2:
            return last_two(rows, lo)
        for t in range(lo, total - (need - c) + 1):
            for i, prow in enumerate(rows):
                if prow[t]:
                    break
            else:
                return False
            rest = rows[:i] + rows[i + 1:]
            # the rows before the pivot are zero at t
            clear(rest, i, prow, t)
            if not independent(rest, c + 1, t + 1):
                return False
        return True

    return independent([field.walk_codes(row) for row in rows if any(row)],
                       0, 0)


def is_mdp(C: ConvCode, method=MINORS, budget=DEFAULT_DISTANCE_BUDGET):
    ring = C.ring
    k0 = _check_mdp_preconditions(C)
    L = L_index(C.n, C.k, C.delta, ring.nu)
    if method == DISTANCES:
        return all(column_distance(C, j, budget=budget)
                   == optimal_cd_bound(j, C.n, C.k, ring.nu)
                   for j in range(L + 1))
    if method != MINORS:
        raise ValueError(f"unknown method {method!r}")
    check_walk_depth("(L + 1) k0", (L + 1) * k0)
    return _minors_condition(ring.residue,
                             _residue_sliding_rows(C.encoder, L), L, C.n, k0)


def reverse_encoder(C: ConvCode) -> PolyMatrix:
    """Coefficient-reversed encoder of the reverse code."""
    if not C.reduced():
        raise NotReduced("reverse encoder needs a reduced encoder")
    degs = C.encoder.row_degrees()
    if len(set(degs)) != 1:
        raise UnequalRowDegrees(f"row degrees {degs} are not all equal")
    return C.encoder.reversed_coeffs()


def _reversed_code(C: ConvCode) -> ConvCode:
    """The code of C's reversed encoder, built, so validated, once and kept
    on C."""
    if C._reversed is None:
        C._reversed = ConvCode(C.ring, C.n, reverse_encoder(C))
    return C._reversed


def is_reverse_mdp(C: ConvCode, method=MINORS,
                   budget=DEFAULT_DISTANCE_BUDGET):
    """C and the code of its reversed encoder are both MDP, each decided
    by is_mdp with `method`, preconditions included."""
    return (is_mdp(C, method=method, budget=budget)
            and is_mdp(_reversed_code(C), method=method, budget=budget))
