"""Convolutional codes over R[z] for a finite chain ring R.

An encoder is a polynomial matrix G(z) = sum G_i z^i; the code is the set
of gamma-linear combinations of its rows with polynomial digit vectors over
the transversal T.  Column distances are computed by exhaustive message
enumeration on the truncated sliding matrices; the MDP property is decided
either through those distances or through the minor (column-selection)
criterion on the L-th sliding matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil

from .errors import (BudgetExceeded, CodeLoadError, CrossCheckFailed,
                     InvalidParams, NotDelayFree, NotReduced, NuNotDividingK,
                     PreconditionViolated, UnequalRowDegrees, ZeroRow)
from .linalg import (RingMatrix, diagonal_exponents, field_clear_column,
                     gamma_span_solve, is_gamma_generator_sequence,
                     is_gamma_linearly_independent, module_solve_left)
from .rings import make_ring

DISTANCES = "distances"
MINORS = "minors"

DEFAULT_DISTANCE_BUDGET = 10 ** 7
GENSEQ_ASSERT_LIMIT = 10 ** 4


class PolyMatrix:
    """Polynomial matrix as a list of coefficient matrices G_0..G_m."""

    __slots__ = ("ring", "k", "n", "coeffs")

    def __init__(self, ring, coeffs, k=None, n=None):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        if coeffs:
            k, n = coeffs[0].rows, coeffs[0].cols
            for c in coeffs:
                if c.rows != k or c.cols != n or c.ring != ring:
                    raise ValueError("coefficient matrices disagree")
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

    def scalar_mul(self, c):
        return PolyMatrix(self.ring, [m.scalar_mul(c) for m in self.coeffs],
                          k=self.k, n=self.n)

    def stack(self, other):
        m = max(len(self.coeffs), len(other.coeffs))
        return PolyMatrix(self.ring,
                          [self.coefficient(i).stack(other.coefficient(i))
                           for i in range(m)] or [],
                          k=self.k + other.k, n=self.n)

    def reversed_coeffs(self):
        return PolyMatrix(self.ring, list(self.coeffs)[::-1],
                          k=self.k, n=self.n)

    def to_json(self):
        return {"coeffs": [m.to_json() for m in self.coeffs],
                "k": self.k, "n": self.n}

    @classmethod
    def from_json(cls, obj, ring):
        coeffs = [RingMatrix.from_json(m, ring=ring) for m in obj["coeffs"]]
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


def is_reduced(G: PolyMatrix, budget=None):
    kwargs = {} if budget is None else {"budget": budget}
    return is_gamma_linearly_independent(leading_coefficient_matrix(G),
                                         **kwargs)


def is_delay_free(G: PolyMatrix, budget=None):
    kwargs = {} if budget is None else {"budget": budget}
    return is_gamma_linearly_independent(G.coefficient(0), **kwargs)


def gamma_degree(G: PolyMatrix):
    """Sum of row degrees; only an invariant for reduced encoders."""
    if not is_reduced(G):
        raise NotReduced("gamma-degree requires a reduced encoder")
    return sum(G.row_degrees())


def sliding_matrix(G: PolyMatrix, j: int) -> RingMatrix:
    """Block upper-triangular Toeplitz matrix of size (j+1)k x (j+1)n."""
    ring = G.ring
    k, n = G.k, G.n
    zero_block = RingMatrix.zeros(ring, k, n)
    rows = []
    for br in range(j + 1):
        blocks = [G.coefficient(bc - br) if bc >= br else zero_block
                  for bc in range(j + 1)]
        for i in range(k):
            rows.append([e for b in blocks for e in b.row(i)])
    return RingMatrix._canonical(ring, rows, (j + 1) * n)


# ---------------------------------------------------------------------------
# coefficient-expansion helpers (bounded-degree polynomial linear algebra)

def _expand_row(G: PolyMatrix, i, shift, width):
    """Coefficient vector of z^shift * row_i(z), width blocks of n."""
    ring = G.ring
    out = []
    for d in range(width):
        if d >= shift:
            out.extend(G.coefficient(d - shift).row(i))
        else:
            out.extend([ring.zero] * G.n)
    return out


def _expansion_matrix(G: PolyMatrix, row_idx, shifts, width):
    rows = [_expand_row(G, i, t, width) for i in row_idx for t in shifts]
    return RingMatrix._canonical(G.ring, rows, width * G.n)


def is_polynomial_gamma_basis(G: PolyMatrix, budget=None):
    """Whether the rows of G(z) form a gamma-basis of the module they span.

    Decided on the coefficient expansion with digit polynomials of degree
    up to deg(G): shifted copies of the rows are stacked into a block
    matrix and the block-level oracle machinery is applied.  Dependencies
    requiring higher-degree digits are not detected (documented bound)."""
    ring = G.ring
    m = max(G.degree, 0)
    width = 2 * m + 1
    shifts = range(m + 1)
    kwargs = {} if budget is None else {"budget": budget}
    stacked = _expansion_matrix(G, range(G.k), shifts, width)
    if not is_gamma_linearly_independent(stacked, **kwargs):
        return False
    # gamma-generator-sequence at the polynomial level
    gamma = ring.gamma
    for i in range(G.k):
        target = [ring.mul(gamma, e) for e in _expand_row(G, i, 0, width)]
        if i == G.k - 1:
            if any(e != ring.zero for e in target):
                return False
            continue
        tail = _expansion_matrix(G, range(i + 1, G.k), shifts, width)
        if gamma_span_solve(tail, target, **kwargs) is None:
            return False
    return True


def is_free_code(G: PolyMatrix, degree_slack=2):
    """Whether the row module of G(z) over R[z] is free.

    Certified through bounded-degree coefficient stacking: greedily select
    rows that are R[z]-linearly independent of the earlier selection; the
    module is free iff the remaining rows lie in the R[z]-span of the
    selection.  Digit-polynomial degrees are bounded by deg(G) +
    degree_slack."""
    ring = G.ring
    m = max(G.degree, 0)
    bound = m + degree_slack
    width = m + bound + 1
    shifts = range(bound + 1)
    kept = []
    deferred = []
    for i in range(G.k):
        row = _expand_row(G, i, 0, width)
        if all(e == ring.zero for e in row):
            continue
        if not kept:
            kept.append(i)
            continue
        A = _expansion_matrix(G, kept, shifts, width)
        if module_solve_left(A, row):
            deferred.append(i)
            continue
        # row is independent from the kept ones; check it is torsion-free
        kept.append(i)
    if not kept:
        return True  # zero module is free
    A = _expansion_matrix(G, kept, shifts, width)
    # the kept rows must be R[z]-independent: no gamma-power kills them
    exps = diagonal_exponents(A)
    expected = len(kept) * len(shifts)
    if len(exps) != expected or any(e != 0 for e in exps):
        return False
    for i in deferred:
        if not module_solve_left(A, _expand_row(G, i, 0, width)):
            return False
    return True


# ---------------------------------------------------------------------------
# the code object

class ConvCode:
    """Convolutional code given by a gamma-encoder."""

    def __init__(self, ring, n, encoder: PolyMatrix, validate=True,
                 budget=None):
        if encoder.n != n or encoder.ring != ring:
            raise ValueError("encoder does not match ring or length")
        if validate and not is_polynomial_gamma_basis(encoder, budget=budget):
            raise ValueError("encoder rows do not form a gamma-basis")
        self.ring = ring
        self.n = n
        self.encoder = encoder
        self.k = encoder.k
        self._reduced = None
        self._delay_free = None
        # None until decided; validation witnesses it
        self._gamma_basis = True if validate else None
        self._distances = {}  # j -> d_j, each walked once
        self._multiples = None  # see _normalised_weights
        self._reversed = None  # see is_reverse_mdp

    def reduced(self):
        if self._reduced is None:
            self._reduced = is_reduced(self.encoder)
        return self._reduced

    def delay_free(self):
        if self._delay_free is None:
            self._delay_free = is_delay_free(self.encoder)
        return self._delay_free

    def gamma_basis(self):
        """Whether the encoder rows form a gamma-basis."""
        if self._gamma_basis is None:
            self._gamma_basis = is_polynomial_gamma_basis(self.encoder)
        return self._gamma_basis

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
    def from_json(cls, obj, validate=True):
        try:
            ring = make_ring(obj["ring"])
            encoder = PolyMatrix.from_json(obj["encoder"], ring)
            code = cls(ring, obj["n"], encoder, validate=validate)
        except (KeyError, ValueError, TypeError) as exc:
            raise CodeLoadError(str(exc)) from exc
        claimed = obj.get("claimed")
        if claimed is not None:
            if claimed.get("k") is not None and claimed["k"] != code.k:
                raise CodeLoadError(
                    f"claimed k={claimed['k']} but encoder has k={code.k}")
            if claimed.get("delta") is not None:
                if claimed["delta"] != code.delta:
                    raise CodeLoadError(
                        f"claimed delta={claimed['delta']} but encoder "
                        f"has gamma-degree {code.delta}")
        return code

    def __repr__(self):
        return f"ConvCode(n={self.n}, k={self.k}, ring={self.ring!r})"


# ---------------------------------------------------------------------------
# column distances

def column_distance(C: ConvCode, j, budget=DEFAULT_DISTANCE_BUDGET):
    """Minimum truncated weight of u S_j over the T-messages u with a
    nonzero first block; the budget counts all (q^k - 1) q^(jk) of them.

    Only messages whose first nonzero digit is the representative 1 are
    visited, which keeps the minimum.  If u has first nonzero digit tau at
    r < k, tau^-1 u S_j has the same weight; its coefficients tau^-1 u are
    zero before r and 1 at r.  The rows of S_j in block-row order are a
    gamma-generator sequence (the encoder is a gamma-basis), so writing
    each coefficient from r on as t + gamma a' with t in T and pushing a'
    forward through gamma times its row gives a T-message with the same
    codeword, zero before r and 1 at r: carries only move forward, and 1
    is in T for the Teichmueller and the digit transversal alike.  An
    encoder that ConvCode did not validate is checked for the gamma-basis
    property once, before its first distance.  The code remembers each
    d_j; the checks and the budget apply to every call."""
    if not C.delay_free():
        raise NotDelayFree("column distances need a delay-free encoder")
    q = C.ring.q
    count = (q ** C.k - 1) * q ** (j * C.k)
    if count > budget:
        raise BudgetExceeded(
            f"column distance j={j} needs {count} weight evaluations",
            requested=count, allowed=budget)
    if not C.gamma_basis():
        raise PreconditionViolated(
            "column distances need encoder rows that form a gamma-basis")
    if j not in C._distances:
        C._distances[j] = min(_normalised_weights(C, j))
    return C._distances[j]


def _normalised_weights(C: ConvCode, j):
    """The weight of u S_j for each T-message u whose first nonzero digit
    is 1, at r < k.  For each r the later digits run in reflected q-ary Gray
    order (Knuth, TAOCP 4A, 7.2.1.1, Algorithm H), the sparse last rows
    fastest; each step adds one sparse (t' - t) times a row in additive
    coordinates and updates per-position counts of nonzero coordinates.
    Row a of block row b of S_j is row a of G_0..G_(j-b) after b zero
    blocks, so the coordinates of reps[t] times row a of every G_e are
    built once per code and shared by every j."""
    ring, k = C.ring, C.k
    reps = ring.representatives()
    if reps[0] != ring.zero or reps[1] != ring.one:
        raise CrossCheckFailed("transversal does not start with 0 and 1")
    q, N = ring.q, (j + 1) * k
    M, coords = ring.additive_coords()
    d = len(coords(ring.zero))
    if C._multiples is None:
        # [a][t]: coordinates of reps[t] times row a of G_0, G_1, ...
        C._multiples = [[[c for G_e in C.encoder.coeffs for e in G_e.row(a)
                          for c in coords(ring.mul(t, e))] for t in reps]
                        for a in range(k)]
    nd = C.n * d
    width = (j + 1) * nd
    # vecs[i][t]: coordinates of reps[t] times row N-1-i, Gray digit i
    vecs = [[([0] * (b * nd) + m + [0] * width)[:width]
             for m in C._multiples[a]]
            for b, a in (divmod(r, k) for r in range(N - 1, -1, -1))]

    def delta(new, old):
        return [(c, (x - y) % M, c // d)
                for c, (x, y) in enumerate(zip(new, old)) if x != y]

    up = [[delta(v[t + 1], v[t]) for t in range(q - 1)] for v in vecs]
    down = [[delta(v[t], v[t + 1]) for t in range(q - 1)] for v in vecs]
    for r in range(C.k):
        m = N - 1 - r  # free digits 0..m-1 are the rows after r
        acc = list(vecs[m][1])
        nz = [sum(1 for x in acc[p:p + d] if x) for p in range(0, len(acc), d)]
        weight = sum(1 for x in nz if x)
        yield weight
        a, o, f = [0] * m, [1] * m, list(range(m + 1))
        while f[0] < m:
            i = f[0]
            f[0] = 0
            t = a[i] = a[i] + o[i]
            step = up[i][t - 1] if o[i] > 0 else down[i][t]
            if t == 0 or t == q - 1:
                o[i] = -o[i]
                f[i] = f[i + 1]
                f[i + 1] = i + 1
            for c, v, pos in step:
                old = acc[c]
                new = acc[c] = (old + v) % M
                if not old:
                    nz[pos] += 1
                    weight += nz[pos] == 1
                elif not new:
                    nz[pos] -= 1
                    weight -= not nz[pos]
            yield weight


@dataclass(frozen=True)
class DistanceBounds:
    L: int
    N: int
    per_j: tuple
    generalized_singleton: int


def distance_profile(C: ConvCode, max_j, budget=DEFAULT_DISTANCE_BUDGET):
    """(d_0, ..., d_max_j), the column distances up to max_j."""
    return tuple(column_distance(C, j, budget=budget)
                 for j in range(max_j + 1))


# ---------------------------------------------------------------------------
# bounds

def generalized_singleton_bound(n, k, delta, nu):
    """Free-distance Singleton-type bound for an (n,k,delta) code."""
    if k < 1 or n < 1 or nu < 1 or delta < 0:
        raise InvalidParams(f"bad parameters n={n}, k={k}, delta={delta}")
    f = delta // k
    frac = Fraction(k, nu) * (f + 1) - Fraction(delta, nu)
    return n * (f + 1) - ceil(frac) + 1


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
    """Column-distance bound under the distance-optimal parameter choice."""
    if k < 1 or nu < 1 or j < 0 or n < ceil(k / nu):
        raise InvalidParams(f"bad parameters n={n}, k={k}, nu={nu}, j={j}")
    big = ceil(k / nu)
    small = k // nu
    N = k - small * nu
    if j <= N:
        return (n - big) * (j + 1) + 1
    return (n - big) * (j + 1) - (big - small) * (N + 1) + 1


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
    """L for the residue-field code with the same (n,k,delta)."""
    if k < 1 or n <= k:
        raise InvalidParams(f"bad field parameters n={n}, k={k}")
    return delta // k + delta // (n - k)


def embedding_preserves_L(n, k, delta):
    """Whether the ring L equals the field L for (n,k,delta): exactly when
    delta < n - k."""
    return delta < n - k


def distance_bounds(n, k, delta, nu, max_j=None):
    L = L_index(n, k, delta, nu)
    N = k - (k // nu) * nu
    top = L if max_j is None else max_j
    return DistanceBounds(
        L=L, N=N,
        per_j=tuple(optimal_cd_bound(j, n, k, nu) for j in range(top + 1)),
        generalized_singleton=generalized_singleton_bound(n, k, delta, nu))


# ---------------------------------------------------------------------------
# MDP predicates

def _admissible_column_subsets(L, n, k0):
    """0-based column index tuples t_1 < ... < t_{(L+1)k0} of the L-th
    sliding matrix with t_{s*k0+1} > s*n (1-based), lexicographic."""
    total = (L + 1) * n
    need = (L + 1) * k0

    def rec(start, chosen):
        c = len(chosen)
        if c == need:
            yield tuple(chosen)
            return
        lo = start
        if c % k0 == 0:
            s = c // k0
            if 1 <= s <= L:
                lo = max(lo, s * n)
        for t in range(lo, total - (need - c) + 1):
            chosen.append(t)
            yield from rec(t + 1, chosen)
            chosen.pop()

    yield from rec(0, [])


def _check_mdp_preconditions(C: ConvCode):
    from .linalg import parameters_of
    ring = C.ring
    if not C.delay_free():
        raise PreconditionViolated("encoder is not delay-free")
    if C.k % ring.nu:
        raise PreconditionViolated(
            f"nu={ring.nu} does not divide k={C.k}")
    k0 = C.k // ring.nu
    expected = (k0,) + (0,) * (ring.nu - 1)
    got = parameters_of(C.encoder.coefficient(0))
    if got != expected:
        raise PreconditionViolated(
            f"constant-block parameters {got} differ from {expected}")
    if not C.reduced():
        raise PreconditionViolated(
            "encoder is not reduced; gamma-degree undefined")
    return k0


def _minors_condition(S: RingMatrix, L, n, k0, assert_genseq=True):
    """Every admissible column selection of the sliding-type matrix S has
    gamma-linearly independent rows; decided by the residue-rank fast path
    (valid because the selections are gamma-generator sequences and the
    row count is nu times the column count): the projected rows restricted
    to the selection have full column rank.

    One depth-first walk over the selections in lexicographic order shares
    the elimination of each prefix.  It starts from the projected rows that
    are not zero (the gamma-layers of a lifted code project to zero).  A
    node holds the rows its prefix did not take as pivots, with the
    prefix's columns cleared; choosing column t takes the first of them
    that is nonzero at t as the pivot, clears t from the rest and hands
    them to the child, and at the last position only a nonzero entry at t
    is needed.  With no pivot the prefix is dependent, so every selection
    through it fails and the answer is False."""
    ring = S.ring
    field = ring.residue
    need, total = (L + 1) * k0, (L + 1) * n
    if assert_genseq and field.q ** S.rows <= GENSEQ_ASSERT_LIMIT:
        # licensing check for the fast path, size-guarded
        first = next(_admissible_column_subsets(L, n, k0))
        if not is_gamma_generator_sequence(S.select_columns(first)):
            raise CrossCheckFailed("column selection broke the "
                                   "generator-sequence property")

    def independent(rows, c, start):
        # admissible choices for position c: t_(s*k0+1) > s*n (1-based)
        lo = max(start, (c // k0) * n) if c % k0 == 0 else start
        cols = range(lo, total - (need - c) + 1)
        if c == need - 1:
            return all(any(row[t] for row in rows) for t in cols)
        for t in cols:
            for i, prow in enumerate(rows):
                if prow[t]:
                    break
            else:
                return False
            rest = rows[:i] + rows[i + 1:]
            # the rows before the pivot are zero at t
            field_clear_column(field, rest, i, prow, t)
            if not independent(rest, c + 1, t + 1):
                return False
        return True

    return independent([row for row in S.residue_rows() if any(row)], 0, 0)


def _distances_condition(C: ConvCode, L, k0, budget):
    """d_j^c = (n - k0)(j + 1) + 1 for every j <= L."""
    return all(column_distance(C, j, budget=budget) == (C.n - k0) * (j + 1) + 1
               for j in range(L + 1))


def is_mdp(C: ConvCode, method=MINORS, budget=DEFAULT_DISTANCE_BUDGET):
    ring = C.ring
    k0 = _check_mdp_preconditions(C)
    L = L_index(C.n, C.k, C.delta, ring.nu)
    if method == DISTANCES:
        return _distances_condition(C, L, k0, budget)
    if method != MINORS:
        raise ValueError(f"unknown method {method!r}")
    S = sliding_matrix(C.encoder, L)
    if ring.q ** S.rows <= GENSEQ_ASSERT_LIMIT \
            and not is_gamma_generator_sequence(S):
        raise CrossCheckFailed(
            "sliding matrix rows are not a gamma-generator sequence")
    return _minors_condition(S, L, C.n, k0)


def reverse_encoder(C: ConvCode) -> PolyMatrix:
    """Coefficient-reversed encoder of the reverse code."""
    if not C.reduced():
        raise NotReduced("reverse encoder needs a reduced encoder")
    degs = C.encoder.row_degrees()
    if len(set(degs)) != 1:
        raise UnequalRowDegrees(f"row degrees {degs} are not all equal")
    return C.encoder.reversed_coeffs()


def is_reverse_mdp(C: ConvCode, method=MINORS,
                   budget=DEFAULT_DISTANCE_BUDGET):
    """C and the code of its reversed encoder are both MDP; each half is
    decided by `method` alone."""
    if not is_mdp(C, method=method, budget=budget):
        return False
    rev = reverse_encoder(C)
    ring = C.ring
    k0 = C.k // ring.nu
    L = L_index(C.n, C.k, C.delta, ring.nu)
    if method == DISTANCES:
        # validation witnesses that the reversed rows are a gamma-basis,
        # which column_distance's unit normalisation relies on; kept on C
        if C._reversed is None:
            C._reversed = ConvCode(ring, C.n, rev)
        return _distances_condition(C._reversed, L, k0, budget)
    S = sliding_matrix(rev, L)
    return _minors_condition(S, L, C.n, k0)
