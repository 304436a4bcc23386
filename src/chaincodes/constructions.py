"""Constructions of (reverse-)MDP convolutional codes over chain rings.

Three routes: stacking gamma-layers of a unit-determinant matrix, lifting a
reduced residue-field encoder entry-wise through the transversal, and
extracting block-Toeplitz encoder blocks from a gamma-superregular
upper-triangular Toeplitz matrix.  A binomial-coefficient encoder over a
prime field feeds the lifting route.
"""

from __future__ import annotations

import random
from collections import namedtuple
from functools import lru_cache
from itertools import combinations, product
from math import comb, isqrt

from . import linalg
from .conv import (ConvCode, PolyMatrix, _minors_condition,
                   _residue_sliding_rows, _sliding_rows, is_reduced)
from .errors import (MALFORMED, BadCounts, CrossCheckFailed, DependentRows,
                     InvalidParams, NotReduced, NotSuperregular, SizeMismatch,
                     check_budget)
from .fields import factorize
from .linalg import RingMatrix, diagonal_exponents
from .rings import make_ring, zmod

EXHAUSTIVE = "exhaustive"
RANDOM = "random"

DEFAULT_SEARCH_BUDGET = 10 ** 6


class ToeplitzSpec(namedtuple("ToeplitzSpec", "ring first_row")):
    """Upper-triangular Toeplitz matrix given by its first row."""

    __slots__ = ()

    def __new__(cls, ring, first_row):
        return super().__new__(cls, ring,
                               tuple(ring.coerce(a) for a in first_row))

    @property
    def size(self):
        return len(self.first_row)

    def materialize(self) -> RingMatrix:
        """The sliding matrix of the 1 x 1 blocks a_1, ..., a_ell."""
        ring, ell = self.ring, self.size
        return RingMatrix._canonical(ring, _sliding_rows(
            [[[a]] for a in self.first_row], ell - 1, [[ring.zero]]), ell)

    def reversed_spec(self):
        return self._replace(first_row=self.first_row[::-1])

    def to_json(self):
        ring = self.ring
        return {"ring": ring.descriptor(),
                "first_row": [ring.element_to_json(a)
                              for a in self.first_row]}

    @classmethod
    def from_json(cls, obj):
        try:
            return cls(make_ring(obj["ring"]), obj["first_row"])
        except MALFORMED as exc:
            raise InvalidParams(f"malformed Toeplitz matrix: {exc!r}") from exc


# ---------------------------------------------------------------------------
# proper submatrices and superregularity

def is_proper(I, J):
    """i_m <= j_m for all positions of the equally-sized, strictly
    increasing index lists."""
    if len(I) != len(J):
        raise SizeMismatch(f"|I|={len(I)} but |J|={len(J)}")
    for seq in (I, J):
        if any(a >= b for a, b in zip(seq, seq[1:])):
            raise SizeMismatch("index sets must be strictly increasing")
    return all(i <= j for i, j in zip(I, J))


@lru_cache(maxsize=None)
def proper_index_pairs(ell):
    """All proper (I, J) pairs of an ell x ell upper-triangular Toeplitz
    matrix, 1-based, every size, by size and then lexicographically; built
    once per ell."""
    idx = range(1, ell + 1)
    return tuple((I, J) for s in range(1, ell + 1)
                 for I in combinations(idx, s)
                 for J in combinations(idx, s) if is_proper(I, J))


def is_gamma_superregular(spec: ToeplitzSpec, cross_check=True):
    """Every proper submatrix has unit determinant, i.e. a nonzero
    projection to the residue field.

    One depth-first walk over the proper pairs (I, J) of the projected
    matrix: a node holds the rows after its last i, reduced against its
    prefix's pivots; a child takes one as row i and a column j >= i after
    the last j.  det(I + i, J + j) = det(I, J) * r_i[j] (Schur complement),
    so each minor is one nonzero test, on walk codes cleared by the field's
    walk_clear, as in the minors walk.  (I + c, J + c) is the same
    Toeplitz submatrix, so only pairs with i_1 = 1 are walked.  With
    cross_check set, the ring determinants of all proper minors must give
    the same verdict (CrossCheckFailed otherwise)."""
    ring, ell = spec.ring, spec.size
    field = ring.residue

    def walk(rows, first, lo, pivots):
        # rows[k] is row first + k; the first `pivots` of them may be i
        for k in range(pivots):
            prow = rows[k]
            for j in range(max(first + k, lo), ell):
                if not prow[j]:
                    return False
                if j + 1 < ell:
                    rest = rows[k + 1:]
                    field.walk_clear(rest, 0, prow, j)
                    if not walk(rest, first + k + 1, j + 1, len(rest)):
                        return False
        return True

    a = field.walk_codes([ring.project(x) for x in spec.first_row])
    verdict = walk([[field.zero] * i + a[:ell - i] for i in range(ell)],
                   0, 0, min(ell, 1))  # 0 x 0: no minor, so True
    if cross_check:
        A = spec.materialize()
        if verdict != all(ring.valuation(linalg.determinant(A.submatrix(
                [i - 1 for i in I], [j - 1 for j in J]))) == 0
                for I, J in proper_index_pairs(ell)):
            raise CrossCheckFailed("walk and ring determinants disagree")
    return verdict


def is_reverse_gamma_superregular(spec: ToeplitzSpec, cross_check=True):
    return (is_gamma_superregular(spec, cross_check=cross_check)
            and is_gamma_superregular(spec.reversed_spec(),
                                      cross_check=cross_check))


# ---------------------------------------------------------------------------
# gamma-layer stacking

def stack_gamma_layers(A: RingMatrix, row_counts):
    """(A_0; gamma*A_1; ...; gamma^(nu-1)*A_{nu-1}) with A_i = first n_i
    rows of A; requires A square with linearly independent rows."""
    ring = A.ring
    nu = ring.nu
    if A.rows != A.cols:
        raise BadCounts("layer stacking needs a square matrix")
    counts = tuple(row_counts)
    if len(counts) != nu:
        raise BadCounts(f"expected {nu} layer counts")
    if any(c < 1 or c > A.rows for c in counts) or list(counts) != \
            sorted(counts):
        raise BadCounts(f"counts {counts} must be nondecreasing in [1, n]")
    exps = diagonal_exponents(A)
    if len(exps) != A.rows or any(e != 0 for e in exps):
        raise DependentRows("matrix rows are linearly dependent over R")
    out = []
    for i, c in enumerate(counts):
        g = ring.gamma_power(i)
        for r in range(c):
            out.append([ring.mul(g, e) for e in A.row(r)])
    return RingMatrix._canonical(ring, out, A.cols)


# ---------------------------------------------------------------------------
# residue-field lifting

def lift_matrix(M: RingMatrix, ring) -> RingMatrix:
    """Entry-wise transversal lift of a matrix over a nu=1 chain ring with
    the same residue field; a source with nu > 1 is refused, not projected."""
    src = M.ring
    if src.nu != 1:
        raise InvalidParams("lift input must live over a nu=1 ring")
    if src.residue != ring.residue:
        raise InvalidParams("residue fields differ")
    return RingMatrix._canonical(ring, [[ring.lift(src.project(e))
                                         for e in row] for row in M.data],
                                 M.cols)


def lift_from_residue_field(Gtilde: PolyMatrix, ring) -> ConvCode:
    """Lift a reduced encoder over the residue field, a nu=1 ring, to a
    gamma-encoder over `ring`: coefficient i is [T_i; gamma T_i; ...;
    gamma^(nu-1) T_i], T_i the transversal lift of the field coefficient i.

    The lift is reduced.  Row gamma^b t(z) has the degree of the field row
    it lifts, whose nonzero entries lift to units, so the lift's leading
    coefficient matrix is [T; gamma T; ...; gamma^(nu-1) T], T the lift of
    the field's leading rows; that is gamma-linearly independent exactly
    when T has full rank over F, i.e. when the field encoder is reduced."""
    mul, n = ring.mul, Gtilde.n
    powers = [ring.gamma_power(b) for b in range(1, ring.nu)]
    coeffs = [RingMatrix._canonical(ring, list(T) + [
        [mul(g, e) for e in row] for g in powers for row in T], n)
        for T in (lift_matrix(C, ring).data for C in Gtilde.coeffs)]
    if not is_reduced(Gtilde):
        raise NotReduced("field encoder must be reduced")
    encoder = PolyMatrix(ring, coeffs, k=ring.nu * Gtilde.k, n=n)
    code = ConvCode(ring, n, encoder)
    code._reduced = True  # as proved above
    return code


# ---------------------------------------------------------------------------
# binomial construction over a prime field

def _binom_entry(M, idx):
    return comb(M, idx) if 0 <= idx <= M else 0


def binomial_encoder(n, k, delta, p):
    """(encoder over F_p, warnings).  Coefficient i has entries
    binom(mn+n-k, (i+1)n-k+a-b) at row a, column b (1-based), computed
    exactly and reduced mod p."""
    bound = binomial_bound(n, k, delta)  # validates
    if factorize(p) != [p]:
        raise InvalidParams(f"the binomial encoder needs a prime p; "
                            f"got p={p}")
    m = delta // k
    M = m * n + n - k
    field_ring = zmod(p)
    coeffs = []
    for i in range(m + 1):
        rows = [[_binom_entry(M, (i + 1) * n - k + a - b) % p
                 for b in range(1, n + 1)] for a in range(1, k + 1)]
        coeffs.append(RingMatrix(field_ring, rows, cols=n))
    warnings = []
    if p <= bound:
        warnings.append(
            f"p={p} does not exceed the sufficient-field-size bound "
            f"{bound}; the construction may still "
            f"be reverse MDP (the bound is far from strict)")
    return PolyMatrix(field_ring, coeffs, k=k, n=n), warnings


def binomial_bound(n, k, delta):
    """binom(M, floor(M/2))^e * e^(e/2) with M = mn+n-k, m = delta/k and
    e = k(L+1), L = delta/k + floor(delta/(n-k)); floor of the exact value
    when the half-integer exponent makes it irrational."""
    if not (1 <= k < n) or delta < 0 or delta % k:
        raise InvalidParams(
            f"need 1 <= k < n and k | delta; got n={n}, k={k}, "
            f"delta={delta}")
    m = delta // k
    M = m * n + n - k
    b, e = comb(M, M // 2), k * (m + delta // (n - k) + 1)
    if e % 2 == 0:
        return b ** e * e ** (e // 2)
    return isqrt(b ** (2 * e) * e ** e)


# ---------------------------------------------------------------------------
# block extraction from superregular Toeplitz matrices

def extract_mdp_blocks(spec: ToeplitzSpec, n, k, L):
    """Encoder blocks G_0..G_L, as a PolyMatrix, of the (L+1)k x (L+1)n
    block-Toeplitz submatrix of a gamma-superregular Toeplitz matrix.

    With period P = n + k - 1, G_d is rows 0..k-1 of the Toeplitz matrix
    at columns d*P + b, b < n.  The submatrix on rows r*P + i and columns
    c*P + b has entry a_((c-r)P + b - i) in block (r, c), zero where the
    index is negative (every block with c < r), so it is the sliding
    matrix S_L of these blocks; its admissible full-size minors must be
    units."""
    if not 1 <= k <= n or L < 0:
        raise InvalidParams(f"block extraction needs 1 <= k <= n and L >= 0; "
                            f"got n={n}, k={k}, L={L}")
    ell, period = spec.size, n + k - 1
    if ell != (L + 1) * period:
        raise SizeMismatch(
            f"Toeplitz size {ell} != (L+1)(n+k-1) = {(L + 1) * period}")
    if not is_gamma_superregular(spec, cross_check=False):
        raise NotSuperregular("matrix is not gamma-superregular")
    A = spec.materialize()
    blocks = [A.submatrix(range(k), range(d * period, d * period + n))
              for d in range(L + 1)]
    G = PolyMatrix(spec.ring, blocks, k=k, n=n)
    if not _minors_condition(spec.ring.residue, _residue_sliding_rows(G, L),
                             L, n, k):
        raise NotSuperregular("an admissible full-size minor of the "
                              "extracted matrix is not a unit")
    return G


# ---------------------------------------------------------------------------
# search

def search_superregular(ell, ring, strategy=EXHAUSTIVE, seed=None,
                        budget=DEFAULT_SEARCH_BUDGET, reverse=False):
    """Find (reverse-)gamma-superregular upper-triangular Toeplitz specs
    with a_1 normalized to 1 (unit scaling preserves superregularity).
    The candidate tails (a_2, ..., a_ell) are all of them in lexicographic
    order (EXHAUSTIVE) or the distinct ones among `budget` seeded draws,
    in draw order (RANDOM)."""
    if ell < 1:
        raise InvalidParams(f"search needs ell >= 1; got ell={ell}")
    if strategy == EXHAUSTIVE:
        check_budget("exhaustive search candidates",
                     ring.size() ** (ell - 1), budget)
        tails = product(ring.elements(), repeat=ell - 1)
    elif strategy == RANDOM:
        if seed is None:
            raise InvalidParams("random search requires an explicit seed")
        # rng.randrange(size) draws the index that rng.choice(list(
        # ring.elements())) would, with no list of R and for any |R|;
        # element(i) is the i-th of ring.elements(): base coord_modulus,
        # first coordinate most significant
        rng, size = random.Random(seed), ring.size()
        m, width = ring.coord_modulus, len(ring.zero)
        powers = [m ** e for e in reversed(range(width))]
        element = (lambda i: (i,)) if width == 1 else \
            (lambda i: tuple([i // w % m for w in powers]))
        draws = (tuple([element(rng.randrange(size)) for _ in range(ell - 1)])
                 for _ in range(budget))
        tails = dict.fromkeys(draws)  # distinct, in draw order
    else:
        raise InvalidParams(f"unknown strategy {strategy!r}")
    check = is_reverse_gamma_superregular if reverse \
        else is_gamma_superregular
    # the tails are canonical elements already, so none is coerced again
    specs = (ToeplitzSpec._make((ring, (ring.one,) + tail)) for tail in tails)
    return [spec for spec in specs if check(spec, cross_check=False)]
