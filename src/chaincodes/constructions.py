"""Constructions of (reverse-)MDP convolutional codes over chain rings.

Three routes: stacking gamma-layers of a unit-determinant matrix, lifting a
reduced residue-field encoder entry-wise through the transversal, and
extracting block-Toeplitz encoder blocks from a gamma-superregular
upper-triangular Toeplitz matrix.  A binomial-coefficient encoder over a
prime field feeds the lifting route.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import comb, isqrt

from . import linalg
from .conv import ConvCode, PolyMatrix, _minors_condition, is_reduced
from .errors import (BadCounts, BudgetExceeded, CrossCheckFailed,
                     DependentRows, InconsistentBlocks, InvalidParams,
                     NotReduced, NotSuperregular, SizeMismatch)
from .linalg import RingMatrix, diagonal_exponents, field_clear_column
from .rings import zmod

EXHAUSTIVE = "exhaustive"
RANDOM = "random"

DEFAULT_SEARCH_BUDGET = 10 ** 6


@dataclass(frozen=True)
class ToeplitzSpec:
    """Upper-triangular Toeplitz matrix given by its first row."""
    ring: object
    first_row: tuple

    def __post_init__(self):
        object.__setattr__(self, "first_row",
                           tuple(self.ring.coerce(a) for a in self.first_row))

    @property
    def size(self):
        return len(self.first_row)

    def materialize(self) -> RingMatrix:
        ring = self.ring
        ell = self.size
        a = self.first_row
        rows = [[a[j - i] if j >= i else ring.zero for j in range(ell)]
                for i in range(ell)]
        return RingMatrix._canonical(ring, rows, ell)

    def reversed_spec(self):
        return ToeplitzSpec(self.ring, self.first_row[::-1])

    def to_json(self):
        ring = self.ring
        return {"ring": ring.descriptor(),
                "first_row": [ring.element_to_json(a)
                              for a in self.first_row]}

    @classmethod
    def from_json(cls, obj, ring=None):
        from .rings import make_ring
        if ring is None:
            ring = make_ring(obj["ring"])
        return cls(ring, tuple(ring.element_from_json(a)
                               for a in obj["first_row"]))


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
                 for J in combinations(idx, s)
                 if all(i <= j for i, j in zip(I, J)))


def is_gamma_superregular(spec: ToeplitzSpec, cross_check=True):
    """Every proper submatrix has unit determinant, i.e. a nonzero
    projection to the residue field.

    One depth-first walk over the proper pairs (I, J) of the projected
    matrix: a node holds the rows after its last i, reduced against its
    prefix's pivots; a child takes one as row i and a column j >= i after
    the last j.  det(I + i, J + j) = det(I, J) * r_i[j] (Schur complement),
    so each minor is one nonzero test.  (I + c, J + c) is the same
    Toeplitz submatrix, so only pairs with i_1 = 1 are walked.  With
    cross_check set, the ring determinants of all proper minors must give
    the same verdict (CrossCheckFailed otherwise)."""
    field = spec.ring.residue
    ell = spec.size

    def walk(rows, first, lo, pivots):
        # rows[k] is row first + k; the first `pivots` of them may be i
        for k in range(pivots):
            prow = rows[k]
            for j in range(max(first + k, lo), ell):
                if not prow[j]:
                    return False
                if j + 1 < ell:
                    rest = rows[k + 1:]
                    field_clear_column(field, rest, 0, prow, j)
                    if not walk(rest, first + k + 1, j + 1, len(rest)):
                        return False
        return True

    A = spec.materialize()
    verdict = walk(A.residue_rows(), 0, 0, 1)
    if cross_check and verdict != all(
            spec.ring.valuation(linalg.determinant(A.submatrix(
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
    the same residue field."""
    src = M.ring
    if src.residue != ring.residue:
        raise InvalidParams("residue fields differ")
    return RingMatrix._canonical(ring, [[ring.lift(src.project(e))
                                         for e in row] for row in M.data],
                                 M.cols)


def lift_from_residue_field(Gtilde: PolyMatrix, ring,
                            validate=True) -> ConvCode:
    """Lift a reduced residue-field encoder to a gamma-encoder over `ring`
    by stacking gamma-layers of the transversal lift of each coefficient."""
    if not is_reduced(Gtilde):
        raise NotReduced("field encoder must be reduced")
    nu = ring.nu
    coeffs = []
    for i in range(Gtilde.degree + 1):
        lifted = lift_matrix(Gtilde.coefficient(i), ring)
        block = lifted
        for layer in range(1, nu):
            block = block.stack(lifted.scalar_mul(ring.gamma_power(layer)))
        coeffs.append(block)
    encoder = PolyMatrix(ring, coeffs, k=nu * Gtilde.k, n=Gtilde.n)
    return ConvCode(ring, Gtilde.n, encoder, validate=validate)


# ---------------------------------------------------------------------------
# binomial construction over a prime field

def _binom_entry(M, idx):
    return comb(M, idx) if 0 <= idx <= M else 0


def binomial_encoder(n, k, delta, p):
    """(encoder over F_p, warnings).  Coefficient i has entries
    binom(mn+n-k, (i+1)n-k+a-b) at row a, column b (1-based), computed
    exactly and reduced mod p."""
    large_enough = binomial_field_large_enough(n, k, delta, p)  # validates
    m = delta // k
    M = m * n + n - k
    field_ring = zmod(p)
    coeffs = []
    for i in range(m + 1):
        rows = [[_binom_entry(M, (i + 1) * n - k + a - b) % p
                 for b in range(1, n + 1)] for a in range(1, k + 1)]
        coeffs.append(RingMatrix(field_ring, rows, cols=n))
    warnings = []
    if not large_enough:
        warnings.append(
            f"p={p} does not exceed the sufficient-field-size bound "
            f"{binomial_bound(n, k, delta)}; the construction may still "
            f"be reverse MDP (the bound is far from strict)")
    return PolyMatrix(field_ring, coeffs, k=k, n=n), warnings


def _binomial_bound_parts(n, k, delta):
    """(binom(M, floor(M/2)), k(L+1)) with M = mn+n-k, m = delta/k and
    L = delta/k + floor(delta/(n-k)), for valid parameters."""
    if not (1 <= k < n) or delta < 0 or delta % k:
        raise InvalidParams(
            f"need 1 <= k < n and k | delta; got n={n}, k={k}, "
            f"delta={delta}")
    m = delta // k
    M = m * n + n - k
    return comb(M, M // 2), k * (m + delta // (n - k) + 1)


def binomial_bound(n, k, delta):
    """binom(M, floor(M/2))^(k(L+1)) * (k(L+1))^(k(L+1)/2); floor of the
    exact value when the half-integer exponent makes it irrational."""
    b, e = _binomial_bound_parts(n, k, delta)
    if e % 2 == 0:
        return b ** e * e ** (e // 2)
    return isqrt(b ** (2 * e) * e ** e)


def binomial_field_large_enough(n, k, delta, p):
    """Exact comparison p > bound (squared to avoid the square root)."""
    b, e = _binomial_bound_parts(n, k, delta)
    return p ** 2 > b ** (2 * e) * e ** e


# ---------------------------------------------------------------------------
# block extraction from superregular Toeplitz matrices

ROWS_FORMULA = "formula"
ROWS_EXAMPLE = "example"


def extract_mdp_blocks(spec: ToeplitzSpec, n, k, L, rows=ROWS_EXAMPLE,
                       check_superregular=True, assert_minors=True):
    """Extract the (L+1)k x (L+1)n block-Toeplitz submatrix of a
    gamma-superregular Toeplitz matrix and return the encoder blocks
    G_0..G_L as a PolyMatrix.

    Row conventions: "formula" takes row block j at (j+1)n + j(k-1)
    (1-based start), "example" takes it at j(n+k-1)+1; both read the same
    column blocks and both yield block-Toeplitz results."""
    ring = spec.ring
    ell = spec.size
    period = n + k - 1
    if ell != (L + 1) * period:
        raise SizeMismatch(
            f"Toeplitz size {ell} != (L+1)(n+k-1) = {(L + 1) * period}")
    if check_superregular and not is_gamma_superregular(spec,
                                                        cross_check=False):
        raise NotSuperregular("matrix is not gamma-superregular")
    A = spec.materialize()
    if rows == ROWS_FORMULA:
        row_idx = [(j + 1) * n + j * (k - 1) - 1 + a
                   for j in range(L + 1) for a in range(k)]
    elif rows == ROWS_EXAMPLE:
        row_idx = [j * period + a
                   for j in range(L + 1) for a in range(k)]
    else:
        raise InvalidParams(f"unknown row convention {rows!r}")
    col_idx = [j * period + b for j in range(L + 1) for b in range(n)]
    sub = A.submatrix(row_idx, col_idx)
    # slice into (L+1) x (L+1) blocks and check Toeplitz consistency
    blocks = {}
    zero_block = [[ring.zero] * n for _ in range(k)]
    for br in range(L + 1):
        for bc in range(L + 1):
            blk = [[sub.entry(br * k + a, bc * n + b) for b in range(n)]
                   for a in range(k)]
            d = bc - br
            if d < 0:
                if blk != zero_block:
                    raise InconsistentBlocks(
                        f"nonzero block below the diagonal at ({br},{bc})")
            elif d in blocks:
                if blocks[d] != blk:
                    raise InconsistentBlocks(
                        f"block diagonal {d} is not constant")
            else:
                blocks[d] = blk
    coeffs = [RingMatrix._canonical(ring, blocks[d], n)
              for d in range(L + 1)]
    # full-size admissible minors of the extracted matrix are units
    if assert_minors and not _minors_condition(sub, L, n, k,
                                               assert_genseq=False):
        raise NotSuperregular("an admissible full-size minor of the "
                              "extracted matrix is not a unit")
    return PolyMatrix(ring, coeffs, k=k, n=n)


# ---------------------------------------------------------------------------
# search

def search_superregular(ell, ring, strategy=EXHAUSTIVE, seed=None,
                        budget=DEFAULT_SEARCH_BUDGET, reverse=False):
    """Find (reverse-)gamma-superregular upper-triangular Toeplitz specs
    with a_1 normalized to 1 (unit scaling preserves superregularity).
    The candidate tails (a_2, ..., a_ell) are all of them in lexicographic
    order (EXHAUSTIVE) or the distinct ones among `budget` seeded draws,
    in draw order (RANDOM)."""
    if strategy == EXHAUSTIVE:
        total = ring.size() ** (ell - 1)
        if total > budget:
            raise BudgetExceeded(
                f"exhaustive search needs {total} candidates",
                requested=total, allowed=budget)
        tails = product(ring.elements(), repeat=ell - 1)
    elif strategy == RANDOM:
        if seed is None:
            raise InvalidParams("random search requires an explicit seed")
        rng = random.Random(seed)
        els = list(ring.elements())
        draws = (tuple(rng.choice(els) for _ in range(ell - 1))
                 for _ in range(budget))
        tails = dict.fromkeys(draws)  # distinct, in draw order
    else:
        raise InvalidParams(f"unknown strategy {strategy!r}")
    check = is_reverse_gamma_superregular if reverse \
        else is_gamma_superregular
    specs = (ToeplitzSpec(ring, (ring.one,) + tail) for tail in tails)
    return [spec for spec in specs if check(spec, cross_check=False)]
