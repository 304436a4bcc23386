"""Exact matrix algebra over a chain ring.

Everything here works on :class:`RingMatrix` values whose entries are raw
coordinate tuples.  The workhorses are a Smith-like diagonal reduction
(every entry of a chain ring is unit * gamma^e, so minimal-valuation
pivoting terminates), the module shape / parameters derived from it, and
the enumeration oracle for gamma-linear independence and gamma-span
membership.  The oracle projects to the residue field, enumerates the
(affine) kernel there and lifts candidates through the transversal T;
this is sound and complete because lift(project(t)) == t for t in T.
"""

from __future__ import annotations

from itertools import chain, product

from .errors import (MALFORMED, InvalidParams, NotSquare, ZeroMatrix,
                     check_budget)
from .rings import make_ring

# the most residue-field candidates one enumeration may lift; read at call
# time by gamma_span_solve and is_gamma_linearly_independent
ORACLE_BUDGET = 10 ** 6


class RingMatrix:
    """Immutable dense matrix; entries are coordinate tuples."""

    __slots__ = ("ring", "rows", "cols", "data")

    def __init__(self, ring, data, cols=None):
        self.ring = ring
        data = [tuple(ring.coerce(x) for x in row) for row in data]
        self.rows = len(data)
        if data:
            widths = {len(r) for r in data}
            if len(widths) != 1:
                raise ValueError("ragged rows")
            self.cols = widths.pop()
        else:
            self.cols = 0 if cols is None else cols
        self.data = tuple(data)

    @classmethod
    def _canonical(cls, ring, data, cols):
        """Matrix of rows of canonical entries (entries of library matrices
        or results of ring operations), which are not coerced again."""
        data = tuple(map(tuple, data))
        M = cls.__new__(cls)
        M.ring, M.rows, M.cols, M.data = ring, len(data), cols, data
        return M

    @classmethod
    def identity(cls, ring, n):
        one, zero = ring.one, ring.zero
        return cls._canonical(ring, [[one if i == j else zero
                                      for j in range(n)] for i in range(n)], n)

    @classmethod
    def zeros(cls, ring, m, n):
        return cls._canonical(ring, [[ring.zero] * n] * m, n)

    def entry(self, i, j):
        return self.data[i][j]

    def row(self, i):
        return self.data[i]

    def is_zero(self):
        z = self.ring.zero
        return all(e == z for row in self.data for e in row)

    def submatrix(self, row_idx, col_idx):
        data = self.data
        return RingMatrix._canonical(self.ring, [
            [data[i][j] for j in col_idx] for i in row_idx], len(col_idx))

    def residue_rows(self):
        """Projection to the residue field, as lists of field codes."""
        proj = self.ring.project
        return [[proj(e) for e in row] for row in self.data]

    def to_json(self):
        ring = self.ring
        return {"ring": ring.descriptor(), "rows": self.rows,
                "cols": self.cols,
                "entries": [ring.element_to_json(e)
                            for row in self.data for e in row]}

    @classmethod
    def from_json(cls, obj):
        try:
            ring = make_ring(obj["ring"])
            m, n = obj["rows"], obj["cols"]
            if m < 0 or n < 0:
                raise InvalidParams(f"matrix size {m}x{n} is negative")
            entries = list(obj["entries"])  # coerced by __init__
            if len(entries) != m * n:
                raise ValueError("entry count does not match rows*cols")
            return cls(ring, [entries[i * n:(i + 1) * n] for i in range(m)],
                       cols=n)
        except MALFORMED as exc:
            raise InvalidParams(f"malformed matrix: {exc!r}") from exc

    def __eq__(self, other):
        return (isinstance(other, RingMatrix) and other.ring == self.ring
                and other.data == self.data and other.cols == self.cols)

    def __hash__(self):
        return hash((self.ring, self.data))

    def __repr__(self):
        return f"RingMatrix({self.ring!r}, {self.rows}x{self.cols})"


# ---------------------------------------------------------------------------
# residue-field linear algebra on code matrices (lists of lists of ints)

def field_echelon(field, rows, width=None):
    """Forward elimination over the residue field: (echelon rows, rank,
    det).

    Pivots are taken only in the first `width` columns (all by default):
    column by column, the first nonzero entry at or below the current row
    is swapped up and the entries below it are cleared on walk codes
    (walk_clear).  det is the determinant of a square input, the signed
    product of the pivots; it is zero once a column has no pivot."""
    work = [field.walk_codes(row) for row in rows]  # replaced, not changed
    m = len(work)
    if width is None:
        width = len(work[0]) if work else 0
    det, r = field.one, 0
    for c in range(width):
        if r == m:
            break
        for pivot in range(r, m):
            if work[pivot][c]:
                break
        else:
            det = field.zero
            continue
        if pivot != r:
            work[r], work[pivot] = work[pivot], work[r]
            det = field.neg(det)
        # below the pivot row, columns up to c are zero once updated
        field.walk_clear(work, r + 1, work[r], c)
        r += 1
    work = [field.plain_codes(row) for row in work]
    for i in range(r):  # pivot i is at column i unless det is zero
        det = field.mul(det, work[i][i])
    return work, r, det


def field_rank(field, rows):
    return field_echelon(field, rows)[1]


def field_left_kernel(field, rows):
    """Basis of {x : x * rows == 0}: eliminate [rows | I] with pivots in
    the rows' columns; the I-parts of the rows past the rank span it."""
    m = len(rows)
    n = len(rows[0]) if rows else 0
    aug = [list(row) + [1 if i == j else 0 for j in range(m)]
           for i, row in enumerate(rows)]
    work, rank, _ = field_echelon(field, aug, width=n)
    return [row[n:] for row in work[rank:]]


def t_combination(ring, digits, rows, n):
    """sum(t_i * row_i) over the length-n rows, as a list of entries."""
    add, mul, zero = ring.add, ring.mul, ring.zero
    acc = [zero] * n
    for t, row in zip(digits, rows):
        if t != zero:
            for j, e in enumerate(row):
                acc[j] = add(acc[j], mul(t, e))
    return acc


def iter_span(field, basis):
    """All nonzero combinations of `basis` (list of row vectors)."""
    add, mul, m = field.add, field.mul, len(basis[0]) if basis else 0
    for coeffs in product(field.elements(), repeat=len(basis)):
        if not any(coeffs):
            continue
        vec = [0] * m
        for c, brow in zip(coeffs, basis):
            if c:
                vec = [add(x, mul(c, y)) for x, y in zip(vec, brow)]
        yield vec


# ---------------------------------------------------------------------------
# ring elimination: minimal-valuation pivots, divisions only by units

def _min_valuation_pivot(ring, W, rows, cols):
    """(v, i, j) for the first entry W[i][j] of least valuation v < nu,
    scanning column by column; None when every entry is zero."""
    valuation, nu = ring.valuation, ring.nu
    best = None
    for j in cols:
        for i in rows:
            v = valuation(W[i][j])
            if v == 0:
                return 0, i, j
            if v < nu and (best is None or v < best[0]):
                best = (v, i, j)
    return best


def _sub_multiple(ring, row, f, pivot_row):
    """row - f * pivot_row, entry-wise."""
    sub, mul, zero = ring.sub, ring.mul, ring.zero
    return [x if y == zero else sub(x, mul(f, y))
            for x, y in zip(row, pivot_row)]


def _pivot_rows(A, width=None):
    """Minimal-valuation pivoting on the rows of A, with pivots only in the
    first `width` columns (all by default): ([row, e, column] of each
    placed row, in pivot order; the unused rows).

    Column by column over the unused columns, the first unused row of
    least valuation e is placed, with no row or column swapped: scaled so
    that its pivot is gamma^e, and the pivot column cleared from the unused
    rows.  Each e is the least valuation left, so the e's never fall, every
    entry of a placed row has valuation at least its e, a placed row is
    zero in the pivot columns placed before it, and the unused rows end
    zero in the first `width` columns."""
    ring = A.ring
    zero, mul, shift_down = ring.zero, ring.mul, ring.shift_down
    W = [list(row) for row in A.data]
    free_rows = list(range(A.rows))
    free_cols = list(range(A.cols if width is None else width))
    placed = []
    while free_rows and free_cols:
        best = _min_valuation_pivot(ring, W, free_rows, free_cols)
        if best is None:
            break
        e, pi, pj = best
        inv = ring.invert_unit(shift_down(W[pi][pj], e))
        pivot = [mul(inv, x) for x in W[pi]]
        free_rows.remove(pi)
        free_cols.remove(pj)
        for i in free_rows:
            if W[i][pj] != zero:
                W[i] = _sub_multiple(ring, W[i], shift_down(W[i][pj], e),
                                     pivot)
        placed.append([pivot, e, pj])
    return placed, [W[i] for i in free_rows]


def _pivot_permutation(placed, n):
    """The pivot columns in pivot order, then the other columns in order."""
    pivots = tuple(rec[2] for rec in placed)
    return pivots + tuple(j for j in range(n) if j not in pivots)


def diagonal_reduction(A):
    """(exponents, L, R) with L*A*R = diag(gamma^e1, ..., gamma^et, 0...),
    L and R invertible, e1 <= ... <= et < nu.

    _pivot_rows on [A | I] with pivots in A's columns: L is the I part of
    the placed rows, then of the unused ones, whose A part is zero.  R
    clears each placed row beyond its pivot by column operations, in pivot
    order, then moves the pivot columns to the front.  The pivot column is
    zero in the rows placed later and, once cleared, in the earlier ones,
    so each clearing changes its own row only."""
    ring, m, n = A.ring, A.rows, A.cols
    placed, rest = _pivot_rows(RingMatrix._canonical(ring, [
        row + unit for row, unit in
        zip(A.data, RingMatrix.identity(ring, m).data)], n + m), width=n)
    Et = list(RingMatrix.identity(ring, n).data)  # the operations' columns
    for row, e, pj in placed:
        for j in range(n):
            if j != pj and row[j] != ring.zero:
                Et[j] = _sub_multiple(ring, Et[j], ring.shift_down(row[j], e),
                                      Et[pj])
    perm = _pivot_permutation(placed, n)
    return (tuple(e for _, e, _ in placed),
            RingMatrix._canonical(ring, [row[n:] for row, _, _ in placed]
                                  + [row[n:] for row in rest], m),
            RingMatrix._canonical(ring, [[Et[c][r] for c in perm]
                                         for r in range(n)], n))


def diagonal_exponents(A):
    """The exponents of diagonal_reduction(A): the pivot valuations of
    _pivot_rows(A)."""
    return tuple(e for _, e, _ in _pivot_rows(A)[0])


def shape_of(A):
    """nu-shape (mu_1, ..., mu_nu) of the row module of A."""
    exps = diagonal_exponents(A)
    return tuple(sum(1 for e in exps if e <= i) for i in range(A.ring.nu))


def gamma_dimension(A):
    """Sum of the nu-shape: each exponent e counts nu - e."""
    return sum(shape_of(A))


def shape_parameters(shape):
    """(k_0, ..., k_{nu-1}) with k_i = mu_{i+1} - mu_i from a nu-shape."""
    mu = (0,) + tuple(shape)
    return tuple(mu[i + 1] - mu[i] for i in range(len(shape)))


def parameters_of(A):
    """(k_0, ..., k_{nu-1}) of the row module of A."""
    return shape_parameters(shape_of(A))


# ---------------------------------------------------------------------------
# gamma-span membership and independence

def module_solve_left(A, target):
    """Whether some u in R^m solves u*A == target (full ring coefficients).

    The row module of A lies in that of (A; target), and a module has
    q^(gamma-dimension) elements, so the two are equal exactly when their
    gamma-dimensions are."""
    with_target = RingMatrix._canonical(A.ring, A.data + (tuple(target),),
                                        A.cols)
    return gamma_dimension(with_target) == gamma_dimension(A)


def gamma_span_solve(A, target):
    """Coefficients t in T^m with sum(t_i * row_i) == target, or None.

    Solves the projected system over the residue field, then enumerates the
    affine solution coset, lifting each candidate through T and checking
    exactly over the ring.  Cost q^(kernel dim), at most ORACLE_BUDGET.
    One elimination of (rows; target) gives both, as it never scales a row
    and pivots on the target only outside the row space: a left-kernel y
    with y_m != 0 gives the solution -y[:m] / y_m, the others the kernel."""
    ring = A.ring
    field = ring.residue
    m = A.rows
    # trivial hits that need no search
    if all(e == ring.zero for e in target):
        return (ring.zero,) * m
    tlist = list(target)
    for i, row in enumerate(A.data):
        if list(row) == tlist:
            return tuple(ring.one if j == i else ring.zero for j in range(m))
    tvec = [ring.project(e) for e in target]
    ys = field_left_kernel(field, A.residue_rows() + [tvec])
    y = next((y for y in ys if y[m]), None)
    if y is None:
        return None
    kernel = [v[:m] for v in ys if not v[m]]
    f = field.neg(field.inv(y[m]))
    part = [field.mul(f, c) for c in y[:m]]
    count = field.q ** len(kernel)
    if count > ORACLE_BUDGET and not module_solve_left(A, target):
        # membership in the full module span is necessary for membership in
        # the T-span; a cheap reduction settles clear negatives exactly
        return None
    check_budget("span membership candidates", field.q, len(kernel),
                 ORACLE_BUDGET)
    coset = chain([part], ([field.add(a, b) for a, b in zip(part, kvec)]
                           for kvec in iter_span(field, kernel)))
    return _lifted_solution(A, target, coset)


def _lifted_solution(A, target, candidates):
    """The digits t = lift(c) of the first candidate residue vector c with
    sum(t_i * row_i) == target, or None when no candidate gives it."""
    ring = A.ring
    lift, target = ring.lift, list(target)
    for codes in candidates:
        digits = [lift(c) for c in codes]
        if t_combination(ring, digits, A.data, A.cols) == target:
            return tuple(digits)
    return None


def _shifted_rows(S, k, row_idx, shifts):
    """The rows z^t * row_i(z) of G, i-major, as rows t*k + i of the
    sliding matrix S of G."""
    return RingMatrix._canonical(S.ring, [S.data[t * k + i] for i in row_idx
                                          for t in shifts], S.cols)


def _gamma_multiples_in_later_rows(S, k, shifts):
    """Whether, for i = k - 1 down to 0, gamma * S[i] is zero, one of the
    later rows _shifted_rows(S, k, range(i + 1, k), shifts), or in their
    row module (module_solve_left).  The later rows are stacked only for a
    nonzero gamma * S[i], so at nu = 1 none are."""
    gamma, zero, mul = S.ring.gamma, S.ring.zero, S.ring.mul
    for i in range(k - 1, -1, -1):
        target = tuple(mul(gamma, e) for e in S.data[i])
        if any(e != zero for e in target):
            tail = _shifted_rows(S, k, range(i + 1, k), shifts)
            if (target not in tail.data
                    and not module_solve_left(tail, target)):
                return False
    return True


def is_gamma_generator_sequence(A):
    """True iff gamma * last row == 0 and, for every earlier row,
    gamma * row_i is a T-combination of the rows after it.

    Decided from the last row up with no enumeration: gamma * row_i
    passes at once when it is zero or equal to a later row, and otherwise
    exactly when it lies in the row module of the rows after i
    (module_solve_left).  That is exact because those rows already
    passed, and the T-span of a gamma-generator sequence g_1..g_m is its
    R-span (Kuijper & Pinto, "On minimality of convolutional ring
    encoders", IEEE Trans. IT 55 (2009), for p-generator sequences).
    Proof by induction from the last row: write a coefficient c of g_j as
    t + gamma*a' with t in T; then c*g_j = t*g_j + a'*(gamma*g_j), and
    gamma*g_j is zero (always for j = m) or a T-combination of the rows
    after j.  So c*g_j plus an R-combination of g_(j+1)..g_m is t*g_j plus
    another one, which is a T-combination by induction."""
    return _gamma_multiples_in_later_rows(A, A.rows, (0,))


def is_gamma_linearly_independent(A):
    """No nontrivial T-combination of the rows is zero.

    An empty residue kernel answers True at once.  A gamma-generator
    sequence is independent exactly when its q^(row count)
    T-combinations are distinct (Kuijper & Pinto, as above), and they
    make up its row module, of q^(gamma-dimension) elements, so that is
    gamma-dimension == row count.  Any other rows have their lifted
    residue kernel enumerated, at most ORACLE_BUDGET candidates, which is
    complete for arbitrary row sets."""
    ring = A.ring
    field = ring.residue
    kernel = field_left_kernel(field, A.residue_rows())
    if not kernel:
        return True
    if is_gamma_generator_sequence(A):
        return gamma_dimension(A) == A.rows
    check_budget("kernel lifts", field.q, len(kernel), ORACLE_BUDGET)
    # a nonzero kernel vector lifts to a nonzero T-vector: lift is
    # injective and lift(0) == 0
    return _lifted_solution(A, [ring.zero] * A.cols,
                            iter_span(field, kernel)) is None


# ---------------------------------------------------------------------------
# gamma-bases and standard forms

def gamma_basis(A):
    """A gamma-basis of the row module of A, ordered as a gamma-generator
    sequence: layer b holds gamma^(b - e) * row for each row placed by
    _pivot_rows(A) with e <= b."""
    ring = A.ring
    placed = _pivot_rows(A)[0]
    out = []
    for b in range(ring.nu):
        for row, e, _ in placed:
            if e <= b:
                g = ring.gamma_power(b - e)
                out.append([ring.mul(g, x) for x in row])
    return RingMatrix._canonical(ring, out, A.cols)


def standard_form(A):
    """(S, perm): S is left-equivalent to A up to the column permutation
    `perm` and matches the block-triangular pattern with diagonal blocks
    gamma^i * I_{k_i}.  Output column j is input column perm[j].

    S is the rows placed by _pivot_rows(A), each with the pivot columns of
    the rows placed after it at its level cleared by those rows (which
    keeps the identity blocks)."""
    ring = A.ring
    if A.is_zero():
        raise ZeroMatrix("standard form undefined for the zero matrix")
    placed = _pivot_rows(A)[0]
    # row i is cleared before any later row changes
    for i, rec in enumerate(placed):
        row, e = rec[0], rec[1]
        for later, e_later, pj in placed[i + 1:]:
            if e_later != e:
                break
            if row[pj] != ring.zero:
                row = _sub_multiple(ring, row, ring.shift_down(row[pj], e),
                                    later)
        rec[0] = row
    perm = _pivot_permutation(placed, A.cols)
    S = RingMatrix._canonical(ring, [[rec[0][j] for j in perm]
                                     for rec in placed], A.cols)
    return S, perm


def gamma_standard_form(A):
    """(G, perm): gamma-basis of the row module of the column-permuted A in
    the layered gamma-standard-form pattern.  Layer b is standard_form of
    the rows gamma^(b - e) * S_i of (S, perm) = standard_form(A) with level
    e <= b; their pivots gamma^b stay in order on the diagonal, so it
    permutes no column and clears only their later pivot columns."""
    ring = A.ring
    S, perm = standard_form(A)
    levels = [ring.valuation(S.data[i][i]) for i in range(S.rows)]
    out = []
    for b in range(levels[0], ring.nu):
        layer = RingMatrix._canonical(ring, [
            [ring.mul(ring.gamma_power(b - e), x) for x in row]
            for row, e in zip(S.data, levels) if e <= b], A.cols)
        out += standard_form(layer)[0].data
    return RingMatrix._canonical(ring, out, A.cols), perm


# ---------------------------------------------------------------------------
# determinants

def _cofactor_determinant(R, W):
    """det of a block of at most 3 rows by cofactors, in a ring or field R."""
    mul, sub = R.mul, R.sub
    if len(W) == 3:
        (a, b, c), (d, e, f), (g, h, i) = W
        return R.add(sub(mul(a, sub(mul(e, i), mul(f, h))),
                         mul(b, sub(mul(d, i), mul(f, g)))),
                     mul(c, sub(mul(d, h), mul(e, g))))
    if len(W) == 2:
        (a, b), (c, d) = W
        return sub(mul(a, d), mul(b, c))
    return W[0][0] if W else R.one


def determinant(A):
    """Exact determinant by valuation-pivoted elimination of the first
    column (divisions only by units) down to a block of at most 3 rows,
    which is expanded by cofactors."""
    ring = A.ring
    if A.rows != A.cols:
        raise NotSquare("determinant needs a square matrix")
    mul, shift_down = ring.mul, ring.shift_down
    W = list(A.data)
    det = ring.one
    while len(W) > 3:
        best = _min_valuation_pivot(ring, W, range(len(W)), (0,))
        if best is None:
            return ring.zero
        e, pi, _ = best
        if pi:
            W[0], W[pi] = W[pi], W[0]
            det = ring.neg(det)
        pivot, tail = W[0][0], W[0][1:]
        det = mul(det, pivot)
        inv_unit = ring.invert_unit(shift_down(pivot, e))
        trailing = []
        for row in W[1:]:
            if row[0] == ring.zero:
                trailing.append(row[1:])
            else:
                # factor = entry / pivot, valid because val(entry) >= e
                f = mul(shift_down(row[0], e), inv_unit)
                trailing.append(_sub_multiple(ring, row[1:], f, tail))
        W = trailing
    return mul(det, _cofactor_determinant(ring, W))


def residue_determinant(A):
    """det of the projection, entries projected straight into cofactors
    up to 3 rows, by field_echelon beyond.  It never reads the ring
    determinant, so the two check each other by separate arithmetic."""
    if A.rows != A.cols:
        raise NotSquare("determinant needs a square matrix")
    field, proj = A.ring.residue, A.ring.project
    if A.rows == 2:
        (a, b), (c, d) = A.data
        return field.sub(field.mul(proj(a), proj(d)),
                         field.mul(proj(b), proj(c)))
    if A.rows == 1:
        return proj(A.data[0][0])
    if A.rows > 3:
        return field_echelon(field, A.residue_rows())[2]
    return _cofactor_determinant(field, [[*map(proj, row)] for row in A.data])
