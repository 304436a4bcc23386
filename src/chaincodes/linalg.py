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

from .errors import (BudgetExceeded, MethodPreconditionViolated, NotSquare,
                     ZeroMatrix)

ORACLE = "oracle"
SHAPE_FAST = "shape-fast"

DEFAULT_ORACLE_BUDGET = 10 ** 6


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
        M = cls.__new__(cls)
        M.ring, M.rows, M.cols = ring, len(data), cols
        M.data = tuple(map(tuple, data))
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

    def matmul(self, other):
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        ring = self.ring
        out = []
        for i in range(self.rows):
            arow = self.data[i]
            orow = []
            for j in range(other.cols):
                acc = ring.zero
                for k in range(self.cols):
                    a = arow[k]
                    if a != ring.zero:
                        acc = ring.add(acc, ring.mul(a, other.data[k][j]))
                orow.append(acc)
            out.append(orow)
        return RingMatrix._canonical(ring, out, other.cols)

    def scalar_mul(self, c):
        ring = self.ring
        c = ring.coerce(c)
        return RingMatrix._canonical(ring, [[ring.mul(c, e) for e in row]
                                            for row in self.data], self.cols)

    def stack(self, other):
        if other.cols != self.cols or other.ring != self.ring:
            raise ValueError("dimension or ring mismatch")
        return RingMatrix._canonical(self.ring, self.data + other.data,
                                     self.cols)

    def submatrix(self, row_idx, col_idx):
        return RingMatrix._canonical(self.ring,
                                     [[self.data[i][j] for j in col_idx]
                                      for i in row_idx], len(col_idx))

    def select_columns(self, col_idx):
        return self.submatrix(range(self.rows), col_idx)

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
    def from_json(cls, obj, ring=None):
        from .rings import make_ring
        if ring is None:
            ring = make_ring(obj["ring"])
        m, n = obj["rows"], obj["cols"]
        entries = [ring.element_from_json(e) for e in obj["entries"]]
        if len(entries) != m * n:
            raise ValueError("entry count does not match rows*cols")
        return cls(ring, [entries[i * n:(i + 1) * n] for i in range(m)],
                   cols=n)

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
    is swapped up and the entries below it are cleared.  det is the
    determinant of a square input; it is zero once a column has no
    pivot."""
    work = list(rows)  # rows are replaced, never changed in place
    m = len(work)
    if width is None:
        width = len(work[0]) if work else 0
    mul, neg = field.mul, field.neg
    det = field.one
    r = 0
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
            det = neg(det)
        det = mul(det, work[r][c])
        if r + 1 < m:
            # below the pivot row, columns up to c are zero once updated
            field_clear_column(field, work, r + 1, work[r], c)
        r += 1
    return work, r, det


def field_clear_column(field, rows, start, prow, c):
    """Clear column c of rows[start:] in place with the pivot row `prow`
    (prow[c] != 0).

    A row that is zero at c is left as it is; any other row is replaced
    by zeros up to c followed by its updated entries after c, so entries
    before c are not read from either row.  Row lists are never changed,
    only replaced."""
    axpy, mul = field.axpy, field.mul
    hits = [i for i in range(start, len(rows)) if rows[i][c]]
    if hits:
        f0 = field.neg(field.inv(prow[c]))
        head = [field.zero] * (c + 1)
        tail = prow[c + 1:]
        for i in hits:
            row = rows[i]
            rows[i] = head + axpy(row[c + 1:], mul(row[c], f0), tail)


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


def field_solve_left(field, rows, target):
    """One x with x * rows == target, or None: a left-kernel vector y of
    (rows; target) with y_m != 0 gives x = -y[:m] / y_m."""
    m = len(rows)
    for y in field_left_kernel(field, list(rows) + [list(target)]):
        if y[m]:
            f = field.neg(field.inv(y[m]))
            return [field.mul(f, c) for c in y[:m]]
    return None


def t_combination(ring, digits, rows, n):
    """sum(t_i * row_i) over the length-n rows, as a list of entries."""
    add, mul, zero = ring.add, ring.mul, ring.zero
    acc = [zero] * n
    for t, row in zip(digits, rows):
        if t != zero:
            for j, e in enumerate(row):
                acc[j] = add(acc[j], mul(t, e))
    return acc


def iter_span(field, basis, include_zero=False):
    """All vectors in the span of `basis` (list of row vectors)."""
    d = len(basis)
    m = len(basis[0]) if basis else 0
    for coeffs in product(field.elements(), repeat=d):
        if not include_zero and all(c == 0 for c in coeffs):
            continue
        vec = [0] * m
        for c, brow in zip(coeffs, basis):
            if c:
                for j in range(m):
                    if brow[j]:
                        vec[j] = field.add(vec[j], field.mul(c, brow[j]))
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
    sub, mul = ring.sub, ring.mul
    return [sub(x, mul(f, y)) for x, y in zip(row, pivot_row)]


def diagonal_reduction(A):
    """(exponents, L, R) with L*A*R = diag(gamma^e1, ..., gamma^et, 0...),
    L and R invertible, e1 <= ... <= et < nu."""
    return _diagonalise(A, transforms=True)


def diagonal_exponents(A):
    """The exponents of diagonal_reduction(A), without building L and R."""
    return _diagonalise(A, transforms=False)


def _diagonalise(A, transforms):
    """Minimal-valuation pivoting on A.  With `transforms`, row operations
    run on [W | L] and column operations on the rows of Rt (R transposed);
    without, only W is kept.  Pivots and exponents depend on W's trailing
    block alone: the column operations only zero the pivot row, which no
    later step reads."""
    ring = A.ring
    zero, shift_down = ring.zero, ring.shift_down
    m, n = A.rows, A.cols
    if transforms:
        W = [list(row) + [ring.one if i == j else zero for j in range(m)]
             for i, row in enumerate(A.data)]
        Rt = [[ring.one if i == j else zero for j in range(n)]
              for i in range(n)]
    else:
        W = [list(row) for row in A.data]
    exps = []
    for k in range(min(m, n)):
        best = _min_valuation_pivot(ring, W, range(k, m), range(k, n))
        if best is None:
            break
        e, pi, pj = best
        W[k], W[pi] = W[pi], W[k]
        if pj != k:
            for row in W:
                row[k], row[pj] = row[pj], row[k]
            if transforms:
                Rt[k], Rt[pj] = Rt[pj], Rt[k]
        inv = ring.invert_unit(shift_down(W[k][k], e))
        # columns before k are zero in rows k and below
        pivot = W[k][k:] = [ring.mul(inv, x) for x in W[k][k:]]
        # clear the pivot column with row operations
        for i in range(k + 1, m):
            if W[i][k] != zero:
                W[i][k:] = _sub_multiple(ring, W[i][k:],
                                         shift_down(W[i][k], e), pivot)
        if transforms:
            # clear the pivot row with column operations; W[k][k] is
            # gamma^e and the rest of column k is zero, so on W they only
            # zero the row
            for j in range(k + 1, n):
                if W[k][j] != zero:
                    Rt[j] = _sub_multiple(ring, Rt[j],
                                          shift_down(W[k][j], e), Rt[k])
                    W[k][j] = zero
        exps.append(e)
    if not transforms:
        return tuple(exps)
    R = [[Rt[j][i] for j in range(n)] for i in range(n)]
    return (tuple(exps),
            RingMatrix._canonical(ring, [row[n:] for row in W], m),
            RingMatrix._canonical(ring, R, n))


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
    """Whether some u in R^m solves u*A == target (full ring coefficients)."""
    ring = A.ring
    exps, _, R = diagonal_reduction(A)
    # u*A = target  <=>  y*D = target*R with y = u*L^{-1} unconstrained
    for j in range(A.cols):
        acc = ring.zero
        for i in range(A.cols):
            acc = ring.add(acc, ring.mul(target[i], R.entry(i, j)))
        if j < len(exps):
            if ring.valuation(acc) < exps[j]:
                return False
        elif acc != ring.zero:
            return False
    return True


def _is_layer_closed(A):
    """Whether gamma times each row is zero or literally a later row.

    Matrices stacked from gamma-layers have this property; it certifies
    the gamma-generator-sequence condition without any search."""
    ring = A.ring
    gamma = ring.gamma
    for i in range(A.rows):
        g = [ring.mul(gamma, e) for e in A.data[i]]
        if all(e == ring.zero for e in g):
            continue
        if not any(list(A.data[j]) == g for j in range(i + 1, A.rows)):
            return False
    return True


def gamma_span_solve(A, target, budget=DEFAULT_ORACLE_BUDGET):
    """Coefficients t in T^m with sum(t_i * row_i) == target, or None.

    Solves the projected system over the residue field, then enumerates the
    affine solution coset, lifting each candidate through T and checking
    exactly over the ring.  Cost q^(kernel dim)."""
    ring = A.ring
    field = ring.residue
    m = A.rows
    # trivial hits that need no search
    if all(e == ring.zero for e in target):
        return (ring.zero,) * m
    if m == 0:
        return None
    tlist = list(target)
    for i, row in enumerate(A.data):
        if list(row) == tlist:
            return tuple(ring.one if j == i else ring.zero for j in range(m))
    rows = A.residue_rows()
    tvec = [ring.project(e) for e in target]
    part = field_solve_left(field, rows, tvec)
    if part is None:
        return None
    kernel = field_left_kernel(field, rows)
    if field.q ** len(kernel) > budget:
        # membership in the full module span is necessary for membership in
        # the T-span; a cheap reduction settles clear negatives exactly
        if not module_solve_left(A, target):
            return None
        raise BudgetExceeded(
            f"span membership needs {field.q}^{len(kernel)} candidates",
            requested=field.q ** len(kernel), allowed=budget)
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


def is_gamma_generator_sequence(A, budget=DEFAULT_ORACLE_BUDGET):
    """True iff the ordered rows satisfy: gamma*row_i is a T-combination of
    the later rows, and gamma*last == 0."""
    ring = A.ring
    if A.rows == 0:
        return True
    gamma = ring.gamma
    last = [ring.mul(gamma, e) for e in A.data[-1]]
    if any(e != ring.zero for e in last):
        return False
    for i in range(A.rows - 1):
        target = [ring.mul(gamma, e) for e in A.data[i]]
        tail = RingMatrix._canonical(ring, A.data[i + 1:], A.cols)
        if gamma_span_solve(tail, target, budget=budget) is None:
            return False
    return True


def is_gamma_linearly_independent(A, method=ORACLE,
                                  budget=DEFAULT_ORACLE_BUDGET,
                                  check_precondition=True):
    """No nontrivial T-combination of the rows is zero.

    ORACLE enumerates the lifted left kernel of the projection (complete
    for arbitrary row sets).  SHAPE_FAST compares the gamma-dimension with
    the row count and is only valid on gamma-generator sequences."""
    ring = A.ring
    if A.rows == 0:
        return True
    if method == SHAPE_FAST:
        if check_precondition and not is_gamma_generator_sequence(A, budget):
            raise MethodPreconditionViolated(
                "shape-fast independence needs a gamma-generator sequence")
        if A.rows == ring.nu * A.cols:
            # full gamma-dimension forces every diagonal exponent to be 0,
            # which is exactly full column rank of the projection
            return field_rank(ring.residue, A.residue_rows()) == A.cols
        return gamma_dimension(A) == A.rows
    if method != ORACLE:
        raise ValueError(f"unknown method {method!r}")
    field = ring.residue
    kernel = field_left_kernel(field, A.residue_rows())
    if not kernel:
        return True
    if _is_layer_closed(A):
        # the rows form a gamma-generator sequence by inspection, so the
        # shape criterion decides independence without enumeration
        return gamma_dimension(A) == A.rows
    if field.q ** len(kernel) > budget:
        raise BudgetExceeded(
            f"oracle needs {field.q}^{len(kernel)} kernel lifts",
            requested=field.q ** len(kernel), allowed=budget)
    # a nonzero kernel vector lifts to a nonzero T-vector: lift is
    # injective and lift(0) == 0
    return _lifted_solution(A, [ring.zero] * A.cols,
                            iter_span(field, kernel)) is None


# ---------------------------------------------------------------------------
# gamma-bases and standard forms

def gamma_basis(A):
    """A gamma-basis of the row module of A, ordered as a gamma-generator
    sequence (layer b holds gamma^(b - e_j) * generator_j for e_j <= b)."""
    ring = A.ring
    exps, L, _ = diagonal_reduction(A)
    LA = L.matmul(A)
    out = []
    for b in range(ring.nu):
        for j, e in enumerate(exps):
            if e <= b:
                g = ring.gamma_power(b - e)
                out.append([ring.mul(g, x) for x in LA.data[j]])
    return RingMatrix._canonical(ring, out, A.cols)


def standard_form(A):
    """(S, perm): S is left-equivalent to A up to the column permutation
    `perm` and matches the block-triangular pattern with diagonal blocks
    gamma^i * I_{k_i}.  Output column j is input column perm[j]."""
    ring = A.ring
    if A.is_zero():
        raise ZeroMatrix("standard form undefined for the zero matrix")
    zero, shift_down = ring.zero, ring.shift_down
    W = [list(row) for row in A.data]
    n = A.cols
    free_rows = list(range(A.rows))
    free_cols = list(range(n))
    placed = []        # (row vector, level, pivot col)
    while free_rows and free_cols:
        best = _min_valuation_pivot(ring, W, free_rows, free_cols)
        if best is None:
            break
        e, pi, pj = best
        inv = ring.invert_unit(shift_down(W[pi][pj], e))
        W[pi] = [ring.mul(inv, x) for x in W[pi]]
        # clear the pivot column from every other candidate row and from
        # already-placed rows of the same level (keeps the identity blocks)
        for i in free_rows:
            if i != pi and W[i][pj] != zero:
                W[i] = _sub_multiple(ring, W[i], shift_down(W[i][pj], e),
                                     W[pi])
        for rec in placed:
            if rec[1] == e and rec[0][pj] != zero:
                rec[0] = _sub_multiple(ring, rec[0],
                                       shift_down(rec[0][pj], e), W[pi])
        placed.append([W[pi], e, pj])
        free_rows.remove(pi)
        free_cols.remove(pj)
    perm = tuple(rec[2] for rec in placed) + tuple(free_cols)
    S = RingMatrix._canonical(ring, [[rec[0][j] for j in perm]
                                     for rec in placed], n)
    return S, perm


def gamma_standard_form(A):
    """(G, perm): gamma-basis of the row module of the column-permuted A,
    arranged in the layered gamma-standard-form pattern."""
    ring = A.ring
    S, perm = standard_form(A)
    levels = [ring.valuation(S.data[i][i]) for i in range(S.rows)]
    out = []
    for layer in range(ring.nu):
        for i, e in enumerate(levels):
            if e <= layer:
                g = ring.gamma_power(layer - e)
                v = [ring.mul(g, x) for x in S.data[i]]
                # canonical reduction: clear the pivot columns of the
                # higher-level rows of this layer
                for j in range(i + 1, S.rows):
                    ej = levels[j]
                    if e < ej <= layer and v[j] != ring.zero:
                        v = _sub_multiple(ring, v, ring.shift_down(v[j], ej),
                                          S.data[j])
                out.append(v)
    return RingMatrix._canonical(ring, out, A.cols), perm


# ---------------------------------------------------------------------------
# determinants

def determinant(A):
    """Exact determinant by valuation-pivoted elimination of the first
    column (divisions only by units) down to a 2x2 block, which is ad - bc,
    or a 1x1 block, which is its entry."""
    ring = A.ring
    if A.rows != A.cols:
        raise NotSquare("determinant needs a square matrix")
    mul, shift_down = ring.mul, ring.shift_down
    W = list(A.data)
    det = ring.one
    while len(W) > 2:
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
    if len(W) == 2:
        (a, b), (c, d) = W
        return mul(det, ring.sub(mul(a, d), mul(b, c)))
    return mul(det, W[0][0]) if W else det


def residue_determinant(A):
    """det of the projection, in the residue field: ad - bc and a for
    sizes 2 and 1, field_echelon beyond.  It never reads the ring
    determinant, so each of the two checks the other."""
    if A.rows != A.cols:
        raise NotSquare("determinant needs a square matrix")
    field, proj = A.ring.residue, A.ring.project
    if A.rows == 2:
        (a, b), (c, d) = A.data
        return field.sub(field.mul(proj(a), proj(d)),
                         field.mul(proj(b), proj(c)))
    if A.rows == 1:
        return proj(A.data[0][0])
    return field_echelon(field, A.residue_rows())[2]
