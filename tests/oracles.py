"""Brute-force reference enumerators that the fast library paths are
compared against."""

from collections import Counter
from functools import reduce
from itertools import combinations, product

from chaincodes.conv import sliding_matrix
from chaincodes.errors import BudgetExceeded, CrossCheckFailed
from chaincodes.fields import _digits, _poly_mulmod, _poly_powmod, factorize
from chaincodes.linalg import (RingMatrix, _min_valuation_pivot,
                               _sub_multiple, determinant, field_left_kernel,
                               field_rank, gamma_span_solve,
                               is_gamma_linearly_independent,
                               residue_determinant, standard_form,
                               t_combination)


def message_weights(C, j):
    """(u, weight of u S_j) for every T-message u (rep indices) with a
    nonzero first block, each codeword rebuilt from all (j+1)k scaled
    rows of S_j."""
    ring = C.ring
    k, n = C.k, C.n
    reps = ring.representatives()
    q = ring.q
    S = sliding_matrix(C.encoder, j)
    zero = ring.zero
    # scaled-row tables: scaled[r][rep index] = rep * row_r
    scaled = [[tuple(ring.mul(t, e) for e in S.row(r)) if t != zero else None
               for t in reps] for r in range(S.rows)]
    width = (j + 1) * n
    zero_head = (0,) * k
    for head in product(range(q), repeat=k):
        if head == zero_head:
            continue
        for tail in product(range(q), repeat=j * k):
            acc = [zero] * width
            for r, ti in enumerate(head + tail):
                srow = scaled[r][ti]
                if srow is not None:
                    for c in range(width):
                        acc[c] = ring.add(acc[c], srow[c])
            yield head + tail, sum(1 for e in acc if e != zero)


def socle_message_weights(C, j):
    """The weight of each codeword that column_distance's walk visits,
    each rebuilt from its scaled rows: T-digits on the socle heads
    gamma^(nu-1-e) row of C's pivot rows (row, e, _), cut to the width
    of S_j, the first nonzero digit 1, and any T-digits on block rows
    1..j of S_j."""
    ring = C.ring
    reps = ring.representatives()
    S = sliding_matrix(C.encoder, j)
    width = S.cols
    heads = [[ring.mul(ring.gamma_power(ring.nu - 1 - e), x)
              for x in (list(row) + [ring.zero] * width)[:width]]
             for row, e, _ in C._pivots]
    rows = heads + [list(row) for row in S.data[C.k:]]
    s = len(heads)
    for r in range(s):
        for free in product(range(ring.q), repeat=len(rows) - 1 - r):
            acc = [ring.zero] * width
            for t, row in zip((0,) * r + (1,) + free, rows):
                acc = [ring.add(x, ring.mul(reps[t], e))
                       for x, e in zip(acc, row)]
            yield sum(1 for e in acc if e != ring.zero)


def column_distance_oracle(C, j):
    """Minimum truncated weight over messages with nonzero first block."""
    return min(w for _, w in message_weights(C, j))


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


def minors_condition_oracle(S, L, n, k0):
    """Whether every admissible column selection of S has projected rows
    of full column rank, one field_rank call per selection."""
    field = S.ring.residue
    need = (L + 1) * k0
    proj = S.residue_rows()
    return all(field_rank(field, [[row[c] for c in subset] for row in proj])
               == need for subset in _admissible_column_subsets(L, n, k0))


class CountingField:
    """A field whose method calls are counted by name in `calls`; every
    attribute is the wrapped field's."""

    def __init__(self, field):
        self.field = field
        self.calls = Counter()

    def __getattr__(self, name):
        attr = getattr(self.field, name)
        if not callable(attr):
            return attr

        def counted(*args):
            self.calls[name] += 1
            return attr(*args)
        return counted


def clear_column_by_row_update(field, rows, start, prow, c):
    """rows with each of rows[start:] replaced by row - (row[c] / prow[c])
    prow, entry by entry in plain codes (prow[c] != 0)."""
    inv = field.inv(prow[c])
    return list(rows[:start]) + [
        [field.sub(a, field.mul(field.mul(row[c], inv), b))
         for a, b in zip(row, prow)] for row in rows[start:]]


def field_echelon_by_row_update(field, rows, width=None):
    """(rows, rank, det) of forward elimination in plain codes: in each of
    the first `width` columns the first nonzero entry at or below row r is
    swapped up and cleared below it by clear_column_by_row_update; det is
    the signed product of the pivots, zero once a column has none."""
    work = [list(row) for row in rows]
    if width is None:
        width = len(work[0]) if work else 0
    det, r = field.one, 0
    for c in range(width):
        if r == len(work):
            break
        below = [i for i in range(r, len(work)) if work[i][c]]
        if not below:
            det = field.zero
            continue
        if below[0] != r:
            work[r], work[below[0]] = work[below[0]], work[r]
            det = field.neg(det)
        det = field.mul(det, work[r][c])
        work = clear_column_by_row_update(field, work, r + 1, work[r], c)
        r += 1
    return work, r, det


def independent_by_enumeration(A):
    """Whether no nontrivial T-combination of the rows of A is zero, by
    lifting every nonzero vector of the residue left kernel through T: a
    zero T-combination projects to a kernel vector, and its digits are the
    lifts of that vector's codes.  No shape criterion is consulted."""
    ring = A.ring
    field = ring.residue
    basis = field_left_kernel(field, A.residue_rows())
    for coeffs in product(range(field.q), repeat=len(basis)):
        if not any(coeffs):
            continue
        codes = [0] * A.rows
        for c, vec in zip(coeffs, basis):
            codes = [field.add(x, field.mul(c, y)) for x, y in zip(codes, vec)]
        acc = [ring.zero] * A.cols
        for code, row in zip(codes, A.data):
            t = ring.lift(code)
            acc = [ring.add(x, ring.mul(t, e)) for x, e in zip(acc, row)]
        if all(e == ring.zero for e in acc):
            return False
    return True


def generator_sequence_by_enumeration(A):
    """Whether gamma * row_i is a T-combination of the rows after i for
    every i (the empty combination, zero, for the last row), by
    enumerating every T-digit vector of the later rows.  No
    gamma-dimension is consulted."""
    ring = A.ring
    reps = ring.representatives()
    for i, row in enumerate(A.data):
        target = [ring.mul(ring.gamma, e) for e in row]
        later = A.data[i + 1:]
        if not any(t_combination(ring, digits, later, A.cols) == target
                   for digits in product(reps, repeat=len(later))):
            return False
    return True


def _stacked_shifts(G, row_idx):
    """The rows z^t * g_i(z), t <= deg G, for i in row_idx (i-major), as
    coefficient rows of width (2 deg G + 1) n."""
    m = max(G.degree, 0)
    S = sliding_matrix(G, 2 * m)
    return RingMatrix(G.ring, [S.data[t * G.k + i] for i in row_idx
                               for t in range(m + 1)], S.cols)


def stacked_independence(G):
    """Whether the shifted rows z^t * g_i, t <= deg G, of a polynomial
    matrix are gamma-linearly independent, on the whole
    k(m+1) x (2m+1)n stack, whether or not G is delay-free."""
    return is_gamma_linearly_independent(_stacked_shifts(G, range(G.k)))


def polynomial_gamma_basis_by_stacking(G):
    """Whether the rows of G(z) form a gamma-basis, decided on the stack
    with digit degree up to deg G alone: the stacked rows are
    independent, and gamma * g_i is a T-combination of the shifted rows
    after i, found by a bounded T-digit search (gamma_span_solve)."""
    if not stacked_independence(G):
        return False
    ring = G.ring
    S = sliding_matrix(G, 2 * max(G.degree, 0))
    for i in range(G.k):
        target = [ring.mul(ring.gamma, e) for e in S.data[i]]
        if gamma_span_solve(_stacked_shifts(G, range(i + 1, G.k)),
                            target) is None:
            return False
    return True


def field_rows_independent_by_stacking(G):
    """Whether the rows of G(z) over a field (nu = 1) are linearly
    independent over F[z], decided by the field rank of the shifted rows
    z^t * g_i, t <= k deg G, cut from S_((k+1) deg G): digit degree one
    step past the (k - 1) deg G that Cramer's rule needs."""
    m = max(G.degree, 0)
    top = G.k * m
    S = sliding_matrix(G, top + m)
    proj = S.residue_rows()
    rows = [proj[t * G.k + i] for i in range(G.k) for t in range(top + 1)]
    return field_rank(G.ring.residue, rows) == len(rows)


def is_unit_determinant(A):
    """Unit-determinant test; the ring path and the residue-field path are
    both evaluated and must agree."""
    ring = A.ring
    via_residue = residue_determinant(A) != ring.residue.zero
    via_ring = ring.valuation(determinant(A)) == 0
    if via_ring != via_residue:
        raise CrossCheckFailed("determinant paths disagree")
    return via_ring


def superregular_minor_valuations(spec):
    """{(I, J): valuation of the minor} over every proper pair (1-based)
    of the Toeplitz matrix, one submatrix and one cross-checked
    determinant per minor; the matrix is gamma-superregular exactly when
    every valuation is 0."""
    ring = spec.ring
    A = spec.materialize()
    out = {}
    for I, J in proper_index_pairs_by_generator(spec.size):
        sub = A.submatrix([i - 1 for i in I], [j - 1 for j in J])
        out[I, J] = 0 if is_unit_determinant(sub) \
            else ring.valuation(determinant(sub))
    return out


def _encode(digits, p):
    return reduce(lambda acc, d: acc * p + d, reversed(digits), 0)


def zech_tables_by_polynomials(field):
    """(generator, exp, log, zech) of an extension field: the generator is
    the first code from z on whose (q-1)/f-th powers are all != 1, and
    every power of it is one polynomial product reduced by the modulus."""
    p, h, q = field.p, field.h, field.q
    mod = list(field.modulus)
    gen = next(code for code in range(p, q)
               if all(_poly_powmod(_digits(code, p, h), (q - 1) // f, mod, p)
                      != [1] for f in factorize(q - 1)))
    g = _digits(gen, p, h)
    exp = [0] * (q - 1)
    log = [0] * q
    cur = [1]
    for i in range(q - 1):
        code = _encode(cur + [0] * (h - len(cur)), p)
        exp[i] = code
        log[code] = i
        cur = _poly_mulmod(cur, g, mod, p)
    zech = []
    for x in range(q - 1):
        digs = _digits(exp[x], p, h)
        digs[0] = (digs[0] + 1) % p
        code = _encode(digs, p)
        zech.append(log[code] if code else -1)
    return gen, exp, log, zech


def teichmuller_by_iteration(ring, code):
    """The Teichmueller element over a residue code of a Galois ring:
    x -> x^q from the coordinate lift until it is fixed."""
    x = ring.residue.coords(code)
    if code == 0:
        return x
    for _ in range(ring.r + 2):
        nxt = ring._pow(x, ring.q)
        if nxt == x:
            return x
        x = nxt
    raise AssertionError("Teichmueller iteration did not fix")


def teichmuller_by_power(ring, code):
    """The Teichmueller element over a residue code of a Galois ring as
    x^(q^(r-1)) for the coordinate lift x: the (q-1)-th root of unity over
    code, or 0."""
    return ring_power(ring, ring.residue.coords(code), ring.q ** (ring.r - 1))


def ring_power(ring, a, e):
    """a^e by square-and-multiply in any chain ring."""
    acc = ring.one
    while e:
        if e & 1:
            acc = ring.mul(acc, a)
        a = ring.mul(a, a)
        e >>= 1
    return acc


def invert_unit_by_exponent(ring, a):
    """a^(|units| - 1), the units forming a group of order
    q^(nu-1) (q-1)."""
    return ring_power(ring, a, ring.q ** (ring.nu - 1) * (ring.q - 1) - 1)


def determinant_by_elimination(A):
    """Exact determinant by valuation-pivoted elimination of the first
    column, block after block down to the empty one, with no closed form
    for small blocks."""
    ring = A.ring
    W = list(A.data)
    det = ring.one
    while W:
        best = _min_valuation_pivot(ring, W, range(len(W)), (0,))
        if best is None:
            return ring.zero
        e, pi, _ = best
        if pi:
            W[0], W[pi] = W[pi], W[0]
            det = ring.neg(det)
        pivot, tail = W[0][0], W[0][1:]
        det = ring.mul(det, pivot)
        inv_unit = ring.invert_unit(ring.unit_part(pivot))
        trailing = []
        for row in W[1:]:
            if row[0] == ring.zero:
                trailing.append(row[1:])
            else:
                f = ring.mul(ring.shift_down(row[0], e), inv_unit)
                trailing.append(_sub_multiple(ring, row[1:], f, tail))
        W = trailing
    return det


def proper_index_pairs_by_generator(ell):
    """The proper (I, J) pairs of an ell x ell upper-triangular Toeplitz
    matrix, 1-based, generated size by size."""
    idx = range(1, ell + 1)
    for s in range(1, ell + 1):
        for I in combinations(idx, s):
            for J in combinations(idx, s):
                if all(i <= j for i, j in zip(I, J)):
                    yield I, J


def matmul(A, B):
    """The product A * B by the schoolbook sum, as a matrix of canonical
    entries."""
    if A.cols != B.rows:
        raise ValueError("dimension mismatch")
    ring = A.ring
    out = []
    for arow in A.data:
        orow = []
        for j in range(B.cols):
            acc = ring.zero
            for a, brow in zip(arow, B.data):
                if a != ring.zero:
                    acc = ring.add(acc, ring.mul(a, brow[j]))
            orow.append(acc)
        out.append(orow)
    return RingMatrix._canonical(ring, out, B.cols)


def block_codewords(code):
    """All q^k codewords of a block code, the T-combinations of its
    encoder's rows (with repetition impossible: rows are a gamma-basis)."""
    ring, rows = code.ring, code.encoder.data
    for digits in product(ring.representatives(), repeat=code.k):
        yield tuple(t_combination(ring, digits, rows, code.n))


def min_distance_by_enumeration(code, budget):
    """Minimum Hamming weight over all q^k codewords of a block code but
    zero (None when there is none), with the budget counting the q^k
    codewords; no column-distance walk is consulted."""
    ring = code.ring
    total = ring.q ** code.k
    if total > budget:
        raise BudgetExceeded(f"{total} codewords exceed budget {budget}",
                             requested=total, allowed=budget)
    best = None
    for word in block_codewords(code):
        w = sum(1 for e in word if e != ring.zero)
        if w and (best is None or w < best):
            best = w
            if best == 1:
                break
    return best


def gamma_standard_form_by_clearing(A):
    """(G, perm) of the gamma-standard form by direct clearing: layer b
    holds gamma^(b - e) * S_i for each row S_i of (S, perm) =
    standard_form(A) with level e <= b, each with the pivot column of
    every later row S_j of level e < e_j <= b cleared by the unscaled
    S_j."""
    ring = A.ring
    S, perm = standard_form(A)
    levels = [ring.valuation(S.data[i][i]) for i in range(S.rows)]
    out = []
    for layer in range(ring.nu):
        for i, e in enumerate(levels):
            if e <= layer:
                g = ring.gamma_power(layer - e)
                v = [ring.mul(g, x) for x in S.data[i]]
                for j in range(i + 1, S.rows):
                    ej = levels[j]
                    if e < ej <= layer and v[j] != ring.zero:
                        v = _sub_multiple(ring, v, ring.shift_down(v[j], ej),
                                          S.data[j])
                out.append(v)
    return RingMatrix._canonical(ring, out, A.cols), perm


def galois_product_by_schoolbook(ring, a, b):
    """a * b in GR(p^r, s): the schoolbook product of the coordinate
    polynomials reduced from degree 2s - 2 down by the monic modulus f
    itself (z^i = z^(i-s) (z^s - f)), each kept coefficient then taken mod
    p^r once."""
    s, f, m = ring.s, ring.modulus, ring.pr
    full = [0] * (2 * s - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            full[i + j] += ai * bj
    for i in range(2 * s - 2, s - 1, -1):
        for k in range(s):
            full[i - s + k] -= full[i] * f[k]
    return tuple([c % m for c in full[:s]])


def teichmuller_by_root_power(ring, code):
    """The Teichmueller element over a residue code of a Galois ring as
    y^(p^(r-1)) for the coordinate lift y of code^(p^k), k = -(r-1) mod s:
    that power removes the 1 + pGR part of a unit and lands over
    code^(p^(k+r-1)) = code."""
    k = -(ring.r - 1) % ring.s
    y = ring.residue.coords(ring.residue.pow(code, ring.p ** k))
    return ring_power(ring, y, ring.p ** (ring.r - 1))


def galois_product_by_division(ring, a, b):
    """a * b in GR(p^r, s) = Z_{p^r}[z]/(f): the schoolbook product of the
    coordinate polynomials, then long division by the monic f, every
    coefficient kept mod p^r."""
    m, f = ring.pr, ring.modulus
    s = len(f) - 1
    rem = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            rem[i + j] = (rem[i + j] + x * y) % m
    while len(rem) > s:
        # subtract lead * z^d * f from the top term lead * z^(d+s)
        lead, d = rem.pop(), len(rem) - s
        for k in range(s):
            rem[d + k] = (rem[d + k] - lead * f[k]) % m
    return tuple(rem)


def optimal_cd_bound_by_cases(j, n, k, nu):
    """The distance-optimal column-distance bound in its two-branch form,
    N = k - floor(k/nu) nu: (n - ceil(k/nu))(j + 1) + 1 up to j = N, and
    less (ceil(k/nu) - floor(k/nu))(N + 1) past it."""
    big, small = -(-k // nu), k // nu
    N = k - small * nu
    if j <= N:
        return (n - big) * (j + 1) + 1
    return (n - big) * (j + 1) - (big - small) * (N + 1) + 1
