"""Brute-force reference enumerators that the fast library paths are
compared against."""

from itertools import product

from chaincodes.constructions import proper_index_pairs
from chaincodes.conv import _admissible_column_subsets, sliding_matrix
from chaincodes.errors import CrossCheckFailed
from chaincodes.linalg import determinant, field_rank, residue_determinant


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


def column_distance_oracle(C, j):
    """Minimum truncated weight over messages with nonzero first block."""
    return min(w for _, w in message_weights(C, j))


def minors_condition_oracle(S, L, n, k0):
    """Whether every admissible column selection of S has projected rows
    of full column rank, one field_rank call per selection."""
    field = S.ring.residue
    need = (L + 1) * k0
    proj = S.residue_rows()
    return all(field_rank(field, [[row[c] for c in subset] for row in proj])
               == need for subset in _admissible_column_subsets(L, n, k0))


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
    for I, J in proper_index_pairs(spec.size):
        sub = A.submatrix([i - 1 for i in I], [j - 1 for j in J])
        out[I, J] = 0 if is_unit_determinant(sub) \
            else ring.valuation(determinant(sub))
    return out
