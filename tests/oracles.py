"""Brute-force reference enumerators that the fast library paths are
compared against."""

from itertools import product

from chaincodes.conv import _admissible_column_subsets, sliding_matrix
from chaincodes.linalg import field_rank


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
