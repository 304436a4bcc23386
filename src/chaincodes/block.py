"""Linear block codes over a chain ring.

A block code is the T-span of the rows of a gamma-encoder: the set of all
combinations sum(u_i * row_i) with digits u_i drawn from the transversal T.
As a degree-0 convolutional code it has minimum distance d_0 (the budget
still counts all q^k messages) and Singleton bound the j = 0 column bound.
"""

from __future__ import annotations

from math import ceil

from .conv import (DEFAULT_DISTANCE_BUDGET, ConvCode, PolyMatrix,
                   column_distance, optimal_cd_bound)
from .errors import InvalidParams, check_budget
from .linalg import RingMatrix, gamma_basis, parameters_of, shape_of


class BlockCode:
    """Length-n block code given by a gamma-encoder.

    Any generator matrix is accepted; if its rows are not already a
    gamma-basis of the row module it is converted through gamma_basis and
    the original is kept in `source`.  The decision is the validation of
    the degree-0 convolutional code of the generator, which is kept."""

    def __init__(self, generator: RingMatrix):
        self.ring = ring = generator.ring
        self.n = n = generator.cols
        self.source = self.encoder = generator
        try:
            self._conv = ConvCode(ring, n, PolyMatrix(ring, [generator],
                                                      generator.rows, n))
        except ValueError:  # the rows are not a gamma-basis
            self.encoder = gamma_basis(generator)
            self._conv = ConvCode(ring, n, PolyMatrix(
                ring, [self.encoder], self.encoder.rows, n))
        self.k = self.encoder.rows

    def shape(self):
        return shape_of(self.source)

    def parameters(self):
        return parameters_of(self.source)

    def __repr__(self):
        return f"BlockCode(n={self.n}, k={self.k}, ring={self.ring!r})"


def min_distance_block(code: BlockCode, budget=DEFAULT_DISTANCE_BUDGET):
    """Minimum Hamming weight over the nonzero codewords (None for k = 0):
    d_0 of the encoder's degree-0 code, validated when the block code was
    built, whose walk visits (q^s - 1)/(q - 1) of the q^k messages the
    budget counts."""
    check_budget("codewords", code.ring.q ** code.k, budget)
    if not code.k:
        return None
    return column_distance(code._conv, 0, budget=budget)


def singleton_bound_block(n, k, nu):
    """d <= n - ceil(k/nu) + 1, the column-distance bound at j = 0."""
    return optimal_cd_bound(0, n, k, nu)


def is_mds(code: BlockCode, budget=DEFAULT_DISTANCE_BUDGET):
    bound = singleton_bound_block(code.n, code.k, code.ring.nu)
    return min_distance_block(code, budget=budget) == bound


def nu_optimal_sets(k, nu):
    """All parameter tuples (k_0..k_{nu-1}) with sum k_i*(nu-i) = k that
    minimize sum k_i; every returned tuple has sum k_i = ceil(k/nu).
    Lexicographically ordered."""
    if k < 0 or nu < 1:
        raise InvalidParams(f"bad k={k}, nu={nu}")
    if k == 0:
        return [(0,) * nu]
    target_total = ceil(k / nu)
    out = []

    def rec(prefix, remaining_weight, remaining_total):
        i = len(prefix)
        if i == nu:
            if remaining_weight == 0 and remaining_total == 0:
                out.append(tuple(prefix))
            return
        w = nu - i
        # largest count still compatible with both budgets
        for c in range(min(remaining_total, remaining_weight // w) + 1):
            rec(prefix + [c], remaining_weight - c * w, remaining_total - c)

    rec([], k, target_total)
    return out
