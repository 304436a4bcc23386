"""Linear block codes over a chain ring.

A block code is the T-span of the rows of a gamma-encoder: the set of all
combinations sum(u_i * row_i) with digits u_i drawn from the transversal T.
Distances are computed by brute-force enumeration of the q^k messages.
"""

from __future__ import annotations

from itertools import product
from math import ceil

from .conv import DEFAULT_DISTANCE_BUDGET
from .errors import BudgetExceeded, InvalidParams
from .linalg import (RingMatrix, gamma_basis, is_gamma_generator_sequence,
                     is_gamma_linearly_independent, parameters_of, shape_of,
                     t_combination)


class BlockCode:
    """Length-n block code given by a gamma-encoder.

    Any generator matrix is accepted; if its rows are not already a
    gamma-basis of the row module it is converted through gamma_basis and
    the original is kept in `source`."""

    def __init__(self, generator: RingMatrix):
        self.ring = generator.ring
        self.n = generator.cols
        self.source = generator
        if (is_gamma_generator_sequence(generator)
                and is_gamma_linearly_independent(generator)):
            self.encoder = generator
        else:
            self.encoder = gamma_basis(generator)
        self.k = self.encoder.rows

    def shape(self):
        return shape_of(self.source)

    def parameters(self):
        return parameters_of(self.source)

    def codewords(self):
        """All q^k codewords (with repetition impossible: rows are a
        gamma-basis)."""
        ring, rows = self.ring, self.encoder.data
        for digits in product(ring.representatives(), repeat=self.k):
            yield tuple(t_combination(ring, digits, rows, self.n))

    def __repr__(self):
        return f"BlockCode(n={self.n}, k={self.k}, ring={self.ring!r})"


def min_distance_block(code: BlockCode, budget=DEFAULT_DISTANCE_BUDGET):
    """Minimum Hamming weight over the nonzero codewords."""
    ring = code.ring
    total = ring.q ** code.k
    if total > budget:
        raise BudgetExceeded(f"{total} codewords exceed budget {budget}",
                             requested=total, allowed=budget)
    best = None
    for word in code.codewords():
        w = sum(1 for e in word if e != ring.zero)
        if w and (best is None or w < best):
            best = w
            if best == 1:
                break
    return best


def singleton_bound_block(n, k, nu):
    """d <= n - ceil(k/nu) + 1."""
    if k < 1 or nu < 1 or n < ceil(k / nu):
        raise InvalidParams(f"bad block parameters n={n}, k={k}, nu={nu}")
    return n - ceil(k / nu) + 1


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
