import random
from collections import Counter
from itertools import product
from math import ceil, log

import pytest

from chaincodes import GaloisRing, TruncatedPolyRing, zmod
from chaincodes.block import (BlockCode, is_mds, min_distance_block,
                              nu_optimal_sets, singleton_bound_block)
from chaincodes.conv import (L_index, PolyMatrix, field_L_index,
                             is_polynomial_gamma_basis, optimal_cd_bound)
from chaincodes.errors import BudgetExceeded, InvalidParams
from chaincodes.linalg import (RingMatrix, gamma_basis, gamma_dimension,
                               is_gamma_generator_sequence)
from oracles import (block_codewords, generator_sequence_by_enumeration,
                     independent_by_enumeration, min_distance_by_enumeration)


def M(ring, rows):
    return RingMatrix(ring, rows)


@pytest.fixture(scope="module")
def z4():
    return zmod(4)


def test_block_code_expands_generator(z4):
    code = BlockCode(M(z4, [[1, 1]]))
    assert code.k == 2
    assert [[e[0] for e in row] for row in code.encoder.data] == \
        [[1, 1], [2, 2]]
    assert code.shape() == (1, 1)
    assert code.parameters() == (1, 0)
    assert repr(code) == "BlockCode(n=2, k=2, ring=Z_4)"


def test_block_code_keeps_gamma_basis(z4):
    gen = M(z4, [[1, 1], [2, 2]])
    code = BlockCode(gen)
    assert code.encoder is gen


def test_codeword_count_and_min_distance(z4):
    code = BlockCode(M(z4, [[1, 1]]))
    words = set(block_codewords(code))
    assert len(words) == z4.q ** code.k == 4
    assert min_distance_block(code) == 2


def test_min_distance_budget(z4):
    code = BlockCode(M(z4, [[1, 1]]))
    with pytest.raises(BudgetExceeded) as exc:
        min_distance_block(code, budget=2)
    assert (exc.value.requested, exc.value.allowed) == (4, 2)


def test_singleton_bound_block():
    assert singleton_bound_block(2, 2, 2) == 2
    assert singleton_bound_block(5, 3, 2) == 4
    with pytest.raises(InvalidParams):
        singleton_bound_block(1, 3, 1)
    with pytest.raises(InvalidParams):
        singleton_bound_block(3, 0, 2)


def test_repetition_code_is_mds(z4):
    assert is_mds(BlockCode(M(z4, [[1, 1]])))


def test_min_distance_never_beats_singleton(z4):
    rng = random.Random(13)
    els = list(z4.elements())
    z9 = zmod(9)
    for ring in (z4, z9):
        els = list(ring.elements())
        for _ in range(30):
            m, n = rng.randint(1, 2), rng.randint(2, 4)
            gen = M(ring, [[rng.choice(els) for _ in range(n)]
                           for _ in range(m)])
            if gen.is_zero():
                continue
            code = BlockCode(gen)
            d = min_distance_block(code)
            assert d <= singleton_bound_block(code.n, code.k, ring.nu)


def test_nu_optimal_sets_small():
    assert nu_optimal_sets(4, 2) == [(2, 0)]
    assert nu_optimal_sets(3, 2) == [(1, 1)]
    assert nu_optimal_sets(5, 3) == [(1, 1, 0)]
    assert nu_optimal_sets(0, 3) == [(0, 0, 0)]


def test_nu_optimal_sets_16_5():
    got = nu_optimal_sets(16, 5)
    assert set(got) == {(3, 0, 0, 0, 1), (2, 1, 0, 1, 0), (2, 0, 2, 0, 0),
                        (1, 2, 1, 0, 0), (0, 4, 0, 0, 0)}
    assert got == sorted(got)


def test_nu_optimal_sets_invariants():
    rng = random.Random(17)
    for _ in range(25):
        k, nu = rng.randint(1, 12), rng.randint(1, 4)
        sets = nu_optimal_sets(k, nu)
        assert sets, f"no tuples for k={k}, nu={nu}"
        target = -(-k // nu)
        for tup in sets:
            assert len(tup) == nu
            assert sum(c * (nu - i) for i, c in enumerate(tup)) == k
            assert sum(tup) == target


def test_nu_optimal_sets_rejects_bad_input():
    with pytest.raises(InvalidParams):
        nu_optimal_sets(-1, 2)
    with pytest.raises(InvalidParams):
        nu_optimal_sets(3, 0)


# nu = 1, 2 and 3; digit and Teichmueller transversals
BLOCK_RINGS = (zmod(2), zmod(5), GaloisRing(2, 1, 2), zmod(4), zmod(9),
               zmod(9, convention="teichmuller"), zmod(25),
               GaloisRing(2, 2, 2), TruncatedPolyRing(2, 2), zmod(8),
               TruncatedPolyRing(2, 3), zmod(27),
               zmod(27, convention="teichmuller"))


def valued_matrix(ring, m, n, rng):
    """Entries zero or a random element times a random power of gamma, so
    that rows of several levels occur."""
    els = list(ring.elements())
    return RingMatrix(ring, [[
        ring.zero if rng.random() < 0.3 else ring.mul(
            ring.gamma_power(rng.randrange(ring.nu)), rng.choice(els))
        for _ in range(n)] for _ in range(m)])


def distance_outcome(find, code, budget):
    try:
        return "d", find(code, budget=budget)
    except BudgetExceeded as exc:
        return "budget", exc.requested, exc.allowed


def test_min_distance_matches_enumeration():
    rng = random.Random(19)
    seen = Counter()
    for ring in BLOCK_RINGS:
        # at most about 10^3 codewords: k <= nu * m
        most_rows = min(3, int(log(1000, ring.q ** ring.nu)))
        for trial in range(120):
            gen = valued_matrix(ring, rng.randint(1, most_rows),
                                rng.randint(1, 5), rng)
            if gen.is_zero():
                continue
            if trial % 2:
                gen = gamma_basis(gen)
            code = BlockCode(gen)
            kept = code.encoder is gen
            total = ring.q ** code.k
            budget = rng.choice([10 ** 7, total, total - 1, total // 3,
                                 10 ** 7])
            got = distance_outcome(min_distance_block, code, budget)
            assert got == distance_outcome(min_distance_by_enumeration,
                                           code, budget), (gen.data, budget)
            seen[ring.nu, kept, got[0]] += 1
        for n in (1, 3):
            code = BlockCode(RingMatrix.zeros(ring, 2, n))
            assert code.k == 0
            for budget in (0, 1):
                got = distance_outcome(min_distance_block, code, budget)
                assert got == distance_outcome(min_distance_by_enumeration,
                                               code, budget)
                assert got == (("d", None) if budget else ("budget", 1, 0))
    assert sum(seen.values()) >= 1000
    # every nu, with generators kept and converted, answers and overruns
    assert {key for key in seen} >= set(product((1, 2, 3), (True, False),
                                                ("d", "budget")))


def test_degree_0_code_is_built_once_per_block_code(monkeypatch):
    # the constructor validates the generator's degree-0 code, and that of
    # its gamma_basis when the generator is not one; min_distance_block
    # reads the kept code and validates nothing
    from chaincodes import conv
    z9 = zmod(9)
    validated = []
    real = conv._is_gamma_basis

    def counting(G, pivots):
        validated.append(G.k)
        return real(G, pivots)

    monkeypatch.setattr(conv, "_is_gamma_basis", counting)
    code = BlockCode(M(z9, [[1, 2, 4, 5], [0, 3, 3, 6]]))
    assert code.k == 3 and validated == [2, 3]
    total = 3 ** code.k
    d = min_distance_block(code)
    assert min_distance_block(code) == min_distance_block(code, total) == d \
        == min_distance_by_enumeration(code, total)
    assert validated == [2, 3]
    again = BlockCode(code.encoder)
    assert again.encoder is code.encoder and validated == [2, 3, 3]
    with pytest.raises(BudgetExceeded) as exc:
        min_distance_block(code, total - 1)
    assert (exc.value.requested, exc.value.allowed) == (total, total - 1)


# the rings of the seeded gamma-basis gate comparison
GATE_RINGS = (zmod(4), zmod(9), zmod(25), GaloisRing(2, 2, 2),
              TruncatedPolyRing(2, 2))


def edited_generators(ring, rng, count):
    """Seeded generators of at most 4 rows, one in ten with none and half
    of the others the first rows of a gamma-basis, with up to two rows then
    replaced by zero, by gamma times another row, by a copy of one or by
    its sum with one."""
    for _ in range(count):
        n = rng.randint(1, 4)
        rows = [list(row) for row in
                valued_matrix(ring, rng.randint(1, 3), n, rng).data]
        if rng.random() < 0.5:
            rows = [list(row) for row in gamma_basis(M(ring, rows)).data]
        del rows[0 if rng.random() < 0.1 else 4:]
        for _ in range(rng.randint(0, 2) if rows else 0):
            i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
            rows[i] = rng.choice([
                [ring.zero] * n, list(rows[j]),
                [ring.mul(ring.gamma, e) for e in rows[j]],
                [ring.add(x, y) for x, y in zip(rows[i], rows[j])]])
        yield RingMatrix(ring, rows, cols=n)


@pytest.mark.parametrize("ring", GATE_RINGS, ids=repr)
def test_block_code_keeps_exactly_the_gamma_bases(ring):
    # the degree-0 code's validation, the matrix predicates and the
    # enumeration oracles agree on which generators are gamma-bases
    rng = random.Random(22)
    seen = Counter()
    for A in edited_generators(ring, rng, 120):
        code = BlockCode(A)
        kept = code.encoder is A
        assert kept == is_polynomial_gamma_basis(
            PolyMatrix(ring, [A], A.rows, A.cols)) == (
            is_gamma_generator_sequence(A)
            and gamma_dimension(A) == A.rows) == (
            generator_sequence_by_enumeration(A)
            and independent_by_enumeration(A)), A.data
        assert code.k == gamma_dimension(A)
        got = distance_outcome(min_distance_block, code, 5 ** 5)
        assert got == distance_outcome(min_distance_by_enumeration, code,
                                       5 ** 5), A.data
        seen[kept, A.rows == 0, got[0]] += 1
    # 0-row generators are kept; others are kept and converted, and most
    # codes are small enough to enumerate
    assert {(True, True, "d"), (True, False, "d"), (False, False, "d")} \
        <= set(seen)
    assert sum(n for key, n in seen.items() if key[2] == "d") >= 90


def test_singleton_bound_block_is_the_column_bound_at_j_0():
    # 14 * 14 * 8 = 1,568 points, invalid ones included
    for n, k, nu in product(range(-1, 13), range(-1, 13), range(-1, 7)):
        if k >= 1 and nu >= 1 and n >= ceil(k / nu):
            assert singleton_bound_block(n, k, nu) == n - ceil(k / nu) + 1 \
                == optimal_cd_bound(0, n, k, nu)
        else:
            with pytest.raises(InvalidParams):
                singleton_bound_block(n, k, nu)


def test_field_L_index_is_L_index_at_nu_1():
    # 14 * 12 * 23 = 3,864 points, invalid ones included
    for n, k, delta in product(range(-1, 13), range(-1, 11), range(-2, 21)):
        if k >= 1 and n > k:
            assert field_L_index(n, k, delta) == \
                delta // k + delta // (n - k) == L_index(n, k, delta, 1)
        else:
            with pytest.raises(InvalidParams):
                field_L_index(n, k, delta)
